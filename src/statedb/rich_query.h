#ifndef FABRICSIM_STATEDB_RICH_QUERY_H_
#define FABRICSIM_STATEDB_RICH_QUERY_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/statedb/state_database.h"

namespace fabricsim {

/// Serializes a flat string-field map into a JSON object, e.g.
/// JsonObject({{"docType","unit"},{"lsp","LSP3"}}). Chaincode values
/// are stored in this format so CouchDB-style rich queries can select
/// on fields.
std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields);

/// THE value of `field` in a flat JSON object produced by JsonObject():
/// the text after the first `"field":"`, up to the next quote. nullopt
/// when the field is absent. Allocation-free; the view points into
/// `doc`. ExtractJsonField, RichQuerySelector::Matches and the
/// rich-query field index (MemoryStateDb::KeysWhere) all read fields
/// through it, so the index agrees with a document scan by
/// construction.
std::optional<std::string_view> JsonFieldView(std::string_view doc,
                                              std::string_view field);

/// JsonFieldView, copied out.
std::optional<std::string> ExtractJsonField(const std::string& doc,
                                            const std::string& field);

/// A CouchDB-selector-like equality query: `field==value` terms joined
/// with '&', e.g. "docType==unit&lsp==LSP3". This is the subset of
/// Mango selectors the paper's chaincodes need (queryStock,
/// calcRevenue). Rich queries are answered from the store's field
/// index and are *not* re-executed at validation — no phantom read
/// detection (paper §5.1.2), exactly like Fabric's GetQueryResult.
/// Parse is the only way to build one, so a selector always has at
/// least one term.
class RichQuerySelector {
 public:
  static Result<RichQuerySelector> Parse(const std::string& selector);

  /// True when every equality term matches the document. Allocation-free.
  bool Matches(std::string_view doc) const;

  const std::vector<std::pair<std::string, std::string>>& terms() const {
    return terms_;
  }
  std::string ToString() const;

 private:
  RichQuerySelector() = default;

  std::vector<std::pair<std::string, std::string>> terms_;
};

/// Runs the selector against `db`, returning matching entries in key
/// order. Candidates are the smallest of the terms' posting lists in
/// the store's field index (StateDatabase::KeysWhere); each is
/// fetched with Get and re-checked against every term. No document
/// outside that list is read.
std::vector<StateEntry> ExecuteRichQuery(const StateDatabase& db,
                                         const RichQuerySelector& selector);

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_RICH_QUERY_H_
