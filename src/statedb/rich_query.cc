#include "src/statedb/rich_query.h"

#include "src/common/strings.h"

namespace fabricsim {

std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : fields) {
    if (!first) out += ",";
    first = false;
    out += "\"" + k + "\":\"" + v + "\"";
  }
  out += "}";
  return out;
}

std::optional<std::string_view> JsonFieldView(std::string_view doc,
                                              std::string_view field) {
  // Finds the first `"field":"` without building it: the first
  // occurrence of `field` with a quote before it and `":"` after it.
  constexpr std::string_view kSeparator = "\":\"";
  for (size_t pos = doc.find(field, 1); pos != std::string_view::npos;
       pos = doc.find(field, pos + 1)) {
    size_t after = pos + field.size();
    if (doc[pos - 1] != '"' ||
        doc.compare(after, kSeparator.size(), kSeparator) != 0) {
      continue;
    }
    size_t start = after + kSeparator.size();
    size_t end = doc.find('"', start);
    if (end == std::string_view::npos) return std::nullopt;
    return doc.substr(start, end - start);
  }
  return std::nullopt;
}

std::optional<std::string> ExtractJsonField(const std::string& doc,
                                            const std::string& field) {
  std::optional<std::string_view> got = JsonFieldView(doc, field);
  if (!got.has_value()) return std::nullopt;
  return std::string(*got);
}

Result<RichQuerySelector> RichQuerySelector::Parse(
    const std::string& selector) {
  RichQuerySelector out;
  for (const std::string& raw : StrSplit(selector, '&')) {
    std::string term = StrTrim(raw);
    if (term.empty()) continue;
    size_t pos = term.find("==");
    if (pos == std::string::npos || pos == 0) {
      return Status::InvalidArgument("bad selector term: " + term);
    }
    out.terms_.emplace_back(StrTrim(term.substr(0, pos)),
                            StrTrim(term.substr(pos + 2)));
  }
  if (out.terms_.empty()) {
    return Status::InvalidArgument("empty selector");
  }
  return out;
}

bool RichQuerySelector::Matches(std::string_view doc) const {
  for (const auto& [field, value] : terms_) {
    std::optional<std::string_view> got = JsonFieldView(doc, field);
    if (!got.has_value() || *got != value) return false;
  }
  return true;
}

std::string RichQuerySelector::ToString() const {
  std::string out;
  for (const auto& [field, value] : terms_) {
    if (!out.empty()) out += "&";
    out += field + "==" + value;
  }
  return out;
}

std::vector<StateEntryRef> ExecuteRichQuery(
    const StateDatabase& db, const RichQuerySelector& selector) {
  std::vector<StateEntryRef> out;
  db.ForEachMatch(selector,
                  [&out](const std::string& key, const VersionedValue& vv) {
                    out.push_back(StateEntryRef{key, vv});
                  });
  return out;
}

}  // namespace fabricsim
