#include "src/chaincode/stub.h"

namespace fabricsim {

ChaincodeStub::ChaincodeStub(const StateDatabase& db,
                             bool rich_queries_supported)
    : db_(db), rich_queries_supported_(rich_queries_supported) {}

std::optional<std::string> ChaincodeStub::GetState(const std::string& key) {
  const VersionedValue* vv = db_.Find(key);
  if (vv == nullptr) {
    rwset_.reads.push_back(ReadItem{key, Version{}, false});
    return std::nullopt;
  }
  rwset_.reads.push_back(ReadItem{key, vv->version, true});
  return vv->value;
}

void ChaincodeStub::PutState(const std::string& key, std::string value) {
  rwset_.writes.push_back(WriteItem{key, std::move(value), false});
}

void ChaincodeStub::DelState(const std::string& key) {
  rwset_.writes.push_back(WriteItem{key, "", true});
}

void ChaincodeStub::RecordRangeRead(RangeQueryInfo info,
                                    const std::vector<StateEntryRef>& entries) {
  info.reads.reserve(entries.size());
  for (const StateEntryRef& e : entries) {
    info.reads.push_back(ReadItem{e.key, e.vv.version, true});
  }
  rwset_.range_queries.push_back(std::move(info));
}

std::vector<StateEntryRef> ChaincodeStub::GetStateByRange(
    const std::string& start_key, const std::string& end_key) {
  std::vector<StateEntryRef> entries;
  db_.ForEachInRange(start_key, end_key,
                     [&entries](const std::string& key,
                                const VersionedValue& vv) {
                       entries.push_back(StateEntryRef{key, vv});
                     });
  RangeQueryInfo info;
  info.start_key = start_key;
  info.end_key = end_key;
  info.phantom_check = true;
  RecordRangeRead(std::move(info), entries);
  return entries;
}

std::vector<StateEntryRef> ChaincodeStub::GetStateByPartialCompositeKey(
    const std::string& object_type,
    const std::vector<std::string>& partial_attributes) {
  auto [start, end] = CompositeKeyRange(object_type, partial_attributes);
  return GetStateByRange(start, end);
}

Result<std::vector<StateEntryRef>> ChaincodeStub::GetQueryResult(
    const std::string& selector) {
  if (!rich_queries_supported_) {
    return Status::Unimplemented(
        "rich queries require CouchDB as the state database");
  }
  Result<RichQuerySelector> parsed = RichQuerySelector::Parse(selector);
  if (!parsed.ok()) return parsed.status();
  std::vector<StateEntryRef> entries = ExecuteRichQuery(db_, parsed.value());
  RangeQueryInfo info;
  info.phantom_check = false;  // Fabric does not re-execute rich queries
  info.rich_selector = selector;
  RecordRangeRead(std::move(info), entries);
  return entries;
}

}  // namespace fabricsim
