#include "src/ledger/ledger_parser.h"

namespace fabricsim {

std::vector<TxRecord> LedgerParser::Parse(const BlockStore& store) {
  std::vector<TxRecord> records;
  records.reserve(store.TotalTransactions());
  for (const Block& block : store.blocks()) {
    for (size_t i = 0; i < block.txs.size(); ++i) {
      const Transaction& tx = block.txs[i];
      const TxValidationResult& res = block.results[i];
      TxRecord rec;
      rec.id = tx.id;
      rec.block_number = block.number;
      rec.tx_index = static_cast<uint32_t>(i);
      rec.chaincode = tx.chaincode;
      rec.function = tx.function;
      rec.code = res.code;
      rec.mvcc_class = res.mvcc_class;
      rec.conflicting_tx = res.conflicting_tx;
      rec.read_only = tx.read_only;
      rec.submit_time = tx.client_submit_time;
      rec.endorsed_time = tx.endorsed_time;
      rec.ordered_time = tx.ordered_time;
      rec.committed_time = tx.committed_time;
      records.push_back(std::move(rec));
    }
  }
  return records;
}

void LedgerSummary::Count(const TxValidationResult& result) {
  ++total;
  switch (result.code) {
    case TxValidationCode::kValid:
      ++valid;
      break;
    case TxValidationCode::kEndorsementPolicyFailure:
      ++endorsement_policy_failures;
      break;
    case TxValidationCode::kMvccReadConflict:
      if (result.mvcc_class == MvccClass::kIntraBlock) {
        ++mvcc_intra_block;
      } else {
        ++mvcc_inter_block;
      }
      break;
    case TxValidationCode::kPhantomReadConflict:
      ++phantom_read_conflicts;
      break;
    case TxValidationCode::kAbortedByReordering:
      ++reordering_aborts;
      break;
    case TxValidationCode::kDeadlineExpiredCommit:
      ++deadline_expired;
      break;
    case TxValidationCode::kAbortedNotSerializable:
    case TxValidationCode::kNotValidated:
    case TxValidationCode::kDeadlineExpiredEndorse:
    case TxValidationCode::kDeadlineExpiredOrder:
      break;
  }
}

}  // namespace fabricsim
