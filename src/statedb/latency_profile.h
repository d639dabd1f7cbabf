#ifndef FABRICSIM_STATEDB_LATENCY_PROFILE_H_
#define FABRICSIM_STATEDB_LATENCY_PROFILE_H_

#include <cstddef>
#include <string>

#include "src/common/sim_time.h"
#include "src/ledger/rwset.h"

namespace fabricsim {

/// Which state database backs the peers (paper §4.5 control variable).
enum class DatabaseType {
  kLevelDb,  ///< embedded in the peer process; get/put is ~µs–sub-ms
  kCouchDb,  ///< external process reached over REST; every op pays IPC
};

const char* DatabaseTypeToString(DatabaseType type);

/// Service-time model for the two state databases, calibrated to the
/// per-chaincode-call latencies the paper reports in Table 4
/// (GetState 8.3 ms CouchDB vs 0.6 ms LevelDB, GetRange 88 ms vs
/// 1.4 ms, ...). These costs are charged to the peer's work queue for
/// every endorsement, validation and commit, which is how the CouchDB
/// queueing collapse under range-heavy load emerges.
struct DbLatencyProfile {
  DatabaseType type = DatabaseType::kCouchDb;

  /// Endorsement-time GetState.
  SimTime get = 0;
  /// Endorsement-time PutState (buffered into the write set; cheap for
  /// both databases — Table 4: 0.8 ms vs 0.5 ms).
  SimTime put = 0;
  /// Endorsement-time DelState.
  SimTime del = 0;
  /// Range scan: fixed cost, detailed per-key cost for the first
  /// `range_detail_keys` results, then a cheaper bulk streaming rate —
  /// large scans are paginated, they do not pay the per-request
  /// round-trip per key.
  SimTime range_base = 0;
  SimTime range_per_key = 0;
  SimTime range_bulk_per_key = 0;
  int range_detail_keys = 32;
  /// Rich (JSON selector) query: fixed + per-returned-document cost
  /// (EndorseCost charges rich_per_doc for each document the query
  /// returns). Only CouchDB supports rich queries.
  SimTime rich_base = 0;
  SimTime rich_per_doc = 0;

  /// Validation-time version check per read-set entry. Fabric reads
  /// committed versions back from the state DB in bulk, so this is
  /// cheaper than a full get but still far more expensive for CouchDB.
  SimTime validate_per_read = 0;
  /// Validation-time phantom re-scan of a range query: the committer
  /// only needs keys+versions (an index read), not the documents.
  SimTime validate_range_base = 0;
  SimTime validate_range_per_key = 0;
  /// Commit-time cost per applied write.
  SimTime commit_per_write = 0;
  /// Fixed commit cost per block (state DB batch + ledger append).
  SimTime commit_base = 0;

  /// Whether rich queries are supported (CouchDB only).
  bool supports_rich_queries = false;

  static DbLatencyProfile LevelDb();
  static DbLatencyProfile CouchDb();

  /// Cost of generating `rwset` at endorsement time (sum of op costs).
  SimTime EndorseCost(const ReadWriteSet& rwset) const;

  /// Cost of validating `rwset` (MVCC checks + phantom re-scans).
  SimTime ValidateCost(const ReadWriteSet& rwset) const;

  /// Cost of committing `write_count` writes.
  SimTime CommitCost(size_t write_count) const;
};

/// Storage profile for the ledger/world-state medium (Streamchain's
/// RAM-disk requirement, §5.3.3). Scales commit costs.
struct StorageProfile {
  /// Multiplier on commit costs (1.0 = normal disk).
  double commit_cost_factor = 1.0;
  static StorageProfile Disk() { return StorageProfile{1.0}; }
  static StorageProfile RamDisk() { return StorageProfile{0.06}; }
};

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_LATENCY_PROFILE_H_
