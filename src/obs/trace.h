#ifndef FABRICSIM_OBS_TRACE_H_
#define FABRICSIM_OBS_TRACE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/ledger/block.h"

namespace fabricsim {

/// One endorsement round trip observed from the client: proposal sent
/// to one peer, response received back (flow steps 1-2).
struct EndorserSpan {
  PeerId peer_id = -1;
  OrgId org_id = -1;
  /// Proposal round that sent this request (0 = first; >0 are retries
  /// after an endorsement timeout).
  uint32_t attempt = 0;
  SimTime request_sent = 0;
  SimTime response_received = 0;  ///< 0 while in flight
};

/// How a traced transaction left the pipeline.
enum class TraceTerminal : uint8_t {
  /// Still somewhere in the pipeline (only possible mid-run).
  kInFlight = 0,
  /// Reached the ledger — committed or failed validation; final_code
  /// says which.
  kLedger,
  /// Dropped by the client: an endorser returned a chaincode error.
  kAppError,
  /// Read-only transaction not submitted for ordering
  /// (recommendation #4 flow).
  kReadOnlySkipped,
  /// Aborted during the ordering phase (Fabric++ cycle removal or
  /// FabricSharp serializability check); never reached the ledger.
  kEarlyAborted,
  /// Dropped at submission: no organization had an endorsing peer.
  kNoEndorsers,
  /// Abandoned by the client after exhausting its endorsement retry
  /// budget (only with a ClientRetryPolicy timeout configured).
  kEndorseTimeout,
  /// Abandoned by the client after exhausting its ordering-broadcast
  /// budget: no orderer replica acked the envelope (replicated ordering
  /// mode only).
  kOrdererUnavailable,
  /// Shed by an endorser's bounded admission queue (overload
  /// protection); the client fast-fails the transaction.
  kAdmissionShed,
  /// The client deadline expired before the transaction reached the
  /// ledger — noticed at an endorser queue or at orderer ingress.
  kDeadlineExpired,
  /// Rejected by the orderer's bounded broadcast ingress; the client
  /// received an explicit throttle signal.
  kOrdererThrottled,
  /// Suppressed at the source: the client's circuit breaker was open
  /// when the submission was due.
  kBreakerRejected,
};

const char* TraceTerminalToString(TraceTerminal terminal);

/// Why a transaction failed, resolved to the concrete conflict: the
/// failure class plus — for MVCC and phantom conflicts — the key whose
/// version check failed, the version the endorser read, and the
/// version validation observed (whose (block, tx) coordinates name the
/// offending writer). This is the per-transaction answer to the
/// paper's title question.
struct FailureAttribution {
  TxValidationCode code = TxValidationCode::kNotValidated;
  MvccClass mvcc_class = MvccClass::kNone;
  /// MVCC/phantom: the first key whose version check failed.
  std::string conflicting_key;
  /// Version the endorser recorded for the key (meaningful when
  /// read_found).
  bool read_found = false;
  Version read_version;
  /// Version found at validation time (meaningful when
  /// observed_found). Its (block_num, tx_num) identify the
  /// invalidating write.
  bool observed_found = false;
  Version observed_version;
  /// Intra-block conflicts: id of the invalidating transaction.
  TxId conflicting_tx = 0;
  /// Block in which the transaction was invalidated (0 for aborts that
  /// never reached the ledger).
  uint64_t block_number = 0;
};

/// The full lifecycle trace of one transaction: timestamped phase
/// spans along the execute-order-validate pipeline plus the failure
/// attribution for aborted transactions. All timestamps are absolute
/// simulated time; 0 means "never reached that phase".
struct TxTrace {
  TxId id = 0;
  /// Channel the transaction was submitted on. Serialized only when
  /// nonzero, so single-channel exports keep the version-1 row layout
  /// byte-for-byte.
  ChannelId channel = 0;
  std::string function;
  bool read_only = false;
  TraceTerminal terminal = TraceTerminal::kInFlight;
  TxValidationCode final_code = TxValidationCode::kNotValidated;
  uint64_t block_number = 0;
  uint32_t tx_index = 0;
  /// Endorsement re-proposal rounds this transaction needed (0 = none).
  uint32_t retries = 0;
  /// Resubmission chain links (0 = none): the failed transaction this
  /// one re-attempts, and the fresh transaction that re-attempted this
  /// one after it failed with an MVCC/phantom conflict.
  TxId resubmit_of = 0;
  TxId resubmitted_as = 0;

  // --- phase spans ---------------------------------------------------
  SimTime client_submit = 0;    ///< proposals sent to the endorsers
  std::vector<EndorserSpan> endorsers;
  SimTime endorsed = 0;         ///< all endorsement responses collected
  SimTime orderer_enqueue = 0;  ///< envelope arrived at the orderer
  SimTime block_cut = 0;        ///< placed into a block
  SimTime committed = 0;        ///< validated & committed (reference peer)

  /// Heap-allocated (set only for failed transactions) to keep the
  /// common-case TxTrace slot small — trace storage is the dominant
  /// cost of enabled tracing, so slot size directly bounds that cost.
  std::unique_ptr<FailureAttribution> failure;

  /// Phase durations. They telescope: Endorse + Ordering + Commit ==
  /// TotalLatency for every ledger transaction.
  SimTime EndorsePhase() const { return endorsed - client_submit; }
  /// Collect + submit network hop + orderer queueing + block cutting.
  SimTime OrderingPhase() const { return block_cut - endorsed; }
  /// Consensus + delivery + validation + state-DB/ledger commit.
  SimTime CommitPhase() const { return committed - block_cut; }
  SimTime TotalLatency() const { return committed - client_submit; }

  /// Renders the trace as one JSONL row object.
  std::string ToJson() const;
};

}  // namespace fabricsim

#endif  // FABRICSIM_OBS_TRACE_H_
