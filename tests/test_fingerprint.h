// Exhaustive numeric fingerprints of a FailureReport, shared by the
// tests that pin goldens: integer counters plus %.17g-rendered
// doubles, so two reports compare bit-for-bit. The format matches the
// generator that produced every pinned golden string; changing it
// re-records all of them. The p50/p99 in each `lat=` field are the
// commit-time fold's sketch quantiles, within
// QuantileSketch::kRelativeError of the exact order statistic
// (ReportFoldTest in channel_test.cc checks that bound).
#ifndef FABRICSIM_TESTS_TEST_FINGERPRINT_H_
#define FABRICSIM_TESTS_TEST_FINGERPRINT_H_

#include <string>

#include "src/common/strings.h"
#include "src/core/failure_report.h"

namespace fabricsim {

inline std::string Fingerprint(const FailureReport& r) {
  std::string out;
  out += StrFormat(
      "ledger=%llu valid=%llu endorse=%llu mvcc_intra=%llu "
      "mvcc_inter=%llu phantom=%llu submitted=%llu app=%llu\n",
      static_cast<unsigned long long>(r.ledger_txs),
      static_cast<unsigned long long>(r.valid_txs),
      static_cast<unsigned long long>(r.endorsement_failures),
      static_cast<unsigned long long>(r.mvcc_intra),
      static_cast<unsigned long long>(r.mvcc_inter),
      static_cast<unsigned long long>(r.phantom),
      static_cast<unsigned long long>(r.submitted_txs),
      static_cast<unsigned long long>(r.app_errors));
  out += StrFormat("pct=%.17g/%.17g/%.17g/%.17g/%.17g\n", r.total_failure_pct,
                   r.endorsement_pct, r.mvcc_pct, r.phantom_pct,
                   r.early_abort_pct);
  out += StrFormat("lat=%.17g/%.17g/%.17g tput=%.17g/%.17g\n", r.avg_latency_s,
                   r.p50_latency_s, r.p99_latency_s, r.committed_throughput_tps,
                   r.valid_throughput_tps);
  return out;
}

/// Fingerprint extended with one row per channel of the per-channel
/// breakdown.
inline std::string FingerprintWithChannels(const FailureReport& r) {
  std::string out = Fingerprint(r);
  for (const ChannelFailureBreakdown& c : r.per_channel) {
    out += StrFormat("ch%d=%llu/%llu/%llu/%llu/%llu/%llu %.17g/%.17g/%.17g\n",
                     c.channel, static_cast<unsigned long long>(c.ledger_txs),
                     static_cast<unsigned long long>(c.valid_txs),
                     static_cast<unsigned long long>(c.endorsement_failures),
                     static_cast<unsigned long long>(c.mvcc_intra),
                     static_cast<unsigned long long>(c.mvcc_inter),
                     static_cast<unsigned long long>(c.phantom),
                     c.total_failure_pct, c.mvcc_pct,
                     c.committed_throughput_tps);
  }
  return out;
}

}  // namespace fabricsim

#endif  // FABRICSIM_TESTS_TEST_FINGERPRINT_H_
