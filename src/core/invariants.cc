#include "src/core/invariants.h"

#include "src/common/strings.h"
#include "src/fabric/fabric_network.h"

namespace fabricsim {

std::string ChainIntegrityReport::Summary() const {
  std::string out;
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) out += "; ";
    out += violations[i];
  }
  return out;
}

ChainIntegrityReport CheckChannel(const ChannelState& channel,
                                  const std::vector<TxId>& acked_txs) {
  ChainIntegrityReport report;
  report.violations = channel.violations();
  // The ack fires at quorum commit, so the transaction must reach a
  // block some peer committed — whichever peer, so the check holds
  // when the reference peer crashed.
  for (TxId id : acked_txs) {
    if (!channel.committed(id)) {
      report.violations.push_back(
          StrFormat("acked tx %llu never committed (lost across failover)",
                    static_cast<unsigned long long>(id)));
    }
  }
  return report;
}

ChainIntegrityReport CheckChainIntegrity(const FabricNetwork& network) {
  ChainIntegrityReport combined;
  for (int c = 0; c < network.num_channels(); ++c) {
    ChainIntegrityReport report =
        CheckChannel(network.channel_state(c), network.acked_txs(c));
    for (std::string& violation : report.violations) {
      combined.violations.push_back(
          c == 0 ? std::move(violation)
                 : StrFormat("channel %d: ", c) + violation);
    }
  }
  return combined;
}

}  // namespace fabricsim
