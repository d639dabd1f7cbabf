#ifndef FABRICSIM_CHANNELS_CHANNEL_TYPES_H_
#define FABRICSIM_CHANNELS_CHANNEL_TYPES_H_

#include "src/ledger/transaction.h"

namespace fabricsim {

/// The channel every single-channel deployment runs on, and the
/// namespace chaincode registrations fall back to when a channel has
/// no channel-specific installation.
constexpr ChannelId kDefaultChannel = 0;

/// How clients spread their transactions across channels. A real
/// Fabric network shards load by channel; popularity is rarely even —
/// one consortium's channel often carries most of the traffic while
/// side channels idle. `skew` is the Zipf theta over channel
/// popularity (0 = uniform; channel 0 is always the hottest rank), and
/// `channels_per_client` pins each client to a contiguous subset of
/// channels (0 = every client sees every channel), modelling clients
/// that are members of only some consortia.
struct ChannelAffinityConfig {
  double skew = 0.0;
  int channels_per_client = 0;
  /// Pins every client under this config to exactly this channel
  /// (scenario packs use it to aim one behaviour class at one
  /// channel's ledger). Negative = no pin; when set it overrides
  /// skew/channels_per_client and the chooser draws zero randomness.
  int pinned_channel = -1;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHANNELS_CHANNEL_TYPES_H_
