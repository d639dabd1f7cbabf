#include "src/peer/peer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/obs/tracer.h"

namespace fabricsim {

Peer::Peer(Params params)
    : id_(params.id),
      org_(params.org),
      node_(params.node),
      env_(params.env),
      net_(params.net),
      validator_(std::move(params.policy)),
      db_profile_(params.db_profile),
      timing_(params.timing),
      variant_(params.variant),
      validation_cost_factor_(params.validation_cost_factor),
      snapshot_interval_(params.snapshot_interval),
      virtual_block_group_(params.virtual_block_group == 0
                               ? 1
                               : params.virtual_block_group),
      rng_(std::move(params.rng)),
      on_commit_(std::move(params.on_commit)),
      endorse_queue_("endorse"),
      validate_pool_("validate",
                     std::max(params.timing.peer_commit_workers, 1)) {
  // An AdmissionConfig with nothing enabled is treated as absent, so
  // harnesses can plumb the config unconditionally.
  if (params.admission != nullptr && params.admission->enabled()) {
    admission_ = params.admission;
    admission_stats_ = params.admission_stats;
  }
  channels_.resize(params.channel_states.size());
  for (size_t c = 0; c < channels_.size(); ++c) {
    ChannelLedger& ch = channels_[c];
    ch.world = params.channel_states[c];
    ch.state = ch.world->AddReader();
    ch.endorse_view = ch.state;
    ch.next_to_enqueue = ch.state->height() + 1;
    if (variant_ == FabricVariant::kFabricSharp && snapshot_interval_ > 0) {
      // FabricSharp parallelizes execution and validation with block
      // snapshots: endorsers run against a periodically refreshed
      // snapshot height, which lags behind the committed height.
      ch.endorse_view = ch.world->AddReader();
    }
    ch.chaincode = c < params.channel_chaincodes.size() &&
                           params.channel_chaincodes[c] != nullptr
                       ? params.channel_chaincodes[c]
                       : params.chaincode;
  }
}

void Peer::HandleProposal(ProposalRequest request) {
  if (!alive_) {
    // The endorsing gRPC endpoint is down: the proposal vanishes and
    // the client only learns through its own timeout.
    ++proposals_dropped_;
    return;
  }
  if (admission_ != nullptr) {
    HandleProposalAdmitted(std::move(request));
    return;
  }
  auto result = std::make_shared<EndorsementResult>();
  auto executed = std::make_shared<bool>(false);
  auto req = std::make_shared<ProposalRequest>(std::move(request));
  endorse_queue_.Submit(
      *env_,
      [this, result, executed, req]() -> SimTime {
        if (!alive_) return 0;  // crashed while queued: abandon silently
        ChannelLedger& ch = Channel(req->channel);
        // Chaincode simulation against the endorsement view *as of
        // now* — the staleness of this view is the root of both
        // endorsement mismatches and MVCC conflicts.
        *result = SimulateProposal(*ch.endorse_view, *ch.chaincode,
                                   req->invocation,
                                   db_profile_.supports_rich_queries);
        *executed = true;
        SimTime service = timing_.proposal_overhead +
                          db_profile_.EndorseCost(result->rwset) +
                          timing_.endorsement_sign_cost;
        return static_cast<SimTime>(static_cast<double>(service) *
                                    JitterFactor());
      },
      [this, result, executed, req]() {
        if (!*executed || !alive_) {
          ++proposals_dropped_;
          return;
        }
        ProposalResponse response;
        response.tx_id = req->tx_id;
        response.app_ok = result->app_status.ok();
        response.app_error = result->app_status.message();
        response.rwset = std::move(result->rwset);
        response.endorsement = Endorsement{
            id_, org_, response.rwset.Digest(), /*signature_valid=*/true};
        req->reply(std::move(response));
      });
}

void Peer::CancelProposal(TxId tx_id) {
  if (!alive_) return;
  for (const std::shared_ptr<PendingEndorse>& entry : admission_pending_) {
    if (entry->req.tx_id != tx_id || entry->cancelled) continue;
    entry->cancelled = true;
    if (admission_live_ > 0) --admission_live_;
    if (admission_stats_ != nullptr) ++admission_stats_->endorse_cancelled;
  }
}

void Peer::SendRejectReply(const ProposalRequest& request,
                           ProposalReject why) {
  ProposalResponse response;
  response.tx_id = request.tx_id;
  response.reject = why;
  // Identify the refusing org so the client can attribute the shed
  // (and so per-org counters line up with the reply stream).
  response.endorsement.peer_id = id_;
  response.endorsement.org_id = org_;
  request.reply(std::move(response));
}

void Peer::HandleProposalAdmitted(ProposalRequest request) {
  const AdmissionConfig& cfg = *admission_;
  const SimTime now = env_->now();
  // Depth = live proposals waiting or in service. Cancelled husks are
  // excluded: they drain at zero cost, so counting them would make the
  // bound shed real work to protect capacity that isn't actually
  // occupied (a positive feedback loop — every shed creates husks at
  // the sibling org, which would trigger more sheds there).
  const uint32_t depth = admission_live_ + (endorse_queue_.busy() ? 1u : 0u);
  if (admission_stats_ != nullptr) {
    admission_stats_->endorse_depth.Add(static_cast<double>(depth));
  }

  // Already-expired proposals are refused at the door: one queue slot
  // and a full chaincode simulation saved.
  if (request.deadline > 0 && now > request.deadline) {
    if (admission_stats_ != nullptr) {
      ++admission_stats_->deadline_expired_endorse;
    }
    SendRejectReply(request, ProposalReject::kExpired);
    return;
  }

  if (cfg.max_endorse_queue_depth > 0 &&
      depth >= cfg.max_endorse_queue_depth) {
    if (cfg.endorse_policy == AdmissionQueuePolicy::kRejectNew) {
      if (admission_stats_ != nullptr) admission_stats_->NoteShed(org_);
      SendRejectReply(request, ProposalReject::kShed);
      return;
    }
    if (cfg.endorse_policy == AdmissionQueuePolicy::kDropOldest) {
      // Cancelled husks at the front carry no load; discard them
      // before picking a victim so the eviction frees a live slot.
      while (!admission_pending_.empty() &&
             admission_pending_.front()->cancelled) {
        admission_pending_.pop_front();
      }
      if (!admission_pending_.empty()) {
        // Evict the proposal that has queued longest: it carries the
        // most endorsement staleness and is the likeliest MVCC
        // casualty. The victim stays in the serial queue as a
        // zero-cost husk; the client hears about the shed right away.
        std::shared_ptr<PendingEndorse> victim = admission_pending_.front();
        admission_pending_.pop_front();
        victim->cancelled = true;
        if (admission_live_ > 0) --admission_live_;
        if (admission_stats_ != nullptr) admission_stats_->NoteShed(org_);
        SendRejectReply(victim->req, ProposalReject::kShed);
      }
    }
  }

  auto entry = std::make_shared<PendingEndorse>();
  entry->req = std::move(request);
  entry->enqueue_time = now;
  admission_pending_.push_back(entry);
  ++admission_live_;
  endorse_queue_.Submit(
      *env_,
      [this, entry]() -> SimTime {
        if (!admission_pending_.empty() &&
            admission_pending_.front() == entry) {
          admission_pending_.pop_front();
        }
        if (!alive_) return 0;  // crashed while queued: abandon silently
        // Drop-oldest victim (already replied) or cancellation-
        // propagation husk (client long gone): zero-cost drain. Both
        // left the live count when they were marked.
        if (entry->cancelled) return 0;
        if (admission_live_ > 0) --admission_live_;
        const SimTime now = env_->now();
        const SimTime sojourn = now - entry->enqueue_time;
        if (admission_stats_ != nullptr) {
          admission_stats_->endorse_sojourn_ms.Add(ToMillis(sojourn));
        }
        if (entry->req.deadline > 0 && now > entry->req.deadline) {
          // Expired while queueing: refuse without simulating.
          entry->refusal = ProposalReject::kExpired;
          if (admission_stats_ != nullptr) {
            ++admission_stats_->deadline_expired_endorse;
          }
          return 0;
        }
        if (admission_->endorse_policy == AdmissionQueuePolicy::kCoDel &&
            codel_.ShouldDrop(sojourn, now, admission_->codel_target,
                              admission_->codel_interval)) {
          entry->refusal = ProposalReject::kShed;
          if (admission_stats_ != nullptr) admission_stats_->NoteShed(org_);
          return 0;
        }
        ChannelLedger& ch = Channel(entry->req.channel);
        entry->result = SimulateProposal(*ch.endorse_view, *ch.chaincode,
                                         entry->req.invocation,
                                         db_profile_.supports_rich_queries);
        entry->executed = true;
        SimTime service = timing_.proposal_overhead +
                          db_profile_.EndorseCost(entry->result.rwset) +
                          timing_.endorsement_sign_cost;
        return static_cast<SimTime>(static_cast<double>(service) *
                                    JitterFactor());
      },
      [this, entry]() {
        if (entry->cancelled) return;  // reply sent at eviction
        if (entry->refusal != ProposalReject::kNone) {
          if (!alive_) {
            ++proposals_dropped_;
            return;
          }
          SendRejectReply(entry->req, entry->refusal);
          return;
        }
        if (!entry->executed || !alive_) {
          ++proposals_dropped_;
          return;
        }
        ProposalResponse response;
        response.tx_id = entry->req.tx_id;
        response.app_ok = entry->result.app_status.ok();
        response.app_error = entry->result.app_status.message();
        response.rwset = std::move(entry->result.rwset);
        response.endorsement = Endorsement{
            id_, org_, response.rwset.Digest(), /*signature_valid=*/true};
        entry->req.reply(std::move(response));
      });
}

void Peer::HandleBlock(std::shared_ptr<const Block> block) {
  if (!alive_) {
    ++blocks_dropped_;
    return;
  }
  ChannelLedger& ch = Channel(block->channel);
  if (block->number < ch.next_to_enqueue) {
    return;  // late duplicate of a block already replayed during catch-up
  }
  ch.reorder_buffer[block->number] = std::move(block);
  TryProcessBuffered(ch);
}

void Peer::Crash() {
  alive_ = false;
  // Process memory is lost, including blocks parked for reordering —
  // on every channel the peer serves; catch-up refetches them from
  // the canonical chains (every delivered block was recorded there at
  // cut time).
  for (ChannelLedger& ch : channels_) {
    blocks_dropped_ += ch.reorder_buffer.size();
    ch.reorder_buffer.clear();
  }
  // Queued proposals die with the process; their husks drain through
  // the serial queue at zero cost (the at_start alive_ check), exactly
  // like the legacy crash path. No shed replies: a dead endpoint
  // cannot answer, the client learns via its own timeout.
  admission_pending_.clear();
  admission_live_ = 0;
}

void Peer::Restart() {
  if (alive_) return;
  alive_ = true;
  CatchUp();
}

void Peer::CatchUp() {
  if (!block_fetcher_) return;
  // Replay every canonical block cut while we were down — on every
  // channel, oldest first per channel — through the normal validation
  // pipeline (the replicated validation work is real; the channel's
  // commit record still spares recomputation). Blocks cut after the
  // restart arrive through regular delivery and find each chain
  // already dense.
  for (size_t c = 0; c < channels_.size(); ++c) {
    ChannelLedger& ch = channels_[c];
    while (std::shared_ptr<const Block> block = block_fetcher_(
               static_cast<ChannelId>(c), ch.next_to_enqueue)) {
      ++blocks_replayed_;
      ch.reorder_buffer[block->number] = std::move(block);
      TryProcessBuffered(ch);
    }
  }
}

void Peer::TryProcessBuffered(ChannelLedger& ch) {
  while (true) {
    auto it = ch.reorder_buffer.find(ch.next_to_enqueue);
    if (it == ch.reorder_buffer.end()) return;
    std::shared_ptr<const Block> block = std::move(it->second);
    ch.reorder_buffer.erase(it);
    ++ch.next_to_enqueue;
    ProcessBlock(std::move(block));
  }
}

double Peer::JitterFactor() {
  double j = timing_.peer_service_jitter;
  if (j <= 0) return 1.0;
  return rng_.UniformRange(1.0 - j, 1.0 + j);
}

SimTime Peer::ValidationServiceTime(const Block& block,
                                    const ValidationOutcome& outcome,
                                    bool charge_fixed_costs) const {
  SimTime vscc = 0;
  SimTime mvcc = 0;
  for (size_t i = 0; i < block.txs.size(); ++i) {
    if (outcome.results[i].code == TxValidationCode::kAbortedByReordering) {
      continue;  // pre-aborted in ordering; committer skips it
    }
    const Transaction& tx = block.txs[i];
    vscc += validator_.policy().VsccParallelCost(tx.endorsements.size());
    mvcc += validator_.policy().VsccSerialCost() +
            db_profile_.ValidateCost(tx.rwset);
  }
  int parallelism = std::max(timing_.vscc_parallelism, 1);
  // Streamchain's pipelining/parallel validation speeds up the
  // CPU-bound checks; the storage costs are only reduced by the
  // storage medium (RAM disk), which the profile already reflects.
  SimTime service = static_cast<SimTime>(
      static_cast<double>(vscc / parallelism + mvcc) *
      validation_cost_factor_);
  service += static_cast<SimTime>(outcome.state_updates.size()) *
             db_profile_.commit_per_write;
  if (charge_fixed_costs) {
    // With a virtual block boundary, the state-DB batch and the ledger
    // fsync are paid once per group of streamed blocks.
    service += db_profile_.commit_base + timing_.ledger_append_cost;
  }
  return service;
}

void Peer::ProcessBlock(std::shared_ptr<const Block> block) {
  auto outcome = std::make_shared<std::shared_ptr<const ValidationOutcome>>();
  validate_pool_.Submit(
      *env_, block->channel,
      [this, outcome, block]() -> SimTime {
        ChannelLedger& ch = Channel(block->channel);
        // Every peer would compute the same outcome (deterministic
        // validation over the state as of the previous block), so the
        // channel's record computes it once and shares it.
        *outcome = ch.world->Validate(
            ch.state, block, [&](const StateDatabase& head) {
              return validator_.ValidateBlock(head, *block);
            });
        if (*outcome == nullptr) {
          // Blocks reach this point in order, one at a time per
          // channel: anything else is a simulator bug.
          std::fprintf(stderr, "peer %d channel %d: block %llu validated "
                       "at height %llu\n", id_, block->channel,
                       static_cast<unsigned long long>(block->number),
                       static_cast<unsigned long long>(ch.state->height()));
          std::abort();
        }
        bool charge_fixed =
            virtual_block_group_ <= 1 ||
            block->number % virtual_block_group_ == 0;
        return static_cast<SimTime>(
            static_cast<double>(
                ValidationServiceTime(*block, **outcome, charge_fixed)) *
            JitterFactor());
      },
      [this, outcome, block]() {
        ChannelLedger& ch = Channel(block->channel);
        Result<PeerChainRecord> link = ch.world->Commit(ch.state, block);
        if (!link.ok()) {
          // A refused commit is a simulator bug too, and going on would
          // leave this peer's view behind its hash chain.
          std::fprintf(stderr, "peer %d channel %d: commit failed: %s\n",
                       id_, block->channel,
                       link.status().ToString().c_str());
          std::abort();
        }
        ch.chain_records.push_back(link.value());
        if (Tracer* tracer = env_->tracer()) {
          tracer->OnPeerCommit(id_, block->channel, block->number,
                               env_->now());
        }
        if (ch.endorse_view != ch.state) {
          // Raise the endorsement snapshot to this block at the next
          // snapshot boundary; heights rise in block order because the
          // refresh time is kept monotonic.
          SimTime lag = static_cast<SimTime>(rng_.UniformRange(
              0.0, static_cast<double>(snapshot_interval_)));
          SimTime apply_at =
              std::max(env_->now() + lag, ch.last_snapshot_apply);
          ch.last_snapshot_apply = apply_at;
          ChannelState* world = ch.world;
          StateView* snapshot = ch.endorse_view;
          uint64_t height = block->number;
          env_->Schedule(
              apply_at,
              [world, snapshot, height]() { world->Advance(snapshot, height); },
              ScheduleOpts{.absolute = true});
        }
        if (on_commit_) {
          on_commit_(block->channel, block->number, **outcome);
        }
      });
}

}  // namespace fabricsim
