#include "src/ordering/orderer.h"

#include <utility>

#include "src/obs/tracer.h"
#include "src/sim/environment.h"

namespace fabricsim {

Orderer::Orderer(Params params)
    : node_(params.node),
      channel_(params.channel),
      env_(params.env),
      net_(params.net),
      cutter_(params.cutter),
      block_timeout_(params.block_timeout),
      timing_(params.timing),
      consensus_(params.consensus),
      rng_(std::move(params.rng)),
      processor_(params.processor),
      peers_(std::move(params.peers)),
      on_block_cut_(std::move(params.on_block_cut)),
      on_early_abort_(std::move(params.on_early_abort)) {
  if (params.admission != nullptr && params.admission->enabled()) {
    admission_ = params.admission;
    admission_stats_ = params.admission_stats;
  }
}

void Orderer::SubmitTransaction(Transaction tx,
                                const std::function<void()>& on_throttle) {
  // Backpressure applies at the broadcast boundary only: a paused
  // orderer still buffers silently (the client sees latency, not an
  // error).
  if (admission_ != nullptr && admission_->max_orderer_queue_depth > 0 &&
      !paused_ &&
      queue_.depth() >= static_cast<size_t>(
                            admission_->max_orderer_queue_depth)) {
    if (admission_stats_ != nullptr) ++admission_stats_->orderer_throttled;
    if (on_throttle) on_throttle();
    return;
  }
  ++txs_received_;
  if (Tracer* tracer = env_->tracer()) {
    tracer->OnOrdererEnqueue(tx.id, env_->now());
  }
  if (paused_) {
    ++txs_deferred_while_paused_;
    paused_backlog_.push_back(std::move(tx));
    return;
  }
  Ingest(std::move(tx));
}

void Orderer::Pause() { paused_ = true; }

void Orderer::Resume() {
  if (!paused_) return;
  paused_ = false;
  std::vector<Transaction> backlog = std::move(paused_backlog_);
  paused_backlog_.clear();
  for (Transaction& tx : backlog) Ingest(std::move(tx));
  // A timeout that fired mid-pause was swallowed; transactions batched
  // before the pause must not wait forever.
  if (cutter_.HasPending() && !timeout_armed_) ArmTimeout();
}

void Orderer::Ingest(Transaction tx) {
  auto shared_tx = std::make_shared<Transaction>(std::move(tx));
  queue_.Submit(
      *env_, channel_,
      [this]() -> SimTime { return timing_.orderer_per_tx_cost; },
      [this, shared_tx]() {
        if (shared_tx->deadline > 0 && env_->now() > shared_tx->deadline) {
          // The client stopped caring while the envelope queued at
          // ingress: drop it before it occupies a block slot and a
          // validation pass on every peer.
          if (admission_stats_ != nullptr) {
            ++admission_stats_->deadline_expired_order;
          }
          if (Tracer* tracer = env_->tracer()) {
            tracer->OnAdmissionDrop(shared_tx->id,
                                    TraceTerminal::kDeadlineExpired,
                                    TxValidationCode::kDeadlineExpiredOrder,
                                    env_->now());
          }
          return;
        }
        TxValidationCode reject_code = TxValidationCode::kNotValidated;
        if (processor_ != nullptr &&
            !processor_->Admit(*shared_tx, &reject_code)) {
          ++txs_early_aborted_;
          if (Tracer* tracer = env_->tracer()) {
            tracer->OnEarlyAbort(shared_tx->id, reject_code, env_->now());
          }
          if (on_early_abort_) on_early_abort_(*shared_tx, reject_code);
          return;
        }
        HandleAdmitted(std::move(*shared_tx));
      });
}

void Orderer::HandleAdmitted(Transaction tx) {
  for (BlockCutter::Batch& batch : cutter_.AddTransaction(std::move(tx))) {
    ++timeout_generation_;  // cancel any armed timeout
    timeout_armed_ = false;
    CutBlock(std::move(batch.txs), batch.reason);
  }
  if (cutter_.HasPending() && !timeout_armed_) ArmTimeout();
}

void Orderer::ArmTimeout() {
  timeout_armed_ = true;
  uint64_t generation = timeout_generation_;
  env_->Schedule(block_timeout_, [this, generation]() {
    if (generation != timeout_generation_) return;  // cancelled by a cut
    timeout_armed_ = false;
    ++timeout_generation_;
    if (paused_) return;  // swallowed; Resume() re-arms if needed
    if (cutter_.HasPending()) {
      CutBlock(cutter_.CutPending(), BlockCutReason::kTimeout);
    }
  });
}

void Orderer::CutBlock(std::vector<Transaction> txs, BlockCutReason reason) {
  auto block = std::make_shared<Block>();
  // The number is provisional until the cut is known to deliver (the
  // block processor may abort every transaction): delivered numbers
  // must stay dense and monotone, so the counter only advances for
  // blocks that actually ship.
  block->number = next_block_number_;
  block->channel = channel_;
  block->cut_time = env_->now();
  block->cut_reason = reason;
  block->txs = std::move(txs);
  for (Transaction& tx : block->txs) tx.ordered_time = env_->now();
  block->results.assign(block->txs.size(), TxValidationResult{});

  SimTime processor_cost = 0;
  if (processor_ != nullptr) {
    std::vector<BlockProcessor::EarlyAbort> early_aborted;
    processor_cost = processor_->OnBlockCut(block.get(), &early_aborted);
    txs_early_aborted_ += early_aborted.size();
    if (Tracer* tracer = env_->tracer()) {
      for (const BlockProcessor::EarlyAbort& abort : early_aborted) {
        tracer->OnEarlyAbort(abort.first.id, abort.second, env_->now());
      }
    }
    if (on_early_abort_) {
      for (const BlockProcessor::EarlyAbort& abort : early_aborted) {
        on_early_abort_(abort.first, abort.second);
      }
    }
    if (block->txs.empty()) {
      return;  // everything aborted at the cut; no number consumed
    }
  }
  ++next_block_number_;

  if (Tracer* tracer = env_->tracer()) {
    for (uint32_t i = 0; i < block->txs.size(); ++i) {
      tracer->OnBlockCut(block->txs[i].id, block->number, i, env_->now());
    }
  }

  if (on_block_cut_) on_block_cut_(block);

  // Block assembly, signing and per-peer egress occupy the orderer's
  // serial queue; consensus agreement is pipelined on top.
  SimTime assembly = timing_.orderer_per_block_cost + processor_cost +
                     static_cast<SimTime>(peers_.size()) *
                         timing_.orderer_per_msg_cost;
  SimTime consensus_latency = consensus_.SampleLatency(rng_);
  queue_.Submit(
      *env_, channel_, [assembly]() -> SimTime { return assembly; },
      [this, block, consensus_latency]() {
        env_->Schedule(consensus_latency, [this, block]() {
          for (const Params::PeerEndpoint& peer : peers_) {
            net_->Send(*env_, node_, peer.node, block->ByteSize(),
                       [deliver = peer.deliver, block]() { deliver(block); });
          }
        });
      });
}

}  // namespace fabricsim
