#include "src/ordering/orderer.h"

#include <utility>

#include "src/obs/tracer.h"
#include "src/sim/environment.h"

namespace fabricsim {

// --- OrderingNode -----------------------------------------------------

OrderingNode::OrderingNode(const Params& params, NodeId node)
    : env_(params.env),
      net_(params.net),
      admission_stats_(params.admission_stats),
      node_(node),
      channel_(params.channel),
      cutter_(params.cutter),
      block_timeout_(params.block_timeout),
      timing_(params.timing),
      processor_(params.processor),
      peers_(params.peers),
      on_block_cut_(params.on_block_cut),
      on_early_abort_(params.on_early_abort) {}

void OrderingNode::NoteArrival(const Transaction& tx) {
  ++txs_received_;
  if (Tracer* tracer = env_->tracer()) {
    tracer->OnOrdererEnqueue(tx.id, env_->now());
  }
}

void OrderingNode::Accept(Transaction tx) {
  if (paused_) {
    ++txs_deferred_while_paused_;
    paused_backlog_.push_back(std::move(tx));
    return;
  }
  Ingest(std::move(tx));
}

void OrderingNode::Pause() { paused_ = true; }

void OrderingNode::Resume() {
  if (!paused_) return;
  paused_ = false;
  // A node that lost its ingress (crashed or deposed) dropped its
  // backlog and batch with it.
  if (!MayCut()) return;
  std::vector<Transaction> backlog = std::move(paused_backlog_);
  paused_backlog_.clear();
  for (Transaction& tx : backlog) Ingest(std::move(tx));
  // A timeout that fired mid-pause was swallowed; transactions batched
  // before the pause must not wait forever.
  if (cutter_.HasPending() && !timeout_armed_) ArmTimeout();
}

void OrderingNode::ResetIngress() {
  ++ingress_generation_;
  ++timeout_generation_;
  timeout_armed_ = false;
  cutter_.CutPending();  // discard pending batch contents
  paused_backlog_.clear();
}

void OrderingNode::Ingest(Transaction tx) {
  auto shared_tx = std::make_shared<Transaction>(std::move(tx));
  uint64_t generation = ingress_generation_;
  queue_.Submit(
      *env_, channel_,
      [this]() -> SimTime {
        return Alive() ? timing_.orderer_per_tx_cost : 0;
      },
      [this, shared_tx, generation]() {
        if (generation != ingress_generation_ || !MayCut()) {
          return;  // crashed or deposed since the envelope queued
        }
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
          OnDropped(shared_tx->id);
          return;
        }
        TxValidationCode reject_code = TxValidationCode::kNotValidated;
        if (processor_ != nullptr &&
            !processor_->Admit(*shared_tx, &reject_code)) {
          EarlyAbort(*shared_tx, reject_code);
          return;
        }
        HandleAdmitted(std::move(*shared_tx));
      });
}

void OrderingNode::EarlyAbort(const Transaction& tx, TxValidationCode code) {
  ++txs_early_aborted_;
  if (Tracer* tracer = env_->tracer()) {
    tracer->OnEarlyAbort(tx.id, code, env_->now());
  }
  if (on_early_abort_) on_early_abort_(tx, code);
  OnDropped(tx.id);
}

void OrderingNode::HandleAdmitted(Transaction tx) {
  for (BlockCutter::Batch& batch : cutter_.AddTransaction(std::move(tx))) {
    ++timeout_generation_;  // cancel any armed timeout
    timeout_armed_ = false;
    CutBlock(std::move(batch.txs), batch.reason);
  }
  if (cutter_.HasPending() && !timeout_armed_) ArmTimeout();
}

void OrderingNode::ArmTimeout() {
  timeout_armed_ = true;
  uint64_t generation = timeout_generation_;
  env_->Schedule(block_timeout_, [this, generation]() {
    if (generation != timeout_generation_) return;  // cancelled by a cut
    timeout_armed_ = false;
    ++timeout_generation_;
    if (paused_ || !MayCut()) return;  // swallowed; Resume() re-arms
    if (cutter_.HasPending()) {
      CutBlock(cutter_.CutPending(), BlockCutReason::kTimeout);
    }
  });
}

void OrderingNode::CutBlock(std::vector<Transaction> txs,
                            BlockCutReason reason) {
  auto block = std::make_shared<Block>();
  // The number is provisional until the cut is known to ship (the
  // block processor may abort every transaction): delivered numbers
  // must stay dense and monotone.
  block->number = NextBlockNumber();
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
    for (const BlockProcessor::EarlyAbort& abort : early_aborted) {
      EarlyAbort(abort.first, abort.second);
    }
    if (block->txs.empty()) {
      return;  // everything aborted at the cut; no number consumed
    }
  }
  Ship(std::move(block), processor_cost);
}

void OrderingNode::Assemble(SimTime processor_cost, size_t extra_receivers,
                            std::function<void()> done) {
  SimTime cost = timing_.orderer_per_block_cost + processor_cost +
                 static_cast<SimTime>(peers_.size() + extra_receivers) *
                     timing_.orderer_per_msg_cost;
  queue_.Submit(
      *env_, channel_,
      [this, cost]() -> SimTime { return Alive() ? cost : 0; },
      std::move(done));
}

void OrderingNode::Publish(const std::shared_ptr<Block>& block) {
  if (Tracer* tracer = env_->tracer()) {
    for (uint32_t i = 0; i < block->txs.size(); ++i) {
      tracer->OnBlockCut(block->txs[i].id, block->number, i, env_->now());
    }
  }
  if (on_block_cut_) on_block_cut_(block);
}

void OrderingNode::Deliver(const std::shared_ptr<const Block>& block) const {
  for (const Params::PeerEndpoint& peer : peers_) {
    net_->Send(*env_, node_, peer.node, block->ByteSize(),
               [deliver = peer.deliver, block]() { deliver(block); });
  }
}

// --- Orderer (compat) -------------------------------------------------

Orderer::Orderer(Params params)
    : OrderingNode(params, params.node),
      consensus_(params.consensus),
      rng_(std::move(params.rng)),
      max_queue_depth_(params.admission != nullptr
                           ? params.admission->max_orderer_queue_depth
                           : 0) {}

void Orderer::SubmitTransaction(Transaction tx,
                                const std::function<void()>& on_throttle) {
  // Backpressure applies at the broadcast boundary only: a paused
  // orderer still buffers silently (the client sees latency, not an
  // error).
  if (max_queue_depth_ > 0 && !paused() &&
      queue_.depth() >= max_queue_depth_) {
    if (admission_stats_ != nullptr) ++admission_stats_->orderer_throttled;
    if (on_throttle) on_throttle();
    return;
  }
  NoteArrival(tx);
  Accept(std::move(tx));
}

void Orderer::Ship(std::shared_ptr<Block> block, SimTime processor_cost) {
  ++next_block_number_;
  Publish(block);
  // Consensus agreement is pipelined on top of assembly.
  SimTime consensus_latency = consensus_.SampleLatency(rng_);
  Assemble(processor_cost, /*extra_receivers=*/0,
           [this, block, consensus_latency]() {
             env_->Schedule(consensus_latency,
                            [this, block]() { Deliver(block); });
           });
}

}  // namespace fabricsim
