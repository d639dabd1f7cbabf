#include "src/client/client.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "src/obs/tracer.h"

namespace fabricsim {

Client::Client(Params params)
    : p_(std::move(params)), leader_hints_(p_.orderer_endpoints.size(), 0) {
  // A disabled config is treated as absent, so harnesses may plumb the
  // pointer unconditionally without engaging any protection path.
  if (p_.admission != nullptr && !p_.admission->enabled()) {
    p_.admission = nullptr;
  }
  if (p_.admission != nullptr) {
    if (p_.admission->breaker.enabled) {
      breaker_.emplace(p_.admission->breaker, p_.admission_stats);
    }
    if (p_.admission->retry_budget.enabled) {
      retry_budget_.emplace(p_.admission->retry_budget);
    }
  }
}

void Client::Start() { ScheduleNextArrival(); }

void Client::RecordOutcomeSuccess() {
  if (breaker_.has_value()) breaker_->RecordSuccess(p_.env->now());
}

void Client::RecordOutcomeFailure() {
  if (breaker_.has_value()) breaker_->RecordFailure(p_.env->now());
}

void Client::ScheduleNextArrival() {
  Rng& rng = p_.arrival_rng.has_value() ? *p_.arrival_rng : p_.rng;
  SimTime gap = p_.arrivals.NextGap(p_.env->now(), rng);
  if (gap == kSimTimeNever) return;  // silent: no arrival ever again
  p_.env->Schedule(gap, [this]() {
    if (p_.env->now() > p_.load_end_time) return;  // load phase over
    SubmitOne();
    ScheduleNextArrival();
  });
}

void Client::SubmitOne() {
  if (breaker_.has_value() && !breaker_->AllowSubmit(p_.env->now())) {
    // Open breaker: the submission is suppressed at the source — the
    // cheapest place to shed load. No transaction id is consumed (the
    // proposal never exists anywhere downstream).
    if (p_.admission_stats != nullptr) {
      ++p_.admission_stats->breaker_rejected;
    }
    return;
  }
  TxId tx_id = ++(*p_.tx_id_counter);
  ++p_.stats->txs_generated;
  // The channel draw precedes the invocation draw; with one visible
  // channel Pick() consumes no randomness, so single-channel runs see
  // the exact legacy RNG stream.
  ChannelId channel = p_.affinity.Pick(p_.rng);
  Submit(tx_id, p_.workload->Next(p_.rng), /*resubmit_count=*/0, channel);
}

void Client::Submit(TxId tx_id, Invocation invocation, int resubmit_count,
                    ChannelId channel) {
  PendingTx pending;
  pending.invocation = std::move(invocation);
  pending.channel = channel;
  pending.submit_time = p_.env->now();
  pending.rr_base = round_robin_;
  pending.resubmit_count = resubmit_count;
  if (p_.admission != nullptr && p_.admission->deadlines_enabled()) {
    pending.deadline = p_.env->now() + p_.admission->tx_deadline;
  }
  if (retry_budget_.has_value() && resubmit_count == 0) {
    retry_budget_->OnSubmit();
  }
  if (Tracer* tracer = p_.env->tracer()) {
    tracer->OnClientSubmit(tx_id, pending.invocation.function, channel,
                           p_.env->now());
  }

  // One endorsing peer per organization of a minimal policy-
  // satisfying set (service-discovery style), round-robin within the
  // org (flow step 1). For P0 (all orgs) this is every organization.
  std::vector<Peer*> targets;
  for (OrgId org : p_.policy->ChooseSatisfyingOrgs(round_robin_)) {
    // A policy may reference orgs beyond the deployed cluster (e.g. a
    // preset instantiated for more orgs than exist); treat them like
    // orgs with no endorsing peers instead of indexing out of bounds.
    if (org < 0 || static_cast<size_t>(org) >= p_.peers_by_org.size()) {
      continue;
    }
    const std::vector<Peer*>& org_peers =
        p_.peers_by_org[static_cast<size_t>(org)];
    if (org_peers.empty()) continue;
    targets.push_back(org_peers[round_robin_ % org_peers.size()]);
    pending.proposed_orgs.push_back(org);
  }
  ++round_robin_;
  if (targets.empty()) {
    // No org has an endorsing peer, so an endorsement set can never be
    // gathered. Drop now instead of parking the transaction in
    // in_flight_ forever (the entry used to leak).
    ++p_.stats->txs_dropped_no_endorsers;
    if (Tracer* tracer = p_.env->tracer()) {
      tracer->OnClientDrop(tx_id, TraceTerminal::kNoEndorsers, p_.env->now());
    }
    return;
  }
  if (p_.admission != nullptr) pending.proposed_peers = targets;
  in_flight_.emplace(tx_id, std::move(pending));

  for (Peer* peer : targets) SendProposal(tx_id, peer, /*attempt=*/0);
  if (p_.retry.retries_enabled()) ScheduleEndorseTimeout(tx_id, 0);
}

void Client::SendProposal(TxId tx_id, Peer* peer, int attempt) {
  ProposalRequest request;
  request.tx_id = tx_id;
  request.channel = in_flight_[tx_id].channel;
  request.invocation = in_flight_[tx_id].invocation;
  request.deadline = in_flight_[tx_id].deadline;
  NodeId peer_node = peer->node();
  if (Tracer* tracer = p_.env->tracer()) {
    tracer->OnEndorseRequest(tx_id, peer->id(), peer->org(), attempt,
                             p_.env->now());
  }
  request.reply = [this, peer_node](ProposalResponse response) {
    // A refusal carries no rw-set; it is charged an empty one's size.
    static const ReadWriteSet kNone;
    uint64_t bytes = (response.rwset ? *response.rwset : kNone).ByteSize() + 96;
    auto shared = std::make_shared<ProposalResponse>(std::move(response));
    p_.net->Send(*p_.env, peer_node, p_.node, bytes,
                 [this, shared]() { OnEndorsement(std::move(*shared)); });
  };
  p_.net->Send(*p_.env, p_.node, peer_node, 300,
               [peer, request = std::move(request)]() mutable {
                 peer->HandleProposal(std::move(request));
               });
}

void Client::ScheduleEndorseTimeout(TxId tx_id, int attempt) {
  // Deterministic capped exponential backoff: attempt k waits
  // min(endorse_timeout * backoff_multiplier^k, max_backoff). No
  // jitter draw, so retry bookkeeping never perturbs the RNG streams.
  SimTime wait = p_.retry.BackoffForAttempt(attempt);
  p_.env->Schedule(wait, [this, tx_id, attempt]() {
    OnEndorseTimeout(tx_id, attempt);
  });
}

void Client::OnEndorseTimeout(TxId tx_id, int attempt) {
  auto it = in_flight_.find(tx_id);
  if (it == in_flight_.end()) return;        // completed in the meantime
  PendingTx& pending = it->second;
  if (pending.attempt != attempt) return;    // stale: a retry is running
  bool budget_denied = false;
  if (attempt < p_.retry.max_endorse_retries &&
      retry_budget_.has_value() && !retry_budget_->TrySpend()) {
    // Token bucket is dry: under sustained failure the retry share of
    // offered load is capped instead of amplifying the overload.
    budget_denied = true;
    if (p_.admission_stats != nullptr) {
      ++p_.admission_stats->retry_budget_denials;
    }
  }
  if (attempt >= p_.retry.max_endorse_retries || budget_denied) {
    ++p_.stats->endorse_timeouts;
    if (Tracer* tracer = p_.env->tracer()) {
      tracer->OnClientDrop(tx_id, TraceTerminal::kEndorseTimeout,
                           p_.env->now());
    }
    CancelOutstanding(tx_id, pending);
    in_flight_.erase(it);
    RecordOutcomeFailure();
    return;
  }
  int next_attempt = attempt + 1;
  pending.attempt = next_attempt;
  ++p_.stats->endorse_retries;
  if (Tracer* tracer = p_.env->tracer()) {
    tracer->OnClientRetry(tx_id, static_cast<uint32_t>(next_attempt),
                          p_.env->now());
  }
  // Re-propose only to the orgs that never answered, each via its next
  // round-robin peer — a dead or slow endorser is routed around.
  for (OrgId org : pending.proposed_orgs) {
    bool answered = false;
    for (const ProposalResponse& r : pending.responses) {
      if (r.endorsement.org_id == org) {
        answered = true;
        break;
      }
    }
    if (answered) continue;
    const std::vector<Peer*>& org_peers =
        p_.peers_by_org[static_cast<size_t>(org)];
    Peer* peer = org_peers[(pending.rr_base +
                            static_cast<uint64_t>(next_attempt)) %
                           org_peers.size()];
    if (p_.admission != nullptr) pending.proposed_peers.push_back(peer);
    SendProposal(tx_id, peer, next_attempt);
  }
  ScheduleEndorseTimeout(tx_id, next_attempt);
}

void Client::OnEndorsement(ProposalResponse response) {
  auto it = in_flight_.find(response.tx_id);
  if (it == in_flight_.end()) return;
  if (Tracer* tracer = p_.env->tracer()) {
    tracer->OnEndorseResponse(response.tx_id, response.endorsement.peer_id,
                              p_.env->now());
  }
  if (response.reject != ProposalReject::kNone) {
    OnEndorseReject(response.tx_id, response.reject);
    return;
  }
  PendingTx& pending = it->second;
  for (const ProposalResponse& r : pending.responses) {
    if (r.endorsement.peer_id == response.endorsement.peer_id) {
      // Duplicate endorser: a retried proposal can hit the same peer
      // again (round-robin wrap in a small org) and yield two
      // responses. Counting both used to fake policy coverage with a
      // single signer; keep the first only.
      return;
    }
  }
  pending.responses.push_back(std::move(response));
  // Complete once every targeted org has answered — with one target
  // peer per org and no retries this is exactly the legacy "all
  // responses arrived" criterion.
  for (OrgId org : pending.proposed_orgs) {
    bool answered = false;
    for (const ProposalResponse& r : pending.responses) {
      if (r.endorsement.org_id == org) {
        answered = true;
        break;
      }
    }
    if (!answered) return;
  }
  PendingTx done = std::move(it->second);
  TxId tx_id = it->first;
  in_flight_.erase(it);
  FinalizeTx(tx_id, std::move(done));
}

void Client::OnEndorseReject(TxId tx_id, ProposalReject why) {
  auto it = in_flight_.find(tx_id);
  if (it == in_flight_.end()) return;
  // Fast-fail: the first refusal kills the transaction. Re-proposing
  // into a queue that just shed us would feed the overload, and an
  // expired transaction is unsalvageable by definition. Any pending
  // timeout finds in_flight_ empty and does nothing. Sibling proposals
  // still queued at the other orgs are cancelled so a dead transaction
  // stops consuming endorsement capacity there (the cancel is a no-op
  // at the org that refused).
  PendingTx pending = std::move(it->second);
  in_flight_.erase(it);
  CancelOutstanding(tx_id, pending);
  if (why == ProposalReject::kExpired) {
    if (p_.admission_stats != nullptr) {
      ++p_.admission_stats->client_expired_drops;
    }
    if (Tracer* tracer = p_.env->tracer()) {
      tracer->OnAdmissionDrop(tx_id, TraceTerminal::kDeadlineExpired,
                              TxValidationCode::kDeadlineExpiredEndorse,
                              p_.env->now());
    }
    // An expired deadline means the backend is too slow to be useful —
    // exactly the sickness signal the breaker watches for.
    RecordOutcomeFailure();
  } else {
    if (p_.admission_stats != nullptr) {
      ++p_.admission_stats->client_shed_drops;
    }
    if (Tracer* tracer = p_.env->tracer()) {
      tracer->OnClientDrop(tx_id, TraceTerminal::kAdmissionShed,
                           p_.env->now());
    }
    // Deliberately NOT a breaker failure: a shed is a *healthy* backend
    // bounding its own queue and answering within one RTT. Tripping on
    // sheds would turn graceful degradation into a full outage — the
    // breaker is reserved for unresponsiveness (expiry, timeouts,
    // ordering throttle).
  }
}

void Client::CancelOutstanding(TxId tx_id, const PendingTx& pending) {
  // The cancel rides the network like any other control message; by
  // the time it lands each sibling is either still queued (husked,
  // a full chaincode simulation saved) or already served (no-op).
  // proposed_peers is only ever populated on the admission path, so
  // this never adds events — or network RNG draws — to a default run.
  for (Peer* peer : pending.proposed_peers) {
    NodeId peer_node = peer->node();
    p_.net->Send(*p_.env, p_.node, peer_node, 64,
                 [peer, tx_id]() { peer->CancelProposal(tx_id); });
  }
}

void Client::OnOrdererThrottle(TxId tx_id) {
  // The envelope was fully endorsed but the ordering service pushed
  // back. Drop the transaction and let the breaker slow the source;
  // blindly re-broadcasting is exactly the retry storm this subsystem
  // exists to prevent.
  if (p_.admission_stats != nullptr) {
    ++p_.admission_stats->client_throttle_drops;
  }
  if (p_.resubmit_registry != nullptr) {
    p_.resubmit_registry->erase(tx_id);
    resubmit_meta_.erase(tx_id);
  }
  if (Tracer* tracer = p_.env->tracer()) {
    tracer->OnClientDrop(tx_id, TraceTerminal::kOrdererThrottled,
                         p_.env->now());
  }
  RecordOutcomeFailure();
}

void Client::FinalizeTx(TxId tx_id, PendingTx pending) {
  // Any chaincode-level error response makes the client drop the
  // transaction (it can never gather a valid endorsement set).
  for (const ProposalResponse& r : pending.responses) {
    if (!r.app_ok) {
      ++p_.stats->app_errors;
      if (Tracer* tracer = p_.env->tracer()) {
        tracer->OnClientDrop(tx_id, TraceTerminal::kAppError, p_.env->now());
      }
      return;
    }
  }

  // Pick the largest digest-consistent endorsement group and attach
  // that group's rw-set as the envelope payload. The paper's default
  // flow skips the optional client-side consistency check (step 3), so
  // mismatching signatures travel along and fail VSCC later.
  std::map<uint64_t, size_t> group_counts;
  for (const ProposalResponse& r : pending.responses) {
    group_counts[r.endorsement.rwset_digest]++;
  }
  uint64_t best_digest = 0;
  size_t best_count = 0;
  for (const ProposalResponse& r : pending.responses) {
    size_t count = group_counts[r.endorsement.rwset_digest];
    if (count > best_count) {
      best_count = count;
      best_digest = r.endorsement.rwset_digest;
    }
  }

  Transaction tx;
  tx.id = tx_id;
  tx.channel = pending.channel;
  tx.chaincode = p_.workload->chaincode();
  tx.function = pending.invocation.function;
  tx.args = pending.invocation.args;
  tx.client_submit_time = pending.submit_time;
  tx.deadline = pending.deadline;
  tx.endorsed_time = p_.env->now();
  bool rwset_attached = false;
  for (const ProposalResponse& r : pending.responses) {
    if (!rwset_attached && r.endorsement.rwset_digest == best_digest) {
      tx.rwset = *r.rwset;  // the envelope's own copy
      rwset_attached = true;
    }
    tx.endorsements.push_back(r.endorsement);
  }
  tx.read_only = tx.rwset.IsReadOnly();
  if (Tracer* tracer = p_.env->tracer()) {
    tracer->OnEndorsed(tx_id, tx.read_only, p_.env->now());
  }

  if (tx.read_only && !p_.submit_read_only) {
    // Recommendation #4: the query result is already known after the
    // execution phase; skip ordering.
    ++p_.stats->read_only_skipped;
    if (Tracer* tracer = p_.env->tracer()) {
      tracer->OnClientDrop(tx_id, TraceTerminal::kReadOnlySkipped,
                           p_.env->now());
    }
    return;
  }

  ++p_.stats->txs_submitted;
  // Breaker success = the transaction made it through endorsement to
  // the ordering handoff. A later throttle adds a failure outcome, so
  // a fully throttled pipeline still trips the breaker.
  RecordOutcomeSuccess();
  if (p_.resubmit_registry != nullptr) {
    // Register for commit feedback so an MVCC failure can trigger a
    // resubmission; the harness routes the verdict back via
    // OnCommittedResult.
    (*p_.resubmit_registry)[tx_id] = this;
    resubmit_meta_[tx_id] = ResubmitMeta{pending.invocation,
                                         pending.resubmit_count,
                                         pending.channel};
  }
  SimTime collect_cost =
      p_.timing.client_collect_cost *
      static_cast<SimTime>(pending.responses.size());
  uint64_t bytes = tx.ByteSize();
  ChannelId channel = pending.channel;
  auto shared_tx = std::make_shared<Transaction>(std::move(tx));
  if (!p_.orderer_endpoints.empty()) {
    // Replicated ordering: keep the envelope around until a replica
    // acks it, starting at the channel's last known leader.
    size_t index = static_cast<size_t>(channel);
    int replica = leader_hints_[index] %
                  static_cast<int>(p_.orderer_endpoints[index].size());
    awaiting_order_ack_[tx_id] = PendingOrder{shared_tx, replica, 0, channel};
    p_.env->Schedule(collect_cost, [this, tx_id, replica]() {
      BroadcastToOrderer(tx_id, replica, /*attempt=*/0);
    });
    return;
  }
  // Backpressure-aware handoff: an envelope the bounded ingress rejects
  // produces an explicit throttle signal that rides back over the
  // network. An unbounded orderer accepts every envelope.
  Orderer* orderer = p_.orderers[static_cast<size_t>(channel)];
  p_.env->Schedule(collect_cost, [this, shared_tx, bytes, orderer]() {
    TxId id = shared_tx->id;
    p_.net->Send(
        *p_.env, p_.node, orderer->node(), bytes,
        [this, orderer, shared_tx, id]() {
          orderer->SubmitTransaction(
              std::move(*shared_tx), [this, orderer, id]() {
                p_.net->Send(*p_.env, orderer->node(), p_.node, 48,
                             [this, id]() { OnOrdererThrottle(id); });
              });
        });
  });
}

void Client::BroadcastToOrderer(TxId tx_id, int replica, int attempt) {
  auto it = awaiting_order_ack_.find(tx_id);
  if (it == awaiting_order_ack_.end()) return;
  const Params::OrdererEndpoint& endpoint =
      p_.orderer_endpoints[static_cast<size_t>(it->second.channel)]
                          [static_cast<size_t>(replica)];
  std::shared_ptr<Transaction> tx = it->second.tx;
  NodeId endpoint_node = endpoint.node;
  // The ack travels back over the network like a Fabric broadcast
  // response; a crashed or deposed replica simply never sends it.
  auto ack = [this, endpoint_node, replica](TxId id, bool accepted) {
    p_.net->Send(*p_.env, endpoint_node, p_.node, 48,
                 [this, id, accepted, replica]() {
                   OnOrdererAck(id, accepted, replica);
                 });
  };
  uint64_t bytes = tx->ByteSize();
  auto submit = endpoint.submit;
  p_.net->Send(*p_.env, p_.node, endpoint_node, bytes,
               [tx, ack, submit]() { submit(*tx, ack); });
  p_.env->Schedule(p_.orderer_ack_timeout, [this, tx_id, attempt]() {
    OnOrdererAckTimeout(tx_id, attempt);
  });
}

void Client::OnOrdererAck(TxId tx_id, bool accepted, int replica) {
  auto it = awaiting_order_ack_.find(tx_id);
  if (it == awaiting_order_ack_.end()) return;  // duplicate/stale ack
  ChannelId channel = it->second.channel;
  awaiting_order_ack_.erase(it);
  leader_hints_[static_cast<size_t>(channel)] = replica;
  if (accepted && p_.acked_txs_by_channel != nullptr) {
    (*p_.acked_txs_by_channel)[static_cast<size_t>(channel)].push_back(tx_id);
  }
}

void Client::OnOrdererAckTimeout(TxId tx_id, int attempt) {
  auto it = awaiting_order_ack_.find(tx_id);
  if (it == awaiting_order_ack_.end()) return;  // acked in the meantime
  PendingOrder& pending = it->second;
  if (pending.attempt != attempt) return;  // a newer broadcast is armed
  if (attempt >= p_.max_orderer_rebroadcasts) {
    ++p_.stats->orderer_broadcast_drops;
    if (Tracer* tracer = p_.env->tracer()) {
      tracer->OnClientDrop(tx_id, TraceTerminal::kOrdererUnavailable,
                           p_.env->now());
    }
    awaiting_order_ack_.erase(it);
    return;
  }
  // Silence from the current replica: assume it is down or deposed and
  // walk to the next one. The walk revisits every replica, so the new
  // leader is found wherever it landed.
  size_t num_replicas =
      p_.orderer_endpoints[static_cast<size_t>(pending.channel)].size();
  pending.attempt = attempt + 1;
  pending.replica = (pending.replica + 1) % static_cast<int>(num_replicas);
  ++p_.stats->orderer_rebroadcasts;
  BroadcastToOrderer(tx_id, pending.replica, pending.attempt);
}

void Client::OnCommittedResult(TxId tx_id, TxValidationCode code) {
  auto it = resubmit_meta_.find(tx_id);
  if (it == resubmit_meta_.end()) return;
  ResubmitMeta meta = std::move(it->second);
  resubmit_meta_.erase(it);
  if (code != TxValidationCode::kMvccReadConflict &&
      code != TxValidationCode::kPhantomReadConflict) {
    return;  // committed, or failed for a non-retryable reason
  }
  if (meta.resubmit_count >= p_.retry.max_resubmits) return;
  if (retry_budget_.has_value() && !retry_budget_->TrySpend()) {
    // No tokens: the resubmission is skipped — MVCC retry
    // amplification is bounded at the source under overload.
    if (p_.admission_stats != nullptr) {
      ++p_.admission_stats->retry_budget_denials;
    }
    return;
  }
  ++p_.stats->resubmissions;
  TxId new_id = ++(*p_.tx_id_counter);
  ++p_.stats->txs_generated;
  if (Tracer* tracer = p_.env->tracer()) {
    tracer->OnResubmit(tx_id, new_id, p_.env->now());
  }
  auto invocation = std::make_shared<Invocation>(std::move(meta.invocation));
  int next_count = meta.resubmit_count + 1;
  ChannelId channel = meta.channel;
  // The resubmission re-executes against fresh state — it is a brand
  // new transaction to the rest of the pipeline (on the original
  // channel), and can of course conflict again (retry amplification).
  p_.env->Schedule(p_.retry.resubmit_backoff,
                   [this, new_id, invocation, next_count, channel]() {
                     Submit(new_id, std::move(*invocation), next_count,
                            channel);
                   });
}

}  // namespace fabricsim
