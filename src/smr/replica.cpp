#include "smr/replica.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"
#include "crypto/verify_pool.hpp"

namespace modubft::smr {

namespace {

/// Warms the shared verified-signature cache with every member signature a
/// subsequent §5.1 well-formedness walk of this certificate could check.
/// Verdicts are discarded here and re-derived — from the now-hot cache —
/// by the sequential stage, so a Byzantine member merely warms a negative
/// entry and is rejected exactly as without the prologue.
void warm_certificate(const crypto::CachingVerifier& cache,
                      const bft::Certificate& cert, std::uint32_t depth) {
  if (cert.pruned || depth > bft::DecodeLimits{}.max_depth) return;
  for (std::size_t i = 0; i < cert.size(); ++i) {
    const bft::SignedMessage& m = cert.member(i);
    cache.verify_digest(m.core.sender, cert.member_signing_digest(i), m.sig,
                        [&m] { return bft::signing_bytes(m.core, m.cert); });
    warm_certificate(cache, m.cert, depth + 1);
  }
}

}  // namespace

Bytes encode_command(const Command& cmd) {
  Writer w;
  w.u64(cmd.id);
  w.u8(static_cast<std::uint8_t>(cmd.op));
  w.str(cmd.key);
  w.str(cmd.value);
  return std::move(w).take();
}

Command decode_command(const Bytes& buf) {
  Reader r(buf);
  Command cmd;
  cmd.id = r.u64();
  const std::uint8_t op = r.u8();
  if (op < 1 || op > 2) throw SerialError("unknown command op");
  cmd.op = static_cast<Command::Op>(op);
  cmd.key = r.str();
  cmd.value = r.str();
  r.expect_end();
  return cmd;
}

void KvStore::apply(const Command& cmd) {
  switch (cmd.op) {
    case Command::Op::kPut:
      data_[cmd.key] = cmd.value;
      break;
    case Command::Op::kDel:
      data_.erase(cmd.key);
      break;
  }
  ++applied_;
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

/// Wraps the slot's consensus actor: tags outgoing traffic with the slot
/// number, tracks its timers, and turns the actor's stop() into an
/// instance-local flag (the replica itself keeps running).
class Replica::SlotContext final : public sim::ForwardingContext {
 public:
  SlotContext(sim::Context& base, Replica& owner, std::uint64_t slot)
      : ForwardingContext(base), owner_(owner), slot_(slot) {}

  void send(ProcessId to, Bytes payload) override {
    base_.send(to, frame(payload));
  }

  void broadcast(const Bytes& payload) override {
    base_.broadcast(frame(payload));
  }

  std::uint64_t set_timer(SimTime delay) override {
    std::uint64_t id = base_.set_timer(delay);
    owner_.timer_slot_[id] = slot_;
    return id;
  }

  void stop() override {
    // The instance finished; the decide callback already recorded the
    // outcome.  The replica lives on.
  }

 private:
  Bytes frame(const Bytes& payload) const {
    Writer w;
    w.u64(slot_);
    w.raw(payload);
    return std::move(w).take();
  }

  Replica& owner_;
  std::uint64_t slot_;
};

Replica::Replica(ReplicaConfig config, std::vector<Command> workload,
                 CommitFn on_commit)
    : config_(std::move(config)),
      table_(config_.n, config_.client.num_clients),
      on_commit_(std::move(on_commit)) {
  MODUBFT_EXPECTS(config_.n >= 2);
  MODUBFT_EXPECTS(config_.window >= 1);
  MODUBFT_EXPECTS(config_.batch >= 1);
  MODUBFT_EXPECTS(config_.retry_delay > 0);
  if (config_.backend == Backend::kCrashHurfinRaynal) {
    MODUBFT_EXPECTS(config_.detector != nullptr);
  } else {
    MODUBFT_EXPECTS(config_.signer != nullptr);
    MODUBFT_EXPECTS(config_.verifier != nullptr);
    // One cache for all the replica's slots: a fresh instance starts with
    // a warm cache, and the hit/miss statistics survive instance
    // teardown (the scenario runners read them after the run).
    if (config_.bft.verify_cache && !config_.bft.shared_verify_cache) {
      vcache_ = std::make_shared<crypto::CachingVerifier>(config_.verifier);
      config_.bft.shared_verify_cache = vcache_;
    } else {
      vcache_ = config_.bft.shared_verify_cache;
    }
  }
  for (Command& cmd : workload) {
    MODUBFT_EXPECTS(cmd.id != 0);  // 0 is the no-op marker
    table_.admit(std::move(cmd), Bytes{}, std::nullopt);
  }

  if (client_mode()) {
    MODUBFT_EXPECTS(config_.client.seq_window >= 1);
    // Authenticated mode needs client public keys: the shared verifier
    // must cover process ids [n, n + num_clients).
    MODUBFT_EXPECTS(!config_.client.authenticate ||
                    config_.verifier != nullptr);
  }

  if (checkpointing()) {
    // Checkpoint votes are signed under BOTH backends: the certificate
    // must convince a recovering replica that trusts nobody, even when
    // the consensus protocol itself assumed only crash faults.
    MODUBFT_EXPECTS(config_.signer != nullptr);
    MODUBFT_EXPECTS(config_.verifier != nullptr ||
                    config_.checkpoint.trust_unverified);
    if (config_.checkpoint.recover) {
      RecoveryConfig rc;
      rc.n = config_.n;
      rc.cert_quorum = cert_quorum();
      rc.suffix_quorum = suffix_quorum();
      rc.verifier = config_.verifier.get();
      rc.trust_unverified = config_.checkpoint.trust_unverified;
      recovery_ = std::make_unique<RecoveryModule>(rc);
      recovering_ = true;
      retry_delay_ = config_.retry_delay;
      // A restarted replica adopting the verify cache of its previous
      // life must not inherit stale negative verdicts: positives stay
      // sound, negatives keyed to pre-restart traffic are flushed.
      if (vcache_) vcache_->flush_negative();
    }
  }
}

std::uint32_t Replica::cert_quorum() const {
  if (config_.backend == Backend::kByzantine) return 2 * config_.bft.f + 1;
  return config_.n / 2 + 1;
}

std::uint32_t Replica::suffix_quorum() const {
  if (config_.backend == Backend::kByzantine) return config_.bft.f + 1;
  return 1;
}

bool Replica::verify(ProcessId signer, const Bytes& preimage,
                     const Bytes& sig) const {
  if (vcache_) return vcache_->verify(signer, preimage, sig);
  return config_.verifier->verify(signer, preimage, sig);
}

std::unique_ptr<sim::Actor> Replica::make_instance_actor(std::uint64_t slot) {
  // Anchor the `batch` smallest unclaimed pending ids to this slot and
  // propose the first of them, so concurrent slots carry disjoint
  // proposals.  Purely a local heuristic: the commit rule re-derives the
  // batch from the committed set, never from these claims.  In client
  // mode the claim narrows to one id — the decided-vector commit rule
  // releases every decided entry, so wide claims would only idle ids
  // behind a single slot.
  const consensus::Value proposal =
      table_.claim(slot, client_mode() ? 1u : config_.batch);

  // Decide callbacks only park the raw decision in the reorder buffer.
  // Extraction and batch assembly happen at commit time, when the slot is
  // the frontier: under pipelining, replicas reach a mid-window decision
  // with *different* committed sets, and only the frontier state is
  // guaranteed identical across correct replicas.
  if (config_.backend == Backend::kCrashHurfinRaynal) {
    return std::make_unique<consensus::HurfinRaynalActor>(
        config_.n, proposal, config_.detector,
        [this, slot](ProcessId, const consensus::Decision& d) {
          decide(slot, {d.value});
        });
  }
  return std::make_unique<bft::BftProcess>(
      config_.bft, proposal, config_.signer, config_.verifier,
      [this, slot](ProcessId, const bft::VectorDecision& d) {
        std::vector<std::uint64_t> ids;
        for (const auto& entry : d.entries) {
          if (entry.has_value()) ids.push_back(*entry);
        }
        decide(slot, std::move(ids));
      });
}

void Replica::decide(std::uint64_t slot, std::vector<std::uint64_t> ids) {
  auto it = slots_.find(slot);
  if (it == slots_.end() || it->second.decided) return;
  it->second.decided = true;
  it->second.ids = std::move(ids);
}

void Replica::on_start(sim::Context& ctx) {
  if (recovering_) {
    // Restarted with no state: fetch a certified checkpoint before
    // touching the window.  The retry timer re-broadcasts with backoff
    // until peers answer, and keeps driving catch-up after the join.
    pstats_.recovery_start_us = ctx.now();
    last_seen_frontier_ = next_commit_;
    request_state(ctx);
    recovery_timer_ = ctx.set_timer(retry_delay_);
    return;
  }
  pump(ctx);
}

bool Replica::fill_window(sim::Context& ctx) {
  bool started = false;
  while (next_start_ < config_.slots &&
         next_start_ < next_commit_ + config_.window) {
    // Client mode idles instead of burning the log on no-op slots: a slot
    // starts only with something to propose, or when a peer already
    // started it (its envelopes buffered in future_), or in the drain
    // phase after every client announced DONE.
    if (client_mode() && !drain_ && !table_.has_proposable() &&
        future_.count(next_start_) == 0) {
      break;
    }
    const std::uint64_t slot = next_start_++;
    started = true;
    Slot& st = slots_[slot];
    st.actor = make_instance_actor(slot);
    pstats_.window_peak =
        std::max<std::uint64_t>(pstats_.window_peak, slots_.size());
    pstats_.window_occupancy_sum += slots_.size();
    pstats_.window_samples += 1;

    SlotContext sub(ctx, *this, slot);
    st.actor->on_start(sub);

    // Replay envelopes that arrived before the slot existed.
    auto it = future_.find(slot);
    if (it != future_.end()) {
      auto pending = std::move(it->second);
      future_.erase(it);
      for (auto& [from, payload] : pending) {
        if (st.decided) break;
        st.actor->on_message(sub, from, payload);
      }
    }
  }
  return started;
}

bool Replica::commit_slot(sim::Context& ctx, const Slot& st) {
  std::vector<std::uint64_t> batch;
  if (client_mode()) {
    // Client-mode commit rule: the batch is every decided entry that is
    // not yet committed and names either a known preloaded command or an
    // ELIGIBLE client id, in increasing id order.  A pure function of
    // (decision, committed set, verified seq bounds) — sound under
    // dynamic arrival, where the static smallest-pending rule below would
    // diverge across replicas that admitted different requests.
    std::set<std::uint64_t> ids;
    for (std::uint64_t id : st.ids) {
      if (id == 0 || table_.committed(id)) continue;
      if (plausible_client_id(id)) {
        // Eligibility is deliberately independent of local body
        // knowledge: an ineligible id is skipped even when a body is
        // present (an "apply if I happen to hold it" rule would fork the
        // stores between replicas with different relay histories).
        if (!client_eligible(id)) {
          ++cstats_.ineligible_skips;
          continue;
        }
        ids.insert(id);
      } else if (table_.body(id) != nullptr) {
        ids.insert(id);  // preloaded workload
      }
    }
    std::vector<std::uint64_t> missing;
    for (std::uint64_t id : ids) {
      if (table_.body(id) == nullptr) missing.push_back(id);
    }
    if (!missing.empty()) {
      // Decided but not locally held: park the frontier and fetch.  Every
      // eligible id is resolvable — the admitting replica and the owning
      // client can both serve the signed body (the client can serve ANY
      // seq of its deterministic script), and a fabricated seq beyond the
      // script is answered with a signed SEQ_BOUND that turns it
      // ineligible, unparking the frontier without a body.
      ++cstats_.parked_commits;
      request_bodies(ctx, missing);
      return false;
    }
    batch.assign(ids.begin(), ids.end());
  } else if (std::any_of(st.ids.begin(), st.ids.end(), [&](std::uint64_t id) {
               return id != 0 && table_.body(id) != nullptr;
             })) {
    // A real anchor (a non-zero decided id present in the command table)
    // releases the canonical batch: the `batch` smallest still-pending
    // ids, applied in increasing id order.  The rule reads only
    // (decision, command table, committed set), all identical across
    // correct replicas at the frontier; and since every batch drains the
    // smallest pending ids, the overall application order is increasing
    // id order regardless of (window, batch).  An all-null or unknown
    // decision is a no-op slot.
    batch = table_.uncommitted(config_.batch);
  }
  apply_committed_batch(ctx, batch);
  return true;
}

void Replica::apply_committed_batch(sim::Context& ctx,
                                    const std::vector<std::uint64_t>& ids) {
  const InstanceId slot{next_commit_};
  std::vector<std::uint64_t> applied;
  for (std::uint64_t id : ids) {
    // Defensive for the suffix-replay caller: an id a hostile responder
    // slipped past the quorum cannot corrupt the store, only be skipped.
    const Command* cmd = table_.commit(id);
    if (cmd == nullptr) continue;
    store_.apply(*cmd);
    applied.push_back(id);
    ++pstats_.commands_committed;
    log_debug("SMR ", ctx.id(), " commits slot ", slot.value, " cmd ", id);
    if (on_commit_) on_commit_(slot, cmd, store_);

    if (client_mode() && is_client(client_of_cmd(id))) {
      // Every committing replica answers the owning client; the client
      // certifies at f+1 (Byzantine) / majority (crash) matching replies.
      // The cached frame also serves duplicate replay, so it must exist
      // before the send (the bytes are identical either way).
      const std::uint32_t client = client_of_cmd(id);
      const std::uint64_t seq = seq_of_cmd(id);
      ClientReply reply;
      reply.seq = seq;
      reply.cmd_id = id;
      reply.slot = slot.value;
      reply.op = cmd->op;
      reply.key = cmd->key;
      reply.value = cmd->value;
      auto& cache = client_table_[client];
      auto ins = cache.emplace(seq, encode_control_reply(reply)).first;
      ctx.send(ProcessId{client}, ins->second);
      ++cstats_.replies_sent;
      while (cache.size() > kReplyCacheDepth) {
        cache.erase(cache.begin());  // oldest seq first
      }
    }
  }
  if (applied.empty()) {
    ++pstats_.noop_slots;
    log_debug("SMR ", ctx.id(), " commits slot ", slot.value, " (no-op)");
    if (on_commit_) on_commit_(slot, nullptr, store_);
  }
  pstats_.max_batch = std::max<std::uint64_t>(pstats_.max_batch,
                                              applied.size());
  ++pstats_.slots_committed;

  if (checkpointing()) {
    slot_log_.emplace(slot.value, std::move(applied));
    pstats_.log_peak =
        std::max<std::uint64_t>(pstats_.log_peak, slot_log_.size());
  }

  advance_frontier(next_commit_ + 1);
  // Frontier progress retires any in-flight fetch; the armed retry timer
  // finds last_fetch_ empty and disarms itself.
  if (client_mode()) last_fetch_.clear();

  maybe_checkpoint(ctx);
}

void Replica::advance_frontier(std::uint64_t slot) {
  next_commit_ = slot;
  // Slots below the frontier need no instance of our own: a recovering
  // replica must not start consensus for slots every peer already
  // committed (pure stale traffic that can never decide).
  next_start_ = std::max(next_start_, slot);
  slots_.erase(slots_.begin(), slots_.lower_bound(slot));
  future_.erase(future_.begin(), future_.lower_bound(slot));
  table_.release_below(slot);
  for (auto t = timer_slot_.begin(); t != timer_slot_.end();) {
    t = t->second < slot ? timer_slot_.erase(t) : std::next(t);
  }
}

void Replica::pump(sim::Context& ctx) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Commit the decided prefix, strictly in slot order.  A commit
    // advances the frontier, which retires the committed slot.
    while (next_commit_ < config_.slots) {
      auto it = slots_.find(next_commit_);
      if (it == slots_.end() || !it->second.decided) break;
      if (!commit_slot(ctx, it->second)) break;  // parked awaiting bodies
      progress = true;
    }
    // Decided mid-window slots wait in the reorder buffer with nothing
    // left to do (stop_on_decide); release their actors early.  Safe
    // here: pump runs only after any dispatch into an instance returned.
    for (auto& [s, st] : slots_) {
      if (st.decided && st.actor) st.actor.reset();
    }
    if (next_commit_ >= config_.slots) break;
    if (fill_window(ctx)) progress = true;
  }
  maybe_stop(ctx);
}

void Replica::maybe_stop(sim::Context& ctx) {
  if (!done() || stopped_) return;
  if (checkpointing()) {
    // Stay alive to serve state transfer until every awaited peer has
    // announced completion (its end-of-log checkpoint vote).  Without
    // this, a replica recovering late would find nobody left to ask.
    for (std::uint32_t id : config_.await_done) {
      if (id == ctx.id().value) continue;
      if (heard_end_.count(id) == 0) return;
    }
  }
  stopped_ = true;
  ctx.stop();
}

void Replica::maybe_checkpoint(sim::Context& ctx) {
  if (!checkpointing() || next_commit_ == 0) return;
  const bool boundary = next_commit_ % config_.checkpoint.interval == 0 ||
                        next_commit_ == config_.slots;
  if (!boundary || next_commit_ <= last_ckpt_slot_) return;
  last_ckpt_slot_ = next_commit_;

  Snapshot snap;
  snap.slot = next_commit_;
  snap.applied = store_.applied_count();
  snap.data = store_.contents();
  snap.committed_ids = table_.committed_ids();
  if (client_mode()) snap.clients = client_table_;
  Bytes encoded = encode_snapshot(snap);
  const crypto::Digest digest = snapshot_digest(encoded);
  pending_ckpts_[next_commit_] = {std::move(encoded), digest};
  ++pstats_.checkpoints_taken;

  CheckpointVote vote;
  vote.slot = next_commit_;
  vote.digest = digest;
  vote.sig = config_.signer->sign(
      bft::checkpoint_signing_bytes(vote.slot, vote.digest));
  Bytes frame = encode_control_vote(vote);
  if (vote.slot == config_.slots) end_vote_frame_ = frame;
  log_debug("SMR ", ctx.id(), " checkpoint at slot ", vote.slot);
  ctx.broadcast(frame);  // includes self: our own vote is recorded on RX
}

void Replica::handle_vote(sim::Context& ctx, ProcessId from, Reader& r) {
  const CheckpointVote vote = decode_checkpoint_vote(r);
  const bool boundary =
      vote.slot % config_.checkpoint.interval == 0 ||
      vote.slot == config_.slots;
  if (vote.slot == 0 || vote.slot > config_.slots || !boundary ||
      (!config_.checkpoint.trust_unverified &&
       !verify(from, bft::checkpoint_signing_bytes(vote.slot, vote.digest),
               vote.sig))) {
    ++pstats_.recovery_rejects;
    return;
  }

  if (vote.slot == config_.slots) {
    // End-of-log vote doubles as a DONE announcement.  Replying with our
    // own end vote (once, on first contact) closes the race where the
    // sender was down when we broadcast ours.
    const bool fresh = heard_end_.insert(from.value).second;
    if (fresh && done() && !end_vote_frame_.empty() &&
        from.value != ctx.id().value) {
      ctx.send(from, end_vote_frame_);
    }
  }

  if (!latest_cert_.has_value() || vote.slot > latest_cert_->slot) {
    auto& digests = votes_[vote.slot];
    auto d = digests.find(vote.digest);
    if (d == digests.end()) {
      // Cap digest variants per slot: at most one per possible faulty
      // voter plus the correct one.
      if (digests.size() < config_.n) {
        d = digests.emplace(vote.digest,
                            std::map<std::uint32_t, Bytes>{}).first;
      }
    }
    if (d != digests.end()) {
      d->second[from.value] = vote.sig;
      try_certify(vote.slot);
    }
  }
  maybe_stop(ctx);
}

void Replica::try_certify(std::uint64_t slot) {
  // A certificate needs our own snapshot at that slot: the digest we can
  // vouch for is the one we computed ourselves.
  auto p = pending_ckpts_.find(slot);
  if (p == pending_ckpts_.end()) return;
  auto v = votes_.find(slot);
  if (v == votes_.end()) return;
  auto d = v->second.find(p->second.second);
  if (d == v->second.end() || d->second.size() < cert_quorum()) return;

  bft::CheckpointCert cert;
  cert.slot = slot;
  cert.digest = p->second.second;
  cert.sigs.assign(d->second.begin(), d->second.end());
  latest_cert_ = std::move(cert);
  latest_snapshot_ = std::move(p->second.first);
  ++pstats_.checkpoint_certs;

  // Log compaction: everything below the certified slot is recoverable
  // from the certificate, so the committed-slot log drops it.
  const auto cut = slot_log_.lower_bound(slot);
  pstats_.log_truncated +=
      static_cast<std::uint64_t>(std::distance(slot_log_.begin(), cut));
  slot_log_.erase(slot_log_.begin(), cut);
  votes_.erase(votes_.begin(), votes_.upper_bound(slot));
  pending_ckpts_.erase(pending_ckpts_.begin(),
                       pending_ckpts_.upper_bound(slot));
}

void Replica::request_state(sim::Context& ctx) {
  ctx.broadcast(encode_control_state_req(next_commit_));
  ++pstats_.state_reqs;
}

void Replica::handle_state_req(sim::Context& ctx, ProcessId from, Reader& r) {
  (void)decode_state_req(r);  // validated; we always serve from our best
  if (from.value == ctx.id().value) return;  // own broadcast echo
  if (recovering_) return;  // nothing trustworthy to serve yet

  StateResp resp;
  if (latest_cert_.has_value()) {
    resp.ckpt_slot = latest_cert_->slot;
    resp.snapshot = latest_snapshot_;
    resp.cert_sigs = latest_cert_->sigs;
  } else {
    resp.snapshot = genesis_snapshot();
  }
  for (const auto& [s, ids] : slot_log_) {
    if (s >= resp.ckpt_slot) resp.suffix.push_back(SuffixEntry{s, ids});
  }
  ctx.send(from, encode_control_state_resp(resp));
  ++pstats_.state_resps;
  // A done responder reminds the requester of its end vote: the requester
  // was down when the broadcast went out.
  if (done() && !end_vote_frame_.empty()) ctx.send(from, end_vote_frame_);
}

void Replica::advance_recovery(sim::Context& ctx) {
  if (auto inst = recovery_->best_snapshot(next_commit_)) {
    store_.install(std::move(inst->snapshot.data), inst->snapshot.applied);
    // The table re-derives the admission queue and the eligibility anchor
    // from the installed committed set.
    table_.install(std::move(inst->snapshot.committed_ids));
    // Resume the duplicate-suppression contract where the snapshot left
    // it.
    if (client_mode()) client_table_ = std::move(inst->snapshot.clients);
    advance_frontier(inst->snapshot.slot);
    latest_cert_ = inst->cert;
    latest_snapshot_ = inst->encoded;
    slot_log_.erase(slot_log_.begin(), slot_log_.lower_bound(next_commit_));
    votes_.erase(votes_.begin(), votes_.lower_bound(next_commit_));
    ++pstats_.recovery_installs;
    log_debug("SMR ", ctx.id(), " installed checkpoint at slot ",
              next_commit_);
    // The install landing on a boundary (or the end) takes our own
    // checkpoint, which at the end of the log broadcasts our DONE vote.
    maybe_checkpoint(ctx);
  }

  // Replay quorum-agreed suffix slots, strictly in order.
  while (next_commit_ < config_.slots) {
    auto ids = recovery_->batch_for(next_commit_);
    if (!ids.has_value()) break;
    if (client_mode()) {
      std::vector<std::uint64_t> missing;
      for (std::uint64_t id : *ids) {
        if (table_.body(id) == nullptr && plausible_client_id(id)) {
          // A verified seq bound refutes the body's existence: no honest
          // suffix carries such an id (commit requires the body, the body
          // requires the client's signature), so fetching it would stall
          // the replay forever; apply_committed_batch skips it instead.
          const auto b = seq_bound_.find(client_of_cmd(id));
          if (b != seq_bound_.end() && seq_of_cmd(id) > b->second) continue;
          missing.push_back(id);
        }
      }
      if (!missing.empty()) {
        // The quorum says these committed here, but the bodies were
        // relayed while we were down: fetch them and resume the replay
        // when they land (handle_relay re-enters advance_recovery).
        ++cstats_.parked_commits;
        request_bodies(ctx, missing);
        break;
      }
    }
    apply_committed_batch(ctx, *ids);
  }
  recovery_->prune_below(next_commit_);

  if (recovering_) {
    // First verified response = the rejoin point, even if it carried
    // nothing newer than genesis: the replica now provably holds the best
    // certified state and can participate from its frontier.
    recovering_ = false;
    pstats_.recovery_join_us = ctx.now();
    log_debug("SMR ", ctx.id(), " rejoined at slot ", next_commit_);
  }
  pump(ctx);
}

void Replica::resume(sim::Context& ctx) {
  if (recovering_) return;
  if (recovery_ != nullptr) {
    advance_recovery(ctx);
  } else {
    pump(ctx);
  }
}

void Replica::handle_control(sim::Context& ctx, ProcessId from,
                             const Bytes& inner) {
  if (inner.empty()) {
    ++pstats_.recovery_rejects;
    return;
  }
  const auto kind = static_cast<ControlKind>(inner[0]);
  const Bytes body(inner.begin() + 1, inner.end());
  try {
    switch (kind) {
      // Checkpoint/recovery kinds stay gated on checkpointing(): in a
      // client-mode run without checkpoints they are rejected exactly as a
      // pre-recovery replica would drop them (handle_vote divides by the
      // checkpoint interval, so the gate is load-bearing, not cosmetic).
      case ControlKind::kCheckpointVote: {
        if (!checkpointing()) break;
        Reader r(body);
        handle_vote(ctx, from, r);
        return;
      }
      case ControlKind::kStateReq: {
        if (!checkpointing()) break;
        Reader r(body);
        handle_state_req(ctx, from, r);
        return;
      }
      case ControlKind::kStateResp: {
        if (!checkpointing()) break;
        if (!recovery_) return;  // we never asked
        if (!recovery_->ingest(from, body)) {
          ++pstats_.recovery_rejects;
          return;
        }
        advance_recovery(ctx);
        return;
      }
      case ControlKind::kRequest: {
        if (!client_mode()) break;
        Reader r(body);
        handle_request(ctx, from, r);
        return;
      }
      case ControlKind::kCmdRelay: {
        if (!client_mode()) break;
        Reader r(body);
        handle_relay(ctx, from, r);
        return;
      }
      case ControlKind::kCmdFetch: {
        if (!client_mode()) break;
        Reader r(body);
        handle_fetch(ctx, from, r);
        return;
      }
      case ControlKind::kClientDone: {
        if (!client_mode()) break;
        Reader r(body);
        handle_client_done(ctx, from, r);
        return;
      }
      case ControlKind::kSeqBound: {
        if (!client_mode()) break;
        Reader r(body);
        handle_seq_bound(ctx, from, r);
        return;
      }
      case ControlKind::kReply:
      case ControlKind::kBusy:
        return;  // client-bound kinds; a replica receiving one ignores it
    }
  } catch (const SerialError&) {
  }
  ++pstats_.recovery_rejects;
}

bool Replica::check_body(const CmdRelay& body) {
  if (!is_client(body.client) || body.seq == 0 || body.seq > 0xffffffffULL) {
    ++cstats_.rejects;
    return false;
  }
  // The body is authenticated by the OWNING CLIENT's signature, never by
  // a relaying replica: a Byzantine relayer can neither fabricate a body
  // for a real client's seq nor feed divergent bodies to different peers,
  // because no second validly-signed body exists for one id.
  if (config_.client.authenticate &&
      !verify(ProcessId{body.client},
              client_request_signing_bytes(body.client, body.seq, body.op,
                                           body.key, body.value),
              body.sig)) {
    ++cstats_.auth_rejects;
    return false;
  }
  return true;
}

void Replica::admit(const CmdRelay& body,
                    std::optional<std::uint32_t> origin) {
  Command cmd;
  cmd.id = make_client_cmd_id(body.client, body.seq);
  cmd.op = body.op;
  cmd.key = body.key;
  cmd.value = body.value;
  if (table_.admit(std::move(cmd), body.sig, origin)) {
    cstats_.queue_peak = std::max<std::uint64_t>(cstats_.queue_peak,
                                                 table_.queue().size());
  }
}

void Replica::handle_request(sim::Context& ctx, ProcessId from, Reader& r) {
  if (!is_client(from.value)) {
    ++cstats_.rejects;
    return;
  }
  const ClientRequest req = decode_client_request(r);
  const CmdRelay body{from.value, req.seq, req.op, req.key, req.value,
                      req.sig};
  if (!check_body(body)) return;
  ++cstats_.requests;
  const std::uint64_t id = make_client_cmd_id(from.value, req.seq);
  if (table_.committed(id)) {
    // Exactly-once: already applied.  Replay the cached reply — the retry
    // means the client has not certified yet.  A reply evicted from the
    // bounded cache is simply not replayed; the client's outstanding
    // window is required to stay within the cache bound (docs/CLIENT.md).
    ++cstats_.duplicates;
    auto t = client_table_.find(from.value);
    if (t != client_table_.end()) {
      auto rep = t->second.find(req.seq);
      if (rep != t->second.end()) {
        ctx.send(from, rep->second);
        ++cstats_.replays;
      }
    }
    return;
  }
  if (table_.body(id) != nullptr) {
    // In flight: the commit-time reply will answer this retry too.
    ++cstats_.duplicates;
    return;
  }
  const std::size_t queued = table_.queue().size();
  if (queued >= config_.client.max_pending && !fetch_needs(id)) {
    // Deterministic load-shedding: the admission queue is full, tell the
    // client to back off instead of queueing unboundedly.  A body the
    // parked frontier is fetching is exempt: the park stops the queue
    // from draining, so shedding it would starve the exact command
    // progress depends on.
    ++cstats_.sheds;
    ctx.send(from, encode_control_busy(
                       BusyFrame{req.seq, static_cast<std::uint32_t>(queued)}));
    return;
  }
  admit(body, std::nullopt);
  ++cstats_.admitted;
  ctx.broadcast(encode_control_relay(body));
  ++cstats_.relays_sent;
  if (!recovering_) pump(ctx);
}

void Replica::handle_relay(sim::Context& ctx, ProcessId from, Reader& r) {
  if (from.value >= config_.n) {
    ++cstats_.rejects;  // only replicas relay bodies
    return;
  }
  const CmdRelay relay = decode_cmd_relay(r);
  if (!check_body(relay)) return;
  const std::uint64_t id = make_client_cmd_id(relay.client, relay.seq);
  ++cstats_.relays_received;
  // Bodies the parked frontier is fetching bypass both capacity drops:
  // progress depends on them, the fetch list is bounded by the batch
  // size, and frontier progress releases them immediately.
  if (table_.body(id) == nullptr && !table_.committed(id) &&
      !fetch_needs(id)) {
    if (table_.queue().size() >=
        static_cast<std::size_t>(config_.client.max_pending) * config_.n) {
      // Peers collectively admit at most n × max_pending; beyond that
      // the relay is a flood and is dropped.
      ++cstats_.relays_dropped;
      return;
    }
    // Per-origin bound: ONE misbehaving relayer is capped at its own
    // max_pending admissions instead of filling the whole collective
    // budget and starving direct client admissions into BUSY.
    if (table_.origin_load(from.value) >= config_.client.max_pending) {
      ++cstats_.origin_drops;
      return;
    }
  }
  admit(relay, from.value);
  // A parked frontier or a stalled suffix replay may now advance.
  resume(ctx);
}

bool Replica::fetch_needs(std::uint64_t id) const {
  return std::find(last_fetch_.begin(), last_fetch_.end(), id) !=
         last_fetch_.end();
}

void Replica::handle_fetch(sim::Context& ctx, ProcessId from, Reader& r) {
  if (from.value == ctx.id().value) return;  // own broadcast echo
  if (from.value >= config_.n) {
    ++cstats_.rejects;  // only replicas fetch bodies
    return;
  }
  const std::vector<std::uint64_t> ids = decode_cmd_fetch(r, StateLimits{});
  for (std::uint64_t id : ids) {
    const std::uint32_t client = client_of_cmd(id);
    if (!is_client(client)) continue;
    const Command* cmd = table_.body(id);
    const Bytes* sig = table_.sig(id);
    // Authenticated mode only serves bodies it can prove: a sig-less body
    // (e.g. planted directly into a faulty replica's table) would be
    // rejected by every honest receiver anyway.
    if (cmd != nullptr && (!config_.client.authenticate || sig != nullptr)) {
      const CmdRelay relay{client, seq_of_cmd(id), cmd->op, cmd->key,
                           cmd->value, sig != nullptr ? *sig : Bytes{}};
      ctx.send(from, encode_control_relay(relay));
      ++cstats_.fetches_served;
      continue;
    }
    // No servable body — but a recorded seq bound refuting the id unparks
    // the fetcher just as well: relay the signed bound frame.
    auto b = seq_bound_.find(client);
    if (b != seq_bound_.end() && seq_of_cmd(id) > b->second) {
      auto frame = bound_frames_.find(client);
      if (frame != bound_frames_.end()) {
        ctx.send(from, frame->second);
        ++cstats_.fetches_served;
      }
    }
  }
}

bool Replica::accept_client_frame(ProcessId from, std::uint32_t client,
                                  const Bytes& preimage, const Bytes& sig) {
  if (!is_client(client)) {
    ++cstats_.rejects;
    return false;
  }
  if (config_.client.authenticate) {
    // Signed: acceptable from any sender (peers re-serve it to fetchers
    // after the client stops).
    if (!verify(ProcessId{client}, preimage, sig)) {
      ++cstats_.auth_rejects;
      return false;
    }
  } else if (from.value != client && from.value >= config_.n) {
    ++cstats_.rejects;  // unauthenticated mode trusts channels, not frames
    return false;
  }
  return true;
}

void Replica::handle_client_done(sim::Context& ctx, ProcessId from,
                                 Reader& r) {
  const ClientDone done = decode_client_done(r);
  if (!accept_client_frame(
          from, done.client,
          client_done_signing_bytes(done.client, done.final_seq), done.sig)) {
    return;
  }
  // DONE doubles as a seq bound: the client will never send beyond its
  // final seq, so decided ids past it are fabrications to skip, not fetch.
  record_seq_bound(ctx, done.client, done.final_seq,
                   encode_control_client_done(done));
  clients_done_.insert(done.client);
  if (!drain_ && clients_done_.size() >= config_.client.num_clients) {
    // Every client certified its whole script: run the rest of the log as
    // no-op slots so the PR 6 end-of-log machinery (final checkpoint,
    // await_done) applies unchanged.
    drain_ = true;
    if (!recovering_) pump(ctx);
  }
}

void Replica::handle_seq_bound(sim::Context& ctx, ProcessId from, Reader& r) {
  const SeqBound sb = decode_seq_bound(r);
  if (!accept_client_frame(from, sb.client,
                           seq_bound_signing_bytes(sb.client, sb.bound),
                           sb.sig)) {
    return;
  }
  record_seq_bound(ctx, sb.client, sb.bound, encode_control_seq_bound(sb));
}

bool Replica::client_eligible(std::uint64_t id) const {
  const std::uint32_t client = client_of_cmd(id);
  const std::uint64_t seq = seq_of_cmd(id);
  const auto b = seq_bound_.find(client);
  if (b != seq_bound_.end() && seq > b->second) return false;  // refuted
  // Count-anchored (not max-anchored) window: under committed-seq gaps a
  // max anchor could run ahead of what the client provably submitted,
  // while the count never exceeds it.
  return seq <= table_.committed_count(client) + config_.client.seq_window;
}

void Replica::record_seq_bound(sim::Context& ctx, std::uint32_t client,
                               std::uint64_t bound, const Bytes& frame) {
  const auto it = seq_bound_.find(client);
  if (it != seq_bound_.end() && it->second <= bound) return;  // no tighter
  seq_bound_[client] = bound;
  bound_frames_[client] = frame;
  ++cstats_.bounds_recorded;
  // Decided ids beyond the bound just became ineligible: a frontier (or a
  // suffix replay) parked on one of them can commit without it now.
  resume(ctx);
}

void Replica::request_bodies(sim::Context& ctx,
                             const std::vector<std::uint64_t>& missing) {
  if (missing != last_fetch_) {
    last_fetch_ = missing;
    ctx.broadcast(encode_control_fetch(missing));
    ++cstats_.fetches_sent;
  }
  if (fetch_timer_ == 0) fetch_timer_ = ctx.set_timer(config_.retry_delay);
}

void Replica::on_message(sim::Context& ctx, ProcessId from,
                         const Bytes& payload) {
  std::uint64_t slot = 0;
  Bytes inner;
  try {
    Reader r(payload);
    slot = r.u64();
    inner.assign(payload.begin() + 8, payload.end());
  } catch (const SerialError&) {
    return;  // not an SMR frame
  }
  if (slot == kControlSlot) {
    // Reserved tag: recovery and client/service control traffic.  With
    // both subsystems off the frame is dropped exactly like any other
    // out-of-range slot — the silent drop a pre-recovery replica already
    // performs.
    if (checkpointing() || client_mode()) handle_control(ctx, from, inner);
    return;
  }
  if (slot >= config_.slots) return;  // no such instance

  if (recovering_) {
    // No trusted state yet: consensus traffic is meaningless to us (our
    // instances would start from a blank store).  State transfer will
    // bring the committed outcome instead.
    ++pstats_.stale_dropped;
    return;
  }

  if (slot < next_commit_) {  // committed slot (covers done()): stale
    ++pstats_.stale_dropped;
    return;
  }

  auto it = slots_.find(slot);
  if (it != slots_.end()) {
    Slot& st = it->second;
    if (st.decided || st.actor == nullptr) {
      ++pstats_.stale_dropped;  // instance finished, commit still pending
      return;
    }
    SlotContext sub(ctx, *this, slot);
    st.actor->on_message(sub, from, inner);
    pump(ctx);
    return;
  }

  // Not started yet: buffer within the bounded horizon and the sender's
  // share of the slot, drop beyond them.  The share is per sender, so a
  // flooder cannot crowd a correct peer's envelopes out of the slot.
  if (slot >= buffer_horizon()) {
    ++pstats_.future_dropped;
    return;
  }
  auto& parked = future_[slot];
  if (std::count_if(parked.begin(), parked.end(), [&](const auto& e) {
        return e.first == from;
      }) >= kMaxFuturePerSender) {
    ++pstats_.future_dropped;
    return;
  }
  parked.emplace_back(from, std::move(inner));
  ++pstats_.future_buffered;
  // Client mode gates slot starts on peer activity (future_): a peer
  // starting next_start_ before we have anything to propose is only
  // visible here, so the buffered envelope must open the window.
  if (client_mode()) pump(ctx);
}

bool Replica::staging_ready() const {
  // Staged ingest needs the Byzantine back-end (the crash protocol has no
  // signatures to pre-verify), the pool (the parallelism) and the shared
  // cache (the channel through which prologue work reaches the sequential
  // stage).  A recovering replica drops consensus traffic anyway, so
  // warming for it would be pure waste.
  return config_.staged_ingest && config_.backend == Backend::kByzantine &&
         config_.bft.verify_pool != nullptr && vcache_ != nullptr &&
         !recovering_;
}

void Replica::on_batch(sim::Context& ctx,
                       std::vector<sim::Incoming>& batch) {
  // A single-frame batch gains nothing from a prologue.
  if (staging_ready() && batch.size() >= 2) {
    ++istats_.batches;
    istats_.batch_messages += batch.size();
    istats_.max_batch =
        std::max<std::uint64_t>(istats_.max_batch, batch.size());
    // Warm the shared cache across the whole batch.  verify_all blocks,
    // so everything the workers wrote is visible (happens-before) when
    // the sequential dispatch starts.  A synchronous pool (0 workers) has
    // no parallelism to exploit — every job would run inline on this
    // thread and duplicate work the sequential dispatch does anyway — so
    // the prologue only runs when workers exist.
    if (config_.bft.verify_pool->workers() > 0) ingest_prologue(batch);
  }
  // The base-class contract: sequential dispatch in arrival order, so
  // every signed message leaves inline, in the order one-at-a-time
  // dispatch produces (docs/INGEST.md states the argument).
  sim::Actor::on_batch(ctx, batch);
}

void Replica::ingest_prologue(const std::vector<sim::Incoming>& batch) {
  std::vector<crypto::VerifyPool::Job> jobs;
  jobs.reserve(batch.size());
  for (const sim::Incoming& m : batch) {
    // Recognize consensus frames without touching protocol state; control
    // traffic, stale or out-of-range slots and runts are left entirely to
    // the sequential stage.
    std::uint64_t slot = 0;
    try {
      Reader r(m.payload);
      slot = r.u64();
    } catch (const SerialError&) {
      continue;
    }
    if (slot == kControlSlot || slot >= config_.slots ||
        slot < next_commit_) {
      continue;
    }
    ++istats_.prologue_frames;
    jobs.push_back([this, from = m.from, payload = &m.payload] {
      // The job borrows the frame bytes (verify_all blocks until every
      // job returns, so `batch` outlives the borrow) and peels its own
      // sub-frame copy on the worker — off the sequential thread.  The
      // decoded message, including the digest memos the warm walk
      // populates, is this job's own object, so the unsynchronized
      // Certificate caches are never shared across threads.  The
      // sequential stage re-decodes the raw bytes and finds the verify
      // cache hot.
      bft::DecodeOutcome out = bft::try_decode_message(
          Bytes(payload->begin() + 8, payload->end()));
      if (!out.ok) return true;       // the signature module rejects it
      if (out.msg.core.sender != from) return true;  // identity mismatch
      vcache_->verify(out.msg.core.sender,
                      bft::signing_bytes(out.msg.core, out.msg.cert),
                      out.msg.sig);
      warm_certificate(*vcache_, out.msg.cert, 0);
      return true;
    });
  }
  if (jobs.empty()) return;
  istats_.prologue_jobs += jobs.size();
  config_.bft.verify_pool->verify_all(std::move(jobs));
}

void Replica::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if (done()) return;
  if (client_mode() && fetch_timer_ != 0 && timer_id == fetch_timer_) {
    fetch_timer_ = 0;
    if (!last_fetch_.empty()) {
      // Frontier (or suffix replay) still parked: re-ask everyone.
      ctx.broadcast(encode_control_fetch(last_fetch_));
      ++cstats_.fetches_sent;
      fetch_timer_ = ctx.set_timer(config_.retry_delay);
    }
    return;
  }
  if (recovery_ != nullptr && timer_id == recovery_timer_) {
    // Catch-up tick: a stalled frontier means peers are ahead (or our
    // first request was lost) — re-ask with exponential backoff; progress
    // resets the backoff.
    if (next_commit_ == last_seen_frontier_) {
      request_state(ctx);
      retry_delay_ =
          std::min<SimTime>(retry_delay_ * 2, config_.retry_delay * 16);
    } else {
      retry_delay_ = config_.retry_delay;
    }
    last_seen_frontier_ = next_commit_;
    recovery_timer_ = ctx.set_timer(retry_delay_);
    return;
  }
  auto it = timer_slot_.find(timer_id);
  if (it == timer_slot_.end()) return;
  const std::uint64_t slot = it->second;
  timer_slot_.erase(it);

  auto s = slots_.find(slot);
  if (s == slots_.end() || s->second.decided || s->second.actor == nullptr)
    return;
  SlotContext sub(ctx, *this, slot);
  s->second.actor->on_timer(sub, timer_id);
  pump(ctx);
}

}  // namespace modubft::smr
