#include "smr/replica.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"

namespace modubft::smr {

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
    : config_(std::move(config)), on_commit_(std::move(on_commit)) {
  MODUBFT_EXPECTS(config_.n >= 2);
  MODUBFT_EXPECTS(config_.window >= 1);
  MODUBFT_EXPECTS(config_.batch >= 1);
  MODUBFT_EXPECTS(config_.retry_delay > 0);
  if (config_.backend == Backend::kCrashHurfinRaynal) {
    MODUBFT_EXPECTS(config_.detector != nullptr);
  } else {
    MODUBFT_EXPECTS(config_.signer != nullptr);
    MODUBFT_EXPECTS(config_.verifier != nullptr);
    // One cache for this life's slots and units: a fresh instance starts
    // with a warm cache, and the hit/miss statistics survive instance
    // teardown (the scenario runners read them after the run).  A
    // restarted replica is a new Replica, so it starts cold.
    vcache_ = std::make_shared<crypto::CachingVerifier>(config_.verifier);
  }
  for (Command& cmd : workload) {
    MODUBFT_EXPECTS(cmd.id != 0);  // 0 is the no-op marker
    table_.admit(std::move(cmd), Bytes{}, std::nullopt);
  }

  // Both units check signatures through the shared cache when there is
  // one, so their verdicts land where the slots' do.
  const crypto::Verifier* verifier =
      vcache_ ? vcache_.get() : config_.verifier.get();
  if (config_.client.num_clients > 0) {
    client_ = std::make_unique<ClientService>(config_, table_, verifier);
  }
  if (config_.checkpoint.interval > 0) {
    ckpt_ = std::make_unique<Checkpointer>(config_, pstats_, verifier);
  }
}

const ClientServiceStats& Replica::client_service_stats() const {
  static const ClientServiceStats kNone;
  return client_ ? client_->stats() : kNone;
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
      table_.claim(slot, client_ ? 1u : config_.batch);

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
      config_.bft, proposal, config_.signer, vcache_,
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
  // A restarted replica fetches a certified checkpoint before touching
  // the window.
  if (ckpt_ && ckpt_->start(ctx, next_commit_)) return;
  pump(ctx);
}

bool Replica::fill_window(sim::Context& ctx) {
  bool started = false;
  while (next_start_ < next_commit_ + config_.window) {
    // The replica idles instead of burning slots on no-ops: a slot starts
    // only with something to propose, or when a peer already started it
    // (its envelopes buffered in future_).
    if (!table_.has_proposable() && future_.count(next_start_) == 0) break;
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
  if (client_) {
    // The client commit rule (ClientService::commit_batch); a missing body
    // parks the frontier.
    std::optional<std::vector<std::uint64_t>> ready =
        client_->commit_batch(ctx, st.ids);
    if (!ready.has_value()) return false;
    batch = std::move(*ready);
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
    if (client_) client_->reply(ctx, slot.value, *cmd);
  }
  if (applied.empty()) {
    ++pstats_.noop_slots;
    log_debug("SMR ", ctx.id(), " commits slot ", slot.value, " (no-op)");
    if (on_commit_) on_commit_(slot, nullptr, store_);
  }
  pstats_.max_batch = std::max<std::uint64_t>(pstats_.max_batch,
                                              applied.size());
  ++pstats_.slots_committed;
  if (ckpt_) ckpt_->record(slot.value, std::move(applied));

  advance_frontier(next_commit_ + 1);
  if (client_) client_->retire_fetch();
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
  live_applied_.store(store_.applied_count(), std::memory_order_release);
}

void Replica::pump(sim::Context& ctx) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Commit the decided prefix, strictly in slot order.  A commit
    // advances the frontier, which retires the committed slot.
    while (true) {
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
    if (fill_window(ctx)) progress = true;
  }
}

void Replica::maybe_checkpoint(sim::Context& ctx) {
  if (!ckpt_ || !ckpt_->due(next_commit_)) return;
  Snapshot snap;
  snap.slot = next_commit_;
  snap.applied = store_.applied_count();
  snap.data = store_.contents();
  snap.committed_ids = table_.committed_ids();
  if (client_) snap.clients = client_->replies();
  ckpt_->take(ctx, snap);
}

void Replica::advance_recovery(sim::Context& ctx) {
  if (std::optional<Snapshot> snap = ckpt_->adopt(next_commit_)) {
    store_.install(std::move(snap->data), snap->applied);
    // The table re-derives the pending index and the eligibility anchor
    // from the installed committed set.
    table_.install(std::move(snap->committed_ids));
    if (client_) client_->install(std::move(snap->clients));
    advance_frontier(snap->slot);
    log_debug("SMR ", ctx.id(), " installed checkpoint at slot ",
              next_commit_);
    // An install landing on a boundary takes our own checkpoint there.
    maybe_checkpoint(ctx);
  }

  // Replay quorum-agreed suffix slots, strictly in order.  The bodies may
  // have been relayed while we were down: a missing one is fetched, and
  // the replay resumes when it lands.
  while (std::optional<std::vector<std::uint64_t>> ids =
             ckpt_->suffix_batch(next_commit_)) {
    if (client_ && !client_->bodies_ready(ctx, *ids)) break;
    apply_committed_batch(ctx, *ids);
  }
  ckpt_->replayed(ctx, next_commit_);
  pump(ctx);
}

void Replica::resume(sim::Context& ctx) {
  if (recovering()) return;
  if (ckpt_ && ckpt_->restarted()) {
    advance_recovery(ctx);
  } else {
    pump(ctx);
  }
}

void Replica::route_control(sim::Context& ctx, ProcessId from,
                            const Bytes& inner) {
  const auto kind = static_cast<ControlKind>(inner.empty() ? 0 : inner[0]);
  const Bytes body(inner.begin() + (inner.empty() ? 0 : 1), inner.end());
  try {
    if (ckpt_ && Checkpointer::owns(kind)) {
      if (ckpt_->on_frame(ctx, from, kind, body)) {
        advance_recovery(ctx);
      }
      return;
    }
    if (client_ && ClientService::owns(kind)) {
      const ClientService::Next next =
          client_->on_frame(ctx, from, kind, body);
      if (next == ClientService::Next::kResume) resume(ctx);
      if (next == ClientService::Next::kPump && !recovering()) pump(ctx);
      return;
    }
  } catch (const SerialError&) {
  }
  // REPLY and BUSY are client-bound: a replica ignores them.  Any other
  // frame is malformed, of an unknown kind, or of a kind whose unit is not
  // configured.
  if (kind != ControlKind::kReply && kind != ControlKind::kBusy) {
    ++pstats_.recovery_rejects;
  }
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
    // neither unit configured the frame is dropped silently, as a
    // pre-recovery replica already did.
    if (ckpt_ || client_) route_control(ctx, from, inner);
    return;
  }

  if (recovering()) {
    // No trusted state yet: consensus traffic is meaningless to us (our
    // instances would start from a blank store).  State transfer will
    // bring the committed outcome instead.
    ++pstats_.stale_dropped;
    return;
  }

  if (slot < next_commit_) {  // committed slot: stale
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
  // Slot starts are gated on peer activity (future_): a peer starting
  // next_start_ before we have anything to propose is only visible here,
  // so the buffered envelope must open the window.
  pump(ctx);
}

void Replica::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if (client_ && client_->on_timer(ctx, timer_id)) return;
  if (ckpt_ && ckpt_->on_timer(ctx, timer_id, next_commit_)) return;
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
