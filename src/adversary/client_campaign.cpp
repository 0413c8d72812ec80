#include "adversary/client_campaign.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <exception>
#include <memory>
#include <utility>

#include "bft/checkpoint_cert.hpp"
#include "bft/message.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "sim/actor.hpp"
#include "smr/checkpoint.hpp"

namespace modubft::adversary {

namespace {

// The one cell shape (see the header).
constexpr std::uint32_t kClients = 2;
constexpr std::uint32_t kOpsPerClient = 8;
constexpr std::uint32_t kWindow = 4;
constexpr std::uint32_t kVictim = 2;    // p3, killed and restarted
constexpr std::uint32_t kAttacker = 1;  // p2

/// burn-log's junk runs this many slots past W ahead of each frame's slot.
constexpr std::uint64_t kBurnPastWindow = 8;

/// The slot a forged STATE_RESP claims: beyond any cell's log, so the
/// fabricated state outbids every honest response.
constexpr std::uint64_t kForgedClaimSlot = std::uint64_t{1} << 32;

/// Kill/restart instants (µs) per substrate, indexed by runtime::Backend
/// (sim, threads, tcp).  The simulator drains a cell in tens of virtual
/// ms, and its kill lands after a checkpoint certified, so every sim
/// restart installs a certified snapshot; the wall-clock substrates need
/// room for OS scheduling before the restart fires.
constexpr struct {
  SimTime kill, restart;
} kOutage[] = {{6'000, 9'000}, {3'000, 60'000}, {5'000, 80'000}};

/// Each negative control's name and the cell check its planted fault
/// must trip, indexed by SmrControl.
constexpr struct {
  const char* name;
  const char* trips;
} kControls[] = {
    {"unverified-install", "store_audit"},
    {"trust-first-reply", "reply_audit"},
    {"unauthenticated-bodies", "clients_done"},
};

/// True iff the frame rides the reserved control slot (recovery and
/// client traffic — the only frames any SMR attack touches).
bool is_control_frame(const Bytes& payload) {
  if (payload.size() < 9) return false;
  for (std::size_t i = 0; i < 8; ++i) {
    if (payload[i] != 0xFF) return false;
  }
  return true;
}

/// Reader positioned past the control envelope (slot + kind byte).
Reader control_body(const Bytes& frame) {
  Reader r(frame);
  r.u64();
  r.u8();
  return r;
}

std::string render_who(std::uint32_t id) { return "p" + std::to_string(id + 1); }

std::string render_cmd(std::uint64_t id) {
  return "c" + std::to_string(smr::client_of_cmd(id)) + "#" +
         std::to_string(smr::seq_of_cmd(id));
}

/// Actor decorator splicing one attack under a replica.  The wrapped
/// replica runs honest code and keeps committing correctly; each attack
/// rewrites only the frames it targets: control frames, or the INITs of
/// phantom-ids (burn-log only adds junk next to consensus frames).
class SmrAttacker final : public sim::Actor {
 public:
  /// `self` signs forged checkpoint votes and phantom INITs (the attacker
  /// legitimately holds its own key); `forged_resp` answers every
  /// STATE_REQ under forged-checkpoint; `phantoms` are the two fabricated
  /// client ids phantom-ids proposes; `burn_ahead` is how many slots ahead
  /// burn-log's junk runs; `seed` drives corrupt-state-resp's byte stomps
  /// and burn-log's junk bytes.
  SmrAttacker(std::unique_ptr<sim::Actor> inner, SmrAttack attack,
              std::uint32_t n, const crypto::Signer* self, Bytes forged_resp,
              std::array<std::uint64_t, 2> phantoms, std::uint64_t burn_ahead,
              std::uint64_t seed)
      : inner_(std::move(inner)),
        attack_(attack),
        n_(n),
        self_(self),
        forged_resp_(std::move(forged_resp)),
        phantoms_(phantoms),
        burn_ahead_(burn_ahead),
        rng_(seed) {
    MODUBFT_EXPECTS(inner_ != nullptr && self_ != nullptr);
  }

  void on_start(sim::Context& ctx) override {
    AttackContext atk(ctx, *this);
    inner_->on_start(atk);
  }
  // One held reply drains per event, so delayed replies are reordered
  // across operations but never starved: client retries are events too.
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    release_one(ctx);
    AttackContext atk(ctx, *this);
    inner_->on_message(atk, from, payload);
  }
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override {
    release_one(ctx);
    AttackContext atk(ctx, *this);
    inner_->on_timer(atk, timer_id);
  }

 private:
  /// Routes every outgoing control frame through intercept() and every
  /// consensus frame through phantom_init() and burn().
  class AttackContext final : public sim::ForwardingContext {
   public:
    AttackContext(sim::Context& base, SmrAttacker& owner)
        : ForwardingContext(base), owner_(owner) {}

    void send(ProcessId to, Bytes payload) override {
      if (!is_control_frame(payload)) {
        owner_.phantom_init(payload);
        owner_.burn(base_, payload);
      } else if (owner_.intercept(base_, to, payload)) {
        return;
      }
      base_.send(to, std::move(payload));
    }

    void broadcast(const Bytes& payload) override {
      Bytes frame = payload;
      if (!is_control_frame(frame)) {
        owner_.phantom_init(frame);
        owner_.burn(base_, frame);
      } else if (owner_.intercept(base_, std::nullopt, frame)) {
        return;
      }
      base_.broadcast(frame);
    }

   private:
    SmrAttacker& owner_;
  };

  /// Attack hook for one outgoing control frame; `to` is empty for a
  /// broadcast.  Returns true if the frame was consumed (dropped or
  /// held); otherwise `frame`, possibly rewritten, goes on the wire.
  bool intercept(sim::Context& ctx, std::optional<ProcessId> to,
                 Bytes& frame);

  /// phantom-ids' hook for one outgoing consensus frame (the slot tag,
  /// then the slot actor's message): an INIT's value becomes one of the two
  /// phantom ids, alternating by slot, re-signed with the attacker's own
  /// key.  A Byzantine proposer may sign any value as itself.
  void phantom_init(Bytes& frame) {
    if (attack_ != SmrAttack::kPhantomIds) return;
    try {
      Reader r(frame);
      const std::uint64_t slot = r.u64();
      bft::SignedMessage msg =
          bft::decode_message(Bytes(frame.begin() + 8, frame.end()));
      if (msg.core.kind != bft::BftKind::kInit) return;
      msg.core.init_value = phantoms_[slot % 2];
      msg.sig = self_->sign(bft::signing_bytes(msg.core, msg.cert));
      Writer w;
      w.u64(slot);
      w.raw(bft::encode_message(msg));
      frame = std::move(w).take();
    } catch (const std::exception&) {
      // Not a Byzantine back-end frame: sent unchanged.
    }
  }

  /// burn-log's hook for one outgoing consensus frame: one junk envelope
  /// to every other replica for each of the burn_ahead_ slots past the
  /// frame's own.
  void burn(sim::Context& ctx, const Bytes& frame) {
    if (attack_ != SmrAttack::kBurnLog) return;
    Reader r(frame);
    const std::uint64_t slot = r.u64();
    for (std::uint64_t s = slot + 1; s <= slot + burn_ahead_; ++s) {
      Writer w;
      w.u64(s);
      w.u64(rng_.next_u64());
      w.u64(rng_.next_u64());
      const Bytes junk = std::move(w).take();
      for (std::uint32_t j = 0; j < n_; ++j) {
        if (j != ctx.id().value) ctx.send(ProcessId{j}, junk);
      }
    }
  }

  void release_one(sim::Context& ctx) {
    if (held_.empty()) return;
    auto [to, frame] = std::move(held_.front());
    held_.pop_front();
    ctx.send(to, std::move(frame));
  }

  std::unique_ptr<sim::Actor> inner_;
  SmrAttack attack_;
  std::uint32_t n_;  // process ids >= n_ are clients
  const crypto::Signer* self_;
  Bytes forged_resp_;
  std::array<std::uint64_t, 2> phantoms_;
  std::uint64_t burn_ahead_;
  Rng rng_;
  std::deque<std::pair<ProcessId, Bytes>> held_;
};

bool SmrAttacker::intercept(sim::Context& ctx, std::optional<ProcessId> to,
                            Bytes& frame) {
  const auto kind = static_cast<smr::ControlKind>(frame[8]);
  const bool to_client = to && to->value >= n_;
  const bool reply = to_client && kind == smr::ControlKind::kReply;
  try {
    switch (attack_) {
      case SmrAttack::kForgedCheckpoint:
        if (kind == smr::ControlKind::kCheckpointVote) {
          // Re-sign a vote for the fabricated digest: the signature
          // verifies (it is our key), only the claim is a lie — the shape
          // a key-holding Byzantine replica actually produces.
          Reader r = control_body(frame);
          smr::CheckpointVote vote = smr::decode_checkpoint_vote(r);
          vote.digest = forged_checkpoint_digest(vote.slot);
          vote.sig = self_->sign(
              bft::checkpoint_signing_bytes(vote.slot, vote.digest));
          frame = smr::encode_control_vote(vote);
        } else if (kind == smr::ControlKind::kStateResp) {
          frame = forged_resp_;
        }
        return false;
      case SmrAttack::kCorruptStateResp:
        if (kind == smr::ControlKind::kStateResp) {
          // Stomp a window past the control header so the frame still
          // routes to the recovery decoder — that decoder is the attack
          // surface.
          const std::size_t body = 9;
          const std::size_t len = std::min<std::size_t>(
              1 + rng_.next_below(8), frame.size() - body);
          const std::size_t start =
              body + rng_.next_below(frame.size() - body - len + 1);
          for (std::size_t i = 0; i < len; ++i) {
            frame[start + i] = static_cast<std::uint8_t>(rng_.next_u64());
          }
        }
        return false;
      case SmrAttack::kDropReplies:
        return reply;  // BUSY frames pass — shedding is not the target
      case SmrAttack::kDelayReplies:
        if (!reply) return false;
        held_.emplace_back(*to, std::move(frame));
        if (held_.size() > 3) release_one(ctx);
        return true;
      case SmrAttack::kForgeReplies:
        if (reply) {
          // Corrupt both the result and the claimed linearization point:
          // either alone must already fail the client's content check.
          Reader r = control_body(frame);
          smr::ClientReply forged = smr::decode_client_reply(r);
          forged.value += "!forged";
          forged.slot += 1000;
          frame = smr::encode_control_reply(forged);
        }
        return false;
      case SmrAttack::kForgeBodies:
        if (!to_client && kind == smr::ControlKind::kCmdRelay) {
          // Broadcast relays and fetch answers alike.  Corrupt the body,
          // KEEP the client's signature: the receiver must notice the
          // signature no longer covers the bytes.
          Reader r = control_body(frame);
          smr::CmdRelay relay = smr::decode_cmd_relay(r);
          relay.value += "!forged";
          frame = smr::encode_control_relay(relay);
        }
        return false;
      case SmrAttack::kNone:
      case SmrAttack::kPhantomIds:  // the attacks ride consensus frames
      case SmrAttack::kBurnLog:
        return false;
    }
  } catch (const std::exception&) {
    // A frame our own replica emitted failed to re-decode — send it
    // unchanged; the attack only ever weakens into honesty.
  }
  return false;
}

/// Builds the one cell shape, with no attacker armed yet.
faults::SmrScenarioConfig make_scenario(std::uint32_t n, std::uint32_t f,
                                        runtime::Backend substrate,
                                        std::uint64_t seed,
                                        std::chrono::milliseconds budget) {
  MODUBFT_EXPECTS(smr_cell_fits(n, f));
  faults::SmrScenarioConfig sc;
  sc.n = n;
  sc.f = f;
  sc.seed = seed;
  sc.substrate = substrate;
  sc.backend = smr::Backend::kByzantine;
  sc.window = kWindow;
  sc.batch = 2;
  sc.budget = budget;
  sc.checkpoint_interval = 4;
  faults::ClientLoadConfig load;
  load.count = kClients;
  load.ops_per_client = kOpsPerClient;
  sc.clients = load;

  const auto& outage = kOutage[static_cast<std::size_t>(substrate)];
  sc.crashes.push_back({ProcessId{kVictim}, outage.kill, outage.restart});

  if (substrate == runtime::Backend::kTcp) {
    // Every link dies at least once early on; random kills stay rare so
    // the run finishes inside the budget.
    faults::LinkFaultSpec spec;
    spec.kill_prob = 0.002;
    spec.kill_at_attempts = {3};
    spec.max_random_faults = 4;
    sc.link_faults.push_back(spec);
  }
  return sc;
}

}  // namespace

void arm_smr_attack(faults::SmrScenarioConfig& sc, SmrAttack attack,
                    const std::set<std::uint32_t>& attackers) {
  MODUBFT_EXPECTS(sc.clients.has_value());
  if (attack == SmrAttack::kNone) return;
  sc.assume_faulty = attackers;
  // phantom-ids proposes fabricated client ids no body exists for.  One
  // sits just past a real client's script (only the client's signed
  // SEQ_BOUND can refute it) and one far beyond the eligibility window
  // (skipped arithmetically).  Sixteen ops in flight widen the window, so
  // the just-past phantom parks the frontier and forces the SEQ_BOUND
  // refutation path instead of a silent skip.
  const std::array<std::uint64_t, 2> phantoms = {
      smr::make_client_cmd_id(sc.n, sc.clients->ops_per_client + 1),
      smr::make_client_cmd_id(sc.n + 1, 1000)};
  if (attack == SmrAttack::kPhantomIds) sc.clients->max_outstanding = 16;
  // The attackers sign with the run's own keys: the HMAC system
  // run_smr_scenario derives from (n, seed).  Shared ownership keeps the
  // signers alive for the run's whole lifetime.
  auto keys = std::make_shared<crypto::SignatureSystem>(
      crypto::HmacScheme{}.make_system(sc.n, sc.seed));
  Bytes forged_resp;
  if (attack == SmrAttack::kForgedCheckpoint) {
    // "Certified" by every key the attack controls — ≤ f of them in a
    // sound cell.
    std::vector<const crypto::Signer*> coalition;
    for (std::uint32_t a : attackers) {
      coalition.push_back(keys->signers[a].get());
    }
    forged_resp = forged_state_resp(kForgedClaimSlot, coalition);
  }
  sc.wrap_actor = [attack, attackers, keys, forged_resp, phantoms, n = sc.n,
                   burn_ahead = sc.window + kBurnPastWindow,
                   seed = sc.seed](ProcessId id,
                                   std::unique_ptr<sim::Actor> inner)
      -> std::unique_ptr<sim::Actor> {
    if (attackers.count(id.value) == 0) return inner;
    return std::make_unique<SmrAttacker>(
        std::move(inner), attack, n, keys->signers[id.value].get(),
        forged_resp, phantoms, burn_ahead,
        seed ^ (0x9e3779b97f4a7c15ull * (id.value + 1)));
  };
}

namespace {

/// Judges a finished run by the one cell rule.  `expected` overrides the
/// quorum store in the store audit.
CellOutcome judge(std::string name, const faults::SmrScenarioConfig& sc,
                  const faults::SmrScenarioResult& r,
                  const std::map<std::string, std::string>* expected =
                      nullptr) {
  std::set<std::uint32_t> restarted;
  for (const faults::CrashSpec& c : sc.crashes) restarted.insert(c.who.value);
  const bool recovered =
      std::all_of(restarted.begin(), restarted.end(),
                  [&](std::uint32_t id) { return r.recovered.count(id) > 0; });
  std::vector<Violation> stores =
      audit_recovered_stores(r, restarted, 2 * sc.f + 1, expected);
  std::vector<Violation> replies = audit_client_replies(r);

  CellOutcome cell;
  cell.attack = std::move(name);
  cell.substrate = sc.substrate;
  cell.seed = sc.seed;
  cell.checks = {
      {"clean", r.clean},
      {"all_committed", r.all_committed},
      {"stores_agree", r.stores_agree},
      {"clients_done", r.clients_done.size() == kClients},
      {"recovered", recovered},
      {"store_audit", stores.empty()},
      {"reply_audit", replies.empty()},
  };
  cell.violations = std::move(stores);
  cell.violations.insert(cell.violations.end(), replies.begin(),
                         replies.end());
  return cell;
}

}  // namespace

const std::vector<SmrAttackEntry>& smr_attack_catalog() {
  static const std::vector<SmrAttackEntry> catalog = {
      {SmrAttack::kNone, "smr-none", "control",
       "p3 killed and restarted under client load, no attacker"},
      {SmrAttack::kForgedCheckpoint, "forged-checkpoint",
       "corrupted certificate",
       "votes for a fabricated checkpoint digest and answers STATE_REQs "
       "with a fabricated snapshot"},
      {SmrAttack::kCorruptStateResp, "corrupt-state-resp", "wire corruption",
       "overwrites a random byte window of every STATE_RESP"},
      {SmrAttack::kDropReplies, "drop-replies", "muteness",
       "swallows every REPLY it owes a client"},
      {SmrAttack::kDelayReplies, "delay-replies", "muteness",
       "holds REPLYs three deep, releasing one per event"},
      {SmrAttack::kForgeReplies, "forge-replies", "value corruption",
       "corrupts the value and slot of every REPLY"},
      {SmrAttack::kForgeBodies, "forge-bodies", "value corruption",
       "corrupts relayed command bodies under the client's signature"},
      {SmrAttack::kPhantomIds, "phantom-ids", "spurious statement",
       "proposes fabricated client ids in its signed INITs"},
      {SmrAttack::kBurnLog, "burn-log", "spurious statement",
       "sends junk envelopes for the next W + 8 slots with every "
       "consensus frame"},
  };
  return catalog;
}

std::optional<SmrAttack> find_smr_attack(const std::string& name) {
  for (const SmrAttackEntry& e : smr_attack_catalog()) {
    if (name == e.name) return e.kind;
  }
  return std::nullopt;
}

bool smr_cell_fits(std::uint32_t n, std::uint32_t f) {
  return f >= 1 && n >= 3 * f + 1;
}

crypto::Digest forged_checkpoint_digest(std::uint64_t slot) {
  Writer w;
  w.str("forged-ckpt");
  w.u64(slot);
  return crypto::sha256(std::move(w).take());
}

Bytes forged_state_resp(
    std::uint64_t claim_slot,
    const std::vector<const crypto::Signer*>& coalition) {
  smr::Snapshot fake;
  fake.slot = claim_slot;
  fake.applied = claim_slot;
  fake.data = {{"forged", "state"}};

  smr::StateResp resp;
  resp.ckpt_slot = claim_slot;
  resp.snapshot = smr::encode_snapshot(fake);
  const crypto::Digest digest = smr::snapshot_digest(resp.snapshot);
  const Bytes preimage = bft::checkpoint_signing_bytes(claim_slot, digest);
  for (const crypto::Signer* signer : coalition) {
    resp.cert_sigs.emplace_back(signer->id().value, signer->sign(preimage));
  }
  return smr::encode_control_state_resp(resp);
}

SmrCellOutcome run_smr_cell(std::uint32_t n, std::uint32_t f,
                            SmrAttack attack, runtime::Backend substrate,
                            std::uint64_t seed,
                            std::chrono::milliseconds budget) {
  faults::SmrScenarioConfig sc = make_scenario(n, f, substrate, seed, budget);
  // burn-log's junk convicts the attacker in every slot it lands in, so
  // the attacker takes no part in consensus and uses up the one fault
  // n = 3f + 1 tolerates; p3's outage on top would be a second one.
  if (attack == SmrAttack::kBurnLog) sc.crashes.clear();
  arm_smr_attack(sc, attack, {kAttacker});
  SmrCellOutcome out;
  out.result = faults::run_smr_scenario(sc);
  out.cell = judge(smr_attack_catalog()[static_cast<std::size_t>(attack)].name,
                   sc, out.result);
  return out;
}

// ----------------------------------------------------------------- audits

std::vector<Violation> audit_recovered_stores(
    const faults::SmrScenarioResult& result,
    const std::set<std::uint32_t>& restarted, std::uint32_t quorum,
    const std::map<std::string, std::string>* expected) {
  std::vector<Violation> out;
  if (restarted.empty()) return out;

  // Reference store: supplied baseline, or the store the largest set of
  // correct replicas agrees on (the recovered replica votes too — with a
  // victim down and ≤ f attackers, the survivors alone may be < quorum).
  const std::map<std::string, std::string>* ref = expected;
  std::size_t support = 0;
  if (ref == nullptr) {
    for (const auto& [id, store] : result.stores) {
      std::size_t count = 0;
      for (const auto& [other_id, other] : result.stores) {
        if (other == store) ++count;
      }
      if (count > support) {
        support = count;
        ref = &store;
      }
    }
    if (ref == nullptr || support < quorum) {
      out.push_back({ViolationKind::kRecoveredStoreMismatch,
                     "no store is shared by a correct quorum (best support " +
                         std::to_string(support) + " < " +
                         std::to_string(quorum) + ")"});
      return out;
    }
  }

  for (std::uint32_t id : restarted) {
    const auto it = result.stores.find(id);
    if (it == result.stores.end()) continue;  // not a correct replica
    if (result.recovered.count(id) == 0) {
      out.push_back({ViolationKind::kRecoveredStoreMismatch,
                     render_who(id) +
                         " restarted but never installed verified state"});
      continue;
    }
    if (it->second != *ref) {
      out.push_back({ViolationKind::kRecoveredStoreMismatch,
                     render_who(id) + " recovered with " +
                         std::to_string(it->second.size()) +
                         " keys differing from the quorum store (" +
                         std::to_string(ref->size()) + " keys)"});
    }
  }
  return out;
}

std::vector<Violation> audit_client_replies(
    const faults::SmrScenarioResult& result) {
  std::vector<Violation> out;
  if (result.commit_log_duplicates > 0) {
    out.push_back({ViolationKind::kClientReplyMismatch,
                   "witness replica applied " +
                       std::to_string(result.commit_log_duplicates) +
                       " command(s) more than once"});
  }
  for (const auto& [pid, replies] : result.client_accepted) {
    for (const client::AcceptedReply& ar : replies) {
      if (smr::client_of_cmd(ar.cmd_id) != pid) {
        out.push_back({ViolationKind::kClientReplyMismatch,
                       render_who(pid) + " accepted " + render_cmd(ar.cmd_id) +
                           " which belongs to another client"});
        continue;
      }
      // With no witness there is no log to check the reply against.
      if (!result.commit_log_kept) continue;
      const auto it = result.commit_log.find(ar.cmd_id);
      if (it == result.commit_log.end()) {
        out.push_back({ViolationKind::kClientReplyMismatch,
                       render_who(pid) + " accepted " + render_cmd(ar.cmd_id) +
                           " which the witness never committed"});
        continue;
      }
      const auto& [slot, cmd] = it->second;
      if (ar.slot != slot) {
        out.push_back({ViolationKind::kClientReplyMismatch,
                       render_who(pid) + " accepted " + render_cmd(ar.cmd_id) +
                           " at slot " + std::to_string(ar.slot) +
                           " but it committed at slot " +
                           std::to_string(slot)});
      }
      if (ar.op != cmd.op || ar.key != cmd.key || ar.value != cmd.value) {
        out.push_back({ViolationKind::kClientReplyMismatch,
                       render_who(pid) + " accepted " + render_cmd(ar.cmd_id) +
                           " with content differing from the committed " +
                           "command (key '" + ar.key + "' vs '" + cmd.key +
                           "', value '" + ar.value + "' vs '" + cmd.value +
                           "')"});
      }
    }
  }
  return out;
}

// --------------------------------------------------------------- controls

const char* smr_control_name(SmrControl control) {
  return kControls[static_cast<std::size_t>(control)].name;
}

SmrCellOutcome run_smr_control(SmrControl control, std::uint32_t n,
                               std::uint32_t f, std::uint64_t seed) {
  const std::chrono::milliseconds budget{20'000};
  faults::SmrScenarioConfig sc =
      make_scenario(n, f, runtime::Backend::kSim, seed, budget);
  std::set<std::uint32_t> everyone;
  for (std::uint32_t i = 0; i < n; ++i) everyone.insert(i);

  std::optional<SmrCellOutcome> honest;
  switch (control) {
    case SmrControl::kUnverifiedInstall: {
      // The honest baseline of the same cell is the ground truth: every
      // peer lies in the forged run, so no in-run quorum exists to vote.
      honest = run_smr_cell(n, f, SmrAttack::kNone, runtime::Backend::kSim,
                            seed, budget);
      std::set<std::uint32_t> peers = everyone;
      peers.erase(kVictim);
      sc.recovery_trust_unverified = true;
      arm_smr_attack(sc, SmrAttack::kForgedCheckpoint, peers);
      break;
    }
    // The two client controls run without the crash: the planted
    // violation must be attributable to the forgery alone.
    case SmrControl::kTrustFirstReply:
      sc.crashes.clear();
      sc.clients->trust_first_reply = true;
      arm_smr_attack(sc, SmrAttack::kForgeReplies, everyone);
      break;
    case SmrControl::kUnauthenticatedBodies:
      // The corrupted body wins first-write-wins ingest on every honest
      // replica and the wedged client retries forever, so cap the clock
      // well below the default to fail fast.
      sc.crashes.clear();
      sc.clients->authenticate = false;
      sc.max_time = 30'000'000;
      arm_smr_attack(sc, SmrAttack::kForgeBodies, {kAttacker});
      break;
  }

  SmrCellOutcome out;
  out.result = faults::run_smr_scenario(sc);
  out.cell = judge(smr_control_name(control), sc, out.result,
                   honest ? &honest->result.store : nullptr);
  return out;
}

bool control_flagged(SmrControl control, const CellOutcome& cell) {
  const std::vector<std::string> failed = cell.failed_checks();
  return std::find(failed.begin(), failed.end(),
                   kControls[static_cast<std::size_t>(control)].trips) !=
         failed.end();
}

}  // namespace modubft::adversary
