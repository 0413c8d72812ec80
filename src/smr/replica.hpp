// State-machine replication on top of repeated consensus instances.
//
// The paper motivates consensus as "a fundamental paradigm for
// fault-tolerant distributed systems"; this layer is the canonical
// downstream use.  Each replica runs a sequence of consensus instances
// (slots), multiplexed over the replica's single channel with an
// instance-tag envelope; each instance is a fresh protocol actor behind a
// sub-context that re-routes sends, timers, and the actor's stop() (which
// must end the instance, not the replica).
//
// Pipelining.  Up to `window` slots run concurrently: the replica keeps a
// sliding window of live instances [commit frontier, frontier + W).
// Instances may decide in any order; decisions park in a reorder buffer
// and are applied to the KvStore strictly in slot order when the frontier
// reaches them, so the store never observes out-of-order commits.
// Envelopes for slots beyond the window are buffered (bounded per sender
// and slot, and bounded in horizon) and replayed when the slot starts;
// envelopes for committed slots are stale and dropped.
//
// The log has no fixed length.  A slot starts only when the replica has
// something to propose or a peer already started it (its envelopes are
// buffered), so an idle replica runs no slot; and a replica never stops
// itself — whoever runs it decides when the run is over.
//
// Batching.  A slot commits up to `batch` commands.  Proposals remain a
// single command id (the consensus value type is untouched), acting as an
// anchor: at commit time — and only then, when every correct replica has
// the identical committed set — a real (non-zero, known) anchor releases
// the `batch` smallest still-pending command ids, applied in increasing
// id order.  The batch-assembly rule is a deterministic function of
// (decided value, committed set), so all correct replicas commit
// identical batches; and since batches always drain the smallest pending
// ids in order, the store's application order is the same increasing id
// order for *any* (window, batch) configuration — pipelined and
// sequential runs produce bit-identical stores.
//
// Two protocol back-ends are supported: the crash-model Hurfin–Raynal
// actor, and the transformed Byzantine protocol.  A slot's decision is
// kept as one list of decided ids (the crash value, or the non-null
// entries of the decided vector), so the commit rules never branch on
// the back-end; any known non-zero id in it is an anchor.  The Byzantine
// back-end builds one verified-signature cache per replica life and hands
// it to every slot and both units, so the certificate fast path compounds
// across the pipeline.  Every signature is checked on the replica's own
// thread, in the slot actor's signature and certification modules: a
// delivery batch is dispatched message by message, in arrival order, by
// the base sim::Actor::on_batch.
//
// Failure detection.  The crash back-end builds one ◇M detector per
// replica life (fd/muteness_fd.hpp): every frame a replica sends this one,
// consensus or control, feeds it, and every Hurfin–Raynal slot reads it.
// It is paused while the replica runs no slot, and nobody hands a replica
// the crash schedule.  The Byzantine back-end's slots each run their own
// ◇M inside the transformed protocol.
//
// The replica is the slot pipeline.  Three units it owns run the rest,
// and none of them reads another's state:
//   CommandTable   — each command's state (bodies, committed set,
//                    pending index, proposal claims);
//   ClientService  — the client request path, control kinds 4–10 and the
//                    client commit rule (only with clients configured);
//   Checkpointer   — certified checkpoints, log compaction and state
//                    transfer, control kinds 1–3 (only with a checkpoint
//                    interval).
// The replica routes each control frame to its unit and applies what the
// unit returns: a commit batch or a parked frontier, an installable
// snapshot or a quorum-agreed suffix batch.
//
// Addressing.  The paper broadcasts to Π, the replicas.  A client run's
// world also holds the clients (process ids n and up), so a replica never
// calls Context::broadcast: the slot pipeline and both units send every
// replica-bound frame through send_to_replicas.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "bft/bft_consensus.hpp"
#include "common/metrics.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "crypto/signature.hpp"
#include "crypto/verify_cache.hpp"
#include "fd/muteness_fd.hpp"
#include "sim/actor.hpp"
#include "smr/checkpointer.hpp"
#include "smr/client_service.hpp"
#include "smr/command_table.hpp"
#include "smr/kv_store.hpp"

namespace modubft::smr {

enum class Backend { kCrashHurfinRaynal, kByzantine };

/// Buffering horizon for early envelopes: slots at distance
/// ≥ window + kMaxFutureSlots from the commit frontier are dropped
/// (counted in PipelineStats::future_dropped).  Bounds Byzantine flooding
/// of far-future slots.
inline constexpr std::uint32_t kMaxFutureSlots = 32;

/// Early envelopes buffered per (slot, sender); the sender's further ones
/// for that slot are dropped.  Counted per sender, so a flooder fills only
/// its own share and a correct peer's envelopes still park.  A correct
/// replica was seen to park at most 3 (docs/SMR.md has the measurement
/// and the memory bound).
inline constexpr std::uint32_t kMaxFuturePerSender = 64;

/// Sends `frame` to replicas [0, n), this one included.
void send_to_replicas(sim::Context& ctx, std::uint32_t n, const Bytes& frame);

struct ReplicaConfig {
  std::uint32_t n = 0;
  Backend backend = Backend::kCrashHurfinRaynal;

  /// Pipeline window: maximum number of concurrently live instances.
  /// 1 reproduces the strictly sequential pre-pipelining behaviour.
  std::uint32_t window = 1;

  /// Maximum commands committed per slot (see the batching rule above).
  std::uint32_t batch = 1;

  /// Base delay of the retry timers: the recovery catch-up timer (doubles
  /// per silent retry, capped at 16x) and the missing-body fetch.  Both
  /// re-ask peers for state known to exist somewhere.
  SimTime retry_delay = 20'000;

  // Byzantine back-end.
  bft::BftConfig bft;
  const crypto::Signer* signer = nullptr;
  std::shared_ptr<const crypto::Verifier> verifier;

  /// Checkpoints, log compaction and state transfer.  When
  /// checkpoint.interval > 0, signer and verifier are required for BOTH
  /// backends (checkpoint votes are signed even under the crash model —
  /// the certificate must be verifiable by a recovering replica that
  /// trusts nobody).
  CheckpointConfig checkpoint;

  /// Client/service layer (docs/CLIENT.md).  num_clients > 0 gives the
  /// replica a ClientService: the client control frames are spoken, the
  /// commit rule becomes the decided-vector rule (every non-committed
  /// eligible client id decided, smallest id first — a pure function of
  /// the decision and the committed set, sound under dynamic command
  /// arrival, where the static "B smallest pending" rule is not), proposal
  /// claims narrow to one id per slot so window-W slots carry disjoint
  /// proposals.  The client commit rule commits client command ids only,
  /// so a preloaded workload never commits next to clients.
  ClientServiceConfig client;
};

/// Pipeline observability, surfaced through runtime::RunStats.  The
/// kWitness tallies agree on every correct replica that ran the whole run;
/// a restarted replica counts only its own life.
struct PipelineStats {
  std::uint64_t slots_committed = 0;
  std::uint64_t commands_committed = 0;
  std::uint64_t noop_slots = 0;     // slots that released no command
  std::uint64_t max_batch = 0;      // largest committed batch
  std::uint64_t window_peak = 0;    // most slots live at once
  /// Occupancy integral: live-slot count sampled at every slot start.
  /// Not a run counter: the two feed RunStats' avg_window.
  std::uint64_t window_occupancy_sum = 0;
  std::uint64_t window_samples = 0;
  std::uint64_t future_buffered = 0;  // early envelopes parked
  std::uint64_t future_dropped = 0;   // beyond horizon or sender cap
  std::uint64_t stale_dropped = 0;    // post-commit stragglers

  // The Checkpointer's counters (all zero when checkpointing is off).
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_certs = 0;  // quorum certificates formed
  std::uint64_t log_truncated = 0;     // slots compacted out of the log
  std::uint64_t log_peak = 0;          // most committed-log slots retained
  std::uint64_t state_reqs = 0;        // STATE_REQs broadcast (recoverer)
  std::uint64_t state_resps = 0;       // STATE_RESPs served (responder)
  std::uint64_t recovery_installs = 0;  // verified snapshots installed
  std::uint64_t recovery_rejects = 0;   // corrupt/unverifiable control msgs
  /// Not run counters: the two feed RunStats' recovery_us.
  SimTime recovery_start_us = 0;  // restart instant (ctx.now at on_start)
  SimTime recovery_join_us = 0;   // first verified state accepted

  using Self = PipelineStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"slots_committed", &Self::slots_committed, metrics::kWitness},
      {"commands_committed", &Self::commands_committed, metrics::kWitness},
      {"noop_slots", &Self::noop_slots, metrics::kWitness},
      {"max_batch", &Self::max_batch, metrics::kWitness},
      {"window_peak", &Self::window_peak, metrics::kMax},
      {"future_buffered", &Self::future_buffered, metrics::kSum},
      {"future_dropped", &Self::future_dropped, metrics::kSum},
      {"stale_dropped", &Self::stale_dropped, metrics::kSum},
      {"checkpoints_taken", &Self::checkpoints_taken, metrics::kWitness},
      {"checkpoint_certs", &Self::checkpoint_certs, metrics::kWitness},
      {"log_truncated", &Self::log_truncated, metrics::kSum},
      {"log_peak", &Self::log_peak, metrics::kMax},
      {"state_reqs", &Self::state_reqs, metrics::kSum},
      {"state_resps", &Self::state_resps, metrics::kSum},
      {"recovery_installs", &Self::recovery_installs, metrics::kSum},
      {"recovery_rejects", &Self::recovery_rejects, metrics::kSum},
  };
};

/// Invoked on every commit: (slot, command applied — nullptr for a no-op
/// slot, state after application).  A slot committing a batch of k
/// commands invokes the callback k times with the same slot, in
/// application (increasing id) order.
using CommitFn =
    std::function<void(InstanceId, const Command*, const KvStore&)>;

class Replica final : public sim::Actor {
 public:
  /// `workload` is the command table known to this replica (the harness
  /// plays the role of the clients' reliable multicast).
  Replica(ReplicaConfig config, std::vector<Command> workload,
          CommitFn on_commit);
  // The slot actors' decide callbacks and the units hold this replica's
  // members by address.
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override;
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override;

  const KvStore& store() const { return store_; }
  std::uint64_t committed_slots() const { return next_commit_; }

  /// The commands applied, as of the last commit or snapshot install.
  /// Safe to read from another thread while the replica runs (the
  /// scenario runner's end condition does).
  std::uint64_t live_applied() const {
    return live_applied_.load(std::memory_order_acquire);
  }

  const PipelineStats& pipeline_stats() const { return pstats_; }

  /// The verified-signature cache this life shares across its slots and
  /// units (Byzantine back-end), else nullptr.
  const crypto::CachingVerifier* verify_cache() const {
    return vcache_.get();
  }

  /// True while a recovering replica has not yet accepted a verified
  /// STATE_RESP (it drops consensus traffic in that window).
  bool recovering() const { return ckpt_ != nullptr && ckpt_->recovering(); }

  /// Client-service counters (all zero without clients).
  const ClientServiceStats& client_service_stats() const;

 private:
  class SlotContext;

  /// One in-flight (or decided-but-uncommitted) consensus instance.
  struct Slot {
    std::unique_ptr<sim::Actor> actor;  // released once decided
    bool decided = false;
    /// The decision as one list of decided ids: the crash value, or the
    /// non-null entries of the decided vector.
    std::vector<std::uint64_t> ids;
  };

  /// Drives the pipeline to a fixpoint: commits the decided prefix in
  /// slot order, releases decided actors and refills the window
  /// (replaying buffered envelopes).  Called after every dispatch into an
  /// instance.
  void pump(sim::Context& ctx);
  bool fill_window(sim::Context& ctx);
  /// Returns false when the frontier slot is parked awaiting command
  /// bodies (clients only); pump stops and CMD_FETCH drives retry.
  bool commit_slot(sim::Context& ctx, const Slot& st);
  std::unique_ptr<sim::Actor> make_instance_actor(std::uint64_t slot);
  /// Parks a slot's decision in the reorder buffer (first one wins).
  void decide(std::uint64_t slot, std::vector<std::uint64_t> ids);
  /// Moves the commit frontier to `slot`: retires the slots, early
  /// envelopes, proposal claims and timer routes below it, and publishes
  /// the new progress (live_applied).
  void advance_frontier(std::uint64_t slot);
  std::uint64_t buffer_horizon() const {
    return next_commit_ + config_.window + kMaxFutureSlots;
  }
  /// Applies one committed batch (shared by consensus commit and suffix
  /// replay) and advances the frontier by one slot.
  void apply_committed_batch(sim::Context& ctx,
                             const std::vector<std::uint64_t>& ids);

  /// Hands a control frame to the unit owning its kind and applies what
  /// the unit returns.
  void route_control(sim::Context& ctx, ProcessId from, const Bytes& inner);
  /// Hands the checkpointer this replica's snapshot when the frontier sits
  /// on a checkpoint boundary it has not voted on.
  void maybe_checkpoint(sim::Context& ctx);
  /// Installs what recovery offers (a verified snapshot, then quorum-agreed
  /// suffix batches, strictly in order) and leaves recovery mode on first
  /// success.
  void advance_recovery(sim::Context& ctx);
  /// Re-drives a parked frontier or suffix replay after new facts landed
  /// (a body, a seq bound).  Inert while still recovering: the replica
  /// would otherwise mark itself rejoined with no installed state.
  void resume(sim::Context& ctx);

  ReplicaConfig config_;
  /// Bodies, signatures, the committed set, the pending index and the
  /// proposal claims (smr/command_table.hpp).
  CommandTable table_;
  CommitFn on_commit_;

  KvStore store_;
  std::uint64_t next_commit_ = 0;  // commit frontier (first uncommitted)
  std::uint64_t next_start_ = 0;   // first not-yet-started slot
  std::map<std::uint64_t, Slot> slots_;  // window + reorder buffer
  std::map<std::uint64_t, std::uint64_t> timer_slot_;  // timer id → slot
  // Buffered envelopes for not-yet-started slots (bounded; see
  // kMaxFutureSlots and kMaxFuturePerSender).
  std::map<std::uint64_t, std::vector<std::pair<ProcessId, Bytes>>> future_;
  // Byzantine back-end: one verification cache for this life's slot
  // instances and units.
  std::shared_ptr<crypto::CachingVerifier> vcache_;
  // Crash back-end: this life's ◇M, built in on_start (it needs our id).
  std::shared_ptr<fd::MutenessDetector> detector_;
  PipelineStats pstats_;
  std::atomic<std::uint64_t> live_applied_{0};

  std::unique_ptr<ClientService> client_;  // with clients configured
  std::unique_ptr<Checkpointer> ckpt_;     // with a checkpoint interval
};

}  // namespace modubft::smr
