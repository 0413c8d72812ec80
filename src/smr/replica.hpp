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
// the back-end; any known non-zero id in it is an anchor.  The command
// bookkeeping lives in CommandTable.  The Byzantine back-end shares one
// verified-signature cache across all of the replica's slots (and a
// crypto::VerifyPool across replicas, when configured), so the PR 2 fast
// path compounds across the pipeline.
#pragma once

#include <functional>
#include <set>
#include <map>
#include <memory>
#include <vector>

#include "bft/bft_consensus.hpp"
#include "common/metrics.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "crypto/signature.hpp"
#include "crypto/verify_cache.hpp"
#include "fd/failure_detector.hpp"
#include "sim/actor.hpp"
#include "smr/checkpoint.hpp"
#include "smr/client_table.hpp"
#include "smr/command_table.hpp"
#include "smr/kv_store.hpp"
#include "smr/recovery.hpp"

namespace modubft::smr {

enum class Backend { kCrashHurfinRaynal, kByzantine };

/// Checkpointing + recovery knobs.  interval == 0 disables the whole
/// subsystem: no control frames are sent or accepted, and the wire
/// traffic is byte-identical to a pre-recovery build.
struct CheckpointConfig {
  /// Take a checkpoint every `interval` committed slots (and always at
  /// the end of the log).  0 = off.
  std::uint64_t interval = 0;

  /// Start in recovery: the replica owns no state, broadcasts STATE_REQ,
  /// and only joins the window after installing a verified response.
  bool recover = false;

  /// Negative-control switch (adversary harness only): install the first
  /// response without verification.
  bool trust_unverified = false;
};

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

struct ReplicaConfig {
  std::uint32_t n = 0;
  Backend backend = Backend::kCrashHurfinRaynal;
  std::uint64_t slots = 4;  // how many consensus instances to run

  /// Pipeline window: maximum number of concurrently live instances.
  /// 1 reproduces the strictly sequential pre-pipelining behaviour.
  std::uint32_t window = 1;

  /// Maximum commands committed per slot (see the batching rule above).
  std::uint32_t batch = 1;

  /// Base delay of the retry timers: the recovery catch-up timer (doubles
  /// per silent retry, capped at 16x) and the missing-body fetch.  Both
  /// re-ask peers for state known to exist somewhere.
  SimTime retry_delay = 20'000;

  // Crash back-end.
  std::shared_ptr<fd::CrashDetector> detector;

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

  /// Staged ingest (Byzantine back-end only; docs/INGEST.md).  When true
  /// AND the back-end has both a verify pool with workers and the shared
  /// verified-signature cache, Replica::on_batch runs a parallel PROLOGUE
  /// over a multi-frame delivery batch — it decodes every frame into a
  /// private copy and pre-verifies its signatures (top-level and
  /// certificate members) through the shared CachingVerifier on the
  /// pool's workers — before the ordinary sequential dispatch, which then
  /// hits the warm cache instead of running signature arithmetic
  /// serially.  The prologue has no protocol effects, so the replica's
  /// egress is frame-for-frame identical either way.  Off by default (the
  /// deterministic simulator configuration); the scenario runner enables
  /// it on the wall-clock substrates.
  bool staged_ingest = false;

  /// Replicas whose end-of-log checkpoint votes this replica must hear
  /// before stopping (itself excluded implicitly).  Keeps finished
  /// replicas alive to serve state transfer to late recoverers; empty =
  /// stop as soon as the log commits (the pre-recovery behaviour).  Only
  /// honoured when checkpointing is on.
  std::set<std::uint32_t> await_done;

  /// Client/service layer (docs/CLIENT.md).  num_clients > 0 switches the
  /// replica into client mode: REQUEST/REPLY/BUSY/CMD_RELAY/CMD_FETCH/
  /// CLIENT_DONE control frames are spoken, the commit rule becomes the
  /// decided-vector rule (every non-committed decided entry, smallest id
  /// first — a pure function of the decision and the committed set, sound
  /// under dynamic command arrival, where the static "B smallest pending"
  /// rule is not), proposal claims narrow to one id per slot so window-W
  /// slots carry disjoint proposals, and slots only start when there is
  /// something to propose (or a peer already started them, or every
  /// client announced DONE — the drain phase that no-ops the rest of the
  /// log so the PR 6 end-of-log machinery applies unchanged).
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

  // Checkpoint / recovery counters (all zero when checkpointing is off).
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

/// Staged-ingest observability (surfaced through runtime::RunStats as the
/// ingest_* keys).  All zero when staged ingest is off or the substrate
/// never delivered a multi-frame batch.
struct IngestStats {
  std::uint64_t batches = 0;          ///< staged on_batch dispatches
  std::uint64_t batch_messages = 0;   ///< frames delivered through them
  std::uint64_t max_batch = 0;        ///< largest single dispatch
  std::uint64_t prologue_frames = 0;  ///< frames the prologue recognized
  std::uint64_t prologue_jobs = 0;    ///< decode+warm jobs run on the pool

  using Self = IngestStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"ingest_batches", &Self::batches, metrics::kSum},
      {"ingest_batch_messages", &Self::batch_messages, metrics::kSum},
      {"ingest_max_batch", &Self::max_batch, metrics::kMax},
      {"ingest_prologue_frames", &Self::prologue_frames, metrics::kSum},
      {"ingest_prologue_jobs", &Self::prologue_jobs, metrics::kSum},
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

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override;
  /// Staged dispatch of a delivery batch (see
  /// ReplicaConfig::staged_ingest): the parallel decode+verify prologue
  /// when it applies, then the base class's sequential loop — message for
  /// message, in arrival order — either way.
  void on_batch(sim::Context& ctx,
                std::vector<sim::Incoming>& batch) override;
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override;

  const KvStore& store() const { return store_; }
  std::uint64_t committed_slots() const { return next_commit_; }
  bool done() const { return next_commit_ >= config_.slots; }

  const PipelineStats& pipeline_stats() const { return pstats_; }

  /// Staged-ingest counters (all zero when staged ingest never engaged).
  const IngestStats& ingest_stats() const { return istats_; }

  /// The verified-signature cache shared across this replica's slots
  /// (Byzantine back-end with verify_cache on), else nullptr.
  const crypto::CachingVerifier* verify_cache() const {
    return vcache_.get();
  }

  /// True while a recovering replica has not yet accepted a verified
  /// STATE_RESP (it drops consensus traffic in that window).
  bool recovering() const { return recovering_; }

  /// Committed-slot log entries currently retained (compaction bound).
  std::uint64_t committed_log_size() const { return slot_log_.size(); }

  /// Latest certified checkpoint, if one has formed.
  const std::optional<bft::CheckpointCert>& latest_cert() const {
    return latest_cert_;
  }

  /// True iff the client/service layer is active (see ClientServiceConfig).
  bool client_mode() const { return config_.client.num_clients > 0; }

  /// Client-service counters (all zero outside client mode).
  const ClientServiceStats& client_service_stats() const { return cstats_; }

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
  /// slot order, releases decided actors, refills the window (replaying
  /// buffered envelopes), and stops the replica when all slots committed.
  /// Called after every dispatch into an instance.
  void pump(sim::Context& ctx);
  bool fill_window(sim::Context& ctx);
  /// Returns false when the frontier slot is parked awaiting command
  /// bodies (client mode only); pump stops and CMD_FETCH drives retry.
  bool commit_slot(sim::Context& ctx, const Slot& st);
  std::unique_ptr<sim::Actor> make_instance_actor(std::uint64_t slot);
  /// Parks a slot's decision in the reorder buffer (first one wins).
  void decide(std::uint64_t slot, std::vector<std::uint64_t> ids);
  /// Moves the commit frontier to `slot`: retires the slots, early
  /// envelopes, proposal claims and timer routes below it.
  void advance_frontier(std::uint64_t slot);
  std::uint64_t buffer_horizon() const {
    return next_commit_ + config_.window + kMaxFutureSlots;
  }
  /// Verifies `signer`'s signature through the shared verify cache when
  /// present.
  bool verify(ProcessId signer, const Bytes& preimage, const Bytes& sig) const;

  // --- staged ingest (inert unless ReplicaConfig::staged_ingest) ---
  /// True iff on_batch may run the prologue right now.
  bool staging_ready() const;
  /// Parallel prologue: decode private copies of the batch's consensus
  /// frames and warm the shared verify cache through the pool.
  void ingest_prologue(const std::vector<sim::Incoming>& batch);

  // --- checkpointing / recovery (all no-ops when interval == 0) ---
  bool checkpointing() const { return config_.checkpoint.interval > 0; }
  /// Signatures a checkpoint certificate needs: 2f+1 (Byzantine) or a
  /// simple majority (crash).
  std::uint32_t cert_quorum() const;
  /// Matching responders per replayed suffix slot: f+1 (Byzantine) or 1
  /// (crash).
  std::uint32_t suffix_quorum() const;
  /// Applies one committed batch (shared by consensus commit and suffix
  /// replay) and advances the frontier by one slot.
  void apply_committed_batch(sim::Context& ctx,
                             const std::vector<std::uint64_t>& ids);
  /// Takes + broadcasts a checkpoint vote if the frontier is on an
  /// interval boundary (or the end of the log).
  void maybe_checkpoint(sim::Context& ctx);
  void handle_control(sim::Context& ctx, ProcessId from, const Bytes& inner);
  void handle_vote(sim::Context& ctx, ProcessId from, Reader& r);
  void handle_state_req(sim::Context& ctx, ProcessId from, Reader& r);
  void try_certify(std::uint64_t slot);
  void request_state(sim::Context& ctx);
  /// Installs verified recovered state (snapshot and/or quorumed suffix
  /// batches) and leaves recovery mode on first success.
  void advance_recovery(sim::Context& ctx);
  /// Re-drives a parked frontier or suffix replay after new facts landed
  /// (a body, a seq bound).  Inert while still recovering: the replica
  /// would otherwise mark itself rejoined with no installed state.
  void resume(sim::Context& ctx);
  /// Stops the replica when done AND every awaited peer announced done
  /// (their end-of-log checkpoint vote doubles as the announcement).
  void maybe_stop(sim::Context& ctx);

  // --- client service (all no-ops when client.num_clients == 0) ---
  bool is_client(std::uint32_t pid) const {
    return pid >= config_.n && pid < config_.n + config_.client.num_clients;
  }
  /// Deterministic id-space filter for decided entries: a plausible
  /// client command id names a configured client and a non-zero 32-bit
  /// seq.  Entries outside both this space and the preloaded command
  /// table are skipped identically by every correct replica (a forged id
  /// cannot stall the frontier).
  bool plausible_client_id(std::uint64_t id) const {
    const std::uint64_t seq = seq_of_cmd(id);
    return is_client(client_of_cmd(id)) && seq >= 1;
  }
  /// Commit-eligibility of a plausible client id, INDEPENDENT of local
  /// body knowledge (a body-dependent rule would diverge across replicas):
  /// the seq must sit within seq_window of the client's committed-seq
  /// count and must not be refuted by a verified seq bound.  Both inputs
  /// are either replicated state (the committed set) or stable verified
  /// facts that CMD_FETCH equalises across replicas, so every correct
  /// replica converges on the same verdict for every decided entry.
  bool client_eligible(std::uint64_t id) const;
  /// Checks a command body (REQUEST or CMD_RELAY) before admission: a
  /// configured client, a 32-bit seq ≥ 1 and, when authenticating, the
  /// OWNING CLIENT's signature.  Counts the reject.
  bool check_body(const CmdRelay& body);
  /// Admits a checked body into the command table (charged to `origin`
  /// when a peer relayed it).
  void admit(const CmdRelay& body, std::optional<std::uint32_t> origin);
  /// The rule for a client's signed control frames (CLIENT_DONE,
  /// SEQ_BOUND): a verified signature from any sender when
  /// authenticating, else only the client itself or a replica.  Counts
  /// the reject.
  bool accept_client_frame(ProcessId from, std::uint32_t client,
                           const Bytes& preimage, const Bytes& sig);
  /// Records a verified "never beyond `bound`" fact for a client and
  /// re-pumps: a frontier parked on a now-refuted id becomes committable.
  void record_seq_bound(sim::Context& ctx, std::uint32_t client,
                        std::uint64_t bound, const Bytes& frame);
  void handle_request(sim::Context& ctx, ProcessId from, Reader& r);
  /// Ingests one relayed command body (CMD_RELAY broadcast or a CMD_FETCH
  /// answer — same frame) from replica `from` and resumes any parked
  /// commit or suffix replay.  Authenticates the body and enforces the
  /// per-origin admission bound before storing anything.
  void handle_relay(sim::Context& ctx, ProcessId from, Reader& r);
  void handle_fetch(sim::Context& ctx, ProcessId from, Reader& r);
  void handle_client_done(sim::Context& ctx, ProcessId from, Reader& r);
  void handle_seq_bound(sim::Context& ctx, ProcessId from, Reader& r);
  /// True iff `id` is needed to advance the frontier right now (listed in
  /// the in-flight fetch) — such ids are exempt from capacity drops and
  /// admission sheds, because progress depends on them and their number
  /// is bounded by the batch size.
  bool fetch_needs(std::uint64_t id) const;
  /// Broadcasts CMD_FETCH for missing frontier bodies (deduplicated
  /// against the in-flight fetch) and arms the retry timer.
  void request_bodies(sim::Context& ctx,
                      const std::vector<std::uint64_t>& missing);

  ReplicaConfig config_;
  /// Bodies, signatures, the committed set, the admission queue and the
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
  // Byzantine back-end: one verification cache for every slot instance.
  std::shared_ptr<crypto::CachingVerifier> vcache_;
  PipelineStats pstats_;
  bool stopped_ = false;

  IngestStats istats_;

  // --- checkpointing / recovery state (inert when interval == 0) ---
  /// Committed-slot log: slot → committed ids (empty = no-op slot).
  /// Spans [latest certified checkpoint, frontier); compacted whenever a
  /// new certificate forms.
  std::map<std::uint64_t, std::vector<std::uint64_t>> slot_log_;
  /// Own snapshots awaiting certification: slot → (encoded, digest).
  std::map<std::uint64_t, std::pair<Bytes, crypto::Digest>> pending_ckpts_;
  /// Checkpoint votes: slot → digest → signer → signature.  Digest
  /// variants per slot are capped (a Byzantine voter can invent digests).
  std::map<std::uint64_t,
           std::map<crypto::Digest, std::map<std::uint32_t, Bytes>>>
      votes_;
  std::optional<bft::CheckpointCert> latest_cert_;
  Bytes latest_snapshot_;  // encoded bytes the certificate covers
  std::uint64_t last_ckpt_slot_ = 0;

  // End-of-log coordination: who has announced completion.
  std::set<std::uint32_t> heard_end_;
  Bytes end_vote_frame_;  // our own end-of-log vote, for unicast replies

  // Recovery client state.
  bool recovering_ = false;
  std::unique_ptr<RecoveryModule> recovery_;
  std::uint64_t recovery_timer_ = 0;
  SimTime retry_delay_ = 0;
  std::uint64_t last_seen_frontier_ = 0;

  // --- client service state (inert when client.num_clients == 0) ---
  /// Per-client reply cache: client id → seq → encoded REPLY frame.
  /// Deterministic (a function of the committed log and the cache bound),
  /// so it lives inside the certified snapshot.
  std::map<std::uint32_t, std::map<std::uint64_t, Bytes>> client_table_;
  /// Clients that broadcast CLIENT_DONE; all of them ⇒ drain mode.
  std::set<std::uint32_t> clients_done_;
  bool drain_ = false;
  /// Missing-body fetch in flight (frontier or suffix replay stall).
  std::vector<std::uint64_t> last_fetch_;
  std::uint64_t fetch_timer_ = 0;
  /// Verified seq bounds (client → bound) and the signed frames proving
  /// them, re-served to fetchers parked on refuted ids.
  std::map<std::uint32_t, std::uint64_t> seq_bound_;
  std::map<std::uint32_t, Bytes> bound_frames_;
  ClientServiceStats cstats_;
};

}  // namespace modubft::smr
