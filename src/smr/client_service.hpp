// Replica-side client service: the client request path (docs/CLIENT.md).
//
// Clients are ordinary substrate processes with ids in [n, n +
// num_clients).  A replica with a client service accepts REQUEST control
// frames from them, admits commands into the command table under a hard
// bound (shedding with BUSY beyond it), relays admitted bodies to its
// peers (CMD_RELAY) so every replica can propose and commit them, and
// answers every commit with a REPLY to the owning client.  Exactly-once
// is enforced by the committed-id set — a retried request whose command
// already committed is answered from the per-client reply cache instead
// of being re-admitted — and the cache itself is part of the certified
// snapshot, so the contract survives a crash/restart.
//
// The reply cache keeps each client's seq_window highest committed seqs:
// a deterministic function of (committed log, seq_window), which is what
// lets it live inside the checkpoint digest — correct replicas at the
// same frontier carry byte-identical caches.
//
// ClientService owns control kinds 4–10 (REPLY and BUSY are client-bound),
// the client commit rule, the verified seq bounds and the missing-body
// fetch.  It never drives the replica's pipeline: each frame returns what
// the pipeline should do next, and the commit rule returns a batch or
// parks the frontier.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "crypto/signature.hpp"
#include "sim/actor.hpp"
#include "smr/checkpoint.hpp"
#include "smr/command_table.hpp"

namespace modubft::smr {

struct ReplicaConfig;

/// Knobs for the replica-side client service.  num_clients == 0 disables
/// the whole layer: no client control frames are sent or accepted, and a
/// snapshot's client section stays empty.
struct ClientServiceConfig {
  /// Clients occupy process ids [n, n + num_clients).  0 = off.
  std::uint32_t num_clients = 0;

  /// Direct-admission bound: REQUESTs beyond this many pending (admitted,
  /// not yet committed) client commands are shed with a BUSY frame.  The
  /// deterministic load-shedding that keeps a flooded replica's memory
  /// bounded instead of OOMing.
  std::uint32_t max_pending = 64;

  /// Authenticated mode (Byzantine backend): REQUEST and CMD_RELAY bodies
  /// must carry a valid client signature over the command preimage, and
  /// SEQ_BOUND frames are accepted from any sender when their signature
  /// verifies.  Off under the crash model, where forgery is outside the
  /// fault model and clients carry no keys.
  bool authenticate = false;

  /// Commit-eligibility window: a decided client id (c, s) joins a batch
  /// only when s ≤ committed-seq-count(c) + seq_window, evaluated against
  /// the pre-slot committed state — a deterministic bound on how far
  /// beyond a client's committed history a decided seq may run.  Must be
  /// at least the client's outstanding window (or genuine commands get
  /// deferred, which is safe but slow); it caps how many fabricated
  /// future seqs per client a Byzantine proposer can park the frontier on.
  /// It also sizes the reply cache: each client's seq_window highest
  /// committed seqs.  At most StateLimits{}.max_cached_replies, so every
  /// replica can decode every snapshot.
  std::uint32_t seq_window = 16;
};

/// Client-service observability, surfaced through runtime::RunStats as
/// client_* keys.
struct ClientServiceStats {
  std::uint64_t requests = 0;    ///< REQUEST frames accepted for handling
  std::uint64_t duplicates = 0;  ///< suppressed (committed or in flight)
  std::uint64_t replays = 0;     ///< cached replies re-sent to retriers
  std::uint64_t admitted = 0;    ///< commands admitted into pending
  std::uint64_t sheds = 0;       ///< REQUESTs rejected with BUSY (one each)
  std::uint64_t relays_sent = 0;       ///< CMD_RELAYs sent (admitter)
  std::uint64_t relays_received = 0;   ///< CMD_RELAY bodies ingested
  std::uint64_t relays_dropped = 0;    ///< relayed bodies over capacity
  std::uint64_t fetches_sent = 0;      ///< CMD_FETCHes sent (one per fetch)
  std::uint64_t fetches_served = 0;    ///< bodies answered to fetchers
  std::uint64_t replies_sent = 0;      ///< REPLY frames sent on commit
  std::uint64_t parked_commits = 0;    ///< frontier stalls awaiting bodies
  std::uint64_t rejects = 0;           ///< malformed/out-of-range frames
  std::uint64_t queue_peak = 0;        ///< max pending observed
  std::uint64_t auth_rejects = 0;      ///< bodies/frames with bad client sig
  std::uint64_t ineligible_skips = 0;  ///< decided ids outside window/bound
  std::uint64_t origin_drops = 0;      ///< relays over the per-origin cap
  std::uint64_t bounds_recorded = 0;   ///< verified seq bounds accepted

  // The shed bound is per replica, so the run keeps the largest
  // queue_peak: the number the admission cap must dominate.
  using Self = ClientServiceStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"client_requests", &Self::requests, metrics::kSum},
      {"client_duplicates", &Self::duplicates, metrics::kSum},
      {"client_replays", &Self::replays, metrics::kSum},
      {"client_admitted", &Self::admitted, metrics::kSum},
      {"client_sheds", &Self::sheds, metrics::kSum},
      {"client_relays_sent", &Self::relays_sent, metrics::kSum},
      {"client_relays_received", &Self::relays_received, metrics::kSum},
      {"client_relays_dropped", &Self::relays_dropped, metrics::kSum},
      {"client_fetches_sent", &Self::fetches_sent, metrics::kSum},
      {"client_fetches_served", &Self::fetches_served, metrics::kSum},
      {"client_replies_sent", &Self::replies_sent, metrics::kSum},
      {"client_parked_commits", &Self::parked_commits, metrics::kSum},
      {"client_rejects", &Self::rejects, metrics::kSum},
      {"client_queue_peak", &Self::queue_peak, metrics::kMax},
      {"client_auth_rejects", &Self::auth_rejects, metrics::kSum},
      {"client_ineligible_skips", &Self::ineligible_skips, metrics::kSum},
      {"client_origin_drops", &Self::origin_drops, metrics::kSum},
      {"client_bounds_recorded", &Self::bounds_recorded, metrics::kSum},
  };
};

/// Per-client reply cache: client id → seq → encoded REPLY frame.
using ReplyCache = std::map<std::uint32_t, std::map<std::uint64_t, Bytes>>;

class ClientService {
 public:
  /// What a client frame lets the replica's pipeline do next: nothing,
  /// pump (unless still recovering), or resume a parked commit or suffix
  /// replay.
  enum class Next { kNone, kPump, kResume };

  /// Control kinds 4–8 and 10: REQUEST, CMD_RELAY, CMD_FETCH and
  /// SEQ_BOUND, and the client-bound REPLY and BUSY, which it ignores.
  static bool owns(ControlKind kind) {
    return (kind >= ControlKind::kRequest && kind <= ControlKind::kCmdFetch) ||
           kind == ControlKind::kSeqBound;
  }

  /// Reads the replica's `config` and `table` (which must outlive it);
  /// `verifier` checks client signatures (the replica's shared cache when
  /// it has one).
  ClientService(const ReplicaConfig& config, CommandTable& table,
                const crypto::Verifier* verifier);

  /// Handles one frame of a kind this unit owns; `body` is the bytes
  /// after the kind octet.  Throws SerialError on a malformed body.
  Next on_frame(sim::Context& ctx, ProcessId from, ControlKind kind,
                const Bytes& body);

  /// The client commit rule: every decided id that is not yet committed
  /// and is an eligible client id, in increasing id order.  A pure
  /// function of (decision, committed set, verified seq bounds), so it is
  /// sound under dynamic arrival.  Returns nullopt when a body is missing:
  /// the frontier parks and CMD_FETCH asks peers for it.
  std::optional<std::vector<std::uint64_t>> commit_batch(
      sim::Context& ctx, const std::vector<std::uint64_t>& decided);
  /// True iff every body `ids` needs is held; otherwise fetches the
  /// missing ones and returns false.  The one missing-body rule, for the
  /// frontier commit and the suffix replay alike.
  bool bodies_ready(sim::Context& ctx, const std::vector<std::uint64_t>& ids);
  /// Answers the owning client of a just-committed command and caches the
  /// reply for duplicate replay, evicting the client's lowest cached seq
  /// beyond seq_window.
  void reply(sim::Context& ctx, std::uint64_t slot, const Command& cmd);
  /// Frontier progress retires the in-flight fetch; the armed retry timer
  /// finds nothing to re-ask and disarms itself.
  void retire_fetch() { last_fetch_.clear(); }
  /// Handles the fetch retry timer; false for any other timer.
  bool on_timer(sim::Context& ctx, std::uint64_t timer_id);

  /// The reply cache, as a snapshot carries it.
  const ReplyCache& replies() const { return replies_; }
  /// Resumes the duplicate-suppression contract where a snapshot left it.
  void install(ReplyCache replies) { replies_ = std::move(replies); }

  const ClientServiceStats& stats() const { return stats_; }

 private:
  /// A verified "never beyond `seq`" fact and the signed frame proving it,
  /// re-served to fetchers parked on refuted ids.
  struct Bound {
    std::uint64_t seq = 0;
    Bytes frame;
  };

  bool is_client(std::uint32_t pid) const;
  /// Deterministic id-space filter for decided entries: a plausible client
  /// command id names a configured client and a non-zero 32-bit seq.
  /// Every correct replica skips other entries identically, so a forged id
  /// cannot stall the frontier.
  bool plausible(std::uint64_t id) const {
    return is_client(client_of_cmd(id)) && seq_of_cmd(id) >= 1;
  }
  /// True iff a verified seq bound says the id's body can never exist.
  bool refuted(std::uint64_t id) const;
  /// Commit-eligibility of a plausible client id, INDEPENDENT of local
  /// body knowledge (a body-dependent rule would diverge across replicas):
  /// the seq must sit within seq_window of the client's committed-seq
  /// count and must not be refuted.  Both inputs are either replicated
  /// state or stable verified facts that CMD_FETCH equalises across
  /// replicas, so every correct replica reaches the same verdict.
  bool eligible(std::uint64_t id) const;
  /// True iff `id` is needed to advance the frontier right now (listed in
  /// the in-flight fetch): such ids are exempt from capacity drops and
  /// admission sheds, because progress depends on them and their number
  /// is bounded by the batch size.
  bool fetch_needs(std::uint64_t id) const;

  /// Checks a command body (REQUEST or CMD_RELAY) from `from` before
  /// admission: a 32-bit seq ≥ 1 and an authentic body.  Counts the
  /// reject.
  bool admissible(ProcessId from, const CmdRelay& body);
  /// Admits a checked body into the command table (charged to `origin`
  /// when a peer relayed it).
  void admit(const CmdRelay& body, std::optional<std::uint32_t> origin);
  /// The rule for everything a client signs (command bodies and SEQ_BOUND)
  /// arriving from `from`: a configured client and, when authenticating,
  /// the client's verified signature, from any sender; without
  /// authentication only the client itself or a replica may carry it.
  /// Counts the reject.
  bool authentic(ProcessId from, std::uint32_t client, const Bytes& preimage,
                 const Bytes& sig);
  /// Records a verified seq bound.  Returns kResume when it is tighter
  /// than the one held: decided ids beyond it just became ineligible, so a
  /// frontier (or suffix replay) parked on one can commit without it.
  Next record_bound(std::uint32_t client, std::uint64_t bound, Bytes frame);
  /// Sends CMD_FETCH for missing bodies (deduplicated against the
  /// in-flight fetch) and arms the retry timer.
  void request_bodies(sim::Context& ctx,
                      const std::vector<std::uint64_t>& missing);
  /// Sends the in-flight fetch to every replica and to the owning client
  /// of each of its ids.
  void send_fetch(sim::Context& ctx);

  Next on_request(sim::Context& ctx, ProcessId from, Reader& r);
  /// Ingests one relayed command body (CMD_RELAY or a CMD_FETCH answer —
  /// same frame) from replica `from`.  Authenticates the body and
  /// enforces the admission bounds before storing anything.
  Next on_relay(ProcessId from, Reader& r);
  void on_fetch(sim::Context& ctx, ProcessId from, Reader& r);
  Next on_seq_bound(ProcessId from, Reader& r);

  const ReplicaConfig& config_;
  CommandTable& table_;
  const crypto::Verifier* verifier_;

  ReplyCache replies_;
  /// Missing-body fetch in flight (frontier or suffix replay stall).
  std::vector<std::uint64_t> last_fetch_;
  std::uint64_t fetch_timer_ = 0;
  std::map<std::uint32_t, Bound> bounds_;  // client → tightest bound
  ClientServiceStats stats_;
};

}  // namespace modubft::smr
