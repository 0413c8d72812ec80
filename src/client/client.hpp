// Fault-tolerant SMR client (docs/CLIENT.md).
//
// A Client is an ordinary substrate actor with a process id in
// [n, n + num_clients).  It walks a deterministic script of operations,
// one monotone sequence number each, keeping `max_outstanding` of them in
// flight, and for every operation:
//
//   submit   — send REQUEST to the current contact replica;
//   certify  — collect REPLY frames until f+1 (Byzantine) or a majority
//              (crash) of *distinct replicas* return byte-identical
//              replies whose content matches what was submitted;
//   retry    — on timeout, resend with capped exponential backoff plus
//              jitter; after kFailoverAfter consecutive unproductive
//              rounds (timeouts or BUSY sheds) rotate the contact replica.
//              The streak resets only when an operation actually
//              certifies — a contact that keeps answering BUSY (or a
//              Byzantine one feeding useless frames) still gets rotated
//              away from, it cannot pin the client by staying "alive";
//   back off — a BUSY frame (replica shedding load) doubles the current
//              backoff instead of hammering the loaded replica; the next
//              certification shows the queue moves again, so it re-arms
//              every shed op's retry at retry_base.
//
// Replies never carry authority on their own: a Byzantine contact can
// drop, delay, or forge them, and the certification rule is what turns
// "a replica said so" into "the command committed".  The negative-control
// switch trust_first_reply disables exactly that rule, and the client
// chaos campaign proves the forged-reply attack lands when it is on.
//
// When every scripted operation has certified, the client broadcasts a
// SEQ_BOUND carrying its script length (its standing seq bound: it will
// never submit beyond its script) and stops.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "crypto/signature.hpp"
#include "sim/actor.hpp"
#include "smr/checkpoint.hpp"
#include "smr/command.hpp"
#include "smr/replica.hpp"

namespace modubft::client {

/// Consecutive unproductive rounds (timeouts or BUSY sheds) before a
/// client rotates its contact replica.
inline constexpr std::uint32_t kFailoverAfter = 2;

/// One scripted operation.
struct ClientOp {
  smr::Command::Op op = smr::Command::Op::kPut;
  std::string key;
  std::string value;
};

struct ClientConfig {
  /// Replica count; replicas occupy process ids [0, n).
  std::uint32_t n = 0;
  /// Fault bound (certification quorum: f+1 Byzantine, n/2+1 crash).
  std::uint32_t f = 0;
  smr::Backend backend = smr::Backend::kByzantine;

  /// The script, executed with seq = index + 1.
  std::vector<ClientOp> ops;

  /// Operations kept in flight: the client submits this many on start
  /// and one more on every certification (1 = the strict closed loop).
  /// The replicas' seq_window must be at least this count: it bounds the
  /// seqs they commit ahead and the replies they cache per client.
  std::uint32_t max_outstanding = 1;

  /// Retry backoff: delay starts at retry_base and doubles per attempt,
  /// capped at 16 × retry_base, plus jitter of up to a quarter of the
  /// delay.
  SimTime retry_base = 40'000;

  /// Initial contact replica (id in [0, n)).
  std::uint32_t contact = 0;

  /// Negative-control switch (adversary harness only): accept the first
  /// decodable reply for a pending seq without certification or content
  /// checks.  The forged-reply attack must land when this is on.
  bool trust_first_reply = false;

  /// Authenticated mode: sign every REQUEST preimage and every SEQ_BOUND
  /// (the refutations and the final broadcast) with this key (the client's
  /// own slot in the scenario keyring).  nullptr = unauthenticated
  /// (crash-model) runs; all sig fields stay empty.
  const crypto::Signer* signer = nullptr;
};

/// One certified (or, under trust_first_reply, merely accepted) reply.
struct AcceptedReply {
  std::uint64_t seq = 0;
  std::uint64_t cmd_id = 0;
  std::uint64_t slot = 0;
  smr::Command::Op op = smr::Command::Op::kPut;
  std::string key;
  std::string value;
  SimTime latency_us = 0;  // first submission → certification
};

/// Client-side observability, aggregated into runtime::RunStats (summed
/// over every client) as client_* keys.
struct ClientStats {
  std::uint64_t submitted = 0;   ///< first submissions (= ops started)
  std::uint64_t retries = 0;     ///< timeout resends
  std::uint64_t failovers = 0;   ///< contact rotations
  std::uint64_t busy = 0;        ///< BUSY frames received (backed off)
  std::uint64_t replies = 0;     ///< REPLY frames decoded
  std::uint64_t duplicate_replies = 0;   ///< replies for settled seqs
  std::uint64_t mismatched_replies = 0;  ///< content contradicts submission
  std::uint64_t accepted = 0;    ///< operations certified
  std::uint64_t fetches_answered = 0;  ///< CMD_FETCH ids answered with a body
  std::uint64_t bounds_sent = 0;       ///< SEQ_BOUND refutations sent
  /// Per-accepted-op latency.  Not a run counter: the run merges every
  /// client's into one distribution and cuts client_p50/p99/p999_us.
  std::vector<SimTime> latencies_us;

  using Self = ClientStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"client_submitted", &Self::submitted, metrics::kSum},
      {"client_retries", &Self::retries, metrics::kSum},
      {"client_failovers", &Self::failovers, metrics::kSum},
      {"client_busy", &Self::busy, metrics::kSum},
      {"client_replies", &Self::replies, metrics::kSum},
      {"client_duplicate_replies", &Self::duplicate_replies, metrics::kSum},
      {"client_mismatched_replies", &Self::mismatched_replies, metrics::kSum},
      {"client_accepted", &Self::accepted, metrics::kSum},
      {"client_fetches_answered", &Self::fetches_answered, metrics::kSum},
      {"client_bounds_sent", &Self::bounds_sent, metrics::kSum},
  };
};

class Client final : public sim::Actor {
 public:
  explicit Client(ClientConfig config);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override;
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override;

  const ClientStats& stats() const { return stats_; }
  const std::vector<AcceptedReply>& accepted() const { return accepted_; }
  /// True once every scripted operation certified (final SEQ_BOUND sent).
  /// Safe to read from another thread while the client runs (the scenario
  /// runner's end condition does).
  bool finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  /// An operation in flight: submitted, not yet certified.
  struct Pending {
    std::size_t op_index = 0;
    SimTime sent_at = 0;       // first submission (latency anchor)
    std::uint64_t timer = 0;   // armed retry timer
    SimTime delay = 0;         // current backoff
    bool shed = false;         // the armed timer came from a BUSY
    /// Certification tally: exact reply frame bytes → replicas that sent
    /// them.  Byte-equality is the matching rule — correct replicas
    /// produce identical frames, so f+1 distinct senders on one key is a
    /// commitment proof.
    std::map<Bytes, std::set<std::uint32_t>> tally;
  };

  std::uint32_t quorum() const;
  void submit_next(sim::Context& ctx);
  /// Builds the (signed, when a signer is configured) REQUEST frame for
  /// `seq`.  Deterministic: usable both for submission and for answering
  /// a replica's CMD_FETCH for a seq we have not submitted yet.
  smr::ClientRequest build_request(std::uint32_t self,
                                   std::uint64_t seq) const;
  void send_request(sim::Context& ctx, std::uint64_t seq);
  void arm_retry(sim::Context& ctx, std::uint64_t seq, Pending& p);
  void handle_reply(sim::Context& ctx, ProcessId from, Reader& r,
                    const Bytes& payload);
  void handle_busy(sim::Context& ctx, ProcessId from, Reader& r);
  void answer_fetch(sim::Context& ctx, ProcessId from, Reader& r);
  /// The (signed, when a signer is configured) SEQ_BOUND frame: this
  /// client never sends a seq beyond its script.
  Bytes seq_bound_frame(std::uint32_t self) const;
  /// One unproductive round with the contact (timeout or BUSY): bump the
  /// failover streak and rotate when it hits the threshold.
  void note_unresponsive(sim::Context& ctx);
  void accept(sim::Context& ctx, std::uint64_t seq,
              const smr::ClientReply& reply);
  void maybe_finish(sim::Context& ctx);

  ClientConfig config_;
  SimTime retry_cap_ = 0;
  std::uint32_t contact_ = 0;
  std::uint32_t consecutive_timeouts_ = 0;
  std::size_t next_op_ = 0;  // first not-yet-submitted script index
  std::map<std::uint64_t, Pending> pending_;      // seq → in flight
  std::map<std::uint64_t, std::uint64_t> timers_;  // timer id → seq
  std::atomic<bool> finished_{false};
  ClientStats stats_;
  std::vector<AcceptedReply> accepted_;
};

}  // namespace modubft::client
