// Resilient directed link: re-establishes reliable FIFO over fallible TCP.
//
// One `ResilientChannel` owns the send side of a single directed link
// p_self → p_peer.  The protocols above assume reliable-FIFO channels; a
// raw TCP connection only provides that while it lives.  This layer makes
// the contract survive connection death, truncation and corruption:
//
//   * every frame carries a per-link sequence number and a CRC-32C over
//     header and payload;
//   * sent-but-unacknowledged frames stay in a bounded retransmit buffer;
//   * on any socket failure the channel redials with capped exponential
//     backoff plus jitter, replays the resume handshake (the receiver
//     answers with the next sequence number it expects), trims the buffer
//     and retransmits the rest;
//   * the receive side (in `TcpCluster`) suppresses duplicates and
//     enforces in-order delivery, so a frame is delivered exactly once and
//     in FIFO order no matter how many times it was transmitted;
//   * sends never block the caller: frames queue, and a frame that cannot
//     be transmitted within the send timeout is dropped and surfaced in the
//     channel stats (`frames_dropped`, `degraded`) instead of hanging the
//     protocol thread — an unreachable peer degrades into a crashed one,
//     which the consensus layer already tolerates via F.
//
// A `LinkFaultInjector` (optional) perturbs every transmission attempt, so
// chaos tests exercise exactly this machinery.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "transport/link_faults.hpp"

namespace modubft::transport {

/// First bytes on every connection: [magic][sender id], little-endian u32s.
inline constexpr std::uint32_t kHelloMagic = 0x4D42'4654u;  // "MBFT"
inline constexpr std::size_t kHelloBytes = 8;
/// Data frame header: [u32 payload len][u64 seq][u32 crc], little-endian.
/// The CRC covers len ‖ seq ‖ payload, so any corrupted header field or
/// payload byte fails verification (a corrupted len additionally desyncs
/// the stream — both cases tear the connection down and resume cleanly).
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Acknowledgement from receiver to sender: one little-endian u64 with the
/// next expected sequence number (cumulative).  The resume reply sent
/// right after the hello uses the same encoding.
inline constexpr std::size_t kAckBytes = 8;

struct FrameHeader {
  std::uint32_t len = 0;
  std::uint64_t seq = 0;
  std::uint32_t crc = 0;
};

/// Builds the full wire image (header + payload) for one frame.  The
/// reference encoder: tests compare against it byte for byte.  The hot
/// send path uses encode_frame_header + a gathered write instead — same
/// bytes on the wire, no contiguous copy.
Bytes encode_frame(std::uint64_t seq, const Bytes& payload);

/// Fills the 16 header bytes (len ‖ seq ‖ crc32c(len‖seq‖payload)) for a
/// frame whose payload will be written separately — the zero-copy
/// counterpart of encode_frame.
void encode_frame_header(std::uint64_t seq, const Bytes& payload,
                         std::uint8_t out[kFrameHeaderBytes]);

/// Decodes the 16 header bytes (no validation beyond field extraction).
FrameHeader decode_frame_header(const std::uint8_t hdr[kFrameHeaderBytes]);

/// Recomputes the CRC over len ‖ seq ‖ payload and compares.
bool verify_frame_crc(const FrameHeader& header, const Bytes& payload);

Bytes encode_hello(std::uint32_t sender);
/// Returns the sender id, or nullopt if the magic does not match.
std::optional<std::uint32_t> decode_hello(const std::uint8_t hello[kHelloBytes]);

/// Blocking loop around read(2) / send(2) until `len` bytes moved.
/// Both return false on EOF or error (the connection is done).
bool net_read_exact(int fd, void* buf, std::size_t len);
bool net_write_all(int fd, const void* buf, std::size_t len);

/// Gathered write of two ranges (header ‖ payload) in one syscall stream
/// via sendmsg — the wire bytes are identical to concatenating first.
bool net_write2_all(int fd, const void* a, std::size_t alen, const void* b,
                    std::size_t blen);

/// Deadline for the resume reply after dialing, and for a half-received
/// hello or frame on the receive side.
inline constexpr std::chrono::milliseconds kHandshakeTimeout{2'000};
/// The receiver sends a cumulative ack every this many delivered frames.
inline constexpr std::uint32_t kAckEvery = 16;

/// Snapshot of one channel's counters.  TcpLinkStats sums them over every
/// link of a cluster, under the keys declared here.
struct ChannelStats {
  std::uint64_t frames_sent = 0;   ///< frames fully written to a socket
  std::uint64_t bytes_sent = 0;    ///< wire bytes fully written
  std::uint64_t retransmits = 0;   ///< frames written more than once
  std::uint64_t reconnects = 0;    ///< successful re-dials after the first
  std::uint64_t dial_failures = 0; ///< failed dial or handshake attempts
  std::uint64_t frames_dropped = 0;///< expired in queue or queue overflow
  std::uint64_t kills_injected = 0;
  std::uint64_t truncates_injected = 0;
  std::uint64_t flips_injected = 0;
  std::uint64_t delays_injected = 0;
  std::uint64_t degraded = 0;      ///< 1 iff frames_dropped > 0

  using Self = ChannelStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"wire_frames", &Self::frames_sent, metrics::kSum},
      {"wire_bytes", &Self::bytes_sent, metrics::kSum},
      {"retransmits", &Self::retransmits, metrics::kSum},
      {"reconnects", &Self::reconnects, metrics::kSum},
      {"dial_failures", &Self::dial_failures, metrics::kSum},
      {"frames_dropped", &Self::frames_dropped, metrics::kSum},
      {"kills_injected", &Self::kills_injected, metrics::kSum},
      {"truncates_injected", &Self::truncates_injected, metrics::kSum},
      {"flips_injected", &Self::flips_injected, metrics::kSum},
      {"delays_injected", &Self::delays_injected, metrics::kSum},
      {"degraded_links", &Self::degraded, metrics::kSum},
  };
};

class ResilientChannel {
 public:
  /// `dial` returns a connected socket to the peer (or -1); the channel
  /// owns the returned fd and performs the hello/resume handshake itself.
  using DialFn = std::function<int()>;

  ResilientChannel(ProcessId self, ProcessId peer, DialFn dial,
                   Rng jitter_rng, std::unique_ptr<LinkFaultInjector> injector);
  ~ResilientChannel();

  ResilientChannel(const ResilientChannel&) = delete;
  ResilientChannel& operator=(const ResilientChannel&) = delete;

  void start();
  /// Signals the worker to finish; idempotent.  join() waits for it.
  void shutdown();
  void join();

  /// Shared immutable payload: a broadcast enqueues ONE allocation on all
  /// n−1 channels instead of copying the frame per recipient, and the
  /// retransmit buffer aliases it too (the wire header lives separately,
  /// see UnackedFrame).  Nobody mutates the pointee — fault injection
  /// that flips bytes materializes a private copy at write time.
  using PayloadPtr = std::shared_ptr<const Bytes>;

  /// Queues one payload for FIFO transmission.  Never blocks; returns
  /// false (and counts a drop) when the channel is stopped or full.
  bool enqueue(Bytes payload);
  bool enqueue(PayloadPtr payload);

  ChannelStats stats() const;

  ProcessId peer() const { return peer_; }

 private:
  struct QueuedFrame {
    PayloadPtr payload;
    std::chrono::steady_clock::time_point enqueued;
  };
  /// Retransmit-buffer entry: the 16 wire-header bytes live inline, the
  /// payload is shared with every other channel of the same broadcast.
  /// Together they ARE the frame — write_frame gathers them with one
  /// sendmsg, producing bytes identical to the old contiguous wire image.
  struct UnackedFrame {
    std::uint64_t seq = 0;
    std::uint8_t header[kFrameHeaderBytes] = {};
    PayloadPtr payload;
    bool transmitted = false;

    std::size_t wire_size() const {
      return kFrameHeaderBytes + (payload ? payload->size() : 0);
    }
  };

  void thread_main();
  void expire_stale_locked(std::unique_lock<std::mutex>& lock);
  bool try_connect(std::unique_lock<std::mutex>& lock);
  void transmit_pending(std::unique_lock<std::mutex>& lock);
  bool write_frame(UnackedFrame& frame);
  /// Reads whatever acks are available without blocking; trims the
  /// retransmit buffer.  Returns false when the connection died.
  bool drain_acks();
  void drop_connection();
  /// Adds `by` to one of counters_ (any thread).
  void count(std::uint64_t ChannelStats::*counter, std::uint64_t by = 1);
  void sleep_interruptible(std::chrono::microseconds d);
  bool stopping() const;

  const ProcessId self_;
  const ProcessId peer_;
  const DialFn dial_;
  Rng rng_;
  std::unique_ptr<LinkFaultInjector> injector_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedFrame> queue_;
  bool stop_ = false;

  // Worker-thread state (no locking needed).
  std::thread worker_;
  int fd_ = -1;
  std::deque<UnackedFrame> unacked_;
  std::size_t next_unsent_ = 0;  ///< index into unacked_ for this connection
  std::uint64_t next_seq_ = 0;
  std::uint64_t acked_ = 0;
  std::uint32_t consecutive_dial_failures_ = 0;
  std::chrono::steady_clock::time_point next_dial_{};
  bool ever_connected_ = false;
  std::uint8_t ack_partial_[kAckBytes] = {};
  std::size_t ack_partial_len_ = 0;

  // Counters: written by the worker and enqueue, read by stats().
  mutable std::mutex counters_mu_;
  ChannelStats counters_;
};

}  // namespace modubft::transport
