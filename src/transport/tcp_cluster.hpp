// TCP cluster: the protocols over real sockets.
//
// The wall-clock node runtime of `Cluster` — node threads, timers,
// crash/restart, delivery tap, counters, budget — with a different wire:
// every frame to a peer travels a TCP connection on the loopback
// interface: real framing, real kernel buffering, real partial reads.
// This is the closest substrate to a deployment and the robustness proving
// ground — nothing above this layer changes.  TcpCluster overrides only
// Cluster's wire hooks; frames that arrive are handed to the receiver's
// mailbox through Cluster::deliver, so both wall-clock substrates share
// one dispatch loop.
//
// Topology: full mesh of unidirectional links.  Every node dials every
// peer and uses that connection exclusively for its own sends (i → j);
// inbound connections are identified by a hello frame carrying the
// dialer's id.  The receive side of each node is a single level-triggered
// epoll event loop driving nonblocking sockets (accept + every inbound
// link), so a node costs one IO thread regardless of n (see
// docs/INGEST.md).  The reliable-FIFO contract the protocols assume is
// *re-established by this layer* rather than presumed from a single
// healthy TCP connection: each link is a
// `ResilientChannel` with per-link sequence numbers, CRC-checked frames, a
// bounded retransmit buffer, reconnect with capped exponential backoff,
// and duplicate suppression on resume — so injected link faults
// (`LinkFaultPlan`) or real socket failures are absorbed below the
// protocol instead of silently breaking the model.
//
// Wire protocol (see resilient_channel.hpp for the byte-level encoders):
//   hello  = [u32 magic][u32 sender id]
//   resume = [u64 next expected seq]        (receiver → dialer)
//   frame  = [u32 len][u64 seq][u32 crc32c(len‖seq‖payload)][payload]
//   ack    = [u64 next expected seq]        (receiver → dialer, cumulative)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "transport/cluster.hpp"
#include "transport/link_faults.hpp"
#include "transport/resilient_channel.hpp"

namespace modubft::transport {

struct TcpClusterConfig : ClusterConfig {
  /// Maximum accepted frame size (defensive cap on the wire).
  std::uint32_t max_frame_bytes = 16u << 20;
  /// Link faults injected below the framing layer (empty = healthy links).
  LinkFaultPlan faults;
  /// Records every delivered (link, seq) so tests can audit FIFO and
  /// exactly-once delivery.  Off by default (unbounded memory per frame).
  bool audit_deliveries = false;
};

/// Aggregate counters across every link of the cluster: each channel's
/// ChannelStats summed (declared there), plus the receive side's own four
/// below.  The cluster sums them itself, so no runner merges them.
struct TcpLinkStats : ChannelStats {
  std::uint64_t checksum_failures = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t gap_resets = 0;
  std::uint64_t malformed_hellos = 0;

  using Self = TcpLinkStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"checksum_failures", &Self::checksum_failures, metrics::kSum},
      {"dup_suppressed", &Self::dup_suppressed, metrics::kSum},
      {"gap_resets", &Self::gap_resets, metrics::kSum},
      {"malformed_hellos", &Self::malformed_hellos, metrics::kSum},
  };
};

class TcpCluster final : public Cluster {
 public:
  explicit TcpCluster(TcpClusterConfig config);
  ~TcpCluster() override;

  /// Loopback port the node listens on (0 until run() binds it).  Exposed
  /// so tests can poke the wire protocol directly.
  std::uint16_t port(ProcessId id) const;

  /// Per-node transport errors (malformed hellos, oversized frames, …).
  std::vector<std::string> errors(ProcessId id) const;

  /// Aggregate wire, fault and recovery counters over all links.
  TcpLinkStats link_stats() const;

  /// Sequence numbers delivered on link from → to, in delivery order.
  /// Requires config.audit_deliveries.
  std::vector<std::uint64_t> delivered_seqs(ProcessId from,
                                            ProcessId to) const;

 private:
  struct RecvLink;
  struct Conn;
  struct Endpoint;

  /// Binds every listen socket, starts the receive loops and the
  /// resilient channels (they dial lazily on first send).
  void open_wire() override;
  void transmit(ProcessId from, ProcessId to, Bytes payload) override;
  /// One shared wire payload across all n−1 channels.
  void transmit_to_peers(ProcessId from, const Bytes& payload) override;
  /// Stops the channels, then the receive loops.
  void close_wire() override;

  /// The per-node receive event loop: one epoll instance drives the
  /// listen socket plus every inbound connection (nonblocking).
  void io_main(Endpoint& ep);
  void record_error(Endpoint& ep, std::string message);

  TcpClusterConfig config_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<bool> shutting_down_{false};
  bool closed_ = false;
};

}  // namespace modubft::transport
