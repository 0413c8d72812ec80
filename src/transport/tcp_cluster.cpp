#include "transport/tcp_cluster.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace modubft::transport {

namespace {
using Clock = std::chrono::steady_clock;

/// Label salt separating the channels' jitter streams from the fault
/// injectors' streams (both are derived from the cluster seed).
constexpr std::uint64_t kJitterSalt = 0x6a09e667f3bcc908ULL;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void encode_u64(std::uint8_t out[8], std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}
}  // namespace

/// Receive-side state of one directed link sender → this node.  Survives
/// connection replacement: expected_seq is what makes resumed links
/// duplicate-free and FIFO.
struct TcpCluster::RecvLink {
  std::mutex mu;
  int current_fd = -1;
  std::uint64_t expected_seq = 0;
  std::uint32_t since_ack = 0;
  std::uint64_t checksum_failures = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t gap_resets = 0;
  std::vector<std::uint64_t> audit;
};

/// One inbound connection's state inside the node's epoll loop: a small
/// per-fd state machine (hello → frame header → frame payload) plus an
/// outbound staging buffer for resume/ack bytes the nonblocking socket
/// refused to take immediately.
struct TcpCluster::Conn {
  int fd = -1;
  enum class Phase { kHello, kHeader, kPayload } phase = Phase::kHello;
  /// Accumulates the fixed-size prefix of the current phase (hello or
  /// frame header — whichever is larger bounds the buffer).
  std::uint8_t prefix[kFrameHeaderBytes] = {};
  std::size_t prefix_have = 0;
  FrameHeader header;
  Bytes payload;
  std::size_t payload_have = 0;
  /// Peer id once the hello was accepted; -1 while unidentified.
  std::int64_t sender = -1;
  /// Hello- or payload-completion deadline (the two phases a stalled or
  /// desynced peer must not be able to pin forever).
  std::optional<Clock::time_point> deadline;
  /// Resume/ack bytes not yet accepted by the socket; flushed on
  /// EPOLLOUT.
  Bytes pending_out;
  std::size_t pending_off = 0;
  bool want_write = false;
};

/// One node's end of the wire: its listen socket and receive loop, its
/// outbound channels and the receive state of its inbound links.
struct TcpCluster::Endpoint {
  ProcessId id;

  int listen_fd = -1;
  std::atomic<std::uint16_t> port{0};

  // The receive event loop: one epoll instance + one thread per node.
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread io_thread;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;

  // channels[j]: resilient sender for my link to p_{j+1} (null for j == id).
  std::vector<std::unique_ptr<ResilientChannel>> channels;
  // recv_links[j]: receive state for the link p_{j+1} → me.
  std::vector<std::unique_ptr<RecvLink>> recv_links;

  mutable std::mutex errors_mu;
  std::vector<std::string> errors;
  std::atomic<std::uint64_t> malformed_hellos{0};
};

TcpCluster::TcpCluster(TcpClusterConfig config)
    : Cluster(config), config_(std::move(config)) {
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->id = ProcessId{i};
    ep->channels.resize(config_.n);
    for (std::uint32_t j = 0; j < config_.n; ++j) {
      ep->recv_links.push_back(std::make_unique<RecvLink>());
    }
    endpoints_.push_back(std::move(ep));
  }
}

TcpCluster::~TcpCluster() {
  stop_nodes();
  close_wire();
}

void TcpCluster::record_error(Endpoint& ep, std::string message) {
  std::lock_guard<std::mutex> lock(ep.errors_mu);
  ep.errors.push_back(std::move(message));
}

void TcpCluster::transmit(ProcessId from, ProcessId to, Bytes payload) {
  endpoints_[from.value]->channels[to.value]->enqueue(std::move(payload));
}

void TcpCluster::transmit_to_peers(ProcessId from, const Bytes& payload) {
  // One allocation for all n−1 wire copies: every channel's queue and
  // retransmit buffer alias the same immutable payload.
  const auto shared = std::make_shared<const Bytes>(payload);
  for (auto& channel : endpoints_[from.value]->channels) {
    if (channel) channel->enqueue(shared);
  }
}

void TcpCluster::io_main(Endpoint& ep) {
  // The node's whole receive side on one thread: the listen socket, the
  // teardown eventfd and every inbound connection share one level-triggered
  // epoll set.  All sockets are nonblocking — a stalled peer costs a
  // deadline sweep, never a blocked thread.

  auto arm = [&](Conn& conn) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(ep.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  auto close_conn = [&](Conn& conn) {
    if (conn.sender >= 0) {
      RecvLink& link = *ep.recv_links[static_cast<std::size_t>(conn.sender)];
      std::lock_guard<std::mutex> lock(link.mu);
      if (link.current_fd == conn.fd) link.current_fd = -1;
    }
    ::epoll_ctl(ep.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    ep.conns.erase(conn.fd);  // destroys conn — caller must not touch it
  };

  // Attempts to hand `len` bytes to the socket; whatever the kernel
  // refuses is staged in pending_out and flushed on EPOLLOUT.  Only fatal
  // socket errors return false (the conn should then be closed).
  auto queue_out = [&](Conn& conn, const std::uint8_t* data,
                       std::size_t len) -> bool {
    if (conn.pending_out.size() == conn.pending_off) {
      conn.pending_out.clear();
      conn.pending_off = 0;
      while (len > 0) {
        const ssize_t put = ::send(conn.fd, data, len, MSG_NOSIGNAL);
        if (put > 0) {
          data += put;
          len -= static_cast<std::size_t>(put);
          continue;
        }
        if (put < 0 && errno == EINTR) continue;
        if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;
      }
    }
    if (len > 0) {
      conn.pending_out.insert(conn.pending_out.end(), data, data + len);
      if (!conn.want_write) {
        conn.want_write = true;
        arm(conn);
      }
    }
    return true;
  };

  auto flush_out = [&](Conn& conn) -> bool {
    while (conn.pending_off < conn.pending_out.size()) {
      const ssize_t put = ::send(conn.fd, conn.pending_out.data() +
                                              conn.pending_off,
                                 conn.pending_out.size() - conn.pending_off,
                                 MSG_NOSIGNAL);
      if (put > 0) {
        conn.pending_off += static_cast<std::size_t>(put);
        continue;
      }
      if (put < 0 && errno == EINTR) continue;
      if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    conn.pending_out.clear();
    conn.pending_off = 0;
    if (conn.want_write) {
      conn.want_write = false;
      arm(conn);
    }
    return true;
  };

  auto send_ack = [&](Conn& conn, std::uint64_t next_expected) -> bool {
    std::uint8_t ack[kAckBytes];
    encode_u64(ack, next_expected);
    return queue_out(conn, ack, kAckBytes);
  };

  // Hello complete: identify the peer, supersede any older connection of
  // the same link, reply with the resume sequence number.  Returns false
  // when the conn must be closed (the accounting mirrors the former
  // blocking reader byte for byte).
  auto accept_hello = [&](Conn& conn) -> bool {
    const std::optional<std::uint32_t> sender = decode_hello(conn.prefix);
    if (!sender.has_value()) {
      ep.malformed_hellos.fetch_add(1);
      record_error(ep, "hello: bad magic from peer");
      return false;
    }
    if (*sender >= config_.n || *sender == ep.id.value) {
      ep.malformed_hellos.fetch_add(1);
      std::ostringstream os;
      os << "hello: sender id " << *sender << " out of range (n="
         << config_.n << ")";
      record_error(ep, os.str());
      return false;
    }
    RecvLink& link = *ep.recv_links[*sender];
    std::uint64_t resume = 0;
    int old_fd = -1;
    {
      std::lock_guard<std::mutex> lock(link.mu);
      old_fd = link.current_fd;
      link.current_fd = conn.fd;
      link.since_ack = 0;
      resume = link.expected_seq;
    }
    if (old_fd >= 0) {
      // A newer connection supersedes the old one; its conn (owned by
      // this same loop) is simply closed, partial frame and all.
      auto it = ep.conns.find(old_fd);
      if (it != ep.conns.end()) close_conn(*it->second);
    }
    conn.sender = *sender;
    conn.phase = Conn::Phase::kHeader;
    conn.prefix_have = 0;
    conn.deadline.reset();
    return send_ack(conn, resume);
  };

  // One complete frame: CRC, duplicate suppression, gap detection,
  // in-order delivery into the mailbox — the same ladder as the former
  // reader thread.  Returns false when the connection must be torn down.
  auto accept_frame = [&](Conn& conn) -> bool {
    RecvLink& link = *ep.recv_links[static_cast<std::size_t>(conn.sender)];
    const ProcessId from{static_cast<std::uint32_t>(conn.sender)};
    Bytes payload = std::move(conn.payload);
    conn.payload = Bytes{};
    conn.phase = Conn::Phase::kHeader;
    conn.prefix_have = 0;
    conn.payload_have = 0;
    conn.deadline.reset();

    std::uint64_t ack_value = 0;
    bool want_ack = false;
    {
      std::lock_guard<std::mutex> lock(link.mu);
      if (!verify_frame_crc(conn.header, payload)) {
        // Wire corruption: tear the connection down; the sender still
        // holds the frame unacked and will retransmit it on resume.
        ++link.checksum_failures;
        return false;
      }
      if (conn.header.seq < link.expected_seq) {
        // Duplicate from a retransmit race: suppress, but re-ack so the
        // sender can trim its buffer.
        ++link.dup_suppressed;
        ack_value = link.expected_seq;
        want_ack = true;
      } else if (conn.header.seq > link.expected_seq) {
        // A gap cannot happen on a healthy resumed stream; force a resync.
        ++link.gap_resets;
        return false;
      } else {
        ++link.expected_seq;
        if (config_.audit_deliveries) link.audit.push_back(conn.header.seq);
        deliver(from, ep.id, std::move(payload));
        if (++link.since_ack >= kAckEvery) {
          link.since_ack = 0;
          ack_value = link.expected_seq;
          want_ack = true;
        }
      }
    }
    return !want_ack || send_ack(conn, ack_value);
  };

  // Reads until EAGAIN, stepping the per-conn state machine.  Returns
  // false when the conn died (EOF, error, protocol violation).
  auto handle_readable = [&](Conn& conn) -> bool {
    for (;;) {
      std::uint8_t* dst = nullptr;
      std::size_t want = 0;
      switch (conn.phase) {
        case Conn::Phase::kHello:
          dst = conn.prefix + conn.prefix_have;
          want = kHelloBytes - conn.prefix_have;
          break;
        case Conn::Phase::kHeader:
          dst = conn.prefix + conn.prefix_have;
          want = kFrameHeaderBytes - conn.prefix_have;
          break;
        case Conn::Phase::kPayload:
          dst = conn.payload.data() + conn.payload_have;
          want = conn.payload.size() - conn.payload_have;
          break;
      }
      const ssize_t got = ::recv(conn.fd, dst, want, 0);
      if (got == 0) return false;  // EOF
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      const std::size_t n = static_cast<std::size_t>(got);
      switch (conn.phase) {
        case Conn::Phase::kHello:
          conn.prefix_have += n;
          if (conn.prefix_have == kHelloBytes && !accept_hello(conn)) {
            return false;
          }
          break;
        case Conn::Phase::kHeader:
          conn.prefix_have += n;
          if (conn.prefix_have < kFrameHeaderBytes) break;
          conn.header = decode_frame_header(conn.prefix);
          if (conn.header.len > config_.max_frame_bytes) {
            std::ostringstream os;
            os << "frame from p" << conn.sender << ": length "
               << conn.header.len << " exceeds max_frame_bytes="
               << config_.max_frame_bytes;
            record_error(ep, os.str());
            return false;
          }
          if (conn.header.len == 0) {
            conn.payload.clear();
            if (!accept_frame(conn)) return false;
            break;
          }
          conn.payload.assign(conn.header.len, 0);
          conn.payload_have = 0;
          conn.phase = Conn::Phase::kPayload;
          // A frame, once its header arrived, must complete promptly: a
          // corrupted length prefix desyncs the stream, and the half-frame
          // would otherwise linger forever.
          conn.deadline = Clock::now() + kHandshakeTimeout;
          break;
        case Conn::Phase::kPayload:
          conn.payload_have += n;
          if (conn.payload_have == conn.payload.size() &&
              !accept_frame(conn)) {
            return false;
          }
          break;
      }
    }
  };

  auto handle_accept = [&] {
    for (;;) {
      int fd = ::accept(ep.listen_fd, nullptr, nullptr);
      if (fd < 0) {
        // A signal landing mid-sweep must not abandon the rest of the
        // backlog until the next epoll tick; only a genuinely drained
        // queue (or a shut-down listen socket) ends the sweep.
        if (errno == EINTR) continue;
        return;  // EAGAIN/EWOULDBLOCK, or listen socket shut down
      }
      if (shutting_down_.load()) {
        ::close(fd);
        return;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      set_nonblocking(fd);
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      // Until the sender is identified this fd is accountable to nobody,
      // so a silent dialer must not be able to pin it forever.
      conn->deadline = Clock::now() + kHandshakeTimeout;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(ep.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      ep.conns.emplace(fd, std::move(conn));
    }
  };

  epoll_event events[64];
  while (!shutting_down_.load()) {
    // The nearest conn deadline bounds the wait (capped so shutdown is
    // never far away even with no deadlines armed).
    int timeout_ms = 50;
    const Clock::time_point now = Clock::now();
    for (const auto& [fd, conn] : ep.conns) {
      if (!conn->deadline.has_value()) continue;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          *conn->deadline - now);
      timeout_ms = std::max(0, std::min<int>(timeout_ms,
                                             static_cast<int>(left.count())));
    }
    const int ready = ::epoll_wait(ep.epoll_fd, events, 64, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == ep.wake_fd) {
        std::uint64_t drained = 0;
        // Retry on EINTR: an unconsumed eventfd counter would re-fire the
        // wakeup on every subsequent epoll_wait.
        while (::read(ep.wake_fd, &drained, sizeof drained) < 0 &&
               errno == EINTR) {
        }
        continue;  // the while condition re-checks shutting_down_
      }
      if (fd == ep.listen_fd) {
        handle_accept();
        continue;
      }
      auto it = ep.conns.find(fd);
      if (it == ep.conns.end()) continue;  // closed earlier in this batch
      Conn& conn = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !flush_out(conn)) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0 && !handle_readable(conn)) {
        close_conn(conn);
        continue;
      }
    }
    // Deadline sweep: hello never arrived, or a half-frame stalled.
    const Clock::time_point after = Clock::now();
    for (auto it = ep.conns.begin(); it != ep.conns.end();) {
      Conn& conn = *it->second;
      ++it;  // close_conn erases — advance first
      if (conn.deadline.has_value() && after >= *conn.deadline) {
        close_conn(conn);
      }
    }
  }

  // Loop exit: drop every remaining connection (listen/epoll/wake fds are
  // closed by teardown, which owns their lifecycle).
  for (auto it = ep.conns.begin(); it != ep.conns.end();) {
    Conn& conn = *it->second;
    ++it;
    close_conn(conn);
  }
}

void TcpCluster::open_wire() {
  // 1. Listen sockets for everyone (ephemeral loopback ports) before any
  //    dial can happen, so reconnects never race the mesh setup.
  for (auto& ep : endpoints_) {
    ep->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    MODUBFT_ASSERT(ep->listen_fd >= 0);
    int one = 1;
    ::setsockopt(ep->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    MODUBFT_ASSERT(::bind(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof addr) == 0);
    socklen_t len = sizeof addr;
    ::getsockname(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ep->port.store(ntohs(addr.sin_port));
    // Backlog 2n: every peer may redial while an old connection lingers.
    MODUBFT_ASSERT(::listen(ep->listen_fd,
                            static_cast<int>(2 * config_.n)) == 0);
  }

  // 2. Receive event loops (they run for the whole cluster lifetime:
  //    reconnecting links arrive as fresh inbound connections at any
  //    point).  One epoll set per node watches the listen socket, a
  //    teardown eventfd and every accepted connection.
  for (auto& ep : endpoints_) {
    set_nonblocking(ep->listen_fd);
    ep->epoll_fd = ::epoll_create1(0);
    MODUBFT_ASSERT(ep->epoll_fd >= 0);
    ep->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    MODUBFT_ASSERT(ep->wake_fd >= 0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = ep->listen_fd;
    MODUBFT_ASSERT(::epoll_ctl(ep->epoll_fd, EPOLL_CTL_ADD, ep->listen_fd,
                               &ev) == 0);
    ev.data.fd = ep->wake_fd;
    MODUBFT_ASSERT(::epoll_ctl(ep->epoll_fd, EPOLL_CTL_ADD, ep->wake_fd,
                               &ev) == 0);
    ep->io_thread = std::thread([this, &ep = *ep] { io_main(ep); });
  }

  // 3. Resilient channels for the full mesh; they dial lazily on first
  //    send and redial on any failure.
  for (auto& ep : endpoints_) {
    for (std::uint32_t j = 0; j < config_.n; ++j) {
      if (j == ep->id.value) continue;
      const std::uint16_t peer_port = endpoints_[j]->port.load();
      auto dial = [peer_port]() -> int {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(peer_port);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) != 0) {
          ::close(fd);
          return -1;
        }
        return fd;
      };
      const std::uint64_t label =
          (static_cast<std::uint64_t>(ep->id.value) << 32) | (j + 1);
      Rng jitter_root(config_.seed ^ kJitterSalt);
      ep->channels[j] = std::make_unique<ResilientChannel>(
          ep->id, ProcessId{j}, std::move(dial), jitter_root.split(label),
          config_.faults.make_injector(ep->id, ProcessId{j}));
      ep->channels[j]->start();
    }
  }
}

void TcpCluster::close_wire() {
  if (closed_) return;
  closed_ = true;
  shutting_down_.store(true);

  // 1. Stop the send side while receivers still drain, so no channel can
  //    block on a full socket buffer.
  for (auto& ep : endpoints_) {
    for (auto& channel : ep->channels) {
      if (channel) channel->shutdown();
    }
  }
  for (auto& ep : endpoints_) {
    for (auto& channel : ep->channels) {
      if (channel) channel->join();
    }
  }

  // 2. Stop the receive event loops: poke each eventfd (shutting_down_ is
  //    already set, so the loop exits and closes its connections), join,
  //    then release the loop's fds.
  for (auto& ep : endpoints_) {
    if (ep->wake_fd >= 0) {
      const std::uint64_t one = 1;
      (void)::write(ep->wake_fd, &one, sizeof one);
    }
  }
  for (auto& ep : endpoints_) {
    if (ep->io_thread.joinable()) ep->io_thread.join();
    close_fd(ep->listen_fd);
    close_fd(ep->wake_fd);
    close_fd(ep->epoll_fd);
  }
}

std::uint16_t TcpCluster::port(ProcessId id) const {
  MODUBFT_EXPECTS(id.value < config_.n);
  return endpoints_[id.value]->port.load();
}

std::vector<std::string> TcpCluster::errors(ProcessId id) const {
  MODUBFT_EXPECTS(id.value < config_.n);
  Endpoint& ep = *endpoints_[id.value];
  std::lock_guard<std::mutex> lock(ep.errors_mu);
  return ep.errors;
}

TcpLinkStats TcpCluster::link_stats() const {
  TcpLinkStats agg;
  for (auto& ep : endpoints_) {
    for (auto& channel : ep->channels) {
      if (channel) metrics::merge(agg, channel->stats());
    }
    for (auto& link : ep->recv_links) {
      std::lock_guard<std::mutex> lock(link->mu);
      agg.checksum_failures += link->checksum_failures;
      agg.dup_suppressed += link->dup_suppressed;
      agg.gap_resets += link->gap_resets;
    }
    agg.malformed_hellos += ep->malformed_hellos.load();
  }
  return agg;
}

std::vector<std::uint64_t> TcpCluster::delivered_seqs(ProcessId from,
                                                      ProcessId to) const {
  MODUBFT_EXPECTS(from.value < config_.n && to.value < config_.n);
  MODUBFT_EXPECTS(from != to);
  RecvLink& link = *endpoints_[to.value]->recv_links[from.value];
  std::lock_guard<std::mutex> lock(link.mu);
  return link.audit;
}

}  // namespace modubft::transport
