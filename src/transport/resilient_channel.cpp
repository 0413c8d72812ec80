#include "transport/resilient_channel.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/crc32.hpp"

namespace modubft::transport {

namespace {
using Clock = std::chrono::steady_clock;

// Redial backoff: kBaseBackoff · kBackoffMultiplier^k, capped at
// kMaxBackoff, with uniform jitter of ± kBackoffJitter around it.
constexpr std::chrono::milliseconds kBaseBackoff{2};
constexpr std::chrono::milliseconds kMaxBackoff{200};
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.5;
/// A queued frame not transmitted within this window is dropped (and
/// accounted) instead of blocking the link forever.
constexpr std::chrono::milliseconds kSendTimeout{5'000};
constexpr std::size_t kMaxQueuedFrames = 8'192;
constexpr std::size_t kMaxUnackedFrames = 4'096;

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
}  // namespace

bool net_read_exact(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t got = ::read(fd, p, len);
    if (got <= 0) return false;  // EOF or error: the connection is done
    p += got;
    len -= static_cast<std::size_t>(got);
  }
  return true;
}

bool net_write_all(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    // MSG_NOSIGNAL: a dead peer must surface as a failed send, not SIGPIPE.
    const ssize_t put = ::send(fd, p, len, MSG_NOSIGNAL);
    if (put <= 0) return false;
    p += put;
    len -= static_cast<std::size_t>(put);
  }
  return true;
}

bool net_write2_all(int fd, const void* a, std::size_t alen, const void* b,
                    std::size_t blen) {
  const auto* pa = static_cast<const std::uint8_t*>(a);
  const auto* pb = static_cast<const std::uint8_t*>(b);
  while (alen + blen > 0) {
    iovec iov[2];
    int cnt = 0;
    if (alen > 0) {
      iov[cnt].iov_base = const_cast<std::uint8_t*>(pa);
      iov[cnt].iov_len = alen;
      ++cnt;
    }
    if (blen > 0) {
      iov[cnt].iov_base = const_cast<std::uint8_t*>(pb);
      iov[cnt].iov_len = blen;
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(cnt);
    const ssize_t put = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (put <= 0) return false;
    std::size_t n = static_cast<std::size_t>(put);
    const std::size_t from_a = std::min(n, alen);
    pa += from_a;
    alen -= from_a;
    n -= from_a;
    pb += n;
    blen -= n;
  }
  return true;
}

void encode_frame_header(std::uint64_t seq, const Bytes& payload,
                         std::uint8_t out[kFrameHeaderBytes]) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out + 4, seq);
  std::uint32_t crc = crc32c_init();
  crc = crc32c_update(crc, out, 12);  // len ‖ seq
  crc = crc32c_update(crc, payload.data(), payload.size());
  put_u32(out + 12, crc32c_final(crc));
}

Bytes encode_frame(std::uint64_t seq, const Bytes& payload) {
  Bytes wire(kFrameHeaderBytes + payload.size());
  encode_frame_header(seq, payload, wire.data());
  if (!payload.empty()) {
    std::memcpy(wire.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return wire;
}

FrameHeader decode_frame_header(const std::uint8_t hdr[kFrameHeaderBytes]) {
  FrameHeader h;
  h.len = get_u32(hdr);
  h.seq = get_u64(hdr + 4);
  h.crc = get_u32(hdr + 12);
  return h;
}

bool verify_frame_crc(const FrameHeader& header, const Bytes& payload) {
  std::uint8_t prefix[12];
  put_u32(prefix, header.len);
  put_u64(prefix + 4, header.seq);
  std::uint32_t crc = crc32c_init();
  crc = crc32c_update(crc, prefix, 12);
  crc = crc32c_update(crc, payload.data(), payload.size());
  return crc32c_final(crc) == header.crc;
}

Bytes encode_hello(std::uint32_t sender) {
  Bytes hello(kHelloBytes);
  put_u32(hello.data(), kHelloMagic);
  put_u32(hello.data() + 4, sender);
  return hello;
}

std::optional<std::uint32_t> decode_hello(
    const std::uint8_t hello[kHelloBytes]) {
  if (get_u32(hello) != kHelloMagic) return std::nullopt;
  return get_u32(hello + 4);
}

ResilientChannel::ResilientChannel(ProcessId self, ProcessId peer, DialFn dial,
                                   Rng jitter_rng,
                                   std::unique_ptr<LinkFaultInjector> injector)
    : self_(self),
      peer_(peer),
      dial_(std::move(dial)),
      rng_(jitter_rng),
      injector_(std::move(injector)) {
  MODUBFT_EXPECTS(dial_ != nullptr);
}

ResilientChannel::~ResilientChannel() {
  shutdown();
  join();
}

void ResilientChannel::start() {
  MODUBFT_EXPECTS(!worker_.joinable());
  worker_ = std::thread([this] { thread_main(); });
}

void ResilientChannel::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
}

void ResilientChannel::join() {
  if (worker_.joinable()) worker_.join();
}

bool ResilientChannel::enqueue(Bytes payload) {
  return enqueue(std::make_shared<const Bytes>(std::move(payload)));
}

bool ResilientChannel::enqueue(PayloadPtr payload) {
  MODUBFT_EXPECTS(payload != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    if (queue_.size() >= kMaxQueuedFrames) {
      count(&ChannelStats::frames_dropped);
      return false;
    }
    queue_.push_back(QueuedFrame{std::move(payload), Clock::now()});
  }
  cv_.notify_one();
  return true;
}

void ResilientChannel::count(std::uint64_t ChannelStats::*counter,
                             std::uint64_t by) {
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.*counter += by;
}

ChannelStats ResilientChannel::stats() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  ChannelStats s = counters_;
  s.degraded = s.frames_dropped > 0 ? 1 : 0;
  return s;
}

void ResilientChannel::thread_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const auto now = Clock::now();
    const bool backlog = !queue_.empty() || !unacked_.empty();
    if (fd_ < 0 && backlog && next_dial_ > now) {
      // Backoff gate: nothing to do until the next dial is allowed.
      cv_.wait_until(lock,
                     std::min(next_dial_, now + std::chrono::milliseconds(100)),
                     [this] { return stop_; });
    } else {
      // Idle (or connected): wake on new frames, or tick to drain acks.
      cv_.wait_for(lock, std::chrono::milliseconds(20),
                   [this] { return stop_ || !queue_.empty(); });
    }
    if (stop_) break;
    expire_stale_locked(lock);

    const bool have_work = !queue_.empty() || !unacked_.empty();
    if (fd_ < 0) {
      if (!have_work) continue;
      if (!try_connect(lock)) continue;
    }
    lock.unlock();
    const bool alive = drain_acks();
    lock.lock();
    if (!alive) {
      drop_connection();
      continue;
    }
    transmit_pending(lock);
  }
  drop_connection();
}

void ResilientChannel::expire_stale_locked(std::unique_lock<std::mutex>&) {
  // Only never-transmitted frames may be dropped: once a frame consumed a
  // sequence number the receiver will not accept anything past it, so
  // dropping it would wedge the link instead of degrading it.
  const auto now = Clock::now();
  while (!queue_.empty() && now - queue_.front().enqueued > kSendTimeout) {
    queue_.pop_front();
    count(&ChannelStats::frames_dropped);
  }
}

bool ResilientChannel::try_connect(std::unique_lock<std::mutex>& lock) {
  if (Clock::now() < next_dial_) return false;
  lock.unlock();
  int fd = dial_();
  bool ok = false;
  std::uint64_t resume = 0;
  if (fd >= 0) {
    const Bytes hello = encode_hello(self_.value);
    ok = net_write_all(fd, hello.data(), hello.size());
    if (ok) {
      // Resume reply: the receiver's next expected sequence number.
      pollfd pfd{fd, POLLIN, 0};
      std::uint8_t buf[kAckBytes];
      std::size_t have = 0;
      const auto deadline = Clock::now() + kHandshakeTimeout;
      while (ok && have < kAckBytes) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(
                                                     left.count())) <= 0) {
          ok = false;
          break;
        }
        const ssize_t got = ::recv(fd, buf + have, kAckBytes - have, 0);
        if (got <= 0) {
          ok = false;
          break;
        }
        have += static_cast<std::size_t>(got);
      }
      if (ok) resume = get_u64(buf);
    }
  }
  lock.lock();
  if (stop_) {
    if (fd >= 0) ::close(fd);
    return false;
  }
  if (!ok) {
    if (fd >= 0) ::close(fd);
    count(&ChannelStats::dial_failures);
    const std::uint32_t exp = std::min(consecutive_dial_failures_, 20u);
    ++consecutive_dial_failures_;
    double backoff_ms =
        static_cast<double>(kBaseBackoff.count()) *
        std::pow(kBackoffMultiplier, static_cast<double>(exp));
    backoff_ms = std::min(
        backoff_ms, static_cast<double>(kMaxBackoff.count()));
    backoff_ms *= 1.0 + kBackoffJitter * (2.0 * rng_.next_double() - 1.0);
    next_dial_ = Clock::now() + std::chrono::microseconds(static_cast<
                     std::int64_t>(backoff_ms * 1000.0));
    return false;
  }
  consecutive_dial_failures_ = 0;
  if (ever_connected_) count(&ChannelStats::reconnects);
  ever_connected_ = true;
  fd_ = fd;
  ack_partial_len_ = 0;
  // Trim everything the receiver already has; retransmit the rest.
  acked_ = std::min(std::max(acked_, resume), next_seq_);
  while (!unacked_.empty() && unacked_.front().seq < acked_) {
    unacked_.pop_front();
  }
  next_unsent_ = 0;
  return true;
}

void ResilientChannel::transmit_pending(std::unique_lock<std::mutex>& lock) {
  while (!queue_.empty() && unacked_.size() < kMaxUnackedFrames) {
    QueuedFrame q = std::move(queue_.front());
    queue_.pop_front();
    UnackedFrame f;
    f.seq = next_seq_++;
    f.payload = std::move(q.payload);
    encode_frame_header(f.seq, *f.payload, f.header);
    unacked_.push_back(std::move(f));
  }
  lock.unlock();
  while (fd_ >= 0 && next_unsent_ < unacked_.size() && !stopping()) {
    UnackedFrame& f = unacked_[next_unsent_];
    const bool was_transmitted = f.transmitted;
    if (!write_frame(f)) {
      drop_connection();
      break;
    }
    if (was_transmitted) count(&ChannelStats::retransmits);
    f.transmitted = true;
    ++next_unsent_;
    if (!drain_acks()) {
      drop_connection();
      break;
    }
  }
  lock.lock();
}

bool ResilientChannel::write_frame(UnackedFrame& frame) {
  const Bytes& payload = *frame.payload;
  const std::size_t wire_size = frame.wire_size();
  FrameFaultDecision d;
  if (injector_) d = injector_->next_attempt(wire_size);
  if (d.delay_us > 0) {
    count(&ChannelStats::delays_injected);
    sleep_interruptible(std::chrono::microseconds(d.delay_us));
    if (stopping()) return false;
  }
  if (d.kill_before) {
    count(&ChannelStats::kills_injected);
    return false;
  }
  if (d.truncate) {
    count(&ChannelStats::truncates_injected);
    if (d.truncate_prefix > 0) {
      const std::size_t prefix =
          std::min<std::size_t>(d.truncate_prefix, wire_size);
      const std::size_t from_hdr =
          std::min<std::size_t>(prefix, kFrameHeaderBytes);
      if (net_write_all(fd_, frame.header, from_hdr) &&
          prefix > kFrameHeaderBytes) {
        net_write_all(fd_, payload.data(), prefix - kFrameHeaderBytes);
      }
    }
    return false;
  }
  if (d.flip || d.throttle_chunk > 0) {
    // Perturbed attempts materialize a private contiguous image: the
    // shared payload must never be mutated, and chaos configs are not
    // the path the copy elimination targets.
    Bytes img(frame.header, frame.header + kFrameHeaderBytes);
    img.insert(img.end(), payload.begin(), payload.end());
    if (d.flip) {
      count(&ChannelStats::flips_injected);
      img[d.flip_offset] ^= static_cast<std::uint8_t>(
          1u << (d.flip_offset % 8));
    }
    if (d.throttle_chunk > 0) {
      std::size_t off = 0;
      while (off < img.size()) {
        const std::size_t n = std::min<std::size_t>(d.throttle_chunk,
                                                    img.size() - off);
        if (!net_write_all(fd_, img.data() + off, n)) return false;
        off += n;
      }
    } else if (!net_write_all(fd_, img.data(), img.size())) {
      return false;
    }
  } else if (!net_write2_all(fd_, frame.header, kFrameHeaderBytes,
                             payload.data(), payload.size())) {
    return false;
  }
  count(&ChannelStats::frames_sent);
  count(&ChannelStats::bytes_sent, wire_size);
  return true;
}

bool ResilientChannel::drain_acks() {
  if (fd_ < 0) return false;
  std::uint8_t buf[256];
  for (;;) {
    const ssize_t got = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (got == 0) return false;  // receiver closed (likely CRC teardown)
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    for (ssize_t i = 0; i < got; ++i) {
      ack_partial_[ack_partial_len_++] = buf[i];
      if (ack_partial_len_ == kAckBytes) {
        ack_partial_len_ = 0;
        acked_ = std::max(acked_, get_u64(ack_partial_));
      }
    }
  }
  while (!unacked_.empty() && unacked_.front().seq < acked_) {
    unacked_.pop_front();
    if (next_unsent_ > 0) --next_unsent_;
  }
  return true;
}

void ResilientChannel::drop_connection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ack_partial_len_ = 0;
  next_unsent_ = 0;
}

void ResilientChannel::sleep_interruptible(std::chrono::microseconds d) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, d, [this] { return stop_; });
}

bool ResilientChannel::stopping() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

}  // namespace modubft::transport
