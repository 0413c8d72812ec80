// Tests for the TCP loopback cluster: framing, FIFO over real sockets,
// the consensus protocols end-to-end on the socket substrate, and the
// hardened hello/frame parsing against malformed peers.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "bft/bft_consensus.hpp"
#include "common/serial.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/byzantine.hpp"
#include "fd/oracle_fd.hpp"
#include "transport/resilient_channel.hpp"
#include "transport/tcp_cluster.hpp"

namespace modubft::transport {
namespace {

TEST(TcpCluster, FifoFramingOverSockets) {
  class Pinger final : public sim::Actor {
   public:
    Pinger(std::atomic<int>* done, int count) : done_(done), count_(count) {}
    void on_start(sim::Context& ctx) override {
      for (int i = 0; i < count_; ++i) {
        Writer w;
        w.u32(static_cast<std::uint32_t>(i));
        // Vary sizes to exercise partial reads and coalesced writes.
        w.raw(Bytes(static_cast<std::size_t>(i % 97), 0xab));
        ctx.send(ProcessId{1}, std::move(w).take());
      }
    }
    void on_message(sim::Context& ctx, ProcessId, const Bytes& payload) override {
      Reader r(payload);
      EXPECT_EQ(r.u32(), 0xdeadbeefu);
      done_->store(1);
      ctx.stop();
    }
   private:
    std::atomic<int>* done_;
    int count_;
  };

  class Checker final : public sim::Actor {
   public:
    explicit Checker(int count) : count_(count) {}
    void on_message(sim::Context& ctx, ProcessId from, const Bytes& payload) override {
      if (from != ProcessId{0}) return;
      Reader r(payload);
      EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(next_)) << "FIFO broken";
      EXPECT_EQ(r.remaining(), static_cast<std::size_t>(next_ % 97));
      ++next_;
      if (next_ == count_) {
        Writer w;
        w.u32(0xdeadbeef);
        ctx.send(ProcessId{0}, std::move(w).take());
        ctx.stop();
      }
    }
   private:
    int count_;
    int next_ = 0;
  };

  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(8000);
  TcpCluster cluster(cfg);
  std::atomic<int> done{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<Pinger>(&done, 500));
  cluster.set_actor(ProcessId{1}, std::make_unique<Checker>(500));
  EXPECT_TRUE(cluster.run());
  EXPECT_EQ(done.load(), 1);
  EXPECT_GE(cluster.link_stats().frames_sent, 501u);
}

TEST(TcpCluster, HurfinRaynalOverSockets) {
  constexpr std::uint32_t kN = 5;
  TcpClusterConfig cfg;
  cfg.n = kN;
  cfg.budget = std::chrono::milliseconds(10'000);
  TcpCluster cluster(cfg);

  std::mutex mu;
  std::map<std::uint32_t, consensus::Decision> decisions;
  auto detector = std::make_shared<fd::OracleDetector>(
      std::vector<std::optional<SimTime>>(kN, std::nullopt),
      fd::OracleConfig{});

  for (std::uint32_t i = 0; i < kN; ++i) {
    cluster.set_actor(
        ProcessId{i},
        std::make_unique<consensus::HurfinRaynalActor>(
            kN, 700 + i, detector,
            [&mu, &decisions, i](ProcessId, const consensus::Decision& d) {
              std::lock_guard<std::mutex> lock(mu);
              decisions.emplace(i, d);
            }));
  }
  EXPECT_TRUE(cluster.run());
  ASSERT_EQ(decisions.size(), kN);
  for (auto& [i, d] : decisions) {
    EXPECT_EQ(d.value, decisions.begin()->second.value);
  }
}

TEST(TcpCluster, BftConsensusOverSockets) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 33);

  bft::BftConfig proto;
  proto.n = kN;
  proto.f = 1;
  proto.muteness.initial_timeout = 1'000'000;  // wall clock: be generous
  proto.suspicion_poll_period = 100'000;

  TcpClusterConfig cfg;
  cfg.n = kN;
  cfg.budget = std::chrono::milliseconds(10'000);
  TcpCluster cluster(cfg);

  std::mutex mu;
  std::map<std::uint32_t, bft::VectorDecision> decisions;
  for (std::uint32_t i = 0; i < kN; ++i) {
    cluster.set_actor(
        ProcessId{i},
        std::make_unique<bft::BftProcess>(
            proto, 800 + i, keys.signers[i].get(), keys.verifier,
            [&mu, &decisions, i](ProcessId, const bft::VectorDecision& d) {
              std::lock_guard<std::mutex> lock(mu);
              decisions.emplace(i, d);
            }));
  }
  EXPECT_TRUE(cluster.run());
  ASSERT_EQ(decisions.size(), kN);
  const auto& ref = decisions.begin()->second.entries;
  for (auto& [i, d] : decisions) EXPECT_EQ(d.entries, ref);
}

TEST(TcpCluster, ByzantineCorrupterOverSockets) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 37);

  bft::BftConfig proto;
  proto.n = kN;
  proto.f = 1;
  proto.muteness.initial_timeout = 1'000'000;
  proto.suspicion_poll_period = 100'000;

  TcpClusterConfig cfg;
  cfg.n = kN;
  cfg.budget = std::chrono::milliseconds(10'000);
  TcpCluster cluster(cfg);

  std::mutex mu;
  std::map<std::uint32_t, bft::VectorDecision> decisions;
  for (std::uint32_t i = 0; i < kN; ++i) {
    auto proc = std::make_unique<bft::BftProcess>(
        proto, 800 + i, keys.signers[i].get(), keys.verifier,
        [&mu, &decisions, i](ProcessId, const bft::VectorDecision& d) {
          std::lock_guard<std::mutex> lock(mu);
          decisions.emplace(i, d);
        });
    if (i == 0) {
      faults::FaultSpec spec;
      spec.who = ProcessId{0};
      spec.behavior = faults::Behavior::kCorruptVector;
      cluster.set_actor(ProcessId{0},
                        std::make_unique<faults::ByzantineActor>(
                            std::move(proc), keys.signers[0].get(), spec, kN));
    } else {
      cluster.set_actor(ProcessId{i}, std::move(proc));
    }
  }
  cluster.run();
  std::lock_guard<std::mutex> lock(mu);
  for (std::uint32_t i = 1; i < kN; ++i) {
    ASSERT_TRUE(decisions.count(i)) << "p" << i + 1 << " did not decide";
  }
  for (std::uint32_t i = 2; i < kN; ++i) {
    EXPECT_EQ(decisions.at(i).entries, decisions.at(1).entries);
  }
}

// Actor that idles for a while and then stops — gives a hostile test
// thread time to poke the node's wire protocol directly.
class IdleActor final : public sim::Actor {
 public:
  explicit IdleActor(SimTime linger_us) : linger_us_(linger_us) {}
  void on_start(sim::Context& ctx) override { ctx.set_timer(linger_us_); }
  void on_timer(sim::Context& ctx, std::uint64_t) override { ctx.stop(); }
  void on_message(sim::Context&, ProcessId, const Bytes&) override {}

 private:
  SimTime linger_us_;
};

int dial_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(TcpCluster, MalformedPeersAreRejectedCleanly) {
  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(8'000);
  TcpCluster cluster(cfg);
  cluster.set_actor(ProcessId{0}, std::make_unique<IdleActor>(400'000));
  cluster.set_actor(ProcessId{1}, std::make_unique<IdleActor>(400'000));

  std::thread hostile([&cluster] {
    // Wait for p1's listen socket to come up.
    std::uint16_t port = 0;
    for (int i = 0; i < 1'000 && port == 0; ++i) {
      port = cluster.port(ProcessId{0});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_NE(port, 0);

    // 1. Garbage magic.
    int fd = dial_loopback(port);
    ASSERT_GE(fd, 0);
    const std::uint8_t junk[8] = {0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4};
    ASSERT_TRUE(net_write_all(fd, junk, sizeof junk));
    ::close(fd);

    // 2. Valid magic, out-of-range sender id.
    fd = dial_loopback(port);
    ASSERT_GE(fd, 0);
    const Bytes bad_id = encode_hello(7);  // n = 2: ids are 0 and 1
    ASSERT_TRUE(net_write_all(fd, bad_id.data(), bad_id.size()));
    ::close(fd);

    // 3. A node must not accept a hello claiming to be itself.
    fd = dial_loopback(port);
    ASSERT_GE(fd, 0);
    const Bytes self_id = encode_hello(0);
    ASSERT_TRUE(net_write_all(fd, self_id.data(), self_id.size()));
    ::close(fd);

    // 4. Valid hello, then a frame whose length exceeds max_frame_bytes.
    fd = dial_loopback(port);
    ASSERT_GE(fd, 0);
    const Bytes hello = encode_hello(1);
    ASSERT_TRUE(net_write_all(fd, hello.data(), hello.size()));
    std::uint8_t resume[kAckBytes];
    ASSERT_TRUE(net_read_exact(fd, resume, kAckBytes));
    std::uint8_t huge_hdr[kFrameHeaderBytes] = {};
    huge_hdr[0] = 0xff;  // len = 0xffffffff
    huge_hdr[1] = 0xff;
    huge_hdr[2] = 0xff;
    huge_hdr[3] = 0xff;
    ASSERT_TRUE(net_write_all(fd, huge_hdr, kFrameHeaderBytes));
    ::close(fd);
  });

  EXPECT_TRUE(cluster.run());
  hostile.join();

  const std::vector<std::string> errors = cluster.errors(ProcessId{0});
  ASSERT_GE(errors.size(), 3u);
  const TcpLinkStats stats = cluster.link_stats();
  EXPECT_GE(stats.malformed_hellos, 3u);
  bool saw_oversize = false;
  for (const std::string& e : errors) {
    if (e.find("max_frame_bytes") != std::string::npos) saw_oversize = true;
  }
  EXPECT_TRUE(saw_oversize) << "oversized frame was not reported";
  // The malformed connections must not have hurt p0's own state.
  EXPECT_TRUE(cluster.unstopped().empty());
}

TEST(TcpCluster, BudgetExpiryReportsUnstoppedNodes) {
  class NeverStops final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override {
      ctx.set_timer(60'000'000);  // a timer far beyond the budget
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };

  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(150);
  TcpCluster cluster(cfg);
  cluster.set_actor(ProcessId{0}, std::make_unique<IdleActor>(1'000));
  cluster.set_actor(ProcessId{1}, std::make_unique<NeverStops>());
  EXPECT_FALSE(cluster.run());
  const std::vector<ProcessId> hung = cluster.unstopped();
  ASSERT_EQ(hung.size(), 1u);
  EXPECT_EQ(hung[0], ProcessId{1});
  EXPECT_TRUE(cluster.stopped(ProcessId{0}));
}

// --- crash_after / stats / delivery-tap parity with the other runtimes --

TEST(TcpCluster, CrashAfterSilencesNode) {
  class Chatter final : public sim::Actor {
   public:
    explicit Chatter(std::atomic<int>* received) : received_(received) {}
    void on_start(sim::Context& ctx) override { ctx.set_timer(5'000); }
    void on_timer(sim::Context& ctx, std::uint64_t) override {
      ctx.broadcast({1});
      ctx.set_timer(5'000);
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {
      ++*received_;
    }
   private:
    std::atomic<int>* received_;
  };

  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(600);
  TcpCluster cluster(cfg);
  std::atomic<int> a{0}, b{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<Chatter>(&a));
  cluster.set_actor(ProcessId{1}, std::make_unique<Chatter>(&b));
  cluster.crash_after(ProcessId{1}, std::chrono::microseconds(150'000));
  cluster.run();  // budget expiry expected (p1 chats forever)
  // p2 crashed a quarter of the way in: it stopped receiving and sending,
  // so it saw far less traffic than the survivor.
  EXPECT_GT(b.load(), 0);
  EXPECT_LT(b.load(), a.load());
  // The crash victim is not an unstopped straggler — only genuinely hung
  // nodes get named.
  for (ProcessId id : cluster.unstopped()) EXPECT_NE(id, ProcessId{1});
}

TEST(TcpCluster, StatsAndTapCountDeliveries) {
  class Sender final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override {
      for (int i = 0; i < 8; ++i) ctx.send(ProcessId{1}, {7, 7});
      ctx.stop();
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };
  class Sink final : public sim::Actor {
   public:
    void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
      if (++seen_ == 8) ctx.stop();
    }
   private:
    int seen_ = 0;
  };

  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(5000);
  TcpCluster cluster(cfg);
  int taps = 0;
  bool shape_ok = true;
  cluster.set_delivery_tap([&](const sim::Delivery& d) {
    ++taps;
    shape_ok = shape_ok && d.from == ProcessId{0} && d.to == ProcessId{1} &&
               d.size == 2 && d.payload != nullptr;
  });
  cluster.set_actor(ProcessId{0}, std::make_unique<Sender>());
  cluster.set_actor(ProcessId{1}, std::make_unique<Sink>());
  EXPECT_TRUE(cluster.run());

  EXPECT_EQ(taps, 8);
  EXPECT_TRUE(shape_ok);
  const sim::Stats stats = cluster.stats();
  EXPECT_EQ(stats.messages_sent, 8u);
  EXPECT_EQ(stats.messages_delivered, 8u);
  EXPECT_EQ(stats.bytes_sent, 16u);  // protocol bytes, not wire bytes
  // The wire adds framing.
  EXPECT_GE(cluster.link_stats().bytes_sent, stats.bytes_sent);
}

TEST(TcpCluster, FrameCodecRoundTripsAndCatchesCorruption) {
  const Bytes payload = bytes_of("frame body with some entropy 0123456789");
  const Bytes wire = encode_frame(41, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());
  const FrameHeader h = decode_frame_header(wire.data());
  EXPECT_EQ(h.len, payload.size());
  EXPECT_EQ(h.seq, 41u);
  EXPECT_TRUE(verify_frame_crc(h, payload));

  Bytes corrupted = payload;
  corrupted[5] ^= 0x01;
  EXPECT_FALSE(verify_frame_crc(h, corrupted));

  FrameHeader bad_seq = h;
  bad_seq.seq = 42;
  EXPECT_FALSE(verify_frame_crc(bad_seq, payload));

  FrameHeader bad_len = h;
  bad_len.len = h.len - 1;
  EXPECT_FALSE(verify_frame_crc(bad_len, Bytes(payload.begin(),
                                               payload.end() - 1)));
}

}  // namespace
}  // namespace modubft::transport
