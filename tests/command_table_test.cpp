// Tests for smr::CommandTable, the one owner of each command's state.
//
// The load-bearing property: everything derived from the committed set
// (the admission queue, the per-client committed counts, the proposable
// ids) is the same whether a table reached that set step by step, through
// random admit/claim/release/commit sequences, or installed it from a
// snapshot.  A restarted replica relies on it: after a snapshot install it
// must queue, count and propose exactly what a replica that never crashed
// does.  The same sequences also check the table's pending index, after
// every step, against the walk over every held body that it replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "smr/checkpoint.hpp"
#include "smr/command_table.hpp"

namespace modubft::smr {
namespace {

constexpr std::uint32_t kFirstClient = 4;  // replicas [0, 4)
constexpr std::uint32_t kClients = 3;      // clients [4, 7)
constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

Command put(std::uint64_t id) {
  return Command{id, Command::Op::kPut, "k" + std::to_string(id % 7),
                 "v" + std::to_string(id)};
}

/// A random id: a workload id, a configured client's command, or a
/// command of the process just past the client range (never queued).
std::uint64_t random_id(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0:
      return 1 + rng.next_below(30);
    case 1:
      return make_client_cmd_id(
          kFirstClient + static_cast<std::uint32_t>(rng.next_below(kClients)),
          1 + rng.next_below(12));
    default:
      return make_client_cmd_id(kFirstClient + kClients,
                                1 + rng.next_below(4));
  }
}

/// The walk the pending index replaced: every held id in increasing
/// order, skipping the committed ones and, for `proposable`, the claimed
/// ones.  It keeps its own held, committed and claimed sets.
struct ReferenceWalk {
  std::set<std::uint64_t> held;
  std::set<std::uint64_t> committed;
  std::map<std::uint64_t, std::vector<std::uint64_t>> claims;  // slot → ids

  std::vector<std::uint64_t> walk(std::size_t limit, bool skip_claimed) const {
    std::set<std::uint64_t> claimed;
    for (const auto& [slot, ids] : claims) {
      claimed.insert(ids.begin(), ids.end());
    }
    std::vector<std::uint64_t> out;
    for (std::uint64_t id : held) {
      if (out.size() >= limit) break;
      if (committed.count(id) > 0 ||
          (skip_claimed && claimed.count(id) > 0)) {
        continue;
      }
      out.push_back(id);
    }
    return out;
  }
};

void expect_matches_walk(const CommandTable& live, const ReferenceWalk& ref,
                         std::uint64_t seed, int step) {
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, kAll}) {
    EXPECT_EQ(live.proposable(k), ref.walk(k, /*skip_claimed=*/true))
        << "seed " << seed << " step " << step << " k " << k;
    EXPECT_EQ(live.uncommitted(k), ref.walk(k, /*skip_claimed=*/false))
        << "seed " << seed << " step " << step << " k " << k;
  }
  EXPECT_EQ(live.has_proposable(), !ref.walk(1, true).empty())
      << "seed " << seed << " step " << step;
}

TEST(CommandTable, IncrementalAndInstalledTablesAgree) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    CommandTable live(kFirstClient, kClients);
    ReferenceWalk ref;
    std::vector<std::pair<Command, Bytes>> bodies;  // admission order
    std::uint64_t next_slot = 0;
    for (int step = 0; step < 300; ++step) {
      switch (rng.next_below(4)) {
        case 0: {
          const Command cmd = put(random_id(rng));
          const Bytes sig = rng.next_below(2) == 0 ? Bytes{} : Bytes{0x5a};
          std::optional<std::uint32_t> origin;
          if (rng.next_below(2) == 0) {
            origin = static_cast<std::uint32_t>(rng.next_below(kFirstClient));
          }
          live.admit(cmd, sig, origin);
          ref.held.insert(cmd.id);
          bodies.emplace_back(cmd, sig);
          break;
        }
        case 1: {
          const std::size_t width = 1 + rng.next_below(3);
          std::vector<std::uint64_t> ids = ref.walk(width, true);
          EXPECT_EQ(live.claim(next_slot, width), ids.empty() ? 0 : ids[0])
              << "seed " << seed << " step " << step;
          if (!ids.empty()) ref.claims.emplace(next_slot, std::move(ids));
          ++next_slot;
          break;
        }
        case 2: {
          const std::uint64_t below = rng.next_below(next_slot + 1);
          live.release_below(below);
          ref.claims.erase(ref.claims.begin(), ref.claims.lower_bound(below));
          break;
        }
        default: {
          const std::uint64_t id = random_id(rng);
          const bool fresh =
              ref.held.count(id) > 0 && ref.committed.count(id) == 0;
          EXPECT_EQ(live.commit(id) != nullptr, fresh) << "seed " << seed;
          EXPECT_EQ(live.commit(id), nullptr) << "seed " << seed;
          if (fresh) ref.committed.insert(id);
          break;
        }
      }
      expect_matches_walk(live, ref, seed, step);
    }

    CommandTable installed(kFirstClient, kClients);
    for (const auto& [cmd, sig] : bodies) {
      installed.admit(cmd, sig, std::nullopt);
    }
    installed.install(live.committed_ids());

    live.release_below(next_slot);  // a fresh table holds no claims
    EXPECT_EQ(installed.committed_ids(), live.committed_ids());
    EXPECT_EQ(installed.queue(), live.queue()) << "seed " << seed;
    for (std::uint32_t c = kFirstClient; c <= kFirstClient + kClients; ++c) {
      EXPECT_EQ(installed.committed_count(c), live.committed_count(c))
          << "seed " << seed << " client " << c;
    }
    EXPECT_EQ(installed.proposable(kAll), live.proposable(kAll))
        << "seed " << seed;
    EXPECT_EQ(installed.uncommitted(kAll), live.uncommitted(kAll));
    for (const auto& [cmd, sig] : bodies) {
      ASSERT_NE(installed.body(cmd.id), nullptr);
      EXPECT_EQ(*installed.body(cmd.id), *live.body(cmd.id));
      EXPECT_EQ(installed.sig(cmd.id) == nullptr,
                live.sig(cmd.id) == nullptr);
    }
  }
}

TEST(CommandTable, FirstBodyWinsAndOnlyUncommittedClientCommandsQueue) {
  CommandTable t(kFirstClient, kClients);
  const std::uint64_t c1 = make_client_cmd_id(kFirstClient, 1);
  EXPECT_FALSE(t.admit(put(7), Bytes{}, std::nullopt));  // workload id
  EXPECT_TRUE(t.admit(put(c1), Bytes{0x01}, std::nullopt));
  Command other = put(c1);
  other.value = "forged";
  EXPECT_FALSE(t.admit(other, Bytes{0x02}, std::uint32_t{1}));
  EXPECT_EQ(t.body(c1)->value, put(c1).value);
  EXPECT_EQ(*t.sig(c1), Bytes{0x01});
  EXPECT_EQ(t.sig(7), nullptr);  // admitted without a signature
  EXPECT_EQ(t.origin_load(1), 0u);
  EXPECT_EQ(t.queue(), (std::set<std::uint64_t>{c1}));

  ASSERT_NE(t.commit(c1), nullptr);
  EXPECT_TRUE(t.queue().empty());
  EXPECT_EQ(t.committed_count(kFirstClient), 1u);
  // A body that arrives after its commit (a fetch for a replay) is held
  // but never queued.
  const std::uint64_t c2 = make_client_cmd_id(kFirstClient + 1, 1);
  t.install({c1, c2});
  EXPECT_FALSE(t.admit(put(c2), Bytes{}, std::uint32_t{2}));
  EXPECT_TRUE(t.queue().empty());
  EXPECT_EQ(t.origin_load(2), 0u);
  EXPECT_EQ(t.committed_count(kFirstClient + 1), 1u);
}

TEST(CommandTable, RelayChargesFollowTheQueue) {
  CommandTable t(kFirstClient, kClients);
  const std::uint64_t a = make_client_cmd_id(kFirstClient, 1);
  const std::uint64_t b = make_client_cmd_id(kFirstClient, 2);
  EXPECT_TRUE(t.admit(put(a), Bytes{}, std::uint32_t{2}));
  EXPECT_TRUE(t.admit(put(b), Bytes{}, std::uint32_t{2}));
  EXPECT_EQ(t.origin_load(2), 2u);
  ASSERT_NE(t.commit(a), nullptr);
  EXPECT_EQ(t.origin_load(2), 1u);
  // The snapshot carries no origins: the charges restart from zero while
  // the still-uncommitted command stays queued.
  t.install({a});
  EXPECT_EQ(t.origin_load(2), 0u);
  EXPECT_EQ(t.queue(), (std::set<std::uint64_t>{b}));
  ASSERT_NE(t.commit(b), nullptr);
  EXPECT_EQ(t.origin_load(2), 0u);
}

TEST(CommandTable, ClaimsAreDisjointUntilReleased) {
  CommandTable t(kFirstClient, kClients);
  for (std::uint64_t id = 1; id <= 5; ++id) t.admit(put(id), Bytes{}, {});
  EXPECT_EQ(t.claim(0, 2), 1u);  // claims 1, 2
  EXPECT_EQ(t.claim(1, 2), 3u);  // claims 3, 4
  EXPECT_EQ(t.proposable(kAll), (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(t.uncommitted(2), (std::vector<std::uint64_t>{1, 2}));
  ASSERT_NE(t.commit(5), nullptr);
  EXPECT_FALSE(t.has_proposable());
  EXPECT_EQ(t.claim(2, 2), 0u);  // nothing left: a no-op proposal
  t.release_below(1);            // slot 0's claims return
  EXPECT_EQ(t.proposable(kAll), (std::vector<std::uint64_t>{1, 2}));
  t.release_below(3);
  EXPECT_EQ(t.proposable(kAll), (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace modubft::smr
