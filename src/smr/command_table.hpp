// The replica's command table: the one owner of each command's state.
//
// A command id moves through four states, and this unit is the only code
// that moves it:
//
//   admitted  — a body is stored (preloaded, a client REQUEST, or a peer's
//               CMD_RELAY), with the client's signature when it carried
//               one.  A client command that is not committed also joins
//               the admission queue, charged to the relaying peer if any;
//   claimed   — a local proposal heuristic anchored it to an in-flight
//               slot, so concurrent slots propose disjoint ids;
//   committed — applied by a slot: it leaves the queue, frees its relay
//               charge and counts toward its client's committed seqs;
//   installed — a certified snapshot replaced the committed set, and the
//               queue and the per-client counts were rebuilt from it.
//
// Everything derived (the pending index, the queue, the per-client
// counts, the per-origin charges) is rebuilt by `install` from the bodies
// and the committed set, so a table that reached a committed set step by
// step and one that installed it agree on the queue, the counts and the
// proposable ids (tests/command_table_test.cpp).
//
// The pending index is the ordered set of held, uncommitted ids: `admit`
// inserts, `commit` erases, `install` rebuilds.  `proposable` and
// `uncommitted` walk it from the front, so their cost does not grow with
// the run.  `proposable` skips the claimed ids, and the replica releases
// every claim below its frontier on each commit, so only the claims of
// the W in-flight slots remain: a call visits at most W x B + `limit`
// ids, whatever the number of commands admitted so far.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "smr/command.hpp"

namespace modubft::smr {

class CommandTable {
 public:
  /// Client command ids name a client in [first_client, first_client +
  /// clients); other ids are workload ids and never queue.
  CommandTable(std::uint32_t first_client, std::uint32_t clients)
      : first_client_(first_client), clients_(clients) {}

  /// Stores `cmd` unless a body for its id is already held (first write
  /// wins).  A client command that is not committed joins the admission
  /// queue, charged to `origin` when a peer relayed it.  Returns true iff
  /// the id joined the queue.
  bool admit(Command cmd, Bytes sig, std::optional<std::uint32_t> origin);

  /// Commits `id`.  Returns its body, or nullptr (and changes nothing)
  /// when the body is unknown or the id is already committed.
  const Command* commit(std::uint64_t id);

  /// Claims up to `width` proposable ids, smallest first, for `slot`, and
  /// returns the first of them (0 when nothing is proposable).
  std::uint64_t claim(std::uint64_t slot, std::size_t width);
  /// Drops the claims of every slot below `slot`.
  void release_below(std::uint64_t slot);

  /// Replaces the committed set with a certified snapshot's and rebuilds
  /// the queue and the per-client counts from it.  Relay charges restart
  /// from zero: the origins of earlier admissions are not in a snapshot.
  void install(std::set<std::uint64_t> ids);

  /// Up to `limit` ids, smallest first, that are neither committed nor
  /// claimed.
  std::vector<std::uint64_t> proposable(std::size_t limit) const;
  bool has_proposable() const { return !proposable(1).empty(); }
  /// Up to `limit` uncommitted ids, smallest first, claimed or not.
  std::vector<std::uint64_t> uncommitted(std::size_t limit) const;

  const Command* body(std::uint64_t id) const;
  /// The client signature stored with the body; nullptr when it had none.
  const Bytes* sig(std::uint64_t id) const;
  bool committed(std::uint64_t id) const { return committed_.count(id) > 0; }
  const std::set<std::uint64_t>& committed_ids() const { return committed_; }
  /// Committed seqs of `client`: the anchor of the eligibility window.
  std::uint64_t committed_count(std::uint32_t client) const;
  /// Admitted client commands not yet committed.
  const std::set<std::uint64_t>& queue() const { return queue_; }
  /// Queued commands that peer `origin` relayed.
  std::uint64_t origin_load(std::uint32_t origin) const;

 private:
  struct Entry {
    Command cmd;
    Bytes sig;
  };

  bool is_client_cmd(std::uint64_t id) const;
  std::vector<std::uint64_t> scan(std::size_t limit, bool skip_claimed) const;

  std::uint32_t first_client_;
  std::uint32_t clients_;
  std::map<std::uint64_t, Entry> bodies_;
  std::set<std::uint64_t> committed_;
  std::set<std::uint64_t> pending_;  // held and not committed
  std::map<std::uint32_t, std::uint64_t> committed_count_;
  std::set<std::uint64_t> queue_;
  std::map<std::uint64_t, std::uint32_t> relay_origin_;  // queued id → peer
  std::map<std::uint32_t, std::uint64_t> origin_load_;
  std::set<std::uint64_t> claimed_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> claims_;  // slot → ids
};

}  // namespace modubft::smr
