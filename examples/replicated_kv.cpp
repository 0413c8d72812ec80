// Replicated key-value store on Byzantine vector consensus.
//
// The downstream application the paper motivates: four replicas order a
// stream of client commands through repeated instances of the transformed
// protocol; one replica is silenced (Byzantine-mute).  All correct replicas
// converge to the same store contents.
//
//   ./examples/replicated_kv [seed]
#include <cstdlib>
#include <iostream>

#include "crypto/hmac_signer.hpp"
#include "sim/simulation.hpp"
#include "smr/replica.hpp"

int main(int argc, char** argv) {
  using namespace modubft;
  using smr::Command;

  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4;
  constexpr std::uint32_t kN = 4;

  const std::vector<Command> workload = {
      {1, Command::Op::kPut, "user:alice", "admin"},
      {2, Command::Op::kPut, "user:bob", "guest"},
      {3, Command::Op::kPut, "quota", "100"},
      {4, Command::Op::kPut, "user:bob", "member"},
      {5, Command::Op::kDel, "quota", ""},
      {6, Command::Op::kPut, "user:carol", "guest"},
  };

  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, seed);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = seed;
  sim::Simulation world(sim_cfg);

  bft::BftConfig bft_cfg;
  bft_cfg.n = kN;
  bft_cfg.f = 1;

  std::vector<smr::Replica*> replicas(kN, nullptr);
  for (std::uint32_t i = 0; i < kN; ++i) {
    smr::ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = smr::Backend::kByzantine;
    cfg.bft = bft_cfg;
    cfg.signer = keys.signers[i].get();
    cfg.verifier = keys.verifier;

    smr::CommitFn on_commit;
    if (i == 0) {
      on_commit = [](InstanceId slot, const Command* cmd,
                     const smr::KvStore&) {
        std::cout << "  slot " << slot.value << ": ";
        if (cmd == nullptr) {
          std::cout << "(no-op)\n";
        } else if (cmd->op == Command::Op::kPut) {
          std::cout << "PUT " << cmd->key << " = " << cmd->value << "\n";
        } else {
          std::cout << "DEL " << cmd->key << "\n";
        }
      };
    }

    auto replica = std::make_unique<smr::Replica>(cfg, workload, on_commit);
    replicas[i] = replica.get();
    world.set_actor(ProcessId{i}, std::move(replica));
  }
  // p4 is Byzantine-silent for the whole run.
  world.crash_at(ProcessId{3}, 0);

  std::cout << "Replicated KV store: n=4 (p4 silent), " << workload.size()
            << " commands, seed=" << seed << "\n\ncommit log (replica p1):\n";
  world.run();

  std::cout << "\nfinal state per correct replica:\n";
  bool converged = true;
  for (std::uint32_t i = 0; i < 3; ++i) {
    std::cout << "  p" << (i + 1) << ": {";
    bool first = true;
    for (const auto& [k, v] : replicas[i]->store().contents()) {
      if (!first) std::cout << ", ";
      std::cout << k << ": " << v;
      first = false;
    }
    std::cout << "}  (" << replicas[i]->committed_slots() << " slots)\n";
    converged = converged &&
                replicas[i]->store().contents() ==
                    replicas[0]->store().contents();
  }
  std::cout << "\nreplicas converged: " << (converged ? "yes" : "NO") << "\n";
  return converged ? 0 : 1;
}
