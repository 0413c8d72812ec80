// E16 — adversarial campaign engine overhead.
//
// Three costs matter for the campaign to be usable as a routine sweep:
//
//   * mutate_frame throughput — the fuzzer sits on the hot send path of a
//     fuzzed process, so a mutation must cost little more than the frame
//     copy it starts from;
//
//   * SafetyAuditor::observe — the auditor taps *every* delivery on every
//     substrate; decode + signature verification dominates, and the bench
//     reports frames/s so the tap budget for wall-clock substrates is
//     explicit;
//
//   * end-to-end audited cells per second — the grid's real currency,
//     measured by running a full attack cell (scenario + fuzzer + auditor)
//     on the simulator.
#include <benchmark/benchmark.h>

#include "adversary/attack.hpp"
#include "adversary/auditor.hpp"
#include "adversary/campaign.hpp"
#include "adversary/fuzzer.hpp"
#include "bft/message.hpp"
#include "common/rng.hpp"
#include "crypto/hmac_signer.hpp"

namespace {

using namespace modubft;

bft::SignedMessage sample_message(const crypto::SignatureSystem& keys) {
  bft::Certificate inits;
  for (std::uint32_t i = 0; i < 3; ++i) {
    bft::SignedMessage m;
    m.core.kind = bft::BftKind::kInit;
    m.core.sender = ProcessId{i};
    m.core.round = Round{0};
    m.core.init_value = 1000 + i;
    m.sig = keys.signers[i]->sign(bft::signing_bytes(m.core, m.cert));
    inits.add(std::move(m));
  }
  bft::SignedMessage current;
  current.core.kind = bft::BftKind::kCurrent;
  current.core.sender = ProcessId{0};
  current.core.round = Round{1};
  current.core.est = {1000, 1001, 1002, std::nullopt};
  current.cert = std::move(inits);
  current.sig = keys.signers[0]->sign(
      bft::signing_bytes(current.core, current.cert));
  return current;
}

void BM_MutateFrame(benchmark::State& state) {
  const crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 42);
  const Bytes frame = bft::encode_message(sample_message(keys));
  adversary::MutationSpec spec;
  spec.bitflip_prob = 0.5;
  spec.truncate_prob = 0.2;
  spec.splice_prob = 0.5;
  Rng rng(7);

  for (auto _ : state) {
    benchmark::DoNotOptimize(adversary::mutate_frame(frame, rng, spec));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * frame.size()));
}
BENCHMARK(BM_MutateFrame);

void BM_AuditorObserve(benchmark::State& state) {
  const std::uint32_t n = 4;
  const crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(n, 42);
  const Bytes frame = bft::encode_message(sample_message(keys));

  // A representative mix: mostly valid frames, some fuzzer garbage.
  adversary::MutationSpec spec;
  spec.bitflip_prob = 1.0;
  Rng rng(9);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 64; ++i) {
    payloads.push_back(i % 4 == 0 ? adversary::mutate_frame(frame, rng, spec)
                                  : frame);
  }

  adversary::SafetyAuditor auditor(
      adversary::AuditorConfig{n, 1, keys.verifier});
  std::size_t next = 0;
  for (auto _ : state) {
    sim::Delivery d;
    d.from = ProcessId{0};
    d.to = ProcessId{1};
    d.payload = &payloads[next++ % payloads.size()];
    auditor.observe(d);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AuditorObserve);

void BM_AuditedAttackCell(benchmark::State& state) {
  const std::uint32_t n = 4, f = 1;
  const std::vector<adversary::AttackSpec> catalog =
      adversary::attack_catalog(n, f);
  const adversary::AttackSpec* attack =
      adversary::find_attack(catalog, state.range(0) == 0 ? "none"
                                                         : "fuzz-storm");
  std::uint64_t seed = 1;
  benchmark::IterationCount passed = 0;
  for (auto _ : state) {
    const adversary::CellOutcome cell = adversary::run_attack_cell(
        n, f, *attack, runtime::Backend::kSim, seed++,
        std::chrono::milliseconds(20'000));
    passed += cell.pass() ? 1 : 0;
  }
  if (passed != state.iterations()) {
    state.SkipWithError("audited cell failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(attack->name);
}
BENCHMARK(BM_AuditedAttackCell)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
