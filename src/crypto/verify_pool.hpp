// Parallel signature-verification pool.
//
// Certificate analysis is embarrassingly parallel at the member level:
// every member's (signer, signing-bytes, signature) triple is checked
// independently, and on the wall-clock substrates those checks dominate
// per-message latency once the protocol work itself is cheap (PR 2's
// fast path).  VerifyPool is a fixed pool of worker threads executing
// boolean verification closures so a batch of member checks runs across
// cores instead of serially on the receiving actor's thread.
//
// Design constraints, in order:
//
//   * Determinism on the simulator.  A pool constructed with 0 workers
//     executes every job synchronously on the calling thread, in
//     submission order — byte-for-byte the single-threaded behaviour the
//     deterministic substrate requires.  A single-job batch also runs
//     inline regardless of pool size (dispatch would only add latency).
//   * Memoization safety.  The Certificate digest memos are intentionally
//     unsynchronized (one actor owns a certificate at a time), so callers
//     must materialize every digest a job can touch *before* submitting
//     it; jobs then only read.  CertAnalyzer::warm_certificate follows
//     this discipline.
//   * Layering.  crypto/ sits below bft/, so the pool knows nothing about
//     certificates: jobs are plain `std::function<bool()>` closures.  The
//     same pool is shared by many processes (one per scenario run), so
//     verify_all supports concurrent callers.
//
// verify_all blocks until every job of the batch completed; the calling
// thread participates (it drains the shared queue while waiting), so a
// pool of k workers gives k+1-way parallelism and a batch can never
// deadlock waiting for a busy pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.hpp"

namespace modubft::crypto {

/// Pool counters, exposed for runtime::RunStats, benchmarks and tests.
/// A run has at most one pool, shared by its processes.
struct VerifyPoolStats {
  std::uint64_t pool_batches = 0;  // verify_all calls (incl. verify_one)
  std::uint64_t pool_jobs = 0;     // closures executed
  std::uint64_t pool_inline_jobs = 0;  // executed on the submitting thread
  std::uint64_t pool_dispatched = 0;   // executed on a pool worker
  std::uint64_t pool_failures = 0;  // closures that returned false (or threw)
  std::uint64_t pool_peak_queue = 0;  // high-water mark of queued jobs

  using Self = VerifyPoolStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"pool_batches", &Self::pool_batches, metrics::kSum},
      {"pool_jobs", &Self::pool_jobs, metrics::kSum},
      {"pool_inline_jobs", &Self::pool_inline_jobs, metrics::kSum},
      {"pool_dispatched", &Self::pool_dispatched, metrics::kSum},
      {"pool_failures", &Self::pool_failures, metrics::kSum},
      {"pool_peak_queue", &Self::pool_peak_queue, metrics::kMax},
  };
};

class VerifyPool {
 public:
  using Job = std::function<bool()>;

  /// `workers` = number of pool threads.  0 = fully synchronous (the
  /// deterministic-simulator configuration).
  explicit VerifyPool(std::size_t workers);
  ~VerifyPool();

  VerifyPool(const VerifyPool&) = delete;
  VerifyPool& operator=(const VerifyPool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Runs every job and blocks until all results are in.  Returns the
  /// number of jobs that failed (returned false or threw).  Thread-safe:
  /// multiple actors may submit batches concurrently.
  std::size_t verify_all(std::vector<Job> jobs);

  /// Single-job convenience: runs inline (never dispatched — a lone
  /// verification gains nothing from a thread hop) but counted in the
  /// pool's stats so callers can route all verification through one
  /// accounting point.
  bool verify_one(const Job& job);

  VerifyPoolStats stats() const;

 private:
  /// Per-verify_all completion state, owned by the submitting frame.
  struct Batch {
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t remaining = 0;
    std::size_t failures = 0;
  };
  struct Task {
    const Job* job = nullptr;
    Batch* batch = nullptr;
  };

  static bool run_job(const Job& job);
  void execute(const Task& task, bool on_worker);
  void worker_loop();

  std::vector<std::thread> threads_;

  mutable std::mutex mu_;  // guards queue_, stats_, stopping_
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  VerifyPoolStats stats_;
  bool stopping_ = false;
};

}  // namespace modubft::crypto
