// Tests for the parallel signature-verification pool.
//
// The pool's contract (see crypto/verify_pool.hpp): 0 workers = fully
// synchronous submission-order execution (the deterministic-simulator
// configuration); otherwise the calling thread participates in draining,
// so a batch never deadlocks; verify_all returns the exact failure count;
// all execution is routed through one stats block.  The concurrent-caller
// stress below is a TSan customer (tests/CMakeLists.txt labels this
// binary `threads`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "crypto/hmac_signer.hpp"
#include "crypto/verify_cache.hpp"
#include "crypto/verify_pool.hpp"

namespace modubft::crypto {
namespace {

TEST(VerifyPool, ZeroWorkersRunsInlineInOrder) {
  VerifyPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);

  std::vector<int> order;  // no mutex: the whole batch must run inline
  std::vector<VerifyPool::Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i, &order] {
      order.push_back(i);
      return i % 3 != 0;
    });
  }
  const std::size_t failures = pool.verify_all(std::move(jobs));
  EXPECT_EQ(failures, 3u);  // i = 0, 3, 6
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);

  const VerifyPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pool_batches, 1u);
  EXPECT_EQ(stats.pool_jobs, 8u);
  EXPECT_EQ(stats.pool_inline_jobs, 8u);
  EXPECT_EQ(stats.pool_dispatched, 0u);
  EXPECT_EQ(stats.pool_failures, 3u);
}

TEST(VerifyPool, SingleJobBatchRunsInlineEvenWithWorkers) {
  VerifyPool pool(2);
  std::vector<VerifyPool::Job> jobs;
  jobs.push_back([] { return true; });
  EXPECT_EQ(pool.verify_all(std::move(jobs)), 0u);
  const VerifyPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pool_jobs, 1u);
  EXPECT_EQ(stats.pool_inline_jobs, 1u);
  EXPECT_EQ(stats.pool_dispatched, 0u);
}

TEST(VerifyPool, VerifyOneIsAccounted) {
  VerifyPool pool(2);
  EXPECT_TRUE(pool.verify_one([] { return true; }));
  EXPECT_FALSE(pool.verify_one([] { return false; }));
  const VerifyPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pool_batches, 2u);
  EXPECT_EQ(stats.pool_jobs, 2u);
  EXPECT_EQ(stats.pool_inline_jobs, 2u);
  EXPECT_EQ(stats.pool_failures, 1u);
}

TEST(VerifyPool, ThrowingJobCountsAsFailure) {
  VerifyPool pool(0);
  std::vector<VerifyPool::Job> jobs;
  jobs.push_back([] { return true; });
  jobs.push_back([]() -> bool { throw std::runtime_error("boom"); });
  EXPECT_EQ(pool.verify_all(std::move(jobs)), 1u);
  EXPECT_EQ(pool.stats().pool_failures, 1u);
}

TEST(VerifyPool, ParallelBatchReportsExactFailureCount) {
  VerifyPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::vector<VerifyPool::Job> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([i] { return i % 4 != 1; });
  }
  EXPECT_EQ(pool.verify_all(std::move(jobs)), 16u);
  const VerifyPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pool_jobs, 64u);
  EXPECT_EQ(stats.pool_inline_jobs + stats.pool_dispatched, 64u);
  EXPECT_EQ(stats.pool_failures, 16u);
}

// Proves genuine multi-thread execution: 4 jobs that each block until all
// 4 have started can only complete when 4 execution contexts run them
// concurrently — the caller plus the 3 workers.  The caller pops jobs one
// at a time, so exactly 3 land on workers.
TEST(VerifyPool, WorkersAndCallerDrainConcurrently) {
  VerifyPool pool(3);
  std::atomic<int> started{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::vector<VerifyPool::Job> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back([&started, deadline] {
      started.fetch_add(1);
      while (started.load() < 4) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::yield();
      }
      return true;
    });
  }
  EXPECT_EQ(pool.verify_all(std::move(jobs)), 0u);
  const VerifyPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pool_jobs, 4u);
  EXPECT_EQ(stats.pool_dispatched, 3u);
  EXPECT_EQ(stats.pool_inline_jobs, 1u);
}

// Many actors share one pool in a scenario run; batches from concurrent
// callers must not interleave their failure accounting.  Jobs go through
// a real CachingVerifier so the cache's internal lock is contended too.
TEST(VerifyPool, ConcurrentCallersKeepBatchesIsolated) {
  constexpr std::uint32_t kN = 4;
  const SignatureSystem keys = HmacScheme{}.make_system(kN, 42);
  const auto cache =
      std::make_shared<CachingVerifier>(keys.verifier, /*capacity=*/256);

  VerifyPool pool(3);
  constexpr int kCallers = 8;
  constexpr int kBatches = 20;
  constexpr int kJobsPerBatch = 16;

  std::atomic<int> wrong_counts{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<VerifyPool::Job> jobs;
        for (int j = 0; j < kJobsPerBatch; ++j) {
          const std::uint32_t signer =
              static_cast<std::uint32_t>((t + b + j) % kN);
          Bytes msg = {static_cast<std::uint8_t>(t),
                       static_cast<std::uint8_t>(b % 7),
                       static_cast<std::uint8_t>(j % 5)};
          Signature sig = keys.signers[signer]->sign(msg);
          const bool corrupt = j % 4 == 0;
          if (corrupt) sig[0] ^= 0xff;
          jobs.push_back([cache, signer, msg = std::move(msg),
                          sig = std::move(sig)] {
            return cache->verify(ProcessId{signer}, msg, sig);
          });
        }
        // Every 4th job is corrupted: exactly 4 failures per batch.
        if (pool.verify_all(std::move(jobs)) != 4u) wrong_counts.fetch_add(1);
      }
    });
  }
  for (std::thread& th : callers) th.join();

  EXPECT_EQ(wrong_counts.load(), 0);
  const VerifyPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pool_batches,
            static_cast<std::uint64_t>(kCallers) * kBatches);
  EXPECT_EQ(stats.pool_jobs,
            static_cast<std::uint64_t>(kCallers) * kBatches * kJobsPerBatch);
  EXPECT_EQ(stats.pool_failures,
            static_cast<std::uint64_t>(kCallers) * kBatches * 4);
  // Every job goes through the cache exactly once (a hit or a miss); the
  // split between the two is schedule-dependent here because corrupt and
  // genuine signatures for the same key overwrite each other's entries.
  // Deterministic hit coverage lives in SmrPipeline.WindowStatsReachConfiguredPeak.
  const VerifyCacheStats cstats = cache->stats();
  EXPECT_EQ(cstats.cache_hits + cstats.cache_misses,
            static_cast<std::uint64_t>(kCallers) * kBatches * kJobsPerBatch);
}

}  // namespace
}  // namespace modubft::crypto
