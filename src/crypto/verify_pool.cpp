#include "crypto/verify_pool.hpp"

#include <algorithm>

namespace modubft::crypto {

VerifyPool::VerifyPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

VerifyPool::~VerifyPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool VerifyPool::run_job(const Job& job) {
  // Verifiers don't throw on invalid signatures (they return false), but a
  // job is attacker-adjacent code: treat an escaped exception as a failed
  // verification rather than tearing down a worker thread.
  try {
    return job();
  } catch (...) {
    return false;
  }
}

void VerifyPool::execute(const Task& task, bool on_worker) {
  const bool ok = run_job(*task.job);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (on_worker) {
      stats_.pool_dispatched += 1;
    } else {
      stats_.pool_inline_jobs += 1;
    }
    if (!ok) stats_.pool_failures += 1;
  }
  // Note the waiter may destroy the Batch as soon as it observes
  // remaining == 0, but it cannot re-acquire batch->mu before this guard
  // releases, so the notify below is safe.
  std::lock_guard<std::mutex> bl(task.batch->mu);
  if (!ok) task.batch->failures += 1;
  if (--task.batch->remaining == 0) task.batch->done_cv.notify_all();
}

void VerifyPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    work_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained
    Task task = queue_.front();
    queue_.pop_front();
    lk.unlock();
    execute(task, /*on_worker=*/true);
    lk.lock();
  }
}

std::size_t VerifyPool::verify_all(std::vector<Job> jobs) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.pool_batches += 1;
    stats_.pool_jobs += jobs.size();
  }
  if (jobs.empty()) return 0;

  // Synchronous path: no workers (deterministic substrate) or a batch too
  // small to amortize a dispatch.  Runs in submission order.
  if (threads_.empty() || jobs.size() == 1) {
    std::size_t failures = 0;
    for (const Job& job : jobs) {
      if (!run_job(job)) failures += 1;
    }
    std::lock_guard<std::mutex> lk(mu_);
    stats_.pool_inline_jobs += jobs.size();
    stats_.pool_failures += failures;
    return failures;
  }

  Batch batch;
  batch.remaining = jobs.size();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Job& job : jobs) queue_.push_back(Task{&job, &batch});
    stats_.pool_peak_queue = std::max<std::uint64_t>(
        stats_.pool_peak_queue, queue_.size());
  }
  work_cv_.notify_all();

  // The submitting thread helps drain the queue (its own batch or a
  // concurrent caller's) instead of blocking: k workers give k+1-way
  // parallelism and a saturated pool can never deadlock a caller.
  while (true) {
    Task task;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!queue_.empty()) {
        task = queue_.front();
        queue_.pop_front();
      }
    }
    if (task.job == nullptr) break;
    execute(task, /*on_worker=*/false);
  }

  std::unique_lock<std::mutex> bl(batch.mu);
  batch.done_cv.wait(bl, [&] { return batch.remaining == 0; });
  return batch.failures;
}

bool VerifyPool::verify_one(const Job& job) {
  // A lone verification gains nothing from a thread hop; run it inline but
  // keep it in the pool's accounting.
  const bool ok = run_job(job);
  std::lock_guard<std::mutex> lk(mu_);
  stats_.pool_batches += 1;
  stats_.pool_jobs += 1;
  stats_.pool_inline_jobs += 1;
  if (!ok) stats_.pool_failures += 1;
  return ok;
}

VerifyPoolStats VerifyPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace modubft::crypto
