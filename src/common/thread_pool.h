// Worker threads: a one-shot parallel_for for the grid runner, and a
// bounded task queue for the simulation service.
//
// parallel_for fans a batch of independent, similarly sized jobs (one
// simulation per (workload, model, seed) cell) across threads. Work
// distribution is dynamic: every worker (including the calling thread)
// claims the next unstarted index from one atomic counter, so a worker
// that finishes early immediately takes from the remaining tail instead of
// idling behind a static partition.
//
// Determinism contract: parallel_for imposes no ordering on job execution,
// so jobs must not share mutable state; each writes only its own result
// slot. Under that contract the results are bit-identical to a sequential
// loop regardless of worker count (see tests/experiment_parallel_test.cpp).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace reese {

/// Upper bound on a believable explicit worker-count request. Anything
/// larger is treated as garbage (the classic bug: a negative CLI value
/// cast through u32 lands near 4·10⁹ and the pool tries to spawn that many
/// threads) and normalized to auto with a warning.
inline constexpr u32 kMaxJobRequest = 1024;

/// Resolve a worker-count request: any positive sane `requested` wins;
/// 0 means auto — $REESE_JOBS if set and positive, else
/// hardware_concurrency(). Out-of-range requests (including a $REESE_JOBS
/// value that is not a positive integer) warn on stderr and fall back to
/// auto. Always at least 1.
u32 resolve_job_count(u32 requested);

/// Normalize a signed worker-count request from an untrusted source (CLI
/// flag, JSON spec): values in [1, kMaxJobRequest] pass through; everything
/// else (0, negative, absurd) warns on stderr — labelled with `flag` — and
/// becomes 0 (auto, i.e. hardware concurrency via resolve_job_count).
u32 sanitize_job_count(i64 requested, const char* flag = "--jobs");

/// Run fn(0) .. fn(count - 1), each exactly once, and return when all have
/// finished. `workers` counts the calling thread. One worker (or one
/// index) runs every index inline on the calling thread, in index order,
/// and starts no thread; more start min(workers, count) - 1 threads, which
/// claim indices from one atomic counter alongside the caller and are
/// joined before the call returns.
void parallel_for(u32 workers, usize count,
                  const std::function<void(usize)>& fn);

/// A bounded FIFO task queue drained by a fixed set of worker threads —
/// the long-lived sibling of the one-batch parallel_for, built for
/// reesed's job manager (sim/service.h): jobs arrive one at a time
/// over HTTP and must be admitted or refused immediately.
///
/// Admission control is the point: try_enqueue refuses (returns false)
/// when `capacity` tasks are already waiting, which the service maps to
/// HTTP 429 backpressure. Tasks already admitted always run — drain()
/// blocks until the queue is empty and every worker is idle (reesed's
/// SIGTERM path). The destructor drains too, so an admitted job is never
/// silently dropped.
class TaskQueue {
 public:
  /// Spawns `workers` dedicated threads (resolved via resolve_job_count;
  /// unlike parallel_for's, the calling thread is NOT a worker — it stays free
  /// to accept connections). `capacity` bounds the *waiting* queue;
  /// running tasks do not count against it.
  TaskQueue(u32 workers, usize capacity);
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Admit a task, or refuse it when `capacity` tasks are already queued
  /// (or the queue is stopping). Never blocks.
  bool try_enqueue(std::function<void()> task);

  /// Block until every admitted task has finished and all workers are
  /// idle. New tasks may still be admitted afterwards.
  void drain();

  usize queued() const;
  u32 running() const;
  u32 worker_count() const { return static_cast<u32>(threads_.size()); }
  usize capacity() const { return capacity_; }

 private:
  void worker_loop();

  const usize capacity_;
  mutable std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< workers: task available / stop
  std::condition_variable idle_cv_;  ///< drain(): queue empty, workers idle
  std::deque<std::function<void()>> queue_;
  u32 running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace reese
