#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/strutil.h"

namespace reese {

u32 resolve_job_count(u32 requested) {
  if (requested > 0 && requested <= kMaxJobRequest) return requested;
  if (requested > kMaxJobRequest) {
    // Almost certainly a negative value cast through u32 somewhere up the
    // call chain; spawning ~4e9 threads is never what anyone meant.
    std::fprintf(stderr,
                 "jobs: request %u is out of range (max %u); using hardware "
                 "concurrency\n",
                 requested, kMaxJobRequest);
  }
  if (const char* env = std::getenv("REESE_JOBS")) {
    // An environment variable warns and falls back; it never exits.
    i64 value = 0;
    if (parse_int(env, &value) && value > 0 &&
        value <= static_cast<i64>(kMaxJobRequest)) {
      return static_cast<u32>(value);
    }
    std::fprintf(stderr,
                 "jobs: REESE_JOBS=\"%s\" is not an integer in [1, %u]; "
                 "using hardware concurrency\n",
                 env, kMaxJobRequest);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

u32 sanitize_job_count(i64 requested, const char* flag) {
  if (requested >= 1 && requested <= static_cast<i64>(kMaxJobRequest)) {
    return static_cast<u32>(requested);
  }
  std::fprintf(stderr,
               "jobs: %s %lld is not in [1, %u]; using hardware concurrency\n",
               flag, static_cast<long long>(requested), kMaxJobRequest);
  return 0;
}

void parallel_for(u32 workers, usize count,
                  const std::function<void(usize)>& fn) {
  const usize threads = std::min<usize>(workers, count);
  if (threads <= 1) {
    for (usize i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<usize> next{0};
  const auto run_share = [&] {
    for (usize i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::vector<std::jthread> pool;  // joined on return, and on unwinding
  pool.reserve(threads - 1);
  for (usize t = 1; t < threads; ++t) pool.emplace_back(run_share);
  run_share();  // the calling thread is worker 0
}

TaskQueue::TaskQueue(u32 workers, usize capacity) : capacity_(capacity) {
  const u32 resolved = resolve_job_count(workers);
  threads_.reserve(resolved);
  for (u32 i = 0; i < resolved; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

TaskQueue::~TaskQueue() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Admitted tasks always run: drain before stopping the workers.
    idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

bool TaskQueue::try_enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(task));
  }
  wake_cv_.notify_one();
  return true;
}

void TaskQueue::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

usize TaskQueue::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

u32 TaskQueue::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

void TaskQueue::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace reese
