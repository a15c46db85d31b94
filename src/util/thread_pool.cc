#include "util/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace dtdevolve::util {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = 1;
  size_ = threads;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) return;  // idempotent
    stopping_ = true;
    workers.swap(workers_);
  }
  task_ready_.notify_all();
  // Workers drain the queue before exiting, so every submitted task
  // still runs.
  for (std::thread& worker : workers) worker.join();
  size_ = 0;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      lock.unlock();
      assert(false && "ThreadPool::Submit after Shutdown");
      task();  // release builds: run inline rather than drop the work
      return;
    }
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

size_t ThreadPool::DefaultJobs() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  // The caller claims iterations too, so at most n − 1 helpers are
  // useful; a one-item call (a single memo miss) never leaves this
  // thread.
  const size_t helpers = std::min(size(), n - 1);
  if (helpers == 0) {  // one item, or a pool already shut down
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Per-call completion tracking instead of the pool-wide Wait():
  // several callers (one per tenant shard) share one pool, and a global
  // drain barrier would let one caller's batch block on another's. The
  // caller waits for its n iterations, not for its helpers: a helper the
  // pool starts only after every iteration was claimed finds none left
  // and never touches `body`, so the state it reads is shared-owned
  // rather than on this frame.
  struct CallState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::mutex mutex;
    std::condition_variable all_completed;
  };
  auto state = std::make_shared<CallState>();
  const std::function<void(size_t)>* body_ptr = &body;
  auto run = [n, body_ptr](CallState& call) noexcept {
    for (size_t i = call.next.fetch_add(1); i < n;
         i = call.next.fetch_add(1)) {
      (*body_ptr)(i);
      if (call.completed.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(call.mutex);
        call.all_completed.notify_all();
      }
    }
  };
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state, run] { run(*state); });
  }
  run(*state);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_completed.wait(lock,
                            [&state, n] { return state->completed == n; });
}

void ParallelFor(size_t n, size_t jobs,
                 const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (jobs > n) jobs = n;
  if (jobs <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // The calling thread is one of the `jobs`.
  ThreadPool pool(jobs - 1);
  pool.ParallelFor(n, body);
}

}  // namespace dtdevolve::util
