#include "support/thread_pool.hpp"

#include <utility>

#include "analysis/hooks.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::support {

namespace {
// Which pool (if any) the current thread works for, and its index.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = static_cast<std::size_t>(-1);
}  // namespace

std::size_t ThreadPool::default_concurrency() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool(std::size_t threads) {
  PEACHY_CHECK(threads >= 1, "thread pool needs at least one worker");
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{idle_mu_};
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::worker_index() const noexcept {
  return tls_pool == this ? tls_index : static_cast<std::size_t>(-1);
}

void ThreadPool::submit(Task task) {
  PEACHY_CHECK(task != nullptr, "null task submitted");
  // Prefer the caller's own deque when the caller is one of our workers
  // (LIFO locality); otherwise pick the least-loaded queue: a queued task
  // outweighs a busy worker (the busy one finishes sooner than a whole
  // backlog drains), so score = 2*queued + busy, lowest wins.  The scan
  // start rotates so exact ties spread across workers instead of piling
  // onto queue 0.  Scores are racy snapshots — a stale pick costs one
  // steal, not correctness.
  std::size_t target = worker_index();
  if (target == static_cast<std::size_t>(-1)) {
    const std::size_t n = queues_.size();
    const std::size_t start = rr_.fetch_add(1, std::memory_order_relaxed) % n;
    std::size_t best_score = static_cast<std::size_t>(-1);
    for (std::size_t off = 0; off < n; ++off) {
      const std::size_t cand = (start + off) % n;
      const auto& q = *queues_[cand];
      const std::size_t score = 2 * q.size.load(std::memory_order_relaxed) +
                                (q.busy.load(std::memory_order_relaxed) ? 1 : 0);
      if (score < best_score) {
        best_score = score;
        target = cand;
        if (score == 0) break;  // idle worker with an empty queue: optimal
      }
    }
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const std::uint64_t submit_ns = obs::enabled() ? obs::now_ns() : 0;
  {
    std::lock_guard lock{queues_[target]->mu};
    queues_[target]->deque.push_back(Item{std::move(task), submit_ns});
    queues_[target]->size.store(queues_[target]->deque.size(), std::memory_order_relaxed);
  }
  // Publish "work arrived" under idle_mu_.  A bare notify_one() here can
  // land in the window after a worker scanned the queues empty but before
  // it blocked on work_cv_ — the notify is lost and (with the old
  // wait_for(1ms) poll) the task waits out the poll interval.  Bumping the
  // ticket under the mutex changes the predicate workers sleep on, so the
  // notify cannot be missed and the poll became a plain wait.
  {
    std::lock_guard lock{idle_mu_};
    tickets_.fetch_add(1, std::memory_order_release);
    published_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_pop_local(std::size_t self, Item& out) {
  auto& q = *queues_[self];
  std::lock_guard lock{q.mu};
  if (q.deque.empty()) return false;
  out = std::move(q.deque.back());  // LIFO end: freshest task, best locality
  q.deque.pop_back();
  q.size.store(q.deque.size(), std::memory_order_relaxed);
  published_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::try_steal(std::size_t self, Item& out) {
  const std::size_t n = queues_.size();
  for (std::size_t off = 1; off < n; ++off) {
    auto& q = *queues_[(self + off) % n];
    std::lock_guard lock{q.mu};
    if (!q.deque.empty()) {
      out = std::move(q.deque.front());  // FIFO end: oldest task, biggest chunk
      q.deque.pop_front();
      q.size.store(q.deque.size(), std::memory_order_relaxed);
      published_.fetch_sub(1, std::memory_order_relaxed);
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        static obs::Counter& steals = obs::counter("pool.steals");
        steals.add(1);
      }
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_pool = this;
  tls_index = self;
  for (;;) {
    // Snapshot the ticket BEFORE scanning.  Any submit whose ticket bump
    // is visible here finished its push first (push under the queue mutex
    // happens-before the release fetch_add under idle_mu_), so the scan
    // below will find it; any later submit changes tickets_ and defeats
    // the wait predicate.  Either way no enqueue can slip past a sleeping
    // worker — which is what lets the wait below be untimed.
    const std::uint64_t seen = tickets_.load(std::memory_order_acquire);
    Item item;
    if (try_pop_local(self, item) || try_steal(self, item)) {
      if (item.submit_ns != 0 && obs::enabled()) {
        static obs::Histogram& dwell = obs::histogram("pool.dwell_ns");
        dwell.note(obs::now_ns() - item.submit_ns);
      }
      queues_[self]->busy.store(true, std::memory_order_relaxed);
      {
        // Default identity for raw submits: this worker, in the shared
        // "unstructured" epoch (no join information).  Structured regions
        // (parallel_for / forall) override it with their own TaskScope.
        const analysis::TaskScope scope{self, analysis::kUnstructuredEpoch};
        const obs::SpanScope span{"pool", "task"};
        try {
          item.task();
        } catch (...) {
          // An exception unwinding out of a worker thread is
          // std::terminate; capture the first one for wait_idle() to
          // rethrow and keep this worker (and the pool) alive.
          std::lock_guard elock{task_err_mu_};
          if (!task_error_) task_error_ = std::current_exception();
        }
      }
      queues_[self]->busy.store(false, std::memory_order_relaxed);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock lock{idle_mu_};
    if (stop_.load(std::memory_order_acquire)) return;
    if (pending_.load(std::memory_order_acquire) == 0) {
      idle_cv_.notify_all();
    }
    work_cv_.wait(lock, [&] {
      const bool wake = stop_.load(std::memory_order_relaxed) ||
                        tickets_.load(std::memory_order_relaxed) != seen;
      // Every task published before `seen` was found by the scan or
      // popped before it (the queue mutex orders the decrement), so
      // blocking while the count is positive strands a task.
      if (!wake && published_.load(std::memory_order_relaxed) > 0) {
        missed_wakeups_.fetch_add(1, std::memory_order_relaxed);
      }
      return wake;
    });
    if (obs::enabled()) {
      static obs::Counter& wakeups = obs::counter("pool.idle_wakeups");
      wakeups.add(1);
    }
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::wait_idle() {
  PEACHY_CHECK(worker_index() == static_cast<std::size_t>(-1),
               "wait_idle() must not be called from a pool worker (deadlock)");
  {
    std::unique_lock lock{idle_mu_};
    idle_cv_.wait(lock, [&] { return pending_.load(std::memory_order_acquire) == 0; });
  }
  // Surface the first task exception now that the pool is quiet; clearing
  // it keeps the pool usable for the next batch of work.
  std::exception_ptr err;
  {
    std::lock_guard lock{task_err_mu_};
    err = std::exchange(task_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace peachy::support
