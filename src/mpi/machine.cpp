#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "mpi/mpi.hpp"
#include "obs/obs.hpp"

namespace peachy::mpi::detail {

namespace {

void sleep_ns(std::uint64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds{static_cast<std::int64_t>(ns)});
}

}  // namespace

Machine::Machine(int nranks, analysis::CheckLevel check, const faults::FaultPlan* plan,
                 std::uint64_t default_timeout_ns, CollAlgos coll_algos,
                 TransportKind transport)
    : coll_algos_{coll_algos}, default_timeout_ns_{default_timeout_ns} {
  PEACHY_CHECK(nranks >= 1, "machine needs at least one rank");
  boxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
    boxes_.back()->trace_name =
        obs::intern_name("mpi.queue[" + std::to_string(i) + "]");
  }
  failed_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    failed_[static_cast<std::size_t>(i)].store(false, std::memory_order_relaxed);
  }
  if (check != analysis::CheckLevel::off) {
    checker_ = std::make_unique<analysis::MpiChecker>(nranks, check);
  }
  if (plan != nullptr) {
    injector_ = std::make_unique<faults::FaultInjector>(*plan, nranks);
  }
  // Last: attaching to a wire endpoint can replay sticky peer-death
  // events and buffered frames into deliver()/on_ctrl() immediately, so
  // every other member must already be live.
  transport_ = make_transport({nranks, transport, this});
  wire_ = transport_->kind() != TransportKind::kInproc;
  // The checker's wait-for graph needs to see every rank's block/post
  // events; ranks in other processes feed it nothing, so its diagnoses
  // would be fabrications.  run() rejects this combination with a
  // friendlier message before construction; this is the backstop.
  PEACHY_CHECK(checker_ == nullptr || !transport_->spans_processes(),
               "machine: the correctness checker requires all ranks in one process");
}

Machine::~Machine() {
  {
    std::unique_lock lock{waiters_mu_};
    if (active_waiters_ > 0) {
      lock.unlock();
      // Poison the mailboxes so every blocked receiver wakes, throws the
      // named teardown error, and unregisters; then wait for the drain.
      // Tearing the mailboxes down under a live waiter would be a race.
      (void)abort_local("machine destroyed while ranks were still blocked in recv");
      lock.lock();
      waiters_cv_.wait(lock, [this] { return active_waiters_ == 0; });
    }
  }
  // After shutdown() the transport makes no further deliver()/on_ctrl()
  // calls (the wire backends detach under the router lock, so a delivery
  // in flight has completed before this returns).
  transport_->shutdown();
}

void Machine::post(int source, int dest, int tag, std::span<const std::byte> payload,
                   std::uint32_t comm) {
  // One memcpy into a pooled slab; the allocation is a freelist pop in
  // steady state.
  PayloadBuffer buf = BufferPool::instance().acquire(payload.size());
  if (!payload.empty()) std::memcpy(buf.mutable_data(), payload.data(), payload.size());
  if (obs::enabled()) {
    static obs::Counter& copied = obs::counter("mpi.bytes_copied");
    copied.add(static_cast<std::int64_t>(payload.size()));
  }
  post_impl(source, dest, tag, std::move(buf), comm);
}

void Machine::post_move(int source, int dest, int tag, PayloadBuffer&& payload,
                        std::uint32_t comm) {
  if (obs::enabled()) {
    static obs::Counter& moved = obs::counter("mpi.bytes_moved");
    moved.add(static_cast<std::int64_t>(payload.size()));
  }
  post_impl(source, dest, tag, std::move(payload), comm);
}

void Machine::post_impl(int source, int dest, int tag, PayloadBuffer&& payload,
                        std::uint32_t comm) {
  PEACHY_CHECK(dest >= 0 && dest < size(), "post: bad destination");
  // Reject the send side symmetrically with take(): an out-of-range
  // source would flow into Message::source and the checker's wait-for
  // graph (on_post indexes by source) exactly like the recv-side bug
  // fixed in PR 1 — make it the same named error instead.
  PEACHY_CHECK(source >= 0 && source < size(), "post: bad source rank");
  // Dead ranks cannot talk: a crashed rank that somehow reaches another
  // send (e.g. user code swallowed the unwinding exception with
  // `catch (...)`) is re-killed on the spot.
  if (any_failed() && rank_failed(source)) throw faults::RankKilled{source};
  bool duplicate = false;
  if (injector_) {
    const faults::SendAction act = injector_->on_send(source, dest, tag);
    if (act.stall_ns > 0) sleep_ns(act.stall_ns);
    if (act.crash) {
      // In a multi-process world an injected crash is a *real* process
      // death: peers must observe it through the wire's failure path
      // (EOF / launcher report), exactly as an un-injected crash would
      // look.  SIGKILL is the honest way to die — no unwinding, no
      // goodbye frame.
      if (spans_processes()) std::raise(SIGKILL);
      mark_failed(source);
      throw faults::RankKilled{source};
    }
    if (act.delay_ns > 0) sleep_ns(act.delay_ns);
    // A dropped message simply vanishes: never enqueued, never counted,
    // never shown to the checker — exactly what a lossy link looks like.
    if (act.drop) return;
    duplicate = act.duplicate;
  }
  const std::size_t nbytes = payload.size();
  const int copies = duplicate ? 2 : 1;
  const obs::SpanScope span{"mpi", "post", "bytes", static_cast<std::int64_t>(nbytes)};
  if (wire_ && checker_) {
    // Wire frames deliver asynchronously: tell the checker a message
    // exists that no mailbox holds yet, so deadlock scans in the window
    // are deferred rather than concluded from incomplete state.
    for (int c = 0; c < copies; ++c) checker_->on_wire_send();
  }
  Message m;
  m.source = source;
  m.tag = tag;
  m.comm = comm;
  m.payload = std::move(payload);
  transport_->send(dest, std::move(m), copies);
  messages_.fetch_add(static_cast<std::uint64_t>(copies), std::memory_order_relaxed);
  bytes_.fetch_add(static_cast<std::uint64_t>(copies) * nbytes, std::memory_order_relaxed);
  if (obs::enabled()) {
    static obs::Counter& msgs = obs::counter("mpi.messages");
    static obs::Counter& byts = obs::counter("mpi.bytes");
    msgs.add(copies);
    byts.add(static_cast<std::int64_t>(copies) * static_cast<std::int64_t>(nbytes));
  }
}

void Machine::deliver(int dest, Message&& m, int copies) {
  if (dest < 0 || dest >= size()) return;  // a wire frame's dest is untrusted
  Mailbox& box = *boxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard lock{box.mu};
    for (int c = 0; c < copies; ++c) {
      Message msg;
      msg.source = m.source;
      msg.tag = m.tag;
      msg.comm = m.comm;
      // A duplicated message shares the payload (refcount bump): the
      // receiver sees two full deliveries, the bytes exist once.
      msg.payload = c + 1 < copies ? m.payload.share() : std::move(m.payload);
      box.queue.push_back(std::move(msg));
      // Under the same mailbox lock as the queue push, so the checker's
      // "a satisfying message arrived" flag can never lag a blocked
      // receiver's registration.
      if (checker_) checker_->on_post(m.source, dest, m.tag);
    }
    obs::gauge(box.trace_name, static_cast<std::int64_t>(box.queue.size()));
  }
  box.cv.notify_all();
  if (wire_ && checker_) {
    // One frame landed; if this drained the in-flight set and a deadlock
    // scan was deferred while frames flew, it runs now — on the pump
    // thread, which never blocks on user code, so the diagnosis (if any)
    // can safely abort the machine from here.
    const auto deadlock = checker_->on_wire_delivered();
    if (deadlock) abort(*deadlock);
  }
}

void Machine::on_ctrl(CtrlKind k, std::uint32_t arg, const std::string& why) {
  switch (k) {
    case CtrlKind::kFailed: {
      const int rank = static_cast<int>(arg);
      if (rank >= 0 && rank < size()) (void)mark_failed_local(rank);
      break;
    }
    case CtrlKind::kRevoke:
      (void)revoke_local(arg);
      break;
    case CtrlKind::kAbort:
      (void)abort_local(why.empty() ? std::string{"a peer process aborted"} : why);
      break;
  }
}

Message Machine::take(int self, int source, int tag, std::uint32_t comm,
                      std::uint64_t timeout_ns, const std::vector<int>* group,
                      const std::size_t* exact_bytes) {
  PEACHY_CHECK(self >= 0 && self < size(), "take: bad rank");
  PEACHY_CHECK(is_local(self), "recv: rank " + std::to_string(self) +
                                   " is not hosted by this process");
  // Reject before the checker registers the wait: an out-of-range source
  // is the grading layer's own input, and must become a named error — not
  // a hang (unchecked) or an out-of-bounds wait-for-graph index (checked).
  PEACHY_CHECK(source == kAnySource || (source >= 0 && source < size()),
               "recv: bad source rank");
  // Registered before the mailbox is touched and deregistered only after
  // the mailbox lock is released (declared before the lock → destroyed
  // after it), so ~Machine can wait for every blocked receiver to fully
  // leave the mailbox before tearing it down.
  struct WaiterGuard {
    Machine& m;
    explicit WaiterGuard(Machine& machine) : m{machine} {
      std::lock_guard lock{m.waiters_mu_};
      ++m.active_waiters_;
    }
    ~WaiterGuard() {
      // The broadcast must happen under the lock: the moment the count
      // hits zero ~Machine may destroy this condvar, and its drain-wait
      // cannot re-acquire waiters_mu_ (and thus return) until we release.
      std::lock_guard lock{m.waiters_mu_};
      --m.active_waiters_;
      m.waiters_cv_.notify_all();
    }
  } waiter{*this};
  if (any_failed() && rank_failed(self)) throw faults::RankKilled{self};
  if (injector_) {
    const faults::RecvAction act = injector_->on_recv(self);
    if (act.stall_ns > 0) sleep_ns(act.stall_ns);
    if (act.crash) {
      if (spans_processes()) std::raise(SIGKILL);  // see post_impl
      mark_failed(self);
      throw faults::RankKilled{self};
    }
  }
  obs::SpanScope span{"mpi", "recv"};
  std::uint64_t blocked_ns = 0;
  const bool has_deadline = timeout_ns > 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds{timeout_ns};
  Mailbox& box = *boxes_[static_cast<std::size_t>(self)];
  std::unique_lock lock{box.mu};
  bool registered = false;
  // Waits that end in an exception must unregister from the wait-for graph
  // (unlike the abort path, the machine keeps running afterwards).
  const auto unregister = [&] {
    if (checker_ && registered) {
      checker_->on_unblock(self);
      registered = false;
    }
  };
  for (;;) {
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (!matches(*it, source, tag, comm)) continue;
      if (exact_bytes != nullptr && it->payload.size() != *exact_bytes) {
        // recv_into size contract: the mismatched message is NOT consumed
        // — it stays queued (and peekable), only the error escapes.
        const std::size_t got = it->payload.size();
        const int msrc = it->source;
        const int mtag = it->tag;
        unregister();
        lock.unlock();
        throw Error{"recv_into: " + std::to_string(got) + "-byte message from rank " +
                    std::to_string(msrc) + " (tag " + std::to_string(mtag) + ") " +
                    (got > *exact_bytes
                         ? std::string{"would be truncated into a "}
                         : std::string{"is shorter than the "}) +
                    std::to_string(*exact_bytes) + "-byte buffer (message left queued)"};
      }
      Message m = std::move(*it);
      box.queue.erase(it);
      unregister();
      obs::gauge(box.trace_name, static_cast<std::int64_t>(box.queue.size()));
      if (blocked_ns != 0) {
        span.arg("blocked_ns", static_cast<std::int64_t>(blocked_ns));
        static obs::Counter& blocked = obs::counter("mpi.recv_blocked_ns");
        blocked.add(static_cast<std::int64_t>(blocked_ns));
      }
      return m;
    }
    if (aborted_.load(std::memory_order_acquire)) {
      std::lock_guard alock{abort_mu_};
      throw Error{"mpi machine aborted while rank " + std::to_string(self) +
                  " was blocked in recv(" + analysis::format_source(source) + ", " +
                  analysis::format_tag(tag) + "): " + abort_reason_};
    }
    // Failure detection (cheap gate: one relaxed-ish load when no rank has
    // failed).  A wait on a specific failed source can never be satisfied.
    // A wildcard wait follows ULFM's pending-failure rule: with no
    // matching message and ANY group member failed, the waiter cannot know
    // the missing message wasn't the dead rank's, so it must be told.
    if (any_failed()) {
      int failed = -1;
      if (source != kAnySource) {
        if (rank_failed(source)) failed = source;
      } else {
        failed = first_failed_in(group);
      }
      if (failed >= 0) {
        unregister();
        lock.unlock();
        throw faults::RankFailedError{
            failed, "rank " + std::to_string(self) + "'s recv(" +
                        analysis::format_source(source) + ", " + analysis::format_tag(tag) +
                        ") cannot complete: rank " + std::to_string(failed) + " failed"};
      }
    }
    if (comm_revoked(comm)) {
      unregister();
      lock.unlock();
      throw faults::CommRevokedError{
          first_failed_in(group),
          "communicator " + std::to_string(comm) + " was revoked while rank " +
              std::to_string(self) + " was in recv(" + analysis::format_source(source) +
              ", " + analysis::format_tag(tag) + ")"};
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      unregister();
      lock.unlock();
      throw faults::TimeoutError{
          "rank " + std::to_string(self) + " timed out after " +
          std::to_string(timeout_ns / 1'000'000) + " ms in recv(" +
          analysis::format_source(source) + ", " + analysis::format_tag(tag) + ")"};
    }
    if (checker_ && !registered) {
      registered = true;
      const auto deadlock = checker_->on_block(self, source, tag, has_deadline);
      if (deadlock) {
        // Wake everyone with the diagnosis; drop the mailbox lock first
        // because abort() touches every mailbox in turn.
        lock.unlock();
        abort(*deadlock);
        throw analysis::CheckFailure{*deadlock};
      }
    }
    // abort(), mark_failed(), and revoke() all take the mailbox lock
    // before notifying, so a plain wait cannot miss those wakeups;
    // spurious wakeups just rescan.
    if (obs::enabled()) {
      const std::uint64_t t0 = obs::now_ns();
      if (has_deadline) {
        box.cv.wait_until(lock, deadline);
      } else {
        box.cv.wait(lock);
      }
      blocked_ns += obs::now_ns() - t0;
    } else if (has_deadline) {
      box.cv.wait_until(lock, deadline);
    } else {
      box.cv.wait(lock);
    }
  }
}

bool Machine::try_peek(int self, int source, int tag, Status& st, std::uint32_t comm) {
  PEACHY_CHECK(self >= 0 && self < size(), "probe: bad rank");
  PEACHY_CHECK(source == kAnySource || (source >= 0 && source < size()),
               "probe: bad source rank");
  Mailbox& box = *boxes_[static_cast<std::size_t>(self)];
  std::lock_guard lock{box.mu};
  for (const auto& m : box.queue) {
    if (matches(m, source, tag, comm)) {
      st = Status{m.source, m.tag, m.payload.size()};
      return true;
    }
  }
  return false;
}

bool Machine::mark_failed_local(int rank) {
  PEACHY_CHECK(rank >= 0 && rank < size(), "mark_failed: bad rank");
  bool expected = false;
  if (!failed_[static_cast<std::size_t>(rank)].compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return false;
  }
  failed_count_.fetch_add(1, std::memory_order_release);
  if (obs::enabled()) {
    static obs::Counter& failures = obs::counter("faults.rank_failed");
    failures.add(1);
  }
  if (checker_) checker_->on_failed(rank);
  // Lock-then-notify every mailbox (same discipline as abort()): a
  // receiver between "scan found nothing" and "wait" holds its mailbox
  // lock, so none can miss the wakeup that turns its block into
  // RankFailedError.
  for (auto& box : boxes_) {
    { std::lock_guard lock{box->mu}; }
    box->cv.notify_all();
  }
  return true;
}

void Machine::mark_failed(int rank) {
  if (mark_failed_local(rank)) {
    transport_->broadcast_ctrl(CtrlKind::kFailed, static_cast<std::uint32_t>(rank), {});
  }
}

int Machine::first_failed_in(const std::vector<int>* group) const noexcept {
  if (!any_failed()) return -1;
  if (group != nullptr) {
    for (int r : *group) {
      if (r >= 0 && r < size() && rank_failed(r)) return r;
    }
    return -1;
  }
  for (int r = 0; r < size(); ++r) {
    if (rank_failed(r)) return r;
  }
  return -1;
}

std::vector<int> Machine::survivors_of(const std::vector<int>& group) const {
  std::vector<int> out;
  out.reserve(group.size());
  for (int r : group) {
    if (!(r >= 0 && r < size() && rank_failed(r))) out.push_back(r);
  }
  return out;
}

bool Machine::revoke_local(std::uint32_t comm) {
  {
    std::lock_guard lock{revoke_mu_};
    if (std::find(revoked_.begin(), revoked_.end(), comm) != revoked_.end()) return false;
    revoked_.push_back(comm);
  }
  revoked_count_.fetch_add(1, std::memory_order_release);
  if (obs::enabled()) {
    static obs::Counter& revokes = obs::counter("faults.revokes");
    revokes.add(1);
  }
  for (auto& box : boxes_) {
    { std::lock_guard lock{box->mu}; }
    box->cv.notify_all();
  }
  return true;
}

void Machine::revoke(std::uint32_t comm) {
  if (!revoke_local(comm)) return;
  // Failure knowledge travels ahead of the revocation: a peer process
  // that applies the revoke wakes its waiters with CommRevokedError,
  // whose embedded "who failed" answer should already be current — and
  // its shrink() right after must see the same failed set this process
  // saw, or the survivor groups diverge.
  for (int r = 0; r < size(); ++r) {
    if (rank_failed(r)) {
      transport_->broadcast_ctrl(CtrlKind::kFailed, static_cast<std::uint32_t>(r), {});
    }
  }
  transport_->broadcast_ctrl(CtrlKind::kRevoke, comm, {});
}

bool Machine::comm_revoked(std::uint32_t comm) const {
  if (revoked_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard lock{revoke_mu_};
  return std::find(revoked_.begin(), revoked_.end(), comm) != revoked_.end();
}

Machine::Agreement Machine::agree_group(std::uint64_t key, const std::vector<int>& proposal) {
  std::lock_guard lock{agree_mu_};
  auto it = agreements_.find(key);
  if (it == agreements_.end()) {
    it = agreements_
             .emplace(key, Agreement{proposal,
                                     next_comm_id_.fetch_add(1, std::memory_order_relaxed)})
             .first;
  }
  return it->second;
}

void Machine::purge_failed_senders(int self) {
  PEACHY_CHECK(self >= 0 && self < size(), "purge: bad rank");
  Mailbox& box = *boxes_[static_cast<std::size_t>(self)];
  std::lock_guard lock{box.mu};
  std::erase_if(box.queue, [&](const Message& m) { return rank_failed(m.source); });
  obs::gauge(box.trace_name, static_cast<std::int64_t>(box.queue.size()));
}

bool Machine::abort_local(const std::string& why) {
  bool first = false;
  {
    std::lock_guard lock{abort_mu_};
    if (!aborted_.load(std::memory_order_acquire)) {
      abort_reason_ = why;
      first = true;
    }
  }
  aborted_.store(true, std::memory_order_release);
  // Acquire each mailbox lock before notifying: a receiver that checked
  // the abort flag and is between "scan found nothing" and "wait" holds
  // the lock, so this synchronizes with every waiter and reliably wakes
  // all of them (the old lock-free notify could race such a receiver into
  // a missed wakeup).
  for (auto& box : boxes_) {
    { std::lock_guard lock{box->mu}; }
    box->cv.notify_all();
  }
  return first;
}

void Machine::abort(const std::string& why) {
  if (abort_local(why)) transport_->broadcast_ctrl(CtrlKind::kAbort, 0, why);
}

void Machine::note_collective(int rank, std::uint64_t index, const analysis::CollectiveDesc& d) {
  if (!checker_) return;
  const auto mismatch = checker_->on_collective(rank, index, d);
  if (mismatch) {
    abort(*mismatch);
    throw analysis::CheckFailure{*mismatch};
  }
}

void Machine::note_exit(int rank) {
  if (!checker_) return;
  const auto deadlock = checker_->on_exit(rank);
  // The exiting rank finished cleanly; the diagnosis is delivered to the
  // still-blocked ranks by aborting the machine.
  if (deadlock) abort(*deadlock);
}

void Machine::scan_leaks() {
  if (!checker_) return;
  for (int dest = 0; dest < size(); ++dest) {
    Mailbox& box = *boxes_[static_cast<std::size_t>(dest)];
    std::lock_guard lock{box.mu};
    for (const Message& m : box.queue) {
      checker_->note_leak(m.source, dest, m.tag, m.payload.size());
    }
  }
}

analysis::Report Machine::report() const {
  return checker_ ? checker_->report() : analysis::Report{};
}

TrafficStats Machine::stats() const noexcept {
  return {messages_.load(std::memory_order_relaxed), bytes_.load(std::memory_order_relaxed)};
}

}  // namespace peachy::mpi::detail
