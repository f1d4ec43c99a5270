#pragma once
/// \file mpi.hpp
/// \brief mini-MPI: a message-passing runtime with MPI semantics.
///
/// The paper's kNN, k-means, and HPO assignments are written against MPI.
/// This container has no MPI implementation, so peachy provides one whose
/// *programming model* is faithful: ranks with private data, explicit
/// tagged point-to-point messages, and the collectives the assignments use
/// (barrier, bcast, scatter, gather, allgather, reduce, allreduce,
/// alltoall).  Ranks execute as OS threads inside one process; message
/// payloads are never *shared with user code* — senders either copy into
/// transport-owned storage or relinquish ownership (`send_move`), so all
/// the ordering/matching hazards of real MPI code are preserved.
///
/// Collectives are implemented *on top of point-to-point* with the
/// classic algorithms (dissemination barrier, binomial-tree bcast/reduce,
/// ring allgather), so the runtime's message/byte counters have the same
/// shape as a real MPI trace — several experiments report them.
///
/// **Transport (DESIGN.md §11).**  Payloads live in pooled, refcounted
/// buffers (buffer_pool.hpp): `post` costs one memcpy and zero
/// allocations in steady state, `post_move`/`send_move` transfer
/// ownership with zero copies, and collectives forward pooled blocks by
/// reference (binomial broadcast, ring allgather) instead of
/// re-serializing.  Receivers can land payloads directly in caller
/// storage via `recv_into` / `recv_bytes_into`.  None of this changes
/// what the counters see: a message is counted once with its payload
/// size, however its bytes travel.
///
/// Usage:
///   auto stats = peachy::mpi::run(4, [](peachy::mpi::Comm& comm) {
///     std::vector<double> part = comm.scatter_blocks<double>(all, /*root=*/0);
///     double local = work(part);
///     std::vector<double> total = comm.allreduce<double>({&local, 1}, std::plus<>{});
///   });

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/mpi_checker.hpp"
#include "analysis/report.hpp"
#include "faults/faults.hpp"
#include "faults/plan.hpp"
#include "mpi/buffer_pool.hpp"
#include "mpi/transport.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/parallel_for.hpp"

namespace peachy::mpi {

/// Wildcards for recv matching (analogues of MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Metadata of a received message (analogue of MPI_Status).
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// Aggregate traffic counters for one run().
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Collective operations with selectable algorithms (DESIGN.md §14).
enum class CollOp : int { kBroadcast = 0, kReduce = 1, kAllreduce = 2, kAllgather = 3 };
inline constexpr int kCollOpCount = 4;

/// Algorithm choices.  kAuto is the compiled-in default for each op
/// (binomial tree for broadcast/reduce, reduce+bcast for allreduce, ring
/// for allgather).  kRecDouble is defined only at power-of-two rank
/// counts; elsewhere it runs as kAuto.
enum class CollAlgo : int { kAuto = 0, kLinear = 1, kBinomial = 2, kRing = 3, kRecDouble = 4 };
inline constexpr int kCollAlgoCount = 5;

[[nodiscard]] constexpr const char* coll_op_name(CollOp op) noexcept {
  constexpr std::array<const char*, kCollOpCount> kNames{"broadcast", "reduce", "allreduce",
                                                         "allgather"};
  return kNames[static_cast<std::size_t>(op)];
}
[[nodiscard]] constexpr const char* coll_algo_name(CollAlgo algo) noexcept {
  constexpr std::array<const char*, kCollAlgoCount> kNames{"auto", "linear", "binomial", "ring",
                                                           "recdouble"};
  return kNames[static_cast<std::size_t>(algo)];
}

/// One algorithm per collective op for a whole run — kAuto for every op
/// unless the caller forces one (the test suites and the collective
/// sweep in bench_substrates do).  Selection is communication-free: every
/// rank resolves the same (op, p) and branches to the same algorithm
/// without agreeing on it.
struct CollAlgos {
  std::array<CollAlgo, kCollOpCount> by_op{};  ///< value-initialized: all kAuto

  /// Run `algo` for every `op` collective, at every p and payload size.
  void force(CollOp op, CollAlgo algo) noexcept { by_op[static_cast<std::size_t>(op)] = algo; }

  /// The algorithm `op` runs at rank count `p`: the forced one, except
  /// that kRecDouble falls back to kAuto when p is not a power of two.
  [[nodiscard]] CollAlgo pick(CollOp op, int p) const noexcept {
    const CollAlgo algo = by_op[static_cast<std::size_t>(op)];
    if (algo == CollAlgo::kRecDouble && (p <= 0 || (p & (p - 1)) != 0)) return CollAlgo::kAuto;
    return algo;
  }
};

namespace detail {

// Message and Mailbox moved to mpi/transport.hpp: they are the currency
// both halves of the transport seam trade in.

/// Shared state for one group of ranks.  When constructed with a
/// CheckLevel other than `off` it owns an analysis::MpiChecker that is fed
/// post/block/exit/collective events and can abort the machine with a
/// diagnosis (deadlock, collective mismatch) instead of hanging.
///
/// With a faults::FaultPlan the machine also owns a FaultInjector consulted
/// at the two transport choke points (post_impl / take), and tracks which
/// ranks have *failed*: a failed rank's peers are woken from blocking
/// receives with faults::RankFailedError instead of hanging forever.
///
/// Message movement is delegated to a Transport (transport.hpp): the
/// machine is the seam's sink — `deliver` enqueues into mailboxes,
/// `on_ctrl` applies a peer process's failure / revoke / abort locally.
/// Each failure-protocol entry point therefore splits into a `_local`
/// half (this process's state + wakeups) and a public half that also
/// broadcasts the event to peer processes.
class Machine : public TransportSink {
 public:
  explicit Machine(int nranks, analysis::CheckLevel check = analysis::CheckLevel::off,
                   const faults::FaultPlan* plan = nullptr,
                   std::uint64_t default_timeout_ns = 0, CollAlgos coll_algos = {},
                   TransportKind transport = TransportKind::kInproc);

  /// Poisons every mailbox if ranks are still blocked in take() (named
  /// abort reason), waits for them to drain out, then detaches from the
  /// transport — after which no pump thread can touch this machine.
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Buffered send: one memcpy into a pooled buffer, zero allocations in
  /// steady state.
  void post(int source, int dest, int tag, std::span<const std::byte> payload,
            std::uint32_t comm = 0);
  /// Zero-copy send of an already-owned payload (pooled or adopted).
  /// Counted identically to post() — the traffic counters describe the
  /// message, not how its bytes traveled.
  void post_move(int source, int dest, int tag, PayloadBuffer&& payload,
                 std::uint32_t comm = 0);
  /// Blocking matched receive.  `timeout_ns > 0` bounds the wait
  /// (faults::TimeoutError on expiry).  `group` scopes the wildcard
  /// failure check to the calling communicator's members (nullptr = all
  /// ranks).  `exact_bytes`, when set, enforces the recv_into size
  /// contract *before* consuming: a mismatched message stays queued and
  /// peekable, and only the error escapes.
  [[nodiscard]] Message take(int self, int source, int tag, std::uint32_t comm = 0,
               std::uint64_t timeout_ns = 0, const std::vector<int>* group = nullptr,
               const std::size_t* exact_bytes = nullptr);
  [[nodiscard]] bool try_peek(int self, int source, int tag, Status& st, std::uint32_t comm = 0);

  void abort(const std::string& why);

  // ---- TransportSink (called by the transport; pump thread on wire) --------

  void deliver(int dest, Message&& m, int copies) override;
  void on_ctrl(CtrlKind k, std::uint32_t arg, const std::string& why) override;

  /// True when this world's ranks live in more than one OS process.
  [[nodiscard]] bool spans_processes() const noexcept { return transport_->spans_processes(); }
  /// True when `rank` executes in this process.
  [[nodiscard]] bool is_local(int rank) const noexcept { return transport_->is_local(rank); }
  [[nodiscard]] TransportKind transport_kind() const noexcept { return transport_->kind(); }

  // ---- failure detection / recovery (peachy::faults integration) -----------

  /// Mark `rank` failed (idempotent) and wake every blocked receiver so
  /// waits on the dead rank become faults::RankFailedError.
  void mark_failed(int rank);
  [[nodiscard]] bool rank_failed(int rank) const noexcept {
    return failed_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
  }
  [[nodiscard]] bool any_failed() const noexcept {
    return failed_count_.load(std::memory_order_acquire) > 0;
  }
  /// First failed rank among `group`'s members (all ranks when nullptr),
  /// or -1 when none.
  [[nodiscard]] int first_failed_in(const std::vector<int>* group) const noexcept;
  /// `group` minus the failed ranks, order preserved.
  [[nodiscard]] std::vector<int> survivors_of(const std::vector<int>& group) const;

  /// Mark a communicator dead machine-wide; every rank blocked (or later
  /// blocking) on it wakes with faults::CommRevokedError.
  void revoke(std::uint32_t comm);
  [[nodiscard]] bool comm_revoked(std::uint32_t comm) const;

  /// One agreed replacement communicator: the survivor group plus its
  /// freshly allocated comm id.
  struct Agreement {
    std::vector<int> group;
    std::uint32_t comm_id = 0;
  };
  /// Single-process survivor agreement: the first proposal stored under
  /// `key` wins and every later caller adopts it (the shared table plays
  /// the role ULFM's agreement protocol plays across processes).
  Agreement agree_group(std::uint64_t key, const std::vector<int>& proposal);

  /// Drop queued messages sent by failed ranks from `self`'s mailbox so
  /// stale traffic cannot satisfy a post-recovery receive.
  void purge_failed_senders(int self);

  [[nodiscard]] std::uint64_t default_timeout_ns() const noexcept {
    return default_timeout_ns_;
  }
  /// The per-op collective algorithms of this run (RunOptions::coll_algos).
  [[nodiscard]] const CollAlgos& coll_algos() const noexcept { return coll_algos_; }
  [[nodiscard]] faults::FaultInjector* injector() noexcept { return injector_.get(); }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(boxes_.size()); }
  [[nodiscard]] TrafficStats stats() const noexcept;
  [[nodiscard]] bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

  // ---- checker integration (no-ops when the check level is `off`) ----------

  /// Validate rank's `index`-th collective against the other ranks'
  /// records; aborts and throws analysis::CheckFailure on mismatch.
  void note_collective(int rank, std::uint64_t index, const analysis::CollectiveDesc& d);

  /// Rank's program function returned normally; may detect that the
  /// remaining ranks are deadlocked (and abort them).
  void note_exit(int rank);

  /// Report every message still undelivered (call after all ranks joined).
  void scan_leaks();

  [[nodiscard]] analysis::Report report() const;
  [[nodiscard]] analysis::CheckLevel check_level() const noexcept {
    return checker_ ? checker_->level() : analysis::CheckLevel::off;
  }

 private:
  static bool matches(const Message& m, int source, int tag, std::uint32_t comm) noexcept {
    return m.comm == comm && (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  /// The single enqueue path: every message — copied or moved — lands
  /// here, so the checker, the traffic counters, and the fault injector
  /// see identical events for both.
  void post_impl(int source, int dest, int tag, PayloadBuffer&& payload, std::uint32_t comm);

  /// Local halves of the failure protocols: apply the event to this
  /// process's state and wake waiters.  Each returns true when the call
  /// changed state (first observation), which is when the public entry
  /// point broadcasts the event to peer processes — replayed/echoed
  /// events from the wire are applied idempotently and never re-sent.
  bool mark_failed_local(int rank);
  bool revoke_local(std::uint32_t comm);
  bool abort_local(const std::string& why);

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::unique_ptr<analysis::MpiChecker> checker_;
  std::unique_ptr<faults::FaultInjector> injector_;
  CollAlgos coll_algos_;
  std::uint64_t default_timeout_ns_ = 0;
  std::atomic<bool> aborted_{false};
  std::string abort_reason_;
  std::mutex abort_mu_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};

  // ---- failure / recovery state --------------------------------------------
  std::unique_ptr<std::atomic<bool>[]> failed_;
  std::atomic<int> failed_count_{0};
  mutable std::mutex revoke_mu_;
  std::vector<std::uint32_t> revoked_;
  std::atomic<std::uint32_t> revoked_count_{0};  ///< fast gate for comm_revoked
  std::mutex agree_mu_;
  std::map<std::uint64_t, Agreement> agreements_;
  std::atomic<std::uint32_t> next_comm_id_{1};  ///< 0 is the world communicator

  // ---- teardown / transport ------------------------------------------------
  // ~Machine must not tear down mailboxes under a blocked receiver, so
  // take() registers itself here and the destructor waits for the count
  // to drain (after poisoning the mailboxes so the drain is bounded).
  std::mutex waiters_mu_;
  std::condition_variable waiters_cv_;
  int active_waiters_ = 0;
  bool wire_ = false;  ///< transport delivers asynchronously (shm/socket)
  /// Declared last: destroyed first, so the transport detaches before any
  /// state a late pump-thread delivery could touch is torn down (the
  /// destructor also detaches explicitly; this is belt and braces).
  std::unique_ptr<Transport> transport_;
};

/// obs counter name for a selected collective algorithm
/// ("mpi.coll.algo.<name>").  Returns string literals, as obs requires.
[[nodiscard]] const char* coll_algo_counter_name(CollAlgo algo) noexcept;

/// Span name carrying the op and its selected algorithm (e.g.
/// "allreduce[ring]") so traces show which path ran.  String literals.
[[nodiscard]] const char* coll_span_name(CollOp op, CollAlgo algo) noexcept;

}  // namespace detail

/// Communicator handle passed to every rank's function.  All methods are
/// callable from that rank's thread only.
///
/// A Comm is either the *world* communicator (every machine rank, local
/// rank == world rank) or a *shrunken* communicator produced by shrink():
/// a subset of world ranks renumbered 0..size()-1.  All public APIs speak
/// local ranks; translation to the machine's world numbering happens at
/// the transport boundary.  Exception: faults::RankFailedError carries
/// *world* ranks, matching the fault plan's scope.
class Comm {
 public:
  Comm(detail::Machine& machine, int rank) noexcept
      : machine_{&machine}, rank_{rank}, timeout_ns_{machine.default_timeout_ns()} {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept {
    return group_.empty() ? machine_->size() : static_cast<int>(group_.size());
  }

  /// This rank in machine/world numbering (== rank() on the world comm).
  [[nodiscard]] int world_rank() const noexcept { return to_world(rank_); }

  /// World ranks of this communicator's members, indexed by local rank.
  [[nodiscard]] std::vector<int> group() const {
    if (!group_.empty()) return group_;
    std::vector<int> g(static_cast<std::size_t>(machine_->size()));
    for (std::size_t i = 0; i < g.size(); ++i) g[i] = static_cast<int>(i);
    return g;
  }

  /// Identifies this communicator's messages in transit (0 = world).
  [[nodiscard]] std::uint32_t comm_id() const noexcept { return comm_id_; }

  /// True when the world's ranks live in more than one OS process (a run
  /// spawned by mpi::launch / peachy-launch over a wire transport).
  /// Programs that keep per-run state in process-local storage — caches,
  /// checkpoint stores — must key the decision "who writes it" on this:
  /// with separate processes there is no shared memory to lean on.
  [[nodiscard]] bool spans_processes() const noexcept { return machine_->spans_processes(); }

  /// The transport backend this run is using.
  [[nodiscard]] TransportKind transport_kind() const noexcept {
    return machine_->transport_kind();
  }

  // ---- deadlines / failure handling (peachy::faults) ----------------------

  /// Deadline applied to every blocking receive — and, because collectives
  /// are built on receives, to every collective — on this communicator.
  /// Zero (the default) blocks forever, as real MPI does; expiry raises
  /// faults::TimeoutError.  Inherited by communicators shrink() returns.
  /// A negative deadline is a std::invalid_argument: it used to clamp
  /// silently to "wait forever" — the exact opposite of a caller who
  /// (say) computed `deadline - elapsed` and went negative intended.
  void set_op_timeout(std::chrono::nanoseconds t) {
    timeout_ns_ = checked_timeout_ns(t, "set_op_timeout");
  }
  [[nodiscard]] std::chrono::nanoseconds op_timeout() const noexcept {
    return std::chrono::nanoseconds{static_cast<std::int64_t>(timeout_ns_)};
  }

  /// ULFM-style revocation: mark this communicator dead machine-wide, so
  /// every rank blocked (or later blocking) in one of its operations wakes
  /// with faults::CommRevokedError.  Call after catching RankFailedError
  /// to push all survivors out of the abandoned operation and into their
  /// recovery path.
  void revoke();

  /// ULFM-style recovery: build the replacement communicator from the
  /// surviving members, renumbered 0..n-1 in world-rank order.  Collective
  /// over the survivors (every survivor must call it the same number of
  /// times); no messages are exchanged — survivors converge through the
  /// machine's agreement table.  Also drops queued messages from failed
  /// ranks addressed to this rank.
  [[nodiscard]] Comm shrink();

  // ---- point to point ----------------------------------------------------

  /// Buffered send: copies the payload into dest's mailbox; never blocks.
  void send_bytes(int dest, int tag, std::span<const std::byte> payload) {
    check_user_send(dest, tag);
    machine_->post(world_rank(), to_world(dest), tag, payload, comm_id_);
  }

  /// Zero-copy send of an owned byte vector: the transport adopts the
  /// vector's storage; no bytes are copied on the send side.
  void send_bytes_move(int dest, int tag, std::vector<std::byte>&& payload) {
    check_user_send(dest, tag);
    machine_->post_move(world_rank(), to_world(dest), tag,
                        BufferPool::instance().adopt(std::move(payload)), comm_id_);
  }

  /// Blocking receive matching (source, tag); wildcards allowed.
  [[nodiscard]] std::vector<std::byte> recv_bytes(int source, int tag, Status* st = nullptr) {
    detail::Message m = take_(source, tag);
    if (st != nullptr) *st = Status{m.source, m.tag, m.payload.size()};
    // Zero-copy when the sender used send_bytes_move; one memcpy otherwise.
    return m.payload.release_bytes();
  }

  /// recv_bytes with a one-shot deadline overriding the communicator's
  /// op timeout; raises faults::TimeoutError on expiry.
  [[nodiscard]] std::vector<std::byte> recv_bytes(int source, int tag,
                                                  std::chrono::nanoseconds timeout,
                                    Status* st = nullptr) {
    detail::Message m = take_timed_(source, tag, checked_timeout_ns(timeout, "recv_bytes"));
    if (st != nullptr) *st = Status{m.source, m.tag, m.payload.size()};
    return m.payload.release_bytes();
  }

  /// Blocking receive into the transport's own buffer (zero copies).  The
  /// returned handle is read-only; it recycles its storage on drop.
  [[nodiscard]] PayloadBuffer recv_buffer(int source, int tag, Status* st = nullptr) {
    detail::Message m = take_(source, tag);
    if (st != nullptr) *st = Status{m.source, m.tag, m.payload.size()};
    return std::move(m.payload);
  }

  /// Blocking receive landing the payload directly in caller storage.
  /// The matched message must be exactly `out.size()` bytes: a larger
  /// payload (would truncate) or a smaller one (short message) is a named
  /// error — and the mismatched message is NOT consumed: it stays queued
  /// and peekable, so the error is observable and recoverable (the caller
  /// can probe for the real size and receive it properly).
  Status recv_bytes_into(std::span<std::byte> out, int source, int tag) {
    const std::size_t want = out.size();
    detail::Message m = take_(source, tag, &want);
    if (!out.empty()) std::memcpy(out.data(), m.payload.data(), out.size());
    return Status{m.source, m.tag, m.payload.size()};
  }

  /// Non-blocking probe: true if a matching message is waiting.
  [[nodiscard]] bool probe(int source, int tag, Status* st = nullptr) {
    PEACHY_CHECK(source == kAnySource || (source >= 0 && source < size()),
                 "probe: bad source rank");
    Status tmp;
    const bool ok = machine_->try_peek(
        world_rank(), source == kAnySource ? kAnySource : to_world(source), tag, tmp, comm_id_);
    if (ok) tmp.source = to_local(tmp.source);
    if (ok && st != nullptr) *st = tmp;
    return ok;
  }

  /// Typed send of a span of trivially copyable elements.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, std::as_bytes(data));
  }

  /// Typed zero-copy send of an owned vector.
  template <typename T>
  void send_move(int dest, int tag, std::vector<T>&& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_user_send(dest, tag);
    machine_->post_move(world_rank(), to_world(dest), tag,
                        BufferPool::instance().adopt_typed(std::move(data)), comm_id_);
  }

  /// Typed send of one value.
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    send<T>(dest, tag, std::span<const T>{&v, 1});
  }

  /// Typed receive: returns however many elements the sender sent.  The
  /// payload is deserialized directly into the typed vector (one memcpy).
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int source, int tag, Status* st = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    detail::Message m = take_(source, tag);
    if (st != nullptr) *st = Status{m.source, m.tag, m.payload.size()};
    if constexpr (std::is_same_v<T, std::byte>) {
      return m.payload.release_bytes();
    } else {
      PEACHY_CHECK(m.payload.size() % sizeof(T) == 0,
                   "recv: payload size not a multiple of sizeof(T)");
      std::vector<T> out(m.payload.size() / sizeof(T));
      if (!out.empty()) std::memcpy(out.data(), m.payload.data(), m.payload.size());
      return out;
    }
  }

  /// Typed receive with a one-shot deadline overriding the communicator's
  /// op timeout; raises faults::TimeoutError on expiry.
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int source, int tag, std::chrono::nanoseconds timeout,
                      Status* st = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    detail::Message m = take_timed_(source, tag, checked_timeout_ns(timeout, "recv"));
    if (st != nullptr) *st = Status{m.source, m.tag, m.payload.size()};
    PEACHY_CHECK(m.payload.size() % sizeof(T) == 0,
                 "recv: payload size not a multiple of sizeof(T)");
    std::vector<T> out(m.payload.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), m.payload.data(), m.payload.size());
    return out;
  }

  /// Typed receive landing exactly `out.size()` elements in caller
  /// storage (see recv_bytes_into for the size contract).
  template <typename T>
  Status recv_into(std::span<T> out, int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_bytes_into(std::as_writable_bytes(out), source, tag);
  }

  /// Typed receive of exactly one value.
  template <typename T>
  [[nodiscard]] T recv_value(int source, int tag, Status* st = nullptr) {
    std::vector<T> v = recv<T>(source, tag, st);
    PEACHY_CHECK(v.size() == 1, "recv_value: expected exactly one element");
    return v.front();
  }

  // ---- collectives ---------------------------------------------------------
  // Every rank of the communicator must call each collective in the same
  // order (as in MPI).  Internal tags are sequenced per call so distinct
  // collectives cannot cross-match.  All of them are allocation-free in
  // steady state: payloads ride pooled buffers, forwarded blocks are
  // refcount bumps, and the in-place variants put results straight into
  // caller storage.

  /// Dissemination barrier: ceil(log2 p) rounds of pairwise tokens.
  void barrier();

  /// Binomial-tree broadcast of a byte buffer from `root`.
  void broadcast_bytes(std::vector<std::byte>& data, int root);

  /// Typed broadcast: after the call every rank holds root's vector.
  template <typename T>
  void broadcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    PEACHY_CHECK(root >= 0 && root < size(), "broadcast: bad root");
    const int tag = begin_collective(
        {"broadcast", root, 1,
         rank_ == root ? static_cast<std::int64_t>(data.size() * sizeof(T)) : std::int64_t{-1}});
    const CollAlgo algo = pick_algo_(CollOp::kBroadcast);
    const obs::SpanScope span{"mpi", detail::coll_span_name(CollOp::kBroadcast, algo),
                              "algo", static_cast<std::int64_t>(algo)};
    PayloadBuffer buf;
    if (rank_ == root) {
      buf = BufferPool::instance().acquire(data.size() * sizeof(T));
      if (!data.empty()) std::memcpy(buf.mutable_data(), data.data(), buf.size());
    }
    bcast_payload_algo(buf, root, tag, algo);
    if (rank_ != root) {
      PEACHY_CHECK(buf.size() % sizeof(T) == 0, "broadcast: size mismatch");
      data.resize(buf.size() / sizeof(T));
      if (!data.empty()) std::memcpy(data.data(), buf.data(), buf.size());
    }
  }

  /// Typed broadcast of one value.
  template <typename T>
  [[nodiscard]] T broadcast_value(T v, int root) {
    std::vector<T> buf{v};
    broadcast(buf, root);
    return buf.front();
  }

  /// In-place typed broadcast: every rank passes a span of the same
  /// length; on return every span holds root's contents.  A received
  /// payload of any other size is a named error.
  template <typename T>
  void broadcast_into(std::span<T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    PEACHY_CHECK(root >= 0 && root < size(), "broadcast: bad root");
    const int tag = begin_collective(
        {"broadcast", root, 1,
         rank_ == root ? static_cast<std::int64_t>(data.size() * sizeof(T)) : std::int64_t{-1}});
    const CollAlgo algo = pick_algo_(CollOp::kBroadcast);
    const obs::SpanScope span{"mpi", detail::coll_span_name(CollOp::kBroadcast, algo),
                              "algo", static_cast<std::int64_t>(algo)};
    PayloadBuffer buf;
    if (rank_ == root) {
      buf = BufferPool::instance().acquire(data.size() * sizeof(T));
      if (!data.empty()) std::memcpy(buf.mutable_data(), data.data(), buf.size());
    }
    bcast_payload_algo(buf, root, tag, algo);
    if (rank_ != root) {
      PEACHY_CHECK(buf.size() == data.size() * sizeof(T),
                   "broadcast_into: received " + std::to_string(buf.size()) +
                       " bytes into a " + std::to_string(data.size() * sizeof(T)) +
                       "-byte buffer");
      if (!data.empty()) std::memcpy(data.data(), buf.data(), buf.size());
    }
  }

  /// In-place binomial-tree reduction: combines every rank's `data` into
  /// root's `data` with element-wise `op` (commutative + associative).
  /// Non-root ranks' buffers are left with their own partial results
  /// (unspecified beyond that).  Incoming contributions are combined
  /// straight out of the transport's pooled buffers — no scratch
  /// allocations.
  template <typename T, typename Op>
  void reduce_inplace(std::span<T> data, Op op, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "reduce reads contributions in place from pooled storage");
    const int tag = begin_collective({"reduce", root, sizeof(T),
                                      static_cast<std::int64_t>(data.size())});
    const CollAlgo algo = pick_algo_(CollOp::kReduce);
    const obs::SpanScope span{"mpi", detail::coll_span_name(CollOp::kReduce, algo),
                              "algo", static_cast<std::int64_t>(algo)};
    switch (algo) {
      case CollAlgo::kLinear:
        reduce_linear_(data, op, root, tag);
        return;
      case CollAlgo::kRing:
        reduce_ring_(data, op, root, tag);
        return;
      default:
        reduce_binomial_(data, op, root, tag);
        return;
    }
  }

  /// Binomial-tree reduction with element-wise op; result valid at root
  /// only (other ranks get an empty vector).  `op(a,b)` must be
  /// commutative and associative.
  template <typename T, typename Op>
  [[nodiscard]] std::vector<T> reduce(std::span<const T> local, Op op, int root) {
    std::vector<T> acc(local.begin(), local.end());
    reduce_inplace<T, Op>(std::span<T>{acc.data(), acc.size()}, op, root);
    if (rank_ != root) return {};
    return acc;
  }

  /// In-place allreduce: on return every rank's `data` holds the
  /// element-wise combination — the *same bytes* on every rank, whichever
  /// algorithm the run selects (each algorithm pins one canonical
  /// combine order computed identically everywhere).  The default (and
  /// the binomial selection) is the historical reduce-to-0-then-broadcast
  /// composition, whose two legs run their own selection; ring,
  /// recursive-doubling, and linear run as a single collective.  Zero
  /// allocations in steady state.
  template <typename T, typename Op>
  void allreduce_inplace(std::span<T> data, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "allreduce reads contributions in place from pooled storage");
    const CollAlgo algo = pick_algo_(CollOp::kAllreduce);
    if (algo == CollAlgo::kRing || algo == CollAlgo::kRecDouble || algo == CollAlgo::kLinear) {
      const obs::SpanScope span{"mpi", detail::coll_span_name(CollOp::kAllreduce, algo),
                                "algo", static_cast<std::int64_t>(algo)};
      const int tag = begin_collective({"allreduce", -1, sizeof(T),
                                        static_cast<std::int64_t>(data.size())});
      if (algo == CollAlgo::kRing) {
        allreduce_ring_(data, op, tag);
      } else if (algo == CollAlgo::kRecDouble) {
        allreduce_recdouble_(data, op, tag);
      } else {
        allreduce_linear_(data, op, tag);
      }
      return;
    }
    reduce_inplace<T, Op>(data, op, 0);
    broadcast_into<T>(data, 0);
  }

  /// Reduce-then-broadcast allreduce; every rank gets the combined vector.
  template <typename T, typename Op>
  [[nodiscard]] std::vector<T> allreduce(std::span<const T> local, Op op) {
    std::vector<T> total(local.begin(), local.end());
    allreduce_inplace<T, Op>(std::span<T>{total.data(), total.size()}, op);
    return total;
  }

  /// Allreduce of one value.
  template <typename T, typename Op>
  [[nodiscard]] T allreduce_value(T v, Op op) {
    allreduce_inplace<T, Op>(std::span<T>{&v, 1}, op);
    return v;
  }

  /// Gather variable-size contributions; root receives the concatenation
  /// in rank order (gatherv semantics).  Non-root ranks get {}.  Root
  /// assembles the result with a single allocation — incoming blocks stay
  /// in pooled transport buffers until they are copied to their offsets.
  template <typename T>
  [[nodiscard]] std::vector<T> gather(std::span<const T> local, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = begin_collective({"gather", root, sizeof(T), -1});
    if (rank_ != root) {
      coll_send<T>(root, tag, local);
      return {};
    }
    const int p = size();
    std::vector<PayloadBuffer> parts(static_cast<std::size_t>(p));
    std::size_t total_bytes = local.size() * sizeof(T);
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      parts[static_cast<std::size_t>(r)] = recv_buffer(r, tag);
      const std::size_t got = parts[static_cast<std::size_t>(r)].size();
      PEACHY_CHECK(got % sizeof(T) == 0, "gather: payload size not a multiple of sizeof(T)");
      total_bytes += got;
    }
    std::vector<T> all(total_bytes / sizeof(T));
    auto* out = reinterpret_cast<std::byte*>(all.data());
    for (int r = 0; r < p; ++r) {
      if (r == root) {
        if (!local.empty()) std::memcpy(out, local.data(), local.size() * sizeof(T));
        out += local.size() * sizeof(T);
      } else {
        const PayloadBuffer& part = parts[static_cast<std::size_t>(r)];
        if (!part.empty()) std::memcpy(out, part.data(), part.size());
        out += part.size();
      }
    }
    return all;
  }

  /// Ring allgather of variable-size contributions: p−1 rounds, each rank
  /// forwarding the block it received in the previous round *by
  /// reference* (a refcount bump — blocks are never re-serialized).
  /// Returns the concatenation in rank order on every rank.
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(std::span<const T> local) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = begin_collective({"allgather", -1, sizeof(T), -1});
    const CollAlgo algo = pick_algo_(CollOp::kAllgather);
    const obs::SpanScope span{"mpi", detail::coll_span_name(CollOp::kAllgather, algo),
                              "algo", static_cast<std::int64_t>(algo)};
    const int p = size();
    std::vector<PayloadBuffer> blocks(static_cast<std::size_t>(p));
    blocks[static_cast<std::size_t>(rank_)] =
        BufferPool::instance().acquire(local.size() * sizeof(T));
    if (!local.empty()) {
      std::memcpy(blocks[static_cast<std::size_t>(rank_)].mutable_data(), local.data(),
                  local.size() * sizeof(T));
    }
    if (algo == CollAlgo::kLinear) {
      allgather_blocks_linear(blocks, tag);
    } else if (algo == CollAlgo::kRecDouble) {
      allgather_blocks_recdouble(blocks, tag);
    } else {
      allgather_blocks_ring(blocks, tag);
    }
    for (int r = 0; r < p; ++r) {
      PEACHY_CHECK(blocks[static_cast<std::size_t>(r)].size() % sizeof(T) == 0,
                   "allgather: payload size not a multiple of sizeof(T)");
    }
    std::size_t total_bytes = 0;
    for (const auto& b : blocks) total_bytes += b.size();
    std::vector<T> all(total_bytes / sizeof(T));
    auto* out = reinterpret_cast<std::byte*>(all.data());
    for (const auto& b : blocks) {
      if (!b.empty()) std::memcpy(out, b.data(), b.size());
      out += b.size();
    }
    return all;
  }

  /// In-place ring allgather for block-partitioned data: rank r
  /// contributes the static block r of `out` (support::static_block — the
  /// same partition scatter_blocks uses) and on return every rank's `out`
  /// holds the full concatenation.  Traffic is identical to allgather();
  /// the result lands directly in caller storage with no concatenation
  /// buffer.  A contribution that does not match the block layout is a
  /// named error.
  template <typename T>
  void allgather_into(std::span<const T> local, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = begin_collective({"allgather", -1, sizeof(T), -1});
    const CollAlgo algo = pick_algo_(CollOp::kAllgather);
    const obs::SpanScope span{"mpi", detail::coll_span_name(CollOp::kAllgather, algo),
                              "algo", static_cast<std::int64_t>(algo)};
    const int p = size();
    const auto mine = support::static_block(out.size(), static_cast<std::size_t>(p),
                                            static_cast<std::size_t>(rank_));
    PEACHY_CHECK(local.size() == mine.end - mine.begin,
                 "allgather_into: local size " + std::to_string(local.size()) +
                     " does not equal this rank's static block of the output (" +
                     std::to_string(mine.end - mine.begin) + " elements)");
    if (!local.empty()) {
      std::memcpy(out.data() + mine.begin, local.data(), local.size() * sizeof(T));
    }
    if (p == 1) return;
    if (algo == CollAlgo::kLinear || algo == CollAlgo::kRecDouble) {
      // Variant paths run the block exchange over pooled buffers, then
      // place each block by its static offset (sizes are all computable
      // from the shared output length, so placement needs no extra
      // metadata).
      std::vector<PayloadBuffer> blocks(static_cast<std::size_t>(p));
      blocks[static_cast<std::size_t>(rank_)] =
          BufferPool::instance().acquire(local.size() * sizeof(T));
      if (!local.empty()) {
        std::memcpy(blocks[static_cast<std::size_t>(rank_)].mutable_data(), local.data(),
                    local.size() * sizeof(T));
      }
      if (algo == CollAlgo::kLinear) {
        allgather_blocks_linear(blocks, tag);
      } else {
        allgather_blocks_recdouble(blocks, tag);
      }
      for (int r = 0; r < p; ++r) {
        if (r == rank_) continue;
        const PayloadBuffer& b = blocks[static_cast<std::size_t>(r)];
        const auto blk = support::static_block(out.size(), static_cast<std::size_t>(p),
                                               static_cast<std::size_t>(r));
        PEACHY_CHECK(b.size() == (blk.end - blk.begin) * sizeof(T),
                     "allgather_into: received " + std::to_string(b.size()) +
                         " bytes for block " + std::to_string(r) + " (expected " +
                         std::to_string((blk.end - blk.begin) * sizeof(T)) + ")");
        if (!b.empty()) std::memcpy(out.data() + blk.begin, b.data(), b.size());
      }
      return;
    }
    PayloadBuffer cur = BufferPool::instance().acquire(local.size() * sizeof(T));
    if (!local.empty()) std::memcpy(cur.mutable_data(), local.data(), local.size() * sizeof(T));
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    for (int step = 0; step < p - 1; ++step) {
      const int recv_block = (rank_ - step - 1 + p) % p;
      machine_->post_move(world_rank(), to_world(right), tag, cur.share(), comm_id_);
      cur = recv_buffer(left, tag);
      const auto blk = support::static_block(out.size(), static_cast<std::size_t>(p),
                                             static_cast<std::size_t>(recv_block));
      PEACHY_CHECK(cur.size() == (blk.end - blk.begin) * sizeof(T),
                   "allgather_into: received " + std::to_string(cur.size()) +
                       " bytes for block " + std::to_string(recv_block) + " (expected " +
                       std::to_string((blk.end - blk.begin) * sizeof(T)) + ")");
      if (!cur.empty()) std::memcpy(out.data() + blk.begin, cur.data(), cur.size());
    }
  }

  /// Scatter near-even static blocks of root's vector; returns this
  /// rank's block (OpenMP/Chapel block-partition rule).
  template <typename T>
  [[nodiscard]] std::vector<T> scatter_blocks(std::span<const T> all, int root) {
    const int tag = begin_collective(
        {"scatter", root, sizeof(T),
         rank_ == root ? static_cast<std::int64_t>(all.size()) : std::int64_t{-1}});
    const int p = size();
    if (rank_ == root) {
      const std::size_t n = all.size();
      std::vector<T> mine;
      for (int r = 0; r < p; ++r) {
        const auto blk = support::static_block(n, p, static_cast<std::size_t>(r));
        std::span<const T> piece = all.subspan(blk.begin, blk.end - blk.begin);
        if (r == root) {
          mine.assign(piece.begin(), piece.end());
        } else {
          coll_send<T>(r, tag, piece);
        }
      }
      return mine;
    }
    return recv<T>(root, tag);
  }

  /// All-to-all of variable-size buffers: sendbufs[r] goes to rank r;
  /// returns recvbufs where recvbufs[r] came from rank r (alltoallv).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> alltoall(const std::vector<std::vector<T>>& sendbufs) {
    PEACHY_CHECK(static_cast<int>(sendbufs.size()) == size(),
                 "alltoall: need one send buffer per rank");
    const int tag = begin_collective({"alltoall", -1, sizeof(T), -1});
    const int p = size();
    std::vector<std::vector<T>> recvbufs(static_cast<std::size_t>(p));
    recvbufs[static_cast<std::size_t>(rank_)] = sendbufs[static_cast<std::size_t>(rank_)];
    // Buffered sends never block, so post all sends then drain receives.
    for (int k = 1; k < p; ++k) {
      const int dest = (rank_ + k) % p;
      coll_send<T>(dest, tag, sendbufs[static_cast<std::size_t>(dest)]);
    }
    for (int k = 1; k < p; ++k) {
      const int src = (rank_ - k + p) % p;
      recvbufs[static_cast<std::size_t>(src)] = recv<T>(src, tag);
    }
    return recvbufs;
  }

  /// All-to-all taking ownership of the send buffers: the self-bucket is
  /// *moved* into the result (no copy), and every outgoing buffer rides
  /// the zero-copy adoption path.  Traffic counters are identical to the
  /// copying overload (the self-bucket never was a message).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> alltoall(std::vector<std::vector<T>>&& sendbufs) {
    static_assert(std::is_trivially_copyable_v<T>);
    PEACHY_CHECK(static_cast<int>(sendbufs.size()) == size(),
                 "alltoall: need one send buffer per rank");
    const int tag = begin_collective({"alltoall", -1, sizeof(T), -1});
    const int p = size();
    std::vector<std::vector<T>> recvbufs(static_cast<std::size_t>(p));
    recvbufs[static_cast<std::size_t>(rank_)] =
        std::move(sendbufs[static_cast<std::size_t>(rank_)]);
    for (int k = 1; k < p; ++k) {
      const int dest = (rank_ + k) % p;
      machine_->post_move(
          world_rank(), to_world(dest), tag,
          BufferPool::instance().adopt_typed(std::move(sendbufs[static_cast<std::size_t>(dest)])),
          comm_id_);
    }
    for (int k = 1; k < p; ++k) {
      const int src = (rank_ - k + p) % p;
      recvbufs[static_cast<std::size_t>(src)] = recv<T>(src, tag);
    }
    return recvbufs;
  }

  /// Traffic counters of the whole machine so far.
  [[nodiscard]] TrafficStats traffic() const noexcept { return machine_->stats(); }

  /// Number of collectives this rank has entered so far.
  [[nodiscard]] std::uint64_t collective_seq() const noexcept { return coll_seq_; }

  /// Test/debug hook: jump the collective sequence counter (must be called
  /// identically on every rank, outside any in-flight collective).  Used
  /// by regression tests that exercise the tag-space boundary.
  void debug_set_collective_seq(std::uint64_t seq) noexcept { coll_seq_ = seq; }

 private:
  // Internal tags live above the user tag space and advance per collective
  // call; ranks call collectives in identical order so the tags agree.
  // The sequence is never wrapped: wrapping could alias a live tag in a
  // long-running program and cross-match two distinct collectives, so the
  // full 2^30 tag values above the base are used and exhaustion is a hard
  // error instead of a silent hazard.
  static constexpr int kInternalTagBase = analysis::kMpiInternalTagBase;
  static constexpr std::uint64_t kInternalSeqLimit = (std::uint64_t{1} << 30) - 1;
  int next_internal_tag() {
    PEACHY_CHECK(coll_seq_ <= kInternalSeqLimit,
                 "collective sequence space exhausted (2^30 collectives in one run)");
    return kInternalTagBase + static_cast<int>(coll_seq_++);
  }

  /// Allocate the collective's tag and (when checking is on) validate the
  /// call against the other ranks' collective sequences.  Shrunken
  /// communicators skip the checker: its collective matcher assumes
  /// world-wide participation, and sub-communicator collectives validate
  /// their shape through payload-size checks instead.
  int begin_collective(const analysis::CollectiveDesc& d) {
    const std::uint64_t index = coll_seq_;
    const int tag = next_internal_tag();
    if (comm_id_ == 0) machine_->note_collective(rank_, index, d);
    return tag;
  }

  void check_user_send(int dest, int tag) const {
    PEACHY_CHECK(dest >= 0 && dest < size(), "send: bad destination rank");
    PEACHY_CHECK(tag >= 0 && tag < kInternalTagBase,
                 "send: user tags must be in [0, 2^30)");
  }

  // ---- algorithmic collectives (DESIGN.md §14) ------------------------------
  // Every rank resolves the same (op, p) against the run's CollAlgos and
  // branches to the same algorithm without agreeing on it explicitly.
  // kAuto is the default path of every op.

  /// Resolve the algorithm for one collective call and bump its
  /// `mpi.coll.algo.<name>` counter.
  [[nodiscard]] CollAlgo pick_algo_(CollOp op) {
    const CollAlgo algo = machine_->coll_algos().pick(op, size());
    if (obs::enabled()) obs::counter(detail::coll_algo_counter_name(algo)).add(1);
    return algo;
  }

  /// Binomial-tree broadcast of a pooled payload along `tag`'s edges:
  /// at root `buf` is the payload to send (forwarded to each child by
  /// refcount bump); at non-root, `buf` holds the received payload on
  /// return, after forwarding it down this rank's subtree.
  void bcast_payload(PayloadBuffer& buf, int root, int tag);

  /// Flat broadcast: root posts the payload to every other rank (p−1
  /// refcount bumps, one round); non-roots do a single receive.
  void bcast_payload_linear(PayloadBuffer& buf, int root, int tag);

  /// Chain broadcast: the payload hops rank to rank around the ring
  /// starting at root (p−1 sequential hops, each a refcount bump).
  void bcast_payload_chain(PayloadBuffer& buf, int root, int tag);

  /// Dispatch on the selected broadcast algorithm (kAuto → binomial, the
  /// historical default; kRecDouble has no broadcast form and also takes
  /// the default path).
  void bcast_payload_algo(PayloadBuffer& buf, int root, int tag, CollAlgo algo);

  /// Block-exchange engines behind allgather/allgather_into.  On entry
  /// `blocks[rank_]` holds this rank's contribution; on return every
  /// slot is filled.  All forwarding is by refcount bump.
  void allgather_blocks_ring(std::vector<PayloadBuffer>& blocks, int tag);
  void allgather_blocks_linear(std::vector<PayloadBuffer>& blocks, int tag);
  void allgather_blocks_recdouble(std::vector<PayloadBuffer>& blocks, int tag);

  /// The historical binomial-tree reduction (the kAuto path): combine
  /// order is "own value first, then each arriving subtree in mask
  /// order" — pinned per (p, root), so float results repeat bit-for-bit.
  template <typename T, typename Op>
  void reduce_binomial_(std::span<T> data, Op op, int root, int tag) {
    const int p = size();
    const int vrank = (rank_ - root + p) % p;
    int mask = 1;
    while (mask < p) {
      if ((vrank & mask) == 0) {
        const int vsrc = vrank | mask;
        if (vsrc < p) {
          const int src = (vsrc + root) % p;
          const PayloadBuffer part = recv_buffer(src, tag);
          PEACHY_CHECK(part.size() == data.size() * sizeof(T),
                       "reduce: contribution size mismatch");
          const T* in = reinterpret_cast<const T*>(part.data());
          for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(data[i], in[i]);
        }
      } else {
        const int dest = ((vrank & ~mask) + root) % p;
        coll_send<T>(dest, tag, std::span<const T>{data.data(), data.size()});
        return;
      }
      mask <<= 1;
    }
  }

  /// Flat reduction: every non-root sends its contribution to root in
  /// one round; root folds them in ascending rank order (the pinned
  /// combine order), starting from its own value.
  template <typename T, typename Op>
  void reduce_linear_(std::span<T> data, Op op, int root, int tag) {
    const int p = size();
    if (p == 1) return;
    if (rank_ != root) {
      coll_send<T>(root, tag, std::span<const T>{data.data(), data.size()});
      return;
    }
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      const PayloadBuffer part = recv_buffer(r, tag);
      PEACHY_CHECK(part.size() == data.size() * sizeof(T),
                   "reduce: contribution size mismatch");
      const T* in = reinterpret_cast<const T*>(part.data());
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(data[i], in[i]);
    }
  }

  /// Ring reduce-scatter over static_block chunks: p−1 rounds, each rank
  /// forwarding its running partial for one chunk to the right and
  /// folding the arriving partial from the left into its own data.
  /// Chunk c's contributions fold in ring order c, c+1, …, c−1 (the
  /// pinned combine order), finishing at rank (c−1+p)%p — equivalently,
  /// rank r ends owning the fully-reduced chunk (r+1)%p in place.
  template <typename T, typename Op>
  void ring_reduce_scatter_(std::span<T> data, Op op, int tag) {
    const int p = size();
    const std::size_t n = data.size();
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    for (int s = 0; s < p - 1; ++s) {
      const int send_chunk = (rank_ - s + p) % p;
      const int recv_chunk = (rank_ - s - 1 + p) % p;
      const auto sb = support::static_block(n, static_cast<std::size_t>(p),
                                            static_cast<std::size_t>(send_chunk));
      coll_send<T>(right, tag, std::span<const T>{data.data() + sb.begin, sb.end - sb.begin});
      const auto rb = support::static_block(n, static_cast<std::size_t>(p),
                                            static_cast<std::size_t>(recv_chunk));
      const PayloadBuffer part = recv_buffer(left, tag);
      PEACHY_CHECK(part.size() == (rb.end - rb.begin) * sizeof(T),
                   "reduce: contribution size mismatch");
      const T* in = reinterpret_cast<const T*>(part.data());
      for (std::size_t i = 0; i < rb.end - rb.begin; ++i) {
        data[rb.begin + i] = op(in[i], data[rb.begin + i]);
      }
    }
  }

  /// Ring reduction: reduce-scatter, then every rank ships its owned
  /// fully-reduced chunk to root, which assembles them in place.
  template <typename T, typename Op>
  void reduce_ring_(std::span<T> data, Op op, int root, int tag) {
    const int p = size();
    if (p == 1) return;
    ring_reduce_scatter_(data, op, tag);
    const int own_chunk = (rank_ + 1) % p;
    const auto ob = support::static_block(data.size(), static_cast<std::size_t>(p),
                                          static_cast<std::size_t>(own_chunk));
    if (rank_ != root) {
      coll_send<T>(root, tag, std::span<const T>{data.data() + ob.begin, ob.end - ob.begin});
      return;
    }
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      const int chunk = (r + 1) % p;
      const auto cb = support::static_block(data.size(), static_cast<std::size_t>(p),
                                            static_cast<std::size_t>(chunk));
      // FIFO per (source, tag) keeps this gather round behind the same
      // source's reduce-scatter rounds, so one tag serves both phases.
      const PayloadBuffer part = recv_buffer(r, tag);
      PEACHY_CHECK(part.size() == (cb.end - cb.begin) * sizeof(T),
                   "reduce: contribution size mismatch");
      if (!part.empty()) std::memcpy(data.data() + cb.begin, part.data(), part.size());
    }
  }

  /// Ring allreduce: reduce-scatter, then p−1 allgather rounds forwarding
  /// the newest complete chunk.  Every rank ends with identical bytes
  /// (each chunk was folded exactly once, in ring order).
  template <typename T, typename Op>
  void allreduce_ring_(std::span<T> data, Op op, int tag) {
    const int p = size();
    if (p == 1) return;
    ring_reduce_scatter_(data, op, tag);
    const std::size_t n = data.size();
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    for (int s = 0; s < p - 1; ++s) {
      const int send_chunk = (rank_ + 1 - s + p) % p;
      const int recv_chunk = (rank_ - s + p) % p;
      const auto sb = support::static_block(n, static_cast<std::size_t>(p),
                                            static_cast<std::size_t>(send_chunk));
      coll_send<T>(right, tag, std::span<const T>{data.data() + sb.begin, sb.end - sb.begin});
      const auto rb = support::static_block(n, static_cast<std::size_t>(p),
                                            static_cast<std::size_t>(recv_chunk));
      const PayloadBuffer part = recv_buffer(left, tag);
      PEACHY_CHECK(part.size() == (rb.end - rb.begin) * sizeof(T),
                   "allreduce: chunk size mismatch");
      if (!part.empty()) std::memcpy(data.data() + rb.begin, part.data(), part.size());
    }
  }

  /// Recursive-doubling allreduce (power-of-two p, enforced at
  /// selection): log2(p) rounds of pairwise full-vector exchange.  Both
  /// partners fold with the *lower-ranked* side as the left operand, so
  /// every rank of every pair — inductively, every rank — computes
  /// bit-identical accumulators.
  template <typename T, typename Op>
  void allreduce_recdouble_(std::span<T> data, Op op, int tag) {
    const int p = size();
    for (int mask = 1; mask < p; mask <<= 1) {
      const int partner = rank_ ^ mask;
      coll_send<T>(partner, tag, std::span<const T>{data.data(), data.size()});
      const PayloadBuffer part = recv_buffer(partner, tag);
      PEACHY_CHECK(part.size() == data.size() * sizeof(T),
                   "allreduce: contribution size mismatch");
      const T* in = reinterpret_cast<const T*>(part.data());
      if (partner < rank_) {
        for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(in[i], data[i]);
      } else {
        for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(data[i], in[i]);
      }
    }
  }

  /// Flat allreduce: linear reduce to rank 0 (ascending-rank fold), then
  /// rank 0 posts the result to everyone by refcount bump.
  template <typename T, typename Op>
  void allreduce_linear_(std::span<T> data, Op op, int tag) {
    const int p = size();
    if (p == 1) return;
    if (rank_ != 0) {
      coll_send<T>(0, tag, std::span<const T>{data.data(), data.size()});
      const PayloadBuffer res = recv_buffer(0, tag);
      PEACHY_CHECK(res.size() == data.size() * sizeof(T), "allreduce: result size mismatch");
      if (!res.empty()) std::memcpy(data.data(), res.data(), res.size());
      return;
    }
    for (int r = 1; r < p; ++r) {
      const PayloadBuffer part = recv_buffer(r, tag);
      PEACHY_CHECK(part.size() == data.size() * sizeof(T),
                   "allreduce: contribution size mismatch");
      const T* in = reinterpret_cast<const T*>(part.data());
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(data[i], in[i]);
    }
    PayloadBuffer buf = BufferPool::instance().acquire(data.size() * sizeof(T));
    if (!data.empty()) std::memcpy(buf.mutable_data(), data.data(), buf.size());
    for (int r = 1; r < p; ++r) {
      machine_->post_move(world_rank(), to_world(r), tag, buf.share(), comm_id_);
    }
  }

  // raw send that bypasses the user-tag validation (collectives use tags
  // >= kInternalTagBase).
  template <typename T>
  void coll_send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    machine_->post(world_rank(), to_world(dest), tag, std::as_bytes(data), comm_id_);
  }
  template <typename T>
  void coll_send(int dest, int tag, const std::vector<T>& data) {
    coll_send<T>(dest, tag, std::span<const T>{data.data(), data.size()});
  }

  /// Sub-communicator constructor (shrink's result).
  Comm(detail::Machine& machine, int rank, std::vector<int> group, std::uint32_t comm_id,
       std::uint64_t timeout_ns) noexcept
      : machine_{&machine},
        rank_{rank},
        group_{std::move(group)},
        comm_id_{comm_id},
        timeout_ns_{timeout_ns} {}

  [[nodiscard]] int to_world(int local) const noexcept {
    return group_.empty() ? local : group_[static_cast<std::size_t>(local)];
  }
  [[nodiscard]] int to_local(int world) const noexcept {
    if (group_.empty()) return world;
    for (std::size_t i = 0; i < group_.size(); ++i) {
      if (group_[i] == world) return static_cast<int>(i);
    }
    return world;  // unreachable: comm-id matching admits group members only
  }

  /// Timeout validation shared by set_op_timeout and the one-shot timed
  /// receives: negative deadlines are rejected loudly (std::invalid_argument
  /// carrying the caller's name and the offending value) instead of the
  /// old silent clamp to "wait forever".
  static std::uint64_t checked_timeout_ns(std::chrono::nanoseconds t, const char* who) {
    if (t.count() < 0) {
      throw std::invalid_argument{std::string{who} + ": negative timeout (" +
                                  std::to_string(t.count()) +
                                  " ns) would silently mean \"wait forever\""};
    }
    return static_cast<std::uint64_t>(t.count());
  }

  /// The single receive path: validates the local source, translates to
  /// world numbering, applies the communicator's op timeout, and localizes
  /// the matched message's source on the way out.
  detail::Message take_(int source, int tag, const std::size_t* exact_bytes = nullptr) {
    return take_timed_(source, tag, timeout_ns_, exact_bytes);
  }
  detail::Message take_timed_(int source, int tag, std::uint64_t timeout_ns,
                              const std::size_t* exact_bytes = nullptr) {
    PEACHY_CHECK(source == kAnySource || (source >= 0 && source < size()),
                 "recv: bad source rank");
    detail::Message m =
        machine_->take(world_rank(), source == kAnySource ? kAnySource : to_world(source), tag,
                       comm_id_, timeout_ns, group_.empty() ? nullptr : &group_, exact_bytes);
    m.source = to_local(m.source);
    return m;
  }

  detail::Machine* machine_;
  int rank_;
  std::vector<int> group_;      ///< empty = world communicator (identity map)
  std::uint32_t comm_id_ = 0;
  std::uint64_t timeout_ns_ = 0;
  std::uint64_t shrink_seq_ = 0;  ///< agreement-key counter for shrink()
  std::uint64_t coll_seq_ = 0;
};

/// Check level `run()` applies when none is requested.  `CheckLevel::off`
/// in normal builds; grading builds configured with -DPEACHY_ANALYSIS=ON
/// check every run at `CheckLevel::full` with no code changes.
[[nodiscard]] constexpr analysis::CheckLevel default_check_level() noexcept {
#if defined(PEACHY_ANALYSIS) && PEACHY_ANALYSIS
  return analysis::CheckLevel::full;
#else
  return analysis::CheckLevel::off;
#endif
}

/// Knobs for one run() beyond the check level.
struct RunOptions {
  analysis::CheckLevel check = default_check_level();
  /// Fault plan to inject.  nullptr falls back to the `PEACHY_FAULTS`
  /// environment plan (if any); pass a plan explicitly for tests.
  const faults::FaultPlan* plan = nullptr;
  /// Default deadline for every blocking op, inherited by every Comm
  /// (0 falls back to `PEACHY_MPI_TIMEOUT_MS`, else blocks forever).
  std::uint64_t op_timeout_ns = 0;
  /// If non-null, receives the injector's canonical fired-event log after
  /// the run (empty when no plan was active) — the replay-determinism
  /// artifact that scripts/check.sh diffs across reruns.
  std::string* fault_log = nullptr;
  /// Collective algorithm per op for this run (default: kAuto for all).
  CollAlgos coll_algos;
  /// Message-movement backend.  kDefault defers to PEACHY_TRANSPORT
  /// (unset → inproc).  Inside a launched world the launcher's wire
  /// always wins — every process of one world must speak the same
  /// transport — and requesting a different one is a named error.
  TransportKind transport = TransportKind::kDefault;
};

/// Execute `fn(comm)` on `nranks` rank-threads; blocks until all complete.
/// If any rank throws, the machine aborts (waking blocked receivers) and
/// the first exception is rethrown here.  Returns aggregate traffic stats.
///
/// With a check level other than `off`, checker diagnoses (deadlock,
/// collective mismatch, message leak) are thrown as analysis::CheckFailure.
///
/// A rank that dies of an injected crash (faults::RankKilled) does NOT
/// abort the machine: the rank is retired, its peers observe the failure
/// as faults::RankFailedError, and the run's outcome is whatever the
/// survivors make of it — which is how recovery becomes demonstrable.
TrafficStats run(int nranks, const std::function<void(Comm&)>& fn,
                 analysis::CheckLevel level = default_check_level());

/// run() with fault-tolerance knobs (fault plan, default op deadline).
TrafficStats run(int nranks, const std::function<void(Comm&)>& fn, const RunOptions& opts);

/// Result of a checked execution: traffic stats plus the checker's report.
struct CheckedRun {
  TrafficStats stats;
  analysis::Report report;
};

/// Like run(), but collects the checker's findings instead of throwing
/// them: if the report is not clean, the findings *are* the outcome and
/// any secondary exception (e.g. "machine aborted") is swallowed.  User
/// exceptions from runs with a clean report are rethrown as usual.  This
/// is the grading entry point: feed it a student's rank function and
/// inspect / print the report.
CheckedRun run_checked(int nranks, const std::function<void(Comm&)>& fn,
                       analysis::CheckLevel level = analysis::CheckLevel::full);

/// run_checked() with fault-tolerance knobs — lets tests inspect how the
/// checker classified an injected failure (opts.check below `full` is
/// raised to `full`).
CheckedRun run_checked(int nranks, const std::function<void(Comm&)>& fn, RunOptions opts);

}  // namespace peachy::mpi
