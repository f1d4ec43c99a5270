#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "faults/detect.hpp"
#include "faults/plan.hpp"
#include "mpi/frame_router.hpp"
#include "mpi/launch.hpp"
#include "mpi/shm_ring.hpp"
#include "mpi/transport.hpp"
#include "mpi/wire.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::mpi::detail {

namespace {

/// One process-wide endpoint over the world's shm segment: the launcher
/// created it (launched runs) or we create a private single-process one
/// and unlink it immediately (the mapping survives; nothing leaks into
/// /dev/shm past process exit).  The pump drains this process's inbound
/// ring and routes frames; sends push into the destination process's
/// ring (shm_ring.hpp has the slot/spillover protocol).
///
/// Failure mapping: shared memory has no EOF, so the *launcher* is the
/// failure detector — it reaps a signal death and posts a kFailed frame
/// into every survivor's ring (launch.cpp).  The endpoint additionally
/// remembers dead processes so sends to them are dropped (and a sender
/// already blocked on a dead process's full ring gives up) instead of
/// piling into a ring nobody will ever drain.
class ShmEndpoint {
 public:
  static ShmEndpoint& instance() {
    (void)BufferPool::instance();  // constructed first → outlives the endpoint
    static ShmEndpoint ep;
    return ep;
  }

  void ensure_started() {
    std::lock_guard lock{start_mu_};
    if (started_) return;
    const LaunchInfo& li = launch_info();
    if (li.launched) {
      PEACHY_CHECK(li.kind == TransportKind::kShm && !li.shm_name.empty(),
                   "shm transport: launched without a PEACHY_SHM segment to attach");
      launched_ = true;
      my_proc_ = li.rank;
      nprocs_ = li.nranks;
      view_ = shm_attach(li.shm_name);
      PEACHY_CHECK(static_cast<int>(view_.header()->nprocs) == nprocs_,
                   "shm transport: segment was created for " +
                       std::to_string(view_.header()->nprocs) + " processes, not " +
                       std::to_string(nprocs_));
    } else {
      const std::string name = "/peachy." + std::to_string(getpid()) + ".self";
      view_ = shm_create(name, 1, kShmSpillBytes);
      shm_unlink(name.c_str());
    }
    dead_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(nprocs_));
    pump_ = std::thread{[this] { pump_main(); }};
    // Heartbeat: launched multi-process worlds only (from_env gates).
    hb_ = faults::HeartbeatConfig::from_env(launched_, nprocs_);
    if (hb_.enabled()) beat_ = std::thread{[this] { beat_main(); }};
    started_ = true;
  }

  [[nodiscard]] FrameRouter& router() noexcept { return router_; }
  [[nodiscard]] bool launched() const noexcept { return launched_; }
  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }
  [[nodiscard]] int my_proc() const noexcept { return my_proc_; }
  [[nodiscard]] int proc_of(int rank) const noexcept { return launched_ ? rank : 0; }

  void send_frame(int proc, FrameHeader h, const std::byte* payload) {
    std::atomic<bool>& dead = dead_[static_cast<std::size_t>(proc)];
    if (dead.load(std::memory_order_relaxed)) return;
    if (faults::WireInjector* wi = faults::wire::injector(); wi != nullptr) {
      if (inject_and_push(*wi, proc, h, payload, dead)) return;
    }
    seal_frame(h, payload);
    (void)ring_push(view_, proc, my_proc_, h, payload, &dead);
  }

 private:
  ShmEndpoint() = default;

  ~ShmEndpoint() {
    if (!started_) return;
    stop_.store(true);
    if (beat_.joinable()) {
      {
        const std::lock_guard lock{beat_mu_};  // pairs with the cv wait
      }
      beat_cv_.notify_all();
      beat_.join();
    }
    // A self-addressed goodbye wakes the pump out of its futex wait
    // immediately (the 100ms safety poll would get there anyway).
    FrameHeader bye = make_ctrl_header(WireKind::kBye, 0, my_proc_, 0);
    seal_frame(bye, nullptr);
    (void)ring_push(view_, my_proc_, my_proc_, bye, nullptr);
    pump_.join();
    shm_detach(view_);
  }

  /// Apply a fired wire action to one outbound frame.  Returns true when
  /// the frame was fully handled here (dropped, or pushed in mutated
  /// form); false sends it down the normal path.  The CRC is sealed over
  /// the *true* content before any mutation, so the receiver's integrity
  /// check must catch what we damaged.
  bool inject_and_push(faults::WireInjector& wi, int proc, FrameHeader& h,
                       const std::byte* payload, std::atomic<bool>& dead) {
    const int src =
        static_cast<WireKind>(h.kind) == WireKind::kData ? h.source : my_proc_;
    const faults::WireAction a = wi.on_frame(src, proc, h.kind);
    if (!a.any()) return false;
    if (a.delay_ns != 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(a.delay_ns));
    }
    if (a.drop) return true;
    seal_frame(h, payload);
    const int copies = a.duplicate ? 2 : 1;
    if (a.corrupt || a.truncate) {
      // Mutate a private copy: duplicates and machine-level fan-out share
      // `payload`, and a clean copy of this same buffer may still be in
      // flight elsewhere.
      std::vector<std::byte> scratch(static_cast<std::size_t>(h.bytes));
      if (h.bytes != 0) std::memcpy(scratch.data(), payload, h.bytes);
      if (h.bytes == 0) {
        h.crc ^= 1;  // nothing to damage but the header
      } else if (a.truncate) {
        // The ring has no short writes, so "truncated" means the tail
        // never made it: zeros where content should be.
        const std::size_t keep = static_cast<std::size_t>(h.bytes) / 2;
        std::memset(scratch.data() + keep, 0, scratch.size() - keep);
      } else {
        scratch[scratch.size() / 2] ^= std::byte{0x01};
      }
      for (int c = 0; c < copies; ++c) {
        (void)ring_push(view_, proc, my_proc_, h, scratch.data(), &dead);
      }
      return true;
    }
    for (int c = 0; c < copies; ++c) {
      (void)ring_push(view_, proc, my_proc_, h, payload, &dead);
    }
    return true;
  }

  /// Dispatch one frame whose payload still lives in the segment (inline
  /// slot or spill block): kData copies exactly once, segment → pooled
  /// message buffer.  Nothing in here pushes back into our own ring —
  /// the ring_consume contract — because routing only ever touches
  /// mailboxes and router state.
  void dispatch(const FrameHeader& h, const std::byte* payload) {
    if (!frame_crc_ok(h, payload)) {
      if (obs::enabled()) obs::counter("mpi.transport.crc_fail").add(1);
      // A corrupt data frame is dropped — to its receiver it is a lost
      // frame, and the timeout/recovery machinery takes over.  Control
      // frames are *never* silently dropped: losing a kFailed/kRevoke
      // wedges every survivor, and the protocol they carry is sticky and
      // idempotent, so delivering a damaged one is strictly safer.
      if (static_cast<WireKind>(h.kind) == WireKind::kData) return;
    }
    switch (static_cast<WireKind>(h.kind)) {
      case WireKind::kData:
        router_.route_data(h.seq, h.dest, frame_to_message(h, payload));
        break;
      case WireKind::kFailed:
        if (h.source >= 0 && h.source < nprocs_) {
          dead_[static_cast<std::size_t>(h.source)].store(true, std::memory_order_relaxed);
        }
        router_.peer_failed(static_cast<std::uint32_t>(h.source),
                            "rank " + std::to_string(h.source) +
                                "'s process died (reported by the launcher)");
        break;
      case WireKind::kRevoke:
        router_.route_ctrl(h.seq, CtrlKind::kRevoke, h.comm, {});
        break;
      case WireKind::kAbort:
        router_.route_ctrl(h.seq, CtrlKind::kAbort, 0,
                           std::string{reinterpret_cast<const char*>(payload),
                                       static_cast<std::size_t>(h.bytes)});
        break;
      case WireKind::kHello:
      case WireKind::kBye:
        break;  // rendezvous is the launcher's job; bye is just a wakeup
      case WireKind::kPing:
        // Endpoint-level liveness only (the shm detector reads alive
        // words, not pings, but a socket-style ping must still never
        // reach a machine or the checker's in-flight accounting).
        break;
    }
  }

  static void note_batch(std::uint64_t batch) {
    if (batch != 0 && obs::enabled()) {
      static obs::Histogram& hist = obs::histogram("mpi.transport.shm.pump_batch");
      hist.note(batch);
    }
  }

  void pump_main() {
    const std::function<void(const FrameHeader&, const std::byte*)> consume =
        [this](const FrameHeader& h, const std::byte* payload) { dispatch(h, payload); };
    // Batch = frames drained between two waits: the histogram that shows
    // whether steady-state traffic amortizes its wakeups.
    std::uint64_t batch = 0;
    bool waited = false;
    while (ring_consume(view_, my_proc_, stop_, consume, &waited)) {
      if (waited) {
        note_batch(batch);
        batch = 0;
      }
      ++batch;
    }
    note_batch(batch);
  }

  [[nodiscard]] static std::uint64_t monotonic_ns() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  /// Heartbeat thread (DESIGN.md §17): every interval, store our
  /// CLOCK_MONOTONIC timestamp into the segment's alive word — shared
  /// memory is the ping; no frames, no ring traffic — and scan the
  /// peers' words.  CLOCK_MONOTONIC is system-wide, so the words of
  /// different processes are directly comparable.  A peer whose dead
  /// flag is set is the launcher's kill; we skip it.  A peer whose word
  /// stays stale past the timeout (+ grace) is confirmed dead — SIGKILL
  /// with no launcher alive to notice, or wedged (SIGSTOP, runaway
  /// handler) — and fed to the router exactly like a launcher report.
  void beat_main() {
    faults::HeartbeatMonitor mon{nprocs_, hb_};
    const auto interval = std::chrono::nanoseconds{hb_.interval_ns()};
    for (;;) {
      const std::uint64_t now = monotonic_ns();
      view_.peer(my_proc_).alive_ns.store(now, std::memory_order_relaxed);
      for (int p = 0; p < nprocs_; ++p) {
        if (p == my_proc_) continue;
        const ShmPeer& peer = view_.peer(p);
        if (peer.dead.load(std::memory_order_relaxed) != 0) continue;  // launcher reported it
        std::atomic<bool>& dead = dead_[static_cast<std::size_t>(p)];
        if (dead.load(std::memory_order_relaxed)) continue;
        const std::uint64_t w = peer.alive_ns.load(std::memory_order_relaxed);
        if (w != 0) mon.alive(p, w);
        if (mon.check(p, now) == faults::HeartbeatMonitor::Verdict::kConfirmed) {
          dead.store(true, std::memory_order_relaxed);
          router_.peer_failed(
              static_cast<std::uint32_t>(p),
              "rank " + std::to_string(p) + "'s process went silent: no heartbeat for " +
                  std::to_string((now - w) / 1'000'000) + "ms (peer-to-peer detection)");
        }
      }
      std::unique_lock lock{beat_mu_};
      if (beat_cv_.wait_for(lock, interval,
                            [this] { return stop_.load(std::memory_order_relaxed); })) {
        return;
      }
    }
  }

  std::mutex start_mu_;
  bool started_ = false;
  bool launched_ = false;
  int my_proc_ = 0;
  int nprocs_ = 1;
  ShmView view_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  FrameRouter router_;
  std::atomic<bool> stop_{false};
  std::thread pump_;
  faults::HeartbeatConfig hb_;
  std::mutex beat_mu_;
  std::condition_variable beat_cv_;
  std::thread beat_;
};

class ShmTransport final : public Transport {
 public:
  explicit ShmTransport(const TransportConfig& cfg) : ep_{ShmEndpoint::instance()} {
    ep_.ensure_started();
    if (ep_.launched()) {
      PEACHY_CHECK(cfg.nranks == ep_.nprocs(),
                   "shm transport: a launched world runs one rank per process, so "
                   "mpi::run(nranks=" +
                       std::to_string(cfg.nranks) + ") must match the " +
                       std::to_string(ep_.nprocs()) + " launched processes");
    }
    seq_ = ep_.router().attach(cfg.sink);
  }

  ~ShmTransport() override { shutdown(); }

  [[nodiscard]] TransportKind kind() const noexcept override { return TransportKind::kShm; }
  [[nodiscard]] bool spans_processes() const noexcept override {
    return ep_.launched() && ep_.nprocs() > 1;
  }
  [[nodiscard]] bool is_local(int rank) const noexcept override {
    return !ep_.launched() || rank == ep_.my_proc();
  }

  void send(int dest, Message&& m, int copies) override {
    const FrameHeader h = make_data_header(seq_, m, dest);
    const int proc = ep_.proc_of(dest);
    for (int c = 0; c < copies; ++c) ep_.send_frame(proc, h, m.payload.data());
  }

  void broadcast_ctrl(CtrlKind k, std::uint32_t arg, const std::string& why) override {
    if (!spans_processes()) return;
    FrameHeader h;
    const std::byte* payload = nullptr;
    switch (k) {
      case CtrlKind::kFailed:
        h = make_ctrl_header(WireKind::kFailed, seq_, static_cast<std::int32_t>(arg), 0);
        break;
      case CtrlKind::kRevoke:
        h = make_ctrl_header(WireKind::kRevoke, seq_, ep_.my_proc(), arg);
        break;
      case CtrlKind::kAbort:
        h = make_ctrl_header(WireKind::kAbort, seq_, ep_.my_proc(), 0, why.size());
        payload = reinterpret_cast<const std::byte*>(why.data());
        break;
    }
    for (int p = 0; p < ep_.nprocs(); ++p) {
      if (p != ep_.my_proc()) ep_.send_frame(p, h, payload);
    }
  }

  void shutdown() override {
    if (attached_) {
      attached_ = false;
      ep_.router().detach(seq_);
    }
  }

 private:
  ShmEndpoint& ep_;
  std::uint32_t seq_ = 0;
  bool attached_ = true;
};

}  // namespace

std::unique_ptr<Transport> make_shm_transport(const TransportConfig& cfg) {
  return std::make_unique<ShmTransport>(cfg);
}

}  // namespace peachy::mpi::detail
