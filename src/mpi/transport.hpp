#pragma once
/// \file transport.hpp
/// \brief The mini-MPI transport seam: one message-movement interface,
/// three backends (in-process, shared-memory, TCP socket).
///
/// DESIGN.md §15.  `detail::Machine` owns matching, blocking, failure
/// detection, checking, and fault injection; a `Transport` owns nothing
/// but *message movement*: `send()` routes a fully-formed `Message` to
/// the destination rank's mailbox, delivering through the machine's
/// `TransportSink::deliver` — on the calling thread for the in-process
/// backend, on a pump thread for the wire backends.  Everything above
/// the seam (checker, injector, obs hooks, collective algorithms, the
/// recv-side matching loop) is backend-agnostic by construction, which
/// is the point of the refactor.
///
/// Backends:
///
///   kInproc — the historical pooled path: `send` pushes straight into
///             the destination mailbox under its lock (one refcount
///             move, zero copies).  Bit-identical to the pre-seam code.
///   kShm    — a POSIX shared-memory segment holding one slot-ring per
///             process (fixed-size slots + a spillover region for large
///             frames), a lock-free slot protocol and futex parking for
///             cross-process wakeup.  Co-located processes only.
///   kSocket — length-prefixed frames over loopback TCP, one ordered
///             connection per process pair.  True multi-process runs;
///             peer death surfaces as EOF/ECONNRESET and is mapped to
///             the poisoned-mailbox failure path (CtrlKind::kFailed).
///
/// Selection: `RunOptions::transport`, else the `PEACHY_TRANSPORT`
/// environment variable (`inproc` | `shm` | `socket`; unset means
/// inproc), resolved by `transport_from_env()`.  Inside a world spawned
/// by peachy-launch / `mpi::launch()`, the launcher's choice (from the
/// rendezvous environment) always wins — every process of one world
/// must speak the same wire.
///
/// Single-process semantics are identical across all three backends:
/// the wire backends route every message — including rank-to-same-
/// process rank — through full serialization, so the conformance suite
/// exercises the real frame path without needing multiple processes.
/// The only intentional behavioral difference is asynchrony: a wire
/// `send` returns after handing the frame to the transport, and the
/// message becomes visible to `probe`/`recv` when the pump delivers it.

#include <cstdint>
#include <memory>
#include <string>

#include "mpi/buffer_pool.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>

namespace peachy::mpi {

/// Which message-movement backend a run uses.  kDefault defers to the
/// PEACHY_TRANSPORT environment variable (unset → kInproc).
enum class TransportKind : std::uint8_t { kDefault, kInproc, kShm, kSocket };

/// "inproc" / "shm" / "socket" (string literals; kDefault → "default").
[[nodiscard]] const char* transport_name(TransportKind k) noexcept;

/// Resolve PEACHY_TRANSPORT: unset or empty → kInproc; "inproc" | "shm"
/// | "socket" → that backend; anything else is a named peachy::Error
/// (a typo must not silently fall back to a different transport).
[[nodiscard]] TransportKind transport_from_env();

/// Parse one transport name ("inproc" | "shm" | "socket"); named error
/// otherwise.  CLI surface for examples/tools (--transport=...).
[[nodiscard]] TransportKind parse_transport(const std::string& name);

namespace detail {

struct Message {
  int source;
  int tag;
  /// Communicator the message belongs to (0 = the world communicator).
  /// Matching requires equality, so a shrunken communicator's collectives
  /// can never consume stale traffic addressed to the communicator it
  /// replaced — without carving up the tag space.
  std::uint32_t comm = 0;
  PayloadBuffer payload;
};

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> queue;
  /// This mailbox's queue-depth gauge name ("mpi.queue[r]"), interned
  /// via obs::intern_name so the pointer outlives the Machine — trace
  /// export happens after short-lived Machines are destroyed.
  const char* trace_name = "mpi.queue[?]";
};

/// Control events a transport can surface to its machine.  These carry
/// the cross-process halves of protocols the machine already implements
/// locally (mark_failed / revoke / abort); the transport never interprets
/// them beyond routing.
enum class CtrlKind : std::uint8_t {
  kFailed,  ///< arg = world rank that died (process exit without goodbye)
  kRevoke,  ///< arg = communicator id revoked by a peer process
  kAbort,   ///< why = the aborting peer's reason; arg unused
};

/// The machine half of the seam: where delivered messages and control
/// events land.  Implemented by detail::Machine.  `deliver` may be
/// called from the sending rank's thread (inproc) or a transport pump
/// thread (shm/socket); it must be safe against concurrent receivers.
class TransportSink {
 public:
  virtual ~TransportSink() = default;

  /// Enqueue `m` into dest's mailbox and wake its waiters.  `copies > 1`
  /// is the fault injector's duplicate-delivery: every copy shares the
  /// payload bytes (refcount bump), the receiver sees `copies` full
  /// deliveries.
  virtual void deliver(int dest, Message&& m, int copies) = 0;

  /// A control event arrived from a peer process (or from the transport
  /// itself, e.g. EOF-detected peer death).
  virtual void on_ctrl(CtrlKind k, std::uint32_t arg, const std::string& why) = 0;
};

/// The transport half of the seam: message movement only.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual TransportKind kind() const noexcept = 0;

  /// True when the world's ranks live in more than one OS process (a
  /// launched run).  Gates the behaviors that only make sense across
  /// processes: injected crashes become real SIGKILLs, failure/revoke
  /// events are broadcast, and every rank checkpoints (the in-memory
  /// store is per-process).
  [[nodiscard]] virtual bool spans_processes() const noexcept = 0;

  /// True when `rank` executes in this process (always true for inproc
  /// and for un-launched shm/socket runs).
  [[nodiscard]] virtual bool is_local(int rank) const noexcept = 0;

  /// Route one message to `dest`'s mailbox.  Local destinations reach
  /// the sink on this thread (inproc) or via the frame path (wire
  /// backends — serialization is exercised even locally); remote
  /// destinations are framed and shipped.  Sends to a rank whose
  /// process already died are dropped silently — dead ranks cannot
  /// hear, and the sender learns of the death through the failure path.
  virtual void send(int dest, Message&& m, int copies) = 0;

  /// Fan a control event out to every *other* process of the world (the
  /// caller has already applied it locally).  No-op when the world is a
  /// single process.
  virtual void broadcast_ctrl(CtrlKind k, std::uint32_t arg, const std::string& why) = 0;

  /// Detach from the sink: after shutdown returns, no further deliver /
  /// on_ctrl calls will be made.  Idempotent; called by ~Machine.
  virtual void shutdown() = 0;
};

/// Everything a backend needs to wire itself to one machine.
struct TransportConfig {
  int nranks = 0;
  TransportKind kind = TransportKind::kInproc;
  TransportSink* sink = nullptr;
};

/// Backend factory.  kDefault/kInproc → in-process; kShm / kSocket
/// attach to the process-wide endpoint for that backend (created on
/// first use; rendezvous with peer processes happens there when the
/// run was spawned by mpi::launch()).
[[nodiscard]] std::unique_ptr<Transport> make_transport(const TransportConfig& cfg);

}  // namespace detail
}  // namespace peachy::mpi
