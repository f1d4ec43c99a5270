#pragma once
/// \file shm_ring.hpp
/// \brief The shared-memory segment layout and ring operations behind
/// the shm transport (DESIGN.md §15, fast-path protocol §16).
///
/// One POSIX shm segment per world.  Layout:
///
///   [ShmSegHeader][ShmPeer x nprocs]
///   [ShmRing #0][claims #0][spill #0][ShmRing #1][claims #1][spill #1]...
///
/// Each *process* owns one inbound ring; any process may push into any
/// ring (multi-producer), only the owner's pump pops (single-consumer).
/// A frame whose payload fits `kShmInlineBytes` travels inline in its
/// slot; larger payloads are carved from the ring's spillover arena by
/// a first-fit, offset-sorted, coalescing free list (all free-list
/// state lives in the segment, protected by the ring mutex).
///
/// The slot protocol is a lock-free bounded MPMC-claim / single-consumer
/// one.  Every slot carries a free-running sequence number `seq`
/// (initially its index): a producer CAS-claims position `pos` on the
/// atomic `head`, writes the slot, and *publishes* it with a release
/// store of `seq = pos + 1`; the consumer accepts a slot only when an
/// acquire load observes `seq == pos + 1`, and recycles it with
/// `seq = pos + kShmRingSlots` after consuming.  Waiting is adaptive
/// spin-then-futex with parked-flag handshakes (a 1 ms `nanosleep` poll
/// stands in for the futex off Linux), so steady-state traffic does
/// zero wake syscalls and zero lock operations on the small-message
/// path; only spill (> 1 KiB) allocation takes the robust mutex.
/// Crash robustness keeps the launcher-as-failure-detector model: each
/// producer stores its claimed position into a per-process *claim
/// register* before the CAS, so when a producer dies between claim and
/// publish the consumer — once the launcher sets the victim's dead
/// flag — can prove the unpublished hole belongs to a dead process (its
/// register names the position and no live register does) and recycle
/// the slot.  See DESIGN.md §16 for the full ordering argument.
///
/// Every per-process array (each ring's claim registers, the launcher's
/// at index nprocs, and the header's heartbeat words and dead flags) is
/// sized from nprocs, so every world width runs the same protocol.  A
/// payload too large for the spill arena travels as consecutive
/// half-arena *pieces* that the consumer reassembles per producer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <pthread.h>

#include "mpi/wire.hpp"

namespace peachy::mpi::detail {

// "PSM4": bumped from "PSM3" when the per-process arrays became sized
// from nprocs and slots gained the piece fields.
inline constexpr std::uint32_t kShmMagic = 0x50534D34;
inline constexpr std::size_t kShmInlineBytes = 1024;    ///< inline payload capacity per slot
inline constexpr std::size_t kShmRingSlots = 64;
inline constexpr std::size_t kShmSpillBytes = std::size_t{16} << 20;  ///< spill arena per ring
inline constexpr std::uint64_t kShmSpillNull = ~std::uint64_t{0};
inline constexpr std::uint64_t kShmClaimNone = ~std::uint64_t{0};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "shm fast path requires address-free lock-free atomics");

struct ShmSlot {
  std::atomic<std::uint64_t> seq;  ///< publication sequence (see header comment)
  FrameHeader hdr;                 ///< the whole message's header, on every piece
  std::uint64_t spill_off = kShmSpillNull;  ///< offset into the ring's spill arena, or null
  std::uint64_t spill_cap = 0;              ///< allocated spill block size (>= piece_bytes)
  std::uint64_t piece_off = 0;    ///< where this slot's bytes start in the message
  std::uint64_t piece_bytes = 0;  ///< bytes in this slot; == hdr.bytes unless pieced
  std::uint32_t producer = 0;     ///< pusher's process index: the reassembly key
  std::byte inline_bytes[kShmInlineBytes];
};

/// One ring; its nprocs + 1 claim registers follow it in the segment
/// (ShmView::claims).
struct ShmRing {
  pthread_mutex_t mu;  ///< PROCESS_SHARED | ROBUST; guards the spill free list
  /// Next slot index to claim / consume (free-running).  Producers claim
  /// `head` by CAS; `tail` belongs to the single consumer.
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint64_t> tail;
  std::uint64_t free_head = 0;  ///< offset of first free spill block (offset-sorted list)
  /// Parking state: nonzero while the consumer / >= 1 producer is
  /// (about to be) in futex_wait, so the other side pays a wake syscall
  /// only when someone is actually parked.
  alignas(64) std::atomic<std::uint32_t> consumer_parked;
  std::atomic<std::uint32_t> futex_empty;  ///< wake generation, consumer waits here
  alignas(64) std::atomic<std::uint32_t> producers_parked;
  std::atomic<std::uint32_t> futex_full;  ///< wake generation, producers wait here
  ShmSlot slots[kShmRingSlots];
};

/// One process's words in the segment header (page-zeroed at creation).
struct ShmPeer {
  /// Heartbeat last-alive word: the process's beat thread stores its
  /// CLOCK_MONOTONIC timestamp (ns) here and scans its peers' words —
  /// the shm equivalent of the socket backend's kPing frames (DESIGN.md
  /// §17).  Zero means "never beat" (not up yet, or heartbeat disabled),
  /// which monitors skip — no false death from a slow-starting peer.
  std::atomic<std::uint64_t> alive_ns;
  /// Set by the launcher before it posts the kFailed frames, so a
  /// consumer stuck on the dead process's unpublished slot can skip it.
  std::atomic<std::uint32_t> dead;
};

/// Segment header; its nprocs ShmPeer records follow it (ShmView::peer).
struct ShmSegHeader {
  std::uint32_t magic = 0;
  std::uint32_t nprocs = 0;
  std::uint64_t spill_bytes = 0;  ///< spill arena size per ring
};

/// Consumer-side state of one ring: each producer's pieced message so far.
using ShmPartials = std::unordered_map<std::uint32_t, std::vector<std::byte>>;

/// A mapped segment (creator or attacher side).
struct ShmView {
  void* base = nullptr;
  std::size_t bytes = 0;
  /// One per ring, touched only by that ring's single consumer.
  std::shared_ptr<ShmPartials[]> partials;

  [[nodiscard]] ShmSegHeader* header() const noexcept {
    return static_cast<ShmSegHeader*>(base);
  }
  [[nodiscard]] ShmPeer& peer(int proc) const noexcept;
  [[nodiscard]] ShmRing* ring(int proc) const noexcept;
  /// Ring `proc`'s claim registers, indexed by pusher (launcher: nprocs).
  [[nodiscard]] std::atomic<std::uint64_t>* claims(int proc) const noexcept;
  [[nodiscard]] std::byte* spill(int proc) const noexcept;
};

/// Create + map a fresh segment (`O_CREAT|O_EXCL`; a stale same-name
/// segment from a crashed earlier run is unlinked and creation retried
/// once).  Initializes every ring's slot sequences, claim registers,
/// mutex, and free list.
[[nodiscard]] ShmView shm_create(const std::string& name, int nprocs, std::size_t spill_bytes);

/// Map an existing segment by name; validates the magic.
[[nodiscard]] ShmView shm_attach(const std::string& name);

void shm_detach(ShmView& view) noexcept;

/// Record process `proc` as dead (launcher side).  Sets its dead flag
/// and wakes every ring's consumer so one stuck on the victim's
/// unpublished slot re-evaluates immediately instead of on the next
/// 100ms poll.
void shm_mark_dead(const ShmView& view, int proc) noexcept;

/// Push one frame into `proc`'s ring as process `me` (ranks pass their
/// own proc index, the launcher passes nprocs; anything else is a named
/// error).  Blocks while the ring is full or the spill arena can't fit
/// the payload; bails out and returns false if `give_up` becomes true
/// while waiting (used to stop filling the ring of a process known to
/// be dead).  A payload larger than the spill arena goes as pieces.
bool ring_push(const ShmView& view, int proc, int me, const FrameHeader& h,
               const std::byte* payload, const std::atomic<bool>* give_up = nullptr);

/// Pop one frame from `proc`'s ring, handing `consume` the header and a
/// pointer to the payload *while it still lives in the segment* (inline
/// slot or spill block) — the single-copy receive path: the callback
/// copies straight from shared memory into its destination, no
/// intermediate vector.  The slot/spill storage is released only after
/// `consume` returns; the callback must not push into this same ring.
/// A pieced message is gathered in process memory and delivered once
/// its last piece arrives (never, if its producer dies mid-message).
/// Blocks until a frame arrives; returns false once `stop` is true and
/// the ring is empty.  `waited`, when non-null, is set to whether the
/// consumer had to park/poll before this frame arrived (the pump's
/// batch-size signal).
bool ring_consume(const ShmView& view, int proc, const std::atomic<bool>& stop,
                  const std::function<void(const FrameHeader&, const std::byte*)>& consume,
                  bool* waited = nullptr);

/// Vector-copy convenience wrapper over ring_consume (unit tests; the
/// transport pump uses ring_consume directly).
bool ring_pop(const ShmView& view, int proc, FrameHeader& h, std::vector<std::byte>& payload,
              const std::atomic<bool>& stop);

namespace test_hooks {
/// When positive, ring_push counts it down on every slot it claims and
/// raises SIGKILL after the claim that reaches zero, before publishing
/// it — the crashed-peer-mid-slot-write scenario the stress suite drives
/// from a forked child (2 dies on a pieced message's second piece).
extern std::atomic<int> g_die_between_claim_and_publish;
}  // namespace test_hooks

}  // namespace peachy::mpi::detail
