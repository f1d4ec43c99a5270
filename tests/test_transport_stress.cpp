// Stress coverage for the shm slot-ring protocol (DESIGN.md §15/§16)
// at the ring-operation level, below the transport seam: slot-ring
// wraparound FIFO under concurrent posters, spill-arena exhaustion with
// producers blocked on the free list, the give-up path, payloads larger
// than the arena travelling as pieces, a 66-process segment, and a
// producer SIGKILLed between claiming a slot and publishing it (driven
// from a forked child via test_hooks), whose hole the consumer must
// prove dead and skip.  The whole file is part of the asan/tsan matrix
// in scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mpi/shm_ring.hpp"
#include "mpi/wire.hpp"
#include "support/check.hpp"

namespace pd = peachy::mpi::detail;

namespace {

/// A fresh anonymous-named segment.  The name is unlinked immediately
/// (the mapping stays alive), so a test abort can't leak /dev/shm
/// entries.
pd::ShmView make_segment(int nprocs, std::size_t spill_bytes) {
  static std::atomic<int> counter{0};
  const std::string name = "/peachy.test." + std::to_string(getpid()) + "." +
                           std::to_string(counter.fetch_add(1));
  pd::ShmView view = pd::shm_create(name, nprocs, spill_bytes);
  shm_unlink(name.c_str());
  return view;
}

pd::FrameHeader data_header(int source, int tag, std::uint64_t bytes) {
  pd::FrameHeader h;
  h.kind = static_cast<std::uint8_t>(pd::WireKind::kData);
  h.source = source;
  h.tag = tag;
  h.bytes = bytes;
  return h;
}

/// Byte `i` of test message `tag`: varies within and across pieces.
std::byte pattern(int tag, std::size_t i) {
  return static_cast<std::byte>((i * 131 + static_cast<std::size_t>(tag) * 17 + (i >> 12)) & 0xff);
}

/// Parameterized by the protocol's name so the suite keeps the test
/// names it had when a second, locked protocol was instantiated beside it.
class ShmRingStress : public ::testing::TestWithParam<const char*> {};

}  // namespace

// The ring has 64 slots; push an order of magnitude more through it with
// the consumer running concurrently, so head/tail wrap the slot array
// many times and every slot is recycled under load.  Inline payloads
// carry (producer, index) so the consumer can verify exact per-producer
// FIFO and zero loss/duplication.
TEST_P(ShmRingStress, WraparoundFifoUnderConcurrentPosters) {
  static constexpr int kProducers = 4;
  static constexpr int kPerProducer = 600;  // 2400 frames through 64 slots
  pd::ShmView view = make_segment(kProducers + 1, 64 << 10);

  std::thread consumer{[&view] {
    std::atomic<bool> stop{false};
    std::vector<int> next(kProducers, 0);
    pd::FrameHeader h;
    std::vector<std::byte> payload;
    for (int got = 0; got < kProducers * kPerProducer; ++got) {
      ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
      ASSERT_EQ(payload.size(), 2 * sizeof(std::uint32_t));
      std::uint32_t vals[2];
      std::memcpy(vals, payload.data(), sizeof vals);
      const int src = static_cast<int>(vals[0]);
      ASSERT_GE(src, 1);
      ASSERT_LE(src, kProducers);
      // Per-producer FIFO: producer src's frames arrive in push order.
      EXPECT_EQ(static_cast<int>(vals[1]), next[src - 1]);
      EXPECT_EQ(h.tag, static_cast<int>(vals[1]));
      ++next[src - 1];
    }
  }};

  std::vector<std::thread> producers;
  for (int p = 1; p <= kProducers; ++p) {
    producers.emplace_back([&view, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::uint32_t vals[2] = {static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(i)};
        const pd::FrameHeader h = data_header(p, i, sizeof vals);
        ASSERT_TRUE(pd::ring_push(view, 0, p, h,
                                  reinterpret_cast<const std::byte*>(vals)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  consumer.join();
  pd::shm_detach(view);
}

// Spill payloads (> kShmInlineBytes) against an arena sized for only a
// couple of blocks: producers must block on arena exhaustion and resume
// as the consumer frees, with total traffic ~100x the arena.  Contents
// are verified end to end, so a double-allocated or early-freed spill
// block shows up as corruption, not just a crash.
TEST_P(ShmRingStress, SpillArenaExhaustionUnderConcurrentPosters) {
  static constexpr int kProducers = 3;
  static constexpr int kPerProducer = 60;
  static constexpr std::size_t kPayload = 12 << 10;  // 12 KiB, always spilled
  // Room for ~5 blocks (+ free-list headers), so exhaustion is constant.
  pd::ShmView view = make_segment(kProducers + 1, 64 << 10);

  std::thread consumer{[&view] {
    std::atomic<bool> stop{false};
    pd::FrameHeader h;
    std::vector<std::byte> payload;
    for (int got = 0; got < kProducers * kPerProducer; ++got) {
      ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
      ASSERT_EQ(payload.size(), kPayload);
      const auto expect = static_cast<std::byte>((h.source * 31 + h.tag) & 0xff);
      EXPECT_EQ(payload.front(), expect);
      EXPECT_EQ(payload.back(), expect);
      EXPECT_EQ(payload[kPayload / 2], expect);
    }
  }};

  std::vector<std::thread> producers;
  for (int p = 1; p <= kProducers; ++p) {
    producers.emplace_back([&view, p] {
      std::vector<std::byte> payload(kPayload);
      for (int i = 0; i < kPerProducer; ++i) {
        std::memset(payload.data(), (p * 31 + i) & 0xff, payload.size());
        const pd::FrameHeader h = data_header(p, i, kPayload);
        ASSERT_TRUE(pd::ring_push(view, 0, p, h, payload.data()));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  consumer.join();
  pd::shm_detach(view);
}

// A sender must bail out of a full ring (and of arena exhaustion) when
// its give_up flag trips — the path that stops survivors from piling
// frames into a dead process's never-drained ring.
TEST_P(ShmRingStress, GiveUpAbandonsFullRing) {
  pd::ShmView view = make_segment(2, 64 << 10);
  const pd::FrameHeader h = data_header(1, 0, sizeof(int));
  const int v = 7;
  const auto* bytes = reinterpret_cast<const std::byte*>(&v);
  for (std::size_t i = 0; i < pd::kShmRingSlots; ++i) {
    ASSERT_TRUE(pd::ring_push(view, 0, 1, h, bytes));
  }
  std::atomic<bool> give_up{true};
  EXPECT_FALSE(pd::ring_push(view, 0, 1, h, bytes, &give_up));

  // Same bail-out from spill-arena exhaustion: one giant block holds the
  // arena, so the next spill push can only wait — or give up.
  pd::ShmView view2 = make_segment(2, 64 << 10);
  std::vector<std::byte> big(48 << 10);
  ASSERT_TRUE(pd::ring_push(view2, 0, 1, data_header(1, 1, big.size()), big.data()));
  EXPECT_FALSE(pd::ring_push(view2, 0, 1, data_header(1, 2, big.size()), big.data(), &give_up));

  pd::shm_detach(view);
  pd::shm_detach(view2);
}

INSTANTIATE_TEST_SUITE_P(Modes, ShmRingStress, ::testing::Values("fast"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string{info.param};
                         });

// Payloads larger than the spill arena travel as pieces.  Two producer
// processes send oversize messages at once — proc 2 is a forked child,
// and proc 1 sends from two threads, which share its claim register and
// take turns — while a third streams small frames (inline and spilled)
// into the same ring, so pieces of different messages interleave in the
// slots.  Every oversize message must arrive whole, once, with every
// byte in place; the small frames keep FIFO.
TEST(ShmRingPieces, OversizePayloadsArriveWholeAmidSmallFrames) {
  static constexpr std::size_t kArena = 64 << 10;
  static constexpr std::size_t kBig = 3 * kArena + 40;  // ragged last piece
  static constexpr int kSmall = 300;
  pd::ShmView view = make_segment(4, kArena);
  const auto push_big = [&view](int me, int tag) {
    std::vector<std::byte> payload(kBig);
    for (std::size_t i = 0; i < kBig; ++i) payload[i] = pattern(tag, i);
    return pd::ring_push(view, 0, me, data_header(me, tag, kBig), payload.data());
  };
  const pid_t child = fork();  // before any thread starts
  ASSERT_GE(child, 0);
  if (child == 0) _exit(push_big(2, 4) ? 0 : 1);

  std::vector<std::thread> producers;
  producers.emplace_back([&] { EXPECT_TRUE(push_big(1, 1) && push_big(1, 2)); });
  producers.emplace_back([&] { EXPECT_TRUE(push_big(1, 3)); });
  producers.emplace_back([&view] {
    for (int i = 0; i < kSmall; ++i) {
      std::vector<std::byte> payload(i % 3 == 0 ? 2048 : 16, pattern(100 + i, 0));
      ASSERT_TRUE(pd::ring_push(view, 0, 3, data_header(3, 100 + i, payload.size()),
                                payload.data()));
    }
  });

  std::atomic<bool> stop{false};
  int status = 0;
  std::thread closer{[&] {  // ends the pops once every producer is done
    for (std::thread& t : producers) t.join();
    waitpid(child, &status, 0);
    stop.store(true);
  }};
  pd::FrameHeader h;
  std::vector<std::byte> payload;
  int next_small = 100;
  unsigned big_seen = 0;  // bit per oversize tag
  while (pd::ring_pop(view, 0, h, payload, stop)) {
    const bool small = h.source == 3;
    if (small) EXPECT_EQ(h.tag, next_small++);
    if (!small) big_seen |= 1U << h.tag;
    EXPECT_EQ(payload.size(), small ? h.bytes : kBig);
    std::size_t good = 0;
    while (good < payload.size() && payload[good] == pattern(h.tag, small ? 0 : good)) ++good;
    EXPECT_EQ(good, payload.size()) << "tag " << h.tag << ": first wrong byte";
  }
  closer.join();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(next_small, 100 + kSmall);
  EXPECT_EQ(big_seen, 0b11110U);
  EXPECT_EQ(view.ring(0)->head.load(), view.ring(0)->tail.load());  // nothing left behind
  pd::shm_detach(view);
}

// Every per-process array is sized from nprocs, so a 66-process segment
// runs the one protocol: proc 65 pushes through its own claim register
// and has a heartbeat word, and an index past the launcher's register
// (nprocs + 1) is refused.
TEST(ShmRingLimits, WidestPusherIndexIsAccepted) {
  static constexpr int kProcs = 66;
  static constexpr int kWidest = kProcs - 1;
  pd::ShmView view = make_segment(kProcs, 4 << 10);
  const int v = 41;
  const auto* bytes = reinterpret_cast<const std::byte*>(&v);
  ASSERT_TRUE(pd::ring_push(view, 0, kWidest, data_header(kWidest, 7, sizeof v), bytes));

  std::atomic<bool> stop{false};
  pd::FrameHeader h;
  std::vector<std::byte> payload;
  ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
  EXPECT_EQ(h.tag, 7);
  EXPECT_EQ(h.source, kWidest);

  EXPECT_THROW(pd::ring_push(view, 0, kProcs + 1, data_header(0, 8, sizeof v), bytes),
               peachy::Error);
  view.peer(kWidest).alive_ns.store(123456789);
  EXPECT_EQ(view.peer(kWidest).alive_ns.load(), 123456789u);
  pd::shm_detach(view);
}

#if defined(__linux__)
// The protocol's crash window on a 66-process segment: a forked child
// pushing as proc 65 sends a message too large for the arena, publishes
// its first piece, claims a slot for the second (head CAS done, claim
// register set) and is SIGKILLed before publishing it.  The consumer
// sees head past an unpublished slot — a hole it may skip only once the
// launcher marks the child dead.  Frames on either side of the hole
// must still arrive, in order; the child's partial message never does.
TEST(ShmRingCrash, DeadProducerHoleIsSkippedInFastMode) {
  static constexpr int kProcs = 66;
  static constexpr int kChild = 65;
  static constexpr std::size_t kArena = 64 << 10;
  pd::ShmView view = make_segment(kProcs, kArena);
  const int v = 1;
  const auto* bytes = reinterpret_cast<const std::byte*>(&v);
  ASSERT_TRUE(pd::ring_push(view, 0, 0, data_header(0, 10, sizeof v), bytes));
  ASSERT_TRUE(pd::ring_push(view, 0, kChild, data_header(kChild, 11, sizeof v), bytes));

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: die between claim and publish of the second piece.
    pd::test_hooks::g_die_between_claim_and_publish.store(2);
    const std::vector<std::byte> big(kArena + kArena / 2, std::byte{0x5a});
    (void)pd::ring_push(view, 0, kChild, data_header(kChild, 13, big.size()), big.data());
    _exit(0);  // unreachable — the hook raises SIGKILL
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  ASSERT_TRUE(pd::ring_push(view, 0, 0, data_header(0, 12, sizeof v), bytes));
  // head moved past the child's published first piece and its claimed,
  // unpublished second one.
  ASSERT_EQ(view.ring(0)->head.load(), 5u);
  ASSERT_EQ(view.claims(0)[kChild].load(), 3u);

  // What the launcher does on reaping the death — without it the
  // consumer would wait on the hole forever.
  EXPECT_EQ(view.peer(kChild).dead.load(), 0u);
  pd::shm_mark_dead(view, kChild);
  EXPECT_NE(view.peer(kChild).dead.load(), 0u);

  std::atomic<bool> stop{false};
  pd::FrameHeader h;
  std::vector<std::byte> payload;
  for (const int tag : {10, 11, 12}) {  // 12: gathers piece 1, skips the hole
    ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
    EXPECT_EQ(h.tag, tag);
  }
  EXPECT_EQ(view.ring(0)->tail.load(), 5u);

  // The recycled slot is reusable: fill a full lap and drain it.
  for (int i = 0; i < static_cast<int>(pd::kShmRingSlots); ++i) {
    ASSERT_TRUE(pd::ring_push(view, 0, 0, data_header(0, 100 + i, sizeof i),
                              reinterpret_cast<const std::byte*>(&i)));
  }
  for (int i = 0; i < static_cast<int>(pd::kShmRingSlots); ++i) {
    ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
    EXPECT_EQ(h.tag, 100 + i);
  }
  pd::shm_detach(view);
}
#endif  // __linux__
