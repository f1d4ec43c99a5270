// Tests for the mini-MPI runtime: point-to-point semantics, every
// collective against a serial reference, wildcards, probe, error
// propagation, traffic accounting, and every forced collective algorithm.
// Collectives are property-tested across rank counts (TEST_P) because the
// tree/ring algorithms take different code paths at p = 1, 2, 3, 4, 5, 8.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "faults/plan.hpp"
#include "mpi/mpi.hpp"

namespace pm = peachy::mpi;
namespace pf = peachy::faults;

// ---- point to point ----------------------------------------------------------

TEST(MpiP2P, SendRecvRoundTrip) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      const std::vector<double> payload{1.5, 2.5, 3.5};
      c.send<double>(1, 7, payload);
    } else {
      pm::Status st;
      const auto got = c.recv<double>(0, 7, &st);
      EXPECT_EQ(got, (std::vector<double>{1.5, 2.5, 3.5}));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 3 * sizeof(double));
    }
  });
}

TEST(MpiP2P, MessagesFromSameSenderArriveInOrder) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 100; ++i) c.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(c.recv_value<int>(0, 3), i);
    }
  });
}

TEST(MpiP2P, TagMatchingSelectsCorrectMessage) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 10, 111);
      c.send_value<int>(1, 20, 222);
    } else {
      // Receive in reverse tag order: matching must skip the tag-10 message.
      EXPECT_EQ(c.recv_value<int>(0, 20), 222);
      EXPECT_EQ(c.recv_value<int>(0, 10), 111);
    }
  });
}

TEST(MpiP2P, AnySourceReceivesFromEveryone) {
  pm::run(4, [](pm::Comm& c) {
    if (c.rank() == 0) {
      std::multiset<int> got;
      for (int i = 0; i < 3; ++i) {
        pm::Status st;
        got.insert(c.recv_value<int>(pm::kAnySource, 5, &st));
        EXPECT_GE(st.source, 1);
      }
      EXPECT_EQ(got, (std::multiset<int>{10, 20, 30}));
    } else {
      c.send_value<int>(0, 5, c.rank() * 10);
    }
  });
}

TEST(MpiP2P, SelfSendIsAllowed) {
  pm::run(1, [](pm::Comm& c) {
    c.send_value<int>(0, 1, 42);
    EXPECT_EQ(c.recv_value<int>(0, 1), 42);
  });
}

TEST(MpiP2P, ProbeSeesPendingMessage) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 9, 5);
      c.barrier();
    } else {
      c.barrier();  // after the barrier the message must be in our mailbox
      pm::Status st;
      EXPECT_TRUE(c.probe(0, 9, &st));
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_FALSE(c.probe(0, 999));
      EXPECT_EQ(c.recv_value<int>(0, 9), 5);
      EXPECT_FALSE(c.probe(0, 9));  // consumed
    }
  });
}

TEST(MpiP2P, RejectsBadDestinationAndTag) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      EXPECT_THROW(c.send_value<int>(5, 0, 1), peachy::Error);
      EXPECT_THROW(c.send_value<int>(1, -3, 1), peachy::Error);
    }
  });
}

TEST(MpiP2P, PostRejectsBadSourceRank) {
  // Symmetric with the recv-side check: a source outside [0, nranks)
  // would flow into Message::source and the checker's wait-for graph
  // (on_post indexes by source).  Comm always passes its own rank, so the
  // hazard is direct Machine::post use — validate at the machine surface.
  pm::detail::Machine machine{2};
  const std::byte token{0};
  const std::span<const std::byte> payload{&token, 1};
  EXPECT_NO_THROW(machine.post(1, 0, 7, payload));
  try {
    machine.post(-1, 0, 7, payload);
    FAIL() << "expected peachy::Error";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("post: bad source rank"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(machine.post(2, 0, 7, payload), peachy::Error);
  // The valid message is still deliverable after the rejected ones.
  pm::Status st;
  EXPECT_TRUE(machine.try_peek(0, 1, 7, st));
  EXPECT_EQ(st.source, 1);
}

TEST(MpiP2P, RejectsBadRecvAndProbeSource) {
  // A recv/probe source outside [0, nranks) is the student bug the
  // grading layer exists to diagnose: it must be a named error up front,
  // not a silent hang (unchecked) or an out-of-range wait-for-graph
  // index (checked).
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      EXPECT_THROW((void)c.recv_bytes(2, 0), peachy::Error);
      EXPECT_THROW((void)c.recv_bytes(-7, 0), peachy::Error);
      EXPECT_THROW((void)c.probe(2, 0), peachy::Error);
    }
  });
  EXPECT_THROW(pm::run(
                   2,
                   [](pm::Comm& c) {
                     if (c.rank() == 0) (void)c.recv_bytes(2, 0);
                   },
                   peachy::analysis::CheckLevel::full),
               peachy::Error);
}

TEST(MpiP2P, SizeMismatchedRecvValueThrows) {
  EXPECT_THROW(pm::run(2,
                       [](pm::Comm& c) {
                         if (c.rank() == 0) {
                           const std::vector<int> two{1, 2};
                           c.send<int>(1, 0, two);
                         } else {
                           (void)c.recv_value<int>(0, 0);  // expects exactly 1
                         }
                       }),
               peachy::Error);
}

TEST(MpiP2P, FullWildcardRecvDrainsSenderInOrder) {
  // src=any + tag=any must match the *oldest* waiting message, so a
  // single sender's stream is drained in posting order even when the
  // tags vary.
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 10, 1);
      c.send_value<int>(1, 20, 2);
      c.send_value<int>(1, 10, 3);
    } else {
      pm::Status st;
      EXPECT_EQ(c.recv_value<int>(pm::kAnySource, pm::kAnyTag, &st), 1);
      EXPECT_EQ(st.tag, 10);
      EXPECT_EQ(c.recv_value<int>(pm::kAnySource, pm::kAnyTag, &st), 2);
      EXPECT_EQ(st.tag, 20);
      EXPECT_EQ(c.recv_value<int>(pm::kAnySource, pm::kAnyTag, &st), 3);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(MpiP2P, AnyTagFromSpecificSourceSkipsOtherSources) {
  // Both messages are queued before rank 0 receives (their sends
  // happen-before the barrier tokens), so matching must *skip* rank 1's
  // older message to satisfy recv(src=2, tag=any).
  pm::run(3, [](pm::Comm& c) {
    if (c.rank() == 1) c.send_value<int>(0, 5, 111);
    if (c.rank() == 2) c.send_value<int>(0, 6, 222);
    c.barrier();
    if (c.rank() == 0) {
      pm::Status st;
      EXPECT_EQ(c.recv_value<int>(2, pm::kAnyTag, &st), 222);
      EXPECT_EQ(st.source, 2);
      EXPECT_EQ(st.tag, 6);
      EXPECT_EQ(c.recv_value<int>(pm::kAnySource, pm::kAnyTag, &st), 111);
      EXPECT_EQ(st.source, 1);
    }
  });
}

TEST(MpiP2P, ProbeThenRecvIsConsistentUnderConcurrentTraffic) {
  // The receiver polls with wildcards and immediately receives what it
  // probed while two senders keep posting.  Since only the owner removes
  // messages from its mailbox, a successful probe can never be
  // invalidated by the racing sends.
  pm::run(3, [](pm::Comm& c) {
    constexpr int kEach = 25;
    if (c.rank() > 0) {
      for (int i = 0; i < kEach; ++i) c.send_value<int>(0, c.rank(), i);
    } else {
      int got = 0;
      std::vector<int> next(3, 0);  // per-sender expected sequence number
      while (got < 2 * kEach) {
        pm::Status st;
        if (!c.probe(pm::kAnySource, pm::kAnyTag, &st)) continue;
        pm::Status rst;
        const int v = c.recv_value<int>(st.source, st.tag, &rst);
        EXPECT_EQ(rst.source, st.source);
        EXPECT_EQ(rst.tag, st.tag);
        EXPECT_EQ(rst.bytes, st.bytes);
        EXPECT_EQ(v, next[static_cast<std::size_t>(st.source)]++);
        ++got;
      }
    }
  });
}

TEST(MpiP2P, PayloadNotAMultipleOfElementSizeThrows) {
  // recv<T> must reject a byte payload whose length is not divisible by
  // sizeof(T), instead of silently truncating.
  EXPECT_THROW(pm::run(2,
                       [](pm::Comm& c) {
                         if (c.rank() == 0) {
                           const std::array<std::byte, 5> odd{};
                           c.send_bytes(1, 0, odd);
                         } else {
                           (void)c.recv<double>(0, 0);
                         }
                       }),
               peachy::Error);
}

// ---- error propagation ----------------------------------------------------------

TEST(MpiRun, RankExceptionPropagatesAndUnblocksReceivers) {
  // Rank 1 blocks forever in recv; rank 0 throws.  run() must not hang and
  // must rethrow rank 0's error.
  try {
    pm::run(2, [](pm::Comm& c) {
      if (c.rank() == 0) throw peachy::Error{"deliberate failure"};
      (void)c.recv_bytes(0, 0);
    });
    FAIL() << "expected throw";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("deliberate"), std::string::npos);
  }
}

TEST(MpiRun, AbortWakesEveryBlockedReceiverAndNamesTheReason) {
  // Rank 0 fails while three other ranks sit in receives that will never
  // be satisfied.  abort() must reliably wake *all* of them (the join
  // completing at all proves it), and the rethrown error must carry rank
  // 0's original reason, not a bare "machine aborted".
  try {
    pm::run(4, [](pm::Comm& c) {
      if (c.rank() == 0) throw peachy::Error{"boom at rank 0"};
      (void)c.recv_bytes(0, 42);
    });
    FAIL() << "expected throw";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("boom at rank 0"), std::string::npos);
  }
}

TEST(MpiRun, RejectsZeroRanks) {
  EXPECT_THROW(pm::run(0, [](pm::Comm&) {}), peachy::Error);
}

// ---- collectives, property-tested over rank counts -------------------------------

class MpiCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MpiCollectives, BarrierSeparatesPhases) {
  const int p = GetParam();
  std::atomic<int> phase1_arrivals{0};
  std::atomic<bool> violation{false};
  pm::run(p, [&](pm::Comm& c) {
    phase1_arrivals.fetch_add(1);
    c.barrier();
    if (phase1_arrivals.load() != p) violation.store(true);
  });
  EXPECT_FALSE(violation.load());
}

TEST_P(MpiCollectives, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    pm::run(p, [&](pm::Comm& c) {
      std::vector<int> data;
      if (c.rank() == root) data = {root * 100, root * 100 + 1, root * 100 + 2};
      c.broadcast(data, root);
      EXPECT_EQ(data, (std::vector<int>{root * 100, root * 100 + 1, root * 100 + 2}));
    });
  }
}

TEST_P(MpiCollectives, BroadcastValue) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    const double v = c.broadcast_value(c.rank() == 0 ? 3.25 : -1.0, 0);
    EXPECT_DOUBLE_EQ(v, 3.25);
  });
}

TEST_P(MpiCollectives, ReduceSumMatchesSerial) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    pm::run(p, [&](pm::Comm& c) {
      const std::vector<std::int64_t> local{c.rank() + 1, 10 * (c.rank() + 1)};
      const auto got = c.reduce<std::int64_t>(local, std::plus<>{}, root);
      if (c.rank() == root) {
        const std::int64_t s = static_cast<std::int64_t>(p) * (p + 1) / 2;
        EXPECT_EQ(got, (std::vector<std::int64_t>{s, 10 * s}));
      } else {
        EXPECT_TRUE(got.empty());
      }
    });
  }
}

TEST_P(MpiCollectives, ReduceMinMax) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    const int r = c.rank();
    const auto mins =
        c.allreduce<int>(std::span<const int>{&r, 1}, [](int a, int b) { return std::min(a, b); });
    const auto maxs =
        c.allreduce<int>(std::span<const int>{&r, 1}, [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(mins.front(), 0);
    EXPECT_EQ(maxs.front(), p - 1);
  });
}

TEST_P(MpiCollectives, AllreduceEveryRankGetsTotal) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    const double mine = 1.0;
    EXPECT_DOUBLE_EQ(c.allreduce_value(mine, std::plus<>{}), static_cast<double>(p));
  });
}

TEST_P(MpiCollectives, GatherConcatenatesInRankOrder) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    // Variable-size contributions: rank r contributes r+1 copies of r.
    std::vector<int> local(c.rank() + 1, c.rank());
    const auto all = c.gather<int>(local, 0);
    if (c.rank() == 0) {
      std::vector<int> expect;
      for (int r = 0; r < p; ++r) expect.insert(expect.end(), r + 1, r);
      EXPECT_EQ(all, expect);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(MpiCollectives, AllgatherEveryRankGetsConcatenation) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    std::vector<int> local{c.rank(), c.rank() + 1000};
    const auto all = c.allgather<int>(local);
    ASSERT_EQ(all.size(), 2u * p);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[2 * r], r);
      EXPECT_EQ(all[2 * r + 1], r + 1000);
    }
  });
}

TEST_P(MpiCollectives, ScatterBlocksMatchesStaticPartition) {
  const int p = GetParam();
  constexpr int kN = 103;
  pm::run(p, [&](pm::Comm& c) {
    std::vector<int> all;
    if (c.rank() == 0) {
      all.resize(kN);
      std::iota(all.begin(), all.end(), 0);
    }
    const auto mine = c.scatter_blocks<int>(all, 0);
    const auto blk =
        peachy::support::static_block(kN, p, static_cast<std::size_t>(c.rank()));
    ASSERT_EQ(mine.size(), blk.end - blk.begin);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i], static_cast<int>(blk.begin + i));
    }
  });
}

TEST_P(MpiCollectives, AlltoallTransposesBuffers) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    // sendbufs[d] = {rank*1000 + d} repeated (d+1) times — variable sizes.
    std::vector<std::vector<int>> send(p);
    for (int d = 0; d < p; ++d) send[d].assign(d + 1, c.rank() * 1000 + d);
    const auto recv = c.alltoall(send);
    ASSERT_EQ(static_cast<int>(recv.size()), p);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recv[s].size(), static_cast<std::size_t>(c.rank() + 1));
      for (int v : recv[s]) EXPECT_EQ(v, s * 1000 + c.rank());
    }
  });
}

TEST_P(MpiCollectives, ConsecutiveCollectivesDoNotCrossTalk) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    for (int round = 0; round < 20; ++round) {
      const int total = c.allreduce_value(1, std::plus<>{});
      EXPECT_EQ(total, p);
      c.barrier();
      const int v = c.broadcast_value(c.rank() == 0 ? round : -1, 0);
      EXPECT_EQ(v, round);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MpiCollectives, ::testing::Values(1, 2, 3, 4, 5, 8));

// ---- traffic accounting -----------------------------------------------------------

TEST(MpiTraffic, CountsMessagesAndBytes) {
  const auto stats = pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      const std::vector<double> payload(100, 1.0);
      c.send<double>(1, 0, payload);
    } else {
      (void)c.recv<double>(0, 0);
    }
  });
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 100 * sizeof(double));
}

TEST(MpiTraffic, TreeReduceSendsP_Minus_1_Messages) {
  // A binomial-tree reduce moves exactly p-1 payload messages.
  for (int p : {2, 4, 8}) {
    const auto stats = pm::run(p, [](pm::Comm& c) {
      const double x = 1.0;
      (void)c.reduce<double>(std::span<const double>{&x, 1}, std::plus<>{}, 0);
    });
    EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(p - 1)) << "p=" << p;
  }
}

// ---- internal collective tag sequencing -------------------------------------------

TEST(MpiCollectiveTags, SequencePastOldWrapBoundaryDoesNotAlias) {
  // Regression: the internal tag sequence used to wrap at 2^20, so
  // collective #k and collective #(k + 2^20) shared a tag and could
  // cross-match in a long run.  Jump the counter to just below the old
  // boundary and drive collectives across it: results must stay correct
  // and the sequence must keep growing monotonically.
  pm::run(3, [](pm::Comm& c) {
    c.debug_set_collective_seq((std::uint64_t{1} << 20) - 3);
    for (int round = 0; round < 8; ++round) {
      EXPECT_EQ(c.allreduce_value(1, std::plus<>{}), 3);
      EXPECT_EQ(c.broadcast_value(c.rank() == 0 ? round : -1, 0), round);
    }
    EXPECT_GT(c.collective_seq(), std::uint64_t{1} << 20);
  });
}

TEST(MpiCollectiveTags, ExhaustionIsAHardErrorNotSilentAliasing) {
  // The full 2^30 tag values above the base are available; running out is
  // diagnosed instead of wrapping onto live tags.
  EXPECT_THROW(pm::run(1,
                       [](pm::Comm& c) {
                         c.debug_set_collective_seq(std::uint64_t{1} << 30);
                         c.barrier();
                       }),
               peachy::Error);
}

// ---- timeout argument validation --------------------------------------------

TEST(MpiTimeouts, NegativeOpTimeoutIsANamedErrorNotForever) {
  // Regression: a negative duration cast to the unsigned nanosecond field
  // used to become "no deadline" — the exact opposite of what a caller
  // computing `deadline - now` under clock skew asked for.
  pm::run(1, [](pm::Comm& c) {
    try {
      c.set_op_timeout(std::chrono::milliseconds{-5});
      FAIL() << "negative timeout accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("set_op_timeout"), std::string::npos);
      EXPECT_NE(std::string{e.what()}.find("negative timeout"), std::string::npos);
    }
    // The communicator is unharmed: a valid timeout still takes effect.
    c.set_op_timeout(std::chrono::milliseconds{50});
    EXPECT_EQ(c.op_timeout(), std::chrono::milliseconds{50});
  });
}

TEST(MpiTimeouts, NegativeTimedRecvIsANamedErrorNotForever) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 1) {
      try {
        (void)c.recv<int>(0, 4, std::chrono::nanoseconds{-1});
        FAIL() << "negative recv timeout accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("negative timeout"), std::string::npos);
      }
      try {
        (void)c.recv_bytes(0, 4, std::chrono::seconds{-2});
        FAIL() << "negative recv_bytes timeout accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("negative timeout"), std::string::npos);
      }
      // The real message is still receivable afterwards.
      EXPECT_EQ(c.recv_value<int>(0, 4), 77);
    } else {
      c.send_value<int>(1, 4, 77);
    }
  });
}

// ---- machine teardown with blocked receivers --------------------------------

TEST(MpiTeardown, DestroyingMachineWakesBlockedReceiversWithNamedReason) {
  // Regression: destroying a Machine while a rank was still blocked in
  // recv used to tear the mailboxes out from under the sleeping thread.
  // The destructor now poisons every mailbox (named abort), waits for the
  // waiters to drain, and only then frees — so the blocked thread exits
  // through a catchable error, not UB.
  std::string caught;
  std::thread receiver;
  {
    auto machine = std::make_unique<pm::detail::Machine>(2);
    pm::Comm comm{*machine, 1};
    std::promise<void> entered;
    receiver = std::thread{[&comm, &caught, &entered] {
      entered.set_value();
      try {
        (void)comm.recv_value<int>(0, 0);  // no sender exists: blocks forever
        caught = "recv unexpectedly returned";
      } catch (const peachy::Error& e) {
        caught = e.what();
      }
    }};
    entered.get_future().wait();
    // Give the receiver time to actually enter the mailbox wait before
    // the machine is destroyed under it.
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    machine.reset();  // ~Machine: poison, wake, wait for drain
  }
  receiver.join();
  EXPECT_NE(caught.find("machine destroyed while ranks were still blocked in recv"),
            std::string::npos)
      << "actual: " << caught;
}

// ---- collective algorithm choice ---------------------------------------------
// Algorithm choice never changes integer results and never makes float
// results nondeterministic: integer reductions are bit-identical across
// every algorithm, and each algorithm pins one combine order, so the same
// (algorithm, p) always produces the same bytes — also under fault
// injection (delays and stalls reorder wall-clock, never the combine order).

namespace {

/// Run options' algorithm choice forcing `algo` for `op`.
pm::CollAlgos forced(pm::CollOp op, pm::CollAlgo algo) {
  pm::CollAlgos a;
  a.force(op, algo);
  return a;
}

constexpr pm::CollAlgo kAllAlgos[] = {pm::CollAlgo::kAuto, pm::CollAlgo::kLinear,
                                      pm::CollAlgo::kBinomial, pm::CollAlgo::kRing,
                                      pm::CollAlgo::kRecDouble};

}  // namespace

TEST(TuneSelect, DefaultsAreAutoEverywhere) {
  const pm::CollAlgos a;
  for (const pm::CollOp op : {pm::CollOp::kBroadcast, pm::CollOp::kReduce,
                              pm::CollOp::kAllreduce, pm::CollOp::kAllgather}) {
    for (const int p : {1, 3, 4}) EXPECT_EQ(a.pick(op, p), pm::CollAlgo::kAuto);
  }
  EXPECT_EQ(pm::RunOptions{}.coll_algos.by_op, a.by_op);
}

TEST(TuneSelect, RecDoubleDemotedAtNonPowerOfTwo) {
  const pm::CollAlgos a = forced(pm::CollOp::kAllreduce, pm::CollAlgo::kRecDouble);
  EXPECT_EQ(a.pick(pm::CollOp::kAllreduce, 8), pm::CollAlgo::kRecDouble);
  EXPECT_EQ(a.pick(pm::CollOp::kAllreduce, 6), pm::CollAlgo::kAuto);
  EXPECT_EQ(a.pick(pm::CollOp::kAllreduce, 1), pm::CollAlgo::kRecDouble);
  EXPECT_EQ(a.pick(pm::CollOp::kReduce, 8), pm::CollAlgo::kAuto);
}

TEST(TuneCollectives, IntegerReductionsIdenticalAcrossAlgorithms) {
  for (const int p : {2, 3, 4, 5, 8}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::int64_t> expect_all(n);
      for (std::size_t i = 0; i < n; ++i) {
        // sum over ranks r of (r*31 + i): p*31*(p-1)/2 ... computed below
        std::int64_t s = 0;
        for (int r = 0; r < p; ++r) s += static_cast<std::int64_t>(r) * 31 + static_cast<std::int64_t>(i);
        expect_all[i] = s;
      }
      for (const pm::CollAlgo algo : kAllAlgos) {
        pm::RunOptions opts;
        opts.coll_algos = forced(pm::CollOp::kAllreduce, algo);
        pm::run(
            p,
            [&](pm::Comm& comm) {
              std::vector<std::int64_t> data(n);
              for (std::size_t i = 0; i < n; ++i) {
                data[i] = static_cast<std::int64_t>(comm.rank()) * 31 +
                          static_cast<std::int64_t>(i);
              }
              comm.allreduce_inplace<std::int64_t>(std::span<std::int64_t>{data},
                                                   std::plus<>{});
              ASSERT_EQ(data, expect_all) << "allreduce algo="
                                          << pm::coll_algo_name(algo) << " p=" << p;
            },
            opts);

        opts.coll_algos = forced(pm::CollOp::kReduce, algo);
        pm::run(
            p,
            [&](pm::Comm& comm) {
              std::vector<std::int64_t> data(n);
              for (std::size_t i = 0; i < n; ++i) {
                data[i] = static_cast<std::int64_t>(comm.rank()) * 31 +
                          static_cast<std::int64_t>(i);
              }
              comm.reduce_inplace<std::int64_t>(std::span<std::int64_t>{data},
                                                std::plus<>{}, 0);
              if (comm.rank() == 0) {
                ASSERT_EQ(data, expect_all) << "reduce algo=" << pm::coll_algo_name(algo)
                                            << " p=" << p;
              }
            },
            opts);
      }
    }
  }
}

TEST(TuneCollectives, BroadcastAndAllgatherIdenticalAcrossAlgorithms) {
  for (const int p : {2, 3, 4, 8}) {
    for (const pm::CollAlgo algo : kAllAlgos) {
      pm::RunOptions opts;
      opts.coll_algos = forced(pm::CollOp::kBroadcast, algo);
      pm::run(
          p,
          [&](pm::Comm& comm) {
            std::vector<std::int32_t> data(257);
            if (comm.rank() == 1) {
              std::iota(data.begin(), data.end(), 42);
            }
            comm.broadcast_into<std::int32_t>(std::span<std::int32_t>{data}, 1);
            ASSERT_EQ(data.front(), 42);
            ASSERT_EQ(data.back(), 42 + 256);
            // The unsized variant runs the same forced algorithm.
            std::vector<std::int32_t> var;
            if (comm.rank() == 0) var.assign(13, comm.size());
            comm.broadcast<std::int32_t>(var, 0);
            ASSERT_EQ(var.size(), 13u);
            ASSERT_EQ(var.front(), comm.size());
          },
          opts);

      opts.coll_algos = forced(pm::CollOp::kAllgather, algo);
      pm::run(
          p,
          [&](pm::Comm& comm) {
            const std::size_t block = 33;
            std::vector<std::int64_t> mine(block);
            for (std::size_t i = 0; i < block; ++i) {
              mine[i] = comm.rank() * 1000 + static_cast<std::int64_t>(i);
            }
            std::vector<std::int64_t> all(block * static_cast<std::size_t>(comm.size()));
            comm.allgather_into<std::int64_t>(std::span<const std::int64_t>{mine},
                                              std::span<std::int64_t>{all});
            for (int r = 0; r < comm.size(); ++r) {
              for (std::size_t i = 0; i < block; ++i) {
                ASSERT_EQ(all[static_cast<std::size_t>(r) * block + i],
                          r * 1000 + static_cast<std::int64_t>(i))
                    << "allgather algo=" << pm::coll_algo_name(algo) << " p=" << p;
              }
            }
            // The variable-size variant runs the same forced algorithm.
            const auto cat = comm.allgather<std::int64_t>(std::span<const std::int64_t>{mine});
            ASSERT_EQ(cat, all);
          },
          opts);
    }
  }
}

// ---------------------------------------------------------------------------
// Float determinism: same (algorithm, p) ⇒ same bytes, run after run,
// with and without fault injection.

namespace {

/// One allreduce over magnitude-skewed doubles; returns rank 0's result
/// bytes.  FP addition is not associative, so different algorithms MAY
/// differ — the contract is that one algorithm never differs from itself.
std::vector<double> float_allreduce_once(int p, pm::CollAlgo algo, const pf::FaultPlan* plan) {
  pm::RunOptions opts;
  opts.coll_algos = forced(pm::CollOp::kAllreduce, algo);
  opts.plan = plan;
  std::vector<double> out;
  std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(p));
  pm::run(
      p,
      [&](pm::Comm& comm) {
        std::vector<double> data(512);
        for (std::size_t i = 0; i < data.size(); ++i) {
          // Exponent-staggered contributions make the combine order
          // visible in the low mantissa bits.
          data[i] = std::ldexp(1.0 + 1e-3 * comm.rank() + 1e-6 * static_cast<double>(i),
                               comm.rank() % 3 - 1);
        }
        comm.allreduce_inplace<double>(std::span<double>{data}, std::plus<>{});
        per_rank[static_cast<std::size_t>(comm.rank())] = data;
        if (comm.rank() == 0) out = data;
      },
      opts);
  // Every rank of one run must already agree bit-for-bit.
  for (const auto& r : per_rank) {
    EXPECT_EQ(0, std::memcmp(r.data(), out.data(), out.size() * sizeof(double)))
        << "ranks disagree, algo=" << pm::coll_algo_name(algo) << " p=" << p;
  }
  return out;
}

}  // namespace

TEST(TuneCollectives, FloatAllreduceRepeatDeterministicPerAlgorithm) {
  for (const int p : {2, 3, 4, 8}) {
    for (const pm::CollAlgo algo : kAllAlgos) {
      const std::vector<double> a = float_allreduce_once(p, algo, nullptr);
      const std::vector<double> b = float_allreduce_once(p, algo, nullptr);
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
          << "repeat divergence, algo=" << pm::coll_algo_name(algo) << " p=" << p;
    }
  }
}

TEST(TuneCollectives, FloatDeterminismHoldsUnderFaultInjection) {
  // Delays and stalls perturb wall-clock interleaving but must not
  // perturb the combine order: results with and without the plan are
  // bit-identical.
  const pf::FaultPlan plan = pf::FaultPlan::parse(
      "seed=11; delay@rank=1,prob=0.5,ns=200000; stall@rank=0,prob=0.25,ns=100000");
  for (const pm::CollAlgo algo :
       {pm::CollAlgo::kAuto, pm::CollAlgo::kRing, pm::CollAlgo::kRecDouble}) {
    const std::vector<double> clean = float_allreduce_once(4, algo, nullptr);
    const std::vector<double> faulty = float_allreduce_once(4, algo, &plan);
    ASSERT_EQ(0, std::memcmp(clean.data(), faulty.data(), clean.size() * sizeof(double)))
        << "faults changed bytes, algo=" << pm::coll_algo_name(algo);
  }
}

TEST(TuneCollectives, FloatReduceRepeatDeterministicPerAlgorithm) {
  for (const pm::CollAlgo algo :
       {pm::CollAlgo::kAuto, pm::CollAlgo::kLinear, pm::CollAlgo::kRing}) {
    std::vector<double> first;
    for (int run = 0; run < 2; ++run) {
      pm::RunOptions opts;
      opts.coll_algos = forced(pm::CollOp::kReduce, algo);
      std::vector<double> got;
      pm::run(
          5,
          [&](pm::Comm& comm) {
            std::vector<double> data(128);
            for (std::size_t i = 0; i < data.size(); ++i) {
              data[i] = std::ldexp(1.0 + 1e-4 * comm.rank(),
                                   static_cast<int>(i % 5) + comm.rank() % 2);
            }
            comm.reduce_inplace<double>(std::span<double>{data}, std::plus<>{}, 2);
            if (comm.rank() == 2) got = data;
          },
          opts);
      if (run == 0) {
        first = got;
      } else {
        ASSERT_EQ(0, std::memcmp(first.data(), got.data(), got.size() * sizeof(double)))
            << "reduce repeat divergence, algo=" << pm::coll_algo_name(algo);
      }
    }
  }
}
