// Tests for the Nagel–Schreckenberg assignment.  The centerpiece is the
// paper's reproducibility requirement: the parallel simulation must be
// bit-identical to the serial one for every thread count, while the
// per-thread-seed shortcut must NOT be.  Model physics (no collisions,
// no overtaking, jams emerge only with randomness) are property-tested.

#include <gtest/gtest.h>

#include <set>

#include "support/check.hpp"
#include "traffic/diagram.hpp"
#include "traffic/grid.hpp"
#include "traffic/traffic.hpp"

namespace tr = peachy::traffic;

namespace {

tr::Spec fig3_spec() {
  tr::Spec spec;  // defaults are exactly Fig. 3's caption
  spec.seed = 20230712;
  return spec;
}

/// Model invariant: distinct positions, all within the road, velocities
/// within [0, v_max].
void check_valid(const tr::Spec& spec, const tr::State& st) {
  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < st.pos.size(); ++i) {
    ASSERT_GE(st.pos[i], 0);
    ASSERT_LT(st.pos[i], static_cast<std::int64_t>(spec.road_length));
    ASSERT_TRUE(seen.insert(st.pos[i]).second) << "collision at " << st.pos[i];
    ASSERT_GE(st.vel[i], 0);
    ASSERT_LE(st.vel[i], spec.v_max);
  }
}

}  // namespace

// ---- initial state -----------------------------------------------------------------

TEST(TrafficInit, ValidSortedAndDeterministic) {
  const auto spec = fig3_spec();
  const auto st = tr::initial_state(spec);
  EXPECT_EQ(st.pos.size(), spec.cars);
  check_valid(spec, st);
  EXPECT_TRUE(std::is_sorted(st.pos.begin(), st.pos.end()));
  for (int v : st.vel) EXPECT_EQ(v, 0);
  EXPECT_EQ(tr::initial_state(spec), st);
}

TEST(TrafficInit, FullRoadAllowed) {
  tr::Spec spec;
  spec.road_length = 10;
  spec.cars = 10;
  const auto st = tr::initial_state(spec);
  check_valid(spec, st);
  // Bumper to bumper: every gap is zero.
  for (std::size_t i = 0; i < spec.cars; ++i) EXPECT_EQ(tr::gap_ahead(spec, st, i), 0);
}

TEST(TrafficInit, RejectsBadSpecs) {
  tr::Spec spec;
  spec.cars = spec.road_length + 1;
  EXPECT_THROW((void)tr::initial_state(spec), peachy::Error);
  spec = {};
  spec.p_slow = 1.5;
  EXPECT_THROW((void)tr::initial_state(spec), peachy::Error);
  spec = {};
  spec.v_max = 0;
  EXPECT_THROW((void)tr::initial_state(spec), peachy::Error);
}

TEST(TrafficGap, WrapAroundComputed) {
  tr::Spec spec;
  spec.road_length = 100;
  spec.cars = 2;
  tr::State st;
  st.pos = {10, 90};
  st.vel = {0, 0};
  EXPECT_EQ(tr::gap_ahead(spec, st, 0), 79);  // 10 -> 90
  EXPECT_EQ(tr::gap_ahead(spec, st, 1), 19);  // 90 -> 10 (wrap)
}

// ---- physics ------------------------------------------------------------------------

TEST(TrafficModel, InvariantsHoldOverManySteps) {
  const auto spec = fig3_spec();
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 200, &snaps);
  for (const auto& st : snaps) check_valid(spec, st);
}

TEST(TrafficModel, NoOvertaking) {
  // In canonical form positions are always sorted ascending.
  const auto spec = fig3_spec();
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 150, &snaps);
  for (const auto& st : snaps) {
    EXPECT_TRUE(std::is_sorted(st.pos.begin(), st.pos.end()));
  }
}

TEST(TrafficModel, WithoutRandomnessNoJamsAtLowDensity) {
  // "Without randomness, these [jams] do not occur": with p = 0 and
  // density below 1/(v_max+1), traffic reaches free flow — every car at
  // v_max, none stopped.
  tr::Spec spec = fig3_spec();
  spec.p_slow = 0.0;
  spec.cars = 100;  // density 0.1 < 1/6
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 400, &snaps);
  const auto& final_state = snaps.back();
  EXPECT_EQ(tr::stopped_cars(final_state), 0u);
  EXPECT_DOUBLE_EQ(tr::mean_velocity(final_state), spec.v_max);
}

TEST(TrafficModel, WithRandomnessJamsEmerge) {
  // Fig. 3's phenomenon: at the same density, p = 0.13 produces stopped
  // cars (jams) that persist through the run.
  const tr::Spec spec = fig3_spec();  // density 0.2, p = 0.13
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 400, &snaps);
  // Average the second half to skip the transient.
  std::vector<tr::State> tail(snaps.begin() + 200, snaps.end());
  EXPECT_GT(tr::jam_fraction(tail), 0.02);
}

TEST(TrafficModel, SingleCarReachesFreeFlow) {
  tr::Spec spec;
  spec.road_length = 50;
  spec.cars = 1;
  spec.p_slow = 0.0;
  const auto st = tr::run_serial(spec, 20);
  EXPECT_EQ(st.vel[0], spec.v_max);
}

// ---- reproducibility (the assignment's core requirement) ------------------------------

class TrafficThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrafficThreads, ParallelBitIdenticalToSerial) {
  const std::size_t threads = GetParam();
  const auto spec = fig3_spec();
  const auto serial = tr::run_serial(spec, 120);
  peachy::support::ThreadPool pool{4};
  const auto parallel = tr::run_parallel(spec, 120, pool, threads);
  EXPECT_EQ(parallel, serial) << "threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TrafficThreads,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 16u));

TEST(TrafficRepro, SnapshotsAlsoIdentical) {
  const auto spec = fig3_spec();
  std::vector<tr::State> serial_snaps, parallel_snaps;
  (void)tr::run_serial(spec, 60, &serial_snaps);
  peachy::support::ThreadPool pool{3};
  (void)tr::run_parallel(spec, 60, pool, 3, nullptr, &parallel_snaps);
  EXPECT_EQ(parallel_snaps, serial_snaps);
}

TEST(TrafficRepro, IndependentSeedsAreNotReproducible) {
  // The paper's warned-against shortcut: thread-private generators give
  // thread-count-dependent trajectories.
  const auto spec = fig3_spec();
  peachy::support::ThreadPool pool{4};
  const auto t1 = tr::run_parallel_independent_rngs(spec, 80, pool, 1);
  const auto t4 = tr::run_parallel_independent_rngs(spec, 80, pool, 4);
  EXPECT_NE(t1, t4);
  // Same thread count still reproduces (it is deterministic, just not
  // thread-count invariant).
  EXPECT_EQ(tr::run_parallel_independent_rngs(spec, 80, pool, 4), t4);
}

TEST(TrafficRepro, FastForwardCountScalesWithThreadsAndSteps) {
  const auto spec = fig3_spec();
  peachy::support::ThreadPool pool{4};
  tr::ParallelStats stats2, stats4;
  (void)tr::run_parallel(spec, 50, pool, 2, &stats2);
  (void)tr::run_parallel(spec, 50, pool, 4, &stats4);
  EXPECT_EQ(stats2.fast_forwards, 50u * 2);
  EXPECT_EQ(stats4.fast_forwards, 50u * 4);
}

TEST(TrafficRepro, DifferentSeedsDifferentTrajectories) {
  tr::Spec a = fig3_spec();
  tr::Spec b = fig3_spec();
  b.seed = a.seed + 1;
  EXPECT_NE(tr::run_serial(a, 50), tr::run_serial(b, 50));
}

// ---- grid representation ----------------------------------------------------------------

class GridSteps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridSteps, GridMatchesAgentExactly) {
  const std::size_t steps = GetParam();
  tr::Spec spec = fig3_spec();
  spec.road_length = 300;
  spec.cars = 90;
  EXPECT_EQ(tr::run_grid(spec, steps), tr::run_serial(spec, steps));
}

INSTANTIATE_TEST_SUITE_P(StepCounts, GridSteps, ::testing::Values(0u, 1u, 10u, 100u));

TEST(Grid, HighDensityStillMatches) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 120;
  spec.cars = 100;  // dense: heavy braking and wraps
  EXPECT_EQ(tr::run_grid(spec, 80), tr::run_serial(spec, 80));
}

// ---- diagrams & measurements ---------------------------------------------------------------

TEST(Diagram, AsciiShapeAndMarkers) {
  const auto spec = fig3_spec();
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 40, &snaps);
  const auto art = tr::spacetime_ascii(spec, snaps, 4);
  // 40 rows of road_length/4 chars.
  EXPECT_EQ(art.size(), 40u * (spec.road_length / 4 + 1));
  EXPECT_NE(art.find('#'), std::string::npos);  // jams visible
}

TEST(Diagram, PgmHeader) {
  const auto spec = fig3_spec();
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 5, &snaps);
  const auto pgm = tr::spacetime_pgm(spec, snaps);
  EXPECT_EQ(pgm.rfind("P5\n1000 5\n255\n", 0), 0u);
}

TEST(FundamentalDiagram, FreeFlowThenCongestionCollapse) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 500;
  const auto points = tr::fundamental_diagram(spec, {0.05, 0.12, 0.5, 0.8}, 300);
  ASSERT_EQ(points.size(), 4u);
  // Low density: near free flow (v close to v_max, lowered by p).
  EXPECT_GT(points[0].mean_velocity, 3.5);
  // Flow peaks near the critical density then collapses at high density.
  EXPECT_GT(points[1].flow, points[0].flow);
  EXPECT_LT(points[3].flow, points[1].flow);
  EXPECT_LT(points[3].mean_velocity, 0.5);
}

TEST(FundamentalDiagram, ValidatesInput) {
  const auto spec = fig3_spec();
  EXPECT_THROW((void)tr::fundamental_diagram(spec, {}, 10), peachy::Error);
  EXPECT_THROW((void)tr::fundamental_diagram(spec, {1.5}, 10), peachy::Error);
}

// ---- distributed-memory variation (paper §5: "using MPI") --------------------

#include "traffic/mpi_traffic.hpp"

class TrafficMpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(TrafficMpiRanks, BitIdenticalToSerialForAnyRankCount) {
  const int ranks = GetParam();
  tr::Spec spec = fig3_spec();
  spec.road_length = 400;
  spec.cars = 80;
  const auto serial = tr::run_serial(spec, 60);
  peachy::mpi::run(ranks, [&](peachy::mpi::Comm& comm) {
    const auto got = tr::run_mpi(comm, spec, 60);
    EXPECT_EQ(got, serial) << "ranks=" << ranks;
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TrafficMpiRanks, ::testing::Values(1, 2, 3, 5, 8));

TEST(TrafficMpi, ReportsTrafficAndFastForwards) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 200;
  spec.cars = 40;
  const auto traffic = peachy::mpi::run(4, [&](peachy::mpi::Comm& comm) {
    tr::MpiTrafficStats stats;
    (void)tr::run_mpi(comm, spec, 30, &stats);
    EXPECT_EQ(stats.fast_forwards, 30u);  // one jump per step per rank
  });
  EXPECT_GT(traffic.messages, 0u);
  EXPECT_GT(traffic.bytes, 0u);
}

TEST(TrafficMpi, MoreRanksThanCarsStillCorrect) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 40;
  spec.cars = 5;
  const auto serial = tr::run_serial(spec, 25);
  peachy::mpi::run(8, [&](peachy::mpi::Comm& comm) {
    EXPECT_EQ(tr::run_mpi(comm, spec, 25), serial);
  });
}
