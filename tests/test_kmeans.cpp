// Tests for the k-means assignment: sequential reference behaviour,
// termination thresholds, equivalence of the four OpenMP-strategy
// variants, the distributed version for every rank count, and the
// SIMT-style version's two reduction schemes.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "data/points.hpp"
#include "kmeans/kmeans.hpp"
#include "kmeans/mpi_kmeans.hpp"
#include "kmeans/simt_kmeans.hpp"
#include "support/check.hpp"

namespace km = peachy::kmeans;
namespace pd = peachy::data;
namespace pm = peachy::mpi;

namespace {

pd::PointSet blobs(std::size_t per_class = 80, std::size_t classes = 3, std::size_t dims = 2,
                   double spread = 0.4, std::uint64_t seed = 5) {
  pd::BlobsSpec spec;
  spec.points_per_class = per_class;
  spec.classes = classes;
  spec.dims = dims;
  spec.spread = spread;
  spec.seed = seed;
  return pd::gaussian_blobs(spec).points;
}

km::Options default_opts(std::size_t k = 3) {
  km::Options opts;
  opts.k = k;
  opts.max_iterations = 100;
  opts.seed = 17;
  return opts;
}

/// Do two clusterings induce the same partition (up to cluster renaming)?
bool same_partition(std::span<const std::int32_t> a, std::span<const std::int32_t> b) {
  if (a.size() != b.size()) return false;
  std::map<std::int32_t, std::int32_t> fwd, bwd;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto [f, fnew] = fwd.try_emplace(a[i], b[i]);
    if (!fnew && f->second != b[i]) return false;
    const auto [g, gnew] = bwd.try_emplace(b[i], a[i]);
    if (!gnew && g->second != a[i]) return false;
  }
  return true;
}

}  // namespace

// ---- sequential reference -----------------------------------------------------------

TEST(KmeansSeq, RecoversWellSeparatedBlobs) {
  pd::BlobsSpec spec;
  spec.points_per_class = 60;
  spec.classes = 3;
  spec.dims = 2;
  spec.spread = 0.2;
  spec.seed = 9;
  const auto truth = pd::gaussian_blobs(spec);
  const auto res = km::cluster_sequential(truth.points, default_opts(3));
  // The induced partition must equal the generator's class structure.
  EXPECT_TRUE(same_partition(res.assignment, truth.labels));
  EXPECT_LE(res.changes_per_iteration.back(), 0u + 0u);
}

TEST(KmeansSeq, InertiaDecreasesMonotonically) {
  const auto points = blobs();
  km::Options opts = default_opts();
  // Run iteration-by-iteration by capping max_iterations.
  double prev = 1e300;
  for (std::size_t iters = 1; iters <= 8; ++iters) {
    opts.max_iterations = iters;
    const auto res = km::cluster_sequential(points, opts);
    EXPECT_LE(res.inertia, prev + 1e-9) << "iters=" << iters;
    prev = res.inertia;
  }
}

TEST(KmeansSeq, TerminatesOnMinChanges) {
  const auto points = blobs();
  km::Options opts = default_opts();
  opts.min_changes = points.size();  // any iteration satisfies the threshold
  const auto res = km::cluster_sequential(points, opts);
  EXPECT_EQ(res.iterations, 1u);
  EXPECT_EQ(res.termination, km::Termination::kMinChanges);
}

TEST(KmeansSeq, TerminatesOnMaxIterations) {
  const auto points = blobs();
  km::Options opts = default_opts();
  opts.max_iterations = 2;
  opts.min_changes = 0;
  opts.move_tolerance = 0.0;
  const auto res = km::cluster_sequential(points, opts);
  EXPECT_LE(res.iterations, 2u);
}

TEST(KmeansSeq, ConvergedRunReportsCentroidTermination) {
  const auto points = blobs(40, 2, 2, 0.1, 3);
  km::Options opts = default_opts(2);
  opts.min_changes = 0;
  const auto res = km::cluster_sequential(points, opts);
  // A well-separated instance converges long before 100 iterations, via
  // the zero-changes → zero-movement chain.
  EXPECT_LT(res.iterations, 50u);
  EXPECT_NE(res.termination, km::Termination::kMaxIterations);
}

TEST(KmeansSeq, DeterministicForSeed) {
  const auto points = blobs();
  const auto a = km::cluster_sequential(points, default_opts());
  const auto b = km::cluster_sequential(points, default_opts());
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids.values(), b.centroids.values());
}

TEST(KmeansSeq, ValidatesOptions) {
  const auto points = blobs(10, 2, 2);
  km::Options opts = default_opts(0);
  EXPECT_THROW((void)km::cluster_sequential(points, opts), peachy::Error);
  opts = default_opts(points.size() + 1);
  EXPECT_THROW((void)km::cluster_sequential(points, opts), peachy::Error);
  EXPECT_THROW((void)km::cluster_sequential(pd::PointSet{}, default_opts()), peachy::Error);
}

TEST(KmeansInit, RandomPointsAreDistinctDataPoints) {
  const auto points = blobs(20, 2, 3);
  km::Options opts = default_opts(5);
  const auto centroids = km::initial_centroids(points, opts);
  EXPECT_EQ(centroids.size(), 5u);
  std::set<std::vector<double>> unique;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const auto p = centroids.point(c);
    unique.insert(std::vector<double>(p.begin(), p.end()));
  }
  EXPECT_EQ(unique.size(), 5u);
}

TEST(KmeansInit, PlusPlusSpreadsCentroids) {
  // On three tight blobs, k-means++ should pick centroids in distinct
  // blobs nearly always (D² sampling), giving immediate recovery.
  pd::BlobsSpec spec;
  spec.points_per_class = 50;
  spec.classes = 3;
  spec.spread = 0.05;
  spec.seed = 4;
  const auto truth = pd::gaussian_blobs(spec);
  km::Options opts = default_opts(3);
  opts.init = km::Init::kPlusPlus;
  const auto res = km::cluster_sequential(truth.points, opts);
  EXPECT_TRUE(same_partition(res.assignment, truth.labels));
}

TEST(KmeansSeq, NearestCentroidTieBreaksLow) {
  pd::PointSet centroids{2, 1, {1.0, 3.0}};
  const double mid[] = {2.0};
  EXPECT_EQ(km::nearest_centroid(centroids, mid), 0u);
}

// ---- threaded variants -----------------------------------------------------------------

class KmeansVariants
    : public ::testing::TestWithParam<std::tuple<km::Variant, std::size_t>> {};

TEST_P(KmeansVariants, MatchesSequentialTrajectory) {
  const auto [variant, threads] = GetParam();
  const auto points = blobs(70, 3, 3, 0.5, 23);
  const km::Options opts = default_opts();
  const auto expect = km::cluster_sequential(points, opts);
  peachy::support::ThreadPool pool{4};
  const auto got = km::cluster_parallel(points, opts, variant, pool, threads);
  // Assignments and iteration count must match exactly; centroid values
  // may differ in the last bits for non-deterministic summation orders
  // (critical/atomic), so compare positions with a tight tolerance.
  EXPECT_EQ(got.assignment, expect.assignment)
      << km::to_string(variant) << " threads=" << threads;
  EXPECT_EQ(got.iterations, expect.iterations);
  EXPECT_EQ(got.changes_per_iteration, expect.changes_per_iteration);
  ASSERT_EQ(got.centroids.values().size(), expect.centroids.values().size());
  for (std::size_t i = 0; i < got.centroids.values().size(); ++i) {
    EXPECT_NEAR(got.centroids.values()[i], expect.centroids.values()[i], 1e-9);
  }
  EXPECT_NEAR(got.inertia, expect.inertia, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyStages, KmeansVariants,
    ::testing::Combine(::testing::Values(km::Variant::kCritical, km::Variant::kAtomic,
                                         km::Variant::kReduction,
                                         km::Variant::kReductionPadded),
                       ::testing::Values(1u, 2u, 4u, 7u)));

TEST(KmeansVariantsExtra, ReductionIsBitIdenticalToSequential) {
  // The reduction variant merges partials in thread order; with one
  // thread the arithmetic is the sequential order exactly.
  const auto points = blobs();
  const km::Options opts = default_opts();
  peachy::support::ThreadPool pool{2};
  const auto seq = km::cluster_sequential(points, opts);
  const auto red = km::cluster_parallel(points, opts, km::Variant::kReduction, pool, 1);
  EXPECT_EQ(red.centroids.values(), seq.centroids.values());
  EXPECT_EQ(red.inertia, seq.inertia);
}

TEST(KmeansVariantsExtra, ThreadedRunsAreBitIdenticalAcrossRepeats) {
  // Determinism contract: for a fixed thread count, repeated threaded
  // runs produce bit-identical centroids — the reduction variant merges
  // fixed static blocks in thread order, and the kernels layer promises
  // identical arithmetic regardless of which ISA path dispatch picks.
  const auto points = blobs(70, 3, 3, 0.5, 23);
  const km::Options opts = default_opts();
  peachy::support::ThreadPool pool{4};
  for (const auto variant : {km::Variant::kReduction, km::Variant::kReductionPadded}) {
    const auto first = km::cluster_parallel(points, opts, variant, pool, 4);
    for (int run = 0; run < 3; ++run) {
      const auto again = km::cluster_parallel(points, opts, variant, pool, 4);
      EXPECT_EQ(again.centroids.values(), first.centroids.values())
          << km::to_string(variant) << " run=" << run;
      EXPECT_EQ(again.assignment, first.assignment);
      EXPECT_EQ(again.inertia, first.inertia);
      EXPECT_EQ(again.iterations, first.iterations);
    }
  }
}

// ---- distributed -------------------------------------------------------------------------

class KmeansMpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(KmeansMpiRanks, MatchesSequentialPartition) {
  const int p = GetParam();
  const auto points = blobs(60, 3, 2, 0.4, 29);
  const km::Options opts = default_opts();
  const auto expect = km::cluster_sequential(points, opts);
  pm::run(p, [&](pm::Comm& comm) {
    // Only root supplies the data (as if it parsed the input file).
    const auto res =
        km::cluster_mpi(comm, comm.rank() == 0 ? points : pd::PointSet{}, opts);
    EXPECT_EQ(res.assignment, expect.assignment) << "ranks=" << p;
    EXPECT_EQ(res.iterations, expect.iterations);
    EXPECT_NEAR(res.inertia, expect.inertia, 1e-6);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, KmeansMpiRanks, ::testing::Values(1, 2, 3, 4, 6));

TEST(KmeansMpi, ReportsTraffic) {
  const auto points = blobs(40, 2, 2);
  const km::Options opts = default_opts(2);
  km::MpiKmeansStats stats;
  const pm::TrafficStats traffic = pm::run(3, [&](pm::Comm& comm) {
    km::MpiKmeansStats local;  // stats objects are rank-local (each rank fills its own)
    (void)km::cluster_mpi(comm, comm.rank() == 0 ? points : pd::PointSet{}, opts, &local);
    if (comm.rank() == 0) stats = local;
  });
  EXPECT_GT(traffic.messages, 0u);
  EXPECT_GT(traffic.bytes, 0u);
  EXPECT_GT(stats.iterations, 0u);
}

// ---- SIMT ---------------------------------------------------------------------------------

class KmeansSimtConfigs
    : public ::testing::TestWithParam<std::tuple<km::SimtReduce, std::size_t>> {};

TEST_P(KmeansSimtConfigs, MatchesSequentialPartition) {
  const auto [reduce, block_size] = GetParam();
  const auto points = blobs(50, 3, 2, 0.4, 31);
  const km::Options opts = default_opts();
  const auto expect = km::cluster_sequential(points, opts);
  peachy::support::ThreadPool pool{4};
  km::SimtConfig cfg;
  cfg.reduce = reduce;
  cfg.block_size = block_size;
  const auto got = km::cluster_simt(points, opts, cfg, pool);
  EXPECT_EQ(got.assignment, expect.assignment);
  EXPECT_EQ(got.iterations, expect.iterations);
  EXPECT_NEAR(got.inertia, expect.inertia, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KmeansSimtConfigs,
    ::testing::Combine(::testing::Values(km::SimtReduce::kGlobalAtomic,
                                         km::SimtReduce::kBlockShared),
                       ::testing::Values(1u, 32u, 1024u)));

TEST(KmeansSimt, BlockSharedIssuesFewerGlobalAtomics) {
  const auto points = blobs(100, 4, 3, 0.6, 37);
  const km::Options opts = default_opts(4);
  peachy::support::ThreadPool pool{4};

  km::SimtConfig cfg;
  cfg.block_size = 64;
  cfg.reduce = km::SimtReduce::kGlobalAtomic;
  km::SimtStats atomic_stats;
  (void)km::cluster_simt(points, opts, cfg, pool, &atomic_stats);

  cfg.reduce = km::SimtReduce::kBlockShared;
  km::SimtStats shared_stats;
  (void)km::cluster_simt(points, opts, cfg, pool, &shared_stats);

  EXPECT_GT(atomic_stats.global_atomic_updates, 4 * shared_stats.global_atomic_updates);
  EXPECT_EQ(atomic_stats.blocks_launched, shared_stats.blocks_launched);
}

TEST(KmeansSimt, ValidatesConfig) {
  const auto points = blobs(10, 2, 2);
  peachy::support::ThreadPool pool{2};
  km::SimtConfig cfg;
  cfg.block_size = 0;
  EXPECT_THROW((void)km::cluster_simt(points, default_opts(2), cfg, pool), peachy::Error);
}
