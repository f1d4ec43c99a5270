#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <functional>

#include "checks.hpp"
#include "data/frame.hpp"
#include "geo/city.hpp"
#include "kernels/kernels.hpp"
#include "kmeans/mpi_kmeans.hpp"
#include "knn/knn.hpp"
#include "knn/mapreduce_knn.hpp"
#include "pipeline/crime.hpp"
#include "traffic/mpi_traffic.hpp"

namespace e2e {

namespace mpi = peachy::mpi;

namespace {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds `fn` takes.
template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

void require(const std::string& why) {
  if (!why.empty()) throw WrongAnswer{why};
}

mpi::TrafficStats run_world(mpi::TransportKind wire, const std::function<void(mpi::Comm&)>& fn) {
  mpi::RunOptions opts;
  opts.transport = wire;
  return mpi::run(kWorkers, fn, opts);
}

/// Median seconds of `reps` calls of `fn`.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(timed(fn));
  return median(std::move(t));
}

/// Median seconds of an empty mpi::run: thread start, transport bring-up
/// (shm segment and pump, or loopback connections), teardown.
double world_up_s(mpi::TransportKind wire) {
  return median_time(9, [wire] { run_world(wire, [](mpi::Comm&) {}); });
}

/// Median seconds of `op` inside one world, timed on rank 0 after a
/// barrier, over `reps` repetitions following `warm` untimed ones.
double collective_s(mpi::TransportKind wire, int warm, int reps,
                    const std::function<void(mpi::Comm&)>& op) {
  std::vector<double> t;
  run_world(wire, [&](mpi::Comm& comm) {
    for (int i = 0; i < warm + reps; ++i) {
      comm.barrier();
      const double dt = timed([&] { op(comm); });
      if (comm.rank() == 0 && i >= warm) t.push_back(dt);
    }
  });
  return median(std::move(t));
}

/// Median microseconds of one traffic step's exchange on 3 shm ranks:
/// every rank's block of `cars` positions, then of velocities.
double traffic_step_allgather_us(std::size_t cars) {
  return 1e6 * collective_s(mpi::TransportKind::kShm, 200, 5000, [cars](mpi::Comm& comm) {
    const auto blk =
        peachy::support::static_block(cars, kWorkers, static_cast<std::size_t>(comm.rank()));
    std::vector<std::int64_t> pos(cars);
    std::vector<std::int32_t> vel(cars);
    std::vector<std::int64_t> my_pos(blk.end - blk.begin, 1);
    std::vector<std::int32_t> my_vel(blk.end - blk.begin, 1);
    comm.allgather_into<std::int64_t>(my_pos, std::span<std::int64_t>{pos});
    comm.allgather_into<std::int32_t>(my_vel, std::span<std::int32_t>{vel});
  });
}

// ---- kmeans_mpi_shm ----------------------------------------------------------

class KmeansShm final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    peachy::data::BlobsSpec spec;
    spec.points_per_class = kPoints / kClusters;
    spec.classes = kClusters;
    spec.dims = kDims;
    spec.spread = kSpread;
    spec.seed = seed;
    points_ = peachy::data::gaussian_blobs(spec).points;
    opts_ = options(seed, kIterations);
    reference_ = peachy::kmeans::cluster_sequential(points_, opts_);
  }

  Solve solve() override {
    Solve out;
    out.seconds = timed([&] { out.traffic = cluster(points_, opts_, &result_); });
    require(check_kmeans(result_, reference_, points_));
    return out;
  }

  double solve_serial() override {
    peachy::kmeans::Result serial;
    const double s = timed([&] { serial = peachy::kmeans::cluster_sequential(points_, opts_); });
    require(check_kmeans(serial, reference_, points_));
    return s;
  }

  [[nodiscard]] bool has_known_failure() const override { return true; }

  /// crime_spark is not steady enough to gate (README: "Steadiness"), so
  /// the pool, spark, pipeline, data and geo layers it alone reaches are
  /// measured here.
  [[nodiscard]] std::unique_ptr<Workload> companion() const override {
    return make_workload("crime_spark");
  }

  /// Each rank's block of this instance (fixed seed, not --seed) exceeds
  /// the shm wire's fixed 16 MiB spill arena, so ring_push refuses the
  /// scatter and the world aborts; inproc and socket solve it.  Checked
  /// like any solve once the ceiling is lifted.
  void known_failure() override {
    const auto big = peachy::data::uniform_points(kBigPoints, kDims, -10.0, 10.0, 1);
    const peachy::kmeans::Options opts = options(1, kBigIterations);
    peachy::kmeans::Result result;
    cluster(big, opts, &result);
    require(check_kmeans(result, peachy::kmeans::cluster_sequential(big, opts), big));
  }

  void probes(std::map<std::string, Metric>& out) override {
    // The kernel work of one solve: argmin_assign over every point, once
    // per iteration, against the initial centroids.
    const auto panel = peachy::kmeans::initial_centroids(points_, opts_).transposed_panel();
    const std::size_t n = points_.size();
    std::vector<std::int32_t> assignment(n, -1);
    std::vector<double> sums(kClusters * kDims);
    std::vector<std::int64_t> counts(kClusters);
    out["kernels.argmin_assign_s"] = {median_time(5, [&] {
      for (std::size_t it = 0; it < kIterations; ++it) {
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        (void)peachy::kernels::argmin_assign(points_.values().data(), n, kDims, panel.data(),
                                             panel.count, panel.padded, assignment.data(),
                                             sums.data(), counts.data());
      }
    }), "s"};
    out["mpi.world_up_s"] = {world_up_s(mpi::TransportKind::kShm), "s"};
    // traffic_mpi_shm is not in BENCHMARK.json (README: "Steadiness"), so
    // the small-message allgather of its step is probed here, on the same
    // wire and rank count: Fig. 3's 200 cars.
    out["mpi.allgather_us"] = {traffic_step_allgather_us(200), "us"};
    // One iteration's reductions: centroid sums, counts, change count.
    out["mpi.allreduce_us"] = {
        1e6 * collective_s(mpi::TransportKind::kShm, 50, 1000, [&](mpi::Comm& comm) {
          std::vector<double> s(kClusters * kDims, 1.0);
          std::vector<std::int64_t> c(kClusters, 1);
          comm.allreduce_inplace<double>(std::span<double>{s}, std::plus<>{});
          comm.allreduce_inplace<std::int64_t>(std::span<std::int64_t>{c}, std::plus<>{});
          (void)comm.allreduce_value<std::uint64_t>(1, std::plus<>{});
        }),
        "us"};
  }

 private:
  static constexpr std::size_t kPoints = 600'000;
  static constexpr std::size_t kDims = 8;
  static constexpr std::size_t kClusters = 16;
  static constexpr double kSpread = 8.0;
  static constexpr std::size_t kIterations = 10;
  // 800k x 8 doubles over 3 ranks: 17.07 MB per block > 16 MiB.
  static constexpr std::size_t kBigPoints = 800'000;
  static constexpr std::size_t kBigIterations = 3;

  static peachy::kmeans::Options options(std::uint64_t seed, std::size_t iterations) {
    peachy::kmeans::Options o;
    o.k = kClusters;
    o.max_iterations = iterations;
    o.move_tolerance = 0.0;
    o.seed = seed;
    return o;
  }

  static mpi::TrafficStats cluster(const peachy::data::PointSet& points,
                                   const peachy::kmeans::Options& opts,
                                   peachy::kmeans::Result* result) {
    const peachy::data::PointSet empty;
    return run_world(mpi::TransportKind::kShm, [&](mpi::Comm& comm) {
      auto r = peachy::kmeans::cluster_mpi(comm, comm.rank() == 0 ? points : empty, opts);
      if (comm.rank() == 0) *result = std::move(r);
    });
  }

  peachy::data::PointSet points_;
  peachy::kmeans::Options opts_;
  peachy::kmeans::Result reference_;
  peachy::kmeans::Result result_;
};

// ---- traffic_mpi_shm -------------------------------------------------------

class TrafficShm final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    spec_ = {};  // Fig. 3: 200 cars on 1000 cells (density 0.2), p = 0.13, v_max = 5
    spec_.seed = seed;
    reference_ = peachy::traffic::run_serial(spec_, kSteps);
  }

  Solve solve() override {
    Solve out;
    peachy::traffic::State state;
    out.seconds = timed([&] {
      out.traffic = run_world(mpi::TransportKind::kShm, [&](mpi::Comm& comm) {
        auto s = peachy::traffic::run_mpi(comm, spec_, kSteps);
        if (comm.rank() == 0) state = std::move(s);
      });
    });
    require(check_traffic(state, reference_, spec_));
    return out;
  }

  /// The serial solve takes tens of milliseconds; several per round give
  /// serial_s as many samples as a run needs.
  [[nodiscard]] int serials_per_round() const override { return 8; }

  double solve_serial() override {
    peachy::traffic::State state;
    const double s = timed([&] { state = peachy::traffic::run_serial(spec_, kSteps); });
    require(check_traffic(state, reference_, spec_));
    return s;
  }

  void probes(std::map<std::string, Metric>& out) override {
    out["mpi.world_up_s"] = {world_up_s(mpi::TransportKind::kShm), "s"};
    out["mpi.allgather_us"] = {traffic_step_allgather_us(spec_.cars), "us"};
  }

 private:
  static constexpr std::size_t kSteps = 8'000;

  peachy::traffic::Spec spec_;
  peachy::traffic::State reference_;
};

// ---- crime_spark -----------------------------------------------------------

class CrimeSpark final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    cfg_ = {};
    cfg_.historic_arrests = kHistoric;
    cfg_.current_arrests = kCurrent;
    cfg_.seed = seed;
    cfg_.partitions = 8;
    cfg_.threads = kWorkers;
    oracle_ = peachy::pipeline::crime_rates_serial(cfg_);
    // The same generator calls run_crime_pipeline makes, so the ingest
    // counts can be checked against what was generated.
    const peachy::geo::SyntheticCity city{cfg_.city};
    historic_ = city.generate_arrests(cfg_.historic_arrests, cfg_.seed, {2019, 2020});
    current_ = city.generate_arrests(cfg_.current_arrests, cfg_.seed + 1, {cfg_.target_year});
    counts_ = {historic_.size() + current_.size(), 0};
    for (const auto* events : {&historic_, &current_}) {
      for (const auto& ev : *events) counts_.in_target_year += ev.year == cfg_.target_year;
    }
  }

  Solve solve() override {
    Solve out;
    peachy::pipeline::CrimeReport report;
    out.seconds = timed([&] { report = peachy::pipeline::run_crime_pipeline(cfg_); });
    require(check_crime(report, oracle_, counts_));
    out.stages = report.stage_timings;
    return out;
  }

  double solve_serial() override {
    // crime_rates_serial skips CSV ingest, so it solves a smaller problem;
    // the serial reference is the same pipeline on one thread, one partition.
    peachy::pipeline::CrimeConfig one = cfg_;
    one.threads = 1;
    one.partitions = 1;
    peachy::pipeline::CrimeReport report;
    const double s = timed([&] { report = peachy::pipeline::run_crime_pipeline(one); });
    require(check_crime(report, oracle_, counts_));
    return s;
  }

  void probes(std::map<std::string, Metric>& out) override {
    // The arrest CSVs in the layout the pipeline serializes them to.
    std::vector<std::vector<peachy::data::CsvRow>> csvs;
    for (const auto* events : {&historic_, &current_}) {
      std::vector<peachy::data::CsvRow> rows{{"x", "y", "year", "offense"}};
      for (const auto& ev : *events) {
        char x[32], y[32];
        std::snprintf(x, sizeof x, "%.12g", ev.location.x);
        std::snprintf(y, sizeof y, "%.12g", ev.location.y);
        rows.push_back({x, y, std::to_string(ev.year), ev.offense});
      }
      csvs.push_back(std::move(rows));
    }
    std::size_t sink = 0;
    out["data.csv_parse_s"] = {median_time(5, [&] {
      for (const auto& rows : csvs) sink += peachy::data::Frame::from_csv(rows).rows();
    }), "s"};
    const peachy::geo::SyntheticCity city{cfg_.city};
    out["geo.locate_s"] = {median_time(5, [&] {
      for (const auto* events : {&historic_, &current_}) {
        for (const auto& ev : *events) {
          if (ev.year == cfg_.target_year) sink += city.locate(ev.location).value_or(0);
        }
      }
    }), "s"};
    if (sink == 0) throw WrongAnswer{"crime probes: nothing parsed or located"};
  }

 private:
  static constexpr std::size_t kHistoric = 100'000;
  static constexpr std::size_t kCurrent = 50'000;

  peachy::pipeline::CrimeConfig cfg_;
  std::vector<peachy::pipeline::NtaRate> oracle_;
  std::vector<peachy::geo::ArrestEvent> historic_;
  std::vector<peachy::geo::ArrestEvent> current_;
  CrimeCounts counts_;
};

// ---- knn_mr_socket -----------------------------------------------------------

class KnnSocket final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    peachy::data::BlobsSpec spec;
    spec.points_per_class = (kDatabase + kQueries) / kClasses;
    spec.classes = kClasses;
    spec.dims = kDims;
    spec.spread = kSpread;
    spec.seed = seed;
    auto split = peachy::data::train_test_split(
        peachy::data::gaussian_blobs(spec),
        static_cast<double>(kQueries) / static_cast<double>(kDatabase + kQueries), seed);
    db_ = std::move(split.train);
    queries_ = std::move(split.test.points);
    reference_ = peachy::knn::classify(db_, queries_, classify_options());
  }

  Solve solve() override {
    Solve out;
    std::vector<std::int32_t> predicted;
    peachy::knn::MrKnnStats stats;
    peachy::knn::MrKnnOptions opts;
    opts.k = kK;
    opts.map_tasks = 4 * kWorkers;
    opts.emit = peachy::knn::EmitMode::kAllPairs;  // the paper's naive student solution
    out.seconds = timed([&] {
      out.traffic = run_world(mpi::TransportKind::kSocket, [&](mpi::Comm& comm) {
        peachy::knn::MrKnnStats local;
        auto p = peachy::knn::mapreduce_classify(comm, db_, queries_, opts, &local);
        if (comm.rank() == 0) {
          predicted = std::move(p);
          stats = local;
        }
      });
    });
    require(check_knn(predicted, reference_));
    require(check_all_pairs(stats.pairs_shuffled, db_.size(), queries_.size()));
    shuffle_bytes_ = stats.bytes_shuffled;
    return out;
  }

  double solve_serial() override {
    std::vector<std::int32_t> predicted;
    const double s =
        timed([&] { predicted = peachy::knn::classify(db_, queries_, classify_options()); });
    require(check_knn(predicted, reference_));
    return s;
  }

  void probes(std::map<std::string, Metric>& out) override {
    const std::size_t n = db_.size();
    std::vector<double> d2(n);
    out["kernels.distance_rows_s"] = {median_time(5, [&] {
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        peachy::kernels::squared_distances_rows(db_.points.values().data(), n, kDims,
                                                queries_.point(q).data(), d2.data());
      }
    }), "s"};
    out["mpi.world_up_s"] = {world_up_s(mpi::TransportKind::kSocket), "s"};
    // The job's shuffle volume (bytes that crossed ranks in the last
    // solve) as one alltoall, spread evenly over the ordered rank pairs.
    const std::size_t per_pair = shuffle_bytes_ / (kWorkers * (kWorkers - 1));
    out["mpi.alltoall_s"] = {
        collective_s(mpi::TransportKind::kSocket, 1, 5, [&](mpi::Comm& comm) {
          std::vector<std::vector<std::byte>> send(kWorkers);
          for (int r = 0; r < kWorkers; ++r) {
            if (r != comm.rank()) send[static_cast<std::size_t>(r)].resize(per_pair);
          }
          (void)comm.alltoall(std::move(send));
        }),
        "s"};
  }

 private:
  static constexpr std::size_t kDatabase = 2000;
  static constexpr std::size_t kQueries = 500;
  static constexpr std::size_t kDims = 512;
  static constexpr std::size_t kClasses = 4;
  static constexpr double kSpread = 3.0;
  static constexpr std::size_t kK = 5;

  static peachy::knn::ClassifyOptions classify_options() {
    peachy::knn::ClassifyOptions o;
    o.k = kK;
    o.selection = peachy::knn::Selection::kHeap;
    o.threads = 1;
    return o;
  }

  peachy::data::LabeledPoints db_;
  peachy::data::PointSet queries_;
  std::vector<std::int32_t> reference_;
  std::uint64_t shuffle_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "kmeans_mpi_shm") return std::make_unique<KmeansShm>();
  if (name == "traffic_mpi_shm") return std::make_unique<TrafficShm>();
  if (name == "crime_spark") return std::make_unique<CrimeSpark>();
  if (name == "knn_mr_socket") return std::make_unique<KnnSocket>();
  return nullptr;
}

}  // namespace e2e
