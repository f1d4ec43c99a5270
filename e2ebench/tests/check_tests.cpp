/// \file check_tests.cpp
/// \brief Shows that each output check of the benchmark passes on a real
/// answer and fires when one output of each kind is corrupted.
///
///   python3 e2ebench/run.py --check-tests
///
/// Exit code 0 when every case behaves, 1 otherwise.

#include <iostream>
#include <string>

#include "checks.hpp"
#include "kmeans/kmeans.hpp"
#include "knn/knn.hpp"
#include "pipeline/crime.hpp"
#include "traffic/traffic.hpp"

namespace {

int failures = 0;

void expect(bool passes, const std::string& why, const char* name) {
  const bool fired = !why.empty();
  if (fired == passes) {
    ++failures;
    std::cerr << "FAIL " << name << (passes ? ": check fired: " + why : ": check did not fire")
              << "\n";
  } else {
    std::cerr << "ok   " << name << "\n";
  }
}

void kmeans_cases() {
  peachy::data::BlobsSpec spec;
  spec.points_per_class = 200;
  spec.classes = 4;
  spec.dims = 3;
  spec.spread = 2.0;
  const auto points = peachy::data::gaussian_blobs(spec).points;
  peachy::kmeans::Options opts;
  opts.k = 4;
  opts.max_iterations = 10;
  opts.move_tolerance = 0.0;
  const auto ref = peachy::kmeans::cluster_sequential(points, opts);
  expect(true, e2e::check_kmeans(ref, ref, points), "kmeans/reference");

  auto bad = ref;
  bad.assignment[17] = (bad.assignment[17] + 1) % 4;
  expect(false, e2e::check_kmeans(bad, ref, points), "kmeans/assignment");
  bad = ref;
  bad.inertia *= 1.0 + 1e-6;
  expect(false, e2e::check_kmeans(bad, ref, points), "kmeans/inertia");
  bad = ref;
  bad.centroids.at(0, 0) += 0.5;
  expect(false, e2e::check_kmeans(bad, ref, points), "kmeans/centroid");
  bad = ref;
  bad.changes_per_iteration.pop_back();
  expect(false, e2e::check_kmeans(bad, ref, points), "kmeans/changes_per_iteration");
}

void traffic_cases() {
  peachy::traffic::Spec spec;
  spec.road_length = 300;
  spec.cars = 60;
  const auto ref = peachy::traffic::run_serial(spec, 200);
  expect(true, e2e::check_traffic(ref, ref, spec), "traffic/reference");

  auto bad = ref;
  bad.vel[3] = spec.v_max + 1;
  expect(false, e2e::check_traffic(bad, ref, spec), "traffic/velocity");
  bad = ref;
  bad.pos[5] = bad.pos[6];
  expect(false, e2e::check_traffic(bad, ref, spec), "traffic/shared cell");
  bad = ref;
  bad.pos.pop_back();
  bad.vel.pop_back();
  expect(false, e2e::check_traffic(bad, ref, spec), "traffic/car lost");
  bad = ref;
  bad.pos[0] = static_cast<std::int64_t>(spec.road_length);
  expect(false, e2e::check_traffic(bad, ref, spec), "traffic/off road");
  // A state that keeps every invariant but differs from run_serial.
  bad = ref;
  bad.vel[0] = bad.vel[0] == 0 ? 1 : 0;
  expect(false, e2e::check_traffic(bad, ref, spec), "traffic/not serial");
}

void crime_cases() {
  peachy::pipeline::CrimeConfig cfg;
  cfg.historic_arrests = 3000;
  cfg.current_arrests = 1500;
  cfg.threads = 2;
  cfg.partitions = 4;
  const auto report = peachy::pipeline::run_crime_pipeline(cfg);
  const auto oracle = peachy::pipeline::crime_rates_serial(cfg);
  // Both datasets' rows; the historic one is dated 2019-2020, the current
  // one in the target year.
  const e2e::CrimeCounts counts{cfg.historic_arrests + cfg.current_arrests, cfg.current_arrests};
  expect(true, e2e::check_crime(report, oracle, counts), "crime/reference");

  auto bad = report;
  bad.rates[2].arrests += 1;
  expect(false, e2e::check_crime(bad, oracle, counts), "crime/arrests");
  bad = report;
  bad.events_located -= 1;
  expect(false, e2e::check_crime(bad, oracle, counts), "crime/events_located");
  bad = report;
  bad.events_ingested += 1;
  expect(false, e2e::check_crime(bad, oracle, counts), "crime/events_ingested");
  bad = report;
  bad.events_in_target_year -= 1;
  expect(false, e2e::check_crime(bad, oracle, counts), "crime/events_in_target_year");
  bad = report;
  bad.rates[1].per_100k *= 1.001;
  expect(false, e2e::check_crime(bad, oracle, counts), "crime/per_100k");
  bad = report;
  std::swap(bad.rates[0], bad.rates[1]);
  expect(false, e2e::check_crime(bad, oracle, counts), "crime/order");
  bad = report;
  bad.rates.pop_back();
  expect(false, e2e::check_crime(bad, oracle, counts), "crime/missing NTA");
}

void knn_cases() {
  peachy::data::BlobsSpec spec;
  spec.points_per_class = 100;
  spec.classes = 3;
  spec.dims = 4;
  spec.spread = 3.0;
  const auto split = peachy::data::train_test_split(peachy::data::gaussian_blobs(spec), 0.2, 1);
  const auto ref = peachy::knn::classify(split.train, split.test.points, {});
  expect(true, e2e::check_knn(ref, ref), "knn/reference");
  const std::size_t n = split.train.size(), q = split.test.size();
  expect(true, e2e::check_all_pairs(n * q, n, q), "knn/all pairs");

  auto bad = ref;
  bad[7] = (bad[7] + 1) % 3;
  expect(false, e2e::check_knn(bad, ref), "knn/prediction");
  bad = ref;
  bad.pop_back();
  expect(false, e2e::check_knn(bad, ref), "knn/missing prediction");
  expect(false, e2e::check_all_pairs(n * q - 1, n, q), "knn/pairs");
}

}  // namespace

int main() {
  kmeans_cases();
  traffic_cases();
  crime_cases();
  knn_cases();
  std::cerr << (failures == 0 ? "all check tests passed\n" : "check tests FAILED\n");
  return failures == 0 ? 0 : 1;
}
