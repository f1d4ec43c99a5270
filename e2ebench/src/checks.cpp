#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace e2e {

namespace {

std::string str(std::size_t v) { return std::to_string(v); }

}  // namespace

std::string check_kmeans(const peachy::kmeans::Result& result,
                         const peachy::kmeans::Result& reference,
                         const peachy::data::PointSet& points) {
  if (result.assignment.size() != points.size()) {
    return "kmeans: " + str(result.assignment.size()) + " assignments for " +
           str(points.size()) + " points";
  }
  if (result.assignment != reference.assignment) {
    std::size_t i = 0;
    while (result.assignment[i] == reference.assignment[i]) ++i;
    return "kmeans: assignment differs from cluster_sequential at point " + str(i);
  }
  if (result.changes_per_iteration.size() != result.iterations) {
    return "kmeans: " + str(result.changes_per_iteration.size()) +
           " changes_per_iteration entries for " + str(result.iterations) + " iterations";
  }
  const std::size_t k = result.centroids.size();
  const std::size_t d = points.dims();
  if (result.centroids.dims() != d) return "kmeans: centroid dimension mismatch";
  double inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto c = static_cast<std::size_t>(result.assignment[i]);
    if (c >= k) return "kmeans: point " + str(i) + " assigned to missing cluster " + str(c);
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = points.at(i, j) - result.centroids.at(c, j);
      inertia += diff * diff;
    }
  }
  // The distributed inertia sums per-rank partials, so its last bits
  // depend on the rank count; the recount must agree to rounding.
  if (!(std::abs(result.inertia - inertia) <= 1e-9 * std::abs(inertia))) {
    return "kmeans: inertia " + std::to_string(result.inertia) + " but the recount gives " +
           std::to_string(inertia);
  }
  return {};
}

std::string check_traffic(const peachy::traffic::State& state,
                          const peachy::traffic::State& reference,
                          const peachy::traffic::Spec& spec) {
  if (state.pos.size() != spec.cars || state.vel.size() != spec.cars) {
    return "traffic: " + str(state.pos.size()) + " positions and " + str(state.vel.size()) +
           " velocities for " + str(spec.cars) + " cars";
  }
  std::vector<std::int64_t> cells = state.pos;
  std::sort(cells.begin(), cells.end());
  if (std::adjacent_find(cells.begin(), cells.end()) != cells.end()) {
    return "traffic: two cars share a cell";
  }
  if (cells.front() < 0 || cells.back() >= static_cast<std::int64_t>(spec.road_length)) {
    return "traffic: a car is off the road";
  }
  for (const int v : state.vel) {
    if (v < 0 || v > spec.v_max) return "traffic: velocity " + std::to_string(v) + " out of range";
  }
  if (!(state == reference)) return "traffic: final state differs from run_serial";
  return {};
}

std::string check_crime(const peachy::pipeline::CrimeReport& report,
                        const std::vector<peachy::pipeline::NtaRate>& oracle,
                        const CrimeCounts& counts) {
  if (report.events_ingested != counts.ingested) {
    return "crime: events_ingested " + str(report.events_ingested) + ", generated " +
           str(counts.ingested);
  }
  if (report.events_in_target_year != counts.in_target_year) {
    return "crime: events_in_target_year " + str(report.events_in_target_year) +
           ", generated " + str(counts.in_target_year);
  }
  std::map<std::string, std::int64_t> expected;
  for (const auto& row : oracle) expected[row.nta] = row.arrests;
  std::map<std::string, std::int64_t> got;
  std::int64_t total = 0;
  for (const auto& row : report.rates) {
    if (!got.emplace(row.nta, row.arrests).second) return "crime: NTA " + row.nta + " listed twice";
    total += row.arrests;
    const double rate =
        1e5 * static_cast<double>(row.arrests) / static_cast<double>(row.population);
    if (!(std::abs(row.per_100k - rate) <= 1e-12 * rate)) {
      return "crime: NTA " + row.nta + " per_100k " + std::to_string(row.per_100k) +
             " is not 1e5*arrests/population";
    }
  }
  if (got != expected) return "crime: per-NTA arrests differ from crime_rates_serial";
  if (total != static_cast<std::int64_t>(report.events_located)) {
    return "crime: arrests sum to " + std::to_string(total) + ", events_located is " +
           str(report.events_located);
  }
  const auto before = [](const peachy::pipeline::NtaRate& a,
                         const peachy::pipeline::NtaRate& b) {
    return a.per_100k != b.per_100k ? a.per_100k > b.per_100k : a.nta < b.nta;
  };
  if (!std::is_sorted(report.rates.begin(), report.rates.end(), before)) {
    return "crime: rate table is not sorted";
  }
  return {};
}

std::string check_knn(const std::vector<std::int32_t>& predicted,
                      const std::vector<std::int32_t>& reference) {
  if (predicted.size() != reference.size()) {
    return "knn: " + str(predicted.size()) + " predictions for " + str(reference.size()) +
           " queries";
  }
  if (predicted != reference) {
    std::size_t i = 0;
    while (predicted[i] == reference[i]) ++i;
    return "knn: prediction for query " + str(i) + " differs from knn::classify";
  }
  return {};
}

std::string check_all_pairs(std::uint64_t pairs_shuffled, std::size_t n, std::size_t q) {
  if (pairs_shuffled != static_cast<std::uint64_t>(n) * q) {
    return "knn: " + std::to_string(pairs_shuffled) + " pairs shuffled, all-pairs needs " +
           std::to_string(static_cast<std::uint64_t>(n) * q);
  }
  return {};
}

}  // namespace e2e
