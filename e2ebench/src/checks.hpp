#pragma once
/// \file checks.hpp
/// \brief Output checks of the end-to-end benchmark.
///
/// Every check compares an assignment's output with an independent
/// computation (the assignment's own serial reference, a recount made
/// here) or with a property the answer must have.  None compares with a
/// stored copy of an earlier output.  Each returns an empty string when
/// the output passes and a one-line reason when it does not.

#include <cstdint>
#include <string>
#include <vector>

#include "data/points.hpp"
#include "kmeans/kmeans.hpp"
#include "pipeline/crime.hpp"
#include "traffic/traffic.hpp"

namespace e2e {

/// k-means: the assignment is bit-equal to `reference`'s (the
/// cluster_sequential result for the same instance and options),
/// `result.inertia` agrees with a recount over `points` and
/// `result.centroids`, and there is one changes_per_iteration entry per
/// iteration.
[[nodiscard]] std::string check_kmeans(const peachy::kmeans::Result& result,
                                       const peachy::kmeans::Result& reference,
                                       const peachy::data::PointSet& points);

/// Traffic: `state` is bit-identical to `reference` (run_serial's final
/// state), holds spec.cars cars on distinct cells of the road, and every
/// velocity lies in [0, v_max].
[[nodiscard]] std::string check_traffic(const peachy::traffic::State& state,
                                        const peachy::traffic::State& reference,
                                        const peachy::traffic::Spec& spec);

/// What the benchmark itself counted in the generated crime inputs.
struct CrimeCounts {
  std::size_t ingested = 0;        ///< rows of both arrest datasets
  std::size_t in_target_year = 0;  ///< rows dated in the target year
};

/// Crime: per-NTA arrests equal `oracle`'s (crime_rates_serial, which
/// uses no spark), the arrests sum to events_located, the ingest counts
/// equal `counts`, per_100k is 1e5·arrests/population, and the table is
/// sorted by per_100k descending, then NTA code.
[[nodiscard]] std::string check_crime(const peachy::pipeline::CrimeReport& report,
                                      const std::vector<peachy::pipeline::NtaRate>& oracle,
                                      const CrimeCounts& counts);

/// kNN: predictions equal `reference` (knn::classify).
[[nodiscard]] std::string check_knn(const std::vector<std::int32_t>& predicted,
                                    const std::vector<std::int32_t>& reference);

/// All-pairs emission shuffles exactly one pair per (query, database
/// point): n·q.
[[nodiscard]] std::string check_all_pairs(std::uint64_t pairs_shuffled, std::size_t n,
                                          std::size_t q);

}  // namespace e2e
