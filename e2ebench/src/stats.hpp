#pragma once
/// \file stats.hpp
/// \brief Summary statistics and the result line of the benchmark.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// The q-quantile (q in [0,1]) of `values`, interpolating linearly
/// between order statistics.  NaN when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The result line: one JSON object with exactly the keys correct,
/// attempted, failed and metrics.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::map<std::string, Metric>& metrics);

}  // namespace e2e
