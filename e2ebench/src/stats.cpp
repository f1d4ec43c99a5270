#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace e2e {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char num[64];
    // %.17g keeps every digit of the measured double.
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace e2e
