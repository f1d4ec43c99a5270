#pragma once
/// \file layers.hpp
/// \brief Reading the per-layer figures peachy::obs records, through its
/// public API only.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace e2e {

/// Per span name ("cat/name"): how many spans, and their summed self
/// time — each span's duration minus the part its direct children on the
/// same thread cover.  `par/*` spans are left out: they mark the calling
/// thread waiting for its own pool tasks, so that time stays with the
/// enclosing span (a spark stage's wall time stays spark time).
struct SpanTotals {
  std::uint64_t count = 0;
  double self_s = 0.0;
};

[[nodiscard]] std::map<std::string, SpanTotals> span_self_times(
    const std::vector<peachy::obs::EventView>& events);

/// Sum of every nonzero counter whose name starts with `prefix`, read
/// from obs::summary_text() (obs has no counter enumeration).
[[nodiscard]] std::int64_t counter_sum_with_prefix(const std::string& summary,
                                                   const std::string& prefix);

/// Events obs dropped at its per-thread buffer cap, as summary_text()
/// reports them (0 when none were dropped).
[[nodiscard]] std::uint64_t dropped_events(const std::string& summary);

}  // namespace e2e
