#include "layers.hpp"

#include <algorithm>
#include <sstream>

namespace e2e {

std::map<std::string, SpanTotals> span_self_times(
    const std::vector<peachy::obs::EventView>& events) {
  struct Open {
    std::string key;
    std::uint64_t end_ns;
    std::uint64_t dur_ns;
    std::uint64_t child_ns;
  };
  std::map<std::uint32_t, std::vector<const peachy::obs::EventView*>> by_thread;
  for (const auto& ev : events) {
    if (ev.kind == peachy::obs::EventView::Kind::kSpan && ev.cat != "par") {
      by_thread[ev.tid].push_back(&ev);
    }
  }
  std::map<std::string, SpanTotals> out;
  const auto close = [&out](const Open& o) {
    SpanTotals& t = out[o.key];
    ++t.count;
    t.self_s += static_cast<double>(o.dur_ns - std::min(o.child_ns, o.dur_ns)) * 1e-9;
  };
  for (auto& [tid, spans] : by_thread) {
    // Parents first: earlier start, then longer duration.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<Open> stack;
    for (const auto* s : spans) {
      while (!stack.empty() && stack.back().end_ns <= s->ts_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_ns += s->dur_ns;
      stack.push_back({s->cat + "/" + s->name, s->ts_ns + s->dur_ns, s->dur_ns, 0});
    }
    for (; !stack.empty(); stack.pop_back()) close(stack.back());
  }
  return out;
}

std::int64_t counter_sum_with_prefix(const std::string& summary, const std::string& prefix) {
  // Counter lines read "  <name> = <value>".
  std::istringstream in{summary};
  std::string line;
  std::int64_t sum = 0;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(' ');
    const auto eq = line.find(" = ");
    if (start == std::string::npos || eq == std::string::npos) continue;
    if (line.compare(start, prefix.size(), prefix) != 0) continue;
    sum += std::stoll(line.substr(eq + 3));
  }
  return sum;
}

std::uint64_t dropped_events(const std::string& summary) {
  const std::string mark = "(dropped ";
  const auto at = summary.find(mark);
  return at == std::string::npos ? 0 : std::stoull(summary.substr(at + mark.size()));
}

}  // namespace e2e
