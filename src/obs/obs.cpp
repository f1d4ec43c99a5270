#include "obs/obs.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace peachy::obs {

namespace detail {
std::atomic<bool> g_enabled{false};  // constant-initialized: safe before dynamic init
}  // namespace detail

namespace {

// ---- clock ------------------------------------------------------------------

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t origin_ns() noexcept {
  static const std::uint64_t origin = steady_ns();
  return origin;
}

// ---- per-thread event buffers -----------------------------------------------

struct Event {
  enum class Kind : std::uint8_t { kSpan, kGauge };
  Kind kind;
  const char* cat;      // spans only
  const char* name;
  const char* arg_key;  // nullptr when absent
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;  // spans only
  std::int64_t arg_val;  // gauge value, or span argument
};

constexpr std::size_t kBlockEvents = 4096;
constexpr std::size_t kMaxBlocksPerThread = 256;  // ~1M events per thread

// Single-writer (owning thread) / multi-reader block.  The writer fills
// slots [0, count) and publishes count with a release store; readers load
// count with acquire and may then read those slots.
struct Block {
  std::atomic<std::size_t> count{0};
  std::atomic<Block*> next{nullptr};
  Event events[kBlockEvents];
};

struct ThreadBuffer {
  Block* head;                      // first block (never null)
  std::atomic<Block*> tail;         // writer's current block
  std::size_t blocks = 1;
  std::uint32_t tid = 0;            // registration order
  std::atomic<std::uint64_t> dropped{0};

  ThreadBuffer() : head{new Block}, tail{head} {}
};

// ---- process-lifetime registry ----------------------------------------------
//
// Leaked on purpose: worker threads (and their thread_local cleanups) may
// still be running during static destruction, and the atexit dump walks
// these structures.  Counter/Histogram references handed out by
// counter()/histogram() are stable for the process lifetime.

struct Registry {
  std::mutex mu;  // guards registration + name maps, not the hot paths
  std::vector<ThreadBuffer*> buffers;
  std::map<std::string, Counter*> counters;
  std::map<std::string, Histogram*> histograms;
  std::set<std::string> interned_names;  // stable storage for dynamic event names
  std::string trace_path;               // non-empty => dump at exit
  std::atomic<std::uint64_t> watermark{0};  // reset(): hide events older than this
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked (see above)
  return *r;
}

ThreadBuffer& thread_buffer() {
  // The buffer itself outlives the thread (owned by the registry); the
  // thread_local pointer just caches the lookup.
  thread_local ThreadBuffer* buf = [] {
    auto* b = new ThreadBuffer;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    b->tid = static_cast<std::uint32_t>(r.buffers.size());
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void record(const Event& ev) {
  ThreadBuffer& tb = thread_buffer();
  Block* blk = tb.tail.load(std::memory_order_relaxed);
  std::size_t n = blk->count.load(std::memory_order_relaxed);
  if (n == kBlockEvents) {
    if (tb.blocks >= kMaxBlocksPerThread) {
      tb.dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto* fresh = new Block;
    blk->next.store(fresh, std::memory_order_release);
    tb.tail.store(fresh, std::memory_order_release);
    ++tb.blocks;
    blk = fresh;
    n = 0;
  }
  blk->events[n] = ev;
  blk->count.store(n + 1, std::memory_order_release);
}

// Walk every buffer and invoke fn on each event at or past the watermark.
// Safe concurrently with writers: only published slots are read.
template <typename Fn>
void for_each_event(Fn&& fn) {
  Registry& r = registry();
  std::vector<ThreadBuffer*> bufs;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    bufs = r.buffers;
  }
  const std::uint64_t mark = r.watermark.load(std::memory_order_relaxed);
  for (ThreadBuffer* tb : bufs) {
    for (Block* blk = tb->head; blk != nullptr;
         blk = blk->next.load(std::memory_order_acquire)) {
      const std::size_t n = blk->count.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) {
        const Event& ev = blk->events[i];
        if (ev.ts_ns >= mark) fn(*tb, ev);
      }
    }
  }
}

// ---- JSON helpers -----------------------------------------------------------

void json_escape(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

// µs with ns precision, as a plain decimal (trace_event ts/dur unit).
void write_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
}

/// The rank of a launched rank process (`PEACHY_RANK`), or -1.
int launched_rank() {
  static const int rank = [] {
    const char* env = std::getenv("PEACHY_RANK");
    if (env == nullptr || *env == '\0') return -1;
    char* end = nullptr;
    const long r = std::strtol(env, &end, 10);
    return *end == '\0' && r >= 0 && r <= 1'000'000 ? static_cast<int>(r) : -1;
  }();
  return rank;
}

void write_trace_events(std::ostream& os) {
  // One trace per process; a launched rank's events carry its rank as pid.
  const int pid = launched_rank() >= 0 ? launched_rank() : 1;
  bool first = true;
  for_each_event([&](const ThreadBuffer& tb, const Event& ev) {
    if (!first) os << ",\n";
    first = false;
    if (ev.kind == Event::Kind::kSpan) {
      os << R"(  {"ph":"X","pid":)" << pid << R"(,"tid":)" << tb.tid << R"(,"cat":")";
      json_escape(os, ev.cat);
      os << R"(","name":")";
      json_escape(os, ev.name);
      os << R"(","ts":)";
      write_us(os, ev.ts_ns);
      os << R"(,"dur":)";
      write_us(os, ev.dur_ns);
      if (ev.arg_key != nullptr) {
        os << R"(,"args":{")";
        json_escape(os, ev.arg_key);
        os << R"(":)" << ev.arg_val << '}';
      }
      os << '}';
    } else {
      os << R"(  {"ph":"C","pid":)" << pid << R"(,"tid":)" << tb.tid << R"(,"name":")";
      json_escape(os, ev.name);
      os << R"(","ts":)";
      write_us(os, ev.ts_ns);
      os << R"(,"args":{"value":)" << ev.arg_val << "}}";
    }
  });
  if (!first) os << '\n';
}

// ---- exit dump --------------------------------------------------------------

void dump_at_exit() {
  Registry& r = registry();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    path = r.trace_path;
  }
  if (path.empty()) return;
  if (write_trace(path)) {
    std::fprintf(stderr, "peachy::obs: trace written to %s\n", path.c_str());
  }
  const std::string summary = summary_text();
  if (!summary.empty()) {
    std::fprintf(stderr, "peachy::obs summary\n%s", summary.c_str());
  }
}

bool init_from_env() {
  const char* path = std::getenv("PEACHY_TRACE");
  if (path == nullptr || *path == '\0') return true;
  const int rank = launched_rank();
  enable(rank >= 0 ? std::string{path} + ".rank" + std::to_string(rank) : std::string{path});
  return true;
}

// Dynamic initializer: reads PEACHY_TRACE once, before main in practice
// (and harmlessly on first odr-use otherwise).
const bool g_env_inited = init_from_env();

}  // namespace

// ---- public surface ---------------------------------------------------------

std::uint64_t now_ns() noexcept {
  // Pin the origin before sampling: on the very first call the origin is
  // initialized *during* this function, and sampling the clock first
  // would underflow (steady < origin) into a huge bogus timestamp.
  const std::uint64_t origin = origin_ns();
  const std::uint64_t t = steady_ns();
  return t >= origin ? t - origin : 0;
}

void enable(const std::string& path) {
  (void)g_env_inited;
  origin_ns();  // pin the clock origin before any event
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    if (!path.empty()) {
      static std::once_flag once;
      std::call_once(once, [] { std::atexit(dump_at_exit); });
      r.trace_path = path;
    }
  }
  detail::g_enabled.store(true, std::memory_order_release);
}

void disable() noexcept {
  detail::g_enabled.store(false, std::memory_order_release);
}

void reset() {
  Registry& r = registry();
  r.watermark.store(now_ns(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : r.histograms) {
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
    h->max_.store(0, std::memory_order_relaxed);
  }
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Counter*& slot = r.counters[name];
  if (slot == nullptr) slot = new Counter;  // leaked with the registry
  return *slot;
}

std::int64_t counter_value(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second->value();
}

void Histogram::note(std::uint64_t v) noexcept {
  // Bucket b holds values in [2^(b-1), 2^b); v==0 lands in bucket 0.
  std::size_t b = 0;
  for (std::uint64_t x = v; x != 0; x >>= 1) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < v &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::percentile_upper_bound(double p) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > rank || seen == total) {
      return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    }
  }
  return max();
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Histogram*& slot = r.histograms[name];
  if (slot == nullptr) slot = new Histogram;  // leaked with the registry
  return *slot;
}

const char* intern_name(const std::string& name) {
  // Events store raw char pointers; an interned copy lives as long as the
  // (leaked) registry, so names built from short-lived strings stay
  // readable by the atexit exporter.  std::set nodes never move.
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.interned_names.insert(name).first->c_str();
}

void gauge(const char* name, std::int64_t value) {
  if (!enabled()) return;
  Event ev{};
  ev.kind = Event::Kind::kGauge;
  ev.cat = "";
  ev.name = name;
  ev.arg_key = nullptr;
  ev.ts_ns = now_ns();
  ev.dur_ns = 0;
  ev.arg_val = value;
  record(ev);
}

SpanScope::~SpanScope() {
  if (!active_) return;
  Event ev{};
  ev.kind = Event::Kind::kSpan;
  ev.cat = cat_;
  ev.name = name_;
  ev.arg_key = arg_key_;
  ev.ts_ns = begin_ns_;
  ev.dur_ns = now_ns() - begin_ns_;
  ev.arg_val = arg_val_;
  record(ev);
}

bool write_trace(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "peachy::obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << "{\n\"schema\": \"peachy-trace/1\",\n\"displayTimeUnit\": \"ms\",\n"
         "\"traceEvents\": [\n";
  write_trace_events(out);
  out << "],\n\"counters\": {";
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    bool first = true;
    for (const auto& [name, c] : r.counters) {
      if (!first) out << ',';
      first = false;
      out << "\n  \"";
      json_escape(out, name.c_str());
      out << "\": " << c->value();
    }
    out << (first ? "" : "\n") << "},\n\"histograms\": {";
    first = true;
    for (const auto& [name, h] : r.histograms) {
      if (!first) out << ',';
      first = false;
      out << "\n  \"";
      json_escape(out, name.c_str());
      out << "\": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
          << ", \"max\": " << h->max()
          << ", \"p50_ub\": " << h->percentile_upper_bound(0.50)
          << ", \"p99_ub\": " << h->percentile_upper_bound(0.99) << '}';
    }
    out << (first ? "" : "\n") << "}\n}\n";
  }
  return out.good();
}

std::string summary_text() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::ostringstream os;
  for (const auto& [name, c] : r.counters) {
    if (c->value() != 0) os << "  " << name << " = " << c->value() << '\n';
  }
  for (const auto& [name, h] : r.histograms) {
    if (h->count() == 0) continue;
    os << "  " << name << ": n=" << h->count()
       << " mean=" << (h->sum() / h->count()) << "ns"
       << " p50<=" << h->percentile_upper_bound(0.50) << "ns"
       << " p99<=" << h->percentile_upper_bound(0.99) << "ns"
       << " max=" << h->max() << "ns\n";
  }
  std::uint64_t dropped = 0;
  for (const ThreadBuffer* tb : r.buffers) {
    dropped += tb->dropped.load(std::memory_order_relaxed);
  }
  if (dropped != 0) os << "  (dropped " << dropped << " events: buffer cap)\n";
  return os.str();
}

std::vector<EventView> snapshot_events() {
  std::vector<EventView> out;
  for_each_event([&](const ThreadBuffer& tb, const Event& ev) {
    EventView v;
    v.kind = ev.kind == Event::Kind::kSpan ? EventView::Kind::kSpan
                                           : EventView::Kind::kGauge;
    v.tid = tb.tid;
    v.cat = ev.cat;
    v.name = ev.name;
    v.ts_ns = ev.ts_ns;
    v.dur_ns = ev.dur_ns;
    v.arg_key = ev.arg_key == nullptr ? "" : ev.arg_key;
    v.arg_val = ev.arg_val;
    out.push_back(std::move(v));
  });
  return out;
}

}  // namespace peachy::obs
