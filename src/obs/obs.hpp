#pragma once
/// \file obs.hpp
/// \brief peachy::obs — the tracing + metrics layer.
///
/// The paper's assignments are graded on *observed* parallel behaviour —
/// where time goes, how many messages move, how long tasks wait — so every
/// substrate in peachy is instrumented with this layer:
///
///   * **Spans**: nestable timed scopes (`SpanScope`) recorded into
///     per-thread lock-free buffers and exported as Chrome `trace_event`
///     JSON, viewable in `chrome://tracing` or https://ui.perfetto.dev.
///   * **Counters**: named monotonic totals (`counter("mpi.messages")`)
///     summarized as plain text at exit and embedded in the trace JSON.
///   * **Gauges**: timestamped value samples (`gauge(name, v)`) that
///     render as counter tracks in the trace (e.g. mailbox queue depth).
///   * **Histograms**: log2-bucketed distributions (`histogram(name)`)
///     for latency-shaped quantities (task dwell time); the summary
///     reports approximate p50/p99/max.
///
/// **Gating.**  The layer is always compiled and enabled by the
/// environment variable `PEACHY_TRACE=<file>` (trace JSON is written to
/// `<file>` at process exit, the counter summary to stderr), or
/// programmatically via `enable()` for tests.  A rank process of a
/// launched world (`PEACHY_RANK=<n>` in its environment, set by
/// mpi::launch) writes `<file>.rank<n>` instead, with trace pid `n`, so
/// the processes of one world never overwrite each other's trace.  When disabled, every hook
/// costs one relaxed atomic load — measured at <2% on `bench_kernels`
/// (scripts/check.sh `obs-smoke` guards this).
///
/// **Buffer design.**  Each thread appends events to its own chain of
/// fixed-size blocks; the block's event count is published with a release
/// store and readers (the exit dump, `snapshot_events`) walk the chain
/// with acquire loads — single-writer/single-reader publication with no
/// locks on the hot path.  Buffers are owned by a process-lifetime
/// registry, so threads may exit before the dump.  A per-thread event cap
/// (~1M) bounds memory; overflow is counted, never blocks.
///
/// This module is self-contained (no peachy dependencies) so every other
/// module — including support itself — can hook into it.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace peachy::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The hook gate: one relaxed load.  Every instrumentation site checks
/// this before touching anything else.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Nanoseconds since the trace clock's origin (process start, roughly).
/// Monotonic; shared by every event so spans from different threads align.
[[nodiscard]] std::uint64_t now_ns() noexcept;

// ---- control surface --------------------------------------------------------

/// Enable recording.  With a non-empty `path`, the trace JSON is written
/// there at process exit (the `PEACHY_TRACE=<file>` env var does exactly
/// this before main); with an empty path nothing is dumped automatically
/// — tests call `write_trace` themselves.
void enable(const std::string& path = {});

/// Stop recording (buffers and counters are retained for inspection).
void disable() noexcept;

/// Write everything recorded so far as Chrome trace-event JSON
/// (schema "peachy-trace/1").  Returns false (and prints to stderr) if
/// the file cannot be written.  Safe while other threads keep tracing.
bool write_trace(const std::string& path);

/// Plain-text rendering of every counter and histogram (the exit summary).
[[nodiscard]] std::string summary_text();

/// Test isolation: zero all counters/histograms and exclude previously
/// recorded events from future snapshots/dumps (a timestamp watermark —
/// buffers are not touched, so concurrent tracing threads are safe).
void reset();

// ---- counters ---------------------------------------------------------------

/// A named monotonic total.  Obtain via `counter(name)` once (e.g. a
/// function-local static reference) and `add` on the hot path.
class Counter {
 public:
  void add(std::int64_t delta) noexcept { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend void reset();
  std::atomic<std::int64_t> v_{0};
};

/// Registry lookup (creates on first use; the reference is stable for the
/// process lifetime).  Look up once per call site, not per event.
[[nodiscard]] Counter& counter(const std::string& name);

/// Current value of a named counter (0 if never registered).
[[nodiscard]] std::int64_t counter_value(const std::string& name);

// ---- histograms -------------------------------------------------------------

/// Log2-bucketed distribution: bucket b counts values in [2^(b-1), 2^b).
/// Percentiles are reported as the upper bound of the bucket where the
/// cumulative count crosses — exact enough for latency tails.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void note(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Upper bound (a power of two) of the bucket holding the p-quantile,
  /// p in [0,1].  0 when empty.
  [[nodiscard]] std::uint64_t percentile_upper_bound(double p) const noexcept;

 private:
  friend void reset();
  friend std::string summary_text();
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

[[nodiscard]] Histogram& histogram(const std::string& name);

// ---- gauges -----------------------------------------------------------------

/// Record a timestamped value sample (a Chrome "C" counter event).  The
/// name must outlive the trace — a string literal, or a pointer obtained
/// from intern_name().
void gauge(const char* name, std::int64_t value);

/// Return a process-lifetime copy of `name` (interned in the leaked
/// registry, deduplicated).  Use for dynamically built event names —
/// e.g. a per-mailbox gauge name — so the pointer stays valid after the
/// object that built the string is destroyed.  Takes a lock; call once
/// at setup, not per event.
[[nodiscard]] const char* intern_name(const std::string& name);

// ---- spans ------------------------------------------------------------------

/// RAII timed scope.  Records one Chrome complete ("X") event on
/// destruction: category + name + begin/duration, with an optional single
/// integer argument (payload bytes, iteration count, blocked time…).
/// `cat`/`name`/`arg_key` must be string literals (or otherwise outlive
/// the trace).  When tracing is disabled the constructor is one relaxed
/// load and the destructor a plain branch.
class SpanScope {
 public:
  SpanScope(const char* cat, const char* name) noexcept
      : SpanScope{cat, name, nullptr, 0} {}
  SpanScope(const char* cat, const char* name, const char* arg_key,
            std::int64_t arg_val) noexcept
      : cat_{cat}, name_{name}, arg_key_{arg_key}, arg_val_{arg_val}, active_{enabled()} {
    if (active_) begin_ns_ = now_ns();
  }
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Set (or overwrite) the argument after construction — for values only
  /// known at scope end, e.g. time spent blocked inside the span.
  void arg(const char* key, std::int64_t value) noexcept {
    arg_key_ = key;
    arg_val_ = value;
  }

 private:
  const char* cat_;
  const char* name_;
  const char* arg_key_;
  std::int64_t arg_val_;
  bool active_;
  std::uint64_t begin_ns_ = 0;
};

// ---- structured introspection (tests) ---------------------------------------

/// One recorded event, resolved for inspection.
struct EventView {
  enum class Kind { kSpan, kGauge };
  Kind kind;
  std::uint32_t tid;       ///< trace-local thread id (registration order)
  std::string cat;         ///< span category ("" for gauges)
  std::string name;
  std::uint64_t ts_ns;     ///< begin (spans) / sample time (gauges)
  std::uint64_t dur_ns;    ///< spans only
  std::string arg_key;     ///< "" when absent
  std::int64_t arg_val;    ///< gauge value, or span argument
};

/// Every event recorded since the last reset(), in per-thread order.
[[nodiscard]] std::vector<EventView> snapshot_events();

}  // namespace peachy::obs
