/// \file main.cpp
/// \brief e2ebench: one end-to-end assignment workload in one process.
///
///   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
///   e2ebench --known-failure <name>     (started by the run itself)
///
/// An untraced run (--trace 0) sets the workload up kSetups times, reads
/// peak_rss_mb, then attempts whole rounds — one parallel solve, the
/// workload's serial solves, and its known-failure solve if it has one, in
/// a child process — until --seconds have passed, checking every answer.
/// It reports solve_s, serial_s, setup_s and peak_rss_mb.  A traced run
/// (--trace 1) attempts the same rounds with peachy::obs enabled around the
/// parallel solves only, and reports the per-layer metrics.  The last line
/// of standard output is the JSON result; everything else goes to standard
/// error.

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "layers.hpp"
#include "obs/obs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using e2e::Metric;

constexpr int kSetups = 5;
/// Traced runs keep every event in memory (obs never frees them), so
/// they stop after this many traced solves even before --seconds.
constexpr std::size_t kMaxTracedSolves = 4;
/// Traced solves of a companion workload, and the layers taken from them.
constexpr std::size_t kCompanionSolves = 2;
constexpr std::array kCompanionLayers{"pool.", "spark.", "pipeline."};

/// Per-layer metrics that come from Workload::probes.
const std::map<std::string, std::string> kProbes{
    {"kernels.argmin_assign_s", "s"}, {"kernels.distance_rows_s", "s"},
    {"mpi.world_up_s", "s"},          {"mpi.allgather_us", "us"},
    {"mpi.allreduce_us", "us"},       {"mpi.alltoall_s", "s"},
    {"data.csv_parse_s", "s"},        {"geo.locate_s", "s"}};

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The statistic that summarises a run's repetitions (README: "Per-run
/// statistic").
double summarise(const std::vector<double>& reps) { return e2e::quantile(reps, 0.10); }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload kmeans_mpi_shm|traffic_mpi_shm|crime_spark|"
               "knn_mr_socket --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace" && (val == "0" || val == "1")) a.trace = val == "1";
      else usage("bad argument " + key + " " + val);
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + val);
    }
    seen.insert(key);
  }
  if (seen.size() != 4) usage("all four arguments are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Tallies of attempted operations.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::set<std::string> reported;

  /// Run one operation, counting it; false when it threw or answered wrong.
  template <typename Fn>
  bool attempt(const char* what, Fn&& fn) {
    ++attempted;
    try {
      fn();
      return true;
    } catch (const e2e::WrongAnswer& e) {
      correct = false;
      note(what, e.what());
    } catch (const std::exception& e) {
      ++failed;
      note(what, e.what());
    }
    return false;
  }

  void note(const char* what, const std::string& why) {
    if (reported.insert(std::string{what} + why).second) {
      std::cerr << "e2ebench: " << what << ": " << why << "\n";
    }
  }
};

/// Exit code of a known-failure child whose answer failed its check.
constexpr int kWrongAnswerExit = 3;

/// `e2ebench --known-failure <name>`: one known-failure solve; exit 0 when
/// it solved and passed its check, kWrongAnswerExit when it answered
/// wrong, 1 when it threw.
int known_failure_child(const std::string& name) {
  auto workload = e2e::make_workload(name);
  if (!workload || !workload->has_known_failure()) usage("no known failure in " + name);
  try {
    workload->known_failure();
  } catch (const e2e::WrongAnswer& e) {
    std::cerr << e.what() << "\n";
    return kWrongAnswerExit;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}

/// Run `e2ebench --known-failure <name>` and wait for it; throws what the
/// child reported on standard error when it did not solve correctly.
void known_failure_in_child(const std::string& name) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error{"cannot find the e2ebench executable"};
  self[len] = '\0';
  std::string flag = "--known-failure", arg = name;
  char* child_argv[] = {self, flag.data(), arg.data(), nullptr};
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error{"pipe2 failed"};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self, &actions, nullptr, child_argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string err;
  char buf[4096];
  for (ssize_t n; rc == 0 && (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n > 0) err.append(buf, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error{"posix_spawn failed"};
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  while (!err.empty() && err.back() == '\n') err.pop_back();
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return;
  if (WIFEXITED(status) && WEXITSTATUS(status) == kWrongAnswerExit) throw e2e::WrongAnswer{err};
  throw std::runtime_error{err.empty() ? "known-failure child died" : err};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Per-layer metrics of the traced parallel solves (see README).
void layer_metrics(const std::vector<e2e::Solve>& solves, std::map<std::string, Metric>& m) {
  namespace obs = peachy::obs;
  const double n = static_cast<double>(solves.size());
  const std::string summary = obs::summary_text();
  const auto spans = e2e::span_self_times(obs::snapshot_events());
  const auto per_solve = [n](double total) { return total / n; };
  const auto counter = [&](const char* name) {
    return per_solve(static_cast<double>(obs::counter_value(name)));
  };
  const auto self_s = [&](const char* key) {
    const auto it = spans.find(key);
    return per_solve(it == spans.end() ? 0.0 : it->second.self_s);
  };
  const auto count = [&](const char* key) {
    const auto it = spans.find(key);
    return per_solve(it == spans.end() ? 0.0 : static_cast<double>(it->second.count));
  };

  m["kernels.calls"] = {per_solve(static_cast<double>(
                            e2e::counter_sum_with_prefix(summary, "kern."))), "count"};

  m["pool.tasks"] = {count("pool/task"), "count"};
  // Upper bound of the log2 bucket that holds the quantile.
  const auto dwell_us = [](double p) {
    return static_cast<double>(obs::histogram("pool.dwell_ns").percentile_upper_bound(p)) / 1e3;
  };
  m["pool.dwell_p50_us"] = {dwell_us(0.50), "us"};
  m["pool.dwell_p99_us"] = {dwell_us(0.99), "us"};
  m["pool.steals"] = {counter("pool.steals"), "count"};
  m["pool.idle_wakeups"] = {counter("pool.idle_wakeups"), "count"};

  double messages = 0, bytes = 0;
  for (const auto& s : solves) {
    messages += static_cast<double>(s.traffic.messages);
    bytes += static_cast<double>(s.traffic.bytes);
  }
  m["mpi.messages"] = {per_solve(messages), "count"};
  m["mpi.bytes"] = {per_solve(bytes), "B"};
  m["mpi.recv_blocked_s"] = {counter("mpi.recv_blocked_ns") / 1e9, "s"};
  m["mpi.bytes_copied"] = {counter("mpi.bytes_copied"), "B"};
  m["mpi.bytes_moved"] = {counter("mpi.bytes_moved"), "B"};
  m["mpi.pool.misses"] = {counter("mpi.pool.misses"), "count"};

  m["mpi.shm.futex_wait"] = {counter("mpi.transport.shm.futex_wait"), "count"};
  m["mpi.shm.futex_wake"] = {counter("mpi.transport.shm.futex_wake"), "count"};
  m["mpi.shm.spill_hits"] = {counter("mpi.transport.shm.spill_hits"), "count"};
  m["mpi.sock.frames"] = {counter("mpi.transport.sock.frames"), "count"};
  m["mpi.sock.writev"] = {counter("mpi.transport.sock.writev"), "count"};
  m["mpi.sock.reads"] = {counter("mpi.transport.sock.reads"), "count"};

  m["mr.shuffle_pairs"] = {counter("mr.shuffle_pairs"), "count"};
  m["mr.shuffle_bytes"] = {counter("mr.shuffle_bytes"), "B"};
  m["mr.map_s"] = {self_s("mr/map"), "s"};
  m["mr.collate_s"] = {self_s("mr/collate"), "s"};
  m["mr.reduce_s"] = {self_s("mr/reduce"), "s"};
  m["mr.gather_s"] = {self_s("mr/gather"), "s"};

  m["spark.tasks"] = {counter("spark.tasks"), "count"};
  m["spark.shuffles"] = {counter("spark.shuffles"), "count"};
  m["spark.shuffle_records"] = {counter("spark.shuffle_records"), "count"};
  m["spark.stage_s"] = {self_s("spark/stage"), "s"};
  m["spark.shuffle_s"] = {self_s("spark/shuffle"), "s"};
  const auto stage = [&](const char* name) {
    std::vector<double> t;
    for (const auto& s : solves) {
      for (const auto& st : s.stages) {
        if (st.name == name) t.push_back(st.seconds);
      }
    }
    return t.empty() ? 0.0 : e2e::median(t);
  };
  m["pipeline.ingest_s"] = {stage("ingest"), "s"};
  m["pipeline.spatial_join_s"] = {stage("spatial-join"), "s"};
  m["pipeline.borough_year_trend_s"] = {stage("borough-year-trend"), "s"};

  m["obs.dropped_events"] = {static_cast<double>(e2e::dropped_events(summary)), "count"};
}

/// The layers of an ungated workload, measured in a gated workload's
/// traced run (README: "Per-layer metrics"): its probes, then
/// kCompanionSolves traced parallel solves of its own instance, from which
/// the kCompanionLayers metrics are taken.  Part of the traced run's set-up:
/// throws when a solve fails or answers wrong.
void companion_layers(e2e::Workload& w, std::uint64_t seed, std::map<std::string, Metric>& m) {
  w.generate(seed);
  w.probes(m);
  peachy::obs::reset();
  std::vector<e2e::Solve> solves;
  for (std::size_t i = 0; i < kCompanionSolves; ++i) {
    peachy::obs::enable();
    solves.push_back(w.solve());
    peachy::obs::disable();
  }
  std::map<std::string, Metric> theirs;
  layer_metrics(solves, theirs);
  for (const auto& [name, metric] : theirs) {
    for (const char* prefix : kCompanionLayers) {
      if (name.starts_with(prefix)) m[name] = metric;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string{argv[1]} == "--known-failure") return known_failure_child(argv[2]);
  const Args args = parse(argc, argv);
  auto workload = e2e::make_workload(args.workload);
  if (!workload) usage("unknown workload " + args.workload);

  Tally tally;
  std::map<std::string, Metric> metrics;
  std::vector<double> setups;
  const auto setup = [&] {
    workload = e2e::make_workload(args.workload);
    workload->generate(args.seed);
    const e2e::Solve warm = workload->solve();  // warm-up, checked
    (void)warm;
  };
  try {
    if (args.trace) {
      setup();
      workload->probes(metrics);
      if (auto other = workload->companion()) companion_layers(*other, args.seed, metrics);
    } else {
      for (int i = 0; i < kSetups; ++i) {
        // A fresh object each time, the last one's memory handed back to
        // the system first, so the peak holds one set-up's instance rather
        // than what the allocator keeps of several.
        workload.reset();
        malloc_trim(0);
        const double t0 = now_s();
        setup();
        setups.push_back(now_s() - t0);
      }
      // Read before the timed rounds, over which the allocator's per-thread
      // arenas keep a varying share of what the rank threads free
      // (README: "Workloads").
      metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    }
  } catch (const e2e::WrongAnswer& e) {
    std::cerr << "e2ebench: set-up answer is wrong: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: set-up failed: " << e.what() << "\n";
    return 1;
  }

  // Timed rounds.
  if (args.trace) {
    peachy::obs::reset();
  }
  std::vector<e2e::Solve> solves;
  std::vector<double> serials;
  const double start = now_s();
  do {
    if (args.trace) peachy::obs::enable();
    e2e::Solve s;
    const bool ok = tally.attempt("solve", [&] { s = workload->solve(); });
    if (args.trace) peachy::obs::disable();
    if (ok) solves.push_back(std::move(s));
    for (int i = 0; i < workload->serials_per_round(); ++i) {
      double serial = 0;
      if (tally.attempt("serial", [&] { serial = workload->solve_serial(); })) {
        serials.push_back(serial);
      }
    }
    if (workload->has_known_failure()) {
      tally.attempt("known-failure", [&] { known_failure_in_child(args.workload); });
    }
  } while (now_s() - start < args.seconds &&
           !(args.trace && solves.size() >= kMaxTracedSolves));

  if (solves.empty()) {
    std::cerr << "e2ebench: no solve succeeded\n";
    return 1;
  }
  std::vector<double> solve_s;
  for (const auto& s : solves) solve_s.push_back(s.seconds);
  if (args.trace) {
    std::map<std::string, Metric> own;
    layer_metrics(solves, own);
    metrics.insert(own.begin(), own.end());  // keeps the companion's layers
    // Probes a workload does not run read 0 (README: "Per-layer metrics").
    for (const auto& [name, unit] : kProbes) metrics.emplace(name, Metric{0.0, unit});
    metrics["trace.solve_s"] = {summarise(solve_s), "s"};
  } else {
    metrics["solve_s"] = {summarise(solve_s), "s"};
    metrics["serial_s"] = {summarise(serials), "s"};
    metrics["setup_s"] = {e2e::median(setups), "s"};
  }
  const auto list = [](const char* what, const std::vector<double>& v) {
    std::cerr << "e2ebench: " << v.size() << " " << what << " s:";
    for (const double x : v) std::cerr << " " << x;
    std::cerr << "\n";
  };
  list("setup", setups);
  list("solve", solve_s);
  list("serial", serials);
  std::cout << e2e::result_json(tally.correct, tally.attempted, tally.failed, metrics)
            << std::endl;
  return 0;
}
