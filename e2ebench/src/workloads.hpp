#pragma once
/// \file workloads.hpp
/// \brief The four end-to-end workloads: one assignment instance each,
/// solved by its parallel configuration and by its serial reference.

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
#include "pipeline/pipeline.hpp"
#include "stats.hpp"

namespace e2e {

/// Every workload uses this many workers (rank threads or spark
/// workers).  With the wire's pump thread that makes four busy threads,
/// the host's nproc.
inline constexpr int kWorkers = 3;

/// An output that failed its check (an operation that throws for another
/// reason counts as failed instead).
struct WrongAnswer : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One timed parallel solve and what it reports besides its answer.
struct Solve {
  double seconds = 0.0;                   ///< the call that builds the world or context, to the answer
  peachy::mpi::TrafficStats traffic{};    ///< mpi::run's whole-run totals (MPI workloads)
  std::vector<peachy::pipeline::StageTiming> stages;  ///< crime only
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the instance from `seed` with the program's own generators,
  /// plus the references the checks compare with.
  virtual void generate(std::uint64_t seed) = 0;

  /// One solve by the parallel configuration; checks the answer (throws
  /// WrongAnswer).  The check is not timed.
  virtual Solve solve() = 0;

  /// One solve by the assignment's plain single-threaded reference, checked
  /// likewise; returns its seconds.
  virtual double solve_serial() = 0;

  /// Serial solves attempted per round.
  [[nodiscard]] virtual int serials_per_round() const { return 1; }

  /// A solve that fails every time because of a known program fault, on
  /// inputs that do not depend on the seed; attempted once per round, in a
  /// child process (`e2ebench --known-failure <name>`) that calls
  /// known_failure() without generate(), so its instance counts in
  /// neither setup_s nor peak_rss_mb.
  [[nodiscard]] virtual bool has_known_failure() const { return false; }
  virtual void known_failure() {}

  /// Traced run only: time the benchmark's own calls into single layers on
  /// this instance, adding one metric per probe.
  virtual void probes(std::map<std::string, Metric>& out) = 0;

  /// Traced run only: a workload left out of BENCHMARK.json whose layers
  /// this workload's traced run also measures, or nullptr.
  [[nodiscard]] virtual std::unique_ptr<Workload> companion() const { return nullptr; }
};

/// The workload called `name`, or nullptr.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace e2e
