#include <cstdlib>
#include <thread>

#include "faults/plan.hpp"
#include "mpi/launch.hpp"
#include "mpi/mpi.hpp"

namespace peachy::mpi {

namespace {

/// Process-wide default op deadline from `PEACHY_MPI_TIMEOUT_MS` (0 = none).
std::uint64_t env_timeout_ns() {
  static const std::uint64_t v = [] {
    const char* e = std::getenv("PEACHY_MPI_TIMEOUT_MS");
    if (e == nullptr || *e == '\0') return std::uint64_t{0};
    return static_cast<std::uint64_t>(std::strtoull(e, nullptr, 10) * 1'000'000ULL);
  }();
  return v;
}

/// Which backend this run actually uses.  Inside a launched world the
/// launcher's wire is law — every process must speak the same transport,
/// so a conflicting explicit request is a named error, not a preference
/// fight.  Outside, RunOptions wins over PEACHY_TRANSPORT.
TransportKind resolve_transport(const RunOptions& opts) {
  const LaunchInfo& li = launch_info();
  if (li.launched) {
    PEACHY_CHECK(opts.transport == TransportKind::kDefault || opts.transport == li.kind,
                 "run: this process was launched over the '" +
                     std::string{transport_name(li.kind)} +
                     "' transport and cannot switch to '" +
                     std::string{transport_name(opts.transport)} + "'");
    return li.kind;
  }
  if (opts.transport != TransportKind::kDefault) return opts.transport;
  return transport_from_env();
}

TrafficStats run_impl(int nranks, const RunOptions& opts,
                      const std::function<void(Comm&)>& fn, analysis::Report* out) {
  PEACHY_CHECK(nranks >= 1, "run: need at least one rank");
  PEACHY_CHECK(fn != nullptr, "run: null rank function");
  const TransportKind kind = resolve_transport(opts);
  const LaunchInfo& li = launch_info();
  const bool spans = li.launched && li.nranks > 1;
  // The checker observes every rank's events through shared memory; a
  // multi-process world feeds it only this process's slice, so every
  // diagnosis would be a guess.  Launched runs must check in a separate
  // single-process execution (same seed, same answer — that equivalence
  // is what the cross-backend conformance suite pins down).
  PEACHY_CHECK(!spans || opts.check == analysis::CheckLevel::off,
               "run: the correctness checker requires all ranks in one process; "
               "rerun unlaunched (or with check=off) instead");
  const faults::FaultPlan* plan =
      opts.plan != nullptr ? opts.plan : faults::FaultPlan::from_env();
  // Wire-scoped events live at the transport send boundary, below the
  // Machine — arm (or disarm) the process-global injector for this run.
  faults::wire::configure(plan);
  const std::uint64_t timeout_ns =
      opts.op_timeout_ns > 0 ? opts.op_timeout_ns : env_timeout_ns();
  detail::Machine machine{nranks, opts.check, plan, timeout_ns, opts.coll_algos, kind};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < nranks; ++r) {
    // In a launched world each process hosts exactly its own rank; the
    // other ranks' threads run in their own processes.
    if (!machine.is_local(r)) continue;
    threads.emplace_back([&machine, &fn, &err_mu, &first_error, r] {
      Comm comm{machine, r};
      try {
        fn(comm);
        machine.note_exit(r);
      } catch (const faults::RankKilled&) {
        // Injected crash: the rank is already marked failed, its peers see
        // RankFailedError, and the machine keeps running — the survivors'
        // recovery (or failure to recover) is the run's outcome.
      } catch (const std::exception& e) {
        {
          std::lock_guard lock{err_mu};
          if (!first_error) first_error = std::current_exception();
        }
        machine.abort("rank " + std::to_string(r) + " threw: " + e.what());
      } catch (...) {
        {
          std::lock_guard lock{err_mu};
          if (!first_error) first_error = std::current_exception();
        }
        machine.abort("rank " + std::to_string(r) + " threw");
      }
    });
  }
  for (auto& t : threads) t.join();

  if (opts.fault_log != nullptr) {
    *opts.fault_log =
        machine.injector() != nullptr ? machine.injector()->log_string() : std::string{};
    if (const faults::WireInjector* wi = faults::wire::injector(); wi != nullptr) {
      *opts.fault_log += wi->log_string();
    }
  }

  // With a failed rank, undelivered messages to/from it are the expected
  // debris of the crash, not program bugs — skip the leak scan (the
  // rank-failure warning finding already records what happened).  Same
  // for an active fault plan: injected dups create messages the program
  // never asked for, and drops/delays/stalls shift arrivals past
  // drain-by-probe loops, so leftovers indict the injection, not the
  // program.
  const bool injecting = plan != nullptr && !plan->empty();
  if (!machine.aborted() && !machine.any_failed() && !injecting) machine.scan_leaks();
  const analysis::Report report = machine.report();
  if (out != nullptr) *out = report;

  if (first_error) {
    // In checked mode a non-clean report *is* the outcome; secondary
    // "machine aborted" errors from the other ranks are just echoes.
    const bool captured = out != nullptr && !report.clean();
    if (!captured) std::rethrow_exception(first_error);
  } else if (out == nullptr && !report.clean()) {
    // Unchecked surface: exit-time findings (leaks) become hard failures.
    throw analysis::CheckFailure{report.to_string()};
  }
  return machine.stats();
}

}  // namespace

TrafficStats run(int nranks, const std::function<void(Comm&)>& fn, analysis::CheckLevel level) {
  RunOptions opts;
  opts.check = level;
  return run_impl(nranks, opts, fn, nullptr);
}

TrafficStats run(int nranks, const std::function<void(Comm&)>& fn, const RunOptions& opts) {
  return run_impl(nranks, opts, fn, nullptr);
}

CheckedRun run_checked(int nranks, const std::function<void(Comm&)>& fn,
                       analysis::CheckLevel level) {
  CheckedRun result;
  RunOptions opts;
  opts.check = level;
  result.stats = run_impl(nranks, opts, fn, &result.report);
  return result;
}

CheckedRun run_checked(int nranks, const std::function<void(Comm&)>& fn, RunOptions opts) {
  CheckedRun result;
  if (opts.check == analysis::CheckLevel::off) opts.check = analysis::CheckLevel::full;
  result.stats = run_impl(nranks, opts, fn, &result.report);
  return result;
}

}  // namespace peachy::mpi
