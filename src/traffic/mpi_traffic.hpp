#pragma once
/// \file mpi_traffic.hpp
/// \brief Distributed-memory Nagel–Schreckenberg (paper §5's variation:
/// "Students could implement a distributed-memory parallel code using
/// MPI").
///
/// The classic first distributed solution: state is replicated (every
/// rank holds the full position/velocity arrays from the previous step's
/// exchange), *computation* is distributed — each rank updates only its
/// static block of canonical car indices, fast-forwarding the shared LCG
/// stream to its block's first draw (the same reproducibility discipline
/// as the shared-memory version).  A ring allgather then rebuilds the
/// replicated state for the next step.  Compute is Θ(N/P) per rank per
/// step; communication is Θ(N) per step — the trade-off students are
/// asked to discover and discuss (and the stepping stone to a halo-only
/// design).
///
/// Output is bit-identical to run_serial for ANY rank count.

#include "faults/checkpoint.hpp"
#include "mpi/mpi.hpp"
#include "traffic/traffic.hpp"

namespace peachy::traffic {

/// Telemetry for the distributed run.  The run's message and byte counts
/// are the TrafficStats mpi::run returns.
struct MpiTrafficStats {
  std::uint64_t fast_forwards = 0;  ///< PRNG cursor jumps issued by this rank
};

/// Run `steps` steps with computation distributed over the communicator.
/// Every rank returns the full final state, bit-identical to
/// run_serial(spec, steps).  `stats`, if non-null, is filled by the
/// calling rank — pass a rank-local object, never one shared across rank
/// lambdas (data race).
///
/// When `ft.active()`, rank 0 snapshots {step, pos, vel} into `ft.store`
/// every `ft.every` steps, and a run that finds an existing snapshot under
/// `ft.key` resumes from it instead of step 0.  Because the PRNG cursor is
/// absolute in (step, car index), a resumed run is bit-identical to an
/// uninterrupted one for ANY rank count — this is the property
/// examples/fault_demo verifies after a crash + shrink + restart cycle.
[[nodiscard]] State run_mpi(mpi::Comm& comm, const Spec& spec, std::size_t steps,
                            MpiTrafficStats* stats = nullptr,
                            const faults::FtOptions& ft = {});

}  // namespace peachy::traffic
