// Rank program for ObsTrace.LaunchedRanksWriteOneTraceEach (test_obs.cpp):
// mpi::launch starts one process per rank, and each runs its rank of the
// world — an allreduce and a barrier — so PEACHY_TRACE has spans to write.

#include <functional>

#include "mpi/launch.hpp"
#include "mpi/mpi.hpp"

int main() {
  namespace pm = peachy::mpi;
  const pm::LaunchInfo& li = pm::launch_info();
  if (!li.launched) return 2;
  pm::run(li.nranks, [](pm::Comm& c) {
    (void)c.allreduce_value<int>(c.rank(), std::plus<>{});
    c.barrier();
  });
  return 0;
}
