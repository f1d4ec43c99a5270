/// \file exp_knn_mapreduce.cpp
/// \brief Experiment T-kNN-3 (paper §2): the communication-cost ablation.
///
/// "It also shows how architectural knowledge can help design faster
/// code since adding local reductions at each rank and again at each
/// multicore node noticeably improves the communication cost."
///
/// The harness classifies the same instance three ways — naive all-pairs
/// emission, per-task top-k pre-selection, and rank-level local combine —
/// and reports pairs/bytes entering the shuffle plus mini-MPI messages.

#include <iostream>

#include "data/points.hpp"
#include "knn/knn.hpp"
#include "knn/mapreduce_knn.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  peachy::support::Cli cli{argc, argv};
  const auto n = cli.get<std::size_t>("n", 2000, "database points");
  const auto q = cli.get<std::size_t>("q", 300, "query points");
  const auto d = cli.get<std::size_t>("d", 10, "dimensions");
  const auto k = cli.get<std::size_t>("k", 5, "neighbors");
  const auto seed = cli.get<std::uint64_t>("seed", 9, "seed");
  cli.finish();

  peachy::data::BlobsSpec spec;
  spec.classes = 4;
  spec.points_per_class = n / 4;
  spec.dims = d;
  spec.spread = 1.5;
  spec.seed = seed;
  const auto db = peachy::data::gaussian_blobs(spec);
  const auto queries = peachy::data::uniform_points(q, d, -12, 12, seed + 1);

  peachy::knn::ClassifyOptions serial_opts;
  serial_opts.k = k;
  const auto reference = peachy::knn::classify(db, queries, serial_opts);

  std::cout << "T-kNN-3 — MapReduce kNN shuffle volume (n=" << db.size() << ", q=" << q
            << ", d=" << d << ", k=" << k << "):\n\n";

  peachy::support::Table table;
  table.header({"ranks", "emission", "pairs shuffled", "bytes shuffled", "messages",
                "ms", "== serial"});

  for (const int ranks : {2, 4, 8}) {
    struct Mode {
      const char* name;
      peachy::knn::EmitMode emit;
      bool combine;
    };
    const Mode modes[] = {
        {"all pairs (naive)", peachy::knn::EmitMode::kAllPairs, false},
        {"top-k per task", peachy::knn::EmitMode::kTopKPerTask, false},
        {"top-k + rank combine", peachy::knn::EmitMode::kTopKPerTask, true},
    };
    for (const Mode& mode : modes) {
      peachy::knn::MrKnnOptions opts;
      opts.k = k;
      opts.map_tasks = static_cast<std::size_t>(ranks) * 2;
      opts.emit = mode.emit;
      opts.local_combine = mode.combine;
      peachy::knn::MrKnnStats stats;
      std::vector<std::int32_t> pred;
      peachy::support::Stopwatch sw;
      const peachy::mpi::TrafficStats traffic =
          peachy::mpi::run(ranks, [&](peachy::mpi::Comm& comm) {
            peachy::knn::MrKnnStats local;  // stats are rank-local
            auto got = peachy::knn::mapreduce_classify(comm, db, queries, opts, &local);
            if (comm.rank() == 0) {
              pred = std::move(got);
              stats = local;
            }
          });
      table.row({static_cast<std::int64_t>(ranks), std::string{mode.name},
                 static_cast<std::int64_t>(stats.pairs_shuffled),
                 static_cast<std::int64_t>(stats.bytes_shuffled),
                 static_cast<std::int64_t>(traffic.messages), sw.elapsed_ms(),
                 std::string{pred == reference ? "yes" : "NO"}});
    }
  }
  table.print();
  std::cout << "\nexpected shape: each local-reduction level cuts shuffled pairs by an\n"
               "order of magnitude (n/task -> k/task -> k/rank per query) with\n"
               "identical predictions — the paper's \"noticeably improves the\n"
               "communication cost\".\n";
  return 0;
}
