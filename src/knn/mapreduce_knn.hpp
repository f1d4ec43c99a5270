#pragma once
/// \file mapreduce_knn.hpp
/// \brief The assignment itself: kNN on MapReduce-MPI (paper §2).
///
/// "In a typical implementation, all processes load the query set since it
/// is assumed not to be large.  Then the database file is parsed in
/// parallel by multiple map tasks which compute distances and generate
/// (key: query, value: (distance, class)) pairs.  Then a reduction phase
/// takes the pairs for each query, extracts the nearest neighbors'
/// classes, and generates (key: query, value: predicted_class) pairs."
///
/// Emission modes reproduce the paper's communication-cost discussion:
///  * kAllPairs     — the naive student solution: one pair per
///                    (query, database point) — Θ(nq) shuffled pairs;
///  * kTopKPerTask  — each map task pre-selects its chunk's k nearest per
///                    query (a local reduction at task level);
/// and `local_combine` additionally merges each *rank's* pairs down to k
/// per query before the shuffle ("local reductions at each rank ...
/// noticeably improves the communication cost").

#include <cstdint>
#include <vector>

#include "data/points.hpp"
#include "mapreduce/mapreduce.hpp"
#include "mpi/mpi.hpp"

namespace peachy::knn {

/// How map tasks emit candidate neighbors.
enum class EmitMode { kAllPairs, kTopKPerTask };

/// Options for the distributed classifier.
struct MrKnnOptions {
  std::size_t k = 5;
  std::size_t map_tasks = 8;          ///< database chunks mapped in parallel
  EmitMode emit = EmitMode::kTopKPerTask;
  bool local_combine = false;         ///< rank-level pre-reduction before shuffle
};

/// Telemetry from one distributed classification.  The job's mini-MPI
/// message and byte counts are the TrafficStats mpi::run returns.
struct MrKnnStats {
  std::uint64_t pairs_shuffled = 0;   ///< pairs entering the shuffle (global)
  std::uint64_t bytes_shuffled = 0;   ///< serialized bytes crossing ranks
};

/// Classify `queries` against `db` using MapReduce over `comm`.
///
/// Every rank is assumed to hold `db` and `queries` (the paper's "all
/// processes load the query set"; the database would be parsed in
/// parallel from storage — here each map task reads its chunk of the
/// in-memory database, exercising the same access pattern).
///
/// Returns the predicted label per query *on every rank* (result is
/// broadcast), bit-identical to the serial heap classifier.
///
/// `stats`, if non-null, is filled by the calling rank — pass a
/// rank-local object, never one shared across rank lambdas (data race).
[[nodiscard]] std::vector<std::int32_t> mapreduce_classify(mpi::Comm& comm,
                                                           const data::LabeledPoints& db,
                                                           const data::PointSet& queries,
                                                           const MrKnnOptions& opts,
                                                           MrKnnStats* stats = nullptr);

}  // namespace peachy::knn
