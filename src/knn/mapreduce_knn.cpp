#include "knn/mapreduce_knn.hpp"

#include <algorithm>
#include <cstdio>

#include "knn/knn.hpp"
#include "support/check.hpp"
#include "support/parallel_for.hpp"

namespace peachy::knn {

namespace {

/// Value payload of a candidate pair.
struct Candidate {
  double dist2;
  std::uint32_t index;
  std::int32_t label;
};

/// Fixed-width query key so lexicographic ordering equals numeric ordering
/// (gather returns key-sorted pairs).
std::string query_key(std::size_t qi) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "q%010zu", qi);
  return buf;
}

Neighbor to_neighbor(const Candidate& c) { return {c.dist2, c.index, c.label}; }

/// Keep the k best candidates of a value list (by (dist2, index)).
void keep_k_best(std::vector<Neighbor>& nbs, std::size_t k) {
  std::sort(nbs.begin(), nbs.end());
  if (nbs.size() > k) nbs.resize(k);
}

}  // namespace

std::vector<std::int32_t> mapreduce_classify(mpi::Comm& comm, const data::LabeledPoints& db,
                                             const data::PointSet& queries,
                                             const MrKnnOptions& opts, MrKnnStats* stats) {
  PEACHY_CHECK(opts.k >= 1, "mr-knn: k must be at least 1");
  PEACHY_CHECK(opts.map_tasks >= 1, "mr-knn: need at least one map task");
  PEACHY_CHECK(db.size() > 0, "mr-knn: empty database");
  PEACHY_CHECK(queries.dims() == db.dims(), "mr-knn: dimension mismatch");

  mapreduce::MapReduce mr{comm};

  // Map: each task owns a chunk of the database and emits candidate
  // neighbors for every query.
  mr.map(opts.map_tasks, [&](std::size_t task, mapreduce::KvEmitter& out) {
    const auto chunk = support::static_block(db.size(), opts.map_tasks, task);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto q = queries.point(qi);
      if (opts.emit == EmitMode::kAllPairs) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          out.emit_record(query_key(qi),
                          Candidate{db.points.squared_distance(i, q),
                                    static_cast<std::uint32_t>(i), db.labels[i]});
        }
      } else {
        // Local reduction at task level: only the chunk's k best leave.
        std::vector<Neighbor> best;
        best.reserve(opts.k + 1);
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const Neighbor cand{db.points.squared_distance(i, q),
                              static_cast<std::uint32_t>(i), db.labels[i]};
          if (best.size() < opts.k) {
            best.push_back(cand);
            std::push_heap(best.begin(), best.end());
          } else if (cand < best.front()) {
            std::pop_heap(best.begin(), best.end());
            best.back() = cand;
            std::push_heap(best.begin(), best.end());
          }
        }
        for (const Neighbor& nb : best) {
          out.emit_record(query_key(qi), Candidate{nb.dist2, nb.index, nb.label});
        }
      }
    }
  });

  // Optional rank-level local reduction before the shuffle.
  if (opts.local_combine) {
    mr.combine([&](const std::string& key, std::span<const std::string> values,
                   mapreduce::KvEmitter& out) {
      std::vector<Neighbor> nbs;
      nbs.reserve(values.size());
      for (const auto& v : values) nbs.push_back(to_neighbor(mapreduce::unpack_record<Candidate>(v)));
      keep_k_best(nbs, opts.k);
      for (const Neighbor& nb : nbs) {
        out.emit_record(key, Candidate{nb.dist2, nb.index, nb.label});
      }
    });
  }

  mr.collate();

  // Reduce: global k nearest per query, majority vote.
  mr.reduce([&](const std::string& key, std::span<const std::string> values,
                mapreduce::KvEmitter& out) {
    std::vector<Neighbor> nbs;
    nbs.reserve(values.size());
    for (const auto& v : values) nbs.push_back(to_neighbor(mapreduce::unpack_record<Candidate>(v)));
    keep_k_best(nbs, opts.k);
    out.emit_record<std::int32_t>(key, majority_vote(nbs));
  });

  if (stats != nullptr) {
    stats->pairs_shuffled = mr.shuffle_stats().pairs_before;
    stats->bytes_shuffled = mr.shuffle_stats().bytes_sent;
  }

  // Gather predictions at root.  gather() sorts within each rank only, so
  // sort globally by the fixed-width query key to recover query order.
  auto pairs = mr.gather(0);
  std::vector<std::int32_t> labels;
  if (comm.rank() == 0) {
    PEACHY_CHECK(pairs.size() == queries.size(), "mr-knn: missing query predictions");
    std::sort(pairs.begin(), pairs.end());
    labels.reserve(pairs.size());
    for (const auto& kv : pairs) labels.push_back(mapreduce::unpack_record<std::int32_t>(kv.value));
  }
  comm.broadcast(labels, 0);
  return labels;
}

}  // namespace peachy::knn
