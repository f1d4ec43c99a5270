#include "traffic/mpi_traffic.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::traffic {

State run_mpi(mpi::Comm& comm, const Spec& spec, std::size_t steps, MpiTrafficStats* stats,
              const faults::FtOptions& ft) {
  // Every rank derives the identical initial state (deterministic in the
  // seed), as if root had broadcast the input file.
  State st = initial_state(spec);
  const std::size_t n = st.pos.size();
  const auto p = static_cast<std::size_t>(comm.size());
  const auto me = static_cast<std::size_t>(comm.rank());
  const rng::SharedStream<rng::Lcg64> stream{spec.seed};
  const auto L = static_cast<std::int64_t>(spec.road_length);

  // Per-step working buffers, hoisted so the step loop allocates nothing:
  // the block partition is identical every step, and the velocity
  // exchange lands in a reused int32 staging vector.
  const auto blk = support::static_block(n, p, me);
  std::vector<std::int64_t> my_pos(blk.end - blk.begin);
  std::vector<std::int32_t> my_vel(blk.end - blk.begin);
  std::vector<std::int32_t> all_vel(n);

  // Restart: every rank reloads the same snapshot (the store is shared
  // memory), so the replicated state stays replicated.  The PRNG cursor is
  // absolute in (step, car), so resuming at `first` consumes exactly the
  // draws an uninterrupted run would — bit-identical for any rank count.
  std::size_t first = 0;
  if (ft.active()) {
    if (const auto snap = ft.store->load(ft.key)) {
      faults::BlobReader r{snap->blob};
      st.pos = r.get_vec<std::int64_t>();
      st.vel = r.get_vec<int>();
      PEACHY_CHECK(st.pos.size() == n && st.vel.size() == n,
                   "traffic restart: snapshot car count does not match the spec");
      first = static_cast<std::size_t>(snap->next_step);
      if (obs::enabled()) obs::counter("faults.restores").add(1);
    }
  }

  for (std::size_t s = first; s < steps; ++s) {
    if (blk.begin < blk.end) {
      auto gen = stream.cursor(static_cast<std::uint64_t>(s) * n + blk.begin);
      for (std::size_t i = blk.begin; i < blk.end; ++i) {
        const double draw = gen.next_double();
        int v = std::min(st.vel[i] + 1, spec.v_max);
        v = static_cast<int>(std::min<std::int64_t>(v, gap_ahead(spec, st, i)));
        if (draw < spec.p_slow && v > 0) --v;
        std::int64_t pos = st.pos[i] + v;
        if (pos >= L) pos -= L;
        my_pos[i - blk.begin] = pos;
        my_vel[i - blk.begin] = v;
      }
    }

    // Exchange: rebuild the replicated state (ring allgather keeps rank
    // order, which is canonical-index order).  allgather_into lands the
    // blocks straight into the replicated arrays — the local phase is
    // complete, so st.pos can be overwritten in place — and its layout
    // checks are the "exchange lost cars" guard.
    comm.allgather_into<std::int64_t>(my_pos, std::span<std::int64_t>{st.pos});
    comm.allgather_into<std::int32_t>(my_vel, std::span<std::int32_t>{all_vel});
    st.vel.assign(all_vel.begin(), all_vel.end());

    // Canonicalize identically on every rank (pure local computation on
    // identical replicated data -> identical result everywhere).
    if (n > 1) {
      const auto min_it = std::min_element(st.pos.begin(), st.pos.end());
      const auto k = min_it - st.pos.begin();
      if (k != 0) {
        std::rotate(st.pos.begin(), st.pos.begin() + k, st.pos.end());
        std::rotate(st.vel.begin(), st.vel.begin() + k, st.vel.end());
      }
    }

    // Iteration-boundary checkpoint: state is replicated and identical on
    // every rank, so only rank 0 writes (checkpoint.hpp's discipline).
    // Across processes the store is per-process memory, not shared — a
    // rank-0-only write would leave every other process unable to restart
    // — so there every rank checkpoints its own (identical) copy.  An
    // explicit ft.owner pins the writer instead (durable shared stores:
    // one rank writing the file is enough for every survivor to restore).
    const bool i_checkpoint = ft.owner >= 0
                                  ? comm.rank() == ft.owner
                                  : (comm.spans_processes() || comm.rank() == 0);
    if (ft.active() && (s + 1) % static_cast<std::size_t>(ft.every) == 0 && i_checkpoint) {
      faults::BlobWriter w;
      w.put_vec(st.pos);
      w.put_vec(st.vel);
      ft.store->save(ft.key, faults::Snapshot{s + 1, std::move(w).take()});
      if (obs::enabled()) obs::counter("faults.checkpoints").add(1);
    }
  }

  if (stats != nullptr) {
    stats->fast_forwards = stream.ff_calls();
  }
  return st;
}

}  // namespace peachy::traffic
