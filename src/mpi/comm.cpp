#include <array>

#include "mpi/mpi.hpp"
#include "obs/obs.hpp"

namespace peachy::mpi {

namespace detail {

namespace {

// obs keeps counter and span-name pointers until export, so every name
// is a string literal indexed by (op, algo) instead of a formatted string.
constexpr std::array<const char*, kCollAlgoCount> kAlgoCounterNames{
    "mpi.coll.algo.auto", "mpi.coll.algo.linear", "mpi.coll.algo.binomial",
    "mpi.coll.algo.ring", "mpi.coll.algo.recdouble"};

constexpr std::array<std::array<const char*, kCollAlgoCount>, kCollOpCount> kSpanNames{{
    {"broadcast[auto]", "broadcast[linear]", "broadcast[binomial]", "broadcast[ring]",
     "broadcast[recdouble]"},
    {"reduce[auto]", "reduce[linear]", "reduce[binomial]", "reduce[ring]", "reduce[recdouble]"},
    {"allreduce[auto]", "allreduce[linear]", "allreduce[binomial]", "allreduce[ring]",
     "allreduce[recdouble]"},
    {"allgather[auto]", "allgather[linear]", "allgather[binomial]", "allgather[ring]",
     "allgather[recdouble]"},
}};

}  // namespace

const char* coll_algo_counter_name(CollAlgo algo) noexcept {
  return kAlgoCounterNames[static_cast<std::size_t>(algo)];
}

const char* coll_span_name(CollOp op, CollAlgo algo) noexcept {
  return kSpanNames[static_cast<std::size_t>(op)][static_cast<std::size_t>(algo)];
}

}  // namespace detail

void Comm::barrier() {
  const int tag = begin_collective({"barrier", -1, 1, -1});
  const int p = size();
  const std::byte token{0};
  for (int dist = 1; dist < p; dist <<= 1) {
    const int dest = (rank_ + dist) % p;
    const int src = (rank_ - dist + p) % p;
    // Round-distinct sub-tag: token from round k must not satisfy round k+1.
    machine_->post(world_rank(), to_world(dest), tag, std::span<const std::byte>{&token, 1},
                   comm_id_);
    (void)recv_bytes(src, tag);
    // NOTE: dissemination rounds reuse the same tag but distinct (src,dist)
    // pairs, and recv matches on source, so rounds cannot cross-match
    // unless p is a power of two *and* two rounds share a source — which
    // cannot happen since distances are distinct powers of two < p.
  }
}

void Comm::broadcast_bytes(std::vector<std::byte>& data, int root) {
  PEACHY_CHECK(root >= 0 && root < size(), "broadcast: bad root");
  const int tag = begin_collective(
      {"broadcast", root, 1,
       rank_ == root ? static_cast<std::int64_t>(data.size()) : std::int64_t{-1}});
  const CollAlgo algo = pick_algo_(CollOp::kBroadcast);
  const obs::SpanScope span{"mpi", detail::coll_span_name(CollOp::kBroadcast, algo),
                            "algo", static_cast<std::int64_t>(algo)};
  PayloadBuffer buf;
  if (rank_ == root) {
    buf = BufferPool::instance().acquire(data.size());
    if (!data.empty()) std::memcpy(buf.mutable_data(), data.data(), data.size());
  }
  bcast_payload_algo(buf, root, tag, algo);
  if (rank_ != root) data = buf.release_bytes();
}

void Comm::bcast_payload(PayloadBuffer& buf, int root, int tag) {
  const int p = size();
  if (p == 1) return;
  const int vrank = (rank_ - root + p) % p;
  // Receive phase: find the lowest set bit position where we get our copy.
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int vsrc = vrank - mask;
      const int src = (vsrc + root) % p;
      buf = recv_buffer(src, tag);
      break;
    }
    mask <<= 1;
  }
  // Send phase: forward to the subtree below us.  Forwarding is a
  // refcount bump on the pooled payload — each edge is counted as a full
  // message, but its bytes are never copied again.
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & mask) == 0 && vrank + mask < p) {
      const int dest = (vrank + mask + root) % p;
      machine_->post_move(world_rank(), to_world(dest), tag, buf.share(), comm_id_);
    }
    mask >>= 1;
  }
}

void Comm::bcast_payload_algo(PayloadBuffer& buf, int root, int tag, CollAlgo algo) {
  switch (algo) {
    case CollAlgo::kLinear:
      bcast_payload_linear(buf, root, tag);
      return;
    case CollAlgo::kRing:
      bcast_payload_chain(buf, root, tag);
      return;
    default:
      // kAuto, kBinomial — and kRecDouble, which has no broadcast form —
      // all take the historical binomial tree.
      bcast_payload(buf, root, tag);
      return;
  }
}

void Comm::bcast_payload_linear(PayloadBuffer& buf, int root, int tag) {
  const int p = size();
  if (p == 1) return;
  if (rank_ == root) {
    // One round: p−1 refcount bumps of the same pooled payload.  On the
    // in-process transport there is no serialization to overlap, so the
    // tree's extra hops buy nothing — the latency-optimal shape at small p.
    for (int k = 1; k < p; ++k) {
      const int dest = (root + k) % p;
      machine_->post_move(world_rank(), to_world(dest), tag, buf.share(), comm_id_);
    }
    return;
  }
  buf = recv_buffer(root, tag);
}

void Comm::bcast_payload_chain(PayloadBuffer& buf, int root, int tag) {
  const int p = size();
  if (p == 1) return;
  const int vrank = (rank_ - root + p) % p;
  if (vrank != 0) buf = recv_buffer((rank_ - 1 + p) % p, tag);
  if (vrank + 1 < p) {
    machine_->post_move(world_rank(), to_world((rank_ + 1) % p), tag, buf.share(), comm_id_);
  }
}

void Comm::allgather_blocks_ring(std::vector<PayloadBuffer>& blocks, int tag) {
  const int p = size();
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const int send_block = (rank_ - step + p) % p;
    const int recv_block = (rank_ - step - 1 + p) % p;
    machine_->post_move(world_rank(), to_world(right), tag,
                        blocks[static_cast<std::size_t>(send_block)].share(), comm_id_);
    blocks[static_cast<std::size_t>(recv_block)] = recv_buffer(left, tag);
  }
}

void Comm::allgather_blocks_linear(std::vector<PayloadBuffer>& blocks, int tag) {
  // Direct exchange: everyone posts its own block to everyone (buffered
  // sends never block), then drains p−1 receives.  Same total message
  // count as the ring, one round of latency instead of p−1.
  const int p = size();
  for (int k = 1; k < p; ++k) {
    const int dest = (rank_ + k) % p;
    machine_->post_move(world_rank(), to_world(dest), tag,
                        blocks[static_cast<std::size_t>(rank_)].share(), comm_id_);
  }
  for (int k = 1; k < p; ++k) {
    const int src = (rank_ - k + p) % p;
    blocks[static_cast<std::size_t>(src)] = recv_buffer(src, tag);
  }
}

void Comm::allgather_blocks_recdouble(std::vector<PayloadBuffer>& blocks, int tag) {
  // Recursive doubling (power-of-two p, enforced at selection): at round
  // k this rank holds the 2^k blocks of its mask-aligned group and
  // trades them all with its partner in the paired group.  Blocks travel
  // in ascending index order both ways, and FIFO matching per
  // (source, tag) keeps them in order — same total message count as the
  // ring, log2(p) rounds of latency.
  const int p = size();
  for (int mask = 1; mask < p; mask <<= 1) {
    const int partner = rank_ ^ mask;
    const int my_base = rank_ & ~(mask - 1);
    const int partner_base = partner & ~(mask - 1);
    for (int b = my_base; b < my_base + mask; ++b) {
      machine_->post_move(world_rank(), to_world(partner), tag,
                          blocks[static_cast<std::size_t>(b)].share(), comm_id_);
    }
    for (int b = partner_base; b < partner_base + mask; ++b) {
      blocks[static_cast<std::size_t>(b)] = recv_buffer(partner, tag);
    }
  }
}

void Comm::revoke() { machine_->revoke(comm_id_); }

Comm Comm::shrink() {
  const obs::SpanScope span{"faults", "shrink"};
  const std::uint64_t t0 = obs::now_ns();
  const std::vector<int> members = group();
  // ULFM's iterate-until-stable discipline, with the machine's shared
  // agreement table standing in for a cross-process agreement protocol:
  // propose the survivors we observe; the first proposal stored under the
  // key wins and every survivor adopts it.  If an adopted group member
  // fails before everyone adopted, all survivors iterate to the next key
  // (deterministic: same keys, same table, same winner on every rank).
  //
  // Across processes (wire transports) each process has its own table
  // with exactly one caller per key, so "agreement" degenerates to: all
  // processes observe the same failed set (kFailed frames precede the
  // revoke that triggers shrink) and compute identical groups + comm ids
  // independently.  DESIGN.md §15 records the convergence argument.
  detail::Machine::Agreement agreed;
  for (;;) {
    const std::vector<int> survivors = machine_->survivors_of(members);
    PEACHY_CHECK(!survivors.empty(), "shrink: no surviving ranks");
    const std::uint64_t key = (static_cast<std::uint64_t>(comm_id_) << 32) | shrink_seq_;
    ++shrink_seq_;
    agreed = machine_->agree_group(key, survivors);
    if (machine_->first_failed_in(&agreed.group) < 0) break;
  }
  // Stale traffic from the dead rank(s) must not satisfy post-recovery
  // receives on the old communicator; each survivor scrubs its own box.
  machine_->purge_failed_senders(world_rank());
  const int my_world = world_rank();
  int new_rank = -1;
  for (std::size_t i = 0; i < agreed.group.size(); ++i) {
    if (agreed.group[i] == my_world) new_rank = static_cast<int>(i);
  }
  PEACHY_CHECK(new_rank >= 0, "shrink: calling rank is not a survivor");
  if (obs::enabled()) {
    static obs::Histogram& recovery = obs::histogram("faults.recovery_ns");
    recovery.note(obs::now_ns() - t0);
  }
  return Comm{*machine_, new_rank, agreed.group, agreed.comm_id, timeout_ns_};
}

}  // namespace peachy::mpi
