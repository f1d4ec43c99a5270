#include "mpi/buffer_pool.hpp"

#include <array>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::mpi {

namespace {

using pool_detail::kHeaderSize;
using pool_detail::OwnerNode;
using pool_detail::SlabHeader;
using pool_detail::slab_payload;

// Power-of-two size classes 2^8 .. 2^22 (256 B .. 4 MiB); larger requests
// bypass the freelists (class kUnpooledClass) — they are rare enough that
// the allocator is fine, and parking multi-MB slabs would pin memory.
constexpr std::size_t kMinClassLog2 = 8;
constexpr std::size_t kMaxClassLog2 = 22;
constexpr std::size_t kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;
constexpr std::uint32_t kUnpooledClass = 0xffffffffu;
// Bound on parked slabs per class: enough that every rank of the widest
// machine the tests run (p=16) can have a send and a receive in flight
// without a miss, small enough that the pool's resident set stays modest.
constexpr std::size_t kMaxParkedPerClass = 64;

std::uint32_t class_for(std::size_t bytes) noexcept {
  std::size_t cap = std::size_t{1} << kMinClassLog2;
  std::uint32_t cls = 0;
  while (cap < bytes) {
    cap <<= 1;
    ++cls;
  }
  return cls < kNumClasses ? cls : kUnpooledClass;
}

std::size_t class_capacity(std::uint32_t cls) noexcept {
  return std::size_t{1} << (kMinClassLog2 + cls);
}

SlabHeader* new_slab(std::uint32_t cls, std::size_t capacity) {
  void* mem = ::operator new(kHeaderSize + capacity);
  auto* h = new (mem) SlabHeader{};
  h->size_class = cls;
  h->capacity = capacity;
  return h;
}

void delete_slab(SlabHeader* h) noexcept {
  h->~SlabHeader();
  ::operator delete(static_cast<void*>(h));
}

}  // namespace

struct BufferPool::Impl {
  struct FreeList {
    std::mutex mu;
    SlabHeader* head = nullptr;
    std::size_t count = 0;
  };
  std::array<FreeList, kNumClasses> classes;
  std::atomic<bool> pooling{true};
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> adopted{0};
  std::atomic<std::uint64_t> live{0};
  std::atomic<std::uint64_t> free_bytes{0};
};

BufferPool::BufferPool() : impl_{new Impl} {
  if (const char* env = std::getenv("PEACHY_MPI_POOL")) {
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0) {
      impl_->pooling.store(false, std::memory_order_relaxed);
    }
  }
}

BufferPool& BufferPool::instance() {
  static BufferPool* pool = new BufferPool;  // leaked: outlives every rank thread
  return *pool;
}

PayloadBuffer BufferPool::acquire(std::size_t bytes) {
  impl_->acquires.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t cls = class_for(bytes);
  SlabHeader* h = nullptr;
  if (cls != kUnpooledClass && impl_->pooling.load(std::memory_order_relaxed)) {
    Impl::FreeList& fl = impl_->classes[cls];
    std::lock_guard lock{fl.mu};
    if (fl.head != nullptr) {
      h = fl.head;
      fl.head = h->next;
      --fl.count;
      impl_->free_bytes.fetch_sub(h->capacity, std::memory_order_relaxed);
    }
  }
  const bool hit = h != nullptr;
  if (hit) {
    impl_->hits.fetch_add(1, std::memory_order_relaxed);
    h->refs.store(1, std::memory_order_relaxed);
    h->next = nullptr;
  } else {
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    h = new_slab(cls, cls == kUnpooledClass ? bytes : class_capacity(cls));
  }
  const auto live = impl_->live.fetch_add(1, std::memory_order_relaxed) + 1;
  if (obs::enabled()) {
    static obs::Counter& hits = obs::counter("mpi.pool.hits");
    static obs::Counter& misses = obs::counter("mpi.pool.misses");
    (hit ? hits : misses).add(1);
    obs::gauge("mpi.pool.live", static_cast<std::int64_t>(live));
  }
  PayloadBuffer b;
  b.slab_ = h;
  b.data_ = slab_payload(h);
  b.size_ = bytes;
  return b;
}

PayloadBuffer BufferPool::adopt(std::vector<std::byte>&& v) {
  auto* heap = new std::vector<std::byte>(std::move(v));
  return adopt_erased(
      heap, [](void* p) { delete static_cast<std::vector<std::byte>*>(p); },
      heap->data(), heap->size(), heap);
}

PayloadBuffer BufferPool::adopt_erased(void* obj, void (*destroy)(void*),
                                       const std::byte* data, std::size_t size,
                                       std::vector<std::byte>* as_bytes) {
  impl_->adopted.fetch_add(1, std::memory_order_relaxed);
  auto* n = new OwnerNode{};
  n->obj = obj;
  n->destroy = destroy;
  n->as_bytes = as_bytes;
  PayloadBuffer b;
  b.owner_ = n;
  b.data_ = data;
  b.size_ = size;
  return b;
}

void BufferPool::release_slab(SlabHeader* h) noexcept {
  impl_->live.fetch_sub(1, std::memory_order_relaxed);
  const std::uint32_t cls = h->size_class;
  if (cls != kUnpooledClass && impl_->pooling.load(std::memory_order_relaxed)) {
    Impl::FreeList& fl = impl_->classes[cls];
    std::lock_guard lock{fl.mu};
    if (fl.count < kMaxParkedPerClass) {
      h->next = fl.head;
      fl.head = h;
      ++fl.count;
      impl_->free_bytes.fetch_add(h->capacity, std::memory_order_relaxed);
      return;
    }
  }
  delete_slab(h);
}

void BufferPool::release_owner(OwnerNode* n) noexcept {
  n->destroy(n->obj);
  delete n;
}

PoolStats BufferPool::stats() const noexcept {
  PoolStats s;
  s.acquires = impl_->acquires.load(std::memory_order_relaxed);
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.adopted = impl_->adopted.load(std::memory_order_relaxed);
  s.live = impl_->live.load(std::memory_order_relaxed);
  s.free_bytes = impl_->free_bytes.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::set_pooling(bool enabled) noexcept {
  impl_->pooling.store(enabled, std::memory_order_relaxed);
  if (!enabled) trim();
}

bool BufferPool::pooling() const noexcept {
  return impl_->pooling.load(std::memory_order_relaxed);
}

void BufferPool::trim() noexcept {
  for (auto& fl : impl_->classes) {
    std::lock_guard lock{fl.mu};
    while (fl.head != nullptr) {
      SlabHeader* h = fl.head;
      fl.head = h->next;
      --fl.count;
      impl_->free_bytes.fetch_sub(h->capacity, std::memory_order_relaxed);
      delete_slab(h);
    }
  }
}

PayloadBuffer PayloadBuffer::share() const noexcept {
  PayloadBuffer b;
  if (slab_ != nullptr) {
    slab_->refs.fetch_add(1, std::memory_order_relaxed);
  } else if (owner_ != nullptr) {
    owner_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  b.slab_ = slab_;
  b.owner_ = owner_;
  b.data_ = data_;
  b.size_ = size_;
  return b;
}

void PayloadBuffer::reset() noexcept {
  if (slab_ != nullptr) {
    // Release ordering so the last dropper sees every write the other
    // holders made before their drop (acq_rel on the decrement).
    if (slab_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      BufferPool::instance().release_slab(slab_);
    }
  } else if (owner_ != nullptr) {
    if (owner_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      BufferPool::release_owner(owner_);
    }
  }
  slab_ = nullptr;
  owner_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

std::vector<std::byte> PayloadBuffer::release_bytes() noexcept {
  std::vector<std::byte> out;
  if (owner_ != nullptr && owner_->as_bytes != nullptr &&
      owner_->refs.load(std::memory_order_acquire) == 1) {
    out = std::move(*owner_->as_bytes);
  } else {
    out.assign(data_, data_ + size_);
  }
  reset();
  return out;
}

}  // namespace peachy::mpi
