#pragma once
/// \file checkpoint.hpp
/// \brief In-memory checkpoint/restart for the iterative assignments.
///
/// The recovery path for *permanent* faults: an iterative driver
/// periodically serializes its full state into a `CheckpointStore`; after
/// a rank failure the survivors `shrink()` the communicator, reload the
/// latest snapshot, and resume from that iteration with fewer ranks.
///
/// Snapshots are byte blobs built with `BlobWriter`/`BlobReader` — a tiny
/// tagged-field serializer (u64 sizes, raw little-endian PODs) chosen over
/// a textual format because restart equality is *bit* equality: a restored
/// double must be the exact bits that were saved.
///
/// The default store is in-memory and process-wide-shared: the mini-MPI
/// ranks are threads of one process, so "stable storage that survives a
/// rank crash" is simply memory owned by the Machine's controller rather
/// than by any rank.  That stops being true in *launched* worlds — a
/// SIGKILLed process takes its in-memory store with it — so
/// `DurableCheckpointStore` adds an opt-in file backend (atomic
/// tmp+rename, CRC32C-validated, latest-only per key) that survivors or a
/// respawned process read to restore the dead rank's snapshot
/// (DESIGN.md §17).
///
/// Checkpoint discipline for the drivers (kmeans/traffic/heat): the
/// snapshot is taken at an iteration boundary, *after* the collectives of
/// iteration s complete, and records `next_step = s+1`.  Every rank
/// carries the replicated state, but only rank 0 writes (the state is
/// identical by construction — asserted in tests).

#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace peachy::faults {

/// Append-only little serializer for checkpoint blobs.
class BlobWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(const T* data, std::size_t n) {
    put(static_cast<std::uint64_t>(n));
    const auto* p = reinterpret_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), p, p + n * sizeof(T));
  }

  template <typename T>
  void put_vec(const std::vector<T>& v) {
    put_span(v.data(), v.size());
  }

  [[nodiscard]] std::vector<std::byte> take() && { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

/// Sequential reader over a blob; throws peachy::Error on truncation.
class BlobReader {
 public:
  explicit BlobReader(const std::vector<std::byte>& bytes) : bytes_{bytes} {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T get() {
    T v;
    PEACHY_CHECK(pos_ + sizeof(T) <= bytes_.size(), "checkpoint blob truncated");
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> get_vec() {
    const auto n = static_cast<std::size_t>(get<std::uint64_t>());
    PEACHY_CHECK(pos_ + n * sizeof(T) <= bytes_.size(), "checkpoint blob truncated");
    std::vector<T> v(n);
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }

 private:
  const std::vector<std::byte>& bytes_;
  std::size_t pos_ = 0;
};

/// One saved state: the iteration to resume *from* plus the blob.
struct Snapshot {
  std::uint64_t next_step = 0;
  std::vector<std::byte> blob;
};

/// Thread-safe keyed snapshot storage.  Keys name the computation
/// ("kmeans", "traffic", …); `save` overwrites — only the latest snapshot
/// per key is retained (the drivers checkpoint at a fixed cadence and
/// restart wants the most recent state).  The base class *is* the
/// in-memory store; DurableCheckpointStore overrides the three virtuals
/// with a file backend.
class CheckpointStore {
 public:
  CheckpointStore() = default;
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;
  virtual ~CheckpointStore() = default;

  virtual void save(const std::string& key, Snapshot snap) {
    const std::scoped_lock lock{mu_};
    store_[key] = std::move(snap);
  }

  [[nodiscard]] virtual std::optional<Snapshot> load(const std::string& key) const {
    const std::scoped_lock lock{mu_};
    const auto it = store_.find(key);
    if (it == store_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] virtual bool has(const std::string& key) const {
    const std::scoped_lock lock{mu_};
    return store_.contains(key);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Snapshot> store_;
};

/// File-backed CheckpointStore: one file per key under `dir`
/// (`<sanitized key>.ckpt`), written atomically (unique temp file +
/// rename) so a crash mid-save leaves the previous snapshot intact, never
/// a torn file.  The format carries magic, version, and a trailing CRC32C
/// over everything before it; `load()` treats any validation failure
/// paranoidly — warn, count (`faults.ckpt.corrupt`), and report "no
/// snapshot" so the caller falls back to a fresh start.  `load_strict()` names the problem instead
/// (CheckpointCorruptError) for callers and tests that must distinguish
/// "absent" from "damaged".  Safe for concurrent processes sharing `dir`:
/// rename is atomic and readers see either the old or the new file.
class DurableCheckpointStore final : public CheckpointStore {
 public:
  /// Creates `dir` if missing (one level; parent must exist).
  explicit DurableCheckpointStore(std::string dir);

  void save(const std::string& key, Snapshot snap) override;
  [[nodiscard]] std::optional<Snapshot> load(const std::string& key) const override;
  [[nodiscard]] bool has(const std::string& key) const override;

  /// Like load(), but a file that exists and fails validation throws
  /// CheckpointCorruptError instead of falling back.
  [[nodiscard]] std::optional<Snapshot> load_strict(const std::string& key) const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// The file a key maps to (sanitized; exposed for tests and cleanup).
  [[nodiscard]] std::string path_for(const std::string& key) const;

 private:
  std::string dir_;
};

/// Fault-tolerance options threaded through the iterative drivers.  The
/// default ({}) means "no checkpointing" and costs one pointer test per
/// iteration.
struct FtOptions {
  /// Checkpoint every `every` iterations (0 = never).
  int every = 0;
  /// Where snapshots go; owned by the caller (the demo's controller).
  CheckpointStore* store = nullptr;
  /// Snapshot key; also the obs counter suffix.
  std::string key;
  /// Which rank writes snapshots: -1 keeps each driver's default
  /// discipline (rank 0, or every process in launched worlds); >= 0 pins
  /// writing to that single rank — with a shared DurableCheckpointStore
  /// this is how a demo proves survivors can restore a snapshot only the
  /// (now dead) owner ever wrote.
  int owner = -1;

  [[nodiscard]] bool active() const noexcept { return every > 0 && store != nullptr; }
};

}  // namespace peachy::faults
