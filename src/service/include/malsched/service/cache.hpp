#pragma once

/// \file cache.hpp
/// Sharded LRU memo of canonical-space solve results, with size-aware
/// eviction.
///
/// Keys are `solver + '\n' + canonical_text(form)`: the solver name, then
/// the raw bytes of the canonical instance (n, then 3n IEEE-754 doubles;
/// canonical.hpp), 8 + 24n bytes after the name.  The registry refuses
/// solver names holding '\n', so the first '\n' ends the name and the key
/// is unambiguous.  Values are the solver output on the *canonical*
/// instance, so one entry serves every scaled/permuted variant of the
/// instance (the solve path denormalizes per request).  Each entry stores
/// its key once: the LRU list node owns the bytes and the shard's hash
/// index holds a view of them.  Striped mutexes keep concurrent workers
/// from serializing on one lock; hit/miss/eviction counters feed the
/// service telemetry.
///
/// Capacity is counted in *weight units*, not entries: an entry weighs
/// 1 + completions.size(), so a memoized n = 500 solve costs ~500x the
/// budget of an n = 4 one and large instances cannot crowd the cache out of
/// proportion to their footprint.
///
/// Time axis (optional): `CacheOptions::ttl` bounds how long an entry may
/// serve hits.  Expiry is *lazy* — an expired entry is evicted at the
/// lookup that finds it (counted as a miss plus an `expired` eviction);
/// nothing scans the cache in the background, so an idle cache costs
/// nothing and a full one ages out exactly as fast as traffic touches it.
/// Entries past their deadline but never looked up again are reclaimed by
/// ordinary LRU eviction — they are by definition the least recently used.
///
/// Admission (optional): `CacheOptions::admission` puts a per-shard TinyLFU
/// popularity filter (tinylfu.hpp) in front of capacity eviction.  Every
/// lookup and every new-key insert feeds the filter; when inserting a *new*
/// key would push the shard over budget, the insert must beat each LRU
/// victim it displaces on estimated popularity (ties admit, so an unskewed
/// stream still behaves like plain LRU).  A losing insert is dropped and
/// counted in `rejected` — the caller's value simply isn't memoized this
/// time; a recurring key accrues popularity with each arrival and is
/// admitted once it out-scores the resident tail.  Refreshes of resident
/// keys and TTL expiry bypass admission entirely (the `expired` counter is
/// unaffected).  Off by default so the raw cache keeps its historical
/// always-admit semantics; the scheduler turns it on for its owned cache.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "malsched/service/tinylfu.hpp"

namespace malsched::service {

/// Canonical-space value stored per (solver, canonical instance).
struct CachedSolve {
  double objective = 0.0;
  double makespan = 0.0;
  std::vector<double> completions;  ///< indexed by canonical task id
};

/// Weight of one cache entry: 1 (fixed bookkeeping) plus one unit per
/// completion time, i.e. O(n) in the instance size.
[[nodiscard]] inline std::size_t entry_weight(
    const CachedSolve& value) noexcept {
  return 1 + value.completions.size();
}

/// Construction knobs of ResultCache (the two-argument constructor remains
/// for capacity-only callers).
struct CacheOptions {
  /// Weight-unit budget across all shards; must be positive.
  std::size_t capacity = std::size_t{1} << 20;
  /// Independently locked segments (0 is clamped to 1).
  std::size_t shards = 8;
  /// Entries older than this stop serving hits and are evicted lazily at
  /// lookup; nullopt (the default) keeps entries until LRU eviction.
  std::optional<std::chrono::duration<double>> ttl;
  /// Gate over-budget inserts of new keys behind a TinyLFU popularity
  /// contest against the LRU victims they would evict.  Off by default:
  /// plain ResultCache users keep unconditional admission.
  bool admission = false;
  /// Sizing of the per-shard popularity sketch (ignored unless `admission`).
  TinyLfuOptions admission_sketch;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< capacity (LRU) evictions only
  std::uint64_t expired = 0;    ///< TTL evictions performed at lookup
  std::uint64_t admitted = 0;   ///< new-key inserts accepted (admission on)
  std::uint64_t rejected = 0;   ///< new-key inserts dropped by the filter
  std::size_t entries = 0;
  std::size_t weight = 0;    ///< current total weight across shards
  std::size_t capacity = 0;  ///< configured capacity, in weight units

  [[nodiscard]] double hit_rate() const noexcept {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Thread-safe LRU cache striped over `shards` independently locked
/// segments.  Each shard holds at most ceil(capacity / shards) weight units
/// and evicts least-recently-used entries until back under budget.  An entry
/// heavier than a whole shard is admitted alone (the shard temporarily holds
/// just it), so oversized instances degrade to a 1-entry memo instead of
/// being uncacheable.
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity, std::size_t shards = 8)
      : ResultCache(capacity_options(capacity, shards)) {}
  explicit ResultCache(const CacheOptions& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached value and refreshes its recency, or null (both
  /// outcomes bump the counters).  Hits are a refcount bump, not a copy of
  /// the completions vector, so readers of one shard don't serialize on
  /// value size.
  [[nodiscard]] std::shared_ptr<const CachedSolve> get(const std::string& key);

  /// Inserts or refreshes `key`; evicts the shard's LRU entries until the
  /// shard is back under its weight budget.  With admission enabled, a new
  /// key that would evict a strictly more popular victim is dropped instead
  /// (counted in `rejected`); refreshes always proceed.
  void put(const std::string& key, CachedSolve value);

  [[nodiscard]] CacheStats stats() const;
  void clear();

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] bool has_ttl() const noexcept { return ttl_.has_value(); }
  [[nodiscard]] bool has_admission() const noexcept { return admission_; }

 private:
  struct Entry {
    /// The key's only copy; the shard index holds a view of these bytes.
    std::string key;
    std::shared_ptr<const CachedSolve> value;
    std::size_t weight = 0;
    /// Expiry deadline; meaningful only when the cache has a TTL.
    std::chrono::steady_clock::time_point expires{};
  };
  using Lru = std::list<Entry>;
  /// Keys are views of `Entry::key`.  A list node never moves (recency
  /// updates splice it), so a view is valid exactly as long as its node,
  /// and Shard::erase drops the view before it frees the node.
  using Index = std::unordered_map<std::string_view, Lru::iterator>;
  struct Shard {
    mutable std::mutex mutex;
    Lru lru;  ///< front = most recently used
    Index index;
    std::size_t weight = 0;  ///< sum of entry weights
    /// Popularity filter over this shard's key stream; null when the cache
    /// runs without admission.  Guarded by `mutex` like the rest.
    std::unique_ptr<TinyLfu> lfu;

    /// Removes the entry `it` indexes, through iterators only.
    void erase(Index::iterator it);
    /// Removes the least recently used entry; the shard must not be empty.
    void evict_lru();
  };

  static CacheOptions capacity_options(std::size_t capacity,
                                       std::size_t shards) {
    CacheOptions options;
    options.capacity = capacity;
    options.shards = shards;
    return options;
  }

  Shard& shard_for(std::size_t key_hash);

  std::vector<Shard> shards_;
  std::size_t per_shard_capacity_;
  std::size_t capacity_;
  std::optional<std::chrono::steady_clock::duration> ttl_;
  bool admission_ = false;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace malsched::service
