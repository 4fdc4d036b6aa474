#include "malsched/service/cache.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "malsched/support/contracts.hpp"

namespace malsched::service {

ResultCache::ResultCache(const CacheOptions& options)
    : shards_(options.shards == 0 ? 1 : options.shards),
      per_shard_capacity_((options.capacity + shards_.size() - 1) /
                          shards_.size()),
      capacity_(options.capacity),
      admission_(options.admission) {
  MALSCHED_EXPECTS_MSG(options.capacity > 0,
                       "cache capacity must be positive");
  if (admission_) {
    for (Shard& shard : shards_) {
      shard.lfu = std::make_unique<TinyLfu>(options.admission_sketch);
    }
  }
  if (options.ttl) {
    MALSCHED_EXPECTS_MSG(options.ttl->count() >= 0.0,
                         "cache ttl must be non-negative");
    // Clamp before the cast: a huge TTL ("effectively never expire") must
    // not overflow the integer tick count into a negative duration that
    // would expire everything instantly.  Half of the representable range
    // also keeps `now + ttl` in put() overflow-free.
    const double max_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::duration::max())
            .count() /
        2.0;
    ttl_ = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(
            std::min(options.ttl->count(), max_seconds)));
  }
}

ResultCache::Shard& ResultCache::shard_for(std::size_t key_hash) {
  return shards_[key_hash % shards_.size()];
}

void ResultCache::Shard::erase(Index::iterator it) {
  const Lru::iterator node = it->second;
  weight -= node->weight;
  index.erase(it);  // the view goes first, then the bytes it points into
  lru.erase(node);
}

void ResultCache::Shard::evict_lru() {
  erase(index.find(lru.back().key));
}

std::shared_ptr<const CachedSolve> ResultCache::get(const std::string& key) {
  const std::size_t key_hash = std::hash<std::string>{}(key);
  Shard& shard = shard_for(key_hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.lfu) {
    // Every lookup is a popularity vote, hit or miss: the admission contest
    // compares demand for keys, not residency.
    shard.lfu->record(key_hash);
  }
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (ttl_ && std::chrono::steady_clock::now() >= it->second->expires) {
    // Lazy TTL eviction: the lookup that finds a stale entry reclaims it
    // and reports a miss, so the caller re-solves and re-fills.
    shard.erase(it);
    expired_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void ResultCache::put(const std::string& key, CachedSolve value) {
  const std::size_t weight = entry_weight(value);
  auto shared = std::make_shared<const CachedSolve>(std::move(value));
  const auto expires = ttl_ ? std::chrono::steady_clock::now() + *ttl_
                            : std::chrono::steady_clock::time_point{};
  const std::size_t key_hash = std::hash<std::string>{}(key);
  Shard& shard = shard_for(key_hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.weight -= it->second->weight;
    it->second->value = std::move(shared);
    it->second->weight = weight;
    it->second->expires = expires;
    shard.weight += weight;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    if (shard.lfu) {
      // The insert itself is an occurrence of the key (a rejected key thus
      // gains ground on every re-arrival and is eventually admitted).
      shard.lfu->record(key_hash);
      // Admission contest: an over-budget insert must out-score, or tie,
      // every LRU victim it displaces.  Losing drops the insert — the
      // shard's resident set was judged more valuable than the newcomer.
      while (shard.weight + weight > per_shard_capacity_ &&
             !shard.lru.empty()) {
        const std::size_t victim_hash =
            std::hash<std::string>{}(shard.lru.back().key);
        if (!shard.lfu->admit(key_hash, victim_hash)) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        shard.evict_lru();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      admitted_.fetch_add(1, std::memory_order_relaxed);
    }
    // The node owns the one copy of the key; the index views it.  The node
    // joins the LRU list only after the index holds it, so an insert that
    // throws leaves no unindexed node for evict_lru to trip over.
    Lru node;
    node.push_back(Entry{key, std::move(shared), weight, expires});
    shard.index.emplace(node.front().key, node.begin());
    shard.lru.splice(shard.lru.begin(), node);
    shard.weight += weight;
  }
  // Evict LRU entries until back under the weight budget.  The newest entry
  // is never evicted, even when it alone exceeds the shard budget: a 1-entry
  // memo beats not caching an oversized instance at all.
  while (shard.weight > per_shard_capacity_ && shard.lru.size() > 1) {
    shard.evict_lru();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.capacity = capacity_;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    stats.entries += shard.lru.size();
    stats.weight += shard.weight;
  }
  return stats;
}

void ResultCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.clear();  // views first, then the keys they point into
    shard.lru.clear();
    shard.weight = 0;
  }
}

}  // namespace malsched::service
