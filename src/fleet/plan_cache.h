// The partition-plan cache: (profile fingerprint x cohort bucket) -> plan.
//
// A cohort's plan is a pure function of its cache key — the cut is priced
// at the bucket's geometric center, never at the member mean — so a
// repeated fleet hits for every cohort and a drifting fleet (clients
// churning within their link classes) hits for every bucket that stays
// occupied. LRU eviction bounds memory on long-running services facing
// many profiles; hit/miss counters feed the fleet reports.
//
// Thread safety: all operations lock an internal mutex, so the cache may
// be probed from any thread. The fleet service nevertheless performs all
// lookups and insertions on its coordinator thread in cohort grid order so
// the LRU sequence — and therefore eviction, and therefore every counter —
// is deterministic however many workers compute plans.

#ifndef COIGN_SRC_FLEET_PLAN_CACHE_H_
#define COIGN_SRC_FLEET_PLAN_CACHE_H_

#include <cstdint>
#include <iosfwd>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/analysis/engine.h"
#include "src/fleet/cohort.h"
#include "src/obs/obs.h"
#include "src/support/status.h"

namespace coign {

struct PlanCacheKey {
  uint64_t profile_fingerprint = 0;
  CohortKey bucket;

  friend bool operator==(const PlanCacheKey&, const PlanCacheKey&) = default;
};

struct PlanCacheKeyHash {
  size_t operator()(const PlanCacheKey& key) const {
    uint64_t h = key.profile_fingerprint;
    h = h * 0x9e3779b97f4a7c15ull + CohortKeyHash()(key.bucket);
    return static_cast<size_t>(h);
  }
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  // Damaged snapshot records dropped on load (checksum mismatch,
  // unparseable record under a valid checksum, or duplicate key).
  uint64_t corrupt_skipped = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() == 0 ? 0.0 : static_cast<double>(hits) / lookups();
  }
  std::string ToString() const;
};

class PlanCache {
 public:
  // capacity 0 disables caching (every lookup misses, inserts are dropped).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Returns a copy of the cached plan and refreshes its LRU position.
  std::optional<AnalysisResult> Lookup(const PlanCacheKey& key);

  // Inserts (or refreshes) a plan, evicting least-recently-used entries
  // beyond capacity.
  void Insert(const PlanCacheKey& key, AnalysisResult plan);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;
  void Clear();

  // Not owned; null disables instrumentation. Used only by the loader to
  // report damaged snapshot records (counter + instant + flight-recorder
  // dump) — the lookup/insert hot path stays uninstrumented here.
  void SetObservability(Observability* obs) { obs_ = obs; }

  // --- Persistence ----------------------------------------------------------
  // Byte-exact text snapshot of the entries, written least- to
  // most-recently-used so loading reproduces the LRU order exactly.
  // Doubles are serialized as bit patterns (hex), so a save/load round
  // trip is the identity down to the last ULP. Stats are not persisted —
  // a warm start is capacity, not traffic.
  //
  // The format is v4: every record block is followed by a `crc` line
  // carrying the CRC32C of the block's text. Damage is localized — a
  // record whose checksum or contents no longer verify (or whose key
  // repeats an earlier record's) is skipped and counted in
  // stats().corrupt_skipped, a tail with no terminating crc line is a torn
  // append and dropped silently, and everything intact loads normally.
  // Snapshots in the older v1-v3 formats are rejected with
  // InvalidArgument naming the version found; the cache refills itself on
  // the next plan.
  std::string Serialize() const;
  // Replaces the contents with a parsed snapshot. Entries beyond this
  // cache's capacity are dropped oldest-first; stats are left untouched
  // (except corrupt_skipped, which accumulates loader damage counts).
  Status Load(const std::string& text);
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

 private:
  struct Entry {
    PlanCacheKey key;
    AnalysisResult plan;
  };

  // Parses one record (entry/plan/place/edge lines) from `in`.
  static Status ParseRecord(std::istream& in, Entry* entry);

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<PlanCacheKey, std::list<Entry>::iterator, PlanCacheKeyHash> index_;
  PlanCacheStats stats_;
  Observability* obs_ = nullptr;  // Not owned.
};

}  // namespace coign

#endif  // COIGN_SRC_FLEET_PLAN_CACHE_H_
