#include "src/fleet/plan_cache.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/support/crc32c.h"
#include "src/support/str_util.h"

namespace coign {

namespace {

// The only snapshot format this build reads and writes.
constexpr char kVersion[] = "v4";

// Exact double round-trip: serialize the bit pattern, not a decimal
// approximation, so a reloaded cache prices cuts byte-identically.
std::string DoubleHex(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return StrFormat("%016llx", static_cast<unsigned long long>(bits));
}

bool ParseDoubleHex(const std::string& hex, double* out) {
  uint64_t bits = 0;
  if (!ParseLowerHex(hex, 16, &bits)) {
    return false;
  }
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

// Parses the "crc <8hex>" lines terminating record blocks.
bool ParseCrcLine(const std::string& line, uint32_t* out) {
  uint64_t bits = 0;
  if (!StartsWith(line, "crc ") ||
      !ParseLowerHex(std::string_view(line).substr(4), 8, &bits)) {
    return false;
  }
  *out = static_cast<uint32_t>(bits);
  return true;
}

}  // namespace

std::string PlanCacheStats::ToString() const {
  std::string out =
      StrFormat("plan-cache{hits=%llu, misses=%llu, hit_rate=%.1f%%, "
                "insertions=%llu, evictions=%llu",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses), 100.0 * hit_rate(),
                static_cast<unsigned long long>(insertions),
                static_cast<unsigned long long>(evictions));
  if (corrupt_skipped > 0) {
    out += StrFormat(", corrupt_skipped=%llu",
                     static_cast<unsigned long long>(corrupt_skipped));
  }
  out += "}";
  return out;
}

std::optional<AnalysisResult> PlanCache::Lookup(const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // Refresh to most recent.
  return it->second->plan;
}

void PlanCache::Insert(const PlanCacheKey& key, AnalysisResult plan) {
  if (capacity_ == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_[key] = lru_.begin();
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

std::string PlanCache::Serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Each record block (entry line with the loss bucket, plan line ending
  // in the exact fixed-point cut value, place and edge lines) ends with a
  // `crc` line over the block's text, so a loader can localize disk
  // damage to single records.
  std::string out = StrFormat("plan-cache %s %zu\n", kVersion, lru_.size());
  // Least-recent first: replaying inserts in file order rebuilds the
  // exact LRU sequence (the last line loaded ends up most recent).
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const Entry& entry = *it;
    const AnalysisResult& plan = entry.plan;
    // Placement sorted by classification id: the plan map is unordered,
    // the snapshot must not be.
    std::vector<std::pair<ClassificationId, MachineId>> placement(
        plan.distribution.placement.begin(), plan.distribution.placement.end());
    std::sort(placement.begin(), placement.end());
    std::string block;
    block += StrFormat("entry %llu %d %d %d\n",
                       static_cast<unsigned long long>(entry.key.profile_fingerprint),
                       entry.key.bucket.latency_bucket, entry.key.bucket.bandwidth_bucket,
                       entry.key.bucket.loss_bucket);
    block += StrFormat("plan %s %s %zu %zu %llu %llu %zu %d %zu %zu %lld\n",
                       DoubleHex(plan.predicted_comm_seconds).c_str(),
                       DoubleHex(plan.total_comm_seconds).c_str(),
                       plan.client_classifications, plan.server_classifications,
                       static_cast<unsigned long long>(plan.client_instances),
                       static_cast<unsigned long long>(plan.server_instances),
                       plan.non_remotable_pairs, plan.distribution.default_machine,
                       placement.size(), plan.cut_edges.size(),
                       static_cast<long long>(plan.cut_value_units));
    for (const auto& [classification, machine] : placement) {
      block += StrFormat("place %u %d\n", classification, machine);
    }
    for (const CutEdgeReport& edge : plan.cut_edges) {
      block += StrFormat("edge %u %u %s\n", edge.client_side, edge.server_side,
                         DoubleHex(edge.seconds).c_str());
    }
    out += block;
    out += StrFormat("crc %08x\n", Crc32c(block));
  }
  return out;
}

Status PlanCache::ParseRecord(std::istream& in, Entry* entry) {
  std::string tag;
  unsigned long long fingerprint = 0;
  if (!(in >> tag >> fingerprint >> entry->key.bucket.latency_bucket >>
        entry->key.bucket.bandwidth_bucket >> entry->key.bucket.loss_bucket) ||
      tag != "entry") {
    return InvalidArgumentError("plan cache: bad entry line");
  }
  entry->key.profile_fingerprint = static_cast<uint64_t>(fingerprint);
  AnalysisResult& plan = entry->plan;
  std::string predicted_hex, total_hex;
  unsigned long long client_instances = 0, server_instances = 0;
  size_t placements = 0, edges = 0;
  long long units = 0;
  if (!(in >> tag >> predicted_hex >> total_hex >> plan.client_classifications >>
        plan.server_classifications >> client_instances >> server_instances >>
        plan.non_remotable_pairs >> plan.distribution.default_machine >> placements >>
        edges >> units) ||
      tag != "plan" || !ParseDoubleHex(predicted_hex, &plan.predicted_comm_seconds) ||
      !ParseDoubleHex(total_hex, &plan.total_comm_seconds)) {
    return InvalidArgumentError("plan cache: bad plan line");
  }
  plan.cut_value_units = static_cast<CapUnits>(units);
  plan.client_instances = static_cast<uint64_t>(client_instances);
  plan.server_instances = static_cast<uint64_t>(server_instances);
  for (size_t p = 0; p < placements; ++p) {
    ClassificationId classification = kNoClassification;
    MachineId machine = kClientMachine;
    if (!(in >> tag >> classification >> machine) || tag != "place") {
      return InvalidArgumentError("plan cache: bad place line");
    }
    plan.distribution.placement[classification] = machine;
  }
  for (size_t e = 0; e < edges; ++e) {
    CutEdgeReport edge;
    std::string seconds_hex;
    if (!(in >> tag >> edge.client_side >> edge.server_side >> seconds_hex) ||
        tag != "edge" || !ParseDoubleHex(seconds_hex, &edge.seconds)) {
      return InvalidArgumentError("plan cache: bad edge line");
    }
    plan.cut_edges.push_back(edge);
  }
  return Status::Ok();
}

Status PlanCache::Load(const std::string& text) {
  std::istringstream in(text);
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "plan-cache") {
    return InvalidArgumentError("plan cache: bad header");
  }
  if (version != kVersion) {
    return InvalidArgumentError(StrFormat(
        "plan cache: unsupported version %s (this build reads %s)", version.c_str(), kVersion));
  }
  // Scan record blocks up to their `crc` lines and verify each block
  // before trusting a word of it. A block that fails its checksum — or
  // parses to garbage under a valid one, or repeats a key — is skipped and
  // counted, never fatal. The header count is advisory only: damage
  // changes how many records survive.
  const size_t header_end = text.find('\n');
  std::vector<std::string> lines;
  if (header_end != std::string::npos) {
    std::istringstream body(text.substr(header_end + 1));
    std::string line;
    while (std::getline(body, line)) {
      lines.push_back(line);
    }
  }
  const bool unterminated = !text.empty() && text.back() != '\n';
  std::list<Entry> loaded;
  uint64_t skipped = 0;
  std::unordered_map<PlanCacheKey, char, PlanCacheKeyHash> seen;
  std::string block;
  for (size_t i = 0; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    uint32_t expected = 0;
    if ((last && unterminated) || !ParseCrcLine(lines[i], &expected)) {
      block += lines[i];
      block += '\n';
      continue;
    }
    if (Crc32c(block) != expected) {
      ++skipped;
      block.clear();
      continue;
    }
    std::istringstream record_in(block);
    Entry entry;
    const Status parsed = ParseRecord(record_in, &entry);
    block.clear();
    if (!parsed.ok() || seen.count(entry.key) != 0) {
      ++skipped;
      continue;
    }
    seen.emplace(entry.key, 0);
    // File order is least-recent first; push_front keeps front = most recent.
    loaded.push_front(std::move(entry));
  }
  // Leftover block lines with no terminating crc line are a torn append:
  // the record never became durable, dropped without counting as
  // corruption.

  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.corrupt_skipped += skipped;
  if (skipped > 0 && obs_ != nullptr) {
    obs_->metrics().GetCounter("fleet.cache.corrupt_skipped")->Add(skipped);
    obs_->tracer().Instant("cache-corrupt-skip", "fleet", kTrackFleet,
                           {{"skipped", Tracer::ArgUint(skipped)}});
    obs_->Dump("cache-corrupt");
  }
  if (capacity_ == 0) {
    return Status::Ok();
  }
  for (Entry& entry : loaded) {
    if (lru_.size() >= capacity_) {
      break;  // Oldest entries beyond capacity are dropped.
    }
    lru_.push_back(std::move(entry));
    index_[lru_.back().key] = std::prev(lru_.end());
  }
  return Status::Ok();
}

Status PlanCache::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InternalError("plan cache: cannot open for write: " + path);
  }
  out << Serialize();
  out.flush();
  if (!out) {
    return InternalError("plan cache: write failed: " + path);
  }
  return Status::Ok();
}

Status PlanCache::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("plan cache: cannot open: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Load(buffer.str());
}

}  // namespace coign
