#include "src/runtime/drift.h"

#include <algorithm>
#include <cmath>

#include "src/support/str_util.h"

namespace coign {
namespace {

// Re-profiling is recommended below this similarity or above this
// unprofiled fraction.
constexpr double kDriftSimilarityThreshold = 0.85;
constexpr double kDriftUnprofiledThreshold = 0.05;

}  // namespace

uint64_t MessageCounts::PairKeyOf(ClassificationId src, ClassificationId dst) {
  ClassificationId a = src;
  ClassificationId b = dst;
  if (a > b) {
    std::swap(a, b);
  }
  return (static_cast<uint64_t>(a) << 32) | b;
}

void MessageCounts::Record(ClassificationId src, ClassificationId dst, uint64_t messages) {
  pairs_[PairKeyOf(src, dst)] += messages;
  total_ += messages;
}

uint64_t MessageCounts::CountOf(ClassificationId src, ClassificationId dst) const {
  auto it = pairs_.find(PairKeyOf(src, dst));
  return it == pairs_.end() ? 0 : it->second;
}

MessageCounts CountsFromProfile(const IccProfile& profile) {
  MessageCounts counts;
  for (const auto& [key, summary] : profile.calls()) {
    counts.Record(key.src, key.dst, summary.call_count());
  }
  return counts;
}

std::string DriftReport::ToString() const {
  return StrFormat(
      "drift{similarity=%.3f, observed=%llu, unprofiled=%.1f%%, reprofile=%s}", similarity,
      static_cast<unsigned long long>(observed_messages), unprofiled_fraction * 100.0,
      reprofile_recommended ? "yes" : "no");
}

DriftReport DetectDrift(const MessageCounts& profiled, const MessageCounts& observed,
                        const DriftOptions& options) {
  DriftReport report;
  report.observed_messages = observed.total_messages();
  if (report.observed_messages < options.min_messages) {
    return report;  // Not enough evidence; keep the current distribution.
  }

  // Cosine similarity over the union of pairs, on sqrt-transformed counts:
  // the variance-stabilizing transform keeps one enormous pair (a long
  // document's file reads) from hiding drift everywhere else, and keeps
  // document *length* from reading as usage drift.
  double dot = 0.0, norm_observed = 0.0, norm_profiled = 0.0;
  uint64_t unprofiled = 0;
  for (const auto& [pair, count] : observed.pairs()) {
    const double x = std::sqrt(static_cast<double>(count));
    norm_observed += x * x;
    auto it = profiled.pairs().find(pair);
    if (it == profiled.pairs().end()) {
      unprofiled += count;
      continue;
    }
    dot += x * std::sqrt(static_cast<double>(it->second));
  }
  for (const auto& [pair, count] : profiled.pairs()) {
    const double y = std::sqrt(static_cast<double>(count));
    norm_profiled += y * y;
  }
  if (norm_observed > 0.0 && norm_profiled > 0.0) {
    report.similarity = dot / (std::sqrt(norm_observed) * std::sqrt(norm_profiled));
  } else {
    report.similarity = norm_observed == norm_profiled ? 1.0 : 0.0;
  }
  // Guard the empty-window case (reachable when min_messages is 0): an
  // application that sent nothing has not drifted.
  report.unprofiled_fraction =
      report.observed_messages == 0
          ? 0.0
          : static_cast<double>(unprofiled) / static_cast<double>(report.observed_messages);
  report.reprofile_recommended = report.similarity < kDriftSimilarityThreshold ||
                                 report.unprofiled_fraction > kDriftUnprofiledThreshold;
  return report;
}

}  // namespace coign
