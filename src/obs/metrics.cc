#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/support/file_io.h"
#include "src/support/str_util.h"

namespace coign {

namespace {

// Fixed numeric rendering shared by both snapshot formats; part of the
// byte-stability contract.
std::string Num(double value) { return StrFormat("%.9g", value); }

std::string U64(uint64_t value) {
  return StrFormat("%llu", static_cast<unsigned long long>(value));
}

}  // namespace

MetricHistogram::MetricHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

size_t MetricHistogram::BucketFor(double value) const {
  return static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

void MetricHistogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_[BucketFor(value)];
  ++count_;
  sum_ += value;
}

uint64_t MetricHistogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double MetricHistogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

uint64_t MetricHistogram::CountAt(size_t bucket) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bucket < counts_.size() ? counts_[bucket] : 0;
}

double MetricHistogram::UpperBoundAt(size_t bucket) const {
  return bucket < bounds_.size() ? bounds_[bucket]
                                 : std::numeric_limits<double>::infinity();
}

MetricCounter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<MetricCounter>();
  }
  return slot.get();
}

MetricGauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<MetricGauge>();
  }
  return slot.get();
}

MetricHistogram* MetricsRegistry::GetHistogram(
    const std::string& name, std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<MetricHistogram>(std::move(upper_bounds));
  }
  return slot.get();
}

std::vector<std::pair<std::string, double>> MetricsRegistry::NumericSamples()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> samples;
  samples.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, counter] : counters_) {
    samples.emplace_back(name, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    samples.emplace_back(name, gauge->value());
  }
  return samples;
}

std::string MetricsRegistry::SnapshotText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "# coign-metrics v1\n";
  for (const auto& [name, counter] : counters_) {
    out += "counter " + name + " " + U64(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "gauge " + name + " " + Num(gauge->value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    out += "histogram " + name + " count " + U64(hist->count()) + " sum " +
           Num(hist->sum());
    for (size_t b = 0; b < hist->bucket_count(); ++b) {
      const double bound = hist->UpperBoundAt(b);
      out += " le ";
      out += std::isinf(bound) ? "+inf" : Num(bound);
      out += " " + U64(hist->CountAt(b));
    }
    out += "\n";
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"version\":\"coign-metrics v1\",\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + U64(counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + Num(gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"count\":" + U64(hist->count()) +
           ",\"sum\":" + Num(hist->sum()) + ",\"buckets\":[";
    for (size_t b = 0; b < hist->bucket_count(); ++b) {
      if (b > 0) out += ",";
      const double bound = hist->UpperBoundAt(b);
      out += "{\"le\":";
      out += std::isinf(bound) ? "\"+inf\"" : Num(bound);
      out += ",\"count\":" + U64(hist->CountAt(b)) + "}";
    }
    out += "]}";
  }
  out += "}}\n";
  return out;
}

Status MetricsRegistry::WriteText(const std::string& path) const {
  return WriteFile(path, SnapshotText(), "metrics");
}

}  // namespace coign
