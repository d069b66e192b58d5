#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "bench.h"
#include "src/sim/fleet_population.h"

namespace coignbench {

using coign::Result;
using coign::Status;

int32_t SpanRecorder::Begin(const char* name, uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

std::vector<double> SpanRecorder::SelfTimesUs(const std::string& name) const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(self[i]) * 1e-3);
    }
  }
  return out;
}

std::map<uint64_t, double> SpanRecorder::DurationByOpUs(const std::string& name) const {
  std::map<uint64_t, double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out[span.op] += static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
    }
  }
  return out;
}

std::string SpanRecorder::SelfTimeTable() const {
  std::set<std::string> names;
  for (const Span& span : spans_) {
    names.insert(span.name);
  }
  std::string out = Format("%-28s %8s %14s %14s\n", "span", "count", "p50 self us",
                           "p50 total us");
  for (const std::string& name : names) {
    const std::vector<double> self = SelfTimesUs(name);
    out += Format("%-28s %8zu %14.2f %14.2f\n", name.c_str(), self.size(), Median(self),
                  Median(DurationsUs(name)));
  }
  return out;
}

Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return coign::InternalError("cannot open " + path);
  }
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"op\":" << span.op
        << ",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return out.good() ? Status() : coign::InternalError("short write to " + path);
}

void CpuRotator::Pause() {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

CpuRotator::CpuRotator() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus_.push_back(cpu);
    }
  }
  if (cpus_.size() < 2) {
    cpus_.clear();  // Nowhere to move to; leave the mask alone.
  }
}

void CpuRotator::Next() {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  sched_setaffinity(0, sizeof(set), &set);
  next_ = (next_ + 1) % cpus_.size();
  moved_ns_ = NowNs();
}

void CpuRotator::Tick() {
  if (!cpus_.empty() && NowNs() - moved_ns_ >= kPeriodNs) {
    Next();
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + static_cast<long>(mid)));
}

Tail TailOf(std::vector<double> values, double percentile) {
  Tail tail;
  tail.percentile = percentile;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(values.size())));
  const size_t index = std::clamp<size_t>(rank, 1, values.size()) - 1;
  tail.value = values[index];
  tail.beyond = values.size() - 1 - index;
  return tail;
}

double RoundPercentile(const std::vector<double>& op_ms, size_t round_ops, double percentile) {
  std::vector<double> rounds;
  for (size_t begin = 0; begin + round_ops <= op_ms.size(); begin += round_ops) {
    double sum = 0.0;
    for (size_t i = begin; i < begin + round_ops; ++i) {
      sum += op_ms[i];
    }
    rounds.push_back(sum / static_cast<double>(round_ops));
  }
  return TailOf(std::move(rounds), percentile).value;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

unsigned BenchThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::string Format(const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

Result<std::vector<coign::NetworkModel>> ArchetypeLinks(uint64_t seed,
                                                        const coign::NetworkModel& archetype,
                                                        size_t count) {
  // Every archetype of the default mix has weight >= 0.05, so 32 draws per
  // wanted link leave a wide margin; a seed that still falls short fails
  // set-up instead of silently reusing links.
  coign::FleetPopulationOptions population;
  population.client_count = static_cast<int>(32 * count);
  std::vector<coign::NetworkModel> links;
  for (const coign::FleetClient& client : coign::GenerateFleet(population, seed)) {
    if (client.archetype == archetype.name && links.size() < count) {
      links.push_back(client.network);
    }
  }
  if (links.size() < count) {
    return coign::InternalError(Format("seed %llu draws fewer than %zu %s clients",
                                       static_cast<unsigned long long>(seed), count,
                                       archetype.name.c_str()));
  }
  return links;
}

}  // namespace coignbench
