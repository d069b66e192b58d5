#include "src/obs/trace.h"

#include <algorithm>
#include <sstream>

#include "src/support/file_io.h"
#include "src/support/str_util.h"

namespace coign {

namespace {

constexpr double kLogicalTickSeconds = 1e-6;  // One tick exports as 1us.

// JSON string escaping for names/categories/keys. Event names here are
// ASCII identifiers; anything unexpected is escaped numerically.
std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Microseconds(double seconds) {
  // Fixed precision: 3 decimals of a microsecond (nanosecond grid). The
  // format is part of the determinism contract — same doubles, same bytes.
  return StrFormat("%.3f", seconds * 1e6);
}

void AppendArgs(const std::vector<std::pair<std::string, std::string>>& args,
                std::string* out) {
  if (args.empty()) {
    return;
  }
  out->append(",\"args\":{");
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      out->push_back(',');
    }
    out->push_back('"');
    out->append(JsonEscape(args[i].first));
    out->append("\":");
    out->append(args[i].second);
  }
  out->push_back('}');
}

}  // namespace

Tracer::Tracer(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

void Tracer::SetClock(ClockFn clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

double Tracer::Now() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (clock_) {
    return clock_();
  }
  return kLogicalTickSeconds * static_cast<double>(logical_ticks_++);
}

void Tracer::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  event.seq = next_seq_++;
  ring_.push_back(std::move(event));
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

void Tracer::Instant(std::string name, std::string category, int track,
                     std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.name = std::move(name);
  event.category = std::move(category);
  event.track = track;
  event.start_seconds = Now();
  event.args = std::move(args);
  Record(std::move(event));
}

void Tracer::Counter(std::string name, int track, double value) {
  CounterAt(std::move(name), track, Now(), value);
}

void Tracer::CounterAt(std::string name, int track, double start_seconds,
                       double value) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kCounter;
  event.name = std::move(name);
  event.track = track;
  event.start_seconds = start_seconds;
  event.args.emplace_back("value", ArgDouble(value));
  Record(std::move(event));
}

void Tracer::Complete(std::string name, std::string category, int track,
                      double start_seconds, double end_seconds,
                      std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.name = std::move(name);
  event.category = std::move(category);
  event.track = track;
  event.start_seconds = start_seconds;
  event.duration_seconds = std::max(0.0, end_seconds - start_seconds);
  event.args = std::move(args);
  Record(std::move(event));
}

std::string Tracer::ArgString(std::string_view value) {
  return "\"" + JsonEscape(value) + "\"";
}

std::string Tracer::ArgDouble(double value) { return StrFormat("%.9g", value); }

std::string Tracer::ArgInt(int64_t value) {
  return StrFormat("%lld", static_cast<long long>(value));
}

std::string Tracer::ArgUint(uint64_t value) {
  return StrFormat("%llu", static_cast<unsigned long long>(value));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<TraceEvent>(ring_.begin(), ring_.end());
}

std::string Tracer::ExportChromeTrace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(128 + ring_.size() * 96);
  out.append("{\"traceEvents\":[\n");
  bool first = true;
  for (const TraceEvent& event : ring_) {
    if (!first) {
      out.append(",\n");
    }
    first = false;
    out.push_back('{');
    out.append("\"name\":\"");
    out.append(JsonEscape(event.name));
    out.append("\"");
    if (!event.category.empty()) {
      out.append(",\"cat\":\"");
      out.append(JsonEscape(event.category));
      out.append("\"");
    }
    switch (event.phase) {
      case TraceEvent::Phase::kComplete:
        out.append(",\"ph\":\"X\",\"ts\":");
        out.append(Microseconds(event.start_seconds));
        out.append(",\"dur\":");
        out.append(Microseconds(event.duration_seconds));
        break;
      case TraceEvent::Phase::kInstant:
        out.append(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        out.append(Microseconds(event.start_seconds));
        break;
      case TraceEvent::Phase::kCounter:
        out.append(",\"ph\":\"C\",\"ts\":");
        out.append(Microseconds(event.start_seconds));
        break;
    }
    out.append(StrFormat(",\"pid\":1,\"tid\":%d", event.track));
    AppendArgs(event.args, &out);
    out.push_back('}');
  }
  out.append("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
  out.append(StrFormat("\"clock\":\"%s\"", clock_ ? "sim" : "logical"));
  out.append(StrFormat(",\"recorded\":\"%llu\",\"dropped\":\"%llu\"",
                       static_cast<unsigned long long>(next_seq_),
                       static_cast<unsigned long long>(dropped_)));
  out.append("}}\n");
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, ExportChromeTrace(), "trace");
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  logical_ticks_ = 0;
  next_seq_ = 0;
  dropped_ = 0;
}

TraceSpan::TraceSpan(Tracer* tracer, std::string name, std::string category,
                     int track)
    : tracer_(tracer),
      name_(std::move(name)),
      category_(std::move(category)),
      track_(track),
      ended_(tracer == nullptr) {
  if (tracer_ != nullptr) {
    start_seconds_ = tracer_->Now();
  }
}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::AddArg(std::string key, std::string_view value) {
  if (!ended_) {
    args_.emplace_back(std::move(key), Tracer::ArgString(value));
  }
}

void TraceSpan::AddArg(std::string key, double value) {
  if (!ended_) {
    args_.emplace_back(std::move(key), Tracer::ArgDouble(value));
  }
}

void TraceSpan::AddArg(std::string key, uint64_t value) {
  if (!ended_) {
    args_.emplace_back(std::move(key), Tracer::ArgUint(value));
  }
}

void TraceSpan::End(double extra_seconds) {
  if (ended_) {
    return;
  }
  ended_ = true;
  const double end = std::max(start_seconds_, tracer_->Now() + extra_seconds);
  tracer_->Complete(std::move(name_), std::move(category_), track_,
                    start_seconds_, end, std::move(args_));
}

}  // namespace coign
