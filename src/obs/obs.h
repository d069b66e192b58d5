// Observability facade: one object bundling the tracer and the metrics
// registry, threaded by pointer through the subsystems a run wants
// instrumented. A null Observability* (the default everywhere) means the
// instrumented code paths cost one pointer compare — tracing is strictly
// opt-in per Transport/Repartitioner/Service instance.
//
// The facade also owns the flight-recorder dump policy: subsystems call
// Dump(reason) at moments worth a post-mortem (quarantine entry, migration
// abandonment) and, when a dump prefix is configured, the current ring
// contents are written to "<prefix>-<n>-<reason>.json". Dumps are capped so
// a flapping fault schedule cannot flood the disk.

#ifndef COIGN_SRC_OBS_OBS_H_
#define COIGN_SRC_OBS_OBS_H_

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace coign {

// Chrome "tid" lanes, one per instrumented subsystem, so exported traces
// group events by layer.
inline constexpr int kTrackTransport = 1;
inline constexpr int kTrackFault = 2;
inline constexpr int kTrackOnline = 3;
inline constexpr int kTrackMigration = 4;
inline constexpr int kTrackFleet = 5;
// Periodic counter samples ("C" events): one lane for every metric series,
// so viewers plot them as stacked value graphs under the span tracks.
inline constexpr int kTrackCounters = 6;

class Observability {
 public:
  Tracer& tracer() { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }

  // Enables flight-recorder dumps; empty prefix (the default) disables
  // them while Dump() still counts occurrences.
  void SetDumpPrefix(std::string prefix) { dump_prefix_ = std::move(prefix); }
  void SetDumpLimit(int limit) { dump_limit_ = limit; }

  // Samples every counter and gauge onto the kTrackCounters trace lane as
  // one "C" event per series at the current trace clock. Call at periodic
  // boundaries (the online loop samples per epoch) to get value-over-time
  // graphs next to the spans. Deterministic: emission order is the
  // registry's sorted order, timestamps come from the trace clock.
  void SampleCounters();

  // Snapshots the ring to "<prefix>-<n>-<reason>.json" and records the
  // occurrence as the "obs.dumps" counter plus an instant event.
  void Dump(const std::string& reason);
  int dumps_written() const { return dumps_written_; }

  Status WriteTrace(const std::string& path) const {
    return tracer_.WriteChromeTrace(path);
  }
  Status WriteMetrics(const std::string& path) const {
    return metrics_.WriteText(path);
  }

 private:
  Tracer tracer_;  // Tracer::kDefaultCapacity events.
  MetricsRegistry metrics_;
  std::string dump_prefix_;
  int dump_limit_ = 8;
  int dumps_written_ = 0;
};

}  // namespace coign

#endif  // COIGN_SRC_OBS_OBS_H_
