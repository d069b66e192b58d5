// Information loggers (paper §3.3).
//
// "Under direction of the RTE, Coign components pass information about
// application events to the information logger. ... Depending on the
// logger's implementation, it may ignore the events, write the events to a
// log file on disk, or accumulate information about the events into
// in-memory data structures."
//
// Three implementations, as in the paper:
//   * ProfilingLogger — summarizes ICC into an IccProfile (exponential
//     size-range histograms), recorded through an IccProfileBuilder, plus
//     the per-instance communication matrix used for classifier
//     evaluation.
//   * EventLogger — keeps the full ordered event trace.
//   * NullLogger — used during distributed execution; ignores everything.

#ifndef COIGN_SRC_RUNTIME_LOGGER_H_
#define COIGN_SRC_RUNTIME_LOGGER_H_

#include <string>
#include <vector>

#include "src/classify/comm_vector.h"
#include "src/profile/event.h"
#include "src/profile/icc_profile.h"

namespace coign {

class InformationLogger {
 public:
  virtual ~InformationLogger() = default;
  virtual std::string name() const = 0;
  virtual void OnEvent(const ProfileEvent& event) = 0;
  virtual void OnCompute(ClassificationId classification, double seconds) {
    (void)classification;
    (void)seconds;
  }
  virtual void OnAllocate(ClassificationId classification, uint64_t bytes) {
    (void)classification;
    (void)bytes;
  }
};

class ProfilingLogger : public InformationLogger {
 public:
  std::string name() const override { return "profiling-logger"; }
  void OnEvent(const ProfileEvent& event) override;
  void OnCompute(ClassificationId classification, double seconds) override;
  void OnAllocate(ClassificationId classification, uint64_t bytes) override;

  // Registers classification metadata (called by the RTE when a new
  // classification appears).
  void RecordClassification(const ClassificationInfo& info) {
    builder_.RecordClassification(info);
  }

  // The profile recorded so far, its tables sorted.
  IccProfile profile() const { return builder_.Build(); }
  // Instance-level communication of the current execution.
  const CommMatrix& comm_matrix() const { return comm_; }

  // Clears per-execution state (the comm matrix) but keeps the summarized
  // profile, which accumulates across scenario runs.
  void BeginExecution() { comm_.Clear(); }

 private:
  IccProfileBuilder builder_;
  CommMatrix comm_;
};

class EventLogger : public InformationLogger {
 public:
  // `max_events` bounds memory; 0 = unbounded.
  explicit EventLogger(size_t max_events = 0) : max_events_(max_events) {}

  std::string name() const override { return "event-logger"; }
  void OnEvent(const ProfileEvent& event) override;

  const std::vector<ProfileEvent>& events() const { return events_; }
  uint64_t dropped_events() const { return dropped_; }
  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  size_t max_events_;
  std::vector<ProfileEvent> events_;
  uint64_t dropped_ = 0;
};

class NullLogger : public InformationLogger {
 public:
  std::string name() const override { return "null-logger"; }
  void OnEvent(const ProfileEvent& event) override { (void)event; }
};

}  // namespace coign

#endif  // COIGN_SRC_RUNTIME_LOGGER_H_
