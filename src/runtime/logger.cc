#include "src/runtime/logger.h"

namespace coign {

void ProfilingLogger::OnEvent(const ProfileEvent& event) {
  switch (event.kind) {
    case EventKind::kComponentInstantiation:
      builder_.RecordInstantiation(event.subject_classification);
      return;
    case EventKind::kInterfaceCall: {
      CallKey key;
      key.src = event.caller_classification;
      key.dst = event.subject_classification;
      key.iid = event.iid;
      key.method = event.method;
      builder_.RecordCall(key, event.request_bytes, event.reply_bytes, event.remotable);
      // Instance-level weights for classifier evaluation: total bytes that
      // would cross the wire between the two instances.
      comm_.Add(event.caller, event.subject,
                static_cast<double>(event.request_bytes + event.reply_bytes));
      return;
    }
    case EventKind::kComponentDestruction:
    case EventKind::kInterfaceInstantiation:
    case EventKind::kInterfaceDestruction:
      return;  // Summarized profiles do not track these.
  }
}

void ProfilingLogger::OnCompute(ClassificationId classification, double seconds) {
  builder_.RecordCompute(classification, seconds);
}

void ProfilingLogger::OnAllocate(ClassificationId classification, uint64_t bytes) {
  builder_.RecordAllocation(classification, bytes);
}

void EventLogger::OnEvent(const ProfileEvent& event) {
  if (max_events_ != 0 && events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

}  // namespace coign
