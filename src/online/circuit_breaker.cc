#include "src/online/circuit_breaker.h"

#include <algorithm>

#include "src/support/str_util.h"

namespace coign {
namespace {

// An epoch votes "bad" when undelivered/calls or corrupt_rejected/calls
// crosses its threshold. Undelivered calls exhausted their whole retry
// budget, so even a small fraction marks a very sick link; corrupt
// rejects are retried within the budget and need a higher rate to mean
// the link (and not one unlucky burst) is at fault.
constexpr double kUndeliveredThreshold = 0.05;
constexpr double kCorruptThreshold = 0.20;
// Epochs with fewer calls than this cast no vote either way (too little
// traffic to judge a link).
constexpr uint64_t kMinCalls = 4;

}  // namespace

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

void CircuitBreaker::Open() {
  state_ = BreakerState::kOpen;
  consecutive_bad_ = 0;
  current_hold_ = current_hold_ == 0
                      ? std::max<uint64_t>(1, config_.open_epochs)
                      : std::min(current_hold_ * 2, config_.max_open_epochs);
  hold_remaining_ = current_hold_;
}

void CircuitBreaker::Observe(const BreakerSample& epoch) {
  switch (state_) {
    case BreakerState::kClosed: {
      if (epoch.calls < kMinCalls) {
        return;  // Too little traffic to judge the link either way.
      }
      const double calls = static_cast<double>(epoch.calls);
      const bool bad =
          static_cast<double>(epoch.undelivered) / calls > kUndeliveredThreshold ||
          static_cast<double>(epoch.corrupt_rejected) / calls > kCorruptThreshold;
      if (!bad) {
        consecutive_bad_ = 0;
        return;
      }
      if (++consecutive_bad_ >= config_.trip_after) {
        ++trips_;
        Open();
      }
      return;
    }
    case BreakerState::kOpen:
      if (hold_remaining_ > 0) {
        --hold_remaining_;
      }
      if (hold_remaining_ == 0) {
        state_ = BreakerState::kHalfOpen;  // Caller probes this epoch.
      }
      return;
    case BreakerState::kHalfOpen:
      // A probe verdict never arrived (e.g. no wire to probe); stay
      // half-open and let the caller try again next epoch.
      return;
  }
}

void CircuitBreaker::OnProbeResult(bool healthy) {
  if (state_ != BreakerState::kHalfOpen) {
    return;
  }
  ++probes_;
  if (healthy) {
    state_ = BreakerState::kClosed;
    consecutive_bad_ = 0;
    current_hold_ = 0;
    return;
  }
  ++reopens_;
  Open();
}

std::string CircuitBreaker::ToString() const {
  return StrFormat("breaker{%s, trips=%llu, reopens=%llu, probes=%llu}",
                   std::string(BreakerStateName(state_)).c_str(),
                   static_cast<unsigned long long>(trips_),
                   static_cast<unsigned long long>(reopens_),
                   static_cast<unsigned long long>(probes_));
}

}  // namespace coign
