#include "tests/oracles/lambda_oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace coign::lambda_oracle {
namespace {

using Quad = __float128;

constexpr uint64_t kExactTermLimit = uint64_t{1} << 60;

int Sign(Quad a, Quad b) { return (a > b) - (a < b); }

}  // namespace

int CompareLambda(double spb_a, double pm_a, double spb_b, double pm_b) {
  return Sign(Quad{spb_a} * Quad{pm_b}, Quad{spb_b} * Quad{pm_a});
}

size_t SegmentOf(const std::vector<LambdaRatio>& breakpoints, double spb, double pm) {
  size_t at_or_below = 0;
  for (const LambdaRatio& breakpoint : breakpoints) {
    if (breakpoint.num >= kExactTermLimit || breakpoint.den >= kExactTermLimit) {
      std::fprintf(stderr, "lambda_oracle: breakpoint %llu/%llu is beyond the exact range\n",
                   static_cast<unsigned long long>(breakpoint.num),
                   static_cast<unsigned long long>(breakpoint.den));
      std::abort();
    }
    // λ >= num/den  <=>  spb·den >= pm·num.
    if (Sign(Quad{spb} * static_cast<Quad>(breakpoint.den),
             Quad{pm} * static_cast<Quad>(breakpoint.num)) >= 0) {
      ++at_or_below;
    }
  }
  return at_or_below;
}

uint32_t MedianMember(const std::vector<FleetClient>& fleet, std::vector<uint32_t> members) {
  std::sort(members.begin(), members.end(), [&](uint32_t a, uint32_t b) {
    const NetworkProfile link_a = LossInflatedLink(fleet[a]);
    const NetworkProfile link_b = LossInflatedLink(fleet[b]);
    const int by_lambda = CompareLambda(link_a.seconds_per_byte, link_a.per_message_seconds,
                                        link_b.seconds_per_byte, link_b.per_message_seconds);
    return by_lambda != 0 ? by_lambda < 0 : a < b;
  });
  return members[(members.size() - 1) / 2];
}

}  // namespace coign::lambda_oracle
