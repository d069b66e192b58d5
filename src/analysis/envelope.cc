#include "src/analysis/envelope.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "src/mincut/incremental.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

using Wide = unsigned __int128;

// A key bracket's relative half-width, 8u for u = 2^-53: more than the
// 3.01u of the rounded breakpoint's three roundings plus the u of RN(β)
// and the u of the bracket's own rounding (see Lookup in envelope.h).
constexpr double kBracketWidth = 0x1p-50;

// mantissa·2^exponent: the exact value of a double, or of its product with
// a 64-bit integer or another double (mantissas stay below 2^117).
struct Dyadic {
  Wide mantissa = 0;
  int exponent = 0;
};

Dyadic ExactValue(double value) {
  int exponent = 0;
  const double fraction = std::frexp(value, &exponent);  // In [0.5, 1).
  return {static_cast<Wide>(std::ldexp(fraction, 53)), exponent - 53};
}

Dyadic Times(Dyadic d, uint64_t factor) { return {d.mantissa * factor, d.exponent}; }

Dyadic Times(Dyadic a, Dyadic b) {
  return {a.mantissa * b.mantissa, a.exponent + b.exponent};
}

int BitWidth(Wide x) {
  const uint64_t high = static_cast<uint64_t>(x >> 64);
  const uint64_t low = static_cast<uint64_t>(x);
  if (high != 0) {
    return 128 - __builtin_clzll(high);
  }
  return low == 0 ? 0 : 64 - __builtin_clzll(low);
}

int Sign(Wide a, Wide b) { return (a > b) - (a < b); }

int Compare(Dyadic a, Dyadic b) {
  if (a.mantissa == 0 || b.mantissa == 0) {
    return Sign(a.mantissa != 0, b.mantissa != 0);
  }
  const int a_top = BitWidth(a.mantissa) + a.exponent;
  const int b_top = BitWidth(b.mantissa) + b.exponent;
  if (a_top != b_top) {
    return a_top < b_top ? -1 : 1;
  }
  // Same magnitude: aligning the larger exponent down widens that
  // mantissa to exactly the other's width, so nothing overflows.
  if (a.exponent > b.exponent) {
    a.mantissa <<= a.exponent - b.exponent;
  } else {
    b.mantissa <<= b.exponent - a.exponent;
  }
  return Sign(a.mantissa, b.mantissa);
}

int Compare(const LambdaRatio& a, const LambdaRatio& b) {
  return Sign(Wide{a.num} * b.den, Wide{b.num} * a.den);
}

// A cut found by a probe: its line M + λB and its client side.
struct Line {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::vector<bool> client_side;
};

bool SameLine(const Line& a, const Line& b) {
  return a.messages == b.messages && a.bytes == b.bytes;
}

// Where line a meets line b, for a.messages < b.messages and
// a.bytes > b.bytes.
LambdaRatio Meet(const Line& a, const Line& b) {
  return {b.messages - a.messages, a.bytes - b.bytes};
}

// A line's cost under probe weights (wm, wb).
Wide Cost(const Line& line, uint64_t wm, uint64_t wb) {
  return Wide{line.messages} * wm + Wide{line.bytes} * wb;
}

class Prober {
 public:
  explicit Prober(const ConcreteGraph& graph) : graph_(graph) {}

  // The minimal minimum cut with every communication edge priced
  // messages·wm + bytes·wb (the caller has bounded every sum).
  Result<Line> Probe(uint64_t wm, uint64_t wb) {
    CompactFlowNetwork network(graph_.node_count());
    for (const ConcreteEdge& edge : graph_.edges()) {
      network.AddEdge(edge.a, edge.b,
                      edge.constraint
                          ? kInfiniteCapacity
                          : static_cast<CapUnits>(edge.messages * wm + edge.bytes * wb));
    }
    network.Finalize();
    solver_.Reset(std::move(network), ConcreteGraph::kClientNode, ConcreteGraph::kServerNode);
    CutResult cut = solver_.Solve();
    ++solves_;
    if (cut.cut_value == kInfiniteCapacity) {
      return FailedPreconditionError(kUnsatisfiableConstraints);
    }
    Line line;
    for (const ConcreteEdge& edge : graph_.edges()) {
      if (!edge.constraint && cut.in_source_side[static_cast<size_t>(edge.a)] !=
                                  cut.in_source_side[static_cast<size_t>(edge.b)]) {
        line.messages += edge.messages;
        line.bytes += edge.bytes;
      }
    }
    line.client_side = std::move(cut.in_source_side);
    return line;
  }

  size_t solves() const { return solves_; }

 private:
  const ConcreteGraph& graph_;
  IncrementalMinCut solver_;
  size_t solves_ = 0;
};

// Appends the envelope lines strictly between `left` and `right`, in λ
// order. Both are optimal somewhere, left at smaller λ than right.
Status Refine(Prober& prober, const Line& left, const Line& right, std::vector<Line>* between) {
  const LambdaRatio meet = Meet(left, right);
  Result<Line> probe = prober.Probe(meet.den, meet.num);
  if (!probe.ok()) {
    return probe.status();
  }
  if (Cost(*probe, meet.den, meet.num) >= Cost(left, meet.den, meet.num)) {
    return Status::Ok();  // Nothing below left and right: a breakpoint.
  }
  const Line middle = *std::move(probe);
  const Status status = Refine(prober, left, middle, between);
  if (!status.ok()) {
    return status;
  }
  between->push_back(middle);
  return Refine(prober, middle, right, between);
}

std::string TrafficString(Wide total) {
  if (total > static_cast<Wide>(kMaxFiniteCapacity)) {
    return "over 2^63";
  }
  return StrFormat("%llu", static_cast<unsigned long long>(total));
}

}  // namespace

double LambdaRatio::ToDouble() const {
  return den == 0 ? std::numeric_limits<double>::infinity()
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::string LambdaRatio::ToString() const {
  if (num == 0) {
    return "0";
  }
  if (den == 0) {
    return "inf";
  }
  return StrFormat("%llu/%llu", static_cast<unsigned long long>(num),
                   static_cast<unsigned long long>(den));
}

bool operator==(const LambdaRatio& a, const LambdaRatio& b) { return Compare(a, b) == 0; }
bool operator<(const LambdaRatio& a, const LambdaRatio& b) { return Compare(a, b) < 0; }

int CompareLambda(const LambdaKey& a, const LambdaKey& b) {
  if (a.value != b.value) {
    return a.value < b.value ? -1 : 1;
  }
  // spb_a / pm_a vs spb_b / pm_b, cross-multiplied.
  return Compare(Times(ExactValue(a.seconds_per_byte), ExactValue(b.per_message_seconds)),
                 Times(ExactValue(b.seconds_per_byte), ExactValue(a.per_message_seconds)));
}

int CompareLambda(const NetworkProfile& a, const NetworkProfile& b) {
  return CompareLambda(LambdaKey(a.seconds_per_byte, a.per_message_seconds),
                       LambdaKey(b.seconds_per_byte, b.per_message_seconds));
}

size_t CutEnvelope::SegmentOf(const LambdaKey& key) const {
  // Segments after the first start at the finite breakpoints; count those
  // at or below λ. A scan rather than a binary search, so that no branch
  // depends on the key; K is small next to the 2K−1 solves that found the
  // breakpoints.
  size_t above = 0;    // Brackets the key lies above.
  size_t reached = 0;  // Brackets whose low end the key reaches.
  for (const Breakpoint& breakpoint : breakpoints_) {
    above += key.value > breakpoint.high;
    reached += key.value >= breakpoint.low;
  }
  if (above == reached) {
    return above;  // Outside every bracket: the key decides.
  }
  // Inside a bracket: spb·den >= pm·num, exactly.
  const Dyadic per_byte = ExactValue(key.seconds_per_byte);
  const Dyadic per_message = ExactValue(key.per_message_seconds);
  const auto at_or_below = [&](const Breakpoint& breakpoint) {
    return Compare(Times(per_byte, breakpoint.lambda.den),
                   Times(per_message, breakpoint.lambda.num)) >= 0;
  };
  return static_cast<size_t>(
      std::partition_point(breakpoints_.begin(), breakpoints_.end(), at_or_below) -
      breakpoints_.begin());
}

size_t CutEnvelope::SegmentOf(const NetworkProfile& network) const {
  return SegmentOf(LambdaKey(network.seconds_per_byte, network.per_message_seconds));
}

Result<CutEnvelope> CutEnvelope::Solve(ConcreteGraph graph, size_t non_remotable_pairs) {
  Wide total_messages = 0;
  Wide total_bytes = 0;
  for (const ConcreteEdge& edge : graph.edges()) {
    total_messages += edge.messages;
    total_bytes += edge.bytes;
  }
  const Wide limit = static_cast<Wide>(kMaxFiniteCapacity);
  if (total_messages > limit || total_bytes > limit ||
      2 * (total_messages + 1) * (total_bytes + 1) > limit) {
    return OutOfRangeError(StrFormat(
        "profile traffic too large to price exactly: %s messages and %s bytes; "
        "2*(messages+1)*(bytes+1) must not exceed %lld",
        TrafficString(total_messages).c_str(), TrafficString(total_bytes).c_str(),
        static_cast<long long>(kMaxFiniteCapacity)));
  }
  const uint64_t messages = static_cast<uint64_t>(total_messages);
  const uint64_t bytes = static_cast<uint64_t>(total_bytes);

  CutEnvelope envelope;
  envelope.graph_ = std::move(graph);
  envelope.non_remotable_pairs_ = non_remotable_pairs;
  Prober prober(envelope.graph_);

  // The end lines: fewest messages then fewest bytes, and the reverse.
  Result<Line> first = prober.Probe(bytes + 1, 1);
  if (!first.ok()) {
    return first.status();
  }
  Result<Line> last = prober.Probe(1, messages + 1);
  if (!last.ok()) {
    return last.status();
  }
  std::vector<Line> lines;
  lines.push_back(*std::move(first));
  if (!SameLine(lines.front(), *last)) {
    std::vector<Line> between;
    const Status status = Refine(prober, lines.front(), *last, &between);
    if (!status.ok()) {
      return status;
    }
    for (Line& line : between) {
      lines.push_back(std::move(line));
    }
    lines.push_back(*std::move(last));
  }

  // Drop lines that touch the envelope at a single λ: both neighbours
  // meet them at the same point.
  std::vector<size_t> kept;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i == 0 || i + 1 == lines.size() ||
        Meet(lines[i - 1], lines[i]) < Meet(lines[i], lines[i + 1])) {
      kept.push_back(i);
    }
  }

  for (size_t k = 0; k < kept.size(); ++k) {
    Line& line = lines[kept[k]];
    EnvelopeSegment segment;
    segment.from = k == 0 ? LambdaRatio{0, 1} : Meet(lines[kept[k - 1]], line);
    segment.to = k + 1 == kept.size() ? LambdaRatio{1, 0} : Meet(line, lines[kept[k + 1]]);
    segment.messages = line.messages;
    segment.bytes = line.bytes;
    segment.client_side = std::move(line.client_side);
    envelope.segments_.push_back(std::move(segment));
  }
  // Key brackets (see Lookup in envelope.h): the rounded breakpoint
  // widened by 2^-50 = 8 units in the last place each way.
  for (size_t s = 1; s < envelope.segments_.size(); ++s) {
    const LambdaRatio& lambda = envelope.segments_[s].from;
    const double rounded = static_cast<double>(lambda.num) / static_cast<double>(lambda.den);
    envelope.breakpoints_.push_back(
        {lambda, rounded * (1.0 - kBracketWidth), rounded * (1.0 + kBracketWidth)});
  }
  envelope.solves_ = prober.solves();
  return envelope;
}

}  // namespace coign
