// The exact cut envelope: every network's optimal cut from 2K-1 solves.
//
// Under Coign's cost model a cut that crosses M one-way messages and B
// payload bytes costs M·per_message_seconds + B·seconds_per_byte. Divided
// by per_message_seconds that is M + λB, with
// λ = seconds_per_byte / per_message_seconds, so the optimal cut depends
// on a network only through λ. Over λ ∈ (0, ∞) the optimal cost is the
// lower envelope of the lines M + λB of every feasible cut. Few cuts reach
// it (four on the Octarine o_newdoc + o_oldwp3 profile); each owns one λ
// interval, its segment, and serves every network whose λ lies there.
//
// Search (Eisner & Severance, J. ACM 1976). The two end lines come from
// lexicographic probes: fewest messages then fewest bytes (λ → 0), and
// fewest bytes then fewest messages (λ → ∞). Between lines L = (M1, B1)
// and R = (M2, B2) a probe prices every edge at m·(B1−B2) + b·(M2−M1),
// the cost at their intersection λ* = (M2−M1)/(B1−B2) scaled to integers.
// A cut strictly below both there is a new line, and the search recurses
// on both sides; otherwise λ* is a breakpoint. K ≥ 2 lines take 2K−1
// solves, a single line 2.
// The cuts need not be nested as λ grows (on the benchmark profile the
// server side shrinks from 16 classifications to 3, then grows to 5); the
// search only needs every edge's cost to be linear in λ.
//
// Exactness. No double reaches a probe: each is priced in integers and
// solved by the production cut path (one cold push-relabel solve), and
// every comparison is exact 128-bit integer arithmetic. Every finite
// capacity sum is at most Mtot·wm + Btot·wb ≤ 2·(Mtot+1)·(Btot+1) for the
// profile's total traffic Mtot, Btot; that bound is checked once against
// kMaxFiniteCapacity, and a profile that fails it gets OutOfRange, never a
// wrong cut.
//
// Canonical cut. A segment's cut is the intersection of the client sides
// of every cut on the segment's line: the solver's minimal minimum cut at
// any λ strictly inside the segment. Each probe's cut already is that for
// its own line, wherever the probe sat: the probe returns the
// intersection of all minimum cuts at its λ, every cut on its line is one
// of them, and it is itself on that line. So no segment is re-solved. A
// line that touches the envelope at a single λ owns no segment and is
// dropped.
//
// Lookup. A network's λ is placed among the breakpoints key first
// (LambdaKey). Its key is q = RN(spb / pm), the IEEE quotient of its two
// cost terms, correctly rounded to nearest, so it can be 0 or +∞.
// Rounding to nearest is monotone: λ ≥ β implies q ≥ RN(β). So a key
// below RN(β) is a λ below β, and a key above RN(β) a λ above it. Each
// finite breakpoint β = num / den carries a double bracket [low, high]
// that holds RN(β), computed once by Solve. The rounded breakpoint
// r = RN(RN(num) / RN(den)) is within a factor 1 ± 3.01u of β (three
// roundings, u = 2^-53) and RN(β) within 1 ± u, so r widened by
// 1 ± 2^-50 = 1 ± 8u (one more rounding) holds RN(β) strictly inside.
// The relative bounds hold because 1 ≤ num, den < 2^63 keeps breakpoints
// in [2^-63, 2^63], far from underflow and overflow. A key outside every
// bracket is placed by double comparisons alone; only a key inside one
// runs the exact test, which cross-multiplies the terms' exact values in
// 128-bit integers. Likewise, two keys order two links' λ unless they are
// equal, and only equal keys are compared exactly. A network exactly on a
// breakpoint belongs to the segment on its right (the higher-λ side):
// segments are [from, to).

#ifndef COIGN_SRC_ANALYSIS_ENVELOPE_H_
#define COIGN_SRC_ANALYSIS_ENVELOPE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/concrete_graph.h"
#include "src/net/network_profiler.h"
#include "src/support/status.h"

namespace coign {

inline constexpr char kUnsatisfiableConstraints[] =
    "constraints are unsatisfiable: a constraint edge crosses every cut";

// An exact λ = num / den, not reduced; den == 0 is +∞. Comparisons are by
// value.
struct LambdaRatio {
  uint64_t num = 0;
  uint64_t den = 1;

  double ToDouble() const;
  // "num/den" exactly; "0" and "inf" at the ends.
  std::string ToString() const;

  friend bool operator==(const LambdaRatio& a, const LambdaRatio& b);
  friend bool operator<(const LambdaRatio& a, const LambdaRatio& b);
};

// A link's λ as one double, with the two cost terms it came from for the
// exact comparison of equal keys. Terms finite and > 0.
struct LambdaKey {
  LambdaKey(double seconds_per_byte, double per_message_seconds)
      : value(seconds_per_byte / per_message_seconds),
        seconds_per_byte(seconds_per_byte),
        per_message_seconds(per_message_seconds) {}

  // seconds_per_byte / per_message_seconds, rounded once: 0 when it
  // underflows, +∞ when it overflows.
  double value;
  double seconds_per_byte;
  double per_message_seconds;
};

struct EnvelopeSegment {
  // The λ interval [from, to) the cut is optimal on: 0 for the first
  // segment, +∞ for the last.
  LambdaRatio from;
  LambdaRatio to;
  // Messages and bytes crossing the cut: its line M + λB.
  uint64_t messages = 0;
  uint64_t bytes = 0;
  // The cut: true for concrete-graph nodes on the client side.
  std::vector<bool> client_side;
};

class CutEnvelope {
 public:
  // Segments in λ order; never empty.
  const std::vector<EnvelopeSegment>& segments() const { return segments_; }
  // Push-relabel solves the search took: 2K−1 for K ≥ 2 segments (2 for
  // one), plus two for each line that touched the envelope at one point.
  size_t solves() const { return solves_; }

  // The concrete graph the cuts index (its seconds are not priced).
  const ConcreteGraph& graph() const { return graph_; }

  // Index of the segment holding the key's λ, exactly (see Lookup).
  size_t SegmentOf(const LambdaKey& key) const;
  // The same for `network`'s λ. Both cost terms must be finite and > 0.
  size_t SegmentOf(const NetworkProfile& network) const;

 private:
  friend class ProfileAnalysisEngine;

  // A finite breakpoint (the `from` of every segment but the first) and
  // its key bracket: every key below `low` is a λ below `lambda`, every
  // key above `high` a λ above it.
  struct Breakpoint {
    LambdaRatio lambda;
    double low = 0.0;
    double high = 0.0;
  };

  // The search over `graph`'s cuts; non_remotable_pairs rides along for
  // result assembly.
  static Result<CutEnvelope> Solve(ConcreteGraph graph, size_t non_remotable_pairs);

  ConcreteGraph graph_;
  size_t non_remotable_pairs_ = 0;
  std::vector<EnvelopeSegment> segments_;
  std::vector<Breakpoint> breakpoints_;  // In λ order.
  size_t solves_ = 0;
};

// Sign of λ(a) − λ(b), computed exactly: by the keys unless they are
// equal, then by the exact cross-products of the terms (see Lookup).
int CompareLambda(const LambdaKey& a, const LambdaKey& b);
// The same for two profiles' λ. Cost terms finite and > 0.
int CompareLambda(const NetworkProfile& a, const NetworkProfile& b);

}  // namespace coign

#endif  // COIGN_SRC_ANALYSIS_ENVELOPE_H_
