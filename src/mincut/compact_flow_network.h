// The flow network for minimum-cut computation, in exact fixed-point units.
//
// The analysis engine reduces "choose a two-machine distribution of minimal
// communication time" to s-t minimum cut on the concrete ICC graph: client
// and server are the terminals, every classification is a node, and edge
// capacities are predicted communication time. Location constraints become
// sentinel (un-cuttable) capacities.
//
// Capacities and flows are CapUnits: 64-bit integers at picosecond scale.
// All residual arithmetic is exact, so every solver (push-relabel,
// relabel-to-front, and the test-only Edmonds-Karp oracle) computes the
// *same* maximum-flow value on every input — no epsilons, no float
// absorption (the 1e30-capacity era had a real non-termination where
// 1e30 - 1e-3 == 1e30 manufactured excess forever). The only lossy step in
// the whole pipeline is the single quantization boundary in the analysis
// engine, where predicted seconds are rounded to units once (see
// SecondsToCapUnits below for the rounding rule and error bound).
//
// CompactFlowNetwork packs every arc into one contiguous array in CSR
// (compressed sparse row) order: arcs out of node v occupy
// [first_out(v), first_out(v+1)), and each arc stores the *global* index
// of its paired reverse arc. Building is a stable counting sort over the
// staged edge list, so each node's arcs appear in edge-insertion order and
// every solver scans them in that order.
//
// The staged edge list stays readable after Finalize(), so the production
// cut (incremental.h) can contract the nodes that undirected sentinel
// edges glue together and solve the smaller quotient network. A cut is a
// side and its value; ExtractCut() reads both off the network that was
// solved, and the production cut lifts only the side back to the
// original nodes.
//
// Re-entrancy contract: CompactFlowNetwork is a plain value type with no
// shared or global state. The one-shot min-cut entry points take it by
// const reference and run on per-call working copies, so concurrent cuts
// on one network are safe.

#ifndef COIGN_SRC_MINCUT_COMPACT_FLOW_NETWORK_H_
#define COIGN_SRC_MINCUT_COMPACT_FLOW_NETWORK_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace coign {

// Fixed-point capacity/flow unit. One unit is one picosecond of predicted
// communication time: fine enough that quantization can never flip a real
// placement decision (network costs are microseconds and up), coarse
// enough that ~107 days of total communication fit in the finite range.
using CapUnits = int64_t;

// Units per second at the quantization boundary (1 unit = 1 ps).
inline constexpr double kCapUnitsPerSecond = 1e12;

// Sentinel for an un-cuttable (location-constraint) edge. This is a true
// sentinel, not a big number folded into ordinary arithmetic: residual
// arithmetic saturates at it (SatAdd/SatSub below), and any cut forced to
// cross a sentinel arc reports exactly kInfiniteCapacity so callers can
// test for unsatisfiable constraints with ==.
inline constexpr CapUnits kInfiniteCapacity = std::numeric_limits<int64_t>::max();

// Largest representable finite capacity. Quantization clamps here;
// arithmetic that exceeds it saturates to the sentinel.
inline constexpr CapUnits kMaxFiniteCapacity = kInfiniteCapacity - 1;

// Saturating arithmetic over [-kInfiniteCapacity, kInfiniteCapacity].
// The symmetric range (INT64_MIN is never produced) keeps negation safe.
inline CapUnits SatAdd(CapUnits a, CapUnits b) {
  CapUnits out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return b > 0 ? kInfiniteCapacity : -kInfiniteCapacity;
  }
  return out < -kInfiniteCapacity ? -kInfiniteCapacity : out;
}

inline CapUnits SatSub(CapUnits a, CapUnits b) {
  CapUnits out = 0;
  if (__builtin_sub_overflow(a, b, &out)) {
    return b < 0 ? kInfiniteCapacity : -kInfiniteCapacity;
  }
  return out < -kInfiniteCapacity ? -kInfiniteCapacity : out;
}

// The quantization boundary: predicted seconds -> units, applied exactly
// once per edge when the analysis engine builds its flow network.
//
// Rounding rule: round half away from zero (llround). Error bound: for
// per-edge times up to 2^53 ps (~2.5 hours — the analysis domain is
// microseconds to minutes, far inside), each edge is off by at most 1 unit
// (1 ps): <= 0.5 from rounding to integer units plus <= 0.5 from
// representing the scaled product in double. A cut crossing E edges is
// therefore off by at most E units from the unquantized value, so any two
// cuts whose true values differ by more than 2E picoseconds keep their
// order — no realistic ICC graph comes near that. Negative and NaN inputs
// clamp to 0; values beyond the finite range clamp to kMaxFiniteCapacity.
inline CapUnits SecondsToCapUnits(double seconds) {
  if (!(seconds > 0.0)) {
    return 0;  // Also catches NaN.
  }
  const double scaled = seconds * kCapUnitsPerSecond;
  if (scaled >= static_cast<double>(kMaxFiniteCapacity)) {
    return kMaxFiniteCapacity;
  }
  return static_cast<CapUnits>(std::llround(scaled));
}

// Units -> seconds, for the report/display layer. The sentinel has no
// finite time; callers must test for it before converting.
inline double CapUnitsToSeconds(CapUnits units) {
  return static_cast<double>(units) / kCapUnitsPerSecond;
}

// A two-way partition produced by a min-cut algorithm: a side and its
// value. Callers that need the crossing edges read them off the side.
struct CutResult {
  // == max flow value, exactly. kInfiniteCapacity when the cut crosses a
  // sentinel arc (constraints unsatisfiable) or the value saturated.
  CapUnits cut_value = 0;
  std::vector<bool> in_source_side;    // Per node.

  int SourceSideCount() const;
};

struct CompactArc {
  int32_t to = 0;
  int32_t reverse = 0;  // Global index of the paired reverse arc.
  CapUnits capacity = 0;
  CapUnits flow = 0;

  // Overflow-checked: a sentinel-capacity arc carrying finite flow (or a
  // reverse arc owing sentinel-scale flow) saturates instead of wrapping.
  CapUnits Residual() const { return SatSub(capacity, flow); }
};

class CompactFlowNetwork {
 public:
  // One staged AddArc/AddEdge call.
  struct Edge {
    int32_t from = 0;
    int32_t to = 0;
    CapUnits capacity = 0;
    bool directed = false;  // Reverse arc: zero-capacity stub vs. capacity.
  };

  CompactFlowNetwork() = default;
  explicit CompactFlowNetwork(int node_count);

  // Staging interface, valid before Finalize(). AddArc is a directed arc
  // whose reverse direction is a zero-capacity residual stub. AddEdge is
  // undirected: capacity in both directions (the usual form for
  // communication graphs — a byte costs the same whichever way it flows).
  void AddArc(int from, int to, CapUnits capacity);
  void AddEdge(int a, int b, CapUnits capacity);

  // Builds the CSR arrays. Idempotent; staging calls are invalid after.
  void Finalize();

  bool finalized() const { return finalized_; }
  int node_count() const { return node_count_; }
  int arc_count() const { return static_cast<int>(arcs_.size()); }
  int edge_count() const { return static_cast<int>(edges_.size()); }
  // The staged edges, in insertion order.
  const std::vector<Edge>& edges() const { return edges_; }

  // CSR accessors (finalized only). Arcs out of `node` are
  // arcs()[first_out(node) .. first_out(node + 1)).
  int first_out(int node) const { return first_out_[static_cast<size_t>(node)]; }
  CompactArc& arc(int index) { return arcs_[static_cast<size_t>(index)]; }
  const CompactArc& arc(int index) const { return arcs_[static_cast<size_t>(index)]; }

  void ResetFlow();

  // The one cut extraction, once a maximum flow of value `flow_value` is
  // in place. The side is every node reachable from `source` through
  // positive-residual arcs: for a maximum flow, the source side of the
  // unique minimal minimum cut. The value is `flow_value`, promoted to
  // exactly kInfiniteCapacity if a sentinel-capacity arc leaves the side,
  // so every solver reports unsatisfiable constraint sets identically.
  CutResult ExtractCut(int source, CapUnits flow_value) const;

 private:
  void Stage(int from, int to, CapUnits capacity, bool directed);

  int node_count_ = 0;
  bool finalized_ = false;
  std::vector<Edge> edges_;
  std::vector<int> first_out_;      // node_count_ + 1 entries.
  std::vector<CompactArc> arcs_;    // 2 * edges_.size() entries.
};

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_COMPACT_FLOW_NETWORK_H_
