// The profile analysis engine (paper §2).
//
// Pipeline: ICC profile + location constraints → abstract ICC graph →
// (× network profile) → concrete graph → minimum cut → distribution.
// The production cut is highest-label push-relabel on a flat CSR network,
// warm-startable across calls through a MinCutSession; the paper's
// lift-to-front algorithm remains selectable for cross-checking and
// ablation. Both return the identical exact cut: for a maximum flow the
// residual-reachable source side is the unique minimal minimum cut, so the
// distribution does not depend on the algorithm (or on warm vs cold
// starts).

#ifndef COIGN_SRC_ANALYSIS_ENGINE_H_
#define COIGN_SRC_ANALYSIS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/graph/concrete_graph.h"
#include "src/graph/constraints.h"
#include "src/graph/distribution.h"
#include "src/graph/icc_graph.h"
#include "src/mincut/compact_flow_network.h"
#include "src/mincut/incremental.h"
#include "src/net/network_profiler.h"
#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign {

enum class CutAlgorithm {
  kPushRelabel,     // Production: highest-label push-relabel, warm-startable.
  kRelabelToFront,  // The paper's lift-to-front min-cut (differential oracle).
};

struct AnalysisOptions {
  CutAlgorithm algorithm = CutAlgorithm::kPushRelabel;
  // Extra explicit constraints merged on top of API-derived ones.
  LocationConstraints extra_constraints;
  // When false, API-derived pins are skipped (ablation).
  bool derive_api_constraints = true;
};

struct CutEdgeReport {
  ClassificationId client_side = kNoClassification;
  ClassificationId server_side = kNoClassification;
  double seconds = 0.0;
};

struct AnalysisResult {
  Distribution distribution;
  // The exact fixed-point cut value (picosecond units) the min-cut layer
  // chose — both algorithms return this identical integer. Reports convert
  // it back to seconds with CapUnitsToSeconds for display.
  CapUnits cut_value_units = 0;
  // Predicted inter-machine communication time of the chosen distribution.
  double predicted_comm_seconds = 0.0;
  // Communication time if every pair were split — the graph's total weight.
  double total_comm_seconds = 0.0;
  // Classifications per side.
  size_t client_classifications = 0;
  size_t server_classifications = 0;
  // Profiled instances per side (what the paper's figures count).
  uint64_t client_instances = 0;
  uint64_t server_instances = 0;
  // Pairs joined by non-remotable interfaces (solid black lines in Figs 4-5).
  size_t non_remotable_pairs = 0;
  // Crossing communication edges, heaviest first.
  std::vector<CutEdgeReport> cut_edges;
};

// Warm-start cut state carried across Analyze calls. A session retains
// the CSR flow network and the previous maximum flow; when the next
// Analyze sees the same graph topology it applies capacity drift as
// deltas and resumes the solve instead of starting cold, and when the
// whole graph (topology + capacities) is byte-identical it returns the
// previous cut outright. Results are bit-for-bit identical with and
// without a session — the session only changes how much work the solve
// performs. Each session belongs to exactly one caller thread at a time
// (the fleet service keeps one per worker slot; the online repartitioner
// keeps one per policy).
class MinCutSession {
 public:
  MinCutSession() = default;

  // Cumulative solver work and warm-start accounting across the
  // session's lifetime (a fingerprint short-circuit counts as a
  // warm-start hit whose entire flow is reused).
  const MinCutSolveStats& stats() const { return stats_; }

 private:
  friend class ProfileAnalysisEngine;

  IncrementalMinCut incremental_;
  CutResult last_cut_;
  MinCutSolveStats stats_;
  uint64_t topology_signature_ = 0;
  uint64_t graph_fingerprint_ = 0;
  bool has_cut_ = false;
};

// Re-entrancy contract: Analyze is const and keeps all working state
// (graphs, flow network, cut) on the stack of the call; the min-cut layer
// underneath likewise operates on per-call state. One engine may serve
// concurrent Analyze calls from many threads — the fleet partitioning
// service computes per-cohort cuts in parallel through a single engine.
// The session overload concentrates all cross-call mutation in the
// caller-owned MinCutSession, so concurrency is preserved as long as a
// given session is used by one thread at a time.
class ProfileAnalysisEngine {
 public:
  explicit ProfileAnalysisEngine(AnalysisOptions options = {}) : options_(options) {}

  // Chooses the minimal-communication two-machine distribution.
  Result<AnalysisResult> Analyze(const IccProfile& profile,
                                 const NetworkProfile& network) const;

  // Same, reusing `session` to warm-start the cut when the graph repeats
  // or drifts. Null session behaves exactly like the overload above.
  Result<AnalysisResult> Analyze(const IccProfile& profile, const NetworkProfile& network,
                                 MinCutSession* session) const;

 private:
  CutResult SolveWithSession(const ConcreteGraph& concrete, MinCutSession* session) const;

  AnalysisOptions options_;
};

}  // namespace coign

#endif  // COIGN_SRC_ANALYSIS_ENGINE_H_
