// The profile analysis engine (paper §2).
//
// Pipeline: ICC profile + location constraints → abstract ICC graph →
// (× network profile) → concrete graph → minimum cut → distribution.
// The production cut is one cold highest-label push-relabel solve on a
// flat CSR network built for the call; the paper's lift-to-front
// algorithm remains selectable for cross-checking and ablation. Both
// return the identical exact cut: for a maximum flow the
// residual-reachable source side is the unique minimal minimum cut, so the
// distribution does not depend on the algorithm.
//
// For many networks at once, Envelope() solves the profile's exact cut
// envelope (envelope.h) and AnalyzeSegment() turns one of its cuts into
// an AnalysisResult at a network inside it, through the same result
// assembly as Analyze.

#ifndef COIGN_SRC_ANALYSIS_ENGINE_H_
#define COIGN_SRC_ANALYSIS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/analysis/envelope.h"
#include "src/graph/concrete_graph.h"
#include "src/graph/constraints.h"
#include "src/graph/distribution.h"
#include "src/graph/icc_graph.h"
#include "src/mincut/compact_flow_network.h"
#include "src/mincut/push_relabel.h"
#include "src/net/network_profiler.h"
#include "src/profile/icc_profile.h"
#include "src/support/status.h"

namespace coign {

enum class CutAlgorithm {
  kPushRelabel,     // Production: highest-label push-relabel.
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

// Solver-work accounting carried across Analyze calls. Every call still
// builds its own network and solves it cold, so results are identical
// with and without a session; the session only sums the push-relabel
// counters (relabel-to-front solves add nothing). A session belongs to one
// caller thread at a time (the online repartitioner keeps one per
// policy).
class MinCutSession {
 public:
  MinCutSession() = default;

  // Cumulative push-relabel work across the session's lifetime.
  const MinCutSolveStats& stats() const { return stats_; }

 private:
  friend class ProfileAnalysisEngine;

  MinCutSolveStats stats_;
};

// Re-entrancy contract: every method is const and keeps all working state
// (graphs, flow network, cut) on the stack of the call; the min-cut layer
// underneath likewise operates on per-call state, so one engine may serve
// concurrent calls from many threads. The session overload's only
// cross-call mutation is the caller-owned MinCutSession's counters, so a
// given session must be used by one thread at a time.
class ProfileAnalysisEngine {
 public:
  explicit ProfileAnalysisEngine(AnalysisOptions options = {}) : options_(options) {}

  // Chooses the minimal-communication two-machine distribution.
  Result<AnalysisResult> Analyze(const IccProfile& profile,
                                 const NetworkProfile& network) const;

  // Same, adding the solve's push-relabel work to `session` (may be null).
  Result<AnalysisResult> Analyze(const IccProfile& profile, const NetworkProfile& network,
                                 MinCutSession* session) const;

  // The exact envelope of the profile's optimal cuts over every network
  // (envelope.h): 2K-1 push-relabel solves for K distinct cuts. Errors as
  // Analyze, plus OutOfRange when the profile's traffic is too large to
  // price exactly.
  Result<CutEnvelope> Envelope(const IccProfile& profile) const;

  // `segment`'s cut of `envelope` (solved from `profile`) assembled at
  // `network` by Analyze's own result assembly. The cut is the exact
  // optimum for every λ inside the segment. Analyze rounds each edge's
  // seconds to whole picoseconds, so the two results are equal wherever
  // that rounding does not reorder cuts; analysis_envelope_test and
  // fleet_test check it on sampled profiles and fleets.
  AnalysisResult AnalyzeSegment(const IccProfile& profile, const CutEnvelope& envelope,
                                size_t segment, const NetworkProfile& network) const;

 private:
  LocationConstraints Constraints(const IccProfile& profile) const;

  AnalysisOptions options_;
};

}  // namespace coign

#endif  // COIGN_SRC_ANALYSIS_ENGINE_H_
