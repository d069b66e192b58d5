// Ablation: the same application re-partitioned for different networks
// (paper §1/§4.4: "changes in underlying network, from ISDN to 100BaseT to
// ATM to SAN, strain static distributions as bandwidth-to-latency
// tradeoffs change by more than an order of magnitude").
//
// For one workload, Coign re-analyzes per network and the distribution
// (how many components cross) shifts with the bandwidth/latency balance;
// a single static distribution cannot do this. The exact cut envelope
// then answers the question with thresholds instead of samples: the λ =
// seconds-per-byte / seconds-per-message breakpoints where the optimal
// distribution changes, and the segment each preset's fitted network
// falls in. Exits nonzero if a preset's analysis disagrees with its
// segment's cut.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/envelope.h"

using namespace coign;  // NOLINT: bench binary.

int main() {
  const char* kScenario = "o_oldbth";
  const NetworkModel kNetworks[] = {
      NetworkModel::Isdn(),    NetworkModel::TenBaseT(), NetworkModel::HundredBaseT(),
      NetworkModel::Atm155(),  NetworkModel::San(),
  };

  Result<std::unique_ptr<Application>> app = BuildApplicationForScenario(kScenario);
  if (!app.ok()) {
    return 1;
  }
  Result<IccProfile> profile = ProfileScenarios(**app, {kScenario});
  if (!profile.ok()) {
    return 1;
  }

  std::printf("Ablation: re-partitioning %s across networks.\n", kScenario);
  PrintRule(86);
  std::printf("%-10s %14s %12s %12s %12s %10s\n", "Network", "Server comps", "Default(s)",
              "Coign(s)", "Savings", "Cut edges");
  PrintRule(86);

  const ProfileAnalysisEngine engine;
  std::vector<Distribution> distributions;
  for (const NetworkModel& network : kNetworks) {
    Result<AnalysisResult> analysis = engine.Analyze(*profile, FitNetwork(network));
    if (!analysis.ok()) {
      std::fprintf(stderr, "%s: %s\n", network.name.c_str(),
                   analysis.status().ToString().c_str());
      return 1;
    }
    Result<RunMeasurement> default_run = MeasureDefault(**app, kScenario, network);
    Result<RunMeasurement> coign_run =
        MeasureDistributed(**app, kScenario, analysis->distribution, network);
    if (!default_run.ok() || !coign_run.ok()) {
      return 1;
    }
    const double savings =
        default_run->communication_seconds > 0.0
            ? 100.0 * (1.0 - coign_run->communication_seconds /
                                 default_run->communication_seconds)
            : 0.0;
    const FigureCounts counts = CountFigureInstances(**app, *profile, analysis->distribution);
    std::printf("%-10s %14llu %12.3f %12.3f %11.0f%% %10zu\n", network.name.c_str(),
                static_cast<unsigned long long>(counts.on_server),
                default_run->communication_seconds, coign_run->communication_seconds,
                savings, analysis->cut_edges.size());
    distributions.push_back(analysis->distribution);
  }
  PrintRule(86);

  Result<CutEnvelope> envelope = engine.Envelope(*profile);
  if (!envelope.ok()) {
    std::fprintf(stderr, "envelope: %s\n", envelope.status().ToString().c_str());
    return 1;
  }
  const std::vector<EnvelopeSegment>& segments = envelope->segments();
  std::printf("\nExact thresholds: %zu distribution(s) over lambda = s/byte per s/message, "
              "%zu solves.\n",
              segments.size(), envelope->solves());
  PrintRule(86);
  std::printf("%-8s %13s %13s %14s  %s\n", "Segment", "lambda from", "lambda to",
              "Server classes", "Presets");
  PrintRule(86);
  std::vector<std::string> presets(segments.size());
  bool agree = true;
  for (size_t i = 0; i < std::size(kNetworks); ++i) {
    const NetworkProfile fitted = FitNetwork(kNetworks[i]);
    const size_t segment = envelope->SegmentOf(fitted);
    presets[segment] += (presets[segment].empty() ? "" : ", ") + kNetworks[i].name;
    agree = agree && engine.AnalyzeSegment(*profile, *envelope, segment, fitted)
                             .distribution.placement == distributions[i].placement;
  }
  for (size_t s = 0; s < segments.size(); ++s) {
    size_t server = 0;
    for (size_t node = 2; node < segments[s].client_side.size(); ++node) {
      server += segments[s].client_side[node] ? 0 : 1;
    }
    std::printf("%-8zu %13.6e %13.6e %14zu  %s\n", s + 1, segments[s].from.ToDouble(),
                segments[s].to.ToDouble(), server,
                presets[s].empty() ? "-" : presets[s].c_str());
  }
  PrintRule(86);
  if (!agree) {
    std::fprintf(stderr, "a preset's analysis disagrees with its envelope segment\n");
    return 1;
  }
  return 0;
}
