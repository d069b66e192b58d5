// The Coign benchmark binary.
//
//   coign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--spans-out <path>]
//
// Runs one workload as a closed loop for the given seconds and prints
// human-readable lines followed, as the last line, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics, and the spans are written to
// --spans-out. The metric names and units here must match BENCHMARK.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>

#include "bench.h"

namespace coignbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_round_p5_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"modeled_exec_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    // analyze-cli
    {"profile.parse_us", "us"},
    {"profile.log_bytes", "bytes"},
    {"graph.constraints_us", "us"},
    {"graph.abstract_us", "us"},
    {"graph.concrete_us", "us"},
    {"mincut.cold_solve_us", "us"},
    {"analysis.analyze_us", "us"},
    {"analysis.assemble_us", "us"},
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"mincut.pushes", "count"},
    {"mincut.relabels", "count"},
    {"mincut.global_relabels", "count"},
    // fleet-cold / fleet-replan
    {"fleet.plan_ms", "ms"},
    {"fleet.cohorts", "count"},
    {"fleet.plans_computed", "count"},
    {"fleet.cold_ms_per_plan", "ms"},
    {"fleet.serial_cold_plan_ms", "ms"},
    {"fleet.pool_speedup", "ratio"},
    {"fleet.cache_hits", "count"},
    {"fleet.hit_ratio", "ratio"},
    {"fleet.replan_us_per_client", "us"},
    {"fleet.regret_mean_pct", "%"},
    {"fleet.regret_max_pct", "%"},
    // online-drift
    {"runtime.scenario_us", "us"},
    {"runtime.calls", "count"},
    {"runtime.ns_per_call", "ns"},
    {"online.end_epoch_us", "us"},
    {"online.eval_epoch_us", "us"},
    {"online.quiet_epoch_us", "us"},
    {"online.evaluations", "count"},
    {"online.repartitions", "count"},
    {"online.instances_moved", "count"},
    {"online.migration_bytes", "bytes"},
    {"mincut.warm_start_hits", "count"},
    // profile-log
    {"runtime.instrument_us", "us"},
    {"runtime.profile_run_us", "us"},
    {"profile.serialize_us", "us"},
    {"classify.classifications", "count"},
    // every workload
    {"trace.overhead_us", "us"},
};

// The percentile op_round_p5_ms reports.
constexpr double kRoundPercentile = 5.0;

int Usage() {
  std::fprintf(stderr,
               "usage: coign_bench --workload <analyze-cli|fleet-cold|fleet-replan|"
               "online-drift|profile-log> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <path>]\n");
  return 2;
}

void AppendMetric(std::string& json, const char* name, double value, const char* unit) {
  if (json.back() != '{') {
    json += ", ";
  }
  json += Format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name, value, unit);
}

}  // namespace
}  // namespace coignbench

int main(int argc, char** argv) {
  using namespace coignbench;  // NOLINT: benchmark binary.
  BenchContext context;
  std::string spans_out;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      context.config.workload = value;
    } else if (flag == "--seed") {
      context.config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      context.config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      context.config.trace = value == "1";
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  if (context.config.workload.empty() || context.config.seconds <= 0.0) {
    return Usage();
  }

  const std::string& workload = context.config.workload;
  coign::Status status;
  if (workload == "analyze-cli") {
    status = RunAnalyzeCli(context);
  } else if (workload == "fleet-cold") {
    status = RunFleetCold(context);
  } else if (workload == "fleet-replan") {
    status = RunFleetReplan(context);
  } else if (workload == "online-drift") {
    status = RunOnlineDrift(context);
  } else if (workload == "profile-log") {
    status = RunProfileLog(context);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(), status.ToString().c_str());
    return 1;
  }

  WorkloadReport& report = context.report;
  std::printf("workload %s | seed %llu | %.0f s | trace %d | host cores %u | bench threads %u\n",
              workload.c_str(), static_cast<unsigned long long>(context.config.seed),
              context.config.seconds, context.config.trace ? 1 : 0,
              std::thread::hardware_concurrency(), BenchThreads());
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }

  // The fastest set-up, for the reason op_round_p5_ms reads a low
  // percentile (README.md, "Measuring on a shared host").
  const double setup_s = *std::min_element(report.setup_seconds.begin(),
                                           report.setup_seconds.end());
  const double rss_mb = PeakRssMb();
  const double p50 = Median(report.op_ms);
  const double round_p5 = RoundPercentile(report.op_ms, report.round_ops, kRoundPercentile);
  const Tail tail = TailOf(report.op_ms, report.tail_percentile);
  std::printf("  setup_s            %.4f s (fastest of %zu set-ups; median %.4f s)\n", setup_s,
              report.setup_seconds.size(), Median(report.setup_seconds));
  std::printf("  peak_rss_mb        %.1f MB\n", rss_mb);
  std::printf("  op median          %.4f ms = %s (%zu untraced ops)\n", p50, report.p50_name,
              report.op_ms.size());
  std::printf("  op_round_p5_ms     %.4f ms (p%g of %zu rounds of %zu ops, mean per op)\n",
              round_p5, kRoundPercentile, report.op_ms.size() / report.round_ops,
              report.round_ops);
  std::printf("  op_tail_ms         %.4f ms = %s (p%g of %zu samples, %zu beyond%s)\n",
              tail.value, report.tail_name, tail.percentile, tail.samples, tail.beyond,
              tail.beyond < 10 ? "; FEWER THAN TEN" : "");
  std::printf("  modeled_exec_s     %.9g s\n", report.modeled_exec_s);
  std::printf("  failed_frac        %.6g (%llu of %llu)\n",
              report.attempted == 0 ? 0.0
                                    : static_cast<double>(report.failed) /
                                          static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  std::string metrics = "{";
  if (context.config.trace) {
    const double traced_p50 = Median(report.traced_op_ms);
    report.layers["trace.overhead_us"] = (traced_p50 - p50) * 1e3;
    std::printf("  tracing overhead   %+.2f us per op (%+.2f%%; traced p50 %.4f ms over %zu "
                "ops, untraced p50 %.4f ms over %zu ops)\n",
                (traced_p50 - p50) * 1e3, p50 > 0.0 ? 100.0 * (traced_p50 / p50 - 1.0) : 0.0,
                traced_p50, report.traced_op_ms.size(), p50, report.op_ms.size());
    std::printf("per-layer self time (traced ops):\n%s",
                context.spans.SelfTimeTable().c_str());
    for (const MetricSpec& spec : kPerLayer) {
      const double value = report.layers[spec.name];
      std::printf("  %-28s %.6g %s\n", spec.name, value, spec.unit);
      AppendMetric(metrics, spec.name, value, spec.unit);
    }
    if (!spans_out.empty()) {
      const coign::Status wrote = context.spans.WriteJsonLines(spans_out);
      if (!wrote.ok()) {
        std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s\n", context.spans.spans().size(), spans_out.c_str());
    }
  } else {
    const double values[] = {setup_s, rss_mb, round_p5, tail.value, report.modeled_exec_s};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      AppendMetric(metrics, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
