#include "src/analysis/dot_export.h"

#include "src/graph/icc_graph.h"
#include "src/support/file_io.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

std::string NodeId(ClassificationId id) {
  return id == kNoClassification ? std::string("driver") : StrFormat("c%u", id);
}

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string ExportDistributionDot(const IccProfile& profile, const AnalysisResult& result,
                                  const DotExportOptions& options) {
  std::string out = StrFormat("graph \"%s\" {\n", Escape(options.graph_name).c_str());
  out += "  // Coign distribution: filled boxes = server, ellipses = client,\n";
  out += "  // bold black edges = non-distributable interfaces (must colocate).\n";
  out += "  node [fontsize=9];\n  edge [fontsize=8];\n";

  if (options.include_driver) {
    out += "  driver [label=\"<user/driver>\", shape=diamond];\n";
  }
  const AbstractIccGraph abstract = AbstractIccGraph::FromProfile(profile);
  for (ClassificationId id : abstract.nodes()) {
    const ClassificationInfo* info = profile.FindClassification(id);
    const bool on_server = result.distribution.MachineFor(id) == kServerMachine;
    out += StrFormat(
        "  %s [label=\"%s x%llu\", shape=%s%s];\n", NodeId(id).c_str(),
        Escape(info->class_name).c_str(),
        static_cast<unsigned long long>(info->instance_count),
        on_server ? "box" : "ellipse",
        on_server ? ", style=filled, fillcolor=gray75" : "");
  }

  for (const AbstractIccGraph::Edge& edge : abstract.edges()) {
    if (edge.bytes < options.min_edge_bytes && !edge.MustColocate()) {
      continue;
    }
    if (!options.include_driver && edge.b == kNoClassification) {
      continue;
    }
    const char* style = edge.MustColocate()
                            ? "color=black, penwidth=2.0"   // Solid black lines.
                            : "color=gray60";               // Distributable.
    out += StrFormat("  %s -- %s [%s, label=\"%llu msgs, %s\"];\n",
                     NodeId(edge.a).c_str(), NodeId(edge.b).c_str(), style,
                     static_cast<unsigned long long>(edge.messages),
                     FormatBytes(edge.bytes).c_str());
  }
  out += "}\n";
  return out;
}

Status WriteDistributionDot(const IccProfile& profile, const AnalysisResult& result,
                            const std::string& path, const DotExportOptions& options) {
  return WriteFile(path, ExportDistributionDot(profile, result, options), "dot file");
}

}  // namespace coign
