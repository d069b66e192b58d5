#include "src/mincut/incremental.h"

#include <cassert>
#include <utility>

namespace coign {

void IncrementalMinCut::Reset(CompactFlowNetwork network, int source, int sink) {
  assert(network.finalized());
  network_ = std::move(network);
  source_ = source;
  sink_ = sink;
}

CutResult IncrementalMinCut::Solve() {
  const CapUnits flow = solver_.Solve(network_, source_, sink_);
  return network_.ExtractCut(source_, flow);
}

}  // namespace coign
