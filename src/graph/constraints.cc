#include "src/graph/constraints.h"

#include "src/com/class_registry.h"

namespace coign {

LocationConstraints LocationConstraints::FromProfile(const IccProfile& profile) {
  LocationConstraints constraints;
  for (const ClassificationInfo& info : profile.classifications()) {
    if (info.api_usage & kApiGui) {
      // GUI components interact with the user: client.
      constraints.PinAbsolute(info.id, kClientMachine);
    } else if (info.api_usage & kApiStorage) {
      // Storage components read data files, which live on the server in the
      // paper's experiments ("for both distributions, data files are placed
      // on the server").
      constraints.PinAbsolute(info.id, kServerMachine);
    }
  }
  return constraints;
}

void LocationConstraints::PinAbsolute(ClassificationId id, MachineId machine) {
  absolute_[id] = machine;
}

void LocationConstraints::Colocate(ClassificationId a, ClassificationId b) {
  colocated_.emplace_back(a, b);
}

const MachineId* LocationConstraints::PinOf(ClassificationId id) const {
  auto it = absolute_.find(id);
  return it == absolute_.end() ? nullptr : &it->second;
}

}  // namespace coign
