#include "src/analysis/hotspots.h"

#include <algorithm>

#include "src/support/str_util.h"

namespace coign {
namespace {

std::string NameOf(const IccProfile& profile, ClassificationId id) {
  if (id == kNoClassification) {
    return "<driver>";
  }
  const ClassificationInfo* info = profile.FindClassification(id);
  return info != nullptr ? info->class_name : StrFormat("c%u", id);
}

MachineId MachineOf(const Distribution& distribution, ClassificationId id) {
  return id == kNoClassification ? kClientMachine : distribution.MachineFor(id);
}

}  // namespace

std::vector<HotSpot> FindHotSpots(const IccProfile& profile,
                                  const Distribution& distribution,
                                  const NetworkProfile& network,
                                  const InterfaceRegistry* interfaces, size_t max_spots) {
  std::vector<HotSpot> spots;
  for (const auto& [key, summary] : profile.calls()) {
    if (MachineOf(distribution, key.src) == MachineOf(distribution, key.dst)) {
      continue;  // Stays on one machine: not on the wire.
    }
    HotSpot spot;
    spot.src = key.src;
    spot.dst = key.dst;
    spot.src_name = NameOf(profile, key.src);
    spot.dst_name = NameOf(profile, key.dst);
    spot.iid = key.iid;
    spot.method = key.method;
    spot.calls = summary.call_count();
    spot.bytes = summary.total_bytes();
    spot.seconds = network.TrafficSeconds(
        summary.requests.total_count() + summary.replies.total_count(), spot.bytes);
    if (interfaces != nullptr) {
      const InterfaceDesc* iface = interfaces->Lookup(key.iid);
      if (iface != nullptr) {
        spot.interface_name = iface->name;
        const MethodDesc* method = iface->FindMethod(key.method);
        if (method != nullptr) {
          spot.method_name = method->name;
          spot.cacheable = method->cacheable;
        }
      }
    }
    spots.push_back(std::move(spot));
  }
  std::sort(spots.begin(), spots.end(),
            [](const HotSpot& a, const HotSpot& b) { return a.seconds > b.seconds; });
  if (spots.size() > max_spots) {
    spots.resize(max_spots);
  }
  return spots;
}

std::string HotSpotReport(const std::vector<HotSpot>& spots) {
  std::string out = "Communication hot spots (crossing the chosen cut, heaviest first):\n";
  for (const HotSpot& spot : spots) {
    const std::string call_site =
        spot.interface_name.empty()
            ? StrFormat("method %u", spot.method)
            : StrFormat("%s::%s", spot.interface_name.c_str(), spot.method_name.c_str());
    out += StrFormat("  %-34s %-22s -> %-22s %6llu calls %10llu B %9.4f s%s\n",
                     call_site.c_str(), spot.src_name.c_str(), spot.dst_name.c_str(),
                     static_cast<unsigned long long>(spot.calls),
                     static_cast<unsigned long long>(spot.bytes), spot.seconds,
                     spot.cacheable ? "  [cacheable]" : "");
  }
  if (spots.empty()) {
    out += "  (none: the distribution crosses no communication)\n";
  }
  return out;
}

}  // namespace coign
