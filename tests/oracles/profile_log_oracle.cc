#include "tests/oracles/profile_log_oracle.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/support/str_util.h"

namespace coign::profile_log_oracle {
namespace {

constexpr char kMagic[] = "coign-profile v1";

std::string HistogramFields(const ExponentialHistogram& h) {
  std::string out;
  for (int bucket : h.NonEmptyBuckets()) {
    out += StrFormat(" %d:%llu:%llu", bucket,
                     static_cast<unsigned long long>(h.CountAt(bucket)),
                     static_cast<unsigned long long>(h.BytesAt(bucket)));
  }
  return out;
}

// A record whose fields did not all parse. Failed stream reads leave
// fields at 0, which silently moves the cut, so every record is checked.
Status MalformedRecord(int line_number, const std::string& keyword) {
  return InvalidArgumentError(
      StrFormat("profile line %d: malformed '%s' record", line_number, keyword.c_str()));
}

Status ParseHistogramFields(std::istringstream& in, ExponentialHistogram* h) {
  std::string field;
  while (in >> field) {
    if (field == ";") {
      return Status::Ok();
    }
    int bucket = 0;
    unsigned long long count = 0, bytes = 0;
    if (std::sscanf(field.c_str(), "%d:%llu:%llu", &bucket, &count, &bytes) != 3) {
      return InvalidArgumentError("malformed histogram field: " + field);
    }
    h->AddBucket(bucket, count, bytes);
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeProfile(const IccProfile& profile) {
  std::string out = kMagic;
  out += "\n";
  for (ClassificationId id : profile.SortedClassificationIds()) {
    const ClassificationInfo* info = profile.FindClassification(id);
    out += StrFormat("classification %u %s %u %llu %s\n", info->id,
                     info->clsid.ToString().c_str(), info->api_usage,
                     static_cast<unsigned long long>(info->instance_count),
                     info->class_name.c_str());
    if (info->allocation_bytes > 0) {
      out += StrFormat("alloc %u %llu\n", id,
                       static_cast<unsigned long long>(info->allocation_bytes));
    }
    const double compute = profile.ComputeSecondsOf(id);
    if (compute > 0.0) {
      out += StrFormat("compute %u %.9e\n", id, compute);
    }
  }
  for (const auto& [key, summary] : profile.calls()) {
    out += StrFormat("call %u %u %s %u %llu req%s ; rep%s ;\n", key.src, key.dst,
                     key.iid.ToString().c_str(), key.method,
                     static_cast<unsigned long long>(summary.non_remotable_calls),
                     HistogramFields(summary.requests).c_str(),
                     HistogramFields(summary.replies).c_str());
  }
  return out;
}

Result<IccProfile> ParseProfile(const std::string& text) {
  IccProfile profile;
  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line) || line != kMagic) {
    return InvalidArgumentError("missing profile magic header");
  }
  int line_number = 1;
  while (std::getline(lines, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::istringstream in(line);
    std::string keyword;
    in >> keyword;
    if (keyword == "classification") {
      ClassificationInfo info;
      std::string guid_text;
      unsigned long long count = 0;
      if (!(in >> info.id >> guid_text >> info.api_usage >> count)) {
        return MalformedRecord(line_number, keyword);
      }
      info.instance_count = count;
      std::getline(in, info.class_name);
      if (!info.class_name.empty() && info.class_name.front() == ' ') {
        info.class_name.erase(0, 1);
      }
      Result<Guid> clsid = Guid::Parse(guid_text);
      if (!clsid.ok()) {
        return clsid.status();
      }
      info.clsid = *clsid;
      profile.RecordClassification(info);
    } else if (keyword == "alloc") {
      ClassificationId id = kNoClassification;
      unsigned long long bytes = 0;
      if (!(in >> id >> bytes)) {
        return MalformedRecord(line_number, keyword);
      }
      profile.RecordAllocation(id, bytes);
    } else if (keyword == "compute") {
      ClassificationId id = kNoClassification;
      double seconds = 0.0;
      if (!(in >> id >> seconds) || !std::isfinite(seconds) || seconds < 0.0) {
        return MalformedRecord(line_number, keyword);
      }
      profile.RecordCompute(id, seconds);
    } else if (keyword == "call") {
      CallKey key;
      std::string guid_text, marker;
      unsigned long long non_remotable = 0;
      if (!(in >> key.src >> key.dst >> guid_text >> key.method >> non_remotable)) {
        return MalformedRecord(line_number, keyword);
      }
      Result<Guid> iid = Guid::Parse(guid_text);
      if (!iid.ok()) {
        return iid.status();
      }
      key.iid = *iid;
      in >> marker;
      if (marker != "req") {
        return InvalidArgumentError("expected 'req' marker");
      }
      ExponentialHistogram requests, replies;
      COIGN_RETURN_IF_ERROR(ParseHistogramFields(in, &requests));
      in >> marker;
      if (marker != "rep") {
        return InvalidArgumentError("expected 'rep' marker");
      }
      COIGN_RETURN_IF_ERROR(ParseHistogramFields(in, &replies));
      profile.InjectCallSummary(key, requests, replies, non_remotable);
    } else {
      return InvalidArgumentError("unknown profile keyword: " + keyword);
    }
  }
  return profile;
}

}  // namespace coign::profile_log_oracle
