#include "tests/oracles/profile_log_oracle.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "src/support/str_util.h"

namespace coign::profile_log_oracle {
namespace {

constexpr char kMagic[] = "coign-profile v1";

std::string HistogramFields(const ExponentialHistogram& h) {
  std::string out;
  h.ForEachBucket([&out](int bucket, uint64_t count, uint64_t bytes) {
    out += StrFormat(" %d:%llu:%llu", bucket, static_cast<unsigned long long>(count),
                     static_cast<unsigned long long>(bytes));
  });
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

// --- The one-pass parser's hash-map build --------------------------------

// A record that breaks the format: a missing, extra or unreadable field,
// or a structural error (see ParseRecord).
Status MalformedRecordAt(int line_number, std::string_view keyword) {
  return InvalidArgumentError("profile line " + std::to_string(line_number) +
                              ": malformed '" + std::string(keyword) + "' record");
}

bool ReadGuid(FieldReader* fields, Guid* out) {
  std::string_view text;
  if (!fields->Read(&text)) {
    return false;
  }
  Result<Guid> guid = Guid::Parse(text);
  if (!guid.ok()) {
    return false;
  }
  *out = *guid;
  return true;
}

// Reads "bucket:count:bytes" fields up to the closing ";". The writer skips
// empty buckets, so a count of 0 is damage, as are bytes the count's
// messages could not carry in that bucket.
bool ReadHistogram(FieldReader* fields, ExponentialHistogram* h) {
  std::string_view field;
  while (fields->Read(&field)) {
    if (field == ";") {
      return true;
    }
    int bucket = 0;
    uint64_t count = 0;
    uint64_t bytes = 0;
    if (!ParseColonTriple(field, &bucket, &count, &bytes) || count == 0 ||
        !ExponentialHistogram::CanHold(bucket, count, bytes)) {
      return false;
    }
    h->AddBucket(bucket, count, bytes);
  }
  return false;
}

bool IsDeclared(const IccProfileBuilder& profile, ClassificationId id) {
  return profile.FindClassification(id) != nullptr;
}

// A call endpoint: a declared classification or the driver.
bool IsEndpoint(const IccProfileBuilder& profile, ClassificationId id) {
  return id == kNoClassification || IsDeclared(profile, id);
}

// Parses one record into *profile, through the recording calls the writer
// inverts. Besides its fields reading whole, a record must name only
// classifications declared on an earlier line and declare each one once.
bool ParseRecord(std::string_view keyword, FieldReader* fields, IccProfileBuilder* profile) {
  if (keyword == "classification") {
    ClassificationInfo info;
    if (!fields->Read(&info.id) || !ReadGuid(fields, &info.clsid) ||
        !fields->Read(&info.api_usage) || !fields->Read(&info.instance_count) ||
        IsDeclared(*profile, info.id)) {
      return false;
    }
    // The class name is the rest of the line after one space; it may
    // hold spaces of its own.
    std::string_view name = fields->rest();
    if (!name.empty() && name.front() == ' ') {
      name.remove_prefix(1);
    }
    info.class_name = name;
    profile->RecordClassification(info);
    return true;
  }
  if (keyword == "alloc") {
    ClassificationId id = kNoClassification;
    uint64_t bytes = 0;
    if (!fields->Read(&id) || !fields->Read(&bytes) || !fields->AtEnd() ||
        !IsDeclared(*profile, id)) {
      return false;
    }
    profile->RecordAllocation(id, bytes);
    return true;
  }
  if (keyword == "compute") {
    ClassificationId id = kNoClassification;
    double seconds = 0.0;
    if (!fields->Read(&id) || !fields->Read(&seconds) || !fields->AtEnd() ||
        !std::isfinite(seconds) || seconds < 0.0 || !IsDeclared(*profile, id)) {
      return false;
    }
    profile->RecordCompute(id, seconds);
    return true;
  }
  if (keyword == "call") {
    CallKey key;
    uint64_t non_remotable = 0;
    std::string_view marker;
    ExponentialHistogram requests;
    ExponentialHistogram replies;
    if (!fields->Read(&key.src) || !fields->Read(&key.dst) || !ReadGuid(fields, &key.iid) ||
        !fields->Read(&key.method) || !fields->Read(&non_remotable) ||
        !IsEndpoint(*profile, key.src) || !IsEndpoint(*profile, key.dst) ||
        !fields->Read(&marker) || marker != "req" || !ReadHistogram(fields, &requests) ||
        !fields->Read(&marker) || marker != "rep" || !ReadHistogram(fields, &replies) ||
        !fields->AtEnd()) {
      return false;
    }
    profile->InjectCallSummary(key, requests, replies, non_remotable);
    return true;
  }
  return false;
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
  IccProfileBuilder profile;
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
  return profile.Build();
}

Result<IccProfile> HashMapParseProfile(std::string_view text) {
  LineReader lines(text);
  std::string_view line;
  if (!lines.Next(&line) || line != kMagic) {
    return InvalidArgumentError("missing profile magic header");
  }
  IccProfileBuilder profile;
  int line_number = 1;
  while (lines.Next(&line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    FieldReader fields(line);
    std::string_view keyword;
    fields.Read(&keyword);
    if (!ParseRecord(keyword, &fields, &profile)) {
      return MalformedRecordAt(line_number, keyword);
    }
  }
  return profile.Build();
}

}  // namespace coign::profile_log_oracle
