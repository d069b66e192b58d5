#include "src/profile/log_file.h"

#include <charconv>
#include <cmath>
#include <concepts>

#include "src/support/file_io.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

constexpr std::string_view kMagic = "coign-profile v1";

// The pieces of a log line: text as is, integers in decimal (what the
// format's %u, %llu and %d wrote), GUIDs in their ToString() form.
void Put(std::string* out, std::string_view text) { out->append(text); }
void Put(std::string* out, char c) { out->push_back(c); }
void Put(std::string* out, const Guid& guid) { guid.AppendTo(out); }
template <std::integral T>
void Put(std::string* out, T value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

template <typename... Pieces>
void Append(std::string* out, const Pieces&... pieces) {
  (Put(out, pieces), ...);
}

// printf's %.9e: to_chars in scientific form at a precision is defined as
// that conversion.
void AppendSeconds(std::string* out, double seconds) {
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), seconds,
                                 std::chars_format::scientific, 9)
                       .ptr);
}

void AppendHistogram(std::string* out, const ExponentialHistogram& h) {
  for (int bucket : h.NonEmptyBuckets()) {
    Append(out, ' ', bucket, ':', h.CountAt(bucket), ':', h.BytesAt(bucket));
  }
}

// A record that breaks the format: a missing, extra or unreadable field,
// or a structural error (see ParseRecord).
Status MalformedRecord(int line_number, std::string_view keyword) {
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

bool IsDeclared(const IccProfile& profile, ClassificationId id) {
  return profile.FindClassification(id) != nullptr;
}

// A call endpoint: a declared classification or the driver.
bool IsEndpoint(const IccProfile& profile, ClassificationId id) {
  return id == kNoClassification || IsDeclared(profile, id);
}

// Parses one record into *profile, through the IccProfile calls the writer
// inverts. Besides its fields reading whole, a record must name only
// classifications declared on an earlier line and declare each one once.
bool ParseRecord(std::string_view keyword, FieldReader* fields, IccProfile* profile) {
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
  std::string out;
  // Every scenario log runs 82-87 bytes per classification and per call.
  out.reserve(kMagic.size() + 96 * (profile.classifications().size() + profile.calls().size()));
  Append(&out, kMagic, '\n');
  for (ClassificationId id : profile.SortedClassificationIds()) {
    const ClassificationInfo* info = profile.FindClassification(id);
    // The name goes up to its first NUL, as the format's %s always wrote it.
    Append(&out, "classification ", info->id, ' ', info->clsid, ' ', info->api_usage, ' ',
           info->instance_count, ' ', std::string_view(info->class_name.c_str()), '\n');
    if (info->allocation_bytes > 0) {
      Append(&out, "alloc ", id, ' ', info->allocation_bytes, '\n');
    }
    const double compute = profile.ComputeSecondsOf(id);
    if (compute > 0.0) {
      Append(&out, "compute ", id, ' ');
      AppendSeconds(&out, compute);
      out += '\n';
    }
  }
  for (const auto& [key, summary] : profile.calls()) {
    Append(&out, "call ", key.src, ' ', key.dst, ' ', key.iid, ' ', key.method, ' ',
           summary.non_remotable_calls, " req");
    AppendHistogram(&out, summary.requests);
    Append(&out, " ; rep");
    AppendHistogram(&out, summary.replies);
    Append(&out, " ;\n");
  }
  return out;
}

Result<IccProfile> ParseProfile(std::string_view text) {
  LineReader lines(text);
  std::string_view line;
  if (!lines.Next(&line) || line != kMagic) {
    return InvalidArgumentError("missing profile magic header");
  }
  IccProfile profile;
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
      return MalformedRecord(line_number, keyword);
    }
  }
  return profile;
}

Status WriteProfileFile(const IccProfile& profile, const std::string& path) {
  return WriteFile(path, SerializeProfile(profile), "profile file");
}

Result<IccProfile> ReadProfileFile(const std::string& path) {
  Result<std::string> text = ReadFile(path, "profile file");
  if (!text.ok()) {
    return text.status();
  }
  return ParseProfile(*text);
}

Result<IccProfile> MergeProfileFiles(const std::vector<std::string>& paths) {
  IccProfile merged;
  for (const std::string& path : paths) {
    Result<IccProfile> one = ReadProfileFile(path);
    if (!one.ok()) {
      return one.status();
    }
    merged.Merge(*one);
  }
  return merged;
}

}  // namespace coign
