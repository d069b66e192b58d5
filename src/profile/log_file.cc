#include "src/profile/log_file.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "src/support/file_io.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

constexpr std::string_view kMagic = "coign-profile v1";

// Writes records into `out` with one capacity check per record: it grows
// `out` by an upper bound on what the record needs, formats the pieces
// straight into that space with std::to_chars, and trims the rest when it
// goes out of scope. The pieces are text as is, integers in decimal (what
// the format's %u, %llu and %d wrote) and GUIDs in their ToString() form.
class RecordWriter {
 public:
  // The most characters Put writes for an integer of type T.
  template <std::integral T>
  static constexpr size_t kWidth = std::numeric_limits<T>::digits10 + 2;
  // printf's %.9e of a finite double: sign, digit, point, nine digits and
  // an exponent of up to three digits.
  static constexpr size_t kSecondsWidth = 17;

  RecordWriter(std::string* out, size_t bound) : out_(out), next_(nullptr) {
    const size_t start = out->size();
    out->resize(start + bound);
    next_ = out->data() + start;
  }
  ~RecordWriter() { out_->resize(static_cast<size_t>(next_ - out_->data())); }
  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  template <typename... Pieces>
  void Append(const Pieces&... pieces) {
    (Put(pieces), ...);
  }

  // printf's %.9e: to_chars in scientific form at a precision is defined
  // as that conversion.
  void AppendSeconds(double seconds) {
    next_ = std::to_chars(next_, next_ + kSecondsWidth, seconds, std::chars_format::scientific, 9)
                .ptr;
  }

  void AppendHistogram(const ExponentialHistogram& h) {
    h.ForEachBucket([this](int bucket, uint64_t count, uint64_t bytes) {
      Append(' ', bucket, ':', count, ':', bytes);
    });
  }

 private:
  void Put(std::string_view text) {
    std::memcpy(next_, text.data(), text.size());
    next_ += text.size();
  }
  void Put(char c) { *next_++ = c; }
  void Put(const Guid& guid) { next_ = guid.WriteTo(next_); }
  template <std::integral T>
  void Put(T value) {
    next_ = std::to_chars(next_, next_ + kWidth<T>, value).ptr;
  }

  std::string* out_;
  char* next_;
};

// Upper bounds on a record's length: a classification with its alloc and
// compute records, less the class name; a call record, less its buckets;
// and one bucket.
constexpr size_t kClassificationBound =
    std::string_view("classification ").size() + RecordWriter::kWidth<ClassificationId> + 1 +
    Guid::kTextSize + 1 + RecordWriter::kWidth<uint32_t> + 1 + RecordWriter::kWidth<uint64_t> +
    2 + std::string_view("alloc ").size() + RecordWriter::kWidth<ClassificationId> + 1 +
    RecordWriter::kWidth<uint64_t> + 1 + std::string_view("compute ").size() +
    RecordWriter::kWidth<ClassificationId> + 1 + RecordWriter::kSecondsWidth + 1;
constexpr size_t kCallBound = std::string_view("call ").size() +
                              2 * (RecordWriter::kWidth<ClassificationId> + 1) +
                              Guid::kTextSize + 1 + RecordWriter::kWidth<MethodIndex> + 1 +
                              RecordWriter::kWidth<uint64_t> +
                              std::string_view(" req ; rep ;\n").size();
constexpr size_t kBucketBound =
    3 + RecordWriter::kWidth<int> + 2 * RecordWriter::kWidth<uint64_t>;

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

// The profile's tables as the records build them: classifications and
// compute seconds kept sorted by id (the writer's order appends), call
// rows in the order read.
struct Tables {
  std::vector<ClassificationInfo> classifications;
  std::vector<ComputeRecord> compute;
  std::vector<CallRecord> calls;
  // Whether every call key so far came strictly after the one before in
  // pair-major order, as the writer writes them.
  bool calls_canonical = true;

  bool IsDeclared(ClassificationId id) const {
    return FindById(classifications, id) != nullptr;
  }
  // A call endpoint: a declared classification or the driver.
  bool IsEndpoint(ClassificationId id) const {
    return id == kNoClassification || IsDeclared(id);
  }

  // The one pass a log written before the call order was fixed pays:
  // sort the rows and fold each key's duplicates into one.
  void SortAndFoldCalls() {
    std::sort(calls.begin(), calls.end(), [](const CallRecord& x, const CallRecord& y) {
      return PairMajorLess(x.key, y.key);
    });
    size_t kept = 0;
    for (size_t i = 0; i < calls.size(); ++i) {
      if (kept > 0 && calls[kept - 1].key == calls[i].key) {
        calls[kept - 1].summary.Merge(calls[i].summary);
        continue;
      }
      if (kept != i) {
        calls[kept] = std::move(calls[i]);
      }
      ++kept;
    }
    calls.resize(kept);
  }
};

// Where a row of `id` belongs in a table sorted by id: past the end when
// ids come ascending, as the writer writes them.
template <typename Row>
typename std::vector<Row>::iterator SlotOf(std::vector<Row>* table, ClassificationId id) {
  if (table->empty() || table->back().id < id) {
    return table->end();
  }
  return std::lower_bound(table->begin(), table->end(), id,
                          [](const Row& row, ClassificationId x) { return row.id < x; });
}

// Parses one record into the tables. Besides its fields reading whole, a
// record must name only classifications declared on an earlier line and
// declare each one once. Repeated alloc and compute records of one id
// add up, and so do repeated call keys.
bool ParseRecord(std::string_view keyword, FieldReader* fields, Tables* tables) {
  if (keyword == "classification") {
    ClassificationInfo info;
    if (!fields->Read(&info.id) || !ReadGuid(fields, &info.clsid) ||
        !fields->Read(&info.api_usage) || !fields->Read(&info.instance_count) ||
        tables->IsDeclared(info.id)) {
      return false;
    }
    // The class name is the rest of the line after one space; it may
    // hold spaces of its own.
    std::string_view name = fields->rest();
    if (!name.empty() && name.front() == ' ') {
      name.remove_prefix(1);
    }
    info.class_name = name;
    auto slot = SlotOf(&tables->classifications, info.id);
    tables->classifications.insert(slot, std::move(info));
    return true;
  }
  if (keyword == "alloc") {
    ClassificationId id = kNoClassification;
    uint64_t bytes = 0;
    if (!fields->Read(&id) || !fields->Read(&bytes) || !fields->AtEnd()) {
      return false;
    }
    ClassificationInfo* info = FindById(tables->classifications, id);
    if (info == nullptr) {
      return false;
    }
    info->allocation_bytes += bytes;
    return true;
  }
  if (keyword == "compute") {
    ClassificationId id = kNoClassification;
    double seconds = 0.0;
    if (!fields->Read(&id) || !fields->Read(&seconds) || !fields->AtEnd() ||
        !std::isfinite(seconds) || seconds < 0.0 || !tables->IsDeclared(id)) {
      return false;
    }
    auto slot = SlotOf(&tables->compute, id);
    if (slot != tables->compute.end() && slot->id == id) {
      slot->seconds += seconds;
    } else {
      tables->compute.insert(slot, ComputeRecord{id, seconds});
    }
    return true;
  }
  if (keyword == "call") {
    std::vector<CallRecord>& calls = tables->calls;
    CallRecord& row = calls.emplace_back();
    CallKey& key = row.key;
    std::string_view marker;
    if (!fields->Read(&key.src) || !fields->Read(&key.dst) || !ReadGuid(fields, &key.iid) ||
        !fields->Read(&key.method) || !fields->Read(&row.summary.non_remotable_calls) ||
        !tables->IsEndpoint(key.src) || !tables->IsEndpoint(key.dst) ||
        !fields->Read(&marker) || marker != "req" ||
        !ReadHistogram(fields, &row.summary.requests) || !fields->Read(&marker) ||
        marker != "rep" || !ReadHistogram(fields, &row.summary.replies) || !fields->AtEnd()) {
      return false;
    }
    if (calls.size() > 1 && !PairMajorLess(calls[calls.size() - 2].key, key)) {
      tables->calls_canonical = false;
    }
    return true;
  }
  return false;
}

}  // namespace

std::string SerializeProfile(const IccProfile& profile) {
  std::string out;
  // Every scenario log runs 82-87 bytes per classification and per call.
  out.reserve(kMagic.size() + 96 * (profile.classifications().size() + profile.calls().size()));
  out.append(kMagic);
  out += '\n';
  // Compute rows are sorted by id like the classifications; rows of ids
  // that are not classifications are not written.
  auto compute = profile.compute().begin();
  const auto compute_end = profile.compute().end();
  for (const ClassificationInfo& info : profile.classifications()) {
    // The name goes up to its first NUL, as the format's %s always wrote it.
    const std::string_view name(info.class_name.c_str());
    RecordWriter record(&out, kClassificationBound + name.size());
    record.Append("classification ", info.id, ' ', info.clsid, ' ', info.api_usage, ' ',
                  info.instance_count, ' ', name, '\n');
    if (info.allocation_bytes > 0) {
      record.Append("alloc ", info.id, ' ', info.allocation_bytes, '\n');
    }
    while (compute != compute_end && compute->id < info.id) {
      ++compute;
    }
    if (compute != compute_end && compute->id == info.id && compute->seconds > 0.0) {
      record.Append("compute ", info.id, ' ');
      record.AppendSeconds(compute->seconds);
      record.Append('\n');
    }
  }
  for (const auto& [key, summary] : profile.calls()) {
    RecordWriter record(&out, kCallBound + kBucketBound * (summary.requests.bucket_count() +
                                                           summary.replies.bucket_count()));
    record.Append("call ", key.src, ' ', key.dst, ' ', key.iid, ' ', key.method, ' ',
                  summary.non_remotable_calls, " req");
    record.AppendHistogram(summary.requests);
    record.Append(" ; rep");
    record.AppendHistogram(summary.replies);
    record.Append(" ;\n");
  }
  return out;
}

Result<IccProfile> ParseProfile(std::string_view text) {
  LineReader lines(text);
  std::string_view line;
  if (!lines.Next(&line) || line != kMagic) {
    return InvalidArgumentError("missing profile magic header");
  }
  Tables tables;
  // Call records are most of a log, at about 90 bytes each.
  tables.calls.reserve(text.size() / 96);
  int line_number = 1;
  while (lines.Next(&line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    FieldReader fields(line);
    std::string_view keyword;
    fields.Read(&keyword);
    if (!ParseRecord(keyword, &fields, &tables)) {
      return MalformedRecord(line_number, keyword);
    }
  }
  if (!tables.calls_canonical) {
    tables.SortAndFoldCalls();
  }
  return IccProfile(std::move(tables.classifications), std::move(tables.compute),
                    std::move(tables.calls));
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
