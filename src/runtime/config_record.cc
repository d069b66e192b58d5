#include "src/runtime/config_record.h"

#include "src/support/str_util.h"

namespace coign {

const char* RuntimeModeName(RuntimeMode mode) {
  switch (mode) {
    case RuntimeMode::kProfiling:
      return "profiling";
    case RuntimeMode::kDistributed:
      return "distributed";
  }
  return "?";
}

namespace {

constexpr char kMagic[] = "coign-config v1";

int ClassifierKindIndex(ClassifierKind kind) {
  const auto& kinds = AllClassifierKinds();
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == kind) {
      return static_cast<int>(i);
    }
  }
  return 0;
}

// A record that breaks the format: a missing, extra or unreadable field,
// or a value out of its range. A field read as 0 instead would silently
// change the placement, so every record is checked.
Status MalformedRecord(int line_number, std::string_view keyword) {
  return InvalidArgumentError(StrFormat("config line %d: malformed '%.*s' record", line_number,
                                        static_cast<int>(keyword.size()), keyword.data()));
}

// Parses one record other than `profile` into *record. Numbers read whole
// (signed fields keep their sign), and a record has no trailing fields.
bool ParseRecord(std::string_view keyword, FieldReader* fields, ConfigurationRecord* record) {
  if (keyword == "mode") {
    int mode = 0;
    if (!fields->Read(&mode) || !fields->AtEnd() || (mode != 0 && mode != 1)) {
      return false;
    }
    record->mode = mode == 0 ? RuntimeMode::kProfiling : RuntimeMode::kDistributed;
    return true;
  }
  if (keyword == "classifier") {
    const auto& kinds = AllClassifierKinds();
    size_t kind_index = 0;
    int depth = 0;
    if (!fields->Read(&kind_index) || !fields->Read(&depth) || !fields->AtEnd() ||
        kind_index >= kinds.size()) {
      return false;
    }
    record->classifier_kind = kinds[kind_index];
    record->classifier_depth = depth;
    return true;
  }
  if (keyword == "default-machine") {
    return fields->Read(&record->distribution.default_machine) && fields->AtEnd();
  }
  if (keyword == "place") {
    ClassificationId id = kNoClassification;
    MachineId machine = kClientMachine;
    if (!fields->Read(&id) || !fields->Read(&machine) || !fields->AtEnd()) {
      return false;
    }
    record->distribution.placement[id] = machine;
    return true;
  }
  if (keyword == "desc") {
    std::string_view clsid;
    size_t token_count = 0;
    if (!fields->Read(&clsid) || !fields->Read(&token_count)) {
      return false;
    }
    Result<Guid> parsed = Guid::Parse(clsid);
    if (!parsed.ok()) {
      return false;
    }
    Descriptor descriptor;
    descriptor.clsid = *parsed;
    for (size_t i = 0; i < token_count; ++i) {
      std::string_view text;
      DescriptorToken token;
      if (!fields->Read(&text) || !ParseColonTriple(text, &token.tag, &token.a, &token.b)) {
        return false;
      }
      descriptor.tokens.push_back(token);
    }
    if (!fields->AtEnd()) {
      return false;
    }
    record->classifier_table.push_back(std::move(descriptor));
    return true;
  }
  return false;
}

}  // namespace

std::string ConfigurationRecord::Serialize() const {
  std::string out = kMagic;
  out += StrFormat("\nmode %d\nclassifier %d %d\ndefault-machine %d\n",
                   static_cast<int>(mode), ClassifierKindIndex(classifier_kind),
                   classifier_depth, distribution.default_machine);
  for (const auto& [id, machine] : distribution.placement) {
    out += StrFormat("place %u %d\n", id, machine);
  }
  for (const Descriptor& descriptor : classifier_table) {
    out += StrFormat("desc %s %zu", descriptor.clsid.ToString().c_str(),
                     descriptor.tokens.size());
    for (const DescriptorToken& token : descriptor.tokens) {
      out += StrFormat(" %llu:%llu:%llu", static_cast<unsigned long long>(token.tag),
                       static_cast<unsigned long long>(token.a),
                       static_cast<unsigned long long>(token.b));
    }
    out += "\n";
  }
  out += StrFormat("profile %zu\n", profile_text.size());
  out += profile_text;
  return out;
}

Result<ConfigurationRecord> ConfigurationRecord::Parse(const std::string& text) {
  LineReader lines(text);
  std::string_view line;
  if (!lines.Next(&line) || line != kMagic) {
    return InvalidArgumentError("missing configuration record magic");
  }
  ConfigurationRecord record;
  int line_number = 1;
  while (lines.Next(&line)) {
    ++line_number;
    FieldReader fields(line);
    std::string_view keyword;
    if (!fields.Read(&keyword)) {
      continue;
    }
    if (keyword == "profile") {
      // The payload is the next `length` bytes, newlines and all.
      size_t length = 0;
      const std::string_view payload = lines.rest();
      if (!fields.Read(&length) || !fields.AtEnd() || payload.size() < length) {
        return MalformedRecord(line_number, keyword);
      }
      record.profile_text = payload.substr(0, length);
      return record;
    }
    if (!ParseRecord(keyword, &fields, &record)) {
      return MalformedRecord(line_number, keyword);
    }
  }
  return record;
}

}  // namespace coign
