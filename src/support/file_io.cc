#include "src/support/file_io.h"

#include <fstream>

namespace coign {

Result<std::string> ReadFile(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + std::string(what) + ": " + path);
  }
  // Read straight into the string, a chunk at a time. A failed read (a
  // directory opens but does not read) sets badbit, not just eof.
  constexpr size_t kChunk = 64 * 1024;
  std::string text;
  while (in) {
    const size_t size = text.size();
    text.resize(size + kChunk);
    in.read(text.data() + size, kChunk);
    text.resize(size + static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return InternalError("cannot read " + std::string(what) + ": " + path);
  }
  return text;
}

Status WriteFile(const std::string& path, std::string_view text, std::string_view what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return InternalError("cannot open " + std::string(what) + " for writing: " + path);
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) {
    return InternalError("cannot write " + std::string(what) + ": " + path);
  }
  return Status::Ok();
}

}  // namespace coign
