// The one whole-file reader and writer behind every file Coign reads or
// writes: profile logs, configuration records, migration journals,
// traces, metrics, DOT graphs and bench trajectories. The caller names
// what the file holds (`what`, e.g. "profile file"); every error message
// carries that name and the path.

#ifndef COIGN_SRC_SUPPORT_FILE_IO_H_
#define COIGN_SRC_SUPPORT_FILE_IO_H_

#include <string>
#include <string_view>

#include "src/support/status.h"

namespace coign {

// Reads all of `path`. A path that cannot be opened is NotFound
// ("cannot open <what>: <path>"); one that opens but does not read, such
// as a directory, is Internal ("cannot read <what>: <path>").
Result<std::string> ReadFile(const std::string& path, std::string_view what);

// Truncates `path` and writes `text` to it, flushed and checked. A path
// that cannot be opened ("cannot open <what> for writing: <path>") or a
// failed write ("cannot write <what>: <path>") is Internal.
Status WriteFile(const std::string& path, std::string_view text, std::string_view what);

}  // namespace coign

#endif  // COIGN_SRC_SUPPORT_FILE_IO_H_
