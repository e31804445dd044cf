// Crash-safe file output, shared by every writer in the project: run
// artifacts, reports, prune plans, the service store and configuration
// files.
#pragma once

#include <string>
#include <string_view>

namespace fades::common {

/// Write `bytes` to `path` through `<path>.tmp` and an atomic rename(), so a
/// process killed mid-write leaves either the previous complete file or a
/// stray .tmp - never a truncated file that parses as complete. An
/// unwritable path raises FadesError (InvalidArgument) naming the path.
void writeFile(const std::string& path, std::string_view bytes);

}  // namespace fades::common
