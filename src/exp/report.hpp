// Result files: the one helper the programs use to persist an artifact
// (a generated script, a telemetry document) under a path whose
// directories may not exist yet.
#pragma once

#include <string>

namespace dhtlb::exp {

/// Writes `content` to `path`, creating parent directories as needed.
/// Returns false on I/O failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace dhtlb::exp
