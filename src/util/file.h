// Whole-file reads and writes. Every file the tools, benches and exporters
// read or write goes through these two calls, so a failed open, write,
// flush, close or read surfaces one way: an IoError(kSystem) naming the
// path, never a run that reports success after writing to a full disk.
#pragma once

#include <string>
#include <string_view>

namespace emcgm {

/// Replace the file at `path` with `text`.
void write_file(const std::string& path, std::string_view text);

/// The whole content of the file at `path`.
std::string read_file(const std::string& path);

}  // namespace emcgm
