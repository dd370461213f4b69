#include "util/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/error.h"

namespace emcgm {

namespace {

[[noreturn]] void fail(const char* what, const std::string& path) {
  throw IoError(IoErrorKind::kSystem, std::string("cannot ") + what + " " +
                                          path + ": " + std::strerror(errno));
}

}  // namespace

void write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) fail("open", path);
  // fwrite buffers, so a full disk may only show at the flush or the close.
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fflush(f) == 0;
  if (std::fclose(f) != 0 || !ok) fail("write", path);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) fail("open", path);
  std::string text;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) fail("read", path);
  return text;
}

}  // namespace emcgm
