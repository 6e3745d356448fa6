#include "common/durable_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace aedbmls::io {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

bool write_fully(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

// Best effort: persist the rename itself by fsyncing the directory entry.
void sync_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc = (crc >> 8) ^ kCrc32Table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string crc32_hex(std::string_view bytes) {
  char buffer[9];
  std::snprintf(buffer, sizeof(buffer), "%08x", crc32(bytes));
  return buffer;
}

std::string with_crc_trailer(std::string_view payload) {
  std::string out(payload);
  out += kCrcTrailerPrefix;
  out += crc32_hex(payload);
  out += '\n';
  return out;
}

bool atomic_write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool wrote = write_fully(fd, bytes) && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  sync_parent_dir(path);
  return true;
}

void atomic_write_file_or_throw(const std::string& path,
                                std::string_view bytes) {
  if (!atomic_write_file(path, bytes)) {
    throw std::runtime_error("cannot write " + path + ": " +
                             std::strerror(errno));
  }
}

}  // namespace aedbmls::io
