#pragma once

// Hardened small-file persistence: CRC32 trailers + atomic replacement.
//
// Every durable artifact in this codebase (indicator CSVs, the cell logs
// of shard files and the campaign store, telemetry dumps, result tables)
// is a line-oriented ASCII file small enough to build in memory.  Two
// failure modes matter:
//
//  * torn writes — a crash mid-write leaves a prefix of the new file (or,
//    with in-place truncation, neither the old nor the new contents);
//  * silent corruption — a flipped byte that still parses.
//
// `atomic_write_file` closes the first window: write to `<path>.tmp.<pid>`,
// fsync, then rename(2) over the target, so readers see either the old or
// the complete new bytes, never a prefix.  Checksums close the second:
// the files the program reads back (cell logs) carry a CRC32 per record
// (`crc32_hex`), and the write-only outputs (indicator CSVs, telemetry
// dumps) end in a `#crc32 xxxxxxxx` trailer line over everything before
// it (`with_crc_trailer`) that any reader can check.

#include <cstdint>
#include <string>
#include <string_view>

namespace aedbmls::io {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `bytes`.
/// Known answer: crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

/// `crc32(bytes)` as 8 lowercase hex digits.
[[nodiscard]] std::string crc32_hex(std::string_view bytes);

/// The trailer line appended to checksummed files: "#crc32 xxxxxxxx\n".
inline constexpr std::string_view kCrcTrailerPrefix = "#crc32 ";

/// `payload` + the trailer line checksumming it.
[[nodiscard]] std::string with_crc_trailer(std::string_view payload);

/// Atomically replaces `path` with `bytes` via tmp + fsync + rename.
/// Returns false (leaving any previous file intact and removing the temp
/// file) if any step fails.
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     std::string_view bytes);

/// As above, but throws std::runtime_error naming the path on failure.
void atomic_write_file_or_throw(const std::string& path,
                                std::string_view bytes);

}  // namespace aedbmls::io
