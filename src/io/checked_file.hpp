// Checked low-level file helpers shared by the io readers/writers.
//
// Every file operation in the repo must surface errno context in the
// thrown error (DESIGN §15) instead of silently producing truncated
// data. This header is the one place raw OS file calls are allowed —
// the mrscan_analyze `raw-io` rule flags `open`/`fopen`/`mmap` & co.
// anywhere outside src/io/.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace mrscan::io {

/// Throw std::runtime_error with the failing path, a description of the
/// operation, and the current errno rendered via strerror (omitted when
/// errno is 0, e.g. for format-validation failures).
[[noreturn]] void fail(const std::filesystem::path& path,
                       const std::string& what);

/// fail() for a file whose bytes break its format: errno is cleared
/// first, so the message carries no stale OS error.
[[noreturn]] void format_fail(const std::filesystem::path& path,
                              const std::string& what);

/// A binary file format's identity. Every mrscan binary file (MRSC
/// points, MRSG segments, MRLB labeled output, MRCK checkpoints) starts
/// with its 4-byte magic and a u32 version; `name` is what errors call
/// the format.
struct FileFormat {
  char magic[4];
  std::uint32_t version;
  const char* name;
};

/// Append `format`'s magic and version to `buf`.
void append_format_header(std::vector<std::uint8_t>& buf,
                          const FileFormat& format);

/// Consume and check the magic and version at `in`'s cursor. Throws
/// through format_fail(), naming the path and the format, when the bytes
/// are short, the magic differs or the version is not `format.version`.
void check_format_header(const std::filesystem::path& path,
                         util::ByteReader& in, const FileFormat& format);

/// Read an entire file into memory. Throws with errno context on any
/// failure, including a short read against the stat'd size.
std::vector<std::uint8_t> read_file_bytes(const std::filesystem::path& path);

/// Whole-file write: open, write and close are each checked and throw
/// with errno context. Nothing is fsync'd, so a crash may leave the file
/// torn, zeroed or missing; use it only where no later run trusts the
/// file after a crash without checking it: segment files, which a resume
/// rewrites, and label spills, which a resume checks against the size
/// and digest their checkpoint entry recorded (DESIGN §15).
void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes);

/// Crash-safe whole-file write: the bytes are written to `<path>.tmp`,
/// flushed and fsync'd, and the temp file is then renamed over `path`.
/// A reader therefore sees either the complete old file or the complete
/// new file — never a torn mix (DESIGN §15 atomicity argument). The
/// containing directory is fsync'd best-effort so the rename itself is
/// durable. Two fsyncs and a rename per call: meant for a file written
/// once per run (a checkpoint manifest's creation), not per leaf.
void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::uint8_t> bytes);

/// Durable append to an existing file: one O_APPEND write, one
/// fdatasync, then close, each checked and throwing with errno context.
/// The file must exist (it is not created). A crash mid-append can leave
/// a torn tail after the old bytes, never damage them, so the format
/// appended to must detect a torn tail (the MRCK entry checksums do).
void append_file(const std::filesystem::path& path,
                 std::span<const std::uint8_t> bytes);

}  // namespace mrscan::io
