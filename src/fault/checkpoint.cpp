#include "fault/checkpoint.hpp"

#include <span>

#include "io/checked_file.hpp"
#include "util/bytes.hpp"

namespace mrscan::fault {

namespace {

constexpr io::FileFormat kCheckpointFormat{{'M', 'R', 'C', 'K'}, 1,
                                           "checkpoint manifest"};

/// A blob: its u32 length, then its bytes.
void append_blob(std::vector<std::uint8_t>& buf,
                 const std::vector<std::uint8_t>& blob) {
  util::append(buf, static_cast<std::uint32_t>(blob.size()));
  util::append_raw(buf, blob.data(), blob.size());
}

bool read_blob(util::ByteReader& in, std::vector<std::uint8_t>& blob) {
  std::uint32_t len = 0;
  if (!in.read(len)) return false;
  const auto bytes = in.take(len);
  if (!bytes) return false;
  blob.assign(bytes->begin(), bytes->end());
  return true;
}

void append_entry(std::vector<std::uint8_t>& buf,
                  const CheckpointEntry& entry) {
  const std::size_t begin = buf.size();
  util::append(buf, entry.rank);
  util::append(buf, entry.ready_seconds);
  util::append(buf, entry.labels_bytes);
  append_blob(buf, entry.stats);
  append_blob(buf, entry.summary);
  const std::uint64_t checksum =
      util::fnv1a(std::span<const std::uint8_t>(buf).subspan(begin));
  util::append(buf, checksum);
}

/// Reads the entry at `in`'s cursor; returns false when the remaining
/// bytes are short, damaged, or name an impossible rank — the torn-tail
/// cases load_checkpoint truncates at.
bool parse_entry(std::span<const std::uint8_t> bytes, util::ByteReader& in,
                 const CheckpointManifest& manifest, CheckpointEntry& out) {
  const std::size_t begin = in.offset();
  if (!in.read(out.rank) || !in.read(out.ready_seconds) ||
      !in.read(out.labels_bytes) || !read_blob(in, out.stats) ||
      !read_blob(in, out.summary)) {
    return false;
  }
  const std::uint64_t expected =
      util::fnv1a(bytes.subspan(begin, in.offset() - begin));
  std::uint64_t checksum = 0;
  return in.read(checksum) && checksum == expected &&
         out.rank < manifest.total_leaves;
}

}  // namespace

std::size_t save_checkpoint(const std::filesystem::path& path,
                            const CheckpointManifest& manifest) {
  std::vector<std::uint8_t> buf;
  io::append_format_header(buf, kCheckpointFormat);
  util::append(buf, manifest.fingerprint);
  util::append(buf, manifest.total_leaves);
  for (const CheckpointEntry& entry : manifest.entries) {
    append_entry(buf, entry);
  }
  io::write_file_atomic(path, buf);
  return buf.size();
}

CheckpointManifest load_checkpoint(const std::filesystem::path& path,
                                   std::uint64_t expected_fingerprint) {
  const std::vector<std::uint8_t> bytes = io::read_file_bytes(path);
  util::ByteReader in(bytes);
  io::check_format_header(path, in, kCheckpointFormat);
  CheckpointManifest manifest;
  if (!in.read(manifest.fingerprint) || !in.read(manifest.total_leaves)) {
    io::format_fail(path, "truncated checkpoint manifest header");
  }
  if (manifest.fingerprint != expected_fingerprint) {
    io::format_fail(
        path, "checkpoint manifest does not match this run's configuration");
  }
  while (!in.at_end()) {
    CheckpointEntry entry;
    // Torn tail: every entry before it checksummed clean, so restore
    // that prefix and let resume re-cluster the rest.
    if (!parse_entry(bytes, in, manifest, entry)) break;
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

}  // namespace mrscan::fault
