// Checkpoint/restart of completed leaves for out-of-core runs.
//
// The merge tree's state is a pure function of the leaf summaries
// (DESIGN §15), so checkpointing the frontier of finished leaves is
// enough to restart a killed run: `mrscan_cli --resume` restores each
// finished leaf's summary packet, simulated ready time and GPU stats,
// re-runs only the missing leaves, and replays merge + sweep
// deterministically.
//
// Manifest file format, written through util/bytes.hpp (native byte
// order, which that header static_asserts is little-endian):
//
//   magic "MRCK" (4) | version u32 (2) | fingerprint u64 | total_leaves u64
//   entry*:  rank u32 | ready_seconds f64 | labels_bytes u64
//            | labels_digest u64 | stats_len u32 | stats bytes
//            | summary_len u32 | summary bytes
//            | util::fnv1a of the entry's bytes u64
//
// A run creates the manifest once with save_checkpoint, which goes
// through io::write_file_atomic (temp + fsync + rename), and then adds
// each chunk's entries with append_checkpoint: one O_APPEND write and
// one fdatasync (io::append_file). Appending N entries one call at a
// time gives the same bytes as one save_checkpoint of all N. A crash
// mid-append leaves at most a torn *tail*, which load_checkpoint
// tolerates: per-entry checksums let it restore the longest valid prefix
// of entries and drop the rest, and it never mislabels a damaged entry
// as a finished leaf.
//
// The stats/summary blobs are opaque bytes: fault sits below mrnet in
// the module DAG, so the packet encoding/decoding lives in core.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

namespace mrscan::fault {

/// One finished leaf: everything core needs to skip re-clustering it.
struct CheckpointEntry {
  std::uint32_t rank = 0;
  /// Simulated seconds until the leaf's summary was ready (read +
  /// cluster + summary build), restored so resumed runs reproduce the
  /// original run's sim timings bit-for-bit.
  double ready_seconds = 0.0;
  /// Byte size and util::fnv1a of the leaf's label spill file. The
  /// spill is written without fsync, so resume re-clusters the leaf
  /// unless the file on disk matches both.
  std::uint64_t labels_bytes = 0;
  std::uint64_t labels_digest = 0;
  std::vector<std::uint8_t> stats;    // opaque: GPU stats packet
  std::vector<std::uint8_t> summary;  // opaque: MergeSummary packet

  friend bool operator==(const CheckpointEntry&,
                         const CheckpointEntry&) = default;
};

struct CheckpointManifest {
  /// Word-wise FNV-1a over every input point (id, x, y, weight) and every
  /// setting a restored entry depends on: the plan's, the leaf kernels',
  /// and the machine-model terms of a leaf's stats and ready time. A
  /// mismatch on load means the checkpoint belongs to a different run and
  /// must not be restored.
  std::uint64_t fingerprint = 0;
  std::uint64_t total_leaves = 0;
  std::vector<CheckpointEntry> entries;
};

/// Serialize and atomically write the manifest. Throws with errno
/// context on failure. Returns the serialized byte size.
std::size_t save_checkpoint(const std::filesystem::path& path,
                            const CheckpointManifest& manifest);

/// Append `entries` to the manifest save_checkpoint created at `path`,
/// durably (io::append_file). Throws with errno context on failure.
/// Returns the appended byte size.
std::size_t append_checkpoint(const std::filesystem::path& path,
                              std::span<const CheckpointEntry> entries);

/// Load a manifest. Throws (with path + errno context) when the file is
/// missing, not a manifest, a wrong version, or carries a different
/// fingerprint. A torn entry tail is not an error: entries are restored
/// up to the first short or checksum-failed entry and the rest dropped.
CheckpointManifest load_checkpoint(const std::filesystem::path& path,
                                   std::uint64_t expected_fingerprint);

}  // namespace mrscan::fault
