// Per-leaf segment files and their read-only memory mapping.
//
// Out-of-core execution (DESIGN §15) materializes the partition phase's
// output as one binary file per leaf instead of resident io::Segment
// vectors. The format reuses the 28-byte point record
// (io::encode_binary_record) under a small header, all little-endian
// through util/bytes.hpp:
//
//   magic "MRSG" (4) | version u32 | owned u64 | shadow u64   -- 24 bytes
//   owned records .. shadow records, kBinaryRecordSize each
//
// MappedSegment maps such a file read-only with RAII unmap; the cluster
// phase maps a leaf just before clustering it and drops the mapping once
// the leaf's MergeSummary has been extracted, bounding peak residency to
// working_set_leaves × points_per_leaf.
#pragma once

#include <cstdint>
#include <filesystem>

#include "geometry/point.hpp"

namespace mrscan::io {

/// One leaf's partition in memory: its owned points, then the shadow
/// points that complete their neighbourhoods (§3.1.1).
struct Segment {
  geom::PointSet owned;
  geom::PointSet shadow;
};

/// Record counts of a per-leaf segment file (owned points first, then
/// shadow-region points). The partition phase reports these for every
/// leaf so downstream sim cost models don't need the points resident.
struct SegmentCounts {
  std::uint64_t owned = 0;
  std::uint64_t shadow = 0;

  std::uint64_t total() const { return owned + shadow; }

  friend bool operator==(const SegmentCounts&, const SegmentCounts&) = default;
};

/// Write one leaf's segment (owned then shadow records) as a segment
/// file. Throws with errno context on any failure. The write is not
/// atomic: segment files are scratch, which a resume rewrites in its
/// partition phase before anything reads them (DESIGN §15).
void write_segment_file(const std::filesystem::path& path,
                        const Segment& segment);

/// A read-only memory mapping of a segment file. Move-only; the mapping
/// is released (munmap + close) on destruction. The constructor
/// validates the header and that the file size matches the record
/// counts exactly, so decode can never run off the mapping.
class MappedSegment {
 public:
  explicit MappedSegment(const std::filesystem::path& path);
  ~MappedSegment();

  MappedSegment(MappedSegment&& other) noexcept;
  MappedSegment& operator=(MappedSegment&& other) noexcept;
  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  std::uint64_t owned_count() const { return counts_.owned; }
  std::uint64_t shadow_count() const { return counts_.shadow; }
  std::uint64_t total_count() const { return counts_.total(); }

  /// Size of the mapping in bytes (header + records).
  std::size_t mapped_bytes() const { return size_; }

  /// Decode every record, owned first then shadow — the exact point
  /// order the resident cluster path sees, so out-of-core runs stay
  /// bit-identical to resident ones.
  geom::PointSet decode_all() const;

  /// Decode only the owned records (what the sweep phase labels).
  geom::PointSet decode_owned() const;

 private:
  void release() noexcept;

  void* data_ = nullptr;
  std::size_t size_ = 0;
  SegmentCounts counts_;
};

/// Canonical segment-file name for a leaf rank inside a spool directory.
std::filesystem::path segment_file_path(const std::filesystem::path& dir,
                                        std::size_t leaf_rank);

}  // namespace mrscan::io
