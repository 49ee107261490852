// Streamed binary clustered-output file.
//
// Out-of-core runs cannot hold the labeled output resident, so the sweep
// phase streams records to disk as each leaf's scatter callback fires.
// Records are io::kLabeledRecordSize bytes — the 28-byte point record
// (io::encode_binary_record) followed by the global cluster id (i64) —
// under a small header, all little-endian through util/bytes.hpp:
//
//   magic "MRLB" (4) | version u32                             -- 8 bytes
//
// No record count in the header: the writer appends until closed, and
// the reader derives the count from the file size (rejecting a size
// that is not a whole number of records). Callback order on the
// simulated event loop is deterministic, so the record order matches a
// resident run's result.output byte-for-byte (DESIGN §8, §15).
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "geometry/point.hpp"

namespace mrscan::io {

/// Append-only writer for the labeled binary format. Records are
/// encoded into a block that is written when it fills; close() (or the
/// destructor) writes the rest and flushes. close() throws with errno
/// context on failure, the destructor swallows (use close() on the
/// success path).
class LabeledFileWriter {
 public:
  explicit LabeledFileWriter(const std::filesystem::path& path);
  ~LabeledFileWriter();

  LabeledFileWriter(const LabeledFileWriter&) = delete;
  LabeledFileWriter& operator=(const LabeledFileWriter&) = delete;

  void append(const geom::Point& point, std::int64_t cluster);
  std::uint64_t records() const { return records_; }
  void close();

 private:
  /// Write and clear `buf_`.
  void write_buf();

  std::filesystem::path path_;
  std::ofstream out_;
  std::vector<std::uint8_t> buf_;  // encoded bytes not yet written
  std::uint64_t records_ = 0;
  bool open_ = false;
};

/// Streaming reader; next() returns false at a clean end-of-file and
/// throws on a torn tail (the constructor already rejects files whose
/// size is not header + n × kLabeledRecordSize).
class LabeledFileReader {
 public:
  explicit LabeledFileReader(const std::filesystem::path& path);

  std::uint64_t records() const { return records_; }
  bool next(geom::Point& point, std::int64_t& cluster);

 private:
  std::filesystem::path path_;
  std::ifstream in_;
  std::uint64_t records_ = 0;
  std::uint64_t cursor_ = 0;
};

}  // namespace mrscan::io
