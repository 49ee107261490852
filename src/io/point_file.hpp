// Point file formats.
//
// Mr. Scan "starts with a single input file on a parallel file system"
// where "input points are contained in a single binary or text file" and
// "each input point has a unique ID number, coordinates, and an optional
// weight" (§3). Both formats are implemented:
//   * binary — "MRSC" | version u32 | count u64, then fixed 28-byte
//     records, little-endian through util/bytes.hpp;
//   * text   — one "id x y [weight]" line per point.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "geometry/point.hpp"

namespace mrscan::io {

/// Bytes per binary point record (id u64 + x f64 + y f64 + weight f32).
/// The Titan I/O model charges partition reads/writes per record at this
/// size; point_file.cpp static_asserts it against the encoded layout so
/// the model cannot drift from what is actually serialized.
inline constexpr std::size_t kBinaryRecordSize = 28;

/// Bytes per clustered-output record the sweep phase writes (§3.4): a
/// binary point record plus its global cluster id (i64). Matches
/// sweep::LabeledPoint's wire form; shares kBinaryRecordSize so a point
/// layout change flows into the output model automatically.
inline constexpr std::size_t kLabeledRecordSize =
    kBinaryRecordSize + sizeof(std::int64_t);

/// Write points as the binary format (overwrites). Throws std::runtime_error
/// on I/O failure.
void write_points_binary(const std::filesystem::path& path,
                         std::span<const geom::Point> points);

/// Read an entire binary point file. Throws std::runtime_error naming
/// the path on a missing or corrupt file, and on a non-finite x, y or
/// weight, naming its 0-based record as well.
geom::PointSet read_points_binary(const std::filesystem::path& path);

/// Append one point's binary record encoding (kBinaryRecordSize bytes,
/// little-endian) to `buf`: the one point-record encoder, shared by the
/// point, segment and labeled output files.
void encode_binary_record(std::vector<std::uint8_t>& buf,
                          const geom::Point& p);

/// Decode one binary point record from `data`, which must hold
/// kBinaryRecordSize bytes (the callers bounds-check whole record runs).
geom::Point decode_binary_record(const std::uint8_t* data);

/// Read a text point file, one "id x y [weight]" line per point; the
/// weight defaults to 1. Empty lines and lines starting with '#' are
/// skipped. Every other line must hold exactly three or four numbers:
/// an unsigned decimal id and finite coordinates and weight, each in
/// its type's range (a value that would underflow to zero is out of
/// range too). Anything else throws "malformed text record at line N"
/// (1-based).
geom::PointSet read_points_text(const std::filesystem::path& path);

}  // namespace mrscan::io
