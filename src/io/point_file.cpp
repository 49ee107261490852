#include "io/point_file.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/checked_file.hpp"
#include "util/assert.hpp"

namespace mrscan::io {

namespace {

constexpr char kMagic[4] = {'M', 'R', 'S', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 4 + 8;  // magic, version, count

void put_bytes(std::vector<char>& buf, const void* src, std::size_t n) {
  const char* p = static_cast<const char*>(src);
  buf.insert(buf.end(), p, p + n);
}

/// Failure with errno context (io::fail); format-validation failures
/// clear errno first so they don't pick up a stale code.
[[noreturn]] void io_fail(const std::filesystem::path& path,
                          const std::string& what,
                          bool format_error = false) {
  if (format_error) errno = 0;
  fail(path, what);
}

static_assert(kBinaryRecordSize == sizeof(geom::Point::id) +
                                       sizeof(geom::Point::x) +
                                       sizeof(geom::Point::y) +
                                       sizeof(geom::Point::weight),
              "kBinaryRecordSize must match the encoded point layout");

void encode_record(std::vector<char>& buf, const geom::Point& p) {
  put_bytes(buf, &p.id, 8);
  put_bytes(buf, &p.x, 8);
  put_bytes(buf, &p.y, 8);
  put_bytes(buf, &p.weight, 4);
}

geom::Point decode_record(const char* data) {
  geom::Point p;
  std::memcpy(&p.id, data, 8);
  std::memcpy(&p.x, data + 8, 8);
  std::memcpy(&p.y, data + 16, 8);
  std::memcpy(&p.weight, data + 24, 4);
  return p;
}

}  // namespace

void encode_binary_record(std::vector<std::uint8_t>& buf,
                          const geom::Point& p) {
  const auto put = [&buf](const void* src, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(src);
    buf.insert(buf.end(), bytes, bytes + n);
  };
  put(&p.id, 8);
  put(&p.x, 8);
  put(&p.y, 8);
  put(&p.weight, 4);
}

geom::Point decode_binary_record(const std::uint8_t* data) {
  return decode_record(reinterpret_cast<const char*>(data));
}

void write_points_binary(const std::filesystem::path& path,
                         std::span<const geom::Point> points) {
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) io_fail(path, "cannot open for writing");

  std::vector<char> buf;
  buf.reserve(kHeaderSize + points.size() * kBinaryRecordSize);
  put_bytes(buf, kMagic, 4);
  put_bytes(buf, &kVersion, 4);
  const std::uint64_t count = points.size();
  put_bytes(buf, &count, 8);
  for (const geom::Point& p : points) encode_record(buf, p);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  // close() flushes what the stream still buffers; the destructor would
  // swallow a failure there (a full disk).
  out.close();
  if (!out) io_fail(path, "write failed");
}

namespace {

std::uint64_t read_header(std::ifstream& in,
                          const std::filesystem::path& path) {
  char magic[4];
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  in.read(magic, 4);
  in.read(reinterpret_cast<char*>(&version), 4);
  in.read(reinterpret_cast<char*>(&count), 8);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    io_fail(path, "not a mrscan binary point file", /*format_error=*/true);
  }
  if (version != kVersion) {
    io_fail(path, "unsupported file version", /*format_error=*/true);
  }
  // Validate the declared count against the actual file size before any
  // allocation: a corrupt header must fail with context, not attempt a
  // multi-terabyte reserve or silently yield a truncated point set.
  const std::uintmax_t size = std::filesystem::file_size(path);
  if (size < kHeaderSize ||
      count > (size - kHeaderSize) / kBinaryRecordSize) {
    io_fail(path, "header record count exceeds file size",
            /*format_error=*/true);
  }
  return count;
}

}  // namespace

geom::PointSet read_points_binary(const std::filesystem::path& path) {
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail(path, "cannot open");
  const std::uint64_t count = read_header(in, path);
  return [&] {
    geom::PointSet points;
    points.reserve(count);
    std::vector<char> buf(count * kBinaryRecordSize);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!in) io_fail(path, "truncated point file", /*format_error=*/true);
    for (std::uint64_t i = 0; i < count; ++i) {
      points.push_back(decode_record(buf.data() + i * kBinaryRecordSize));
    }
    return points;
  }();
}

namespace {

/// The next whitespace-separated field of `line` at or after `pos`
/// (advanced past it); empty when the line has no more fields.
std::string_view next_field(std::string_view line, std::size_t& pos) {
  const auto is_space = [&](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(line[i])) != 0;
  };
  while (pos < line.size() && is_space(pos)) ++pos;
  const std::size_t start = pos;
  while (pos < line.size() && !is_space(pos)) ++pos;
  return line.substr(start, pos - start);
}

/// Parse a whole field as one number: an unsigned decimal id, or a
/// finite floating-point value. A leading '+' is accepted; nan, inf,
/// out-of-range values, a '-' on the id and trailing characters are not.
template <typename T>
bool parse_field(std::string_view field, T& value) {
  if (field.size() > 1 && field[0] == '+' && field[1] != '-') {
    field.remove_prefix(1);
  }
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(value);
  return true;
}

}  // namespace

geom::PointSet read_points_text(const std::filesystem::path& path) {
  errno = 0;
  std::ifstream in(path);
  if (!in) io_fail(path, "cannot open");
  geom::PointSet points;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::size_t pos = 0;
    geom::Point p;  // the weight is optional and defaults to 1
    const bool ok = parse_field(next_field(line, pos), p.id) &&
                    parse_field(next_field(line, pos), p.x) &&
                    parse_field(next_field(line, pos), p.y);
    const std::string_view weight = next_field(line, pos);
    if (!ok || (!weight.empty() && !parse_field(weight, p.weight)) ||
        !next_field(line, pos).empty()) {
      io_fail(path,
              "malformed text record at line " + std::to_string(line_no),
              /*format_error=*/true);
    }
    points.push_back(p);
  }
  if (in.bad()) io_fail(path, "read failed");
  return points;
}

}  // namespace mrscan::io
