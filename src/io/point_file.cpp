#include "io/point_file.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/checked_file.hpp"
#include "util/bytes.hpp"

namespace mrscan::io {

namespace {

constexpr FileFormat kPointFormat{{'M', 'R', 'S', 'C'}, 1,
                                  "binary point file"};
constexpr std::size_t kHeaderSize = 4 + 4 + 8;  // magic, version, count

static_assert(kBinaryRecordSize == sizeof(geom::Point::id) +
                                       sizeof(geom::Point::x) +
                                       sizeof(geom::Point::y) +
                                       sizeof(geom::Point::weight),
              "kBinaryRecordSize must match the encoded point layout");

}  // namespace

void encode_binary_record(std::vector<std::uint8_t>& buf,
                          const geom::Point& p) {
  util::append(buf, p.id);
  util::append(buf, p.x);
  util::append(buf, p.y);
  util::append(buf, p.weight);
}

geom::Point decode_binary_record(const std::uint8_t* data) {
  geom::Point p;
  p.id = util::load<geom::PointId>(data);
  p.x = util::load<double>(data + 8);
  p.y = util::load<double>(data + 16);
  p.weight = util::load<float>(data + 24);
  return p;
}

void write_points_binary(const std::filesystem::path& path,
                         std::span<const geom::Point> points) {
  std::vector<std::uint8_t> buf;
  buf.reserve(kHeaderSize + points.size() * kBinaryRecordSize);
  append_format_header(buf, kPointFormat);
  util::append(buf, std::uint64_t{points.size()});
  for (const geom::Point& p : points) encode_binary_record(buf, p);
  write_file(path, buf);
}

geom::PointSet read_points_binary(const std::filesystem::path& path) {
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  util::ByteReader in(bytes);
  check_format_header(path, in, kPointFormat);
  std::uint64_t count = 0;
  if (!in.read(count)) format_fail(path, "truncated binary point file header");
  // Checked against the bytes actually present before any allocation: a
  // corrupt header must fail with context, not attempt a multi-terabyte
  // reserve or silently yield a truncated point set.
  if (count > in.remaining() / kBinaryRecordSize) {
    format_fail(path, "header record count exceeds file size");
  }
  const std::uint8_t* records = in.take(count * kBinaryRecordSize)->data();
  geom::PointSet points;
  points.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    // Checked where it is stored: checking the decoded copy first makes
    // it round-trip through the stack, a ~25% slower read.
    const geom::Point& p = points.emplace_back(
        decode_binary_record(records + i * kBinaryRecordSize));
    if (!std::isfinite(p.x) || !std::isfinite(p.y) ||
        !std::isfinite(p.weight)) {
      format_fail(path, "non-finite coordinate or weight at record " +
                            std::to_string(i));
    }
  }
  return points;
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
  if (!in) fail(path, "cannot open");
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
      format_fail(path,
                  "malformed text record at line " + std::to_string(line_no));
    }
    points.push_back(p);
  }
  if (in.bad()) fail(path, "read failed");
  return points;
}

}  // namespace mrscan::io
