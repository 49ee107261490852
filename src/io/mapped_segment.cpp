#include "io/mapped_segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>
#include <vector>

#include "io/checked_file.hpp"
#include "io/point_file.hpp"
#include "util/bytes.hpp"

namespace mrscan::io {

namespace {

constexpr FileFormat kSegmentFormat{{'M', 'R', 'S', 'G'}, 1, "segment file"};
constexpr std::size_t kSegHeaderSize = 4 + 4 + 8 + 8;

/// Check the header and that the file holds exactly the records it
/// declares, and return their counts.
SegmentCounts parse_header(const std::filesystem::path& path,
                           std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  check_format_header(path, in, kSegmentFormat);
  SegmentCounts counts;
  if (!in.read(counts.owned) || !in.read(counts.shadow)) {
    format_fail(path, "truncated segment file header");
  }
  const std::size_t records = in.remaining() / kBinaryRecordSize;
  if (counts.owned > records || counts.shadow > records ||
      counts.total() * kBinaryRecordSize != in.remaining()) {
    format_fail(path, "segment file size does not match header counts");
  }
  return counts;
}

geom::PointSet decode_records(const std::uint8_t* records,
                              std::uint64_t count) {
  geom::PointSet points;
  points.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    points.push_back(decode_binary_record(records + i * kBinaryRecordSize));
  }
  return points;
}

}  // namespace

void write_segment_file(const std::filesystem::path& path,
                        const Segment& segment) {
  std::vector<std::uint8_t> buf;
  buf.reserve(kSegHeaderSize +
              (segment.owned.size() + segment.shadow.size()) *
                  kBinaryRecordSize);
  append_format_header(buf, kSegmentFormat);
  util::append(buf, std::uint64_t{segment.owned.size()});
  util::append(buf, std::uint64_t{segment.shadow.size()});
  for (const geom::Point& p : segment.owned) encode_binary_record(buf, p);
  for (const geom::Point& p : segment.shadow) encode_binary_record(buf, p);
  write_file(path, buf);
}

MappedSegment::MappedSegment(const std::filesystem::path& path) {
  errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      fail(path, "mmap failed");
    }
    data_ = map;
  }
  // The mapping keeps the pages reachable; the descriptor is not needed
  // past this point.
  ::close(fd);
  try {
    counts_ = parse_header(
        path, {static_cast<const std::uint8_t*>(data_), size_});
  } catch (...) {
    release();
    throw;
  }
}

MappedSegment::~MappedSegment() { release(); }

MappedSegment::MappedSegment(MappedSegment&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      counts_(std::exchange(other.counts_, SegmentCounts{})) {}

MappedSegment& MappedSegment::operator=(MappedSegment&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    counts_ = std::exchange(other.counts_, SegmentCounts{});
  }
  return *this;
}

void MappedSegment::release() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
  }
  size_ = 0;
}

geom::PointSet MappedSegment::decode_all() const {
  const auto* records =
      static_cast<const std::uint8_t*>(data_) + kSegHeaderSize;
  return decode_records(records, counts_.total());
}

geom::PointSet MappedSegment::decode_owned() const {
  const auto* records =
      static_cast<const std::uint8_t*>(data_) + kSegHeaderSize;
  return decode_records(records, counts_.owned);
}

std::filesystem::path segment_file_path(const std::filesystem::path& dir,
                                        std::size_t leaf_rank) {
  return dir / ("seg_" + std::to_string(leaf_rank) + ".seg");
}

}  // namespace mrscan::io
