#include "io/mapped_segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "io/checked_file.hpp"
#include "io/point_file.hpp"

namespace mrscan::io {

namespace {

constexpr char kSegMagic[4] = {'M', 'R', 'S', 'G'};
constexpr std::uint32_t kSegVersion = 1;
constexpr std::size_t kSegHeaderSize = 4 + 4 + 8 + 8;

void put_bytes(std::vector<std::uint8_t>& buf, const void* src,
               std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  buf.insert(buf.end(), p, p + n);
}

/// Validate magic/version/size against the header and return the counts.
/// `errno` is cleared first so format failures don't pick up stale codes.
SegmentCounts parse_header(const std::filesystem::path& path,
                           const std::uint8_t* data, std::size_t size) {
  errno = 0;
  if (size < kSegHeaderSize) fail(path, "truncated segment header");
  if (std::memcmp(data, kSegMagic, 4) != 0) {
    fail(path, "not a mrscan segment file");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, data + 4, 4);
  if (version != kSegVersion) fail(path, "unsupported segment file version");
  SegmentCounts counts;
  std::memcpy(&counts.owned, data + 8, 8);
  std::memcpy(&counts.shadow, data + 16, 8);
  if (counts.owned > (size - kSegHeaderSize) / kBinaryRecordSize ||
      counts.shadow > (size - kSegHeaderSize) / kBinaryRecordSize ||
      kSegHeaderSize + counts.total() * kBinaryRecordSize != size) {
    fail(path, "segment file size does not match header counts");
  }
  return counts;
}

geom::PointSet decode_range(const std::uint8_t* records, std::uint64_t first,
                            std::uint64_t count) {
  geom::PointSet points;
  points.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    points.push_back(
        decode_binary_record(records + (first + i) * kBinaryRecordSize));
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
  put_bytes(buf, kSegMagic, 4);
  put_bytes(buf, &kSegVersion, 4);
  const std::uint64_t owned = segment.owned.size();
  const std::uint64_t shadow = segment.shadow.size();
  put_bytes(buf, &owned, 8);
  put_bytes(buf, &shadow, 8);
  for (const geom::Point& p : segment.owned) encode_binary_record(buf, p);
  for (const geom::Point& p : segment.shadow) encode_binary_record(buf, p);
  write_file_atomic(path, buf);
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
    counts_ = parse_header(path, static_cast<const std::uint8_t*>(data_),
                           size_);
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
  return decode_range(records, 0, counts_.total());
}

geom::PointSet MappedSegment::decode_owned() const {
  const auto* records =
      static_cast<const std::uint8_t*>(data_) + kSegHeaderSize;
  return decode_range(records, 0, counts_.owned);
}

std::filesystem::path segment_file_path(const std::filesystem::path& dir,
                                        std::size_t leaf_rank) {
  return dir / ("seg_" + std::to_string(leaf_rank) + ".seg");
}

}  // namespace mrscan::io
