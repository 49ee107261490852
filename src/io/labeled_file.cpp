#include "io/labeled_file.hpp"

#include <cerrno>
#include <cstring>

#include "io/checked_file.hpp"
#include "io/point_file.hpp"

namespace mrscan::io {

namespace {

constexpr char kLabeledMagic[4] = {'M', 'R', 'L', 'B'};
constexpr std::uint32_t kLabeledVersion = 1;
constexpr std::size_t kLabeledHeaderSize = 4 + 4;

std::uint64_t validated_record_count(const std::filesystem::path& path,
                                     std::ifstream& in) {
  errno = 0;
  if (!in) fail(path, "cannot open");
  char header[kLabeledHeaderSize];
  in.read(header, kLabeledHeaderSize);
  if (!in || std::memcmp(header, kLabeledMagic, 4) != 0) {
    errno = 0;
    fail(path, "not a mrscan labeled output file");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header + 4, 4);
  if (version != kLabeledVersion) {
    errno = 0;
    fail(path, "unsupported labeled file version");
  }
  const std::uintmax_t size = std::filesystem::file_size(path);
  const std::uintmax_t body = size - kLabeledHeaderSize;
  if (body % kLabeledRecordSize != 0) {
    errno = 0;
    fail(path, "torn labeled output file (size is not a whole record)");
  }
  return body / kLabeledRecordSize;
}

}  // namespace

LabeledFileWriter::LabeledFileWriter(const std::filesystem::path& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  errno = 0;
  if (!out_) fail(path_, "cannot open for writing");
  open_ = true;
  out_.write(kLabeledMagic, 4);
  out_.write(reinterpret_cast<const char*>(&kLabeledVersion), 4);
  if (!out_) fail(path_, "write failed");
}

LabeledFileWriter::~LabeledFileWriter() {
  if (open_) out_.close();  // best-effort; close() is the checked path
}

void LabeledFileWriter::append(const geom::Point& point,
                               std::int64_t cluster) {
  char record[kLabeledRecordSize];
  std::memcpy(record, &point.id, 8);
  std::memcpy(record + 8, &point.x, 8);
  std::memcpy(record + 16, &point.y, 8);
  std::memcpy(record + 24, &point.weight, 4);
  std::memcpy(record + 28, &cluster, 8);
  errno = 0;
  out_.write(record, kLabeledRecordSize);
  if (!out_) fail(path_, "write failed");
  ++records_;
}

void LabeledFileWriter::close() {
  if (!open_) return;
  open_ = false;
  errno = 0;
  out_.flush();
  out_.close();
  if (out_.fail()) fail(path_, "close failed");
}

LabeledFileReader::LabeledFileReader(const std::filesystem::path& path)
    : path_(path), in_(path, std::ios::binary) {
  records_ = validated_record_count(path_, in_);
}

bool LabeledFileReader::next(geom::Point& point, std::int64_t& cluster) {
  if (cursor_ >= records_) return false;
  char record[kLabeledRecordSize];
  errno = 0;
  in_.read(record, kLabeledRecordSize);
  if (!in_) fail(path_, "short read");
  point = decode_binary_record(reinterpret_cast<const std::uint8_t*>(record));
  std::memcpy(&cluster, record + 28, 8);
  ++cursor_;
  return true;
}

}  // namespace mrscan::io
