#include "io/labeled_file.hpp"

#include <cerrno>

#include "io/checked_file.hpp"
#include "io/point_file.hpp"
#include "util/bytes.hpp"

namespace mrscan::io {

namespace {

constexpr FileFormat kLabeledFormat{{'M', 'R', 'L', 'B'}, 1,
                                    "labeled output file"};
constexpr std::size_t kLabeledHeaderSize = 4 + 4;
/// The writer hands the stream whole blocks: one stream write per record
/// made appending ~20% slower than copying the record into a block.
constexpr std::size_t kWriteBlockBytes = std::size_t{1} << 16;

std::uint64_t validated_record_count(const std::filesystem::path& path,
                                     std::ifstream& in) {
  errno = 0;
  if (!in) fail(path, "cannot open");
  std::uint8_t header[kLabeledHeaderSize] = {};
  in.read(reinterpret_cast<char*>(header), kLabeledHeaderSize);
  util::ByteReader header_in(
      {header, static_cast<std::size_t>(in.gcount())});
  check_format_header(path, header_in, kLabeledFormat);
  const std::uintmax_t body =
      std::filesystem::file_size(path) - kLabeledHeaderSize;
  if (body % kLabeledRecordSize != 0) {
    format_fail(path, "torn labeled output file (size is not a whole record)");
  }
  return body / kLabeledRecordSize;
}

}  // namespace

LabeledFileWriter::LabeledFileWriter(const std::filesystem::path& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  errno = 0;
  if (!out_) fail(path_, "cannot open for writing");
  open_ = true;
  buf_.reserve(kWriteBlockBytes + kLabeledRecordSize);
  append_format_header(buf_, kLabeledFormat);
}

LabeledFileWriter::~LabeledFileWriter() {
  if (!open_) return;
  // Best-effort, like the stream's own destructor; close() is the
  // checked path.
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
  out_.close();
}

void LabeledFileWriter::append(const geom::Point& point,
                               std::int64_t cluster) {
  encode_binary_record(buf_, point);
  util::append(buf_, cluster);
  ++records_;
  if (buf_.size() >= kWriteBlockBytes) write_buf();
}

void LabeledFileWriter::write_buf() {
  errno = 0;
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
  if (!out_) fail(path_, "write failed");
}

void LabeledFileWriter::close() {
  if (!open_) return;
  open_ = false;
  write_buf();
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
  std::uint8_t record[kLabeledRecordSize] = {};
  errno = 0;
  in_.read(reinterpret_cast<char*>(record), kLabeledRecordSize);
  if (!in_) fail(path_, "short read");
  point = decode_binary_record(record);
  cluster = util::load<std::int64_t>(record + kBinaryRecordSize);
  ++cursor_;
  return true;
}

}  // namespace mrscan::io
