// Corruption sweeps over the readers. The binary ones (the MRSC point
// file, the MRSG segment file and the MRLB labeled output) each read a
// file of a few records cut at every byte offset and with every header
// byte flipped by fixed and seeded masks. Every damaged read must either
// throw a std::runtime_error that names the file or return records that
// the bytes really hold (a prefix of the originals where the damage only
// shortened the file or its count), never read past them.
//
// Mutational fuzzing then applies seeded random byte edits (substitute,
// insert, delete; 1-4 per mutant, 1,000+ mutants per target) to the
// binary record bodies, the text point reader's input and a serve
// mutation script. A binary read must throw naming the file or return
// exactly what the mutated bytes decode to; a text read must throw
// naming the file and the line or return only finite points; a script
// must stop at an error naming its line or run to the end, and the
// service must then still cluster like a cold batch run.
//
// The sanitizer presets run this suite too, so a read past a buffer
// aborts there. MRCK has its own sweep
// (CheckpointTest.TornWriteAtEveryByteOffset).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster_equiv.hpp"
#include "core/mrscan.hpp"
#include "io/checked_file.hpp"
#include "io/labeled_file.hpp"
#include "io/mapped_segment.hpp"
#include "io/point_file.hpp"
#include "serve/script.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace mg = mrscan::geom;
namespace mio = mrscan::io;
namespace fs = std::filesystem;

namespace {

class ReaderFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mrscan_reader_fuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The damaged copy's path; its name is what errors must carry.
  fs::path damaged() const { return dir_ / "damaged.bin"; }

  fs::path dir_;
};

const mg::PointSet kPoints = {
    {1, 0.5, -0.25, 1.0f},
    {42, -3.75, 0.001, 0.5f},
    {7, 12.0, 3.5, 2.0f},
};

/// Run `read` over `bytes` written to `path`. Returns false when it threw
/// a runtime_error naming the file (any other exception fails the test).
bool read_or_clean_error(const fs::path& path,
                         std::span<const std::uint8_t> bytes,
                         const std::function<void()>& read,
                         const std::string& context) {
  mio::write_file(path, bytes);
  try {
    read();
    return true;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path.filename().string()),
              std::string::npos)
        << context << ": " << e.what();
    return false;
  }
}

/// The masks every header byte is flipped with: one low bit, one high
/// bit, all bits and a seeded nonzero byte.
std::vector<std::uint8_t> masks_for(mrscan::util::Rng& rng) {
  return {0x01, 0x80, 0xff,
          static_cast<std::uint8_t>(1 + rng.next_below(255))};
}

/// True when `got` is a prefix of `kPoints`.
bool is_prefix(const mg::PointSet& got) {
  if (got.size() > kPoints.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == kPoints[i])) return false;
  }
  return true;
}

std::vector<std::uint8_t> point_file_bytes(const fs::path& dir) {
  const fs::path path = dir / "points.bin";
  mio::write_points_binary(path, kPoints);
  return mio::read_file_bytes(path);
}

}  // namespace

TEST_F(ReaderFuzz, PointFileTruncatedAtEveryByte) {
  const auto bytes = point_file_bytes(dir_);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    mg::PointSet got;
    const bool read = read_or_clean_error(
        damaged(), std::span(bytes).first(cut),
        [&] { got = mio::read_points_binary(damaged()); },
        "cut=" + std::to_string(cut));
    // The header's count no longer fits any shorter file.
    EXPECT_EQ(read, cut == bytes.size()) << "cut=" << cut;
    if (read) {
      EXPECT_EQ(got, kPoints);
    }
  }
}

TEST_F(ReaderFuzz, PointFileHeaderByteFlips) {
  const auto bytes = point_file_bytes(dir_);
  mrscan::util::Rng rng(101);
  constexpr std::size_t kHeader = 16;  // magic, version, count
  for (std::size_t at = 0; at < kHeader; ++at) {
    for (const std::uint8_t mask : masks_for(rng)) {
      auto flipped = bytes;
      flipped[at] ^= mask;
      mg::PointSet got;
      const std::string context =
          "byte " + std::to_string(at) + " ^ " + std::to_string(mask);
      const bool read = read_or_clean_error(
          damaged(), flipped,
          [&] { got = mio::read_points_binary(damaged()); }, context);
      // Only a smaller count loads, and then the leading records.
      EXPECT_TRUE(!read || (at >= 8 && got.size() < kPoints.size() &&
                            is_prefix(got)))
          << context;
    }
  }
}

namespace {

std::vector<std::uint8_t> segment_file_bytes(const fs::path& dir) {
  const fs::path path = mio::segment_file_path(dir, 0);
  mio::write_segment_file(path, mio::Segment{{kPoints[0], kPoints[1]},
                                             {kPoints[2]}});
  return mio::read_file_bytes(path);
}

}  // namespace

TEST_F(ReaderFuzz, SegmentFileTruncatedAtEveryByte) {
  const auto bytes = segment_file_bytes(dir_);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    mg::PointSet got;
    const bool read = read_or_clean_error(
        damaged(), std::span(bytes).first(cut),
        [&] { got = mio::MappedSegment(damaged()).decode_all(); },
        "cut=" + std::to_string(cut));
    EXPECT_EQ(read, cut == bytes.size()) << "cut=" << cut;
    if (read) {
      EXPECT_EQ(got, kPoints);
    }
  }
}

TEST_F(ReaderFuzz, SegmentFileHeaderByteFlips) {
  const auto bytes = segment_file_bytes(dir_);
  mrscan::util::Rng rng(102);
  constexpr std::size_t kHeader = 24;  // magic, version, owned, shadow
  for (std::size_t at = 0; at < kHeader; ++at) {
    for (const std::uint8_t mask : masks_for(rng)) {
      auto flipped = bytes;
      flipped[at] ^= mask;
      // The record counts must match the file size exactly, so any
      // damaged header is rejected.
      EXPECT_FALSE(read_or_clean_error(
          damaged(), flipped,
          [&] { mio::MappedSegment(damaged()).decode_all(); },
          "byte " + std::to_string(at) + " ^ " + std::to_string(mask)));
    }
  }
}

namespace {

std::vector<std::uint8_t> labeled_file_bytes(const fs::path& dir) {
  const fs::path path = dir / "out.labeled";
  mio::LabeledFileWriter writer(path);
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    writer.append(kPoints[i], static_cast<std::int64_t>(i) - 1);
  }
  writer.close();
  return mio::read_file_bytes(path);
}

/// Every record the reader yields, checked against what was written.
mg::PointSet read_labeled(const fs::path& path) {
  mio::LabeledFileReader reader(path);
  mg::PointSet got;
  mg::Point p;
  std::int64_t cluster = 0;
  while (reader.next(p, cluster)) {
    EXPECT_EQ(cluster, static_cast<std::int64_t>(got.size()) - 1);
    got.push_back(p);
  }
  EXPECT_EQ(got.size(), reader.records());
  return got;
}

}  // namespace

TEST_F(ReaderFuzz, LabeledFileTruncatedAtEveryByte) {
  const auto bytes = labeled_file_bytes(dir_);
  constexpr std::size_t kHeader = 8;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    mg::PointSet got;
    const bool read = read_or_clean_error(
        damaged(), std::span(bytes).first(cut),
        [&] { got = read_labeled(damaged()); }, "cut=" + std::to_string(cut));
    // No count in the header: a cut at a record boundary is a shorter
    // file, any other cut a torn one.
    const bool whole = cut >= kHeader &&
                       (cut - kHeader) % mio::kLabeledRecordSize == 0;
    EXPECT_EQ(read, whole) << "cut=" << cut;
    if (read) {
      EXPECT_EQ(got.size(), (cut - kHeader) / mio::kLabeledRecordSize);
      EXPECT_TRUE(is_prefix(got)) << "cut=" << cut;
    }
  }
}

TEST_F(ReaderFuzz, LabeledFileHeaderByteFlips) {
  const auto bytes = labeled_file_bytes(dir_);
  mrscan::util::Rng rng(103);
  constexpr std::size_t kHeader = 8;  // magic, version
  for (std::size_t at = 0; at < kHeader; ++at) {
    for (const std::uint8_t mask : masks_for(rng)) {
      auto flipped = bytes;
      flipped[at] ^= mask;
      EXPECT_FALSE(read_or_clean_error(
          damaged(), flipped, [&] { read_labeled(damaged()); },
          "byte " + std::to_string(at) + " ^ " + std::to_string(mask)));
    }
  }
}

// ---- mutational fuzzing -------------------------------------------------

namespace {

constexpr std::size_t kMutants = 1200;

/// Apply 1-4 seeded edits at offsets >= `from`: substitute a byte, insert
/// one or delete one. New bytes come from `alphabet` half of the time
/// (so a text grammar sees plausible tokens) and are uniform otherwise.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes,
                                 std::size_t from, std::string_view alphabet,
                                 mrscan::util::Rng& rng) {
  const auto fresh_byte = [&]() -> std::uint8_t {
    if (!alphabet.empty() && rng.next_below(2) == 0) {
      return static_cast<std::uint8_t>(
          alphabet[rng.next_below(alphabet.size())]);
    }
    return static_cast<std::uint8_t>(rng.next_below(256));
  };
  const std::size_t edits = 1 + rng.next_below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t body = bytes.size() - from;
    const auto at = [&](std::size_t n) {
      return bytes.begin() + static_cast<std::ptrdiff_t>(from + n);
    };
    switch (rng.next_below(3)) {
      case 0:
        if (body > 0) *at(rng.next_below(body)) = fresh_byte();
        break;
      case 1:
        bytes.insert(at(rng.next_below(body + 1)), fresh_byte());
        break;
      default:
        if (body > 0) bytes.erase(at(rng.next_below(body)));
        break;
    }
  }
  return bytes;
}

/// A point record as its raw bits, so NaNs and signed zeros compare
/// exactly. Decoded here straight from the documented layout (id u64,
/// x f64, y f64, weight f32), independently of the library's codec.
struct RawRecord {
  std::uint64_t id = 0, x = 0, y = 0;
  std::uint32_t weight = 0;
  std::int64_t cluster = 0;  // MRLB only
  bool operator==(const RawRecord&) const = default;
};

RawRecord raw_at(std::span<const std::uint8_t> bytes, std::size_t offset,
                 bool labeled) {
  RawRecord r;
  std::memcpy(&r.id, bytes.data() + offset, 8);
  std::memcpy(&r.x, bytes.data() + offset + 8, 8);
  std::memcpy(&r.y, bytes.data() + offset + 16, 8);
  std::memcpy(&r.weight, bytes.data() + offset + 24, 4);
  if (labeled) std::memcpy(&r.cluster, bytes.data() + offset + 28, 8);
  return r;
}

RawRecord raw_of(const mg::Point& p, std::int64_t cluster = 0) {
  return {p.id, std::bit_cast<std::uint64_t>(p.x),
          std::bit_cast<std::uint64_t>(p.y),
          std::bit_cast<std::uint32_t>(p.weight), cluster};
}

bool finite(const RawRecord& r) {
  return std::isfinite(std::bit_cast<double>(r.x)) &&
         std::isfinite(std::bit_cast<double>(r.y)) &&
         std::isfinite(std::bit_cast<float>(r.weight));
}

/// `count` records laid out from `offset`.
std::vector<RawRecord> raw_records(std::span<const std::uint8_t> bytes,
                                   std::size_t offset, std::size_t count,
                                   bool labeled) {
  const std::size_t size = labeled ? mio::kLabeledRecordSize
                                   : mio::kBinaryRecordSize;
  std::vector<RawRecord> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(raw_at(bytes, offset + i * size, labeled));
  }
  return out;
}

/// Read every mutant of `original`'s record body (offsets >= `header`)
/// with `read` and compare against `expect`, the records the mutated
/// bytes decode to (nullopt: the read must fail naming the file).
void fuzz_record_bodies(
    const fs::path& path, const std::vector<std::uint8_t>& original,
    std::size_t header, std::uint64_t seed,
    const std::function<std::vector<RawRecord>()>& read,
    const std::function<std::optional<std::vector<RawRecord>>(
        std::span<const std::uint8_t>)>& expect) {
  mrscan::util::Rng rng(seed);
  std::size_t loaded = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    const auto bytes = mutate(original, header, {}, rng);
    std::vector<RawRecord> got;
    const std::string context = "mutant " + std::to_string(m);
    const bool read_ok = read_or_clean_error(
        path, bytes, [&] { got = read(); }, context);
    const auto want = expect(bytes);
    ASSERT_EQ(read_ok, want.has_value()) << context;
    if (read_ok) {
      EXPECT_TRUE(got == *want) << context;
      ++loaded;
    }
  }
  // Both outcomes occur, so neither check is vacuous.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, kMutants);
}

}  // namespace

TEST_F(ReaderFuzz, PointFileRecordBodyMutations) {
  constexpr std::size_t kHeader = 16;
  fuzz_record_bodies(
      damaged(), point_file_bytes(dir_), kHeader, 201,
      [&] {
        std::vector<RawRecord> got;
        for (const mg::Point& p : mio::read_points_binary(damaged())) {
          got.push_back(raw_of(p));
        }
        return got;
      },
      [](std::span<const std::uint8_t> bytes)
          -> std::optional<std::vector<RawRecord>> {
        // The header still declares every record; trailing bytes are
        // ignored, and a non-finite coordinate or weight is rejected.
        const std::size_t count = kPoints.size();
        if (bytes.size() < kHeader + count * mio::kBinaryRecordSize) {
          return std::nullopt;
        }
        auto records = raw_records(bytes, kHeader, count, false);
        for (const RawRecord& r : records) {
          if (!finite(r)) return std::nullopt;
        }
        return records;
      });
}

TEST_F(ReaderFuzz, SegmentFileRecordBodyMutations) {
  constexpr std::size_t kHeader = 24;
  fuzz_record_bodies(
      damaged(), segment_file_bytes(dir_), kHeader, 202,
      [&] {
        std::vector<RawRecord> got;
        for (const mg::Point& p : mio::MappedSegment(damaged()).decode_all()) {
          got.push_back(raw_of(p));
        }
        return got;
      },
      [](std::span<const std::uint8_t> bytes)
          -> std::optional<std::vector<RawRecord>> {
        // The file must hold exactly the declared records; segments are
        // internal, so their values are not range-checked.
        const std::size_t count = kPoints.size();
        if (bytes.size() != kHeader + count * mio::kBinaryRecordSize) {
          return std::nullopt;
        }
        return raw_records(bytes, kHeader, count, false);
      });
}

TEST_F(ReaderFuzz, LabeledFileRecordBodyMutations) {
  constexpr std::size_t kHeader = 8;
  fuzz_record_bodies(
      damaged(), labeled_file_bytes(dir_), kHeader, 203,
      [&] {
        mio::LabeledFileReader reader(damaged());
        std::vector<RawRecord> got;
        mg::Point p;
        std::int64_t cluster = 0;
        while (reader.next(p, cluster)) got.push_back(raw_of(p, cluster));
        return got;
      },
      [](std::span<const std::uint8_t> bytes)
          -> std::optional<std::vector<RawRecord>> {
        // No count in the header: the size must be whole records.
        const std::size_t body = bytes.size() - kHeader;
        if (body % mio::kLabeledRecordSize != 0) return std::nullopt;
        return raw_records(bytes, kHeader, body / mio::kLabeledRecordSize,
                           true);
      });
}

namespace {

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

/// The tokens a text edit should often produce: digits, signs, exponents,
/// separators, line breaks and comment marks.
constexpr std::string_view kTextAlphabet = "0123456789.+-eE \t\n#";

}  // namespace

TEST_F(ReaderFuzz, TextPointFileMutations) {
  const auto original = bytes_of(
      "# id x y [weight]\n"
      "1 0.5 -0.25 1\n"
      "42 -3.75 0.001 0.5\n"
      "\n"
      "7 12 3.5e-2\n"
      "+9 1e3 -2.5 2\n");
  mrscan::util::Rng rng(204);
  std::size_t loaded = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    const auto bytes = mutate(original, 0, kTextAlphabet, rng);
    mio::write_file(damaged(), bytes);
    const std::string context =
        "mutant " + std::to_string(m) + ":\n" +
        std::string(bytes.begin(), bytes.end());
    try {
      for (const mg::Point& p : mio::read_points_text(damaged())) {
        EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) &&
                    std::isfinite(p.weight))
            << context;
      }
      ++loaded;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(damaged().filename().string()), std::string::npos)
          << context << what;
      EXPECT_NE(what.find(" at line "), std::string::npos)
          << context << what;
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, kMutants);
}

namespace {

namespace ms = mrscan::serve;

/// Lines of `script` that run_script executes: its first field is not a
/// '#' comment.
std::size_t command_lines(std::string_view script, std::size_t through) {
  std::istringstream in{std::string(script)};
  std::string line;
  std::size_t commands = 0;
  for (std::size_t no = 1; no <= through && std::getline(in, line); ++no) {
    std::istringstream fields(line);
    std::string first;
    if (fields >> first && first[0] != '#') ++commands;
  }
  return commands;
}

}  // namespace

TEST_F(ReaderFuzz, ServeScriptMutations) {
  const std::string original =
      "# two blobs, a bridge and a stray point\n"
      "insert 1 0.0 0.0\n"
      "insert 2 0.4 0.0\n"
      "insert 3 0.0 0.4\n"
      "insert 4 0.4 0.4 2\n"
      "insert 5 5.0 5.0\n"
      "insert 6 5.3 5.0\n"
      "insert 7 5.0 5.3 0.5\n"
      "insert 8 9.0 -3.0\n"
      "epoch\n"
      "query 1\n"
      "stats 0\n"
      "remove 2\n"
      "insert 9 2.5 2.5\n"
      "insert 10 2.7 2.6\n"
      "epoch\n"
      "query 9\n"
      "remove 99\n"
      "stats 1\n"
      "insert 11 0.2 0.2\n"
      "epoch\n";
  ms::ServeConfig config;
  config.params = {1.0, 3};
  mrscan::core::MrScanConfig batch;
  batch.params = config.params;
  batch.leaves = 4;
  batch.partition_nodes = 2;

  mrscan::util::Rng rng(205);
  std::size_t completed = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    const auto bytes = mutate(bytes_of(original), 0,
                              "0123456789.+-eE \t\n#inserteochqumvat", rng);
    const std::string script(bytes.begin(), bytes.end());
    const std::string context = "mutant " + std::to_string(m) + ":\n" + script;
    ms::ClusterService service(config);
    std::istringstream in(script);
    std::ostringstream out;
    const ms::ScriptResult result = ms::run_script(service, in, out);
    if (result.ok) {
      EXPECT_EQ(result.commands, command_lines(script, SIZE_MAX)) << context;
      ++completed;
    } else {
      // "<line>: <message>", and the script stopped on that line.
      std::size_t line = 0;
      const std::size_t colon = result.error.find(": ");
      ASSERT_NE(colon, std::string::npos) << context << result.error;
      ASSERT_NO_THROW(line = std::stoul(result.error.substr(0, colon)))
          << context << result.error;
      EXPECT_GE(line, 1u) << context << result.error;
      const auto newlines = static_cast<std::size_t>(
          std::count(script.begin(), script.end(), '\n'));
      EXPECT_LE(line, newlines + 1) << context << result.error;
      EXPECT_EQ(result.commands, command_lines(script, line))
          << context << result.error;
    }
    const ms::EpochResult last = service.advance_epoch();
    ASSERT_TRUE(last.ok) << context << last.error;
    const auto snapshot = service.snapshot();
    const auto labels = mrscan::core::MrScan(batch)
                            .run(snapshot->points)
                            .labels_for(snapshot->points);
    EXPECT_TRUE(mrscan::test::same_clustering(snapshot->labels, labels))
        << context;
  }
  EXPECT_GT(completed, 0u);
  EXPECT_LT(completed, kMutants);
}
