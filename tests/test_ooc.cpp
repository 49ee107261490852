// Out-of-core building blocks (DESIGN §15): checked file helpers, the
// per-leaf segment files + read-only mappings, the streamed labeled
// output format, and crash-safe checkpoint manifests (including the
// torn-write sweep: a manifest truncated at EVERY byte offset either
// loads a bit-identical prefix of the original entries or fails
// cleanly — it never mislabels a damaged entry as a finished leaf).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "data/synthetic.hpp"
#include "fault/checkpoint.hpp"
#include "io/checked_file.hpp"
#include "io/labeled_file.hpp"
#include "io/mapped_segment.hpp"
#include "io/point_file.hpp"

namespace mg = mrscan::geom;
namespace mio = mrscan::io;
namespace mf = mrscan::fault;
namespace fs = std::filesystem;

namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mrscan_ooc_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

using CheckedFileTest = TempDir;
using MappedSegmentTest = TempDir;
using LabeledFileTest = TempDir;
using CheckpointTest = TempDir;
using ReaderRegressionTest = TempDir;

mg::PointSet sample_points(std::size_t n, std::uint64_t seed = 7) {
  return mrscan::data::uniform_points(n, mg::BBox{-5.0, -5.0, 5.0, 5.0},
                                      seed);
}

void truncate_file(const fs::path& path, std::uint64_t size) {
  fs::resize_file(path, size);
}

void append_bytes(const fs::path& path, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  const std::vector<char> junk(n, '\x5a');
  out.write(junk.data(), static_cast<std::streamsize>(n));
}

}  // namespace

// ---- checked file helpers -----------------------------------------

TEST_F(CheckedFileTest, AtomicWriteRoundTrip) {
  const auto path = dir_ / "blob.bin";
  std::vector<std::uint8_t> bytes(1000);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37);
  }
  mio::write_file_atomic(path, bytes);
  EXPECT_EQ(mio::read_file_bytes(path), bytes);
  // No temp file left behind.
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

TEST_F(CheckedFileTest, AtomicWriteReplacesWholeFile) {
  const auto path = dir_ / "blob.bin";
  const std::vector<std::uint8_t> big(512, 0xAA);
  const std::vector<std::uint8_t> small(3, 0xBB);
  mio::write_file_atomic(path, big);
  mio::write_file_atomic(path, small);
  EXPECT_EQ(mio::read_file_bytes(path), small);
}

TEST_F(CheckedFileTest, ReadMissingFileThrowsWithContext) {
  const auto path = dir_ / "nope.bin";
  try {
    mio::read_file_bytes(path);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    // errno context (strerror text) and the path must both survive.
    EXPECT_NE(std::string(e.what()).find("nope.bin"), std::string::npos);
  }
}

TEST_F(CheckedFileTest, AppendAddsToAnExistingFileOnly) {
  const auto path = dir_ / "log.bin";
  const std::vector<std::uint8_t> head = {1, 2, 3};
  const std::vector<std::uint8_t> tail = {4, 5};
  mio::write_file(path, head);
  mio::append_file(path, tail);
  mio::append_file(path, {});
  EXPECT_EQ(mio::read_file_bytes(path),
            (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));

  // Appending needs the file's existing bytes (a manifest's header), so
  // a missing file is an error naming the path and the reason.
  const auto absent = dir_ / "absent.bin";
  try {
    mio::append_file(absent, tail);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("absent.bin: No such file or directory"),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(fs::exists(absent));
}

TEST_F(CheckedFileTest, AtomicWriteToBadDirectoryThrows) {
  EXPECT_THROW(
      mio::write_file_atomic(dir_ / "no_such_subdir" / "x.bin", {}),
      std::runtime_error);
}

// ---- per-leaf segment files ---------------------------------------

TEST_F(MappedSegmentTest, RoundTrip) {
  mio::Segment seg;
  seg.owned = sample_points(123, 1);
  seg.shadow = sample_points(45, 2);
  const auto path = mio::segment_file_path(dir_, 3);
  mio::write_segment_file(path, seg);

  mio::MappedSegment mapped(path);
  EXPECT_EQ(mapped.owned_count(), 123u);
  EXPECT_EQ(mapped.shadow_count(), 45u);
  EXPECT_EQ(mapped.total_count(), 168u);
  EXPECT_EQ(mapped.mapped_bytes(), 24u + 168u * mio::kBinaryRecordSize);

  // decode_all: owned first, then shadow — the resident point order.
  mg::PointSet expected = seg.owned;
  expected.insert(expected.end(), seg.shadow.begin(), seg.shadow.end());
  EXPECT_EQ(mapped.decode_all(), expected);
  EXPECT_EQ(mapped.decode_owned(), seg.owned);
}

TEST_F(MappedSegmentTest, EmptySegment) {
  const auto path = mio::segment_file_path(dir_, 0);
  mio::write_segment_file(path, mio::Segment{});
  mio::MappedSegment mapped(path);
  EXPECT_EQ(mapped.total_count(), 0u);
  EXPECT_TRUE(mapped.decode_all().empty());
}

TEST_F(MappedSegmentTest, MoveTransfersMapping) {
  mio::Segment seg;
  seg.owned = sample_points(10);
  const auto path = mio::segment_file_path(dir_, 1);
  mio::write_segment_file(path, seg);
  mio::MappedSegment a(path);
  mio::MappedSegment b(std::move(a));
  EXPECT_EQ(b.owned_count(), 10u);
  EXPECT_EQ(b.decode_owned(), seg.owned);
}

TEST_F(MappedSegmentTest, MissingFileThrows) {
  EXPECT_THROW(mio::MappedSegment(dir_ / "absent.seg"), std::runtime_error);
}

TEST_F(MappedSegmentTest, TruncatedFileThrows) {
  mio::Segment seg;
  seg.owned = sample_points(20);
  const auto path = mio::segment_file_path(dir_, 0);
  mio::write_segment_file(path, seg);
  const auto full = fs::file_size(path);
  truncate_file(path, full - 1);
  EXPECT_THROW(mio::MappedSegment{path}, std::runtime_error);
  truncate_file(path, 10);  // shorter than the header
  EXPECT_THROW(mio::MappedSegment{path}, std::runtime_error);
}

TEST_F(MappedSegmentTest, TrailingGarbageThrows) {
  mio::Segment seg;
  seg.owned = sample_points(5);
  const auto path = mio::segment_file_path(dir_, 0);
  mio::write_segment_file(path, seg);
  append_bytes(path, 1);
  EXPECT_THROW(mio::MappedSegment{path}, std::runtime_error);
}

TEST_F(MappedSegmentTest, BadMagicThrows) {
  const auto path = dir_ / "seg_0.seg";
  std::vector<std::uint8_t> bytes(24, 0);
  std::memcpy(bytes.data(), "NOPE", 4);
  mio::write_file_atomic(path, bytes);
  EXPECT_THROW(mio::MappedSegment{path}, std::runtime_error);
}

// ---- labeled output files -----------------------------------------

TEST_F(LabeledFileTest, RoundTrip) {
  const auto pts = sample_points(77);
  const auto path = dir_ / "out.labeled";
  {
    mio::LabeledFileWriter writer(path);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      writer.append(pts[i], static_cast<std::int64_t>(i) - 1);
    }
    EXPECT_EQ(writer.records(), pts.size());
    writer.close();
  }
  mio::LabeledFileReader reader(path);
  EXPECT_EQ(reader.records(), pts.size());
  mg::Point p;
  std::int64_t cluster = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(reader.next(p, cluster));
    EXPECT_EQ(p, pts[i]);
    EXPECT_EQ(cluster, static_cast<std::int64_t>(i) - 1);
  }
  EXPECT_FALSE(reader.next(p, cluster));
}

TEST_F(LabeledFileTest, TornSizeRejected) {
  const auto path = dir_ / "out.labeled";
  {
    mio::LabeledFileWriter writer(path);
    writer.append(mg::Point{1, 0.5, 0.5, 1.0f}, 0);
    writer.close();
  }
  append_bytes(path, 5);  // not a whole record
  EXPECT_THROW(mio::LabeledFileReader{path}, std::runtime_error);
}

TEST_F(LabeledFileTest, MissingFileThrows) {
  EXPECT_THROW(mio::LabeledFileReader(dir_ / "absent.labeled"),
               std::runtime_error);
}

// ---- checkpoint manifests -----------------------------------------

namespace {

mf::CheckpointManifest sample_manifest() {
  mf::CheckpointManifest manifest;
  manifest.fingerprint = 0xfeedbeefcafe1234ull;
  manifest.total_leaves = 16;
  for (std::uint32_t rank : {0u, 3u, 7u, 15u}) {
    mf::CheckpointEntry entry;
    entry.rank = rank;
    entry.ready_seconds = 0.25 * rank + 0.125;
    entry.labels_bytes = 8ull * (rank + 1);
    entry.labels_digest = 0x9e3779b97f4a7c15ull * (rank + 1);
    entry.stats = {static_cast<std::uint8_t>(rank), 2, 3};
    entry.summary.assign(rank + 5, static_cast<std::uint8_t>(0xA0 + rank));
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

/// The manifest a run writes: save_checkpoint of the first entry, then
/// append_checkpoint of the second, then of the rest.
fs::path appended_manifest(const fs::path& path,
                           const mf::CheckpointManifest& manifest) {
  const std::span<const mf::CheckpointEntry> entries(manifest.entries);
  mf::CheckpointManifest first = manifest;
  first.entries.resize(1);
  mf::save_checkpoint(path, first);
  mf::append_checkpoint(path, entries.subspan(1, 1));
  mf::append_checkpoint(path, entries.subspan(2));
  return path;
}

/// Load `bytes` cut at every offset (through a file in `dir`): a cut
/// inside the header throws, any other loads a bit-identical prefix of
/// `manifest`'s entries, and the whole file loads all of them.
void sweep_every_cut(const fs::path& dir,
                     const std::vector<std::uint8_t>& bytes,
                     const mf::CheckpointManifest& manifest) {
  constexpr std::size_t kHeaderSize = 24;
  const auto torn = dir / "torn.mrck";
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    mio::write_file(torn, std::span<const std::uint8_t>(bytes.data(), cut));
    if (cut < kHeaderSize) {
      EXPECT_THROW(mf::load_checkpoint(torn, manifest.fingerprint),
                   std::runtime_error)
          << "cut=" << cut;
      continue;
    }
    mf::CheckpointManifest loaded;
    ASSERT_NO_THROW(loaded =
                        mf::load_checkpoint(torn, manifest.fingerprint))
        << "cut=" << cut;
    ASSERT_LE(loaded.entries.size(), manifest.entries.size())
        << "cut=" << cut;
    for (std::size_t i = 0; i < loaded.entries.size(); ++i) {
      EXPECT_EQ(loaded.entries[i], manifest.entries[i]) << "cut=" << cut;
    }
    if (cut == bytes.size()) {
      EXPECT_EQ(loaded.entries.size(), manifest.entries.size());
    }
  }
}

}  // namespace

TEST_F(CheckpointTest, RoundTrip) {
  const auto manifest = sample_manifest();
  const auto path = dir_ / "checkpoint.mrck";
  const std::size_t bytes = mf::save_checkpoint(path, manifest);
  EXPECT_EQ(bytes, fs::file_size(path));

  const auto loaded = mf::load_checkpoint(path, manifest.fingerprint);
  EXPECT_EQ(loaded.fingerprint, manifest.fingerprint);
  EXPECT_EQ(loaded.total_leaves, manifest.total_leaves);
  EXPECT_EQ(loaded.entries, manifest.entries);
}

TEST_F(CheckpointTest, AppendedEntriesMatchOneSave) {
  const auto manifest = sample_manifest();
  ASSERT_EQ(manifest.entries.size(), 4u);
  const auto whole = dir_ / "whole.mrck";
  const std::size_t bytes = mf::save_checkpoint(whole, manifest);
  const auto appended = appended_manifest(dir_ / "appended.mrck", manifest);
  EXPECT_EQ(fs::file_size(appended), bytes);
  EXPECT_EQ(mio::read_file_bytes(appended), mio::read_file_bytes(whole));

  const auto loaded = mf::load_checkpoint(appended, manifest.fingerprint);
  EXPECT_EQ(loaded.total_leaves, manifest.total_leaves);
  EXPECT_EQ(loaded.entries, manifest.entries);
}

TEST_F(CheckpointTest, FingerprintMismatchThrows) {
  const auto manifest = sample_manifest();
  const auto path = dir_ / "checkpoint.mrck";
  mf::save_checkpoint(path, manifest);
  EXPECT_THROW(mf::load_checkpoint(path, manifest.fingerprint + 1),
               std::runtime_error);
}

TEST_F(CheckpointTest, MissingAndGarbageThrow) {
  EXPECT_THROW(mf::load_checkpoint(dir_ / "absent.mrck", 1),
               std::runtime_error);
  const auto path = dir_ / "junk.mrck";
  std::vector<std::uint8_t> junk(64, 0x42);
  mio::write_file_atomic(path, junk);
  EXPECT_THROW(mf::load_checkpoint(path, 1), std::runtime_error);
}

// The crash-safety sweep: truncate the manifest at every byte offset.
// Every truncation must either throw (too short to even carry the
// header) or load a manifest whose entries are a bit-identical prefix
// of the original's — the per-entry checksums make a torn tail
// indistinguishable from "fewer leaves finished", never a corrupt
// restore. The sweep cuts both a saved manifest and one built by
// appends, as a run writes it (an interrupted append is such a cut).
TEST_F(CheckpointTest, TornWriteAtEveryByteOffset) {
  const auto manifest = sample_manifest();
  const auto saved = dir_ / "checkpoint.mrck";
  mf::save_checkpoint(saved, manifest);
  for (const fs::path& path :
       {saved, appended_manifest(dir_ / "appended.mrck", manifest)}) {
    SCOPED_TRACE(path.filename().string());
    sweep_every_cut(dir_, mio::read_file_bytes(path), manifest);
  }
}

// Flipping any single byte of an entry must drop that entry (and the
// tail behind it), not restore damaged data.
TEST_F(CheckpointTest, CorruptEntryByteNeverRestored) {
  const auto manifest = sample_manifest();
  const auto path = dir_ / "checkpoint.mrck";
  mf::save_checkpoint(path, manifest);
  std::vector<std::uint8_t> bytes = mio::read_file_bytes(path);
  // The first entry's encoded size: a manifest holding only it, less the
  // header.
  constexpr std::size_t kHeaderSize = 24;
  mf::CheckpointManifest first = manifest;
  first.entries.resize(1);
  const std::size_t first_entry =
      mf::save_checkpoint(dir_ / "first.mrck", first) - kHeaderSize;
  // Corrupt a byte inside the second entry (its ready_seconds).
  const std::size_t victim = kHeaderSize + first_entry + 6;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] ^= 0xFF;
  const auto damaged = dir_ / "damaged.mrck";
  mio::write_file_atomic(damaged, bytes);
  const auto loaded = mf::load_checkpoint(damaged, manifest.fingerprint);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0], manifest.entries[0]);
}

// ---- reader hardening regressions (bugfix sweep) ------------------

TEST_F(ReaderRegressionTest, HugeHeaderCountFailsWithContextNotBadAlloc) {
  // A 16-byte header claiming 2^60 records over an empty body must throw
  // a runtime_error (with the path in the message), not attempt the
  // allocation.
  const auto path = dir_ / "evil.bin";
  std::vector<std::uint8_t> bytes(16, 0);
  std::memcpy(bytes.data(), "MRSC", 4);
  const std::uint32_t version = 1;
  const std::uint64_t count = 1ull << 60;
  std::memcpy(bytes.data() + 4, &version, 4);
  std::memcpy(bytes.data() + 8, &count, 8);
  mio::write_file_atomic(path, bytes);
  try {
    mio::read_points_binary(path);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("evil.bin"), std::string::npos);
  }
}
