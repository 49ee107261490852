#include "sweep/sweep.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>

#include "io/checked_file.hpp"
#include "util/assert.hpp"
#include "util/decimal.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::sweep {

namespace {

/// The text writer formats each slice of records into one block of this
/// size and hands the stream the block.
constexpr std::size_t kTextBlockBytes = std::size_t{1} << 20;

/// Most bytes one text record touches: a 20-digit id, three %.17g
/// numbers (util::write_g17 stores at most kG17WriteBytes each, its
/// digit-copy tail included), a 20-character cluster id (INT64_MIN) and
/// five separators.
constexpr std::size_t kMaxTextRecordBytes =
    20 + 3 * util::kG17WriteBytes + 20 + 5;

/// Records per slice: the most whose worst case fits in one block.
constexpr std::size_t kTextSliceRecords =
    kTextBlockBytes / kMaxTextRecordBytes;
static_assert(kTextSliceRecords == 7'133);

/// Format `records` as text lines from `cursor`, which must have room
/// for kMaxTextRecordBytes per record before `end`. Returns the end of
/// the text.
char* format_text(std::span<const LabeledPoint> records, char* cursor,
                  char* const end) {
  for (const LabeledPoint& r : records) {
    cursor = std::to_chars(cursor, end, r.point.id).ptr;
    *cursor++ = ' ';
    cursor = util::write_g17(cursor, r.point.x);
    *cursor++ = ' ';
    cursor = util::write_g17(cursor, r.point.y);
    *cursor++ = ' ';
    cursor = util::write_g17(cursor, r.point.weight);
    *cursor++ = ' ';
    cursor = std::to_chars(cursor, end, r.cluster).ptr;
    *cursor++ = '\n';
  }
  return cursor;
}

}  // namespace

GlobalAssignment assign_global_ids(const merge::MergeSummary& root_summary) {
  return GlobalAssignment{root_summary.clusters.size()};
}

std::vector<LabeledPoint> label_owned_points(
    std::span<const geom::Point> owned_points,
    const dbscan::Labeling& labels,
    std::span<const std::int64_t> global_of_local, bool keep_noise) {
  MRSCAN_REQUIRE(labels.size() >= owned_points.size());
  std::vector<LabeledPoint> out(owned_record_count(
      std::span(labels.cluster).first(owned_points.size()), keep_noise));
  label_owned_points(owned_points, labels, global_of_local, keep_noise, out);
  return out;
}

std::size_t owned_record_count(std::span<const dbscan::ClusterId> owned_labels,
                               bool keep_noise) {
  if (keep_noise) return owned_labels.size();
  return static_cast<std::size_t>(
      std::count_if(owned_labels.begin(), owned_labels.end(),
                    [](dbscan::ClusterId c) { return c >= 0; }));
}

void label_owned_points(std::span<const geom::Point> owned_points,
                        const dbscan::Labeling& labels,
                        std::span<const std::int64_t> global_of_local,
                        bool keep_noise, std::span<LabeledPoint> out) {
  MRSCAN_REQUIRE(labels.size() >= owned_points.size());
  std::size_t written = 0;
  for (std::size_t i = 0; i < owned_points.size(); ++i) {
    const dbscan::ClusterId local = labels.cluster[i];
    if (local < 0 && !keep_noise) continue;
    MRSCAN_REQUIRE_MSG(written < out.size(),
                       "the leaf yields more records than its output span");
    if (local < 0) {
      out[written++] = {owned_points[i], dbscan::kNoise};
      continue;
    }
    MRSCAN_REQUIRE_MSG(static_cast<std::size_t>(local) <
                           global_of_local.size(),
                       "local cluster id outside the sweep mapping");
    out[written++] = {owned_points[i], global_of_local[local]};
  }
  MRSCAN_REQUIRE_MSG(written == out.size(),
                     "the leaf yields fewer records than its output span");
}

void write_labeled_text(const std::filesystem::path& path,
                        std::span<const LabeledPoint> records,
                        std::size_t threads) {
  errno = 0;
  std::ofstream out(path, std::ios::trunc);
  if (!out) io::fail(path, "cannot open for writing");
  const std::size_t slices =
      (records.size() + kTextSliceRecords - 1) / kTextSliceRecords;
  const std::size_t workers =
      std::min(util::ThreadPool::resolve_worker_count(threads),
               std::max<std::size_t>(slices, 1));
  // Slice s formats into block s % workers. Workers claim slices in
  // ascending order, hold one at a time and append in slice order, so
  // slice s - workers is appended before slice s is claimed.
  const auto blocks =
      std::make_unique_for_overwrite<char[]>(workers * kTextBlockBytes);
  std::mutex mutex;
  std::condition_variable turn_changed;
  std::size_t turn = 0;  // guarded by mutex: the next slice to append
  bool failed = false;   // guarded by mutex: stops every later slice
  // Block until `ready()` holds; false when a write failed instead.
  const auto wait_until = [&](auto ready) {
    std::unique_lock<std::mutex> lock(mutex);
    turn_changed.wait(lock, [&] { return failed || ready(); });
    return !failed;
  };
  const auto append_slice = [&](std::size_t s) {
    // Never waits (see above), but reading `turn` orders the append of
    // slice s - workers before this slice overwrites its block.
    if (!wait_until([&] { return turn + workers > s; })) return;
    char* const block = blocks.get() + (s % workers) * kTextBlockBytes;
    const std::size_t first = s * kTextSliceRecords;
    char* const text_end = format_text(
        records.subspan(first,
                        std::min(kTextSliceRecords, records.size() - first)),
        block, block + kTextBlockBytes);
    if (!wait_until([&] { return turn == s; })) return;
    // Only the slice whose turn it is touches the stream.
    out.write(block, text_end - block);
    if (!out) io::fail(path, "write failed");
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ++turn;
    }
    turn_changed.notify_all();
  };
  util::ThreadPool pool(workers);
  pool.parallel_for(0, slices, [&](std::size_t s) {
    try {
      append_slice(s);
    } catch (...) {
      // Wake the slices waiting for a turn that will never come; the
      // pool rethrows this one exception.
      {
        const std::lock_guard<std::mutex> lock(mutex);
        failed = true;
      }
      turn_changed.notify_all();
      throw;
    }
  });
  // close() flushes what the stream still buffers; a failure there (a
  // full disk) must not be left to the destructor, which swallows it.
  out.close();
  if (!out) io::fail(path, "write failed");
}

std::vector<dbscan::ClusterId> labels_in_input_order(
    std::span<const geom::Point> points,
    std::span<const LabeledPoint> records) {
  std::unordered_map<geom::PointId, dbscan::ClusterId> by_id;
  by_id.reserve(records.size());
  for (const LabeledPoint& r : records) by_id.emplace(r.point.id, r.cluster);
  std::vector<dbscan::ClusterId> out;
  out.reserve(points.size());
  for (const geom::Point& p : points) {
    const auto it = by_id.find(p.id);
    out.push_back(it == by_id.end() ? dbscan::kNoise : it->second);
  }
  return out;
}

bool equivalent_partitions_where(std::span<const dbscan::ClusterId> a,
                                 std::span<const dbscan::ClusterId> b,
                                 std::span<const std::uint8_t> mask) {
  MRSCAN_REQUIRE(a.size() == b.size());
  MRSCAN_REQUIRE(mask.empty() || mask.size() == a.size());
  std::unordered_map<dbscan::ClusterId, dbscan::ClusterId> fwd, bwd;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!mask.empty() && mask[i] == 0) continue;
    const bool a_noise = a[i] < 0;
    const bool b_noise = b[i] < 0;
    if (a_noise != b_noise) return false;
    if (a_noise) continue;
    const auto fit = fwd.emplace(a[i], b[i]).first;
    if (fit->second != b[i]) return false;  // a-cluster split across b
    const auto bit = bwd.emplace(b[i], a[i]).first;
    if (bit->second != a[i]) return false;  // b-cluster merged in a
  }
  return true;
}

bool equivalent_partitions(std::span<const dbscan::ClusterId> a,
                           std::span<const dbscan::ClusterId> b) {
  return equivalent_partitions_where(a, b, {});
}

}  // namespace mrscan::sweep
