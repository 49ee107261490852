#include "sweep/sweep.hpp"

#include <cerrno>
#include <charconv>
#include <fstream>

#include "io/checked_file.hpp"
#include "util/assert.hpp"
#include "util/decimal.hpp"

namespace mrscan::sweep {

namespace {

/// The text writer formats records into one block of this size and
/// hands the stream a full block at a time.
constexpr std::size_t kTextBlockBytes = std::size_t{1} << 20;

/// Most bytes one text record touches: a 20-digit id, three %.17g
/// numbers (util::write_g17 stores at most kG17WriteBytes each, its
/// digit-copy tail included), a 20-character cluster id (INT64_MIN) and
/// five separators. A block with this much room left always takes one
/// more record.
constexpr std::ptrdiff_t kMaxTextRecordBytes =
    20 + 3 * util::kG17WriteBytes + 20 + 5;

}  // namespace

GlobalAssignment assign_global_ids(const merge::MergeSummary& root_summary) {
  return GlobalAssignment{root_summary.clusters.size()};
}

std::vector<LabeledPoint> label_owned_points(
    std::span<const geom::Point> owned_points,
    const dbscan::Labeling& labels,
    std::span<const std::int64_t> global_of_local, bool keep_noise) {
  MRSCAN_REQUIRE(labels.size() >= owned_points.size());
  std::vector<LabeledPoint> out;
  out.reserve(owned_points.size());
  for (std::size_t i = 0; i < owned_points.size(); ++i) {
    const dbscan::ClusterId local = labels.cluster[i];
    if (local < 0) {
      if (keep_noise) out.push_back({owned_points[i], dbscan::kNoise});
      continue;
    }
    MRSCAN_REQUIRE_MSG(static_cast<std::size_t>(local) <
                           global_of_local.size(),
                       "local cluster id outside the sweep mapping");
    out.push_back({owned_points[i], global_of_local[local]});
  }
  return out;
}

void write_labeled_text(const std::filesystem::path& path,
                        std::span<const LabeledPoint> records) {
  errno = 0;
  std::ofstream out(path, std::ios::trunc);
  if (!out) io::fail(path, "cannot open for writing");
  std::vector<char> block(kTextBlockBytes);
  char* const block_end = block.data() + block.size();
  char* cursor = block.data();
  const auto write_block = [&] {
    out.write(block.data(), cursor - block.data());
    if (!out) io::fail(path, "write failed");
    cursor = block.data();
  };
  for (const LabeledPoint& r : records) {
    if (block_end - cursor < kMaxTextRecordBytes) write_block();
    cursor = std::to_chars(cursor, block_end, r.point.id).ptr;
    *cursor++ = ' ';
    cursor = util::write_g17(cursor, r.point.x);
    *cursor++ = ' ';
    cursor = util::write_g17(cursor, r.point.y);
    *cursor++ = ' ';
    cursor = util::write_g17(cursor, r.point.weight);
    *cursor++ = ' ';
    cursor = std::to_chars(cursor, block_end, r.cluster).ptr;
    *cursor++ = '\n';
  }
  write_block();
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
