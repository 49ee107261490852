#include "serve/script.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

namespace mrscan::serve {

namespace {

bool fail(ScriptResult& result, std::size_t line_no,
          const std::string& message) {
  result.ok = false;
  result.error = std::to_string(line_no) + ": " + message;
  return false;
}

/// True when nothing but whitespace is left on the line.
bool at_end(std::istream& fields) {
  fields >> std::ws;
  return fields.eof();
}

/// Read the next field whole as a point id, as io::read_points_text
/// does: unsigned decimal with an optional leading '+'. `istream >>`
/// would take "-5" as 2^64 - 5.
bool read_id(std::istream& fields, geom::PointId& id) {
  std::string token;
  if (!(fields >> token)) return false;
  std::string_view digits = token;
  if (digits.size() > 1 && digits[0] == '+') digits.remove_prefix(1);
  const char* const end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, id);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

ScriptResult run_script(ClusterService& service, std::istream& in,
                        std::ostream& out) {
  ScriptResult result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string command;
    if (!(fields >> command) || command[0] == '#') continue;
    ++result.commands;
    if (command == "insert") {
      geom::Point p;  // the weight is optional and defaults to 1
      if (!read_id(fields, p.id) || !(fields >> p.x >> p.y) ||
          !(at_end(fields) || ((fields >> p.weight) && at_end(fields)))) {
        fail(result, line_no, "insert wants: id x y [weight]");
        break;
      }
      service.insert(p);
    } else if (command == "remove") {
      geom::PointId id = 0;
      if (!read_id(fields, id) || !at_end(fields)) {
        fail(result, line_no, "remove wants: id");
        break;
      }
      service.remove(id);
    } else if (command == "epoch") {
      if (!at_end(fields)) {
        fail(result, line_no, "epoch takes no arguments");
        break;
      }
      const EpochResult r = service.advance_epoch();
      ++result.epochs;
      if (r.ok) {
        out << "epoch " << r.stats.epoch << " ok points="
            << r.stats.live_points << " clusters=" << r.stats.clusters
            << " dirty=" << r.stats.dirty_cells
            << " recluster=" << r.stats.recluster_points << "\n";
      } else {
        ++result.failed_epochs;
        out << "epoch " << r.stats.epoch << " failed: " << r.error << "\n";
      }
    } else if (command == "query") {
      geom::PointId id = 0;
      if (!read_id(fields, id) || !at_end(fields)) {
        fail(result, line_no, "query wants: id");
        break;
      }
      const auto label = service.label_of(id);
      if (label.has_value()) {
        out << "query " << id << " -> " << *label << "\n";
      } else {
        out << "query " << id << " -> unknown\n";
      }
    } else if (command == "stats") {
      dbscan::ClusterId cluster = 0;
      if (!(fields >> cluster) || !at_end(fields)) {
        fail(result, line_no, "stats wants: cluster-id");
        break;
      }
      const auto stats = service.cluster_stats(cluster);
      if (stats.has_value()) {
        out << "stats " << cluster << " -> size=" << stats->size
            << " core=" << stats->core_points
            << " weight=" << stats->weight << "\n";
      } else {
        out << "stats " << cluster << " -> unknown\n";
      }
    } else {
      fail(result, line_no, "unknown command '" + command + "'");
      break;
    }
  }
  return result;
}

}  // namespace mrscan::serve
