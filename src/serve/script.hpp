// Mutation scripts: the text protocol driving a ClusterService.
//
// One command per line (blank lines and '#' comments skipped):
//
//   insert <id> <x> <y> [weight]   queue an insert for the next epoch
//   remove <id>                    queue a removal
//   epoch                          advance_epoch(); prints the outcome
//   query <id>                     label_of(); prints the label
//   stats <cluster-id>             cluster_stats(); prints the aggregate
//
// A field that does not parse, a missing field or a field too many is an
// error. Points outside the grid's domain parse fine; the epoch that
// applies them counts them as rejected.
//
// The CLI's --serve mode feeds a script file through run_script and the
// serve smoke step in scripts/check.sh validates the resulting metrics
// snapshot, so the whole service surface is drivable — and testable —
// from text in, text out.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/service.hpp"

namespace mrscan::serve {

struct ScriptResult {
  bool ok = true;
  /// First parse or epoch error ("<line>: <message>").
  std::string error;
  std::uint64_t commands = 0;
  std::uint64_t epochs = 0;
  std::uint64_t failed_epochs = 0;
};

/// Execute `in` against `service`, writing one deterministic result line
/// per epoch/query/stats command to `out`. Stops at the first malformed
/// line (failed epochs are reported but do not stop the script — the
/// service carries the mutations over, exactly as a live daemon would).
ScriptResult run_script(ClusterService& service, std::istream& in,
                        std::ostream& out);

}  // namespace mrscan::serve
