// Diagnostics to stderr.
//
// Kept deliberately small: experiments are driven by bench binaries that
// print their own tables, and the library reports through exceptions.
// The one diagnostic it prints itself is an error it cannot throw (a
// failed observability export after the run's result is final).
#pragma once

#include <string>

namespace mrscan::util {

/// Write "[mrscan ERROR] <msg>" to stderr as one line (thread-safe).
void log_error(const std::string& msg);

}  // namespace mrscan::util
