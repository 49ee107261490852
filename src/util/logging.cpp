#include "util/logging.hpp"

#include <cstdio>
#include <mutex>

namespace mrscan::util {

void log_error(const std::string& msg) {
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  std::fprintf(stderr, "[mrscan ERROR] %s\n", msg.c_str());
}

}  // namespace mrscan::util
