#include "net/parallel.h"

#include <cstdlib>
#include <thread>

namespace idgka::net {

std::size_t worker_count() {
  static const std::size_t count = [] {
    if (const char* env = std::getenv("IDGKA_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : (hw > 16 ? 16 : hw));
  }();
  return count;
}

}  // namespace idgka::net
