#include "net/parallel.h"

#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

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

void parallel_run(std::size_t workers, const std::function<void(std::size_t)>& task) {
  if (workers <= 1) {
    if (workers == 1) task(0);
    return;
  }

  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto guarded = [&](std::size_t w) {
    try {
      task(w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  // Worker w always takes the same slice, so naming its trace track after
  // the caller's keeps same-timestamp events from different workers in a
  // deterministic export order.
  const std::string track = obs::trace_enabled() ? obs::thread_track() : std::string();
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.emplace_back([&guarded, &track, w] {
      if (!track.empty()) OBS_SET_THREAD_TRACK(track + "/" + std::to_string(w));
      guarded(w);
    });
  }
  guarded(0);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace idgka::net
