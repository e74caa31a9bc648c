// Host-speed calibration. The benchmark shares its machine with other
// guests, which slow every instruction for seconds to minutes at a time
// (shared caches and memory bandwidth, sibling hardware threads, clock
// changes) without stealing time the kernel could report. main.cpp times a
// fixed kernel between the timed intervals of a run, on the thread that runs
// them, and scales the run's host times by kReferenceNsPerRound / (the mean
// ns per round of those samples), so the figures read as at one fixed
// reference speed.
//
// The kernel is benchmark code only — no library call — so no change to the
// library can move it. It has two halves, each chosen because its time
// followed the workloads' own pass times across minutes of varying host
// load: independent multi-limb products (core-bound multiply-accumulate
// chains that overlap in the pipeline) and a strided sweep over a buffer
// larger than a core's private cache (the shared cache and memory path).
// Latency-bound kernels (dependent loads, a single carry chain) did not
// follow the workloads and are not used.
#include <array>
#include <cstdint>
#include <ctime>
#include <vector>

#include "bench.h"
#include "mpint/random.h"

namespace gkabench {

namespace {

constexpr std::size_t kLimbs = 16;
/// Independent 1024-bit accumulators, multiplied in turn.
constexpr std::size_t kLanes = 4;
constexpr int kProductRepsPerRound = 270;
/// 8 MiB, read one word per 64-byte line.
constexpr std::size_t kSweepWords = std::size_t{1} << 20;
constexpr std::size_t kSweepStride = 8;
/// About 90 ms on the reference host. The samples of one ~50 ms window
/// vary by a fifth under load; longer samples keep a run's mean steady.
constexpr int kRoundsPerSample = 160;

using Limbs = std::array<std::uint64_t, kLimbs>;

struct Kernel {
  std::array<Limbs, kLanes> lanes{};
  Limbs b{};
  std::vector<std::uint64_t> sweep;
  std::uint64_t sum = 0;

  Kernel() : sweep(kSweepWords) {
    idgka::mpint::XoshiroRng rng(0x63616c6962ULL);
    for (Limbs& lane : lanes) {
      for (std::uint64_t& limb : lane) limb = rng.next_u64();
    }
    for (std::uint64_t& limb : b) limb = rng.next_u64() | 1;
    for (std::uint64_t& word : sweep) word = rng.next_u64();
  }

  void round() {
    for (int rep = 0; rep < kProductRepsPerRound; ++rep) {
      for (Limbs& x : lanes) {
        std::array<std::uint64_t, 2 * kLimbs> t{};
        for (std::size_t i = 0; i < kLimbs; ++i) {
          std::uint64_t carry = 0;
          for (std::size_t j = 0; j < kLimbs; ++j) {
            const unsigned __int128 p =
                static_cast<unsigned __int128>(x[i]) * b[j] + t[i + j] + carry;
            t[i + j] = static_cast<std::uint64_t>(p);
            carry = static_cast<std::uint64_t>(p >> 64);
          }
          t[i + kLimbs] = carry;
        }
        for (std::size_t i = 0; i < kLimbs; ++i) x[i] = t[i] ^ t[i + kLimbs];
      }
    }
    for (std::size_t i = 0; i < kSweepWords; i += kSweepStride) sum += sweep[i];
  }
};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double calibration_ns_per_round() {
  static Kernel kernel;
  const double t0 = thread_cpu_s();
  for (int r = 0; r < kRoundsPerSample; ++r) kernel.round();
  const double ns = (thread_cpu_s() - t0) * 1e9 / kRoundsPerSample;
  // Keeps the kernel's results live so the compiler cannot drop the work.
  static volatile std::uint64_t sink;
  sink = sink ^ kernel.lanes[0][0] ^ kernel.sum;
  return ns;
}

}  // namespace gkabench
