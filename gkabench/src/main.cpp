// gkabench — the repository benchmark program (run.py builds and launches it).
//
//   gkabench --workload NAME --seed N --seconds S --trace 0|1
//            [--expect HEX] [--reference] [--smoke] [--results FILE]
//
// One process runs one workload closed-loop: an untimed warm-up pass, then
// timed passes back to back until S seconds have elapsed, with samples of
// the host-speed calibration kernel (calibrate.cpp) after each; the run's
// host times are scaled to the kernel's reference speed. --trace 0 reports
// the end-to-end metrics; --trace 1 alternates plain and traced passes
// (registry deltas and per-call timing around the library's public calls)
// and then measures per-call unit costs, reporting the per-layer metrics.
//
// Correctness: every pass must complete every key agreement with all
// members agreeing, and every deterministic output (model metrics, op
// counts, keys) must hash to the warm-up pass's fingerprint and to --expect
// (the fingerprint of the same pass run by --reference with the other
// IDGKA_THREADS value: run.py times at 1 thread, references at min(nproc, 4)).
// A pass that differs counts all its operations as failed. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; the exit
// code is 0 only when the run was correct, 2 when it refused to run.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "mpint/mod_context.h"
#include "net/parallel.h"
#include "obs/trace.h"

using namespace idgka;
using gkabench::Pass;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  bool reference = false;
  /// Fingerprint of the reference pass, run at another IDGKA_THREADS;
  /// `reference_failed` when that pass itself failed its checks.
  std::optional<std::uint64_t> expect;
  bool reference_failed = false;
  std::string results;
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "gkabench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) refuse("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--expect") {
      const std::string v = value();
      if (v == "failed") {
        a.reference_failed = true;
      } else {
        a.expect = std::strtoull(v.c_str(), nullptr, 16);
      }
    } else if (flag == "--results") {
      a.results = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--reference") {
      a.reference = true;
    } else {
      refuse("unknown argument " + flag);
    }
  }
  if (a.workload.empty() || !have_seed) refuse("--workload and --seed are required");
  if (!a.reference && (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1))) {
    refuse("--seconds > 0 and --trace 0|1 are required");
  }
  return a;
}

// ------------------------------------------------------------- environment

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1U, std::thread::hardware_concurrency());
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// Refuses builds whose timings would mislead, and IDGKA_THREADS values
/// that are implicit or exceed the cores this process may run on.
void check_environment() {
  if (std::strcmp(GKABENCH_BUILD_TYPE, "Release") != 0) {
    refuse(std::string("refusing to time a non-Release build (") + GKABENCH_BUILD_TYPE + ")");
  }
#ifndef NDEBUG
  refuse("refusing to time a build with assertions enabled");
#endif
  const char* threads = std::getenv("IDGKA_THREADS");
  if (threads == nullptr) refuse("IDGKA_THREADS must be set explicitly");
  const long t = std::strtol(threads, nullptr, 10);
  if (t < 1 || static_cast<std::size_t>(t) > nproc()) {
    refuse("IDGKA_THREADS must be between 1 and nproc");
  }
}

std::size_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::size_t kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// CPU jiffies of the whole VM from /proc/stat: busy (user, nice, system,
/// irq, softirq) and stolen by the hypervisor. Zero where unavailable.
struct HostTicks {
  double busy = 0.0;
  double steal = 0.0;
};

HostTicks host_ticks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                     softirq = 0, steal = 0;
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user, &nice, &system,
                  &idle, &iowait, &irq, &softirq, &steal) == 8) {
    t.busy = static_cast<double>(user + nice + system + irq + softirq);
    t.steal = static_cast<double>(steal);
  }
  std::fclose(f);
  return t;
}

/// Share of the VM's wanted CPU time between `a` and `b` that was not
/// stolen: wall time scaled by it is the time the program could run.
double available_between(const HostTicks& a, const HostTicks& b) {
  const double stolen = b.steal - a.steal;
  const double wanted = b.busy - a.busy + stolen;
  return wanted > 0.0 ? 1.0 - stolen / wanted : 1.0;
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median and tail of a sample. The tail is the highest of p99.9, p99,
/// p95, p90 and p75 (nearest rank) that leaves at least ten samples above
/// it; with fewer than 40 samples there is none.
struct Spread {
  std::size_t n = 0;
  double p50 = 0.0;
  std::optional<double> tail;
  double tail_q = 0.0;
};

Spread spread(std::vector<double> v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto rank = [&](double q) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q / 100.0 * s.n)));
  };
  s.p50 = v[rank(50.0) - 1];
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (s.n - rank(q) >= 10) {
      s.tail = v[rank(q) - 1];
      s.tail_q = q;
      break;
    }
  }
  return s;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" + num(metrics[i].value) +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A counter's increment in a registry delta (0 when untouched).
double counter(const obs::Snapshot& d, const char* name) {
  const auto it = d.counters.find(name);
  return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
}

struct LayerTotals {
  std::map<std::string, double> counters;
  mpint::OpCounts ops;
  mpint::OpCounts ec_field_ops;
  double completed = 0.0;
  double events = 0.0;
  double cpu_s = 0.0;
};

void absorb(LayerTotals& t, const obs::Snapshot& d, const Pass& p) {
  for (const char* name :
       {"wire.encodes", "wire.decodes", "wire.encoded_bytes", "net.tx_frames", "net.rx_copies",
        "net.drops", "engine.resumes", "engine.batches", "engine.rounds",
        "engine.retransmissions", "cluster.rekeys", "cluster.rekey_retries"}) {
    t.counters[name] += counter(d, name);
  }
  for (const auto& [to, from] : {std::pair{&t.ops, &p.ops}, {&t.ec_field_ops, &p.ec_field_ops}}) {
    to->exps += from->exps;
    to->mod_muls += from->mod_muls;
    to->mod_sqrs += from->mod_sqrs;
    to->multi_exps += from->multi_exps;
  }
  t.completed += static_cast<double>(p.completed);
  t.events += static_cast<double>(p.events);
  t.cpu_s += p.cpu_s;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  check_environment();
  std::unique_ptr<gkabench::Workload> w =
      gkabench::make_workload(args.workload, args.seed, args.smoke);
  if (!w) refuse("unknown workload " + args.workload);

  try {
    if (args.reference) {
      const Pass p = w->run_pass(false);
      const bool ok = p.keys_agree && p.completed == p.attempted;
      std::printf("reference %s %d\n", hex(p.fingerprint).c_str(), ok ? 1 : 0);
      return ok ? 0 : 1;
    }

    const bool traced_run = args.trace == 1;
    std::printf("gkabench workload=%s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
                args.smoke ? " smoke" : "");
    std::printf("env nproc=%zu IDGKA_THREADS=%s workers=%zu reference_threads=%s build=%s "
                "IDGKA_OBS=%d obs_trace=%d compiler=\"%s\" commit=%s source=%s\n",
                nproc(), env_or("IDGKA_THREADS", "unset").c_str(), net::worker_count(),
                env_or("GKABENCH_REFERENCE_THREADS", "unknown").c_str(),
                GKABENCH_BUILD_TYPE, IDGKA_OBS, obs::trace_enabled() ? 1 : 0, __VERSION__,
                env_or("GKABENCH_GIT_COMMIT", "unknown").c_str(),
                env_or("GKABENCH_SOURCE_DIGEST", "unknown").c_str());

    // Warm-up: fills lazy statics, thread pools and frame pools; its
    // outputs are the run's reference for every later pass.
    const Pass warm = w->run_pass(false);
    // Peak RSS after one pass of fixed work. The process keeps growing
    // slowly with every further pass (reported at the end of the run), so
    // a peak taken at the end would depend on how many passes fit.
    const std::size_t warm_rss_kb = peak_rss_kb();
    std::size_t attempted = warm.attempted;
    std::size_t failed = warm.attempted - warm.completed;
    bool correct = warm.keys_agree && warm.completed == warm.attempted;
    if (args.reference_failed || (args.expect && *args.expect != warm.fingerprint)) {
      std::printf("MISMATCH: fingerprint %s vs IDGKA_THREADS=%s reference %s\n",
                  hex(warm.fingerprint).c_str(),
                  env_or("GKABENCH_REFERENCE_THREADS", "unknown").c_str(),
                  args.expect ? hex(*args.expect).c_str() : "(failed its checks)");
      failed = warm.attempted;
      correct = false;
    }

    // Host speed: a calibration sample follows the warm-up and every timed
    // interval, on this thread; the run's speed is the reference ns per
    // round over their mean. The host's speed changes within a second, so
    // a speed per interval, from the one sample beside it, would be noisier
    // than the interval's own time; the run's mean is steady.
    std::vector<double> calib_ns;
    const auto calibrate = [&calib_ns] {
      calib_ns.push_back(gkabench::calibration_ns_per_round());
    };
    calibrate();

    std::vector<double> setup;
    if (warm.setup_s < 0.0) {
      for (int i = 0; i < 5; ++i) {
        const HostTicks t0 = host_ticks();
        const double s = w->measure_setup();
        setup.push_back(s * available_between(t0, host_ticks()));
        calibrate();
      }
    }

    std::vector<Pass> passes;
    std::vector<bool> traced;
    LayerTotals totals;
    std::vector<wire::Frame> frames;
    const double start = gkabench::wall_s();
    const std::size_t min_passes = traced_run ? 2 : 1;
    while (passes.size() < min_passes || gkabench::wall_s() - start < args.seconds) {
      const bool trace_this = traced_run && passes.size() % 2 == 0;
      const HostTicks t0 = host_ticks();
      Pass p;
      if (trace_this) {
        const obs::ScopedSnapshotDelta delta;
        p = w->run_pass(frames.empty());
        absorb(totals, delta.delta(), p);
        if (frames.empty()) frames = std::move(p.frames);
      } else {
        p = w->run_pass(false);
      }
      p.available = available_between(t0, host_ticks());
      calibrate();
      p.frames.clear();
      attempted += p.attempted;
      std::size_t pass_failed = p.attempted - p.completed;
      if (!p.keys_agree || p.fingerprint != warm.fingerprint) {
        std::printf("MISMATCH: pass %zu keys_agree=%d fingerprint %s vs %s\n", passes.size(),
                    p.keys_agree ? 1 : 0, hex(p.fingerprint).c_str(),
                    hex(warm.fingerprint).c_str());
        pass_failed = p.attempted;
      }
      failed += pass_failed;
      correct = correct && pass_failed == 0;
      if (p.setup_s >= 0.0) setup.push_back(p.setup_s * p.available);
      passes.push_back(std::move(p));
      traced.push_back(trace_this);
    }

    // --- end-to-end metrics (medians over the timed passes)
    std::vector<double> ops_per_s;
    std::vector<double> ops_per_s_raw;
    std::vector<double> available;
    double calib_mean = 0.0;
    for (const double ns : calib_ns) calib_mean += ns / static_cast<double>(calib_ns.size());
    const double speed = gkabench::kReferenceNsPerRound / calib_mean;
    std::vector<double> cpu_ms_per_op;
    std::vector<double> cores_busy;
    std::vector<double> virt_per_wall;
    std::vector<double> op_wall_ms;
    std::map<std::string, std::vector<double>> gka_ms;
    std::vector<double> wall_traced;
    std::vector<double> wall_plain;
    std::size_t completed_total = warm.completed;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const Pass& p = passes[i];
      const auto ops = static_cast<double>(p.completed);
      // Host times at the reference speed, wall time also without steal.
      const double wall = p.wall_s * p.available * speed;
      const double cpu = p.cpu_s * speed;
      ops_per_s.push_back(ratio(ops, wall));
      ops_per_s_raw.push_back(ratio(ops, p.wall_s));
      available.push_back(p.available);
      cpu_ms_per_op.push_back(ratio(cpu * 1000.0, ops));
      cores_busy.push_back(ratio(cpu, wall));
      virt_per_wall.push_back(ratio(p.virtual_s, wall));
      for (const double ms : p.op_wall_ms) op_wall_ms.push_back(ms * p.available * speed);
      for (const auto& [k, v] : p.gka_ms) {
        for (const double ms : v) gka_ms[k].push_back(ms * p.available * speed);
      }
      (traced[i] ? wall_traced : wall_plain).push_back(wall);
      completed_total += p.completed;
    }
    const double events = static_cast<double>(warm.events);
    const Spread op_wall = spread(op_wall_ms);
    const Spread rekey = spread(warm.rekey_latency_ms);
    const double mj_per_event = warm.energy_mj >= 0.0 ? ratio(warm.energy_mj, events) : 0.0;

    // Rates: the median over passes. Where passes expose each operation in
    // a fixed script order, take each operation's median across passes
    // first, so a burst of host noise spoils one sample of one operation
    // rather than a whole pass.
    double rate = median(ops_per_s);
    double cpu_per_op = median(cpu_ms_per_op);
    if (const std::size_t n_ops = warm.op_wall_ms.size(); n_ops > 0) {
      double wall_ms = 0.0;
      double cpu_ms = 0.0;
      for (std::size_t i = 0; i < n_ops; ++i) {
        std::vector<double> w_i;
        std::vector<double> c_i;
        for (const Pass& p : passes) {
          w_i.push_back(p.op_wall_ms.at(i) * p.available * speed);
          c_i.push_back(p.op_cpu_ms.at(i) * speed);
        }
        wall_ms += median(w_i);
        cpu_ms += median(c_i);
      }
      rate = ratio(static_cast<double>(n_ops) * 1000.0, wall_ms);
      cpu_per_op = ratio(cpu_ms, static_cast<double>(n_ops));
    }

    std::vector<Metric> metrics;
    if (!traced_run) {
      metrics = {
          {"ops_per_s", "1/s", rate},
          {"cpu_ms_per_op", "ms", cpu_per_op},
          {"air_kbit_per_event", "kbit", ratio(warm.encoded_bits / 1000.0, events)},
          {"convergence", "ratio",
           ratio(static_cast<double>(completed_total), static_cast<double>(attempted))},
          {"setup_s", "s", median(setup) * speed},
          {"peak_rss_mb", "MB", static_cast<double>(warm_rss_kb) / 1024.0},
      };
    } else {
      // Unit costs and CPU at the run's reference speed, like every pass
      // figure, so the layer times and the operation times compare.
      gkabench::UnitCosts u = gkabench::measure_unit_costs(*w, args.seed, frames);
      for (double* cost : {&u.mul_ns, &u.sqr_ns, &u.ec_field_mul_ns, &u.ec_field_sqr_ns,
                           &u.gq_verify_us, &u.dsa_verify_us, &u.ecdsa_verify_us,
                           &u.ec_scalar_mult_us, &u.encode_ns_per_frame, &u.decode_ns_per_frame}) {
        *cost *= speed;
      }
      for (auto& [op, ms] : u.gka_ms) ms *= speed;
      const double n = totals.completed;
      const auto per_op = [&](const char* c) { return ratio(totals.counters[c], n); };
      const double cpu_ms = ratio(totals.cpu_s * 1000.0, n) * speed;
      const mpint::OpCounts& ka = totals.ops;
      const mpint::OpCounts& ec = totals.ec_field_ops;
      const double mpint_ms =
          ratio(static_cast<double>(ka.mod_muls) * u.mul_ns +
                    static_cast<double>(ka.mod_sqrs) * u.sqr_ns +
                    static_cast<double>(ec.mod_muls) * u.ec_field_mul_ns +
                    static_cast<double>(ec.mod_sqrs) * u.ec_field_sqr_ns,
                n) / 1e6;
      const auto count_per_op = [&](std::uint64_t mpint::OpCounts::*field) {
        return ratio(static_cast<double>(ka.*field + ec.*field), n);
      };
      const double wire_ms = (per_op("wire.encodes") * u.encode_ns_per_frame +
                              per_op("wire.decodes") * u.decode_ns_per_frame) / 1e6;
      const double rounds = totals.counters["engine.rounds"];
      const double retx = totals.counters["engine.retransmissions"];
      const double rx = totals.counters["net.rx_copies"];
      const double drops = totals.counters["net.drops"];
      metrics = {
          {"mpint.exps_per_op", "count", count_per_op(&mpint::OpCounts::exps)},
          {"mpint.mod_muls_per_op", "count", count_per_op(&mpint::OpCounts::mod_muls)},
          {"mpint.mod_sqrs_per_op", "count", count_per_op(&mpint::OpCounts::mod_sqrs)},
          {"mpint.multi_exps_per_op", "count", count_per_op(&mpint::OpCounts::multi_exps)},
          {"mpint.mul_ns", "ns", u.mul_ns},
          {"mpint.sqr_ns", "ns", u.sqr_ns},
          {"mpint.busy_ms_per_op", "ms", mpint_ms},
          {"sig.gq_verify_us", "us", u.gq_verify_us},
          {"sig.dsa_verify_us", "us", u.dsa_verify_us},
          {"sig.ecdsa_verify_us", "us", u.ecdsa_verify_us},
          {"ec.scalar_mult_us", "us", u.ec_scalar_mult_us},
      };
      for (const gka::Scheme s : {gka::Scheme::kProposed, gka::Scheme::kBdDsa,
                                  gka::Scheme::kBdEcdsa, gka::Scheme::kSsn}) {
        for (const char* op : {"form", "join", "leave"}) {
          const std::string key = std::string(gkabench::scheme_label(s)) + "." + op;
          double ms = 0.0;
          if (w->times_gka_ops()) {
            ms = median(gka_ms[key]);
          } else if (const auto it = u.gka_ms.find(key); it != u.gka_ms.end()) {
            ms = it->second;
          }
          metrics.push_back({"gka." + key + "_ms", "ms", ms});
        }
      }
      const std::size_t depth = w->cluster_depth();
      metrics.insert(
          metrics.end(),
          {
              {"gka.op_wall_ms_p50", "ms", op_wall.p50},
              {"gka.op_wall_ms_tail", "ms", op_wall.tail.value_or(0.0)},
              {"wire.encodes_per_op", "count", per_op("wire.encodes")},
              {"wire.decodes_per_op", "count", per_op("wire.decodes")},
              {"wire.bytes_per_frame", "B",
               ratio(totals.counters["wire.encoded_bytes"], totals.counters["wire.encodes"])},
              {"wire.encode_ns_per_frame", "ns", u.encode_ns_per_frame},
              {"wire.decode_ns_per_frame", "ns", u.decode_ns_per_frame},
              {"wire.encoded_to_accounted", "ratio",
               ratio(warm.encoded_bits, warm.accounted_bits)},
              {"wire.busy_ms_per_op", "ms", wire_ms},
              {"net.tx_frames_per_op", "count", per_op("net.tx_frames")},
              {"net.rx_copies_per_op", "count", per_op("net.rx_copies")},
              {"net.drops_per_op", "count", per_op("net.drops")},
              {"net.drop_ratio", "ratio", ratio(drops, rx + drops)},
              {"engine.resumes_per_op", "count", per_op("engine.resumes")},
              {"engine.batches_per_op", "count", per_op("engine.batches")},
              {"engine.rounds_per_op", "count", per_op("engine.rounds")},
              {"engine.retransmissions_per_op", "count", per_op("engine.retransmissions")},
              {"engine.useful_round_ratio", "ratio", ratio(rounds, rounds + retx)},
              {"engine.max_batch", "count",
               static_cast<double>(obs::Registry::global().gauge("engine.max_batch").value())},
              {"engine.cores_busy", "cores", median(cores_busy)},
              {"cluster.rekeys_per_event", "count",
               ratio(totals.counters["cluster.rekeys"], totals.events)},
              {"cluster.rekey_retries_per_event", "count",
               ratio(totals.counters["cluster.rekey_retries"], totals.events)},
              {"cluster.depth", "count", static_cast<double>(depth)},
              {"sim.virtual_s_per_wall_s", "ratio", median(virt_per_wall)},
              {"sim.rekey_latency_ms_p50", "ms", rekey.p50},
              {"sim.rekey_latency_ms_tail", "ms", rekey.tail.value_or(0.0)},
              {"energy.mj_per_event", "mJ", mj_per_event},
              {"trace.overhead", "ratio", ratio(median(wall_traced), median(wall_plain))},
              {"trace.unattributed_share", "ratio", 1.0 - ratio(mpint_ms + wire_ms, cpu_ms)},
          });
    }

    // --- human-readable report: every metric, plus the workload-specific
    // --- end-to-end figures the contract line does not carry.
    std::printf("passes=%zu (+1 warm-up) ops/pass=%zu events/pass=%zu available=%.4g "
                "(median share of pass time not stolen) speed=%.4g (host speed over the "
                "reference; ops_per_s unscaled %.6g)\n",
                passes.size(), warm.attempted, warm.events, median(available), speed,
                median(ops_per_s_raw));
    for (const Metric& m : metrics) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const auto tail_line = [](const char* name, const Spread& s, const char* what) {
      if (s.n == 0) {
        std::printf("  %-34s absent (%s)\n", name, what);
      } else if (s.tail) {
        std::printf("  %-34s p50 %.6g ms, p%g %.6g ms (n=%zu; %s)\n", name, s.p50, s.tail_q,
                    *s.tail, s.n, what);
      } else {
        std::printf("  %-34s p50 %.6g ms, tail absent (n=%zu < 40; %s)\n", name, s.p50, s.n,
                    what);
      }
    };
    tail_line("op_wall_ms", op_wall, "host wall per key agreement");
    tail_line("rekey_latency_ms", rekey, "virtual, one pass");
    const double end_rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
    std::printf("  %-34s %14.6g MB after %zu passes\n", "peak_rss_mb_run_end", end_rss_mb,
                passes.size() + 1);
    if (warm.energy_mj >= 0.0) {
      std::printf("  %-34s %14.6g mJ\n", "mj_per_event", mj_per_event);
    } else {
      std::printf("  %-34s absent (no battery model)\n", "mj_per_event");
    }

    if (!args.results.empty()) {
      std::ofstream out(args.results);
      out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
          << ",\"seconds\":" << num(args.seconds) << ",\"trace\":" << args.trace
          << ",\"smoke\":" << (args.smoke ? "true" : "false")
          << ",\"env\":{\"nproc\":" << nproc() << ",\"idgka_threads\":\""
          << env_or("IDGKA_THREADS", "unset") << "\",\"reference_threads\":\""
          << env_or("GKABENCH_REFERENCE_THREADS", "unknown")
          << "\",\"build_type\":\"" << GKABENCH_BUILD_TYPE
          << "\",\"idgka_obs\":" << IDGKA_OBS
          << ",\"obs_trace\":" << (obs::trace_enabled() ? "true" : "false")
          << ",\"compiler\":\"" << __VERSION__
          << "\",\"git_commit\":\"" << env_or("GKABENCH_GIT_COMMIT", "unknown")
          << "\",\"source_digest\":\"" << env_or("GKABENCH_SOURCE_DIGEST", "unknown") << "\"}"
          << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
          << ",\"failed\":" << failed << ",\"fingerprint\":\"" << hex(warm.fingerprint) << "\""
          << ",\"pass_wall_s\":[";
      for (std::size_t i = 0; i < passes.size(); ++i) {
        out << (i > 0 ? "," : "") << num(passes[i].wall_s);
      }
      out << "],\"pass_available\":[";
      for (std::size_t i = 0; i < passes.size(); ++i) {
        out << (i > 0 ? "," : "") << num(passes[i].available);
      }
      out << "],\"speed\":" << num(speed) << ",\"calibration_ns_per_round\":[";
      for (std::size_t i = 0; i < calib_ns.size(); ++i) {
        out << (i > 0 ? "," : "") << num(calib_ns[i]);
      }
      out << "],\"setup_s\":[";
      for (std::size_t i = 0; i < setup.size(); ++i) out << (i > 0 ? "," : "") << num(setup[i]);
      out << "],\"op_wall_ms\":{\"n\":" << op_wall.n << ",\"p50\":" << num(op_wall.p50)
          << ",\"tail_percentile\":" << num(op_wall.tail_q)
          << ",\"tail\":" << (op_wall.tail ? num(*op_wall.tail) : "null") << "}"
          << ",\"rekey_latency_ms\":{\"n\":" << rekey.n << ",\"p50\":" << num(rekey.p50)
          << ",\"tail_percentile\":" << num(rekey.tail_q)
          << ",\"tail\":" << (rekey.tail ? num(*rekey.tail) : "null") << "}"
          << ",\"mj_per_event\":" << (warm.energy_mj >= 0.0 ? num(mj_per_event) : "null")
          << ",\"peak_rss_mb_run_end\":" << num(end_rss_mb)
          << ",\"metrics\":" << metrics_json(metrics) << "}\n";
    }

    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
                correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gkabench: %s\n", e.what());
    return 1;
  }
}
