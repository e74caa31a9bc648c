// Shared types of the repository benchmark (gkabench).
//
// A workload is a fixed, seed-derived script of key agreements driven
// through the library's public API. One *pass* runs the whole script once;
// a run repeats passes back to back (closed loop: the next pass starts
// when the previous one returns) for the requested number of seconds.
// Every pass of one run uses identical inputs, so every deterministic
// output (model metrics, operation counts, keys) must repeat exactly —
// the fingerprint check in main.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gka/params.h"
#include "gka/session.h"
#include "mpint/mod_context.h"
#include "obs/registry.h"
#include "wire/codec.h"

namespace gkabench {

/// Seconds of process CPU time (all threads) since process start.
double process_cpu_s();
/// Monotonic wall clock, seconds.
double wall_s();

/// Thread CPU nanoseconds per round of the host-speed calibration kernel,
/// from one sample of about 50 ms on the calling thread (calibrate.cpp).
double calibration_ns_per_round();
/// The kernel's ns per round at the reference speed every host time is
/// reported at: about what it takes on an uncontended 4-vCPU Intel Xeon
/// (Sapphire Rapids class) guest, the host the benchmark's bounds were set
/// on, so that figures there read close to raw host time.
inline constexpr double kReferenceNsPerRound = 550000.0;

/// FNV-1a over `text`, folded into `h` — fingerprints of deterministic
/// outputs (stable for one build, which is all a run compares).
std::uint64_t fnv1a(std::uint64_t h, const std::string& text);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Everything one pass produced.
struct Pass {
  /// Key agreements attempted / completed: form + membership rekeys.
  std::size_t attempted = 0;
  std::size_t completed = 0;
  /// Membership events (rekeys) attempted — the per-event denominator.
  std::size_t events = 0;
  /// Every completed agreement left all members holding one key.
  bool keys_agree = true;

  /// Set-up (authority + session construction) paid inside this pass;
  /// negative when the workload's runner does its set-up inside the timed
  /// region and set-up is measured separately (Workload::measure_setup).
  double setup_s = -1.0;
  /// Host wall and process CPU of the timed region.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Share of the pass during which the hypervisor did not steal the VM's
  /// CPUs (1 on bare metal); set by main.cpp. Wall-time figures are scaled
  /// by it, so time given to other guests is not charged to the program.
  double available = 1.0;

  /// Host wall and process CPU of each key agreement, in script order,
  /// where the workload can observe them.
  std::vector<double> op_wall_ms;
  std::vector<double> op_cpu_ms;
  /// Same samples keyed "<scheme>.<form|join|leave>".
  std::map<std::string, std::vector<double>> gka_ms;
  /// Virtual (simulated) latency of each completed rekey.
  std::vector<double> rekey_latency_ms;

  /// Codec-true and paper-accounted bits of every frame put on air.
  double encoded_bits = 0.0;
  double accounted_bits = 0.0;
  /// Modelled battery energy of the pass; negative when not modelled.
  double energy_mj = -1.0;
  /// Virtual seconds the pass simulated (0 without a simulator).
  double virtual_s = 0.0;
  /// mpint work of the timed region. `ec_field_ops` is the part done
  /// inside BD-ECDSA operations, whose products are almost all on the
  /// ECDSA curve's field rather than the key-agreement modulus.
  idgka::mpint::OpCounts ops;
  idgka::mpint::OpCounts ec_field_ops;

  /// Hash of every deterministic output of the pass.
  std::uint64_t fingerprint = kFnvBasis;

  /// Frames the pass put on air, kept only when Workload::run_pass is
  /// asked to capture them (the wire unit-cost probe times them).
  std::vector<idgka::wire::Frame> frames;
};

/// One benchmark workload.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the script once. `capture_frames` fills Pass::frames when the
  /// workload puts its own frames on air through sessions it owns.
  virtual Pass run_pass(bool capture_frames) = 0;

  /// Times one construction of the workload's authorities and sessions
  /// (workloads whose passes report Pass::setup_s never need it).
  virtual double measure_setup() = 0;

  /// Parameters of the unit-cost probes (probes.cpp).
  [[nodiscard]] virtual idgka::gka::SecurityProfile profile() const = 0;
  /// Ring size of one flat session of this workload.
  [[nodiscard]] virtual std::size_t ring_size() const = 0;
  /// True when passes already time every scheme's form/join/leave from
  /// outside (then the probe session is not needed for gka.* timings).
  [[nodiscard]] virtual bool times_gka_ops() const = 0;
  /// Depth of the cluster hierarchy, 0 without one. May build and form
  /// the workload's hierarchy once (trace runs only).
  [[nodiscard]] virtual std::size_t cluster_depth() = 0;
};

/// nullptr for an unknown name. `smoke` shrinks every size for the
/// benchmark's own tests.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool smoke);

/// Per-operation host costs measured by calling layer entry points
/// directly (probes.cpp).
struct UnitCosts {
  /// One product / square at the key-agreement modulus and at the ECDSA
  /// curve's field.
  double mul_ns = 0.0;
  double sqr_ns = 0.0;
  double ec_field_mul_ns = 0.0;
  double ec_field_sqr_ns = 0.0;
  double gq_verify_us = 0.0;
  double dsa_verify_us = 0.0;
  double ecdsa_verify_us = 0.0;
  double ec_scalar_mult_us = 0.0;
  double encode_ns_per_frame = 0.0;
  double decode_ns_per_frame = 0.0;
  /// "<scheme>.<op>" -> median host ms, from a directly driven session.
  std::map<std::string, double> gka_ms;
};

/// Measures the unit costs at `w`'s parameters. `frames` are the frames
/// the wire probe times; when empty, the probe session's frames are used.
UnitCosts measure_unit_costs(Workload& w, std::uint64_t seed,
                             std::vector<idgka::wire::Frame> frames);

/// Lower-case scheme label used in metric names.
const char* scheme_label(idgka::gka::Scheme scheme);

}  // namespace gkabench
