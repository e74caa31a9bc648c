// The three benchmark workloads. Each is chosen to stress a different part
// of the stack (README.md in this directory gives the reasons in full):
//
//   engine-multigroup  16 concurrent flat groups on one sharded executor —
//                      executor barriers, shard hand-offs, resume batching;
//   hier-lossy         one ~1024-member depth-k hierarchy over bursty loss
//                      with batteries priced — retransmission, cluster
//                      rekey, link model, energy;
//   paper-1024         the paper's 1024-bit sizes driven directly through
//                      GroupSession for the proposed scheme and the BD-DSA,
//                      BD-ECDSA and SSN baselines — mpint/sig/ec dominate.
#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <set>
#include <stdexcept>
#include <string_view>

#include "bench.h"
#include "cluster/hierarchical_session.h"
#include "mpint/mod_context.h"
#include "mpint/random.h"
#include "sim/scenario.h"

namespace gkabench {

using namespace idgka;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

const char* scheme_label(gka::Scheme scheme) {
  switch (scheme) {
    case gka::Scheme::kProposed:
      return "proposed";
    case gka::Scheme::kBdSok:
      return "bd_sok";
    case gka::Scheme::kBdEcdsa:
      return "bd_ecdsa";
    case gka::Scheme::kBdDsa:
      return "bd_dsa";
    case gka::Scheme::kSsn:
      return "ssn";
  }
  return "unknown";
}

namespace {

/// Seed of every workload's key material (authorities, and for the
/// simulator workloads also member DRBGs and link RNGs). It is fixed so
/// that the prime searches inside authority construction — whose time
/// varies by half between parameter draws — cost the same on every seed;
/// the workload seed draws the membership script (and, on paper-1024, the
/// members' randomness) instead.
constexpr std::uint64_t kKeySeed = 20260730;

/// Distinct offsets in [0, bound) drawn from `rng`, none in `taken`.
std::vector<std::uint32_t> draw_distinct(mpint::XoshiroRng& rng, std::size_t count,
                                         std::uint32_t bound, std::set<std::uint32_t>& taken) {
  std::vector<std::uint32_t> out;
  while (out.size() < count) {
    const auto v = static_cast<std::uint32_t>(rng.next_u64() % bound);
    if (taken.insert(v).second) out.push_back(v);
  }
  return out;
}

std::vector<std::uint32_t> id_range(std::uint32_t base, std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

/// Folds a sim run's rekey latencies and air/energy totals into `pass`.
void absorb_sim_metrics(const sim::Metrics& m, Pass& pass) {
  pass.attempted += 1 + m.rekeys_attempted;
  pass.completed += (m.form_success ? 1 : 0) + m.rekeys_completed;
  pass.events += m.rekeys_attempted;
  pass.keys_agree = pass.keys_agree && m.form_success && m.all_members_agree;
  for (const sim::SimTime us : m.rekey_latencies_us) {
    pass.rekey_latency_ms.push_back(static_cast<double>(us) / 1000.0);
  }
  pass.encoded_bits += static_cast<double>(m.encoded_bits_on_air);
  pass.accounted_bits += static_cast<double>(m.bits_on_air);
}

/// The runner's own mpint deltas, which cover its whole run.
template <typename M>
mpint::OpCounts crypto_of(const M& m) {
  return {m.crypto_exps, m.crypto_mod_muls, m.crypto_mod_sqrs, m.crypto_multi_exps};
}

// ---------------------------------------------------------------------------

class EngineMultigroup final : public Workload {
 public:
  EngineMultigroup(std::uint64_t seed, bool smoke) {
    cfg_.name = "engine-multigroup";
    cfg_.groups = smoke ? 2 : 16;
    cfg_.members_per_group = smoke ? 6 : 32;
    cfg_.topology = sim::Topology::kFlat;
    cfg_.profile = gka::SecurityProfile::kTiny;
    cfg_.seed = kKeySeed;
    cfg_.stagger_us = 500 * sim::kUsPerMs;
    // Offsets: < members_per_group names an initial member, the rest are
    // joiners. Which members leave and partition is drawn from the seed.
    const auto members = static_cast<std::uint32_t>(cfg_.members_per_group);
    mpint::XoshiroRng rng(seed ^ 0x656e67696e65ULL);
    std::set<std::uint32_t> taken;
    const std::uint32_t leaver = draw_distinct(rng, 1, members, taken).front();
    const std::vector<std::uint32_t> squad = draw_distinct(rng, 3, members, taken);
    cfg_.trace = {
        {5 * sim::kUsPerSec, sim::TraceEvent::Kind::kJoin, {members}},
        {10 * sim::kUsPerSec, sim::TraceEvent::Kind::kLeave, {leaver}},
        {15 * sim::kUsPerSec, sim::TraceEvent::Kind::kPartition, squad},
        {20 * sim::kUsPerSec, sim::TraceEvent::Kind::kMerge, squad},
    };
  }

  Pass run_pass(bool /*capture_frames*/) override {
    Pass pass;
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    const sim::MultiGroupMetrics m = sim::MultiGroupRunner(cfg_).run();
    pass.cpu_s = process_cpu_s() - c0;
    pass.wall_s = wall_s() - w0;
    for (const sim::Metrics& g : m.per_group) absorb_sim_metrics(g, pass);
    pass.ops = crypto_of(m);
    pass.keys_agree = pass.keys_agree && m.all_groups_agree();
    pass.virtual_s = static_cast<double>(m.end_time_us) / 1e6;
    pass.fingerprint = fnv1a(kFnvBasis, m.to_json());
    return pass;
  }

  double measure_setup() override {
    const double t0 = wall_s();
    for (std::size_t g = 0; g < cfg_.groups; ++g) {
      gka::Authority authority(cfg_.profile, cfg_.authority_seed(g));
      const gka::GroupSession session(authority, cfg_.cluster.scheme,
                                      id_range(cfg_.group_base_id(g), cfg_.members_per_group),
                                      cfg_.session_seed(g));
    }
    return wall_s() - t0;
  }

  [[nodiscard]] gka::SecurityProfile profile() const override { return cfg_.profile; }
  [[nodiscard]] std::size_t ring_size() const override { return cfg_.members_per_group; }
  [[nodiscard]] bool times_gka_ops() const override { return false; }
  [[nodiscard]] std::size_t cluster_depth() override { return 0; }

 private:
  sim::MultiGroupConfig cfg_;
};

// ---------------------------------------------------------------------------

class HierLossy final : public Workload {
 public:
  HierLossy(std::uint64_t seed, bool smoke) {
    cfg_.name = "hier-lossy";
    cfg_.topology = sim::Topology::kHierarchical;
    cfg_.profile = gka::SecurityProfile::kTiny;
    cfg_.initial_members = smoke ? 40 : 1024;
    cfg_.base_id = 10'000;
    cfg_.seed = kKeySeed;
    cfg_.driver.link = sim::LinkConfig::bursty(0.05);
    cfg_.cluster.min_cluster = 8;
    cfg_.cluster.max_cluster = 24;
    // Batteries are priced (paper CPU + radio profiles) but never deplete,
    // so no member dies and the membership script runs as written.

    // Churn: alternating joins and leaves of seed-drawn members, then one
    // four-member partition and its merge, 20 virtual seconds apart.
    const std::size_t pairs = smoke ? 2 : 20;
    const auto n = static_cast<std::uint32_t>(cfg_.initial_members);
    mpint::XoshiroRng rng(seed ^ 0x686965726cULL);
    std::set<std::uint32_t> taken;
    const std::vector<std::uint32_t> leavers = draw_distinct(rng, pairs, n, taken);
    const std::vector<std::uint32_t> squad_offsets = draw_distinct(rng, 4, n, taken);
    sim::SimTime t = 20 * sim::kUsPerSec;
    for (std::size_t i = 0; i < pairs; ++i) {
      cfg_.trace.push_back(
          {t, sim::TraceEvent::Kind::kJoin, {cfg_.base_id + n + static_cast<std::uint32_t>(i)}});
      t += 20 * sim::kUsPerSec;
      cfg_.trace.push_back({t, sim::TraceEvent::Kind::kLeave, {cfg_.base_id + leavers[i]}});
      t += 20 * sim::kUsPerSec;
    }
    std::vector<std::uint32_t> squad;
    for (const std::uint32_t off : squad_offsets) squad.push_back(cfg_.base_id + off);
    cfg_.trace.push_back({t, sim::TraceEvent::Kind::kPartition, squad});
    t += 40 * sim::kUsPerSec;
    cfg_.trace.push_back({t, sim::TraceEvent::Kind::kMerge, squad});
    cfg_.duration_us = t + 40 * sim::kUsPerSec;
  }

  Pass run_pass(bool /*capture_frames*/) override {
    Pass pass;
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    const sim::Metrics m = sim::ScenarioRunner(cfg_).run();
    pass.cpu_s = process_cpu_s() - c0;
    pass.wall_s = wall_s() - w0;
    absorb_sim_metrics(m, pass);
    pass.ops = crypto_of(m);
    pass.energy_mj = m.energy_total_mj;
    pass.virtual_s = static_cast<double>(m.end_time_us) / 1e6;
    pass.fingerprint = fnv1a(kFnvBasis, m.to_json());
    return pass;
  }

  double measure_setup() override {
    const double t0 = wall_s();
    gka::Authority authority(cfg_.profile, cfg_.seed);
    const cluster::HierarchicalSession session(authority, cfg_.cluster,
                                               id_range(cfg_.base_id, cfg_.initial_members),
                                               cfg_.seed);
    return wall_s() - t0;
  }

  [[nodiscard]] gka::SecurityProfile profile() const override { return cfg_.profile; }
  [[nodiscard]] std::size_t ring_size() const override { return cfg_.cluster.target_size(); }
  [[nodiscard]] bool times_gka_ops() const override { return false; }

  [[nodiscard]] std::size_t cluster_depth() override {
    gka::Authority authority(cfg_.profile, cfg_.seed);
    cluster::HierarchicalSession session(authority, cfg_.cluster,
                                         id_range(cfg_.base_id, cfg_.initial_members), cfg_.seed);
    if (!session.form().success) throw std::runtime_error("hier-lossy: depth probe form failed");
    return session.depth();
  }

 private:
  sim::ScenarioConfig cfg_;
};

// ---------------------------------------------------------------------------

class Paper1024 final : public Workload {
 public:
  Paper1024(std::uint64_t seed, bool smoke)
      : profile_(smoke ? gka::SecurityProfile::kTiny : gka::SecurityProfile::kPaper),
        members_(smoke ? 4 : 16),
        cycles_(smoke ? 1 : 3),
        seed_(seed) {}

  Pass run_pass(bool capture_frames) override {
    Pass pass;
    mpint::XoshiroRng pick(seed_ ^ 0x7061706572ULL);

    const double s0 = wall_s();
    gka::Authority authority(profile_, kKeySeed);
    std::vector<gka::GroupSession> sessions;
    sessions.reserve(kSchemes.size());
    for (std::size_t k = 0; k < kSchemes.size(); ++k) {
      const auto base = static_cast<std::uint32_t>(1000 * (k + 1));
      sessions.emplace_back(authority, kSchemes[k], id_range(base, members_), seed_ + k);
    }
    pass.setup_s = wall_s() - s0;

    double bits = 0.0;
    double accounted = 0.0;
    for (gka::GroupSession& session : sessions) {
      session.mutable_network().set_frame_sniffer([&](const wire::Frame& f) {
        bits += static_cast<double>(f.size_bits());
        accounted += static_cast<double>(f.accounted_bits());
        if (capture_frames) pass.frames.push_back(f);
      });
    }

    const auto timed = [&](gka::GroupSession& session, const char* op, auto&& call) {
      const mpint::OpCounts ops0 = mpint::op_counts();
      const double bits0 = bits;
      const double c0 = process_cpu_s();
      const double w0 = wall_s();
      const gka::RunResult r = call();
      const double ms = (wall_s() - w0) * 1000.0;
      const double cpu_ms = (process_cpu_s() - c0) * 1000.0;
      pass.cpu_s += cpu_ms / 1000.0;
      pass.wall_s += ms / 1000.0;
      const mpint::OpCounts ops1 = mpint::op_counts();
      const mpint::OpCounts d{ops1.exps - ops0.exps, ops1.mod_muls - ops0.mod_muls,
                              ops1.mod_sqrs - ops0.mod_sqrs, ops1.multi_exps - ops0.multi_exps};
      mpint::OpCounts& sink =
          session.scheme() == gka::Scheme::kBdEcdsa ? pass.ec_field_ops : pass.ops;
      sink.exps += d.exps;
      sink.mod_muls += d.mod_muls;
      sink.mod_sqrs += d.mod_sqrs;
      sink.multi_exps += d.multi_exps;

      bool agree = r.success && session.has_key();
      if (agree) {
        for (const gka::MemberCtx& m : session.members()) agree = agree && m.key == session.key();
      }
      ++pass.attempted;
      if (std::string_view(op) != "form") ++pass.events;
      if (agree) ++pass.completed;
      pass.keys_agree = pass.keys_agree && agree;
      pass.op_wall_ms.push_back(ms);
      pass.op_cpu_ms.push_back(cpu_ms);
      pass.gka_ms[std::string(scheme_label(session.scheme())) + "." + op].push_back(ms);
      pass.fingerprint = fnv1a(
          pass.fingerprint,
          std::string(scheme_label(session.scheme())) + op + (r.success ? "ok" : "fail") +
              std::to_string(r.rounds) + "/" + std::to_string(r.retransmissions) + "/" +
              (session.has_key() ? session.key().to_hex() : "-") + "/" +
              std::to_string(d.exps) + "/" + std::to_string(d.mod_muls) + "/" +
              std::to_string(d.mod_sqrs) + "/" + std::to_string(d.multi_exps) + "/" +
              std::to_string(static_cast<std::uint64_t>(bits - bits0)));
    };

    for (std::size_t k = 0; k < sessions.size(); ++k) {
      gka::GroupSession& session = sessions[k];
      const std::size_t cycles = k == 0 ? cycles_ : 1;
      timed(session, "form", [&] { return session.form(); });
      for (std::size_t c = 0; c < cycles; ++c) {
        const auto joiner = static_cast<std::uint32_t>(1000 * (k + 1) + members_ + c);
        timed(session, "join", [&] { return session.join(joiner); });
        const std::vector<std::uint32_t> ids = session.member_ids();
        const std::uint32_t leaver = ids[pick.next_u64() % ids.size()];
        timed(session, "leave", [&] { return session.leave(leaver); });
      }
    }
    pass.encoded_bits = bits;
    pass.accounted_bits = accounted;
    return pass;
  }

  double measure_setup() override {
    throw std::logic_error("paper-1024 reports set-up from every pass");
  }

  [[nodiscard]] gka::SecurityProfile profile() const override { return profile_; }
  [[nodiscard]] std::size_t ring_size() const override { return members_; }
  [[nodiscard]] bool times_gka_ops() const override { return true; }
  [[nodiscard]] std::size_t cluster_depth() override { return 0; }

 private:
  /// The proposed scheme and the paper's certificate/ID-based baselines.
  /// BD-SOK is left out: one pairing-based agreement at these sizes takes
  /// seconds, which would leave too few samples per run.
  static constexpr std::array<gka::Scheme, 4> kSchemes = {
      gka::Scheme::kProposed, gka::Scheme::kBdDsa, gka::Scheme::kBdEcdsa, gka::Scheme::kSsn};

  gka::SecurityProfile profile_;
  std::size_t members_;
  std::size_t cycles_;
  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool smoke) {
  if (name == "engine-multigroup") return std::make_unique<EngineMultigroup>(seed, smoke);
  if (name == "hier-lossy") return std::make_unique<HierLossy>(seed, smoke);
  if (name == "paper-1024") return std::make_unique<Paper1024>(seed, smoke);
  return nullptr;
}

}  // namespace gkabench
