// Unit-cost probes for the traced run: each one calls a layer's public entry
// point directly, at the workload's parameters, and reports the median cost
// per call over several timed batches. Multiplied by the counters a pass
// exports (mpint::op_counts, obs::Registry), they charge host time to the
// layers from outside the library; nothing inside src/ is instrumented.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "mpint/mod_context.h"
#include "mpint/random.h"
#include "sig/dsa.h"
#include "sig/ecdsa.h"
#include "sig/gq.h"

namespace gkabench {

using namespace idgka;

namespace {

/// Median nanoseconds per call of `body` (which performs `calls` calls)
/// over 7 batches, each repeated until it lasts at least ~4 ms.
template <typename Body>
double median_ns_per_call(std::size_t calls, Body&& body) {
  std::size_t reps = 1;
  for (;;) {
    const double t0 = wall_s();
    for (std::size_t r = 0; r < reps; ++r) body();
    if (wall_s() - t0 >= 0.004 || reps >= (1U << 20)) break;
    reps *= 2;
  }
  std::vector<double> samples;
  for (int b = 0; b < 7; ++b) {
    const double t0 = wall_s();
    for (std::size_t r = 0; r < reps; ++r) body();
    samples.push_back((wall_s() - t0) * 1e9 / static_cast<double>(reps * calls));
  }
  std::nth_element(samples.begin(), samples.begin() + 3, samples.end());
  return samples[3];
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("probe check failed: ") + what);
}

}  // namespace

UnitCosts measure_unit_costs(Workload& w, std::uint64_t seed,
                             std::vector<wire::Frame> frames) {
  UnitCosts u;
  gka::Authority authority(w.profile(), seed ^ 0x70726f6265ULL);
  mpint::XoshiroRng rng(seed ^ 0x756e6974ULL);
  const gka::SystemParams& params = authority.params();

  // --- mpint: one Montgomery product / square, at the key-agreement
  // --- modulus and at the ECDSA curve's field.
  const auto time_products = [&](const mpint::ModContext& ctx, double& mul_ns,
                                 double& sqr_ns) {
    mpint::Residue x = ctx.to_residue(mpint::random_below(rng, ctx.modulus()));
    const mpint::Residue y = ctx.to_residue(mpint::random_below(rng, ctx.modulus()));
    constexpr std::size_t kChain = 256;
    mul_ns = median_ns_per_call(kChain, [&] {
      for (std::size_t i = 0; i < kChain; ++i) ctx.mul(x, y, x);
    });
    sqr_ns = median_ns_per_call(kChain, [&] {
      for (std::size_t i = 0; i < kChain; ++i) ctx.sqr(x, x);
    });
    require(!ctx.from_residue(x).is_zero(), "mpint chain collapsed to zero");
  };
  time_products(*params.ctx_p, u.mul_ns, u.sqr_ns);
  time_products(authority.curve().field(), u.ec_field_mul_ns, u.ec_field_sqr_ns);

  // --- sig / ec: verification of the three signature schemes the
  // --- protocols use, and one scalar multiplication on the ECDSA curve.
  {
    const std::uint32_t id = 4242;
    const gka::MemberCredentials cred = authority.enroll(id);
    const std::vector<std::uint8_t> msg = {'g', 'k', 'a', 'b', 'e', 'n', 'c', 'h'};

    const sig::GqSigner signer(params.gq, id, cred.gq_secret, params.ctx_n);
    const sig::GqSignature gq = signer.sign(msg, rng);
    bool ok = true;
    u.gq_verify_us = median_ns_per_call(1, [&] {
      ok = ok && sig::gq_verify(params.gq, *params.ctx_n, id, msg, gq);
    }) / 1000.0;
    require(ok, "gq_verify");

    const sig::DsaSignature dsa =
        sig::dsa_sign(authority.dsa_params(), authority.dsa_ctx(), cred.dsa_key, msg, rng);
    u.dsa_verify_us = median_ns_per_call(1, [&] {
      ok = ok && sig::dsa_verify(authority.dsa_params(), authority.dsa_ctx(), cred.dsa_key.y,
                                 msg, dsa);
    }) / 1000.0;
    require(ok, "dsa_verify");

    const ec::Curve& curve = authority.curve();
    const sig::EcdsaSignature ecdsa = sig::ecdsa_sign(curve, cred.ecdsa_key, msg, rng);
    u.ecdsa_verify_us = median_ns_per_call(1, [&] {
      ok = ok && sig::ecdsa_verify(curve, cred.ecdsa_key.q, msg, ecdsa);
    }) / 1000.0;
    require(ok, "ecdsa_verify");

    const mpint::BigInt k = mpint::random_below(rng, curve.order());
    ec::Point out;
    u.ec_scalar_mult_us =
        median_ns_per_call(1, [&] { out = curve.mul(k, curve.generator()); }) / 1000.0;
    require(curve.is_on_curve(out), "ec scalar mult left the curve");
  }

  // --- gka: a flat proposed-scheme session the size of one of the
  // --- workload's rings, driven directly (workloads whose passes already
  // --- time every scheme skip this). Its frames feed the wire probe.
  if (!w.times_gka_ops()) {
    std::map<std::string, std::vector<double>> samples;
    const auto ring = static_cast<std::uint32_t>(w.ring_size());
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      std::vector<std::uint32_t> ids(ring);
      for (std::uint32_t i = 0; i < ring; ++i) ids[i] = 7000 + i;
      gka::GroupSession session(authority, gka::Scheme::kProposed, ids, seed + rep);
      if (rep == 0 && frames.empty()) {
        session.mutable_network().set_frame_sniffer(
            [&](const wire::Frame& f) { frames.push_back(f); });
      }
      const auto timed = [&](const char* op, auto&& call) {
        const double t0 = wall_s();
        require(call().success, op);
        samples[std::string("proposed.") + op].push_back((wall_s() - t0) * 1000.0);
      };
      timed("form", [&] { return session.form(); });
      timed("join", [&] { return session.join(7000 + ring); });
      timed("leave", [&] { return session.leave(7000 + ring / 2); });
    }
    for (const auto& [name, v] : samples) u.gka_ms[name] = median_of(v);
  }

  // --- wire: encode and strict decode of the workload's own frames.
  if (!frames.empty()) {
    constexpr std::size_t kMaxFrames = 1024;
    if (frames.size() > kMaxFrames) {
      std::vector<wire::Frame> sample;
      for (std::size_t i = 0; i < kMaxFrames; ++i) {
        sample.push_back(frames[i * frames.size() / kMaxFrames]);
      }
      frames.swap(sample);
    }
    std::vector<net::Message> messages;
    for (const wire::Frame& f : frames) {
      messages.push_back(wire::decode(f));
      const wire::Frame again = wire::encode(messages.back());
      require(std::equal(again.bytes().begin(), again.bytes().end(), f.bytes().begin(),
                         f.bytes().end()),
              "wire re-encode is not canonical");
    }
    std::size_t sink = 0;
    u.encode_ns_per_frame = median_ns_per_call(messages.size(), [&] {
      for (const net::Message& m : messages) sink += wire::encode(m).size();
    });
    u.decode_ns_per_frame = median_ns_per_call(frames.size(), [&] {
      for (const wire::Frame& f : frames) sink += wire::decode(f).payload.wire_bytes();
    });
    require(sink > 0, "wire probe saw no bytes");
  }
  return u;
}

}  // namespace gkabench
