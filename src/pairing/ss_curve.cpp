#include "pairing/ss_curve.h"

#include <stdexcept>

#include "hash/sha256.h"

namespace idgka::pairing {

namespace {

// Finds a curve point (x, y) with x derived from `data` and a counter, then
// clears the cofactor to land in the order-q subgroup.
ec::Point hash_to_subgroup(const mpint::SupersingularParams& params, const ec::Curve& curve,
                           std::span<const std::uint8_t> data) {
  for (std::uint32_t counter = 0;; ++counter) {
    hash::Sha256 h;
    h.update(std::string_view{"idgka-map2point|"});
    h.update(data);
    std::array<std::uint8_t, 4> ctr_be{};
    for (int i = 0; i < 4; ++i) ctr_be[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(counter >> (24 - i * 8));
    h.update(ctr_be);
    // Expand to enough bytes for x by chaining digests.
    std::vector<std::uint8_t> xbytes;
    auto digest = h.finalize();
    while (xbytes.size() * 8 < params.p.bit_length() + 64) {
      xbytes.insert(xbytes.end(), digest.begin(), digest.end());
      digest = hash::Sha256::digest(digest);
    }
    const BigInt x = BigInt::from_bytes_be(xbytes).mod(params.p);
    // rhs = x^3 + x
    const BigInt rhs = (mpint::mod_mul(mpint::mod_mul(x, x, params.p), x, params.p) + x)
                           .mod(params.p);
    if (rhs.is_zero()) continue;  // would give 2-torsion point
    BigInt y;
    if (!mpint::sqrt_mod_p3(curve.field(), rhs, y)) continue;
    ec::Point pt{x, y, false};
    // Clear the cofactor; the result has order q (or is O if pt was in the
    // complementary subgroup — retry then).
    pt = curve.mul_raw(params.cofactor, pt);
    if (pt.infinity) continue;
    return pt;
  }
}

}  // namespace

SsGroup::SsGroup(mpint::SupersingularParams params)
    : params_(std::move(params)), fp2_(params_.p) {
  // y^2 = x^3 + x  =>  a = 1, b = 0. The generator is MapToPoint of a fixed
  // label, found on the curve itself before its comb table is built.
  const std::string_view label = "idgka-ss-generator";
  const auto derive = [this, label](const ec::Curve& curve) {
    return hash_to_subgroup(
        params_, curve,
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(label.data()),
                                      label.size()));
  };
  curve_ = std::make_unique<ec::Curve>("ss", params_.p, BigInt{1}, BigInt{}, derive, params_.q,
                                       params_.cofactor);
  if (!curve_->mul_raw(params_.q, curve_->generator()).infinity) {
    throw std::logic_error("SsGroup: generator does not have order q");
  }
}

ec::Point SsGroup::map_to_point(std::span<const std::uint8_t> data) const {
  return hash_to_subgroup(params_, *curve_, data);
}

ec::Point SsGroup::map_to_point(std::string_view label) const {
  return map_to_point(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
}

}  // namespace idgka::pairing
