#include "sig/ecdsa.h"

#include "hash/sha256.h"

namespace idgka::sig {

namespace {

BigInt message_digest(const BigInt& n, std::span<const std::uint8_t> message) {
  const auto digest = hash::Sha256::digest(message);
  BigInt z = BigInt::from_bytes_be(digest);
  const std::size_t nbits = n.bit_length();
  if (z.bit_length() > nbits) z >>= (z.bit_length() - nbits);
  return z;
}

}  // namespace

EcdsaKeyPair ecdsa_generate_keypair(const ec::Curve& curve, mpint::Rng& rng) {
  EcdsaKeyPair kp;
  kp.d = mpint::random_range(rng, BigInt{1}, curve.order());
  kp.q = curve.mul(kp.d, curve.generator_table());
  return kp;
}

EcdsaSignature ecdsa_sign(const ec::Curve& curve, const EcdsaKeyPair& key,
                          std::span<const std::uint8_t> message, mpint::Rng& rng) {
  const BigInt& n = curve.order();
  const BigInt z = message_digest(n, message);
  while (true) {
    const BigInt k = mpint::random_range(rng, BigInt{1}, n);
    const ec::Point kg = curve.mul(k, curve.generator_table());
    const BigInt r = kg.x.mod(n);
    if (r.is_zero()) continue;
    const BigInt s =
        mpint::mod_mul(mpint::mod_inverse(k, n), (z + key.d * r).mod(n), n);
    if (s.is_zero()) continue;
    return EcdsaSignature{r, s};
  }
}

namespace {

// Shared by both verify forms: range-checks (r, s), then accepts when
// x(u1*G + u2*Q) == r mod n. `pub` is Q itself or its comb table.
template <typename Key>
bool verify_with(const ec::Curve& curve, const Key& pub, std::span<const std::uint8_t> message,
                 const EcdsaSignature& sig) {
  const BigInt& n = curve.order();
  if (sig.r <= BigInt{} || sig.r >= n || sig.s <= BigInt{} || sig.s >= n) return false;
  const BigInt z = message_digest(n, message);
  const BigInt w = mpint::mod_inverse(sig.s, n);
  const BigInt u1 = mpint::mod_mul(z, w, n);
  const BigInt u2 = mpint::mod_mul(sig.r, w, n);
  const ec::Point pt = curve.mul_add(u1, u2, pub);
  if (pt.infinity) return false;
  return pt.x.mod(n) == sig.r;
}

}  // namespace

bool ecdsa_verify(const ec::Curve& curve, const ec::Point& pub,
                  std::span<const std::uint8_t> message, const EcdsaSignature& sig) {
  if (pub.infinity || !curve.is_on_curve(pub)) return false;
  return verify_with(curve, pub, message, sig);
}

bool ecdsa_verify(const ec::Curve& curve, const ec::FixedBase& pub,
                  std::span<const std::uint8_t> message, const EcdsaSignature& sig) {
  if (pub.base().infinity) return false;
  return verify_with(curve, pub, message, sig);
}

std::size_t ecdsa_signature_bits(const ec::Curve& curve) {
  return 2 * curve.order().bit_length();
}

}  // namespace idgka::sig
