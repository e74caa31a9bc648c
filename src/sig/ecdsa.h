// ECDSA (ANSI X9.62 / FIPS 186) — the paper's "BD with 160-bit ECDSA"
// certificate-based baseline, on secp160r1 by default.
#pragma once

#include <cstdint>
#include <span>

#include "ec/curve.h"
#include "mpint/random.h"

namespace idgka::sig {

using mpint::BigInt;

struct EcdsaKeyPair {
  BigInt d;      ///< private scalar in [1, n)
  ec::Point q;   ///< public point d*G
};

struct EcdsaSignature {
  BigInt r;
  BigInt s;
};

[[nodiscard]] EcdsaKeyPair ecdsa_generate_keypair(const ec::Curve& curve, mpint::Rng& rng);

[[nodiscard]] EcdsaSignature ecdsa_sign(const ec::Curve& curve, const EcdsaKeyPair& key,
                                        std::span<const std::uint8_t> message,
                                        mpint::Rng& rng);

[[nodiscard]] bool ecdsa_verify(const ec::Curve& curve, const ec::Point& pub,
                                std::span<const std::uint8_t> message,
                                const EcdsaSignature& sig);

/// Same, against a comb table of the public key (Curve::make_fixed_base) —
/// the shape of a CA verifying the certificates it issued.
[[nodiscard]] bool ecdsa_verify(const ec::Curve& curve, const ec::FixedBase& pub,
                                std::span<const std::uint8_t> message,
                                const EcdsaSignature& sig);

/// Wire size: r and s at |n| bits each (paper treats them as 2 x 160).
[[nodiscard]] std::size_t ecdsa_signature_bits(const ec::Curve& curve);

}  // namespace idgka::sig
