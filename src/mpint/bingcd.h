// Binary GCD kernel on raw limbs — the library's one gcd and modular
// inversion algorithm for odd moduli.
//
// Pornin's optimized binary GCD ("Optimized Binary GCD for Modular
// Inversion", IACR ePrint 2020/972): each outer round runs 31 binary-GCD
// steps on 64-bit approximations of (a, b) — their low 31 bits plus their
// top 33 bits — collecting the steps into a 2x2 matrix of signed factors,
// then applies that matrix to the full-width (a, b) with one pass of
// 64x64-bit multiply-adds. For inversion the same matrix is applied to the
// Bezout coefficients (u, v), with the division by 2^31 done modulo m
// Montgomery-style, so the invariants a == u*y and b == v*y (mod m) hold
// exactly every round and v is y^-1 when the loop ends. The loop stops when
// a reaches zero, within ceil((2*bitlen - 1) / 31) rounds for operands of
// at most bitlen bits.
//
// Shifts, 64-bit multiplies and in-place limb passes only: no division, no
// heap traffic. Both entry points are variable-time: the round count and
// the inner steps depend on the operands, as they did in the Euclid loops
// this kernel replaced.
#pragma once

#include <cstddef>

#include "mpint/bigint.h"

namespace idgka::mpint {

/// Limbs of caller scratch bingcd_inverse needs for a k-limb modulus.
constexpr std::size_t bingcd_scratch_limbs(std::size_t k) { return 3 * k; }

/// Replaces b with gcd(a, b) and a with zero. `a` and `b` are k-limb
/// little-endian magnitudes (k >= 1); b must be odd. Returns the number of
/// outer rounds run (each one 31 binary-GCD steps).
std::size_t bingcd(BigInt::Limb* a, BigInt::Limb* b, std::size_t k);

/// out = y^-1 mod m for an odd k-limb modulus m and a k-limb y < m. Returns
/// false, leaving `out` unspecified, when gcd(y, m) != 1 (y == 0 included,
/// except that m == 1 gives out = 0). `scratch` must hold
/// bingcd_scratch_limbs(k) limbs; `out` may alias y but nothing else.
bool bingcd_inverse(const BigInt::Limb* y, const BigInt::Limb* m, std::size_t k,
                    BigInt::Limb* out, BigInt::Limb* scratch);

}  // namespace idgka::mpint
