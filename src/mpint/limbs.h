// Fixed-width limb-vector helpers shared by the Montgomery kernels
// (mod_context.cpp) and the binary-GCD kernel (bingcd.cpp). Internal to
// mpint: every pointer references k little-endian limbs.
#pragma once

#include <cstddef>

#include "mpint/bigint.h"

namespace idgka::mpint::limbs {

using Limb = BigInt::Limb;

/// -n^{-1} mod 2^64 via Newton iteration (n odd).
inline Limb neg_inv64(Limb n) {
  Limb x = n;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) x *= 2 - n * x;
  return ~x + 1;  // -(n^{-1})
}

/// out = a + b; returns the carry out. out may alias a or b.
inline Limb add(const Limb* a, const Limb* b, Limb* out, std::size_t k) {
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const unsigned __int128 s = static_cast<unsigned __int128>(a[i]) + b[i] + carry;
    out[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
  return carry;
}

/// out = a - b; returns the borrow out. out may alias a or b.
inline Limb sub(const Limb* a, const Limb* b, Limb* out, std::size_t k) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ai = a[i];
    const Limb bi = b[i];
    out[i] = ai - bi - borrow;
    borrow = (ai < bi || (ai == bi && borrow != 0)) ? 1 : 0;
  }
  return borrow;
}

/// a >= b.
inline bool geq(const Limb* a, const Limb* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

}  // namespace idgka::mpint::limbs
