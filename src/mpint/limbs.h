// Fixed-width limb-vector helpers shared by the Montgomery kernels
// (montgomery.cpp), ModContext (mod_context.cpp) and the binary-GCD kernel
// (bingcd.cpp). Internal to mpint: every pointer references k little-endian
// limbs.
#pragma once

#include <cstddef>
#include <cstring>

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

/// Conditional final subtraction of a Montgomery product: the reduced value
/// is t[0..k) plus carry limb `hi` (0 or 1) and lies in [0, 2n); writes the
/// canonical representative to out. `out` may alias anything but `t`.
inline void reduce_once(const Limb* t, Limb hi, const Limb* n, std::size_t k, Limb* out) {
  if (hi == 0 && !geq(t, n, k)) {
    std::memcpy(out, t, k * sizeof(Limb));
    return;
  }
  sub(t, n, out, k);
}

}  // namespace idgka::mpint::limbs
