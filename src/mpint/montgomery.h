// Raw Montgomery kernels behind ModContext::mont_mul_raw / mont_sqr_raw.
// Internal to mpint (ModContext, the kernel tests and the mpint bench).
//
// Two families compute the same canonical product a*b*R^-1 mod n (and the
// same square) over k little-endian limbs:
//
//   * portable — runtime-k CIOS multiply and operand-scanning squaring with
//     a separated reduction, written over unsigned __int128; runs anywhere
//     and for any width;
//   * adx — x86-64 BMI2+ADX kernels with the limb count as a template
//     parameter: each row t[0..k) += x*y[0..k) is one inline-asm block of
//     mulx plus two independent carry chains (adcx on CF, adox on OF),
//     fully unrolled. Instantiated for 1..Residue::kInlineLimbs limbs.
//
// ModContext picks one family per context at construction (select): adx
// when the host is x86-64 with BMI2 and ADX and the modulus fits the inline
// Residue, portable otherwise. A Montgomery product's canonical result is
// unique, so the choice never changes an output.
#pragma once

#include <cstddef>

#include "mpint/bigint.h"

namespace idgka::mpint::mont {

using Limb = BigInt::Limb;

/// out = a*b*R^-1 mod n, with a, b < n and R = 2^(64k); n0 = -n^-1 mod 2^64.
/// `out` may alias a or b; `scratch` holds at least 2k + 2 limbs and
/// aliases nothing else.
using MulFn = void (*)(const Limb* a, const Limb* b, Limb* out, Limb* scratch,
                       const Limb* n, Limb n0, std::size_t k);
/// out = a*a*R^-1 mod n, under the same contract as MulFn.
using SqrFn = void (*)(const Limb* a, Limb* out, Limb* scratch, const Limb* n, Limb n0,
                       std::size_t k);

struct Kernels {
  const char* family = nullptr;  ///< "portable" or "adx"
  MulFn mul = nullptr;
  SqrFn sqr = nullptr;
};

/// The portable family (any k >= 1).
[[nodiscard]] Kernels portable();

/// True on x86-64 hosts whose CPU reports BMI2 and ADX (checked once).
[[nodiscard]] bool adx_supported();

/// The adx family for k limbs, without the CPU check; every member is null
/// when k is 0 or wider than Residue::kInlineLimbs, or off x86-64.
[[nodiscard]] Kernels adx(std::size_t k);

/// The family ModContext runs for a k-limb odd modulus.
[[nodiscard]] Kernels select(std::size_t k);

}  // namespace idgka::mpint::mont
