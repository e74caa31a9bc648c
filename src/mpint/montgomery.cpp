#include "mpint/montgomery.h"

#include <array>
#include <cstring>
#include <utility>

#include "mpint/limbs.h"
#include "mpint/residue.h"

namespace idgka::mpint::mont {

namespace {

using u128 = unsigned __int128;

// ------------------------------------------------------------- portable

void portable_mul(const Limb* a, const Limb* b, Limb* out, Limb* scratch, const Limb* n_in,
                  Limb n0, std::size_t k) {
  // CIOS (coarsely integrated operand scanning), Koc et al.
  // scratch never aliases the operands and the modulus is never written, so
  // the restrict qualifiers let stores to t keep a/b/n limbs in registers.
  Limb* __restrict t = scratch;  // k + 2 limbs used
  std::memset(t, 0, (k + 2) * sizeof(Limb));
  const Limb* __restrict n = n_in;
  for (std::size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    u128 s = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<Limb>(s);
    t[k + 1] = static_cast<Limb>(s >> 64);

    // m = t[0] * n0 mod 2^64; t += m * n; t >>= 64
    const Limb m = t[0] * n0;
    s = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<Limb>(s >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      s = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    s = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(s);
    t[k] = t[k + 1] + static_cast<Limb>(s >> 64);
    t[k + 1] = 0;
  }
  limbs::reduce_once(t, t[k], n, k, out);
}

void portable_sqr(const Limb* a, Limb* out, Limb* scratch, const Limb* n_in, Limb n0,
                  std::size_t k) {
  // Operand-scanning squaring: compute the off-diagonal products once,
  // double them, add the diagonal, then run a separated (SOS) Montgomery
  // reduction over the double-width result. Versus the general CIOS product
  // this trades 2k^2 limb multiplications for ~1.5k^2 + k.
  Limb* __restrict t = scratch;  // 2k + 2 limbs used
  const Limb* __restrict n = n_in;

  // Off-diagonal cross products a[i]*a[j], j > i. Row 0 writes t[1 .. k-1]
  // fresh (nothing to accumulate — skipping the reads also makes the
  // full-width memset unnecessary); row i >= 1 accumulates into t[2i+1 ..
  // i+k-1], all written by earlier rows, and its final carry lands in
  // t[i+k] — untouched so far, so a plain store suffices.
  {
    const Limb a0 = a[0];
    Limb carry = 0;
    for (std::size_t j = 1; j < k; ++j) {
      const u128 s = static_cast<u128>(a0) * a[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    t[k] = carry;
  }
  for (std::size_t i = 1; i + 1 < k; ++i) {
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = i + 1; j < k; ++j) {
      const u128 s = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    t[i + k] = carry;
  }
  // The rows above covered t[1 .. 2k-2]; only these four were never written.
  t[0] = 0;
  t[2 * k - 1] = 0;
  t[2 * k] = 0;
  t[2 * k + 1] = 0;

  // Each cross product appears twice in the square: double the partial sum
  // (one-bit left shift — cross terms occupy t[1 .. 2k-2], so nothing
  // shifts out of t[2k-1]) and add the diagonal a[i]^2 terms, fused into a
  // single pass over even/odd limb pairs. a^2 < n^2 fits in 2k limbs, so
  // both the final shift bit and the final diagonal carry are zero.
  Limb top_bit = 0;
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    Limb lo = t[2 * i];
    const Limb lo_top = lo >> 63;
    lo = (lo << 1) | top_bit;
    Limb hi = t[2 * i + 1];
    top_bit = hi >> 63;
    hi = (hi << 1) | lo_top;
    u128 s = static_cast<u128>(a[i]) * a[i] + lo + carry;
    t[2 * i] = static_cast<Limb>(s);
    s = static_cast<u128>(hi) + static_cast<Limb>(s >> 64);
    t[2 * i + 1] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }

  // Separated Montgomery reduction: k rounds of t += (t[i] * n' mod 2^64)
  // * n << 64i, each zeroing limb i; the reduced value is t / R = t[k ..
  // 2k]. Round i's carry lands at t[i+k], and any overflow there belongs at
  // t[i+k+1] — exactly round i+1's carry position — so a single held limb
  // forwards it without the data-dependent ripple walk (and its
  // mispredicted branch) a generic SOS loop needs.
  Limb hold = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb m = t[i] * n0;
    Limb c = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(m) * n[j] + t[i + j] + c;
      t[i + j] = static_cast<Limb>(s);
      c = static_cast<Limb>(s >> 64);
    }
    const u128 s = static_cast<u128>(t[i + k]) + c + hold;
    t[i + k] = static_cast<Limb>(s);
    hold = static_cast<Limb>(s >> 64);
  }
  // The running total stays below 2 R^2, so the final hold stops at t[2k].
  t[2 * k] += hold;
  limbs::reduce_once(t + k, t[2 * k], n, k, out);
}

// ------------------------------------------------------------------ adx
//
// Every block below is one asm statement whose limb count is an immediate
// operand, so `.rept` unrolls it and `.Lj` (an assembler symbol re-set per
// limb) forms each displacement. A row keeps two carry chains in flight:
// adcx (CF) folds in the limb already in t, adox (OF) the high half of the
// previous limb's product. mulx leaves the flags alone, and mov never
// touches them, so both chains run the whole row without a break. The high
// halves alternate between h0 and h1 by limb parity: limb j's high half is
// still pending while limb j+1's product is formed.

#if defined(__x86_64__)

// t[0..L) += rdx * y[0..L) for an L-limb operand (at least one limb); the
// last high half stays pending in h1 (L odd) or h0 (L even), and the two
// chains' carries stay in CF and OF. rdx holds the multiplier and both
// flags are clear on entry. STORE0 = 0 skips writing limb 0 (a reduction
// row, whose limb 0 becomes zero and is never read again). SAVE runs right
// after limb SAVE_J's sum is formed in lo, so a caller can keep that limb
// in a register for the next step instead of reloading it from t.
#define IDGKA_ADX_ROW(Y, T, L, STORE0, SAVE_J, SAVE) \
  ".set .Lj, 0\n\t"                          \
  ".rept " L "\n\t"                          \
  ".if (.Lj & 1) == 0\n\t"                   \
  "mulx 8*.Lj(" Y "), %[lo], %[h1]\n\t"      \
  "adcx 8*.Lj(" T "), %[lo]\n\t"             \
  ".if .Lj != 0\n\t"                         \
  "adox %[h0], %[lo]\n\t"                    \
  ".endif\n\t"                               \
  ".else\n\t"                                \
  "mulx 8*.Lj(" Y "), %[lo], %[h0]\n\t"      \
  "adcx 8*.Lj(" T "), %[lo]\n\t"             \
  "adox %[h1], %[lo]\n\t"                    \
  ".endif\n\t"                               \
  ".if .Lj == " SAVE_J "\n\t"                \
  SAVE                                       \
  ".endif\n\t"                               \
  ".if .Lj != 0 || " STORE0 "\n\t"           \
  "mov %[lo], 8*.Lj(" T ")\n\t"              \
  ".endif\n\t"                               \
  ".set .Lj, .Lj + 1\n\t"                    \
  ".endr\n\t"

// Folds the pending high half and both carries into limb L of t
// (accumulating), leaving the carry out of that limb in CF and OF.
#define IDGKA_ADX_ROW_TOP(T, L)              \
  "mov 8*" L "(" T "), %[lo]\n\t"            \
  ".if (" L " & 1)\n\t"                      \
  "adcx %[h1], %[lo]\n\t"                    \
  ".else\n\t"                                \
  "adcx %[h0], %[lo]\n\t"                    \
  ".endif\n\t"                               \
  "adox %[z], %[lo]\n\t"                     \
  "mov %[lo], 8*" L "(" T ")\n\t"

// One CIOS iteration on the sliding window t = T + i: t[0..K] += ai * b,
// then t[0..K] += m * n with m = t[0] * n0 (zeroing t[0]), and the carry
// out of both rows lands in t[K+1], a limb no earlier iteration wrote.
template <std::size_t K>
inline void adx_mul_step(Limb* t, Limb ai, const Limb* b, const Limb* n, Limb n0) {
  Limb lo = 0, h0 = 0, h1 = 0, z = 0, c = 0, m = 0;
  asm volatile(
      "mov %[ai], %%rdx\n\t"
      "xor %k[z], %k[z]\n\t"
      IDGKA_ADX_ROW("%[b]", "%[t]", "%c[K]", "1", "0", "mov %[lo], %[m]\n\t")
      IDGKA_ADX_ROW_TOP("%[t]", "%c[K]")
      "mov %[z], %[c]\n\t"
      "adcx %[z], %[c]\n\t"
      "adox %[z], %[c]\n\t"
      "mov %[m], %%rdx\n\t"
      "imul %[n0], %%rdx\n\t"
      "xor %k[z], %k[z]\n\t"
      IDGKA_ADX_ROW("%[n]", "%[t]", "%c[K]", "0", "-1", "")
      IDGKA_ADX_ROW_TOP("%[t]", "%c[K]")
      "adcx %[z], %[c]\n\t"
      "adox %[z], %[c]\n\t"
      "mov %[c], 8*%c[K]+8(%[t])\n\t"
      : [lo] "=&r"(lo), [h0] "=&r"(h0), [h1] "=&r"(h1), [z] "=&r"(z), [c] "=&r"(c),
        [m] "=&r"(m)
      : [t] "r"(t), [b] "r"(b), [n] "r"(n), [ai] "rm"(ai), [n0] "rm"(n0), [K] "i"(K)
      : "rdx", "cc", "memory");
}

// Squaring cross row: t[0..L) += x * y[0..L) (or t[0..L) = x * y[0..L)
// when kFresh), and the carry out is stored to t[L], which no earlier row
// wrote.
template <std::size_t L, bool kFresh>
inline void adx_cross_row(Limb* t, const Limb* y, Limb x) {
  Limb lo = 0, h0 = 0, h1 = 0, z = 0;
  if constexpr (kFresh) {
    asm volatile(
        "mov %[x], %%rdx\n\t"
        "xor %k[z], %k[z]\n\t"
        ".set .Lj, 0\n\t"
        ".rept %c[L]\n\t"
        ".if (.Lj & 1) == 0\n\t"
        "mulx 8*.Lj(%[y]), %[lo], %[h1]\n\t"
        ".if .Lj != 0\n\t"
        "adcx %[h0], %[lo]\n\t"
        ".endif\n\t"
        ".else\n\t"
        "mulx 8*.Lj(%[y]), %[lo], %[h0]\n\t"
        "adcx %[h1], %[lo]\n\t"
        ".endif\n\t"
        "mov %[lo], 8*.Lj(%[t])\n\t"
        ".set .Lj, .Lj + 1\n\t"
        ".endr\n\t"
        ".if (%c[L] & 1)\n\t"
        "adcx %[z], %[h1]\n\t"
        "mov %[h1], 8*%c[L](%[t])\n\t"
        ".else\n\t"
        "adcx %[z], %[h0]\n\t"
        "mov %[h0], 8*%c[L](%[t])\n\t"
        ".endif\n\t"
        : [lo] "=&r"(lo), [h0] "=&r"(h0), [h1] "=&r"(h1), [z] "=&r"(z)
        : [t] "r"(t), [y] "r"(y), [x] "rm"(x), [L] "i"(L)
        : "rdx", "cc", "memory");
  } else {
    asm volatile(
        "mov %[x], %%rdx\n\t"
        "xor %k[z], %k[z]\n\t"
        IDGKA_ADX_ROW("%[y]", "%[t]", "%c[L]", "1", "-1", "")
        ".if (%c[L] & 1)\n\t"
        "adcx %[z], %[h1]\n\t"
        "adox %[z], %[h1]\n\t"
        "mov %[h1], 8*%c[L](%[t])\n\t"
        ".else\n\t"
        "adcx %[z], %[h0]\n\t"
        "adox %[z], %[h0]\n\t"
        "mov %[h0], 8*%c[L](%[t])\n\t"
        ".endif\n\t"
        : [lo] "=&r"(lo), [h0] "=&r"(h0), [h1] "=&r"(h1), [z] "=&r"(z)
        : [t] "r"(t), [y] "r"(y), [x] "rm"(x), [L] "i"(L)
        : "rdx", "cc", "memory");
  }
}

// t[0..2K) = 2 * t + sum a[j]^2 * 2^(128 j) in one pass: adcx doubles each
// limb through CF (x + x + CF shifts the top bit into the next limb), adox
// adds the diagonal squares through OF. t[0] and t[2K-1] are read as zero:
// the cross rows never write them.
template <std::size_t K>
inline void adx_double_add_diagonal(Limb* t, const Limb* a) {
  Limb lo = 0, hi = 0, x0 = 0, x1 = 0, z = 0;
  asm volatile(
      "xor %k[z], %k[z]\n\t"
      ".set .Lj, 0\n\t"
      ".rept %c[K]\n\t"
      "mov 8*.Lj(%[a]), %%rdx\n\t"
      "mulx %%rdx, %[lo], %[hi]\n\t"
      ".if .Lj == 0\n\t"
      "mov %[z], %[x0]\n\t"
      ".else\n\t"
      "mov 16*.Lj(%[t]), %[x0]\n\t"
      ".endif\n\t"
      ".if .Lj == %c[K] - 1\n\t"
      "mov %[z], %[x1]\n\t"
      ".else\n\t"
      "mov 16*.Lj+8(%[t]), %[x1]\n\t"
      ".endif\n\t"
      "adcx %[x0], %[x0]\n\t"
      "adcx %[x1], %[x1]\n\t"
      "adox %[lo], %[x0]\n\t"
      "adox %[hi], %[x1]\n\t"
      "mov %[x0], 16*.Lj(%[t])\n\t"
      "mov %[x1], 16*.Lj+8(%[t])\n\t"
      ".set .Lj, .Lj + 1\n\t"
      ".endr\n\t"
      : [lo] "=&r"(lo), [hi] "=&r"(hi), [x0] "=&r"(x0), [x1] "=&r"(x1), [z] "=&r"(z)
      : [t] "r"(t), [a] "r"(a), [K] "i"(K)
      : "rdx", "cc", "memory");
}

// One separated-reduction round on t = T + i: t[0..K] += m * n, where
// m = t[0] * n0 on entry, plus the carry c from the previous round at t[K].
// Returns the carry out of t[K], which belongs at the next round's t[K],
// and leaves the next round's multiplier t[1] * n0 in m; taking t[1] from
// the register spares the next round a store-to-load round trip on its
// critical path.
template <std::size_t K>
inline Limb adx_reduce_row(Limb* t, const Limb* n, Limb n0, Limb& m, Limb c) {
  Limb lo = 0, h0 = 0, h1 = 0, z = 0;
  asm volatile(
      "mov %[m], %%rdx\n\t"
      "xor %k[z], %k[z]\n\t"
      IDGKA_ADX_ROW("%[n]", "%[t]", "%c[K]", "0", "1", "mov %[lo], %[m]\n\t")
      "mov 8*%c[K](%[t]), %[lo]\n\t"
      ".if (%c[K] & 1)\n\t"
      "adcx %[h1], %[lo]\n\t"
      ".else\n\t"
      "adcx %[h0], %[lo]\n\t"
      ".endif\n\t"
      "adox %[c], %[lo]\n\t"
      "mov %[lo], 8*%c[K](%[t])\n\t"
      "mov %[z], %[c]\n\t"
      "adcx %[z], %[c]\n\t"
      "adox %[z], %[c]\n\t"
      "imul %[n0], %[m]\n\t"
      : [lo] "=&r"(lo), [h0] "=&r"(h0), [h1] "=&r"(h1), [z] "=&r"(z), [c] "+&r"(c),
        [m] "+&r"(m)
      : [t] "r"(t), [n] "r"(n), [n0] "rm"(n0), [K] "i"(K)
      : "rdx", "cc", "memory");
  return c;
}

// out = hi:t[0..K) - n when that is non-negative, else t[0..K): the
// subtraction is written to out, then a cmov pass on the final borrow puts
// t back — no branch on the operand value. out never aliases t.
template <std::size_t K>
inline void adx_reduce_once(const Limb* t, Limb hi, const Limb* n, Limb* out) {
  Limb x = 0;
  asm volatile(
      ".set .Lj, 0\n\t"
      ".rept %c[K]\n\t"
      "mov 8*.Lj(%[t]), %[x]\n\t"
      ".if .Lj == 0\n\t"
      "sub (%[n]), %[x]\n\t"
      ".else\n\t"
      "sbb 8*.Lj(%[n]), %[x]\n\t"
      ".endif\n\t"
      "mov %[x], 8*.Lj(%[out])\n\t"
      ".set .Lj, .Lj + 1\n\t"
      ".endr\n\t"
      "sbb $0, %[hi]\n\t"
      ".set .Lj, 0\n\t"
      ".rept %c[K]\n\t"
      "mov 8*.Lj(%[out]), %[x]\n\t"
      "cmovc 8*.Lj(%[t]), %[x]\n\t"
      "mov %[x], 8*.Lj(%[out])\n\t"
      ".set .Lj, .Lj + 1\n\t"
      ".endr\n\t"
      : [x] "=&r"(x), [hi] "+&r"(hi)
      : [t] "r"(t), [n] "r"(n), [out] "r"(out), [K] "i"(K)
      : "cc", "memory");
}

#undef IDGKA_ADX_ROW
#undef IDGKA_ADX_ROW_TOP

template <std::size_t K>
void adx_mul(const Limb* a, const Limb* b, Limb* out, Limb* scratch, const Limb* n, Limb n0,
             std::size_t /*k*/) {
  // Iteration i works on the window scratch[i .. i+K+1]; the reduced value
  // ends in scratch[K .. 2K], so nothing is shifted.
  std::memset(scratch, 0, (K + 1) * sizeof(Limb));
  for (std::size_t i = 0; i < K; ++i) adx_mul_step<K>(scratch + i, a[i], b, n, n0);
  adx_reduce_once<K>(scratch + K, scratch[2 * K], n, out);
}

template <std::size_t K>
void adx_sqr(const Limb* a, Limb* out, Limb* scratch, const Limb* n, Limb n0,
             std::size_t /*k*/) {
  // Same layout as portable_sqr: cross rows into t[1 .. 2K-2], doubling and
  // diagonal in one pass, then K reduction rounds with the carry passed
  // along in a register.
  Limb* t = scratch;
  if constexpr (K > 1) {
    adx_cross_row<K - 1, true>(t + 1, a + 1, a[0]);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      // Row i = I + 1 covers a[i+1 .. K) into t[2i+1 ..], its carry at t[i+K].
      (adx_cross_row<K - 2 - I, false>(t + 2 * I + 3, a + I + 2, a[I + 1]), ...);
    }(std::make_index_sequence<K - 2>{});
  }
  adx_double_add_diagonal<K>(t, a);
  Limb c = 0;
  Limb m = t[0] * n0;
  for (std::size_t i = 0; i < K; ++i) c = adx_reduce_row<K>(t + i, n, n0, m, c);
  adx_reduce_once<K>(t + K, c, n, out);
}

template <std::size_t... I>
constexpr std::array<Kernels, sizeof...(I)> adx_table(std::index_sequence<I...>) {
  return {Kernels{"adx", &adx_mul<I + 1>, &adx_sqr<I + 1>}...};
}

constexpr auto kAdxKernels = adx_table(std::make_index_sequence<Residue::kInlineLimbs>{});

#endif  // __x86_64__

}  // namespace

Kernels portable() { return Kernels{"portable", &portable_mul, &portable_sqr}; }

bool adx_supported() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
  }();
  return supported;
#else
  return false;
#endif
}

Kernels adx(std::size_t k) {
#if defined(__x86_64__)
  if (k >= 1 && k <= kAdxKernels.size()) return kAdxKernels[k - 1];
#else
  (void)k;
#endif
  return Kernels{};
}

Kernels select(std::size_t k) {
  const Kernels fast = adx_supported() ? adx(k) : Kernels{};
  return fast.mul != nullptr ? fast : portable();
}

}  // namespace idgka::mpint::mont
