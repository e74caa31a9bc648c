// Tests for Montgomery arithmetic (ModContext over odd moduli and the raw
// kernel families behind it) against naive references, and for
// prime/parameter generation.
#include <gtest/gtest.h>

#include <vector>

#include "mpint/limbs.h"
#include "mpint/mod_context.h"
#include "mpint/montgomery.h"
#include "mpint/prime.h"
#include "mpint/random.h"

namespace idgka::mpint {
namespace {

TEST(Montgomery, MulMatchesNaive) {
  XoshiroRng rng(11);
  for (int i = 0; i < 20; ++i) {
    BigInt m = random_bits(rng, 64 + static_cast<std::size_t>(i) * 64);
    if (m.is_even()) m += BigInt{1};
    const ModContext ctx(m);
    for (int j = 0; j < 10; ++j) {
      const BigInt a = random_below(rng, m);
      const BigInt b = random_below(rng, m);
      EXPECT_EQ(ctx.mul(a, b), mod_mul(a, b, m));
    }
  }
}

TEST(Montgomery, PowMatchesSquareAndMultiply) {
  XoshiroRng rng(13);
  for (int i = 0; i < 10; ++i) {
    BigInt m = random_bits(rng, 256);
    if (m.is_even()) m += BigInt{1};
    const ModContext ctx(m);
    const BigInt base = random_below(rng, m);
    const BigInt exp = random_bits(rng, 100);
    // Naive reference.
    BigInt want{1};
    for (std::size_t b = exp.bit_length(); b-- > 0;) {
      want = mod_mul(want, want, m);
      if (exp.bit(b)) want = mod_mul(want, base, m);
    }
    EXPECT_EQ(ctx.exp(base, exp), want);
  }
}

TEST(Montgomery, PowEdgeCases) {
  const ModContext ctx(BigInt{101});
  EXPECT_EQ(ctx.exp(BigInt{5}, BigInt{0}), BigInt{1});
  EXPECT_EQ(ctx.exp(BigInt{5}, BigInt{1}), BigInt{5});
  EXPECT_EQ(ctx.exp(BigInt{0}, BigInt{5}), BigInt{});
  EXPECT_EQ(ctx.exp(BigInt{100}, BigInt{2}), BigInt{1});  // (-1)^2
}

TEST(Montgomery, PowExponentLaws) {
  XoshiroRng rng(17);
  BigInt m = random_bits(rng, 512);
  if (m.is_even()) m += BigInt{1};
  const ModContext ctx(m);
  const BigInt g = random_below(rng, m);
  const BigInt a = random_bits(rng, 128);
  const BigInt b = random_bits(rng, 128);
  // g^(a+b) == g^a * g^b
  EXPECT_EQ(ctx.exp(g, a + b), ctx.mul(ctx.exp(g, a), ctx.exp(g, b)));
  // (g^a)^b == (g^b)^a
  EXPECT_EQ(ctx.exp(ctx.exp(g, a), b), ctx.exp(ctx.exp(g, b), a));
}

// ------------------------------------------------- raw kernel cross-check

using Limb = BigInt::Limb;

// The CPU check, written out independently of mont::adx_supported().
bool host_has_bmi2_adx() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
#else
  return false;
#endif
}

// Every kernel family this host can run at width k: the portable one
// always, the adx one when the CPU has it and k fits the inline Residue.
std::vector<mont::Kernels> runnable_families(std::size_t k) {
  std::vector<mont::Kernels> out{mont::portable()};
  if (mont::adx_supported() && mont::adx(k).mul != nullptr) out.push_back(mont::adx(k));
  return out;
}

std::vector<Limb> to_limbs(const BigInt& v, std::size_t k) {
  std::vector<Limb> out(k);
  v.copy_limbs_to(out.data(), k);
  return out;
}

TEST(MontgomeryKernels, SelectedFamilyMatchesCpuCheck) {
  const bool adx = host_has_bmi2_adx();
  EXPECT_EQ(mont::adx_supported(), adx);
  for (std::size_t k = 1; k <= Residue::kInlineLimbs + 1; ++k) {
    const bool want_adx = adx && k <= Residue::kInlineLimbs;
    EXPECT_STREQ(mont::select(k).family, want_adx ? "adx" : "portable") << k;
  }
  EXPECT_STREQ(mont::portable().family, "portable");
  EXPECT_EQ(mont::adx(0).mul, nullptr);
  EXPECT_EQ(mont::adx(Residue::kInlineLimbs + 1).mul, nullptr);
}

// Each family's mul and sqr at 1..33 limbs against the BigInt reference
// a*b*R^-1 mod n, with out aliasing a, b or both. 33 limbs spills to the
// heap Residue, where only the portable family runs.
TEST(MontgomeryKernels, EveryFamilyMatchesBigIntReference) {
  XoshiroRng rng(29);
  for (std::size_t k = 1; k <= Residue::kInlineLimbs + 1; ++k) {
    const BigInt r = BigInt{1} << (64 * k);
    // A random k-limb modulus, one whose top limb is all ones (the top
    // carry and the final subtraction fire most often), and one whose top
    // limb is 2 (n far below R).
    BigInt rand_n = random_bits(rng, 64 * k);
    if (rand_n.is_even()) rand_n += BigInt{1};
    const std::vector<BigInt> moduli{rand_n, r - BigInt{59},
                                     (BigInt{1} << (64 * k - 63)) + BigInt{3}};
    for (const BigInt& n : moduli) {
      ASSERT_EQ(n.limb_count(), k);
      ASSERT_TRUE(n.is_odd());
      const std::vector<Limb> nl = to_limbs(n, k);
      const Limb n0 = limbs::neg_inv64(nl[0]);
      const BigInt r_inv = mod_inverse(r.mod(n), n);
      std::vector<BigInt> ops{BigInt{}, BigInt{1}, n - BigInt{1}, r.mod(n)};
      for (int i = 0; i < 4; ++i) ops.push_back(random_below(rng, n));
      for (const mont::Kernels& fam : runnable_families(k)) {
        SCOPED_TRACE(testing::Message() << fam.family << " k=" << k << " n=" << n.to_hex());
        std::vector<Limb> scratch(2 * k + 2);
        for (const BigInt& a : ops) {
          const std::vector<Limb> al = to_limbs(a, k);
          const std::vector<Limb> want_sqr = to_limbs(mod_mul(mod_mul(a, a, n), r_inv, n), k);
          std::vector<Limb> out(k);
          fam.sqr(al.data(), out.data(), scratch.data(), nl.data(), n0, k);
          EXPECT_EQ(out, want_sqr) << "sqr a=" << a.to_hex();
          std::vector<Limb> in_place = al;  // out == a
          fam.sqr(in_place.data(), in_place.data(), scratch.data(), nl.data(), n0, k);
          EXPECT_EQ(in_place, want_sqr);
          in_place = al;  // out == a == b
          fam.mul(in_place.data(), in_place.data(), in_place.data(), scratch.data(), nl.data(),
                  n0, k);
          EXPECT_EQ(in_place, want_sqr) << "mul(a, a) a=" << a.to_hex();
          for (const BigInt& b : ops) {
            const std::vector<Limb> bl = to_limbs(b, k);
            const std::vector<Limb> want = to_limbs(mod_mul(mod_mul(a, b, n), r_inv, n), k);
            fam.mul(al.data(), bl.data(), out.data(), scratch.data(), nl.data(), n0, k);
            EXPECT_EQ(out, want) << "mul a=" << a.to_hex() << " b=" << b.to_hex();
            std::vector<Limb> into_a = al;
            fam.mul(into_a.data(), bl.data(), into_a.data(), scratch.data(), nl.data(), n0, k);
            EXPECT_EQ(into_a, want);
            std::vector<Limb> into_b = bl;
            fam.mul(al.data(), into_b.data(), into_b.data(), scratch.data(), nl.data(), n0, k);
            EXPECT_EQ(into_b, want);
          }
        }
      }
    }
  }
}

TEST(Primality, KnownSmallPrimes) {
  XoshiroRng rng(1);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 97ULL, 997ULL, 7919ULL, 104729ULL}) {
    EXPECT_TRUE(is_probable_prime(BigInt{p}, rng)) << p;
  }
  for (std::uint64_t c : {1ULL, 4ULL, 100ULL, 997ULL * 991ULL, 104729ULL * 7919ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt{c}, rng)) << c;
  }
}

TEST(Primality, KnownLargePrimeAndComposite) {
  XoshiroRng rng(2);
  // 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite (known factor 59649589127497217).
  const BigInt mersenne = (BigInt{1} << 127) - BigInt{1};
  EXPECT_TRUE(is_probable_prime(mersenne, rng));
  const BigInt fermat_like = (BigInt{1} << 128) + BigInt{1};
  EXPECT_FALSE(is_probable_prime(fermat_like, rng));
}

TEST(Primality, CarmichaelNumbersRejected) {
  XoshiroRng rng(3);
  for (std::uint64_t c : {561ULL, 1105ULL, 1729ULL, 41041ULL, 825265ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt{c}, rng)) << c;
  }
}

TEST(PrimeGen, GeneratesExactBitLength) {
  XoshiroRng rng(4);
  for (std::size_t bits : {32U, 64U, 128U, 256U}) {
    const BigInt p = generate_prime(rng, bits, 16);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, rng, 16));
  }
}

TEST(PrimeGen, SchnorrGroupStructure) {
  XoshiroRng rng(5);
  const SchnorrGroup grp = generate_schnorr_group(rng, 256, 128, 12);
  EXPECT_EQ(grp.p.bit_length(), 256U);
  EXPECT_EQ(grp.q.bit_length(), 128U);
  EXPECT_TRUE(is_probable_prime(grp.p, rng, 12));
  EXPECT_TRUE(is_probable_prime(grp.q, rng, 12));
  EXPECT_EQ((grp.p - BigInt{1}).mod(grp.q), BigInt{});
  // g has order exactly q.
  EXPECT_EQ(ModContext(grp.p).exp(grp.g, grp.q), BigInt{1});
  EXPECT_NE(grp.g, BigInt{1});
}

TEST(PrimeGen, GqModulusInverseKeys) {
  XoshiroRng rng(6);
  const GqModulus key = generate_gq_modulus(rng, 256, BigInt{65537}, 12);
  EXPECT_EQ(key.n.bit_length(), 256U);
  EXPECT_EQ(key.p_prime * key.q_prime, key.n);
  const BigInt phi = (key.p_prime - BigInt{1}) * (key.q_prime - BigInt{1});
  EXPECT_EQ(mod_mul(key.e, key.d, phi), BigInt{1});
  // RSA round trip: (x^e)^d == x mod n.
  const BigInt x = random_below(rng, key.n);
  const ModContext ctx(key.n);
  EXPECT_EQ(ctx.exp(ctx.exp(x, key.e), key.d), x);
}

TEST(PrimeGen, SupersingularParams) {
  XoshiroRng rng(7);
  const SupersingularParams params = generate_supersingular_params(rng, 256, 120, 12);
  EXPECT_EQ(params.p.bit_length(), 256U);
  EXPECT_TRUE(is_probable_prime(params.p, rng, 12));
  EXPECT_TRUE(is_probable_prime(params.q, rng, 12));
  EXPECT_EQ(params.p.low_u64() & 3U, 3U);
  EXPECT_EQ(params.cofactor * params.q, params.p + BigInt{1});
}

TEST(RandomHelpers, RangesRespected) {
  XoshiroRng rng(8);
  const BigInt lo{100};
  const BigInt hi{200};
  for (int i = 0; i < 200; ++i) {
    const BigInt v = random_range(rng, lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LT(v, hi);
  }
  for (int i = 0; i < 50; ++i) {
    const BigInt v = random_bits(rng, 65);
    EXPECT_EQ(v.bit_length(), 65U);
  }
  EXPECT_THROW(random_below(rng, BigInt{}), std::invalid_argument);
  EXPECT_THROW(random_range(rng, hi, lo), std::invalid_argument);
}

TEST(RandomHelpers, UnitIsCoprime) {
  XoshiroRng rng(9);
  const BigInt n{3 * 5 * 7 * 11 * 13};
  for (int i = 0; i < 50; ++i) {
    const BigInt u = random_unit(rng, n);
    EXPECT_TRUE(gcd(u, n).is_one());
  }
}

TEST(RandomHelpers, DeterministicUnderSeed) {
  XoshiroRng a(12345);
  XoshiroRng b(12345);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  XoshiroRng c(54321);
  bool any_diff = false;
  XoshiroRng a2(12345);
  for (int i = 0; i < 10; ++i) any_diff |= a2.next_u64() != c.next_u64();
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace idgka::mpint
