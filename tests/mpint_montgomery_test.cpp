// Tests for Montgomery arithmetic (ModContext over odd moduli) against
// naive references, and for prime/parameter generation.
#include <gtest/gtest.h>

#include "mpint/mod_context.h"
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
