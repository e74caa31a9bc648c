// Elliptic-curve arithmetic tests: named-curve constants, group laws,
// scalar-multiplication properties, toy-curve generation, and the
// table-driven ladders (comb, wNAF, interleaved, CA table) against a
// double-and-add oracle, with deterministic field-product and heap gates.

// Interpose global operator new/delete for this binary: the steady-state
// scalar multiplications must not touch the heap.
#define IDGKA_BENCH_COUNT_ALLOCS
#include "../bench/bench_util.h"

#include "ec/curve.h"

#include <gtest/gtest.h>

#include "hash/hmac_drbg.h"
#include "mpint/prime.h"
#include "pairing/ss_curve.h"
#include "pki/certificate.h"
#include "sig/ecdsa.h"

namespace idgka::ec {
namespace {

using mpint::BigInt;

TEST(NamedCurves, Secp160r1GeneratorOnCurveAndOrder) {
  const Curve& c = secp160r1();
  EXPECT_TRUE(c.is_on_curve(c.generator()));
  EXPECT_TRUE(c.mul(c.order(), c.generator()).infinity);
  EXPECT_EQ(c.p().bit_length(), 160U);
  EXPECT_EQ(c.order().bit_length(), 161U);
  EXPECT_TRUE(mpint::is_probable_prime(c.p(), *std::make_unique<hash::HmacDrbg>(1, "pr")));
}

TEST(NamedCurves, P256GeneratorOnCurveAndOrder) {
  const Curve& c = p256();
  EXPECT_TRUE(c.is_on_curve(c.generator()));
  EXPECT_TRUE(c.mul(c.order(), c.generator()).infinity);
  EXPECT_EQ(c.p().bit_length(), 256U);
}

TEST(NamedCurves, P256KnownScalarMultiple) {
  // 2G for P-256 (public test vector).
  const Curve& c = p256();
  const Point two_g = c.mul(BigInt{2}, c.generator());
  EXPECT_EQ(two_g.x.to_hex(), "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(two_g.y.to_hex(), "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(GroupLaw, IdentityAndInverse) {
  const Curve& c = secp160r1();
  const Point g = c.generator();
  const Point inf = Point::at_infinity();
  EXPECT_EQ(c.add(g, inf), g);
  EXPECT_EQ(c.add(inf, g), g);
  EXPECT_TRUE(c.add(g, c.neg(g)).infinity);
  EXPECT_TRUE(c.is_on_curve(c.neg(g)));
}

TEST(GroupLaw, AddDblConsistency) {
  const Curve& c = secp160r1();
  const Point g = c.generator();
  EXPECT_EQ(c.add(g, g), c.dbl(g));
  const Point g2 = c.dbl(g);
  const Point g3a = c.add(g2, g);
  const Point g3b = c.add(g, g2);
  EXPECT_EQ(g3a, g3b);
  EXPECT_EQ(c.mul(BigInt{3}, g), g3a);
  EXPECT_TRUE(c.is_on_curve(g3a));
}

TEST(GroupLaw, Associativity) {
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(10, "assoc");
  const Point a = c.mul(mpint::random_below(rng, c.order()), c.generator());
  const Point b = c.mul(mpint::random_below(rng, c.order()), c.generator());
  const Point d = c.mul(mpint::random_below(rng, c.order()), c.generator());
  EXPECT_EQ(c.add(c.add(a, b), d), c.add(a, c.add(b, d)));
}

class ScalarMulProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScalarMulProperty, DistributesOverScalarAddition) {
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(static_cast<std::uint64_t>(GetParam()), "smul");
  const BigInt k1 = mpint::random_below(rng, c.order());
  const BigInt k2 = mpint::random_below(rng, c.order());
  const Point lhs = c.mul((k1 + k2).mod(c.order()), c.generator());
  const Point rhs = c.add(c.mul(k1, c.generator()), c.mul(k2, c.generator()));
  EXPECT_EQ(lhs, rhs);
  EXPECT_TRUE(c.is_on_curve(lhs));
}

TEST_P(ScalarMulProperty, MulAddMatchesSeparate) {
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(static_cast<std::uint64_t>(GetParam()) + 100, "muladd");
  const BigInt k1 = mpint::random_below(rng, c.order());
  const BigInt k2 = mpint::random_below(rng, c.order());
  const Point q = c.mul(mpint::random_below(rng, c.order()), c.generator());
  const Point lhs = c.mul_add(k1, k2, q);
  const Point rhs = c.add(c.mul(k1, c.generator()), c.mul(k2, q));
  EXPECT_EQ(lhs, rhs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalarMulProperty, ::testing::Range(1, 9));

TEST(ScalarMul, EdgeScalars) {
  const Curve& c = secp160r1();
  const Point g = c.generator();
  EXPECT_TRUE(c.mul(BigInt{}, g).infinity);
  EXPECT_EQ(c.mul(BigInt{1}, g), g);
  EXPECT_EQ(c.mul(c.order() + BigInt{1}, g), g);  // reduction mod n
  EXPECT_EQ(c.mul(BigInt{-1}, g), c.neg(g));
  EXPECT_EQ(c.mul(c.order() - BigInt{1}, g), c.neg(g));
}

TEST(ScalarMul, RawDoesNotReduce) {
  const Curve& c = secp160r1();
  const Point g = c.generator();
  // mul_raw(n + 1) should equal G as well, but computed without reduction.
  EXPECT_EQ(c.mul_raw(c.order() + BigInt{1}, g), g);
  EXPECT_TRUE(c.mul_raw(c.order(), g).infinity);
}

TEST(Curve, RejectsBogusGenerator) {
  const Curve& c = secp160r1();
  EXPECT_THROW(Curve("bad", c.p(), c.a(), c.b(),
                     Point{BigInt{1}, BigInt{2}, false}, c.order(), BigInt{1}),
               std::invalid_argument);
}

TEST(Curve, OnCurveRejectsOffCurvePoints) {
  const Curve& c = secp160r1();
  Point bogus = c.generator();
  bogus.x = (bogus.x + BigInt{1}).mod(c.p());
  EXPECT_FALSE(c.is_on_curve(bogus));
}

TEST(ToyCurve, GeneratedCurveIsSound) {
  hash::HmacDrbg rng(77, "toy");
  const Curve c = generate_toy_curve(rng, 16);
  EXPECT_TRUE(c.is_on_curve(c.generator()));
  EXPECT_TRUE(c.mul(c.order(), c.generator()).infinity);
  // Hasse bound: |#E - (p+1)| <= 2*sqrt(p).
  const BigInt p1 = c.p() + BigInt{1};
  const BigInt diff = (c.order() > p1 ? c.order() - p1 : p1 - c.order());
  EXPECT_LE(diff * diff, BigInt{4} * c.p());
  // Group law holds on the toy curve too.
  const Point g2 = c.dbl(c.generator());
  EXPECT_EQ(c.add(c.generator(), c.generator()), g2);
  EXPECT_TRUE(c.is_on_curve(g2));
}

TEST(ToyCurve, RejectsBadSizes) {
  hash::HmacDrbg rng(78, "toy2");
  EXPECT_THROW(generate_toy_curve(rng, 4), std::invalid_argument);
  EXPECT_THROW(generate_toy_curve(rng, 40), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Table-driven ladders against a double-and-add oracle built from the public
// affine add/dbl.
// ---------------------------------------------------------------------------

Point oracle_mul(const Curve& c, const BigInt& k, const Point& pt) {
  if (k.negative()) return oracle_mul(c, -k, c.neg(pt));
  Point acc = Point::at_infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = c.dbl(acc);
    if (k.bit(i)) acc = c.add(acc, pt);
  }
  return acc;
}

// The supersingular pairing curves at the kTiny (192/96) and kPaper
// (512/160) profile sizes, generated once per process.
const pairing::SsGroup& ss_group(std::size_t p_bits, std::size_t q_bits) {
  static const pairing::SsGroup tiny = [] {
    hash::HmacDrbg rng(31, "ec-ss");
    return pairing::SsGroup(mpint::generate_supersingular_params(rng, 192, 96, 16));
  }();
  static const pairing::SsGroup paper = [] {
    hash::HmacDrbg rng(32, "ec-ss");
    return pairing::SsGroup(mpint::generate_supersingular_params(rng, 512, 160, 16));
  }();
  EXPECT_TRUE((p_bits == 192 && q_bits == 96) || (p_bits == 512 && q_bits == 160));
  return p_bits == 192 ? tiny : paper;
}

const Curve& toy_curve() {
  static const Curve c = [] {
    hash::HmacDrbg rng(79, "toy-ladders");
    return generate_toy_curve(rng, 12);
  }();
  return c;
}

// Scalars that stress the recoders: 0, 1, n-1, n, n+1, negatives, and
// single and run-of-ones bits at every comb column boundary.
std::vector<BigInt> edge_scalars(const Curve& c) {
  const BigInt& n = c.order();
  const std::size_t d = (n.bit_length() + 5) / 6;
  std::vector<BigInt> ks = {BigInt{}, BigInt{1}, BigInt{2}, BigInt{15}, BigInt{16},
                            BigInt{31}, n - BigInt{1}, n, n + BigInt{1}, BigInt{-1},
                            -(n - BigInt{2}), BigInt{-12345}};
  for (std::size_t t = 0; t <= 6; ++t) {
    const BigInt edge = BigInt{1} << (t * d);
    ks.push_back(edge);
    if (t > 0) {
      ks.push_back(edge - BigInt{1});                  // ones up to the boundary
      ks.push_back(BigInt{1} << (t * d - 1));          // top bit of the column below
    }
  }
  for (std::size_t i = 0; i < ks.size(); ++i) ks[i] = ks[i].mod(n + n);  // keep mul_raw short
  ks.push_back(BigInt{-1});
  ks.push_back(-(n + BigInt{1}));
  return ks;
}

struct LadderCase {
  const char* name;
  const Curve* (*curve)();
};

void PrintTo(const LadderCase& c, std::ostream* os) { *os << c.name; }

class LadderEquivalence : public ::testing::TestWithParam<LadderCase> {};

TEST_P(LadderEquivalence, CombWnafInterleavedAndTableMatchOracle) {
  const Curve& c = *GetParam().curve();
  const BigInt& n = c.order();
  hash::HmacDrbg rng(41, GetParam().name);
  const Point& g = c.generator();
  const Point q = oracle_mul(c, mpint::random_range(rng, BigInt{1}, n), g);
  const FixedBase q_table = c.make_fixed_base(q);
  EXPECT_EQ(q_table.base(), q);
  EXPECT_EQ(q_table.table_bytes(),
            2 * 64 * c.field().limb_count() * sizeof(BigInt::Limb));

  std::vector<BigInt> ks = edge_scalars(c);
  const bool wide = c.p().bit_length() > 256;
  for (int i = 0; i < (wide ? 2 : 6); ++i) ks.push_back(mpint::random_below(rng, n));

  for (const BigInt& k : ks) {
    SCOPED_TRACE(k.to_hex());
    const BigInt kn = k.mod(n);
    const Point kg = oracle_mul(c, kn, g);
    const Point kq = oracle_mul(c, kn, q);
    EXPECT_EQ(c.mul(k, g), kg);                  // G's comb
    EXPECT_EQ(c.mul(k, c.generator_table()), kg);
    EXPECT_EQ(c.mul(k, q_table), kq);            // CA-style table
    EXPECT_EQ(c.mul(k, q), kq);                  // wNAF after reduction
    EXPECT_EQ(c.mul_raw(k, q), oracle_mul(c, k, q));  // wNAF, unreduced
    const BigInt k2 = (k * BigInt{7} + BigInt{3}).mod(n);
    const Point expect = c.add(kg, oracle_mul(c, k2, q));
    EXPECT_EQ(c.mul_add(k, k2, q), expect);        // comb interleaved into wNAF
    EXPECT_EQ(c.mul_add(k, k2, q_table), expect);  // comb + comb
  }
}

const Curve* secp160r1_case() { return &secp160r1(); }
const Curve* p256_case() { return &p256(); }
const Curve* ss_tiny_case() { return &ss_group(192, 96).curve(); }
const Curve* ss_paper_case() { return &ss_group(512, 160).curve(); }
const Curve* toy_case() { return &toy_curve(); }

INSTANTIATE_TEST_SUITE_P(Curves, LadderEquivalence,
                         ::testing::Values(LadderCase{"secp160r1", &secp160r1_case},
                                           LadderCase{"p256", &p256_case},
                                           LadderCase{"ss_tiny", &ss_tiny_case},
                                           LadderCase{"ss_paper", &ss_paper_case},
                                           LadderCase{"toy", &toy_case}),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(Ladders, ToyCurveEveryScalarInARange) {
  const Curve& c = toy_curve();
  const Point& g = c.generator();
  hash::HmacDrbg rng(42, "toy-range");
  const Point q = c.mul(mpint::random_range(rng, BigInt{1}, c.order()), g);
  const FixedBase q_table = c.make_fixed_base(q);
  Point kg = Point::at_infinity();
  Point kq = Point::at_infinity();
  for (std::int64_t k = 0; k < 300; ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(c.mul(BigInt{k}, g), kg);
    EXPECT_EQ(c.mul(BigInt{k}, q_table), kq);
    EXPECT_EQ(c.mul_raw(BigInt{k}, q), kq);
    EXPECT_EQ(c.mul_add(BigInt{k}, BigInt{k}, q), c.add(kg, kq));
    kg = c.add(kg, g);
    kq = c.add(kq, q);
  }
}

TEST(Ladders, MixedAddDegenerateBranches) {
  // acc == +table point (doubling branch) and acc == -table point
  // (infinity branch), reached through Q = +-G.
  for (const Curve* c : {&secp160r1(), &p256(), &ss_group(192, 96).curve()}) {
    SCOPED_TRACE(c->name());
    const BigInt& n = c->order();
    const Point& g = c->generator();
    const Point minus_g = c->neg(g);
    const FixedBase g_table = c->make_fixed_base(g);
    const FixedBase minus_table = c->make_fixed_base(minus_g);
    EXPECT_EQ(c->mul_add(BigInt{1}, BigInt{1}, g), c->dbl(g));
    EXPECT_EQ(c->mul_add(BigInt{1}, BigInt{1}, g_table), c->dbl(g));
    EXPECT_TRUE(c->mul_add(BigInt{1}, n - BigInt{1}, g).infinity);
    EXPECT_TRUE(c->mul_add(BigInt{1}, BigInt{1}, minus_g).infinity);
    EXPECT_TRUE(c->mul_add(BigInt{1}, BigInt{1}, minus_table).infinity);
    hash::HmacDrbg rng(43, c->name());
    for (int i = 0; i < 4; ++i) {
      const BigInt k = mpint::random_range(rng, BigInt{1}, n);
      EXPECT_TRUE(c->mul_add(k, n - k, g).infinity);
      EXPECT_TRUE(c->mul_add(k, k, minus_g).infinity);
      EXPECT_TRUE(c->mul_add(k, k, minus_table).infinity);
      EXPECT_EQ(c->mul_add(k, k, g), oracle_mul(*c, (k + k).mod(n), g));
      EXPECT_EQ(c->mul_add(k, k, g_table), oracle_mul(*c, (k + k).mod(n), g));
    }
  }
}

TEST(Ladders, SmallOrderBasesSkipInfinityEntries) {
  // Points of order 2, 3, 5, ... in the supersingular curve's cofactor
  // part: odd-multiple and comb entries land on infinity.
  const pairing::SsGroup& group = ss_group(192, 96);
  const Curve& c = group.curve();
  const BigInt order = c.p() + BigInt{1};  // #E(F_p)
  std::vector<Point> bases = {Point{BigInt{}, BigInt{}, false}};  // (0, 0): order 2
  // (#E / l) * R has order l (or is infinity) for a raw curve point R.
  for (std::uint64_t l : {3U, 4U, 5U, 7U, 8U, 11U, 13U}) {
    if (!(order % BigInt{l}).is_zero()) continue;
    for (std::uint64_t x = 2; x < 200; ++x) {
      BigInt y;
      if (!mpint::sqrt_mod_p3(c.field(), BigInt{x * x * x + x}.mod(c.p()), y)) continue;
      const Point t = c.mul_raw(order / BigInt{l}, Point{BigInt{x}, y, false});
      if (!t.infinity) {
        bases.push_back(t);
        break;
      }
    }
  }
  ASSERT_GE(bases.size(), 2U);
  for (const Point& base : bases) {
    ASSERT_TRUE(c.is_on_curve(base));
    const FixedBase table = c.make_fixed_base(base);
    for (std::int64_t k = -20; k < 40; ++k) {
      SCOPED_TRACE(k);
      EXPECT_EQ(c.mul_raw(BigInt{k}, base), oracle_mul(c, BigInt{k}, base));
      EXPECT_EQ(c.mul(BigInt{k}, table), oracle_mul(c, BigInt{k}.mod(c.order()), base));
    }
    const BigInt big = c.order() * BigInt{3} + BigInt{5};
    EXPECT_EQ(c.mul_raw(big, base), oracle_mul(c, big, base));
  }
}

TEST(Ladders, MulRawRejectsScalarsWiderThan2048Bits) {
  const Curve& c = secp160r1();
  EXPECT_THROW((void)c.mul_raw(BigInt{1} << 2048, c.generator()), std::invalid_argument);
  EXPECT_NO_THROW((void)c.mul_raw((BigInt{1} << 2048) - BigInt{1}, c.generator()));
}

TEST(Ladders, TableFromAnotherCurveIsRejected) {
  const FixedBase foreign = p256().make_fixed_base(p256().generator());
  EXPECT_THROW((void)secp160r1().mul(BigInt{5}, foreign), std::invalid_argument);
  EXPECT_THROW((void)secp160r1().make_fixed_base(p256().generator()), std::invalid_argument);
}

TEST(Ladders, ResidueFormsMatchPointForms) {
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(44, "residue-forms");
  const BigInt k1 = mpint::random_below(rng, c.order());
  const BigInt k2 = mpint::random_below(rng, c.order());
  const Point q = c.mul(mpint::random_below(rng, c.order()), c.generator());
  const FixedBase q_table = c.make_fixed_base(q);
  const ResiduePoint rq = c.to_residue(q);
  ResiduePoint out;
  c.mul(k1, c.generator_table(), out);
  EXPECT_EQ(c.from_residue(out), c.mul(k1, c.generator()));
  c.mul_raw(k1, rq, out);
  EXPECT_EQ(c.from_residue(out), c.mul_raw(k1, q));
  c.mul_add(k1, k2, rq, out);
  EXPECT_EQ(c.from_residue(out), c.mul_add(k1, k2, q));
  c.mul_add(k1, k2, q_table, out);
  EXPECT_EQ(c.from_residue(out), c.mul_add(k1, k2, q));
  c.mul_raw(BigInt{}, rq, out);
  EXPECT_TRUE(out.infinity);
  EXPECT_TRUE(c.from_residue(c.to_residue(Point::at_infinity())).infinity);
}

// ---------------------------------------------------------------------------
// ECDSA with a CA key table.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> bytes(std::string_view s) { return {s.begin(), s.end()}; }

TEST(CaTable, TableVerifyAgreesWithPlainVerify) {
  const Curve& c = secp160r1();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    hash::HmacDrbg rng(seed, "ca-table");
    const sig::EcdsaKeyPair kp = sig::ecdsa_generate_keypair(c, rng);
    const FixedBase table = c.make_fixed_base(kp.q);
    const sig::EcdsaSignature good = sig::ecdsa_sign(c, kp, bytes("tbs"), rng);
    const std::vector<sig::EcdsaSignature> cases = {
        good,
        {good.r, (good.s + BigInt{1}).mod(c.order())},
        {(good.r + BigInt{1}).mod(c.order()), good.s},
        {good.s, good.r},
        {BigInt{}, good.s},
        {good.r, c.order()},
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(i);
      const bool plain = sig::ecdsa_verify(c, kp.q, bytes("tbs"), cases[i]);
      EXPECT_EQ(sig::ecdsa_verify(c, table, bytes("tbs"), cases[i]), plain);
      EXPECT_EQ(plain, i == 0);
    }
    EXPECT_FALSE(sig::ecdsa_verify(c, table, bytes("tbs!"), good));
    EXPECT_FALSE(sig::ecdsa_verify(c, kp.q, bytes("tbs!"), good));
  }
}

TEST(CaTable, CertificateAuthorityRejectsTamperedCertificate) {
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(45, "ca-tamper");
  pki::CertificateAuthority ca(c, rng);
  const sig::EcdsaKeyPair kp = sig::ecdsa_generate_keypair(c, rng);
  const pki::Certificate cert = ca.issue(7, pki::encode_ec_public(c, kp.q), rng);
  EXPECT_TRUE(ca.verify(cert));
  pki::Certificate bad_sig = cert;
  bad_sig.sig_s = (bad_sig.sig_s + BigInt{1}).mod(c.order());
  EXPECT_FALSE(ca.verify(bad_sig));
  pki::Certificate bad_subject = cert;
  bad_subject.subject_id = 8;
  EXPECT_FALSE(ca.verify(bad_subject));
}

// ---------------------------------------------------------------------------
// Deterministic cost gates: field products (mod_muls + mod_sqrs) per call,
// and zero heap allocations per steady-state scalar multiplication.
// ---------------------------------------------------------------------------

std::uint64_t field_products() {
  const mpint::OpCounts c = mpint::op_counts();
  return c.mod_muls + c.mod_sqrs;
}

// Largest per-call field-product count of `fn` over `calls` calls.
template <typename Fn>
std::uint64_t max_products(int calls, Fn fn) {
  std::uint64_t worst = 0;
  for (int i = 0; i < calls; ++i) {
    const std::uint64_t before = field_products();
    fn();
    worst = std::max(worst, field_products() - before);
  }
  return worst;
}

TEST(CostGates, Secp160r1FieldProductsPerCall) {
  // Bit-serial ladders before the tables: keygen/sign 2374, verify 3464,
  // CA certificate verify 3496.
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(46, "cost");
  EXPECT_LE(max_products(8, [&] { (void)sig::ecdsa_generate_keypair(c, rng); }), 830U);
  const sig::EcdsaKeyPair kp = sig::ecdsa_generate_keypair(c, rng);
  EXPECT_LE(max_products(8, [&] { (void)sig::ecdsa_sign(c, kp, bytes("m"), rng); }), 830U);
  const sig::EcdsaSignature sig = sig::ecdsa_sign(c, kp, bytes("m"), rng);
  EXPECT_LE(max_products(8, [&] { EXPECT_TRUE(sig::ecdsa_verify(c, kp.q, bytes("m"), sig)); }),
            2600U);
  pki::CertificateAuthority ca(c, rng);
  const pki::Certificate cert = ca.issue(9, pki::encode_ec_public(c, kp.q), rng);
  EXPECT_LE(max_products(8, [&] { EXPECT_TRUE(ca.verify(cert)); }), 1220U);
}

TEST(CostGates, SupersingularVariableBaseMulNoDearerThanBefore) {
  // The 4-bit window ladder cost 1508 (kTiny) and 2388 (kPaper) products.
  for (const auto& [p_bits, q_bits, bound] :
       {std::tuple<std::size_t, std::size_t, std::uint64_t>{192, 96, 1508},
        std::tuple<std::size_t, std::size_t, std::uint64_t>{512, 160, 2388}}) {
    SCOPED_TRACE(p_bits);
    const pairing::SsGroup& group = ss_group(p_bits, q_bits);
    hash::HmacDrbg rng(47, "ss-cost");
    const Point pt = group.map_to_point("cost");
    EXPECT_LE(max_products(4, [&] {
                (void)group.curve().mul(mpint::random_below(rng, group.q()), pt);
              }),
              bound);
  }
}

TEST(CostGates, SteadyStateScalarMultiplicationAllocatesNothing) {
  for (const Curve* c : {&secp160r1(), &p256(), &ss_group(512, 160).curve()}) {
    SCOPED_TRACE(c->name());
    hash::HmacDrbg rng(48, c->name());
    const BigInt k1 = mpint::random_below(rng, c->order());
    const BigInt k2 = mpint::random_below(rng, c->order());
    const Point q = c->mul(mpint::random_below(rng, c->order()), c->generator());
    const FixedBase q_table = c->make_fixed_base(q);
    const ResiduePoint rq = c->to_residue(q);
    const BigInt cofactor = c->cofactor() * BigInt{12345};
    ResiduePoint out;
    const auto all = [&] {
      c->mul(k1, c->generator_table(), out);
      c->mul(k2, q_table, out);
      c->mul_raw(k1, rq, out);
      c->mul_raw(cofactor, rq, out);
      c->mul_add(k1, k2, rq, out);
      c->mul_add(k1, k2, q_table, out);
    };
    all();  // warm-up: thread arena, output sizing
    const std::uint64_t before = bench::heap_alloc_count();
    for (int i = 0; i < 4; ++i) all();
    EXPECT_EQ(bench::heap_alloc_count() - before, 0U);
  }
}

}  // namespace
}  // namespace idgka::ec
