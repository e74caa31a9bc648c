// GQ ID-based signature variant tests: soundness, forgery rejection and the
// Eq.-2 batch verification that the proposed GKA depends on.
#include "sig/gq.h"

#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "hash/hmac_drbg.h"
#include "hash/sha256.h"

namespace idgka::sig {
namespace {

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

class GqFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hash::HmacDrbg rng(1001, "gq-params");
    pkg_ = new GqPkg(rng, /*modulus_bits=*/512, /*mr_rounds=*/16);
    ctx_ = new mpint::ModContext(pkg_->params().n);
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
    delete pkg_;
    pkg_ = nullptr;
  }
  static GqPkg* pkg_;
  static mpint::ModContext* ctx_;  ///< mod-n context for verification
};

GqPkg* GqFixture::pkg_ = nullptr;
mpint::ModContext* GqFixture::ctx_ = nullptr;

TEST_F(GqFixture, HashIdIsUnitAndDeterministic) {
  const BigInt h1 = gq_hash_id(pkg_->params(), 42);
  EXPECT_EQ(h1, gq_hash_id(pkg_->params(), 42));
  EXPECT_NE(h1, gq_hash_id(pkg_->params(), 43));
  EXPECT_TRUE(mpint::gcd(h1, pkg_->params().n).is_one());
  EXPECT_LT(h1, pkg_->params().n);
}

TEST(GqHashId, KnownAnswerThroughNonUnitCandidates) {
  // n carries the factors 3, 5, 7 and 11, so the unit check rejects more
  // than half of the first candidates and the counter loop runs. Pinned
  // values: a change to gcd or to the hash expansion must not move them.
  const BigInt cofactor = (BigInt{1} << 1013) + (BigInt{1} << 517) + BigInt{1};
  const GqParams params{BigInt{1155} * cofactor, BigInt{65537}};
  EXPECT_EQ(gq_hash_id(params, 42).to_hex(),
            "760da218b4452fb160a57023eb58c5108e231c46be3ce7e8849815b003f324abeb731958cd5cc3"
            "8b768dd4e2c870eb78ea6e8e5476276b84e813065a715030fc1d08d8d551691a86e1df0a9ef156"
            "ea9087d386d501c15ad5b4a8eaad423bb00c3f528a56d70192bd8be1b42dbef447b57d018ce87c"
            "820b259d024ebdcbb2171a");
  hash::Sha256 all;
  for (std::uint32_t id = 0; id < 64; ++id) {
    const BigInt h = gq_hash_id(params, id);
    EXPECT_TRUE(mpint::gcd(h, params.n).is_one()) << "id=" << id;
    all.update(h.to_bytes_be(128));
  }
  const auto digest = all.finalize();
  EXPECT_EQ(BigInt::from_bytes_be(digest).to_hex(),
            "4de9ce8e56060a02ebe2b47409efb91eb19d05d72db9b2b186b96d562b7b32dd");
}

TEST_F(GqFixture, SharedContextMustMatchModulus) {
  const auto wrong = std::make_shared<const mpint::ModContext>(pkg_->params().n + BigInt{2});
  EXPECT_THROW(GqSigner(pkg_->params(), 1, pkg_->extract(1), wrong), std::invalid_argument);
  const GqSignature sig{BigInt{1}, BigInt{1}};
  EXPECT_THROW((void)gq_verify(pkg_->params(), *wrong, 1, bytes("m"), sig),
               std::invalid_argument);
  const std::uint32_t id = 1;
  const BigInt s{1};
  EXPECT_THROW((void)gq_batch_verify(pkg_->params(), *wrong, {&id, 1}, {&s, 1}, BigInt{1},
                                     bytes("z")),
               std::invalid_argument);
}

TEST_F(GqFixture, ExtractSatisfiesKeyEquation) {
  // S_ID^e == H(ID) mod n.
  const BigInt s_id = pkg_->extract(7);
  const BigInt lhs = ctx_->exp(s_id, pkg_->params().e);
  EXPECT_EQ(lhs, gq_hash_id(pkg_->params(), 7));
}

TEST_F(GqFixture, SignVerifyRoundTrip) {
  hash::HmacDrbg rng(2, "sign");
  const std::uint32_t id = 1234;
  const GqSigner signer(pkg_->params(), id, pkg_->extract(id));
  const auto sig = signer.sign(bytes("hello group"), rng);
  EXPECT_TRUE(gq_verify(pkg_->params(), *ctx_, id, bytes("hello group"), sig));
}

TEST_F(GqFixture, VerifyRejectsWrongMessage) {
  hash::HmacDrbg rng(3, "sign");
  const GqSigner signer(pkg_->params(), 1, pkg_->extract(1));
  const auto sig = signer.sign(bytes("msg-a"), rng);
  EXPECT_FALSE(gq_verify(pkg_->params(), *ctx_, 1, bytes("msg-b"), sig));
}

TEST_F(GqFixture, VerifyRejectsWrongIdentity) {
  hash::HmacDrbg rng(4, "sign");
  const GqSigner signer(pkg_->params(), 1, pkg_->extract(1));
  const auto sig = signer.sign(bytes("msg"), rng);
  EXPECT_FALSE(gq_verify(pkg_->params(), *ctx_, 2, bytes("msg"), sig));
}

TEST_F(GqFixture, VerifyRejectsTamperedSignature) {
  hash::HmacDrbg rng(5, "sign");
  const GqSigner signer(pkg_->params(), 1, pkg_->extract(1));
  auto sig = signer.sign(bytes("msg"), rng);
  sig.s = (sig.s + BigInt{1}).mod(pkg_->params().n);
  EXPECT_FALSE(gq_verify(pkg_->params(), *ctx_, 1, bytes("msg"), sig));
}

TEST_F(GqFixture, VerifyRejectsOutOfRangeS) {
  GqSignature sig{pkg_->params().n + BigInt{5}, BigInt{17}};
  EXPECT_FALSE(gq_verify(pkg_->params(), *ctx_, 1, bytes("msg"), sig));
  sig.s = BigInt{};
  EXPECT_FALSE(gq_verify(pkg_->params(), *ctx_, 1, bytes("msg"), sig));
}

TEST_F(GqFixture, SignerWithWrongSecretFailsVerification) {
  hash::HmacDrbg rng(6, "sign");
  // Signer claims identity 9 but holds the key for identity 8.
  const GqSigner impostor(pkg_->params(), 9, pkg_->extract(8));
  const auto sig = impostor.sign(bytes("msg"), rng);
  EXPECT_FALSE(gq_verify(pkg_->params(), *ctx_, 9, bytes("msg"), sig));
}

// --- Batch verification (the protocol's Eq. 2 shape) ---------------------

struct BatchInputs {
  std::vector<std::uint32_t> ids;
  std::vector<BigInt> s;
  BigInt c;
  std::vector<std::uint8_t> z;
};

BatchInputs make_batch(const GqPkg& pkg, std::size_t n, std::uint64_t seed) {
  hash::HmacDrbg rng(seed, "batch");
  BatchInputs b;
  b.z = {0xde, 0xad, 0xbe, 0xef};
  std::vector<GqSigner> signers;
  std::vector<GqSigner::Commitment> commits;
  BigInt t_prod{1};
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(100 + i);
    b.ids.push_back(id);
    signers.emplace_back(pkg.params(), id, pkg.extract(id));
    commits.push_back(signers.back().commit(rng));
    t_prod = mpint::mod_mul(t_prod, commits.back().t, pkg.params().n);
  }
  b.c = gq_challenge(t_prod.to_bytes_be(), b.z);
  for (std::size_t i = 0; i < n; ++i) {
    b.s.push_back(signers[i].respond(commits[i], b.c));
  }
  return b;
}

class GqBatchTest : public GqFixture, public ::testing::WithParamInterface<std::size_t> {};

TEST_P(GqBatchTest, AcceptsHonestBatch) {
  const auto b = make_batch(*pkg_, GetParam(), 10 + GetParam());
  EXPECT_TRUE(gq_batch_verify(pkg_->params(), *ctx_, b.ids, b.s, b.c, b.z));
}

TEST_P(GqBatchTest, RejectsSingleCorruptedShare) {
  auto b = make_batch(*pkg_, GetParam(), 20 + GetParam());
  const std::size_t victim = GetParam() / 2;
  b.s[victim] = (b.s[victim] + BigInt{1}).mod(pkg_->params().n);
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, b.ids, b.s, b.c, b.z));
}

TEST_P(GqBatchTest, RejectsWrongZ) {
  auto b = make_batch(*pkg_, GetParam(), 30 + GetParam());
  b.z.push_back(0x00);
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, b.ids, b.s, b.c, b.z));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, GqBatchTest, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_F(GqFixture, BatchRejectsMismatchedArity) {
  auto b = make_batch(*pkg_, 3, 99);
  b.ids.pop_back();
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, b.ids, b.s, b.c, b.z));
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, {}, {}, b.c, b.z));
}

TEST_F(GqFixture, BatchRejectsSwappedIdentities) {
  auto b = make_batch(*pkg_, 3, 101);
  std::swap(b.ids[0], b.ids[1]);
  // The product of H(U_i) is invariant under permutation, but each s_i was
  // bound to its own secret; swapping only ids keeps the product equal, so
  // the batch equation still holds (the batch binds the *set*, not order).
  EXPECT_TRUE(gq_batch_verify(pkg_->params(), *ctx_, b.ids, b.s, b.c, b.z));
  // Replacing an identity with one outside the signer set must fail.
  b.ids[0] = 999;
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, b.ids, b.s, b.c, b.z));
}

// --- The H(ID) table (filled by extract, read by verification) ----------

GqParams without_table(const GqParams& params) { return GqParams{params.n, params.e}; }

TEST_F(GqFixture, IdTableHoldsHashOfEnrolledIds) {
  const GqParams& params = pkg_->params();
  ASSERT_NE(params.ids, nullptr);
  for (std::uint32_t id = 500; id < 508; ++id) {
    (void)pkg_->extract(id);
    const auto hid = params.ids->find(id);
    ASSERT_TRUE(hid.has_value()) << "id=" << id;
    EXPECT_EQ(*hid, gq_hash_id(without_table(params), id)) << "id=" << id;
    EXPECT_EQ(params.hash_id(id), *hid) << "id=" << id;
  }
  // Copies of the params share the PKG's table.
  const GqSigner signer(params, 500, pkg_->extract(500));
  EXPECT_EQ(signer.params().ids, params.ids);
  // Hand-built params have none and compute H(ID) directly.
  EXPECT_EQ(without_table(params).hash_id(501), *params.ids->find(501));
}

TEST_F(GqFixture, UnenrolledIdIsComputedButNeverInserted) {
  const GqParams& params = pkg_->params();
  const std::uint32_t forged = 0xBAD1D;
  const std::size_t before = params.ids->size();
  EXPECT_FALSE(params.ids->find(forged).has_value());
  EXPECT_EQ(params.hash_id(forged), gq_hash_id(without_table(params), forged));
  EXPECT_EQ(params.ids->size(), before);

  // Substituted into an honest ring, the forged id still fails the batch
  // check and still leaves the table as it was.
  auto b = make_batch(*pkg_, 4, 111);
  const std::size_t enrolled = params.ids->size();
  EXPECT_TRUE(gq_batch_verify(params, *ctx_, b.ids, b.s, b.c, b.z));
  b.ids[2] = forged;
  EXPECT_FALSE(gq_batch_verify(params, *ctx_, b.ids, b.s, b.c, b.z));
  const GqSignature sig{b.s[2], b.c};
  EXPECT_FALSE(gq_verify(params, *ctx_, forged, b.z, sig));
  EXPECT_EQ(params.ids->size(), enrolled);
  EXPECT_FALSE(params.ids->find(forged).has_value());
}

TEST_F(GqFixture, ConcurrentExtractAndVerify) {
  // Four threads enroll fresh ids while verifying signatures of their own
  // and of ids another thread may or may not have enrolled yet (a table
  // hit or a miss; the result must not depend on which).
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kPerThread = 6;
  const auto shared_ctx = std::make_shared<const mpint::ModContext>(pkg_->params().n);
  std::array<bool, kThreads> ok{};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      hash::HmacDrbg rng(700 + t, "concurrent");
      bool all = true;
      for (std::uint32_t k = 0; k < kPerThread; ++k) {
        const std::uint32_t id = 2000 + t * kPerThread + k;
        const GqSigner signer(pkg_->params(), id, pkg_->extract(id), shared_ctx);
        const auto sig = signer.sign(bytes("concurrent"), rng);
        all = all && gq_verify(pkg_->params(), *shared_ctx, id, bytes("concurrent"), sig);
        const std::uint32_t other = 2000 + ((t + 1) % kThreads) * kPerThread + k;
        all = all && !gq_verify(pkg_->params(), *shared_ctx, other, bytes("concurrent"), sig);
      }
      ok[t] = all;
    });
  }
  for (auto& th : threads) th.join();
  for (std::uint32_t t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]) << "thread " << t;
  for (std::uint32_t id = 2000; id < 2000 + kThreads * kPerThread; ++id) {
    EXPECT_EQ(pkg_->params().ids->find(id), gq_hash_id(without_table(pkg_->params()), id));
  }
}

TEST_F(GqFixture, SignatureBitsMatchPaperShape) {
  // |s| = |n|, |c| = 160 -> 1184 bits for the 1024-bit paper profile.
  GqParams paper_like{BigInt{1} << 1023, BigInt{65537}};
  paper_like.n += BigInt{1};  // 1024-bit odd stand-in
  EXPECT_EQ(gq_signature_bits(paper_like), 1024U + 160U);
}

}  // namespace
}  // namespace idgka::sig
