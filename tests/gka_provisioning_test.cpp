// Scheme-scoped provisioning: the ID-based-only authority, scoped
// enrollment, and the errors raised when a scheme's credentials are absent.
//
// Correctness anchor: provisioning less must not change anything the
// schemes compute. The ID-based authority's parameters and GQ secrets equal
// the full authority's (one DRBG, fixed draw order), and every scheme's
// group keys after form, join and leave are pinned to known answers that
// predate scoped enrollment.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "gka/bd_signed.h"
#include "gka/session.h"

namespace idgka::gka {
namespace {

constexpr std::array<Scheme, 5> kAllSchemes = {Scheme::kProposed, Scheme::kBdSok,
                                               Scheme::kBdEcdsa, Scheme::kBdDsa, Scheme::kSsn};
constexpr std::array<Scheme, 3> kBaselines = {Scheme::kBdSok, Scheme::kBdEcdsa,
                                              Scheme::kBdDsa};

Authority& full_authority() {
  static Authority authority(SecurityProfile::kTiny, /*seed=*/8080);
  return authority;
}

Authority& id_based_authority() {
  static Authority authority(SecurityProfile::kTiny, /*seed=*/8080, Scheme::kProposed);
  return authority;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

TEST(IdBasedAuthority, ParametersAndGqSecretsMatchTheFullAuthority) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{20260730}}) {
    for (const Scheme scheme : {Scheme::kProposed, Scheme::kSsn}) {
      Authority full(SecurityProfile::kTiny, seed);
      Authority scoped(SecurityProfile::kTiny, seed, scheme);
      const SystemParams& a = full.params();
      const SystemParams& b = scoped.params();
      EXPECT_EQ(a.grp.p, b.grp.p) << seed;
      EXPECT_EQ(a.grp.q, b.grp.q) << seed;
      EXPECT_EQ(a.grp.g, b.grp.g) << seed;
      EXPECT_EQ(a.gq.n, b.gq.n) << seed;
      EXPECT_EQ(a.gq.e, b.gq.e) << seed;
      EXPECT_EQ(a.h_ssn, b.h_ssn) << seed;
      EXPECT_EQ(a.gpow(BigInt{12345}), b.gpow(BigInt{12345})) << seed;
      EXPECT_EQ(a.hpow(BigInt{12345}), b.hpow(BigInt{12345})) << seed;
      for (std::uint32_t id = 1; id <= 4; ++id) {
        EXPECT_EQ(scoped.enroll(id, scheme).gq_secret, full.enroll(id).gq_secret)
            << seed << " id " << id;
      }
    }
  }
}

TEST(IdBasedAuthority, ProvisionsOnlyTheGqSchemes) {
  Authority& auth = id_based_authority();
  EXPECT_TRUE(auth.provisions(Scheme::kProposed));
  EXPECT_TRUE(auth.provisions(Scheme::kSsn));
  for (const Scheme scheme : kBaselines) EXPECT_FALSE(auth.provisions(scheme));
  for (const Scheme scheme : kAllSchemes) EXPECT_TRUE(full_authority().provisions(scheme));
  // A baseline scheme passed to the scoped constructor yields the full
  // authority, with the same baseline material as Authority(profile, seed).
  const Authority dsa(SecurityProfile::kTiny, 8080, Scheme::kBdDsa);
  for (const Scheme scheme : kAllSchemes) EXPECT_TRUE(dsa.provisions(scheme));
  EXPECT_EQ(dsa.dsa_params().p, full_authority().dsa_params().p);
  EXPECT_EQ(dsa.sok_public_key(), full_authority().sok_public_key());
}

TEST(ScopedEnrollment, FillsExactlyThatSchemesFields) {
  Authority auth(SecurityProfile::kTiny, /*seed=*/8080);
  for (const Scheme scheme : kAllSchemes) {
    const MemberCredentials cred = auth.enroll(77, scheme);
    const std::string what = scheme_name(scheme);
    EXPECT_EQ(cred.id, 77U) << what;
    const bool gq = scheme == Scheme::kProposed || scheme == Scheme::kSsn;
    EXPECT_EQ(!cred.gq_secret.is_zero(), gq) << what;
    EXPECT_EQ(!cred.sok_secret.infinity, scheme == Scheme::kBdSok) << what;
    EXPECT_EQ(!cred.dsa_key.x.is_zero(), scheme == Scheme::kBdDsa) << what;
    EXPECT_EQ(!cred.dsa_key.y.is_zero(), scheme == Scheme::kBdDsa) << what;
    EXPECT_EQ(!cred.dsa_cert.subject_public_key.empty(), scheme == Scheme::kBdDsa) << what;
    EXPECT_EQ(!cred.ecdsa_key.d.is_zero(), scheme == Scheme::kBdEcdsa) << what;
    EXPECT_EQ(!cred.ecdsa_cert.subject_public_key.empty(), scheme == Scheme::kBdEcdsa) << what;
    for (const Scheme other : kAllSchemes) {
      const bool same_kind = other == scheme || (gq && is_id_based_gq(other));
      EXPECT_EQ(cred.holds(other), same_kind) << what << " holds " << scheme_name(other);
    }
  }
  // The issued material is real: certificates verify under the CAs, and
  // the ID-based secrets equal the full enrollment's (extraction draws
  // nothing from the authority's DRBG).
  const MemberCredentials dsa = auth.enroll(78, Scheme::kBdDsa);
  const MemberCredentials ecdsa = auth.enroll(78, Scheme::kBdEcdsa);
  EXPECT_EQ(dsa.dsa_cert.subject_id, 78U);
  EXPECT_TRUE(auth.dsa_ca().verify(dsa.dsa_cert));
  EXPECT_EQ(ecdsa.ecdsa_cert.subject_id, 78U);
  EXPECT_TRUE(auth.ecdsa_ca().verify(ecdsa.ecdsa_cert));
  const MemberCredentials all = auth.enroll(78);
  EXPECT_EQ(all.gq_secret, auth.enroll(78, Scheme::kProposed).gq_secret);
  EXPECT_EQ(all.sok_secret, auth.enroll(78, Scheme::kBdSok).sok_secret);
}

TEST(ScopedEnrollment, FullEnrollmentFillsEveryField) {
  Authority auth(SecurityProfile::kTiny, /*seed=*/8080);
  const MemberCredentials cred = auth.enroll(91);
  EXPECT_FALSE(cred.gq_secret.is_zero());
  EXPECT_FALSE(cred.sok_secret.infinity);
  EXPECT_FALSE(cred.dsa_key.y.is_zero());
  EXPECT_FALSE(cred.ecdsa_key.d.is_zero());
  EXPECT_TRUE(auth.dsa_ca().verify(cred.dsa_cert));
  EXPECT_TRUE(auth.ecdsa_ca().verify(cred.ecdsa_cert));
  for (const Scheme scheme : kAllSchemes) EXPECT_TRUE(cred.holds(scheme)) << scheme_name(scheme);
}

// ----------------------------------------------------------- fail loudly

TEST(FailLoudly, SessionRejectsASchemeItsAuthorityDoesNotProvision) {
  for (const Scheme scheme : kBaselines) {
    EXPECT_THROW(GroupSession(id_based_authority(), scheme, make_ids(3, 500), 1),
                 std::invalid_argument)
        << scheme_name(scheme);
  }
  GroupSession proposed(id_based_authority(), Scheme::kProposed, make_ids(3, 500), 1);
  EXPECT_TRUE(proposed.form().success);
  GroupSession ssn(id_based_authority(), Scheme::kSsn, make_ids(3, 500), 1);
  EXPECT_TRUE(ssn.form().success);
}

TEST(FailLoudly, BaselineAccessorsThrowOnAnIdBasedAuthority) {
  const Authority& auth = id_based_authority();
  EXPECT_THROW((void)auth.ss_group(), std::logic_error);
  EXPECT_THROW((void)auth.tate(), std::logic_error);
  EXPECT_THROW((void)auth.sok_public_key(), std::logic_error);
  EXPECT_THROW((void)auth.dsa_params(), std::logic_error);
  EXPECT_THROW((void)auth.dsa_ctx(), std::logic_error);
  EXPECT_THROW((void)auth.curve(), std::logic_error);
  EXPECT_THROW((void)auth.dsa_ca(), std::logic_error);
  EXPECT_THROW((void)auth.ecdsa_ca(), std::logic_error);
  // Full enrollment needs the baseline material too; scoped enrollment for
  // a baseline is refused up front.
  EXPECT_THROW((void)id_based_authority().enroll(5), std::logic_error);
  for (const Scheme scheme : kBaselines) {
    EXPECT_THROW((void)id_based_authority().enroll(5, scheme), std::invalid_argument)
        << scheme_name(scheme);
  }
}

TEST(FailLoudly, BdSignedRejectsMembersWithoutTheModesCredential) {
  Authority& auth = full_authority();
  const auto run = [&](Scheme enrolled_for, BdAuth mode) {
    std::vector<MemberCtx> members;
    net::Network network(0.0, 3);
    for (const std::uint32_t id : make_ids(3, 600)) {
      members.push_back(make_member(auth.enroll(id, enrolled_for), 3));
      network.add_node(id);
    }
    return run_bd_signed(auth, mode, members, network);
  };
  EXPECT_THROW((void)run(Scheme::kProposed, BdAuth::kDsa), std::invalid_argument);
  EXPECT_THROW((void)run(Scheme::kProposed, BdAuth::kEcdsa), std::invalid_argument);
  EXPECT_THROW((void)run(Scheme::kProposed, BdAuth::kSok), std::invalid_argument);
  EXPECT_THROW((void)run(Scheme::kBdEcdsa, BdAuth::kDsa), std::invalid_argument);
  EXPECT_THROW((void)run(Scheme::kBdDsa, BdAuth::kEcdsa), std::invalid_argument);
  EXPECT_TRUE(run(Scheme::kBdDsa, BdAuth::kDsa).success);
  EXPECT_TRUE(run(Scheme::kBdEcdsa, BdAuth::kEcdsa).success);
  EXPECT_TRUE(run(Scheme::kBdSok, BdAuth::kSok).success);
}

// ------------------------------------------------------------ known answers

// Group keys after form, join and leave for every scheme, pinned to the
// output of the code that enrolled every member for every scheme. One
// Authority(kTiny, 20260730); session k has ids 1000(k+1)+i for i < 8 and
// session seed 7+k; it forms, admits 1000(k+1)+8, then drops 1000(k+1)+3.
struct KnownKeys {
  Scheme scheme;
  const char* form;
  const char* join;
  const char* leave;
};

constexpr std::array<KnownKeys, 5> kKnownKeys = {{
    {Scheme::kProposed, "25f36a7d611cbecb84f361ab52e70d422cce87a0eace294",
     "16cb60bb33794d846f441714cd11234732a6601fcb189ca8",
     "8f643118f963295f25f17babe850cac7dcb01fb7f17d31b9"},
    {Scheme::kBdDsa, "56c1789f63ad4728a0f1196576bc10fbeb324e8631adbaf0",
     "37ee643a7708fb0496fb8568fe162306c36ed214fb503aa3",
     "76336d6ee15847afa4fa50dd6a1dd01e50533c9be92c64e9"},
    {Scheme::kBdEcdsa, "1e49c8aa4ed9f21264b1f07197fd9082aa57e1873050f723",
     "33f133eef445f7649b0ff9324fa8034821952a7e23219b3d",
     "fd166e4acdef4d025ca613f3b5fd5918af5ff29731f4fe3"},
    {Scheme::kSsn, "a9d78af382f61d26b728dfb329bc7b49753af618c255ec51",
     "1ad0162434047a02fbcc191b2accf618fa557f8d16f8f040",
     "3703e6b40946a76928c93df9e68bff720cf2dab80ebba9ad"},
    {Scheme::kBdSok, "1712e8c2a33132894a0f7072cf3c93aed3b90aff9f643cbd",
     "1504797dadc90d103ad480c393f3d3a6fc84bf7730dfb17e",
     "3f511e27794826885dceec8e8324c22b54c05d3665c88f6f"},
}};

TEST(KnownAnswers, GroupKeysOfEverySchemeAfterFormJoinLeave) {
  Authority auth(SecurityProfile::kTiny, /*seed=*/20260730);
  std::vector<GroupSession> sessions;
  for (std::size_t k = 0; k < kKnownKeys.size(); ++k) {
    const auto base = static_cast<std::uint32_t>(1000 * (k + 1));
    sessions.emplace_back(auth, kKnownKeys[k].scheme, make_ids(8, base), 7 + k);
  }
  for (std::size_t k = 0; k < kKnownKeys.size(); ++k) {
    GroupSession& s = sessions[k];
    const KnownKeys& want = kKnownKeys[k];
    const auto base = static_cast<std::uint32_t>(1000 * (k + 1));
    const std::string what = scheme_name(want.scheme);
    ASSERT_TRUE(s.form().success) << what;
    EXPECT_EQ(s.key().to_hex(), want.form) << what;
    ASSERT_TRUE(s.join(base + 8).success) << what;
    EXPECT_EQ(s.key().to_hex(), want.join) << what;
    ASSERT_TRUE(s.leave(base + 3).success) << what;
    EXPECT_EQ(s.key().to_hex(), want.leave) << what;
  }
}

TEST(KnownAnswers, IdBasedAuthorityGivesTheSameKeys) {
  // The GQ schemes on an ID-based authority land on the pinned keys too.
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}}) {
    Authority auth(SecurityProfile::kTiny, /*seed=*/20260730, kKnownKeys[k].scheme);
    const auto base = static_cast<std::uint32_t>(1000 * (k + 1));
    GroupSession s(auth, kKnownKeys[k].scheme, make_ids(8, base), 7 + k);
    ASSERT_TRUE(s.form().success);
    EXPECT_EQ(s.key().to_hex(), kKnownKeys[k].form);
    ASSERT_TRUE(s.join(base + 8).success);
    EXPECT_EQ(s.key().to_hex(), kKnownKeys[k].join);
    ASSERT_TRUE(s.leave(base + 3).success);
    EXPECT_EQ(s.key().to_hex(), kKnownKeys[k].leave);
  }
}

}  // namespace
}  // namespace idgka::gka
