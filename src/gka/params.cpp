#include "gka/params.h"

#include "hash/hmac_drbg.h"

namespace idgka::gka {

ProfileSizes profile_sizes(SecurityProfile profile) {
  switch (profile) {
    case SecurityProfile::kPaper:
      return ProfileSizes{1024, 160, 1024, 512, 160};
    case SecurityProfile::kTest:
      return ProfileSizes{256, 160, 256, 256, 120};
    case SecurityProfile::kTiny:
      return ProfileSizes{192, 128, 192, 192, 96};
  }
  return ProfileSizes{256, 160, 256, 256, 120};
}

bool MemberCredentials::holds(Scheme scheme) const {
  switch (scheme) {
    case Scheme::kProposed:
    case Scheme::kSsn:
      return !gq_secret.is_zero();
    case Scheme::kBdSok:
      return !sok_secret.infinity;
    case Scheme::kBdDsa:
      return !dsa_cert.subject_public_key.empty();
    case Scheme::kBdEcdsa:
      return !ecdsa_cert.subject_public_key.empty();
  }
  return false;
}

Authority::Authority(SecurityProfile profile, std::uint64_t seed)
    : Authority(profile, seed, /*full=*/true) {}

Authority::Authority(SecurityProfile profile, std::uint64_t seed, Scheme scheme)
    : Authority(profile, seed, /*full=*/!is_id_based_gq(scheme)) {}

Authority::Authority(SecurityProfile profile, std::uint64_t seed, bool full)
    : full_(full), rng_(std::make_unique<hash::HmacDrbg>(seed, "idgka-authority")) {
  const ProfileSizes sizes = profile_sizes(profile);
  const int mr = profile == SecurityProfile::kPaper ? 32 : 16;

  // Draw order (see params.h): Schnorr group, GQ PKG, then — full
  // authority only — SOK/pairing, DSA, ECDSA.
  params_.profile = profile;
  params_.grp = mpint::generate_schnorr_group(*rng_, sizes.p_bits, sizes.q_bits, mr);
  gq_pkg_ = std::make_unique<sig::GqPkg>(*rng_, sizes.gq_bits, mr);
  params_.gq = gq_pkg_->params();
  params_.ctx_p = std::make_shared<const mpint::ModContext>(params_.grp.p);
  params_.ctx_n = std::make_shared<const mpint::ModContext>(params_.gq.n);
  // Fixed-base comb tables: every member exponentiates the same g (mod p,
  // exponents mod q) and the same SSN base h (mod n, exponents up to |n|).
  params_.g_comb = std::make_shared<const mpint::FixedBaseTable>(
      params_.ctx_p->make_fixed_base(params_.grp.g, params_.grp.q.bit_length()));
  params_.h_ssn = sig::gq_hash_id(params_.gq, 0xFFFFFFFFU);  // reserved "system" id
  params_.h_comb = std::make_shared<const mpint::FixedBaseTable>(
      params_.ctx_n->make_fixed_base(params_.h_ssn, params_.gq.n.bit_length()));
  if (!full_) return;

  ss_group_ = std::make_unique<pairing::SsGroup>(
      mpint::generate_supersingular_params(*rng_, sizes.ss_p_bits, sizes.ss_q_bits, mr));
  tate_ = std::make_unique<pairing::TatePairing>(*ss_group_);
  sok_pkg_ = std::make_unique<sig::SokPkg>(*ss_group_, *rng_);

  dsa_params_ = sig::dsa_generate_params(*rng_, sizes.p_bits, sizes.q_bits, mr);
  dsa_ctx_ = std::make_shared<const mpint::ModContext>(dsa_params_.p);
  curve_ = &ec::secp160r1();
  dsa_ca_ = std::make_unique<pki::CertificateAuthority>(dsa_params_, dsa_ctx_, *rng_);
  ecdsa_ca_ = std::make_unique<pki::CertificateAuthority>(*curve_, *rng_);
}

void Authority::issue_dsa(MemberCredentials& cred) {
  cred.dsa_key = sig::dsa_generate_keypair(dsa_params_, *dsa_ctx_, *rng_);
  cred.dsa_cert =
      dsa_ca_->issue(cred.id, pki::encode_dsa_public(dsa_params_, cred.dsa_key.y), *rng_);
}

void Authority::issue_ecdsa(MemberCredentials& cred) {
  cred.ecdsa_key = sig::ecdsa_generate_keypair(*curve_, *rng_);
  cred.ecdsa_cert =
      ecdsa_ca_->issue(cred.id, pki::encode_ec_public(*curve_, cred.ecdsa_key.q), *rng_);
}

MemberCredentials Authority::enroll(std::uint32_t id) {
  MemberCredentials cred;
  cred.id = id;
  cred.gq_secret = gq_pkg_->extract(id);
  cred.sok_secret = baseline(sok_pkg_)->extract(id);
  issue_dsa(cred);
  issue_ecdsa(cred);
  return cred;
}

MemberCredentials Authority::enroll(std::uint32_t id, Scheme scheme) {
  if (!provisions(scheme)) {
    throw std::invalid_argument("Authority::enroll: scheme not provisioned by this authority");
  }
  MemberCredentials cred;
  cred.id = id;
  switch (scheme) {
    case Scheme::kProposed:
    case Scheme::kSsn:
      cred.gq_secret = gq_pkg_->extract(id);
      break;
    case Scheme::kBdSok:
      cred.sok_secret = sok_pkg_->extract(id);
      break;
    case Scheme::kBdDsa:
      issue_dsa(cred);
      break;
    case Scheme::kBdEcdsa:
      issue_ecdsa(cred);
      break;
  }
  return cred;
}

}  // namespace idgka::gka
