// System parameters and the trust authority (PKG + certificate authority).
//
// The paper's Setup: a PKG generates the GQ modulus (n = p'q', e, d) and the
// key-agreement group (1024-bit p, 160-bit q | p-1, generator g). The full
// authority also provisions the baselines' credentials: SOK pairing
// parameters and master key, DSA/ECDSA key pairs and certificates.
//
// Provisioning follows the scheme. An authority built for the proposed
// scheme or SSN is ID-based only: it stops after the GQ PKG and the SSN base
// and holds no pairing group, CA or baseline parameters. `enroll(id, scheme)`
// issues only the credentials that scheme reads, which is what GroupSession
// calls; `enroll(id)` issues everything and needs a full authority.
//
// Draw-order rule: construction draws from one DRBG in a fixed order —
// Schnorr group, GQ PKG, SOK/pairing, DSA, ECDSA — and GQ and SOK
// extraction draw nothing. So an ID-based authority's parameters and GQ
// secrets are bit-identical to those of the full authority with the same
// (profile, seed). Only DSA/ECDSA enrollment draws after construction, so
// which baseline keys a member gets depends on the enrollments before it.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "ec/curve.h"
#include "mpint/mod_context.h"
#include "mpint/prime.h"
#include "pairing/tate.h"
#include "pki/certificate.h"
#include "sig/dsa.h"
#include "sig/ecdsa.h"
#include "sig/gq.h"
#include "sig/sok.h"

namespace idgka::gka {

using mpint::BigInt;

/// Parameter size profiles.
enum class SecurityProfile {
  kPaper,  ///< the paper's sizes: |p| = 1024, |q| = 160, |n| = 1024
  kTest,   ///< fast CI sizes: |p| = 256, |q| = 160, |n| = 256
  kTiny,   ///< property-sweep sizes: |p| = 192, |q| = 128, |n| = 192
};

/// Modular-arithmetic view of the (p, q, g) key-agreement group, threaded
/// down into the ring computations (gka::bd) so they never re-derive
/// per-modulus state or re-exponentiate the generator from scratch.
struct GroupCtx {
  const mpint::ModContext& p;       ///< mod-p context
  const BigInt& q;                  ///< exponent group order
  const mpint::FixedBaseTable& g;   ///< comb table for the generator

  /// Fixed-base g^e mod p through the comb table.
  [[nodiscard]] BigInt gpow(const BigInt& e) const { return p.exp(g, e); }
};

/// Shared public parameters for the key-agreement group and GQ signatures.
struct SystemParams {
  mpint::SchnorrGroup grp;  ///< (p, q, g) — BD exponentiation group
  sig::GqParams gq;         ///< (n, e) — GQ verification parameters
  SecurityProfile profile = SecurityProfile::kTest;

  /// Cached modular context for mod-p arithmetic (shared, immutable).
  std::shared_ptr<const mpint::ModContext> ctx_p;
  /// Cached modular context for mod-n arithmetic.
  std::shared_ptr<const mpint::ModContext> ctx_n;
  /// Fixed-base comb table for the group generator g (exponents mod q).
  std::shared_ptr<const mpint::FixedBaseTable> g_comb;
  /// SSN authenticator base h in Z_n^* (pure function of the GQ params) and
  /// its comb table (exponents up to |n| bits).
  BigInt h_ssn;
  std::shared_ptr<const mpint::FixedBaseTable> h_comb;

  /// g^e mod p through the cached comb table — the protocols' hottest call.
  [[nodiscard]] BigInt gpow(const BigInt& e) const { return ctx_p->exp(*g_comb, e); }
  /// h^e mod n through the cached comb table (SSN authenticators).
  [[nodiscard]] BigInt hpow(const BigInt& e) const { return ctx_n->exp(*h_comb, e); }
  /// The ring-computation view handed to gka::bd.
  [[nodiscard]] GroupCtx group() const { return GroupCtx{*ctx_p, grp.q, *g_comb}; }

  [[nodiscard]] std::size_t element_bits() const { return grp.p.bit_length(); }
  [[nodiscard]] std::size_t gq_t_bits() const { return gq.n.bit_length(); }
  [[nodiscard]] std::size_t gq_s_bits() const { return gq.n.bit_length(); }
};

/// Protocol variant (the five columns of Table 1).
enum class Scheme { kProposed, kBdSok, kBdEcdsa, kBdDsa, kSsn };

/// True for the schemes that need no pairing or certificate material
/// (the proposed scheme and SSN read only the GQ parameters and secret).
[[nodiscard]] constexpr bool is_id_based_gq(Scheme scheme) {
  return scheme == Scheme::kProposed || scheme == Scheme::kSsn;
}

/// Per-member credential bundle. A scoped enrollment fills only its
/// scheme's fields and leaves the rest at their "absent" defaults: zero
/// GQ secret, SOK secret at infinity, empty certificates.
struct MemberCredentials {
  std::uint32_t id = 0;
  // Proposed scheme and SSN (GQ ID-based).
  BigInt gq_secret;  ///< S_U = H(U)^d mod n
  // SOK baseline.
  ec::Point sok_secret = ec::Point::at_infinity();  ///< S_ID = s * MapToPoint(ID)
  // Certificate-based baselines.
  sig::DsaKeyPair dsa_key;
  pki::Certificate dsa_cert;
  sig::EcdsaKeyPair ecdsa_key;
  pki::Certificate ecdsa_cert;

  /// True when this bundle holds every credential `scheme` reads.
  [[nodiscard]] bool holds(Scheme scheme) const;
};

/// The trusted authority: GQ PKG, and on a full authority also the SOK PKG
/// and the DSA/ECDSA CAs.
///
/// Deterministic under (profile, seed); a fixed seed reproduces identical
/// parameters and credentials, which the tests and benches rely on.
class Authority {
 public:
  /// The full authority: provisions every scheme.
  Authority(SecurityProfile profile, std::uint64_t seed);
  /// The authority `scheme` needs: ID-based only (GQ PKG + SSN base) for
  /// the proposed scheme and SSN, the full authority for any BD baseline.
  Authority(SecurityProfile profile, std::uint64_t seed, Scheme scheme);

  /// True when this authority can enroll members for `scheme`.
  [[nodiscard]] bool provisions(Scheme scheme) const {
    return is_id_based_gq(scheme) || full_;
  }

  [[nodiscard]] const SystemParams& params() const { return params_; }
  // Baseline material; each throws std::logic_error on an ID-based authority.
  [[nodiscard]] const pairing::SsGroup& ss_group() const { return *baseline(ss_group_); }
  [[nodiscard]] const pairing::TatePairing& tate() const { return *baseline(tate_); }
  [[nodiscard]] const ec::Point& sok_public_key() const {
    return baseline(sok_pkg_)->public_key();
  }
  [[nodiscard]] const sig::DsaParams& dsa_params() const { return baseline(dsa_params_); }
  /// Cached mod-p context for the DSA baseline parameters.
  [[nodiscard]] const mpint::ModContext& dsa_ctx() const { return *baseline(dsa_ctx_); }
  [[nodiscard]] const ec::Curve& curve() const { return *baseline(curve_); }
  [[nodiscard]] const pki::CertificateAuthority& dsa_ca() const { return *baseline(dsa_ca_); }
  [[nodiscard]] const pki::CertificateAuthority& ecdsa_ca() const {
    return *baseline(ecdsa_ca_);
  }

  /// Enrolls a member for every scheme: extracts both ID-based keys and
  /// issues DSA and ECDSA certificates. Needs a full authority.
  [[nodiscard]] MemberCredentials enroll(std::uint32_t id);
  /// Enrolls a member for `scheme` only (see MemberCredentials). Throws
  /// std::invalid_argument when this authority does not provision it.
  [[nodiscard]] MemberCredentials enroll(std::uint32_t id, Scheme scheme);

 private:
  Authority(SecurityProfile profile, std::uint64_t seed, bool full);

  /// `member` if this is a full authority; throws std::logic_error otherwise.
  template <typename T>
  [[nodiscard]] const T& baseline(const T& member) const {
    if (!full_) throw std::logic_error("Authority: ID-based authority holds no baseline material");
    return member;
  }

  // Draw a baseline key pair and certificate; full authority only.
  void issue_dsa(MemberCredentials& cred);
  void issue_ecdsa(MemberCredentials& cred);

  bool full_;
  SystemParams params_;
  std::unique_ptr<sig::GqPkg> gq_pkg_;
  std::unique_ptr<pairing::SsGroup> ss_group_;
  std::unique_ptr<pairing::TatePairing> tate_;
  std::unique_ptr<sig::SokPkg> sok_pkg_;
  sig::DsaParams dsa_params_;
  std::shared_ptr<const mpint::ModContext> dsa_ctx_;
  const ec::Curve* curve_ = nullptr;
  std::unique_ptr<pki::CertificateAuthority> dsa_ca_;
  std::unique_ptr<pki::CertificateAuthority> ecdsa_ca_;
  std::unique_ptr<mpint::Rng> rng_;
};

/// Size triple for a profile: (|p|, |q|, |n|) bits.
struct ProfileSizes {
  std::size_t p_bits;
  std::size_t q_bits;
  std::size_t gq_bits;
  std::size_t ss_p_bits;
  std::size_t ss_q_bits;
};
[[nodiscard]] ProfileSizes profile_sizes(SecurityProfile profile);

}  // namespace idgka::gka
