// ModContext — the shared modular-arithmetic context layer.
//
// Every protocol in the repository (BD, ING, SSN, the proposed GKA, GQ/DSA
// signatures, EC field arithmetic, the pairing field) bottoms out in modular
// multiplication and exponentiation. A ModContext is an immutable per-modulus
// object that derives everything expensive exactly once — Montgomery
// constants (n', R^2, limb count) for odd moduli — and exposes:
//
//   * mul/exp/inv with a fixed k-ary window (k = 4 or 5, chosen from the
//     modulus size, overridable) running entirely in the Montgomery domain;
//   * a residue-domain API (to_residue/from_residue plus mul/sqr/exp over
//     Residue operands) for callers that chain many operations: one
//     conversion in and one out per chain, fixed-width limb storage, and a
//     heap-allocation-free steady state — working sets come from a
//     thread-local limb arena, operands from the Residue's inline array;
//   * a dedicated squaring kernel (operand-scanning with doubled
//     off-diagonal terms + separate Montgomery reduction) that every
//     exponentiation ladder uses for its squaring chain, at ~3/4 the
//     low-level multiply count of the general CIOS product;
//   * an optional fixed-base comb table (make_fixed_base / exp overload) for
//     the repeated-generator case — the GKA hot path, where every member
//     exponentiates the same g — trading O(2^teeth) precomputed entries for
//     ~teeth-fold fewer multiplications per call;
//   * an even-modulus fallback (generic windowed exponentiation over
//     schoolbook mod-mul), so any modulus > 1 has a context.
//
// It is the library's one modular-exponentiation API. Long-lived callers
// (gka::SystemParams, sig::GqPkg, ec::Curve, pairing::Fp2Ctx,
// pki::CertificateAuthority) construct contexts once and thread
// `const ModContext&` down; a one-off exponentiation is
// `ModContext(m).exp(base, e)`, which pays the O(size^2) context derivation
// in the open. Every Montgomery product and square goes through two raw
// kernels chosen once per context (montgomery.h): x86-64 BMI2+ADX kernels
// specialised by limb count for moduli up to Residue::kInlineLimbs, the
// portable runtime-width loops everywhere else. Both give the same canonical
// result, so the choice never shows in an output.
//
// The layer also keeps process-wide operation counters (exponentiations,
// low-level modular multiplications and — separately — modular squarings,
// folded in once per public call) so the simulation metrics can separate
// crypto cost from event-loop cost and attribute the squaring-kernel
// discount. Totals are order-independent sums and therefore deterministic
// under multithreaded protocol runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpint/bigint.h"
#include "mpint/montgomery.h"
#include "mpint/residue.h"

namespace idgka::mpint {

/// Process-wide crypto work counters (monotonic totals; take two snapshots
/// and subtract to attribute work to a region).
struct OpCounts {
  std::uint64_t exps = 0;        ///< public exponentiation calls
  std::uint64_t mod_muls = 0;    ///< low-level general modular multiplications
  std::uint64_t mod_sqrs = 0;    ///< low-level modular squarings (dedicated kernel)
  std::uint64_t multi_exps = 0;  ///< public joint multi-exponentiation calls
};

/// Snapshot of the process-wide counters.
[[nodiscard]] OpCounts op_counts();

class ModContext;

/// Precomputed comb table for one (context, base, exponent-width) triple.
/// Built by ModContext::make_fixed_base; consumed by the exp overload.
/// Copyable value type; entries live in the Montgomery domain of the owning
/// context's modulus (a modulus fingerprint is kept and checked on use) and
/// are stored as one flat limb array — entry j occupies limbs
/// [j*stride, (j+1)*stride).
class FixedBaseTable {
 public:
  [[nodiscard]] const BigInt& base() const { return base_; }
  /// Widest exponent (in bits) the comb covers; wider falls back to the
  /// generic ladder.
  [[nodiscard]] std::size_t max_exp_bits() const { return bits_; }
  [[nodiscard]] unsigned teeth() const { return teeth_; }
  /// True when the comb is usable (odd modulus); false means every exp via
  /// this table takes the generic path.
  [[nodiscard]] bool comb_available() const { return teeth_ != 0; }
  /// Memory footprint of the precomputed entries.
  [[nodiscard]] std::size_t table_bytes() const { return table_.size() * sizeof(Limb); }

 private:
  friend class ModContext;
  using Limb = BigInt::Limb;

  [[nodiscard]] const Limb* entry(std::size_t j) const { return table_.data() + j * stride_; }

  BigInt base_;
  std::vector<Limb> mod_fingerprint_;  // limbs of the modulus it was built for
  std::size_t bits_ = 0;               // exponent coverage
  std::size_t block_ = 0;              // comb block size d = ceil(bits / teeth)
  std::size_t stride_ = 0;             // limbs per entry (= modulus limb count)
  unsigned teeth_ = 0;                 // 0 = comb unavailable
  std::vector<Limb> table_;            // 2^teeth entries, flat, Montgomery domain
};

/// Immutable per-modulus modular-arithmetic context. Valid for any modulus
/// > 1; odd moduli get the Montgomery fast path, even moduli a generic one.
class ModContext {
 public:
  /// `window_bits` = 0 picks automatically (4, or 5 for moduli >= 512 bits);
  /// explicit values are clamped to [2, 8]. The value is an upper bound —
  /// exp() shrinks the window for short exponents so the 2^w-entry table
  /// pays for itself. Throws std::invalid_argument unless modulus > 1.
  explicit ModContext(BigInt modulus, unsigned window_bits = 0);

  [[nodiscard]] const BigInt& modulus() const { return n_; }
  [[nodiscard]] unsigned window_bits() const { return window_; }
  /// True when the Montgomery fast path is active (odd modulus).
  [[nodiscard]] bool montgomery() const { return mont_; }
  /// Limb count of a Residue for this context (modulus width in limbs).
  [[nodiscard]] std::size_t limb_count() const { return mont_ ? k_ : n_.limb_count(); }

  // ------------------------------------------------------------ BigInt API

  /// (a * b) mod n for any a, b (reduced internally).
  [[nodiscard]] BigInt mul(const BigInt& a, const BigInt& b) const;

  /// base^e mod n. Negative e inverts the base first (throws
  /// std::domain_error when not invertible). Fixed k-ary window.
  [[nodiscard]] BigInt exp(const BigInt& base, const BigInt& e) const;

  /// Fixed-base exponentiation through a comb table built by
  /// make_fixed_base. Falls back to the generic ladder when the exponent is
  /// negative or wider than the table, or the comb is unavailable. Throws
  /// std::invalid_argument when the table belongs to a different modulus.
  [[nodiscard]] BigInt exp(const FixedBaseTable& table, const BigInt& e) const;

  /// a^(-1) mod n; throws std::domain_error if not invertible.
  [[nodiscard]] BigInt inv(const BigInt& a) const;

  /// Joint multi-exponentiation: prod_i bases[i]^{exps[i]} mod n, evaluated
  /// in one pass instead of |bases| independent exp() calls. Terms are split
  /// by exponent width: narrow exponents (<= 64 bits — the BD ring's small
  /// integer powers, batch-verification scalars) go through Pippenger bucket
  /// aggregation, wide ones through Shamir/Straus interleaving with shared
  /// squarings (arity <= 8) or Pippenger (wider). Runs Montgomery-native for
  /// odd moduli; even moduli fall back to sequential generic exponentiation.
  /// Zero exponents drop their term; negative exponents invert the base
  /// first (throws std::domain_error when not invertible), matching exp().
  /// Throws std::invalid_argument when the span sizes differ.
  [[nodiscard]] BigInt multi_exp(std::span<const BigInt> bases,
                                 std::span<const BigInt> exps) const;

  /// prod_i values[i] mod n. Montgomery-native for odd moduli: operands stay
  /// canonical and a single R^(k-1) fix-up cancels the accumulated deficit,
  /// so a width-n product costs ~n low-level multiplications instead of the
  /// ~4n of chained mul() calls — with no per-term conversions or heap
  /// traffic regardless of width.
  [[nodiscard]] BigInt product(std::span<const BigInt> values) const;

  /// Builds a comb table for repeated exponentiation of `base` with
  /// exponents up to `max_exp_bits` bits. `teeth` = 0 picks the default (6:
  /// 64 entries, ~6x fewer multiplications than the plain ladder). Entry
  /// count is 2^teeth; teeth is clamped to [1, 8].
  [[nodiscard]] FixedBaseTable make_fixed_base(const BigInt& base,
                                               std::size_t max_exp_bits,
                                               unsigned teeth = 0) const;

  // ----------------------------------------------------------- Residue API
  //
  // One conversion in (to_residue) and one out (from_residue) bracket an
  // arbitrarily long chain of in-domain operations; every operation below
  // is heap-allocation-free in steady state (Montgomery moduli up to
  // Residue::kInlineLimbs) and aliasing-safe — out may be a or b.

  /// Converts a (any sign/size; reduced internally) into the context's
  /// residue domain.
  [[nodiscard]] Residue to_residue(const BigInt& a) const;

  /// Converts a residue back to a canonical BigInt in [0, n).
  [[nodiscard]] BigInt from_residue(const Residue& r) const;

  /// The residue representing 1.
  [[nodiscard]] Residue one_residue() const;

  /// out = a + b in the residue domain. Both domains (Montgomery and
  /// canonical) are linear, so this is one limb addition plus at most one
  /// conditional subtraction of the modulus — no division, no allocation.
  void add(const Residue& a, const Residue& b, Residue& out) const;

  /// out = a - b in the residue domain (limb subtraction, conditional
  /// add-back of the modulus).
  void sub(const Residue& a, const Residue& b, Residue& out) const;

  /// out = a * b in the residue domain.
  void mul(const Residue& a, const Residue& b, Residue& out) const;

  /// out = a^2 in the residue domain, through the dedicated squaring kernel
  /// (~3/4 the limb multiplications of the general product).
  void sqr(const Residue& a, Residue& out) const;

  /// out = a^(-1) in the residue domain; throws std::domain_error when a is
  /// not invertible. Odd moduli run the binary-GCD kernel (bingcd.h) on the
  /// raw limbs — no division, no heap traffic — and put the Montgomery
  /// factor back with two R^2 products; even moduli round-trip through
  /// inv(BigInt). Batch inversion callers (EC table normalisation) pay one
  /// of these per batch.
  void inv(const Residue& a, Residue& out) const;

  /// out = base^e in the residue domain. Negative e round-trips through
  /// BigInt inversion (throws std::domain_error when not invertible); e >= 0
  /// stays entirely in-domain and allocation-free.
  void exp(const Residue& base, const BigInt& e, Residue& out) const;

  /// out = comb-table base^e in the residue domain (same fallback rules as
  /// the BigInt overload; the fallback converts through BigInt).
  void exp(const FixedBaseTable& table, const BigInt& e, Residue& out) const;

 private:
  using Limb = BigInt::Limb;

  /// Per-call work accumulator; public entry points fold it into the
  /// process-wide counters exactly once.
  struct Ops {
    std::uint64_t muls = 0;
    std::uint64_t sqrs = 0;
  };
  void fold(const Ops& ops) const;

  // Raw Montgomery kernels (odd moduli), forwarding to kernels_. All
  // pointers reference k_-limb little-endian magnitudes unless noted; `out`
  // may alias any input. `scratch` must hold at least 2*k_ + 2 limbs.
  void mont_mul_raw(const Limb* a, const Limb* b, Limb* out, Limb* scratch) const;
  void mont_sqr_raw(const Limb* a, Limb* out, Limb* scratch) const;
  // Loads |a| mod n into the k_-limb `out` (canonical domain, no R factor).
  void load_canonical(const BigInt& a, Limb* out) const;
  // out = canonical(a) * R mod n (the Montgomery conversion).
  void to_mont_raw(const BigInt& a, Limb* out, Limb* scratch, Ops& ops) const;
  // Canonicalizes a Montgomery-domain value back into a BigInt.
  [[nodiscard]] BigInt from_mont_raw(const Limb* a, Limb* scratch, Ops& ops) const;
  // Montgomery-domain exponentiation core: out = base^e (e >= 1), all raw.
  void exp_mont_raw(const Limb* base, const BigInt& e, Limb* out, Ops& ops) const;
  [[nodiscard]] BigInt exp_mont(const BigInt& base, const BigInt& e, Ops& ops) const;
  [[nodiscard]] BigInt exp_comb(const FixedBaseTable& table, const BigInt& e,
                                Ops& ops) const;
  void exp_comb_raw(const FixedBaseTable& table, const BigInt& e, Limb* out,
                    Ops& ops) const;
  // Generic path (even moduli): windowed square-and-multiply over mod_mul.
  [[nodiscard]] BigInt exp_generic(const BigInt& base, const BigInt& e, Ops& ops) const;
  [[nodiscard]] BigInt exp_any(const BigInt& base, const BigInt& e, Ops& ops) const;
  // Multi-exponentiation engines over Montgomery-domain bases (odd moduli).
  // Both require every term's exponent to be positive; results land in the
  // k_-limb `out`.
  void straus_mont(std::span<const Residue* const> bases,
                   std::span<const BigInt* const> exps, Limb* out, Ops& ops) const;
  void pippenger_mont(std::span<const Residue* const> bases,
                      std::span<const BigInt* const> exps, Limb* out, Ops& ops) const;

  BigInt n_;
  bool mont_ = false;
  unsigned window_ = 4;
  std::vector<Limb> n_limbs_;
  std::size_t k_ = 0;            // limb count of the modulus
  Limb n0_inv_ = 0;              // -n^{-1} mod 2^64 (Montgomery only)
  BigInt rr_;                    // R^2 mod n, R = 2^(64k)
  std::vector<Limb> rr_limbs_;   // R^2 mod n, zero-padded to k_ limbs
  std::vector<Limb> one_mont_;   // R mod n (k_ limbs)
  mont::Kernels kernels_;        // mont::select(k_) (Montgomery only)
};

/// Square root modulo a prime p with p % 4 == 3 (MapToPoint on the
/// supersingular curve, toy-curve generation), through the caller's context
/// for p. On success sets `out` and returns true.
bool sqrt_mod_p3(const ModContext& ctx, const BigInt& a, BigInt& out);

}  // namespace idgka::mpint
