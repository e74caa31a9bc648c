// Short-Weierstrass elliptic curve arithmetic over prime fields.
//
// Substrate for the certificate-based ECDSA baseline ("BD with ECDSA") that
// the paper compares against, and for the SOK pairing group. Points are
// affine externally; every scalar multiplication runs on Jacobian
// coordinates in the field's residue domain and adds affine table points
// with mixed Jacobian+affine additions:
//
//   * fixed base (the generator, a CA's public key): a 6-tooth comb over
//     64 precomputed affine points (FixedBase), about |n|/6 doublings;
//   * variable base (SOK extract, cofactor clearing): width-5 wNAF over the
//     8 odd multiples P, 3P, ..., 15P, built per call on the stack;
//   * k1*G + k2*Q (ECDSA verification): G's comb columns interleaved into
//     Q's wNAF ladder, or comb + comb when Q has a table.
//
// Table points are normalised to affine with one batch inversion; doubling
// uses the 3M+5S formula when a = -3 (secp160r1, P-256). The residue-domain
// overloads (ResiduePoint in/out) are heap-allocation-free in steady state;
// the Point overloads add one conversion at each end.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mpint/bigint.h"
#include "mpint/mod_context.h"
#include "mpint/random.h"
#include "mpint/residue.h"

namespace idgka::ec {

using mpint::BigInt;

/// Affine point; infinity is represented by `infinity == true`.
struct Point {
  BigInt x;
  BigInt y;
  bool infinity = false;

  [[nodiscard]] static Point at_infinity() { return Point{{}, {}, true}; }
  bool operator==(const Point& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
};

/// Affine point with coordinates in the curve's field() residue domain —
/// the form the scalar multiplications consume and produce without
/// touching the heap.
struct ResiduePoint {
  mpint::Residue x;
  mpint::Residue y;
  bool infinity = false;
};

/// Comb table for repeated scalar multiplication of one point: entry
/// b in [1, 64) is sum over the set bits t of b of 2^(t*d) * P, with
/// d = ceil(|n| / 6), stored affine in the field's residue domain at the
/// modulus width (2 * 64 * limbs(p) limbs). Built by Curve::make_fixed_base;
/// usable only with the curve that built it (the field modulus is checked).
class FixedBase {
 public:
  [[nodiscard]] const Point& base() const { return base_; }
  /// Memory footprint of the precomputed coordinates.
  [[nodiscard]] std::size_t table_bytes() const { return xy_.size() * sizeof(BigInt::Limb); }

 private:
  friend class Curve;
  Point base_;
  BigInt field_;                      // modulus of the building curve's field
  std::vector<BigInt::Limb> xy_;      // entry j: x at 2j*stride, y at (2j+1)*stride
  std::uint64_t inf_mask_ = 0;        // bit j set: entry j is the point at infinity
};

/// y^2 = x^3 + a*x + b over F_p with base point G of prime order n and
/// cofactor h.
class Curve {
 public:
  /// Builds the curve and G's comb table. Throws std::invalid_argument when
  /// G is not on the curve.
  Curve(std::string name, BigInt p, BigInt a, BigInt b, Point g, BigInt n, BigInt h);
  /// Same, with G found on the curve itself: `derive` receives the curve
  /// before its generator exists — the group law and mul_raw work, nothing
  /// that reads generator() does — and returns G.
  Curve(std::string name, BigInt p, BigInt a, BigInt b,
        const std::function<Point(const Curve&)>& derive, BigInt n, BigInt h);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const BigInt& p() const { return p_; }
  [[nodiscard]] const BigInt& a() const { return a_; }
  [[nodiscard]] const BigInt& b() const { return b_; }
  [[nodiscard]] const Point& generator() const { return g_; }
  [[nodiscard]] const BigInt& order() const { return n_; }
  [[nodiscard]] const BigInt& cofactor() const { return h_; }
  /// Field element byte width.
  [[nodiscard]] std::size_t field_bytes() const { return (p_.bit_length() + 7) / 8; }
  /// Cached modular context for the base field F_p; ResiduePoint
  /// coordinates live in its residue domain (Montgomery form).
  [[nodiscard]] const mpint::ModContext& field() const { return fctx_; }
  /// G's comb table, built with the curve.
  [[nodiscard]] const FixedBase& generator_table() const { return g_table_; }

  /// Is `pt` on the curve (infinity counts as on-curve)?
  [[nodiscard]] bool is_on_curve(const Point& pt) const;

  /// Point addition (complete for distinct/equal/infinity operands).
  [[nodiscard]] Point add(const Point& p1, const Point& p2) const;
  /// Point doubling.
  [[nodiscard]] Point dbl(const Point& pt) const;
  /// Additive inverse.
  [[nodiscard]] Point neg(const Point& pt) const;

  /// Affine boundary conversions for the residue-domain overloads.
  [[nodiscard]] ResiduePoint to_residue(const Point& pt) const;
  [[nodiscard]] Point from_residue(const ResiduePoint& pt) const;

  /// Comb table for `pt` (any point; entries that land on infinity are
  /// kept as such). Scalars used with it are reduced modulo n.
  [[nodiscard]] FixedBase make_fixed_base(const Point& pt) const;

  /// Scalar multiplication k*P, k any sign (negative k uses -P). The scalar
  /// is reduced modulo the group order first; P == G takes G's comb.
  [[nodiscard]] Point mul(const BigInt& k, const Point& pt) const;
  /// k*P through P's comb table (k reduced modulo n).
  [[nodiscard]] Point mul(const BigInt& k, const FixedBase& base) const;
  /// Scalar multiplication without order reduction (for points whose order
  /// is not n, e.g. cofactor clearing in MapToPoint); wNAF-5. |k| must fit
  /// in 2048 bits (std::invalid_argument otherwise).
  [[nodiscard]] Point mul_raw(const BigInt& k, const Point& pt) const;
  /// k1*G + k2*Q: G's comb interleaved into Q's wNAF ladder.
  [[nodiscard]] Point mul_add(const BigInt& k1, const BigInt& k2, const Point& q) const;
  /// k1*G + k2*Q with a comb table for Q.
  [[nodiscard]] Point mul_add(const BigInt& k1, const BigInt& k2, const FixedBase& q) const;

  /// Residue-domain forms of the above; no heap allocation, provided the
  /// scalars of mul/mul_add already lie in [0, n) (others are reduced).
  void mul(const BigInt& k, const FixedBase& base, ResiduePoint& out) const;
  void mul_raw(const BigInt& k, const ResiduePoint& pt, ResiduePoint& out) const;
  void mul_add(const BigInt& k1, const BigInt& k2, const ResiduePoint& q,
               ResiduePoint& out) const;
  void mul_add(const BigInt& k1, const BigInt& k2, const FixedBase& q,
               ResiduePoint& out) const;

 private:
  using Limb = BigInt::Limb;
  using Residue = mpint::Residue;

  // Jacobian coordinates (X, Y, Z): x = X/Z^2, y = Y/Z^3; infinity Z == 0.
  struct Jac {
    Residue x;
    Residue y;
    Residue z;
  };
  // Scratch registers for the in-place point formulas, sized once per
  // scalar multiplication.
  struct Work {
    explicit Work(const mpint::ModContext& f)
        : t0(f), t1(f), t2(f), t3(f), t4(f), t5(f), tx(f), ty(f) {}
    Residue t0, t1, t2, t3, t4, t5;
    Residue tx, ty;  // table point being added
  };
  // Affine points at the modulus width: entry j's x at xy + 2j*stride.
  struct TableView {
    const Limb* xy;
    std::uint64_t inf_mask;
  };

  [[nodiscard]] std::size_t stride() const { return fctx_.limb_count(); }
  [[nodiscard]] std::size_t comb_block() const;
  [[nodiscard]] Jac make_jac() const;  // the point at infinity
  [[nodiscard]] Jac to_jac(const Point& pt) const;
  [[nodiscard]] Point from_jac(const Jac& j) const;
  void set_inf(Jac& p) const;
  void set_affine(Jac& p, const Residue& x, const Residue& y) const;
  void check_table(const FixedBase& t) const;

  // In-place group law: p = 2p, p += q (full Jacobian), p += (x, y) (mixed).
  void dbl(Jac& p, Work& w) const;
  void add(Jac& p, const Jac& q, Work& w) const;
  void add_affine(Jac& p, const Residue& x, const Residue& y, Work& w) const;
  // p += +-entry j of `t` (skipped when the entry is infinity).
  void add_entry(Jac& p, TableView t, unsigned j, bool negate, Work& w) const;

  // Writes the affine form of pts[0, count) (count <= 64) into xy/inf with
  // one inversion; `prefix` holds count scratch residues.
  void to_affine(const Jac* pts, std::size_t count, Residue* prefix, Limb* xy,
                 std::uint64_t& inf) const;
  void to_affine(const Jac& p, ResiduePoint& out) const;
  // xy/inf <- the 8 odd multiples P, 3P, ..., 15P (wNAF-5 table).
  void odd_multiples(const ResiduePoint& pt, Limb* xy, std::uint64_t& inf, Work& w) const;
  // Comb column i of k: bit t of the result is bit i + t*d of |k|.
  [[nodiscard]] unsigned comb_column(const BigInt& k, std::size_t i, std::size_t d) const;
  // One comb term of a ladder: scalar (in [0, n)) and its table.
  struct Comb {
    const BigInt* k;
    const FixedBase* table;
  };
  // The one ladder behind every scalar multiplication: out = sum of the
  // comb terms + k*pt by width-5 wNAF (no wNAF term when k is null).
  void ladder(std::span<const Comb> combs, const BigInt* k, const ResiduePoint* pt,
              ResiduePoint& out) const;
  // k itself when already in [0, n), else k mod n written to tmp.
  [[nodiscard]] const BigInt& reduced(const BigInt& k, BigInt& tmp) const;

  std::string name_;
  BigInt p_, a_, b_;
  Point g_;
  BigInt n_, h_;
  mpint::ModContext fctx_;    // per-curve field context (Montgomery constants)
  Residue a_r_, b_r_;         // curve coefficients in the residue domain
  Residue zero_r_, one_r_;
  bool a_is_minus3_ = false;  // selects the 3M+5S doubling
  bool a_is_one_ = false;     // drops the a*Z^4 product from the general one
  FixedBase g_table_;
};

/// Named curves used by the benchmarks and baselines.
/// SEC 2 secp160r1 — the paper's "160-bit ECDSA".
[[nodiscard]] const Curve& secp160r1();
/// NIST P-256 — a modern reference point for the ablation benches.
[[nodiscard]] const Curve& p256();

/// Brute-force-counted toy curve with prime order over a `bits`-bit prime
/// (bits <= 28). Used to run very large simulated groups where operation
/// *counts*, not cryptographic strength, are what the energy model consumes.
[[nodiscard]] Curve generate_toy_curve(mpint::Rng& rng, std::size_t bits);

}  // namespace idgka::ec
