#include "ec/curve.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "mpint/prime.h"

namespace idgka::ec {

namespace {

using mpint::Residue;
using Limb = BigInt::Limb;

constexpr unsigned kTeeth = 6;                 // comb teeth: 2^6 = 64 entries
constexpr std::size_t kCombEntries = std::size_t{1} << kTeeth;
constexpr unsigned kWindow = 5;                // wNAF width: odd digits in [-15, 15]
constexpr std::size_t kOddMultiples = std::size_t{1} << (kWindow - 2);  // P, 3P, ..., 15P
constexpr std::size_t kMaxScalarBits = 64 * Residue::kInlineLimbs;
constexpr std::size_t kMaxLimbs = Residue::kInlineLimbs;

// Bits [pos, pos + count) of |k|, count < 64.
unsigned bits_at(const BigInt& k, std::size_t pos, unsigned count) {
  const std::size_t limb = pos / 64;
  const unsigned shift = pos % 64;
  Limb v = k.limb(limb) >> shift;
  if (shift != 0 && shift + count > 64) v |= k.limb(limb + 1) << (64 - shift);
  return static_cast<unsigned>(v & ((Limb{1} << count) - 1));
}

// Width-5 NAF of |k| (negated when `negate`) into naf[0, len), len =
// bit_length + 1: every nonzero digit is odd, |digit| <= 15, and any two
// nonzero digits are at least kWindow positions apart.
std::size_t recode_wnaf(const BigInt& k, bool negate, std::int8_t* naf) {
  const std::size_t len = k.bit_length() + 1;
  std::memset(naf, 0, len);
  unsigned carry = 0;
  for (std::size_t bit = 0; bit < len;) {
    if (static_cast<unsigned>(k.bit(bit)) == carry) {
      ++bit;
      continue;
    }
    const unsigned now = static_cast<unsigned>(std::min<std::size_t>(kWindow, len - bit));
    int word = static_cast<int>(bits_at(k, bit, now) + carry);
    carry = static_cast<unsigned>(word >> (kWindow - 1)) & 1U;
    word -= static_cast<int>(carry << kWindow);
    naf[bit] = static_cast<std::int8_t>(negate ? -word : word);
    bit += now;
  }
  return len;
}

}  // namespace

Curve::Curve(std::string name, BigInt p, BigInt a, BigInt b, Point g, BigInt n, BigInt h)
    : Curve(std::move(name), std::move(p), std::move(a), std::move(b),
            [&g](const Curve&) { return g; }, std::move(n), std::move(h)) {}

Curve::Curve(std::string name, BigInt p, BigInt a, BigInt b,
             const std::function<Point(const Curve&)>& derive, BigInt n, BigInt h)
    : name_(std::move(name)),
      p_(std::move(p)),
      a_(std::move(a)),
      b_(std::move(b)),
      g_(Point::at_infinity()),  // no generator while `derive` runs
      n_(std::move(n)),
      h_(std::move(h)),
      fctx_(p_),
      a_r_(fctx_.to_residue(a_)),
      b_r_(fctx_.to_residue(b_)),
      zero_r_(fctx_),
      one_r_(fctx_.one_residue()),
      a_is_minus3_(a_r_ == fctx_.to_residue(BigInt{-3})),
      a_is_one_(a_r_ == one_r_) {
  Point g = derive(*this);
  if (!is_on_curve(g)) throw std::invalid_argument("Curve: generator not on curve");
  g_ = std::move(g);
  g_table_ = make_fixed_base(g_);
}

// All point arithmetic below runs in fctx_'s residue domain (Montgomery form
// for the odd field primes): coordinates convert once at the affine boundary
// and every field operation in between is a raw limb kernel with no
// division-based reduction and no heap traffic.

bool Curve::is_on_curve(const Point& pt) const {
  if (pt.infinity) return true;
  const Residue x = fctx_.to_residue(pt.x);
  const Residue y = fctx_.to_residue(pt.y);
  Residue lhs;
  fctx_.sqr(y, lhs);  // y^2
  Residue rhs;
  fctx_.sqr(x, rhs);
  fctx_.mul(rhs, x, rhs);  // x^3
  Residue t;
  fctx_.mul(a_r_, x, t);
  fctx_.add(rhs, t, rhs);
  fctx_.add(rhs, b_r_, rhs);  // x^3 + a*x + b
  return lhs == rhs;
}

Point Curve::neg(const Point& pt) const {
  if (pt.infinity) return pt;
  return Point{pt.x, pt.y.is_zero() ? BigInt{} : p_ - pt.y, false};
}

std::size_t Curve::comb_block() const {
  return std::max<std::size_t>(1, (n_.bit_length() + kTeeth - 1) / kTeeth);
}

Curve::Jac Curve::make_jac() const { return Jac{Residue(fctx_), Residue(fctx_), Residue(fctx_)}; }

void Curve::set_inf(Jac& p) const { p.z = zero_r_; }

void Curve::set_affine(Jac& p, const Residue& x, const Residue& y) const {
  p.x = x;
  p.y = y;
  p.z = one_r_;
}

void Curve::dbl(Jac& p, Work& w) const {
  // Infinity stays put; y == 0 yields Z3 = 2*Y*Z = 0 in both formulas.
  if (p.z.is_zero()) return;
  const mpint::ModContext& f = fctx_;
  if (a_is_minus3_) {
    // dbl-2001-b, 3M + 5S: alpha = 3*(X - Z^2)*(X + Z^2).
    f.sqr(p.z, w.t0);        // delta = Z^2
    f.sqr(p.y, w.t1);        // gamma = Y^2
    f.mul(p.x, w.t1, w.t2);  // beta = X*gamma
    f.sub(p.x, w.t0, w.t3);
    f.add(p.x, w.t0, w.t4);
    f.mul(w.t3, w.t4, w.t3);
    f.add(w.t3, w.t3, w.t4);
    f.add(w.t3, w.t4, w.t3);  // alpha
    // Z3 = (Y + Z)^2 - gamma - delta
    f.add(p.y, p.z, p.z);
    f.sqr(p.z, p.z);
    f.sub(p.z, w.t1, p.z);
    f.sub(p.z, w.t0, p.z);
    // X3 = alpha^2 - 8*beta
    f.add(w.t2, w.t2, w.t4);
    f.add(w.t4, w.t4, w.t4);  // 4*beta
    f.add(w.t4, w.t4, w.t5);  // 8*beta
    f.sqr(w.t3, p.x);
    f.sub(p.x, w.t5, p.x);
    // Y3 = alpha*(4*beta - X3) - 8*gamma^2
    f.sub(w.t4, p.x, w.t4);
    f.mul(w.t3, w.t4, w.t4);
    f.sqr(w.t1, w.t1);
    f.add(w.t1, w.t1, w.t1);
    f.add(w.t1, w.t1, w.t1);
    f.add(w.t1, w.t1, w.t1);
    f.sub(w.t4, w.t1, p.y);
    return;
  }
  // dbl-2007-bl, general a: 2M + 8S (1M + 8S when a = 1, the
  // supersingular pairing curve).
  f.sqr(p.x, w.t0);  // XX
  f.sqr(p.y, w.t1);  // YY
  f.sqr(w.t1, w.t2);  // YYYY
  f.sqr(p.z, w.t3);  // ZZ
  // S = 2*((X + YY)^2 - XX - YYYY)
  f.add(p.x, w.t1, w.t4);
  f.sqr(w.t4, w.t4);
  f.sub(w.t4, w.t0, w.t4);
  f.sub(w.t4, w.t2, w.t4);
  f.add(w.t4, w.t4, w.t4);
  // M = 3*XX + a*ZZ^2
  f.add(w.t0, w.t0, w.t5);
  f.add(w.t5, w.t0, w.t5);
  f.sqr(w.t3, w.t0);
  if (!a_is_one_) f.mul(a_r_, w.t0, w.t0);
  f.add(w.t5, w.t0, w.t5);
  // Z3 = (Y + Z)^2 - YY - ZZ
  f.add(p.y, p.z, p.z);
  f.sqr(p.z, p.z);
  f.sub(p.z, w.t1, p.z);
  f.sub(p.z, w.t3, p.z);
  // X3 = M^2 - 2*S
  f.sqr(w.t5, p.x);
  f.add(w.t4, w.t4, w.t0);
  f.sub(p.x, w.t0, p.x);
  // Y3 = M*(S - X3) - 8*YYYY
  f.sub(w.t4, p.x, w.t4);
  f.mul(w.t5, w.t4, w.t4);
  f.add(w.t2, w.t2, w.t2);
  f.add(w.t2, w.t2, w.t2);
  f.add(w.t2, w.t2, w.t2);
  f.sub(w.t4, w.t2, p.y);
}

void Curve::add(Jac& p, const Jac& q, Work& w) const {
  // add-2007-bl: 11M + 5S.
  if (q.z.is_zero()) return;
  if (p.z.is_zero()) {
    p = q;
    return;
  }
  const mpint::ModContext& f = fctx_;
  f.sqr(p.z, w.t0);        // Z1Z1
  f.sqr(q.z, w.t1);        // Z2Z2
  f.mul(p.x, w.t1, w.t2);  // U1
  f.mul(q.x, w.t0, w.t3);  // U2
  f.mul(q.z, w.t1, w.t4);
  f.mul(p.y, w.t4, w.t4);  // S1
  f.mul(p.z, w.t0, w.t5);
  f.mul(q.y, w.t5, w.t5);  // S2
  if (w.t2 == w.t3) {
    if (w.t4 == w.t5) {
      dbl(p, w);
    } else {
      set_inf(p);  // P + (-P)
    }
    return;
  }
  f.sub(w.t3, w.t2, w.t3);  // H
  // Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2) * H
  f.add(p.z, q.z, p.z);
  f.sqr(p.z, p.z);
  f.sub(p.z, w.t0, p.z);
  f.sub(p.z, w.t1, p.z);
  f.mul(p.z, w.t3, p.z);
  f.add(w.t3, w.t3, w.t0);
  f.sqr(w.t0, w.t0);        // I = (2H)^2
  f.mul(w.t3, w.t0, w.t1);  // J = H*I
  f.sub(w.t5, w.t4, w.t5);
  f.add(w.t5, w.t5, w.t5);  // r = 2*(S2 - S1)
  f.mul(w.t2, w.t0, w.t2);  // V = U1*I
  // X3 = r^2 - J - 2*V
  f.sqr(w.t5, w.t0);
  f.sub(w.t0, w.t1, w.t0);
  f.add(w.t2, w.t2, w.t3);
  f.sub(w.t0, w.t3, p.x);
  // Y3 = r*(V - X3) - 2*S1*J
  f.sub(w.t2, p.x, w.t2);
  f.mul(w.t5, w.t2, w.t2);
  f.mul(w.t4, w.t1, w.t4);
  f.add(w.t4, w.t4, w.t4);
  f.sub(w.t2, w.t4, p.y);
}

void Curve::add_affine(Jac& p, const Residue& x, const Residue& y, Work& w) const {
  // madd-2007-bl (Z2 = 1): 7M + 4S.
  if (p.z.is_zero()) {
    set_affine(p, x, y);
    return;
  }
  const mpint::ModContext& f = fctx_;
  f.sqr(p.z, w.t0);        // Z1Z1
  f.mul(x, w.t0, w.t1);    // U2
  f.mul(p.z, w.t0, w.t2);
  f.mul(y, w.t2, w.t2);    // S2
  f.sub(w.t1, p.x, w.t1);  // H = U2 - X1
  f.sub(w.t2, p.y, w.t2);
  if (w.t1.is_zero()) {
    if (w.t2.is_zero()) {
      dbl(p, w);  // P == (x, y)
    } else {
      set_inf(p);  // P == -(x, y)
    }
    return;
  }
  f.add(w.t2, w.t2, w.t2);  // r = 2*(S2 - Y1)
  f.sqr(w.t1, w.t3);        // HH
  f.add(w.t3, w.t3, w.t4);
  f.add(w.t4, w.t4, w.t4);  // I = 4*HH
  f.mul(w.t1, w.t4, w.t5);  // J = H*I
  f.mul(p.x, w.t4, w.t4);   // V = X1*I
  // Z3 = (Z1 + H)^2 - Z1Z1 - HH
  f.add(p.z, w.t1, p.z);
  f.sqr(p.z, p.z);
  f.sub(p.z, w.t0, p.z);
  f.sub(p.z, w.t3, p.z);
  // X3 = r^2 - J - 2*V
  f.sqr(w.t2, w.t0);
  f.sub(w.t0, w.t5, w.t0);
  f.add(w.t4, w.t4, w.t3);
  f.sub(w.t0, w.t3, w.t0);
  // Y3 = r*(V - X3) - 2*Y1*J
  f.sub(w.t4, w.t0, w.t4);
  f.mul(w.t2, w.t4, w.t4);
  f.mul(p.y, w.t5, w.t5);
  f.add(w.t5, w.t5, w.t5);
  f.sub(w.t4, w.t5, p.y);
  p.x = w.t0;
}

void Curve::add_entry(Jac& p, TableView t, unsigned j, bool negate, Work& w) const {
  if (((t.inf_mask >> j) & 1U) != 0) return;
  const std::size_t k = stride();
  std::memcpy(w.tx.limbs(), t.xy + 2 * j * k, k * sizeof(Limb));
  std::memcpy(w.ty.limbs(), t.xy + (2 * j + 1) * k, k * sizeof(Limb));
  if (negate) fctx_.sub(zero_r_, w.ty, w.ty);
  add_affine(p, w.tx, w.ty, w);
}

void Curve::to_affine(const Jac* pts, std::size_t count, Residue* prefix, Limb* xy,
                      std::uint64_t& inf) const {
  // Batch inversion: one field inversion of the product of every Z, then
  // each 1/Z_i from the prefix products on the way back.
  const std::size_t k = stride();
  inf = 0;
  Residue acc = one_r_;
  bool any = false;
  for (std::size_t i = 0; i < count; ++i) {
    if (pts[i].z.is_zero()) {
      inf |= std::uint64_t{1} << i;
      continue;
    }
    prefix[i] = acc;
    fctx_.mul(acc, pts[i].z, acc);
    any = true;
  }
  if (!any) return;
  Residue inv(fctx_), zi(fctx_), zz(fctx_), c(fctx_);
  fctx_.inv(acc, inv);
  for (std::size_t i = count; i-- > 0;) {
    if (((inf >> i) & 1U) != 0) continue;
    fctx_.mul(inv, prefix[i], zi);  // 1/Z_i
    fctx_.mul(inv, pts[i].z, inv);  // drop Z_i from the running inverse
    fctx_.sqr(zi, zz);
    fctx_.mul(pts[i].x, zz, c);
    std::memcpy(xy + 2 * i * k, c.limbs(), k * sizeof(Limb));
    fctx_.mul(zz, zi, zz);
    fctx_.mul(pts[i].y, zz, c);
    std::memcpy(xy + (2 * i + 1) * k, c.limbs(), k * sizeof(Limb));
  }
}

void Curve::to_affine(const Jac& p, ResiduePoint& out) const {
  out.infinity = p.z.is_zero();
  if (out.infinity) return;
  Residue zi(fctx_), zz(fctx_);
  fctx_.inv(p.z, zi);
  fctx_.sqr(zi, zz);
  fctx_.mul(p.x, zz, out.x);
  fctx_.mul(zz, zi, zz);
  fctx_.mul(p.y, zz, out.y);
}

void Curve::odd_multiples(const ResiduePoint& pt, Limb* xy, std::uint64_t& inf,
                          Work& w) const {
  std::array<Jac, kOddMultiples> pts;
  set_affine(pts[0], pt.x, pt.y);
  Jac two = pts[0];
  dbl(two, w);
  for (std::size_t i = 1; i < kOddMultiples; ++i) {
    pts[i] = pts[i - 1];
    add(pts[i], two, w);
  }
  std::array<Residue, kOddMultiples> prefix;
  to_affine(pts.data(), kOddMultiples, prefix.data(), xy, inf);
}

unsigned Curve::comb_column(const BigInt& k, std::size_t i, std::size_t d) const {
  unsigned j = 0;
  for (unsigned t = 0; t < kTeeth; ++t) {
    if (k.bit(i + t * d)) j |= 1U << t;
  }
  return j;
}

void Curve::ladder(std::span<const Comb> combs, const BigInt* k, const ResiduePoint* pt,
                   ResiduePoint& out) const {
  Work w(fctx_);
  // wNAF term k*pt: digits and odd multiples live on the stack.
  std::array<std::int8_t, kMaxScalarBits + 1> naf;
  std::array<Limb, 2 * kOddMultiples * kMaxLimbs> odd;
  std::uint64_t odd_inf = 0;
  std::size_t len = 0;
  if (k != nullptr) {
    if (k->bit_length() > kMaxScalarBits) {
      throw std::invalid_argument("Curve: scalar wider than 2048 bits");
    }
    if (!k->is_zero() && !pt->infinity) {
      len = recode_wnaf(*k, k->negative(), naf.data());
      odd_multiples(*pt, odd.data(), odd_inf, w);
    }
  }
  // One doubling chain for every term: comb column i is added with i
  // doublings still to go, exactly like wNAF digit i.
  const std::size_t d = combs.empty() ? 0 : comb_block();
  Jac acc = make_jac();
  for (std::size_t i = std::max(d, len); i-- > 0;) {
    dbl(acc, w);
    if (i < d) {
      for (const Comb& c : combs) {
        if (const unsigned j = comb_column(*c.k, i, d); j != 0) {
          add_entry(acc, TableView{c.table->xy_.data(), c.table->inf_mask_}, j, false, w);
        }
      }
    }
    if (i < len && naf[i] != 0) {
      const int digit = naf[i];
      add_entry(acc, TableView{odd.data(), odd_inf},
                static_cast<unsigned>(digit < 0 ? -digit : digit) >> 1, digit < 0, w);
    }
  }
  to_affine(acc, out);
}

const BigInt& Curve::reduced(const BigInt& k, BigInt& tmp) const {
  if (!k.negative() && k < n_) return k;
  tmp = k.mod(n_);
  return tmp;
}

void Curve::check_table(const FixedBase& t) const {
  if (t.field_ != p_ || t.xy_.size() != 2 * kCombEntries * stride()) {
    throw std::invalid_argument("Curve: fixed-base table from another curve");
  }
}

FixedBase Curve::make_fixed_base(const Point& pt) const {
  if (!is_on_curve(pt)) throw std::invalid_argument("Curve::make_fixed_base: point not on curve");
  // Entry 2^t = 2^(t*d) * P; every other entry adds its top tooth to the
  // entry without it. Built in Jacobian, normalised in one batch.
  const std::size_t d = comb_block();
  Work w(fctx_);
  std::vector<Jac> pts(kCombEntries, make_jac());
  pts[1] = to_jac(pt);
  for (std::size_t t = 1; t < kTeeth; ++t) {
    Jac& e = pts[std::size_t{1} << t];
    e = pts[std::size_t{1} << (t - 1)];
    for (std::size_t i = 0; i < d; ++i) dbl(e, w);
  }
  for (std::size_t j = 3; j < kCombEntries; ++j) {
    const std::size_t top = std::size_t{1} << (std::bit_width(j) - 1);
    if (j == top) continue;
    pts[j] = pts[j - top];
    add(pts[j], pts[top], w);
  }
  FixedBase table;
  table.base_ = pt;
  table.field_ = p_;
  table.xy_.assign(2 * kCombEntries * stride(), 0);
  std::vector<Residue> prefix(kCombEntries);
  to_affine(pts.data(), kCombEntries, prefix.data(), table.xy_.data(), table.inf_mask_);
  return table;
}

ResiduePoint Curve::to_residue(const Point& pt) const {
  if (pt.infinity) return ResiduePoint{Residue(fctx_), Residue(fctx_), true};
  return ResiduePoint{fctx_.to_residue(pt.x), fctx_.to_residue(pt.y), false};
}

Point Curve::from_residue(const ResiduePoint& pt) const {
  if (pt.infinity) return Point::at_infinity();
  return Point{fctx_.from_residue(pt.x), fctx_.from_residue(pt.y), false};
}

Curve::Jac Curve::to_jac(const Point& pt) const {
  Jac j = make_jac();
  if (!pt.infinity) set_affine(j, fctx_.to_residue(pt.x), fctx_.to_residue(pt.y));
  return j;
}

Point Curve::from_jac(const Jac& j) const {
  ResiduePoint out;
  to_affine(j, out);
  return from_residue(out);
}

Point Curve::add(const Point& p1, const Point& p2) const {
  Work w(fctx_);
  Jac a = to_jac(p1);
  add(a, to_jac(p2), w);
  return from_jac(a);
}

Point Curve::dbl(const Point& pt) const {
  Work w(fctx_);
  Jac a = to_jac(pt);
  dbl(a, w);
  return from_jac(a);
}

void Curve::mul(const BigInt& k, const FixedBase& base, ResiduePoint& out) const {
  check_table(base);
  BigInt tmp;
  const Comb comb{&reduced(k, tmp), &base};
  ladder(std::span<const Comb>(&comb, 1), nullptr, nullptr, out);
}

void Curve::mul_raw(const BigInt& k, const ResiduePoint& pt, ResiduePoint& out) const {
  ladder({}, &k, &pt, out);
}

void Curve::mul_add(const BigInt& k1, const BigInt& k2, const ResiduePoint& q,
                    ResiduePoint& out) const {
  BigInt tmp1, tmp2;
  const Comb comb{&reduced(k1, tmp1), &g_table_};
  ladder(std::span<const Comb>(&comb, 1), &reduced(k2, tmp2), &q, out);
}

void Curve::mul_add(const BigInt& k1, const BigInt& k2, const FixedBase& q,
                    ResiduePoint& out) const {
  check_table(q);
  BigInt tmp1, tmp2;
  const std::array<Comb, 2> combs{Comb{&reduced(k1, tmp1), &g_table_},
                                  Comb{&reduced(k2, tmp2), &q}};
  ladder(combs, nullptr, nullptr, out);
}

Point Curve::mul(const BigInt& k, const Point& pt) const {
  if (pt.infinity) return pt;
  if (pt == g_) return mul(k, g_table_);
  BigInt tmp;
  ResiduePoint out;
  mul_raw(reduced(k, tmp), to_residue(pt), out);
  return from_residue(out);
}

Point Curve::mul(const BigInt& k, const FixedBase& base) const {
  ResiduePoint out;
  mul(k, base, out);
  return from_residue(out);
}

Point Curve::mul_raw(const BigInt& k, const Point& pt) const {
  ResiduePoint out;
  mul_raw(k, to_residue(pt), out);
  return from_residue(out);
}

Point Curve::mul_add(const BigInt& k1, const BigInt& k2, const Point& q) const {
  ResiduePoint out;
  mul_add(k1, k2, to_residue(q), out);
  return from_residue(out);
}

Point Curve::mul_add(const BigInt& k1, const BigInt& k2, const FixedBase& q) const {
  ResiduePoint out;
  mul_add(k1, k2, q, out);
  return from_residue(out);
}

const Curve& secp160r1() {
  static const Curve curve = [] {
    const BigInt p = BigInt::from_hex("ffffffffffffffffffffffffffffffff7fffffff");
    const BigInt a = p - BigInt{3};
    const BigInt b = BigInt::from_hex("1c97befc54bd7a8b65acf89f81d4d4adc565fa45");
    const Point g{BigInt::from_hex("4a96b5688ef573284664698968c38bb913cbfc82"),
                  BigInt::from_hex("23a628553168947d59dcc912042351377ac5fb32"), false};
    const BigInt n = BigInt::from_hex("0100000000000000000001f4c8f927aed3ca752257");
    return Curve("secp160r1", p, a, b, g, n, BigInt{1});
  }();
  return curve;
}

const Curve& p256() {
  static const Curve curve = [] {
    const BigInt p = BigInt::from_hex(
        "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
    const BigInt a = p - BigInt{3};
    const BigInt b = BigInt::from_hex(
        "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
    const Point g{BigInt::from_hex(
                      "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
                  BigInt::from_hex(
                      "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
                  false};
    const BigInt n = BigInt::from_hex(
        "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
    return Curve("P-256", p, a, b, g, n, BigInt{1});
  }();
  return curve;
}

Curve generate_toy_curve(mpint::Rng& rng, std::size_t bits) {
  if (bits < 8 || bits > 28) {
    throw std::invalid_argument("generate_toy_curve: bits must be in [8, 28]");
  }
  const BigInt p = mpint::generate_prime(rng, bits, 24);
  const std::uint64_t pu = p.low_u64();
  const mpint::ModContext field(p);
  while (true) {
    const std::uint64_t a = mpint::random_below(rng, p).low_u64();
    const std::uint64_t b = mpint::random_below(rng, p).low_u64();
    // Reject singular curves: 4a^3 + 27b^2 == 0 mod p.
    const unsigned __int128 disc =
        (static_cast<unsigned __int128>(4) * a % pu * a % pu * a +
         static_cast<unsigned __int128>(27) * b % pu * b) % pu;
    if (disc == 0) continue;

    // Count points directly: infinity + (2 per quadratic-residue RHS,
    // 1 per zero RHS). Equivalent to #E = p + 1 + sum_x chi(x^3+ax+b).
    std::uint64_t count = 1;
    std::uint64_t first_x = 0;
    bool have_point = false;
    std::uint64_t first_y = 0;
    for (std::uint64_t x = 0; x < pu; ++x) {
      const unsigned __int128 rhs128 =
          ((static_cast<unsigned __int128>(x) * x % pu * x) +
           (static_cast<unsigned __int128>(a) * x) + b) % pu;
      const std::uint64_t rhs = static_cast<std::uint64_t>(rhs128);
      if (rhs == 0) {
        ++count;  // one point with y == 0
        continue;
      }
      const int chi = mpint::jacobi(BigInt{rhs}, p);
      if (chi == 1) {
        count += 2;
        if (!have_point) {
          BigInt root;
          // p was chosen freely; only use sqrt when p % 4 == 3, otherwise
          // search y directly (p is tiny).
          if ((pu & 3U) == 3U && mpint::sqrt_mod_p3(field, BigInt{rhs}, root)) {
            first_x = x;
            first_y = root.low_u64();
            have_point = true;
          } else if ((pu & 3U) != 3U) {
            for (std::uint64_t y = 1; y < pu; ++y) {
              if (static_cast<unsigned __int128>(y) * y % pu == rhs) {
                first_x = x;
                first_y = y;
                have_point = true;
                break;
              }
            }
          }
        }
      }
    }
    const BigInt order{count};
    if (!have_point) continue;
    if (!mpint::is_probable_prime(order, rng, 24)) continue;

    const Point g{BigInt{first_x}, BigInt{first_y}, false};
    Curve curve("toy" + std::to_string(bits), p, BigInt{a}, BigInt{b}, g, order, BigInt{1});
    // Sanity: n*G == O.
    if (!curve.mul(order, g).infinity) continue;
    return curve;
  }
}

}  // namespace idgka::ec
