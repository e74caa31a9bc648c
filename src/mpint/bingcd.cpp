#include "mpint/bingcd.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "mpint/limbs.h"

namespace idgka::mpint {

namespace {

using Limb = BigInt::Limb;
using i128 = __int128;

constexpr int kSteps = 31;
constexpr Limb kLow31 = (Limb{1} << kSteps) - 1;

// Update factors of one outer round: after it, a' = (f0*a + g0*b) / 2^31 and
// b' = (f1*a + g1*b) / 2^31. |f0| + |g0| <= 2^31 and |f1| + |g1| <= 2^31, so
// neither new value is wider than the larger old one.
struct Matrix {
  std::int64_t f0 = 1, g0 = 0, f1 = 0, g1 = 1;
};

// 31 binary-GCD steps on the approximations (at, bt), bt odd. A run of z
// even steps is taken as one shift.
Matrix inner_steps(Limb at, Limb bt) {
  Matrix mx;
  int left = kSteps;
  while (left > 0) {
    if ((at & 1U) == 0) {
      const int z = at == 0 ? left : std::min(__builtin_ctzll(at), left);
      at >>= z;
      mx.f1 *= std::int64_t{1} << z;
      mx.g1 *= std::int64_t{1} << z;
      left -= z;
      continue;
    }
    if (at < bt) {
      std::swap(at, bt);
      std::swap(mx.f0, mx.f1);
      std::swap(mx.g0, mx.g1);
    }
    at = (at - bt) >> 1;
    mx.f0 -= mx.f1;
    mx.g0 -= mx.g1;
    mx.f1 *= 2;
    mx.g1 *= 2;
    --left;
  }
  return mx;
}

// x = -x over len limbs (two's complement).
void negate(Limb* x, std::size_t len) {
  Limb carry = 1;
  for (std::size_t i = 0; i < len; ++i) {
    x[i] = ~x[i] + carry;
    carry = (carry != 0 && x[i] == 0) ? 1 : 0;
  }
}

// Streams t = carry + f*x + g*y limb by limb and writes t / 2^31 one limb
// behind, so x and y can be overwritten in place. `lo` holds the previous
// raw limb; the caller finishes the top limb from the final carry.
struct ShiftedSum {
  i128 carry = 0;
  Limb lo = 0;

  // Adds this limb's terms (plus `extra`), returns the finished limb below.
  Limb push(std::int64_t f, Limb x, std::int64_t g, Limb y, i128 extra = 0) {
    const i128 t = carry + static_cast<i128>(f) * static_cast<i128>(x) +
                   static_cast<i128>(g) * static_cast<i128>(y) + extra;
    const Limb below = (lo >> kSteps) | (static_cast<Limb>(t) << (64 - kSteps));
    lo = static_cast<Limb>(t);
    carry = t >> 64;
    return below;
  }
  // The top limb of t / 2^31; bits above it are carry >> 31 (0 or -1 when
  // the result fits the width, otherwise a small signed overflow word).
  [[nodiscard]] Limb top() const {
    return (lo >> kSteps) | (static_cast<Limb>(carry) << (64 - kSteps));
  }
};

// (a, b) <- ((f0*a + g0*b) / 2^31, (f1*a + g1*b) / 2^31) over len limbs. A
// negative result is negated together with its matrix row, so both stay
// non-negative and the row still maps the old pair to the new one.
void update_ab(Limb* a, Limb* b, std::size_t len, Matrix& mx) {
  ShiftedSum sa;
  ShiftedSum sb;
  for (std::size_t i = 0; i < len; ++i) {
    const Limb ai = a[i];
    const Limb bi = b[i];
    const Limb na = sa.push(mx.f0, ai, mx.g0, bi);
    const Limb nb = sb.push(mx.f1, ai, mx.g1, bi);
    if (i > 0) {
      a[i - 1] = na;
      b[i - 1] = nb;
    }
  }
  a[len - 1] = sa.top();
  b[len - 1] = sb.top();
  if (sa.carry < 0) {
    negate(a, len);
    mx.f0 = -mx.f0;
    mx.g0 = -mx.g0;
  }
  if (sb.carry < 0) {
    negate(b, len);
    mx.f1 = -mx.f1;
    mx.g1 = -mx.g1;
  }
}

// Finishes x = (f*u + g*v + q*m) / 2^31 from its streamed sum. q*m, with
// q = -(f*u + g*v) * m^-1 mod 2^31, clears the low 31 bits, so the shift is
// exact; the result lies in (-m, 2m) and one add or subtract of m makes it
// canonical.
void reduce_into(const ShiftedSum& s, Limb* x, const Limb* m, std::size_t k) {
  x[k - 1] = s.top();
  const i128 over = s.carry >> kSteps;  // -1, 0 or 1
  if (over < 0) {
    limbs::add(x, m, x, k);
  } else if (over > 0 || limbs::geq(x, m, k)) {
    limbs::sub(x, m, x, k);
  }
}

// (u, v) <- ((f0*u + g0*v) / 2^31 mod m, (f1*u + g1*v) / 2^31 mod m) over
// k limbs; neg_minv = -m^-1 mod 2^64.
void update_uv(Limb* u, Limb* v, const Limb* m, std::size_t k, Limb neg_minv,
               const Matrix& mx) {
  const i128 tu = static_cast<i128>(mx.f0) * u[0] + static_cast<i128>(mx.g0) * v[0];
  const i128 tv = static_cast<i128>(mx.f1) * u[0] + static_cast<i128>(mx.g1) * v[0];
  const Limb qu = (static_cast<Limb>(tu) * neg_minv) & kLow31;
  const Limb qv = (static_cast<Limb>(tv) * neg_minv) & kLow31;
  ShiftedSum su;
  ShiftedSum sv;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ui = u[i];
    const Limb vi = v[i];
    const Limb nu = su.push(mx.f0, ui, mx.g0, vi, static_cast<i128>(qu) * m[i]);
    const Limb nv = sv.push(mx.f1, ui, mx.g1, vi, static_cast<i128>(qv) * m[i]);
    if (i > 0) {
      u[i - 1] = nu;
      v[i - 1] = nv;
    }
  }
  reduce_into(su, u, m, k);
  reduce_into(sv, v, m, k);
}

bool is_zero(const Limb* x, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (x[i] != 0) return false;
  }
  return true;
}

// Runs the outer loop on (a, b) over k limbs; when u is non-null, carries
// (u, v) modulo m alongside. Returns the round count.
std::size_t run(Limb* a, Limb* b, std::size_t k, Limb* u, Limb* v, const Limb* m) {
  const Limb neg_minv = u != nullptr ? limbs::neg_inv64(m[0]) : 0;
  std::size_t len = k;
  const auto trim = [&] {
    while (len > 1 && a[len - 1] == 0 && b[len - 1] == 0) --len;
  };
  trim();
  std::size_t rounds = 0;
  while (!is_zero(a, len)) {
    Limb at = a[0];
    Limb bt = b[0];
    if (len > 1) {
      // Top 33 bits of the wider operand's bit length, low 31 bits exact.
      const int s = __builtin_clzll(a[len - 1] | b[len - 1]);
      const auto top = [&](const Limb* x) {
        return s == 0 ? x[len - 1] : (x[len - 1] << s) | (x[len - 2] >> (64 - s));
      };
      at = (top(a) & ~kLow31) | (at & kLow31);
      bt = (top(b) & ~kLow31) | (bt & kLow31);
    }
    Matrix mx = inner_steps(at, bt);
    update_ab(a, b, len, mx);
    if (u != nullptr) update_uv(u, v, m, k, neg_minv, mx);
    ++rounds;
    trim();
  }
  return rounds;
}

}  // namespace

std::size_t bingcd(Limb* a, Limb* b, std::size_t k) {
  return run(a, b, k, nullptr, nullptr, nullptr);
}

bool bingcd_inverse(const Limb* y, const Limb* m, std::size_t k, Limb* out, Limb* scratch) {
  Limb* a = scratch;
  Limb* b = scratch + k;
  Limb* u = scratch + 2 * k;
  std::memcpy(a, y, k * sizeof(Limb));
  std::memcpy(b, m, k * sizeof(Limb));
  std::memset(u, 0, k * sizeof(Limb));
  std::memset(out, 0, k * sizeof(Limb));
  u[0] = 1;
  // Invariants: a == u*y and b == out*y (mod m).
  run(a, b, k, u, out, m);
  return b[0] == 1 && is_zero(b + 1, k - 1);
}

}  // namespace idgka::mpint
