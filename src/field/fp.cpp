#include "field/fp.h"

#include <algorithm>

#include "field/fp_simd.h"

namespace ssbft {

std::uint64_t PrimeField::pow(std::uint64_t a, std::uint64_t e) const {
  SSBFT_CHECK(a < kPrime);
  std::uint64_t base = a, acc = 1;
  while (e != 0) {
    if (e & 1) acc = mul(acc, base);
    base = mul(base, base);
    e >>= 1;
  }
  return acc;
}

std::uint64_t PrimeField::inv(std::uint64_t a) const {
  SSBFT_REQUIRE_MSG(a != 0 && a < kPrime,
                    "inverse of zero / non-canonical value");
  // Extended Euclid: ~60 division steps beat the ~61 modmuls of Fermat by a
  // wide margin, and it is total on nonzero a because p is prime. Bezout
  // coefficients stay within (-p, p), so int64 holds them.
  std::uint64_t r0 = kPrime, r1 = a;
  std::int64_t t0 = 0, t1 = 1;
  while (r1 != 0) {
    const std::uint64_t q = r0 / r1;
    const std::uint64_t r2 = r0 - q * r1;
    const std::int64_t t2 = t0 - static_cast<std::int64_t>(q) * t1;
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t1 = t2;
  }
  SSBFT_CHECK(r0 == 1);  // gcd(a, p) = 1 since p is prime and 0 < a < p
  if (t0 < 0) t0 += static_cast<std::int64_t>(kPrime);
  return static_cast<std::uint64_t>(t0);
}

void PrimeField::mul_vec(const std::uint64_t* a, const std::uint64_t* b,
                         std::uint64_t* out, std::size_t len) const {
  m61simd::mul_vec(a, b, out, len);
}

void PrimeField::scale_vec(const std::uint64_t* a, std::uint64_t c,
                           std::uint64_t* out, std::size_t len) const {
  SSBFT_CHECK(c < kPrime);
  m61simd::scale_vec(a, c, out, len);
}

void PrimeField::submul_vec(std::uint64_t* dst, const std::uint64_t* src,
                            std::uint64_t c, std::size_t len) const {
  SSBFT_CHECK(c < kPrime);
  m61simd::submul_vec(dst, src, c, len);
}

void PrimeField::matmul(std::size_t rows, std::size_t inner, std::size_t cols,
                        const std::uint64_t* a, std::size_t lda,
                        const std::uint64_t* b, std::size_t ldb,
                        std::uint64_t* c, std::size_t ldc) const {
  using u128 = unsigned __int128;
  // Entries are at most p = 2^61 - 1 and 64 * p^2 + p < 2^128, so a block
  // of kLazy products on top of a carried residue cannot overflow.
  constexpr std::size_t kLazy = 64;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t* ai = a + i * lda;
    std::uint64_t* ci = c + i * ldc;
    std::size_t j = 0;
    // 1x4 tiles: each A element is loaded once per four outputs, and the
    // four independent accumulators keep the multiplier busy.
    for (; j + 4 <= cols; j += 4) {
      u128 s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (std::size_t l0 = 0; l0 < inner; l0 += kLazy) {
        const std::size_t l1 = std::min(inner, l0 + kLazy);
        for (std::size_t l = l0; l < l1; ++l) {
          const u128 x = ai[l];
          const std::uint64_t* bl = b + l * ldb + j;
          s0 += x * bl[0];
          s1 += x * bl[1];
          s2 += x * bl[2];
          s3 += x * bl[3];
        }
        s0 = fold128(s0);
        s1 = fold128(s1);
        s2 = fold128(s2);
        s3 = fold128(s3);
      }
      ci[j] = static_cast<std::uint64_t>(s0);
      ci[j + 1] = static_cast<std::uint64_t>(s1);
      ci[j + 2] = static_cast<std::uint64_t>(s2);
      ci[j + 3] = static_cast<std::uint64_t>(s3);
    }
    for (; j < cols; ++j) {
      u128 s = 0;
      for (std::size_t l0 = 0; l0 < inner; l0 += kLazy) {
        const std::size_t l1 = std::min(inner, l0 + kLazy);
        for (std::size_t l = l0; l < l1; ++l) s += u128{ai[l]} * b[l * ldb + j];
        s = fold128(s);
      }
      ci[j] = static_cast<std::uint64_t>(s);
    }
  }
}

std::uint64_t PrimeField::horner(const std::uint64_t* coeffs,
                                 std::size_t count, std::uint64_t x) const {
  SSBFT_CHECK(x < kPrime);
  std::uint64_t acc = 0;
  for (std::size_t i = count; i-- > 0;) {
    const std::uint64_t s =
        fold61(static_cast<unsigned __int128>(acc) * x) + coeffs[i];
    acc = s >= kPrime ? s - kPrime : s;
  }
  return acc;
}

void PrimeField::batch_inv(std::uint64_t* vals, std::size_t len,
                           std::uint64_t* scratch) const {
  if (len == 0) return;
  // The serial prefix-product chain is latency-bound; at vector-worthy
  // lengths it runs as four independent lanes. Outputs are the exact
  // inverses either way (inverses are unique), so the two shapes are
  // bit-identical.
  if (len >= 32 && m61simd::available()) {
    batch_inv_lanes(vals, len, scratch);
    return;
  }
  // Prefix products, one inversion of the total, then unwind: each step
  // peels one factor off the running inverse.
  scratch[0] = vals[0];
  for (std::size_t i = 1; i < len; ++i) {
    scratch[i] = mul(scratch[i - 1], vals[i]);
  }
  std::uint64_t run = inv(scratch[len - 1]);
  for (std::size_t i = len; i-- > 1;) {
    const std::uint64_t v = vals[i];
    vals[i] = mul(run, scratch[i - 1]);
    run = mul(run, v);
  }
  vals[0] = run;
}

void PrimeField::batch_inv_lanes(std::uint64_t* vals, std::size_t len,
                                 std::uint64_t* scratch) const {
  // Four contiguous chunks of K elements run their prefix products in
  // lanes; the tail (len % 4 elements) chains on scalar, seeded with the
  // product of all chunk totals so one inv() still covers everything.
  const std::size_t K = len / 4;
  const std::size_t body = 4 * K;
  m61simd::chunk_prefix(vals, scratch, K);
  const std::uint64_t T[4] = {scratch[K - 1], scratch[2 * K - 1],
                              scratch[3 * K - 1], scratch[4 * K - 1]};
  const std::uint64_t G = mul(mul(T[0], T[1]), mul(T[2], T[3]));
  std::uint64_t p = G;
  for (std::size_t i = body; i < len; ++i) scratch[i] = p = mul(p, vals[i]);
  std::uint64_t run = inv(p);
  for (std::size_t i = len; i-- > body;) {
    const std::uint64_t v = vals[i];
    // The global prefix before index body is G, not scratch[body - 1]
    // (which holds chunk 3's total).
    vals[i] = mul(run, i == body ? G : scratch[i - 1]);
    run = mul(run, v);
  }
  // run == G^-1 now; per-chunk inverse totals via prefix/suffix products
  // of the four chunk totals.
  const std::uint64_t U2 = mul(T[0], T[1]);
  const std::uint64_t V1 = mul(T[3], T[2]);
  const std::uint64_t inv_totals[4] = {
      mul(run, mul(V1, T[1])),  // G^-1 * T1*T2*T3
      mul(run, mul(T[0], V1)),  // G^-1 * T0*T2*T3
      mul(run, mul(U2, T[3])),  // G^-1 * T0*T1*T3
      mul(run, mul(U2, T[2])),  // G^-1 * T0*T1*T2
  };
  m61simd::chunk_unwind(vals, scratch, inv_totals, K);
}

std::uint64_t PrimeField::uniform(Rng& rng) const {
  return rng.next_below(kPrime);
}

std::uint64_t PrimeField::uniform_nonzero(Rng& rng) const {
  return 1 + rng.next_below(kPrime - 1);
}

bool PrimeField::simd_active() const { return m61simd::available(); }

}  // namespace ssbft
