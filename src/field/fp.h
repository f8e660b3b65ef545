// Arithmetic in the prime field Z_p, p = 2^61 - 1.
//
// The Feldman-Micali-style coin (Remark 2.3) needs a prime p > n; the code
// fixes the Mersenne prime 2^61 - 1 as a compile-time constant, so secrets
// have ~61 bits of entropy and the parity of a uniform element is a
// (1/2 ± 2^-61) coin. Values are plain uint64_t in [0, p). This keeps
// element storage flat (vectors of uint64_t) which matters for the O(n^2)
// share matrices the VSS moves around. A 128-bit product reduces with two
// shift/add folds and one conditional subtract (fold61) — no hardware
// division anywhere on the hot path.
//
// The scalar ops keep the contract checks from support/check.h; the batch
// kernels (mul_vec, matmul, batch_inv, ...) hoist validation out of the
// element loop — callers must pass canonical elements (the kernels' inputs
// always come from already-validated flat storage in this codebase).
//
// The coin's hot loops (row extraction, row evaluation at every node point,
// Lagrange recovery) are all small matrix products over the fixed node
// points 1..n, so they share one kernel, matmul: it sums each output's
// products lazily in 128 bits and reduces once per 64 products (fold128),
// instead of reducing after every multiply-add.
//
// SIMD dispatch design (field/fp_simd.h): the element-wise kernels and
// batch inversion forward to m61simd, which routes each call to a vector
// backend (AVX2 today; the seam admits a NEON backend the same way) when
// one is compiled in and the CPU supports it, and to its scalar kernels
// otherwise. The CPU probe runs once and is cached; there is no
// per-element dispatch. Every backend produces the unique canonical
// representative of the same field result, so replays, wire bytes and
// trace commitments are identical on every path. Building with
// -DSSBFT_SIMD=off compiles the vector backend out; tests compare both
// backends against an independent `%`-based oracle. matmul has a single
// scalar implementation: AVX2 has no 64x64->128 multiply, and a limb-split
// vector variant did not gain enough to justify a second path.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace ssbft {

class PrimeField {
 public:
  // The field modulus: 2^61 - 1.
  static constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;

  // True iff v is a canonical representative (< p).
  bool valid(std::uint64_t v) const { return v < kPrime; }

  // Canonicalize an arbitrary 64-bit value (used on untrusted input).
  std::uint64_t reduce(std::uint64_t v) const {
    const std::uint64_t s = (v & kPrime) + (v >> 61);
    return s >= kPrime ? s - kPrime : s;
  }

  std::uint64_t add(std::uint64_t a, std::uint64_t b) const {
    SSBFT_CHECK(a < kPrime && b < kPrime);
    const std::uint64_t s = a + b;  // < 2^62: no wraparound
    return s >= kPrime ? s - kPrime : s;
  }

  std::uint64_t sub(std::uint64_t a, std::uint64_t b) const {
    SSBFT_CHECK(a < kPrime && b < kPrime);
    return a >= b ? a - b : a + (kPrime - b);
  }

  std::uint64_t neg(std::uint64_t a) const {
    SSBFT_CHECK(a < kPrime);
    return a == 0 ? 0 : kPrime - a;
  }

  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    SSBFT_CHECK(a < kPrime && b < kPrime);
    return fold61(static_cast<unsigned __int128>(a) * b);
  }

  std::uint64_t pow(std::uint64_t a, std::uint64_t e) const;

  // Multiplicative inverse via extended Euclid; a must be nonzero.
  std::uint64_t inv(std::uint64_t a) const;

  // --- batch kernels ------------------------------------------------------
  //
  // All array arguments must hold canonical elements; `out` may alias an
  // input only where noted.

  // out[i] = a[i] * b[i]. out may alias a or b.
  void mul_vec(const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* out, std::size_t len) const;

  // out[i] = a[i] * c. out may alias a.
  void scale_vec(const std::uint64_t* a, std::uint64_t c, std::uint64_t* out,
                 std::size_t len) const;

  // dst[i] -= c * src[i] (the Gaussian-elimination row update). dst must
  // not alias src.
  void submul_vec(std::uint64_t* dst, const std::uint64_t* src,
                  std::uint64_t c, std::size_t len) const;

  // C = A * B for row-major matrices: c[i*ldc + j] = sum_l a[i*lda + l] *
  // b[l*ldb + j] for i < rows, j < cols, l < inner (inner == 0 yields
  // zeros). Every entry of A and B must be below 2^61 — canonical, or the
  // wire codec's sentinel p — so 64 products plus a carried residue stay
  // under 2^128; each output accumulates in 128 bits and folds once per 64
  // products. C must not overlap A or B.
  void matmul(std::size_t rows, std::size_t inner, std::size_t cols,
              const std::uint64_t* a, std::size_t lda, const std::uint64_t* b,
              std::size_t ldb, std::uint64_t* c, std::size_t ldc) const;

  // Horner evaluation of sum_i coeffs[i] x^i (count coefficients,
  // little-endian). count == 0 yields 0.
  std::uint64_t horner(const std::uint64_t* coeffs, std::size_t count,
                       std::uint64_t x) const;

  // Montgomery batch inversion: replaces vals[i] with vals[i]^-1 using a
  // single inv() and 3(len-1) multiplications. All vals must be nonzero.
  // scratch must hold len elements and not alias vals.
  void batch_inv(std::uint64_t* vals, std::size_t len,
                 std::uint64_t* scratch) const;

  // Uniformly random element of [0, p).
  std::uint64_t uniform(Rng& rng) const;
  // Uniformly random nonzero element.
  std::uint64_t uniform_nonzero(Rng& rng) const;

  // True iff the batch kernels route to a vector backend (m61simd's cached
  // CPU probe; identical results either way).
  bool simd_active() const;

  // Reduces t < 2^122 modulo 2^61 - 1: two shift/add folds bring the value
  // under 2^61 + 1, then one conditional subtract canonicalizes. The one
  // definition of the Mersenne fold — the batch kernels call it too, so
  // scalar and vector paths cannot drift apart.
  static std::uint64_t fold61(unsigned __int128 t) {
    std::uint64_t s = (static_cast<std::uint64_t>(t) & kPrime) +
                      static_cast<std::uint64_t>(t >> 61);  // < 2^62
    s = (s & kPrime) + (s >> 61);                           // <= 2^61
    return s >= kPrime ? s - kPrime : s;
  }

  // Reduces any t < 2^128 modulo 2^61 - 1 — the lazy accumulators of
  // matmul, where two products can already pass fold61's 2^122 limit.
  // With t = hi * 2^64 + lo and 2^64 = 8 (mod p), both halves fold in
  // 64-bit arithmetic to a sum below 2^63, which fold61 then
  // canonicalizes.
  static std::uint64_t fold128(unsigned __int128 t) {
    const auto lo = static_cast<std::uint64_t>(t);
    const auto hi = static_cast<std::uint64_t>(t >> 64);
    return fold61((lo & kPrime) + (lo >> 61) + ((hi << 3) & kPrime) +
                  (hi >> 58));
  }

 private:
  // Four-lane Montgomery batch inversion: the prefix/unwind passes run on
  // the vector backend over four chunks, joined by one scalar inv().
  void batch_inv_lanes(std::uint64_t* vals, std::size_t len,
                       std::uint64_t* scratch) const;
};

}  // namespace ssbft
