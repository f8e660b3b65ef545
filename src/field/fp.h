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
// kernels (mul_vec, eval_many, batch_inv, ...) hoist validation out of the
// element loop — callers must pass canonical elements (the kernels' inputs
// always come from already-validated flat storage in this codebase).
//
// SIMD dispatch design (field/fp_simd.h): the batch kernels forward to
// m61simd, which routes each call to a vector backend (AVX2 today; the
// seam admits a NEON backend the same way) when one is compiled in and
// the CPU supports it, and to its scalar kernels otherwise. The CPU probe
// runs once and is cached; there is no per-element dispatch. Every backend
// produces the unique canonical representative of the same field result,
// so replays, wire bytes and trace commitments are identical on every
// path. Building with -DSSBFT_SIMD=off compiles the vector backend out;
// tests compare both backends against an independent `%`-based oracle.
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

  // dst[i] += c * src[i] (the bivariate row accumulation). dst must not
  // alias src.
  void addmul_vec(std::uint64_t* dst, const std::uint64_t* src,
                  std::uint64_t c, std::size_t len) const;

  // sum_i a[i] * b[i] — the Lagrange-row dot products of the GVSS recover
  // fast path. Modular addition is associative, so any internal
  // accumulation order yields the same canonical result.
  std::uint64_t dot(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t len) const;

  // Horner evaluation of sum_i coeffs[i] x^i (count coefficients,
  // little-endian). count == 0 yields 0.
  std::uint64_t horner(const std::uint64_t* coeffs, std::size_t count,
                       std::uint64_t x) const;

  // out[k] = Horner(coeffs, xs[k]) for k < m: one polynomial over a point
  // set, with the dispatch and bounds work hoisted out of the loop.
  void eval_many(const std::uint64_t* coeffs, std::size_t count,
                 const std::uint64_t* xs, std::size_t m,
                 std::uint64_t* out) const;

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

 private:
  // Four-lane Montgomery batch inversion: the prefix/unwind passes run on
  // the vector backend over four chunks, joined by one scalar inv().
  void batch_inv_lanes(std::uint64_t* vals, std::size_t len,
                       std::uint64_t* scratch) const;
};

}  // namespace ssbft
