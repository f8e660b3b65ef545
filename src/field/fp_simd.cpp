#include "field/fp_simd.h"

#include "field/fp.h"

// The AVX2 backend compiles whenever the compiler targets x86-64 with GNU
// attribute support and the build did not opt out (-DSSBFT_SIMD=off sets
// SSBFT_SIMD_DISABLED). It is selected at runtime only on CPUs that
// actually have AVX2, so the base build needs no -mavx2.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(SSBFT_SIMD_DISABLED)
#define SSBFT_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define SSBFT_HAVE_AVX2_KERNELS 0
#endif

namespace ssbft {
namespace m61simd {

namespace {

constexpr std::uint64_t kM61 = PrimeField::kPrime;

inline std::uint64_t mul_m61(std::uint64_t a, std::uint64_t b) {
  return PrimeField::fold61(static_cast<unsigned __int128>(a) * b);
}

inline std::uint64_t sub_m61(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + (kM61 - b);
}

#if SSBFT_HAVE_AVX2_KERNELS

// ---- AVX2 backend -------------------------------------------------------
//
// AVX2 has no 64x64->128 multiply, so a*b splits into 32-bit halves
// (a_hi, b_hi < 2^29 for canonical inputs) and the 128-bit product
// t = lo + mid*2^32 + hi*2^64 reduces with 2^61 = 1 (mod p):
//   lo        = lo_hi*2^61 + lo_lo           = lo_hi + lo_lo
//   mid*2^32  = mid_hi*2^61 + mid_lo*2^32    = mid_hi + mid_lo*2^32
//   hi*2^64   = (8*hi)*2^61                  = 8*hi
// The partial sum S < 2^63 folds once and one conditional subtract
// canonicalizes — the same representative PrimeField::fold61 produces.

__attribute__((target("avx2"))) inline __m256i m61_mulmod(__m256i a,
                                                          __m256i b) {
  const __m256i M = _mm256_set1_epi64x(static_cast<long long>(kM61));
  const __m256i m29 = _mm256_set1_epi64x((1LL << 29) - 1);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);      // a_lo * b_lo
  const __m256i m1 = _mm256_mul_epu32(a_hi, b);   // a_hi * b_lo
  const __m256i m2 = _mm256_mul_epu32(a, b_hi);   // a_lo * b_hi
  const __m256i hi = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i mid = _mm256_add_epi64(m1, m2);   // < 2^62
  const __m256i S = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_and_si256(lo, M), _mm256_srli_epi64(lo, 61)),
      _mm256_add_epi64(
          _mm256_add_epi64(
              _mm256_srli_epi64(mid, 29),
              _mm256_slli_epi64(_mm256_and_si256(mid, m29), 32)),
          _mm256_slli_epi64(hi, 3)));
  const __m256i s =
      _mm256_add_epi64(_mm256_and_si256(S, M), _mm256_srli_epi64(S, 61));
  // s < 2^61 + 4, so the signed 64-bit compare is exact.
  const __m256i ge = _mm256_cmpgt_epi64(
      s, _mm256_set1_epi64x(static_cast<long long>(kM61 - 1)));
  return _mm256_sub_epi64(s, _mm256_and_si256(ge, M));
}

__attribute__((target("avx2"))) inline __m256i m61_submod(__m256i a,
                                                          __m256i b) {
  const __m256i M = _mm256_set1_epi64x(static_cast<long long>(kM61));
  const __m256i borrow = _mm256_cmpgt_epi64(b, a);  // both < 2^61: signed ok
  return _mm256_add_epi64(_mm256_sub_epi64(a, b),
                          _mm256_and_si256(borrow, M));
}

__attribute__((target("avx2"))) void mul_vec_avx2(const std::uint64_t* a,
                                                  const std::uint64_t* b,
                                                  std::uint64_t* out,
                                                  std::size_t len) {
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        m61_mulmod(va, vb));
  }
  for (; i < len; ++i) out[i] = mul_m61(a[i], b[i]);
}

__attribute__((target("avx2"))) void scale_vec_avx2(const std::uint64_t* a,
                                                    std::uint64_t c,
                                                    std::uint64_t* out,
                                                    std::size_t len) {
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        m61_mulmod(va, vc));
  }
  for (; i < len; ++i) out[i] = mul_m61(a[i], c);
}

__attribute__((target("avx2"))) void submul_vec_avx2(std::uint64_t* dst,
                                                     const std::uint64_t* src,
                                                     std::uint64_t c,
                                                     std::size_t len) {
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        m61_submod(vd, m61_mulmod(vs, vc)));
  }
  for (; i < len; ++i) dst[i] = sub_m61(dst[i], mul_m61(src[i], c));
}

__attribute__((target("avx2"))) inline __m256i gather4(
    const std::uint64_t* base, std::size_t i, std::size_t K) {
  return _mm256_set_epi64x(static_cast<long long>(base[3 * K + i]),
                           static_cast<long long>(base[2 * K + i]),
                           static_cast<long long>(base[K + i]),
                           static_cast<long long>(base[i]));
}

__attribute__((target("avx2"))) inline void scatter4(std::uint64_t* base,
                                                     std::size_t i,
                                                     std::size_t K,
                                                     __m256i v) {
  base[i] = static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0));
  base[K + i] = static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1));
  base[2 * K + i] = static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2));
  base[3 * K + i] = static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3));
}

__attribute__((target("avx2"))) void chunk_prefix_avx2(
    const std::uint64_t* vals, std::uint64_t* scratch, std::size_t K) {
  __m256i run = gather4(vals, 0, K);
  scatter4(scratch, 0, K, run);
  for (std::size_t i = 1; i < K; ++i) {
    run = m61_mulmod(run, gather4(vals, i, K));
    scatter4(scratch, i, K, run);
  }
}

__attribute__((target("avx2"))) void chunk_unwind_avx2(
    std::uint64_t* vals, const std::uint64_t* scratch,
    const std::uint64_t inv_totals[4], std::size_t K) {
  __m256i run =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(inv_totals));
  for (std::size_t i = K; i-- > 1;) {
    const __m256i v = gather4(vals, i, K);
    scatter4(vals, i, K, m61_mulmod(run, gather4(scratch, i - 1, K)));
    run = m61_mulmod(run, v);
  }
  scatter4(vals, 0, K, run);
}

#endif  // SSBFT_HAVE_AVX2_KERNELS

}  // namespace

// ---- scalar kernels (the reference; also the non-AVX2 definitions) ------

void mul_vec_scalar(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* out, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) out[i] = mul_m61(a[i], b[i]);
}

void scale_vec_scalar(const std::uint64_t* a, std::uint64_t c,
                      std::uint64_t* out, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) out[i] = mul_m61(a[i], c);
}

void submul_vec_scalar(std::uint64_t* dst, const std::uint64_t* src,
                       std::uint64_t c, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = sub_m61(dst[i], mul_m61(src[i], c));
  }
}

void chunk_prefix_scalar(const std::uint64_t* vals, std::uint64_t* scratch,
                         std::size_t K) {
  for (std::size_t c = 0; c < 4; ++c) {
    const std::uint64_t* v = vals + c * K;
    std::uint64_t* s = scratch + c * K;
    std::uint64_t run = v[0];
    s[0] = run;
    for (std::size_t i = 1; i < K; ++i) s[i] = run = mul_m61(run, v[i]);
  }
}

void chunk_unwind_scalar(std::uint64_t* vals, const std::uint64_t* scratch,
                         const std::uint64_t inv_totals[4], std::size_t K) {
  for (std::size_t c = 0; c < 4; ++c) {
    std::uint64_t* v = vals + c * K;
    const std::uint64_t* s = scratch + c * K;
    std::uint64_t run = inv_totals[c];
    for (std::size_t i = K; i-- > 1;) {
      const std::uint64_t x = v[i];
      v[i] = mul_m61(run, s[i - 1]);
      run = mul_m61(run, x);
    }
    v[0] = run;
  }
}

bool available() {
#if SSBFT_HAVE_AVX2_KERNELS
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

const char* backend_name() { return available() ? "avx2" : "scalar"; }

void mul_vec(const std::uint64_t* a, const std::uint64_t* b,
             std::uint64_t* out, std::size_t len) {
#if SSBFT_HAVE_AVX2_KERNELS
  if (available()) {
    mul_vec_avx2(a, b, out, len);
    return;
  }
#endif
  mul_vec_scalar(a, b, out, len);
}

void scale_vec(const std::uint64_t* a, std::uint64_t c, std::uint64_t* out,
               std::size_t len) {
#if SSBFT_HAVE_AVX2_KERNELS
  if (available()) {
    scale_vec_avx2(a, c, out, len);
    return;
  }
#endif
  scale_vec_scalar(a, c, out, len);
}

void submul_vec(std::uint64_t* dst, const std::uint64_t* src, std::uint64_t c,
                std::size_t len) {
#if SSBFT_HAVE_AVX2_KERNELS
  if (available()) {
    submul_vec_avx2(dst, src, c, len);
    return;
  }
#endif
  submul_vec_scalar(dst, src, c, len);
}

void chunk_prefix(const std::uint64_t* vals, std::uint64_t* scratch,
                  std::size_t K) {
#if SSBFT_HAVE_AVX2_KERNELS
  if (available()) {
    chunk_prefix_avx2(vals, scratch, K);
    return;
  }
#endif
  chunk_prefix_scalar(vals, scratch, K);
}

void chunk_unwind(std::uint64_t* vals, const std::uint64_t* scratch,
                  const std::uint64_t inv_totals[4], std::size_t K) {
#if SSBFT_HAVE_AVX2_KERNELS
  if (available()) {
    chunk_unwind_avx2(vals, scratch, inv_totals, K);
    return;
  }
#endif
  chunk_unwind_scalar(vals, scratch, inv_totals, K);
}

}  // namespace m61simd
}  // namespace ssbft
