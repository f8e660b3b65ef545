// Batch kernels for Z_(2^61-1), with a runtime-selected vector backend.
//
// Everything here operates on canonical elements of Z_(2^61-1), the one
// field of the codebase (field/fp.h); PrimeField's element-wise kernels and
// batch inversion forward here. Each dispatched kernel runs the AVX2
// variant when it is compiled in and the CPU supports it, and the matching
// `*_scalar` kernel otherwise. The scalar kernels share PrimeField::fold61
// and are exposed as the reference the tests cross-check the dispatched
// kernels against. The coin's matrix products do not come here: they run
// on PrimeField::matmul, which is scalar only (see field/fp.h).
//
// Dispatch contract (see the design note in field/fp.h): `available()`
// probes the CPU once (cached static); each kernel branches on that flag
// once per call — there is no per-element dispatch anywhere. The masked
// wire codec's block packer (support/bitpack61.h) reads the same probe.
//
// Bit-exactness: every kernel returns the canonical representative of the
// exact field result, which is unique, so vector and scalar paths cannot
// diverge (tests/field_test.cpp pins both against an independent oracle).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ssbft {
namespace m61simd {

// True iff a vector backend is compiled in (x86-64 AVX2, unless the build
// set -DSSBFT_SIMD=off) and this CPU supports it. Evaluated once.
bool available();

// "avx2" when available(), else "scalar" (diagnostics / bench context).
const char* backend_name();

// out[i] = a[i] * b[i] mod 2^61-1. out may alias a or b.
void mul_vec(const std::uint64_t* a, const std::uint64_t* b,
             std::uint64_t* out, std::size_t len);

// out[i] = a[i] * c mod 2^61-1. out may alias a.
void scale_vec(const std::uint64_t* a, std::uint64_t c, std::uint64_t* out,
               std::size_t len);

// dst[i] = dst[i] - c * src[i] mod 2^61-1. dst must not alias src.
void submul_vec(std::uint64_t* dst, const std::uint64_t* src, std::uint64_t c,
                std::size_t len);

// Lane passes of Montgomery batch inversion over four contiguous chunks of
// length K (chunk c = [c*K, (c+1)*K)):
//   chunk_prefix: scratch[c*K+i] = prod_{j<=i} vals[c*K+j]
void chunk_prefix(const std::uint64_t* vals, std::uint64_t* scratch,
                  std::size_t K);
//   chunk_unwind: given inv_totals[c] = (chunk c's total product)^-1,
//   replaces vals[c*K+i] with vals[c*K+i]^-1 using the prefixes above.
void chunk_unwind(std::uint64_t* vals, const std::uint64_t* scratch,
                  const std::uint64_t inv_totals[4], std::size_t K);

// Scalar reference variants of the kernels above (same contracts).
void mul_vec_scalar(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* out, std::size_t len);
void scale_vec_scalar(const std::uint64_t* a, std::uint64_t c,
                      std::uint64_t* out, std::size_t len);
void submul_vec_scalar(std::uint64_t* dst, const std::uint64_t* src,
                       std::uint64_t c, std::size_t len);
void chunk_prefix_scalar(const std::uint64_t* vals, std::uint64_t* scratch,
                         std::size_t K);
void chunk_unwind_scalar(std::uint64_t* vals, const std::uint64_t* scratch,
                         const std::uint64_t inv_totals[4], std::size_t K);

}  // namespace m61simd
}  // namespace ssbft
