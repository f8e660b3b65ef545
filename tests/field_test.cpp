// Tests for prime-field arithmetic, the batch kernels, polynomials and
// interpolation — the algebra underneath the GVSS coin.
#include <gtest/gtest.h>

#include "field/fp.h"
#include "field/fp_simd.h"
#include "field/poly.h"
#include "m61_oracle.h"
#include "support/check.h"

namespace ssbft {
namespace {

namespace oracle = testing::m61_oracle;

constexpr std::uint64_t kP = PrimeField::kPrime;

TEST(PrimeField, ModulusIsMersenne61) {
  EXPECT_EQ(kP, oracle::kP);
  EXPECT_EQ(kP, 2305843009213693951ULL);
}

TEST(PrimeField, RingAxiomsOnRandomElements) {
  PrimeField F;
  Rng rng(kP);
  for (int i = 0; i < 200; ++i) {
    const auto a = F.uniform(rng), b = F.uniform(rng), c = F.uniform(rng);
    EXPECT_EQ(F.add(a, b), F.add(b, a));
    EXPECT_EQ(F.mul(a, b), F.mul(b, a));
    EXPECT_EQ(F.add(F.add(a, b), c), F.add(a, F.add(b, c)));
    EXPECT_EQ(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)));
    EXPECT_EQ(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)));
    EXPECT_EQ(F.add(a, F.neg(a)), 0u);
    EXPECT_EQ(F.sub(a, b), F.add(a, F.neg(b)));
    EXPECT_EQ(F.add(a, b), oracle::add(a, b));
    EXPECT_EQ(F.sub(a, b), oracle::sub(a, b));
  }
}

TEST(PrimeField, InverseIsTotalOnNonzero) {
  PrimeField F;
  Rng rng(kP + 1);
  for (int i = 0; i < 100; ++i) {
    const auto a = F.uniform_nonzero(rng);
    EXPECT_EQ(F.mul(a, F.inv(a)), 1u);
  }
  EXPECT_THROW(F.inv(0), contract_error);
}

TEST(PrimeField, PowMatchesRepeatedMultiplication) {
  PrimeField F;
  Rng rng(kP + 2);
  const auto a = F.uniform(rng);
  std::uint64_t acc = 1;
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(F.pow(a, e), acc);
    acc = F.mul(acc, a);
  }
}

TEST(PrimeField, FermatLittleTheorem) {
  PrimeField F;
  Rng rng(kP + 3);
  for (int i = 0; i < 20; ++i) {
    const auto a = F.uniform_nonzero(rng);
    EXPECT_EQ(F.pow(a, kP - 1), 1u);
  }
}

// --- Mersenne-61 folds vs the `%` oracle ------------------------------------

TEST(Mersenne61, MulMatchesOracle) {
  PrimeField F;
  Rng rng(42);
  // Edge elements: products of the largest pair reach (p-1)^2 > 2^121.
  const std::vector<std::uint64_t> edge{
      0, 1, 2, 3, (1ULL << 60) - 1, 1ULL << 60, kP / 2, kP - 2, kP - 1};
  for (std::uint64_t a : edge) {
    for (std::uint64_t b : edge) {
      EXPECT_EQ(F.mul(a, b), oracle::mul(a, b)) << a << " * " << b;
    }
  }
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = F.uniform(rng), b = F.uniform(rng);
    ASSERT_EQ(F.mul(a, b), oracle::mul(a, b)) << a << " * " << b;
  }
}

TEST(Mersenne61, ReduceMatchesOracle) {
  PrimeField F;
  Rng rng(43);
  const std::vector<std::uint64_t> edge{0,      1,         kP - 1, kP,
                                        kP + 1, 2 * kP,    2 * kP + 1,
                                        ~0ULL,  ~0ULL - 1, 1ULL << 61};
  for (std::uint64_t v : edge) EXPECT_EQ(F.reduce(v), v % kP) << v;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_u64();
    ASSERT_EQ(F.reduce(v), v % kP) << v;
  }
}

TEST(Mersenne61, ExtendedEuclidInvMatchesFermat) {
  PrimeField F;
  Rng rng(44);
  const std::vector<std::uint64_t> edge{1, 2, kP - 1, kP - 2, kP / 2};
  for (std::uint64_t a : edge) {
    EXPECT_EQ(F.inv(a), oracle::inv(a)) << a;
    EXPECT_EQ(F.mul(a, F.inv(a)), 1u) << a;
  }
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = F.uniform_nonzero(rng);
    ASSERT_EQ(F.inv(a), oracle::inv(a)) << a;
  }
}

TEST(BatchKernels, MulScaleSubmulMatchScalarOps) {
  PrimeField F;
  Rng rng(kP % 1000 + 7);
  const std::size_t len = 257;
  std::vector<std::uint64_t> a(len), b(len), out(len);
  for (std::size_t i = 0; i < len; ++i) {
    a[i] = F.uniform(rng);
    b[i] = F.uniform(rng);
  }
  const std::uint64_t c = F.uniform(rng);
  F.mul_vec(a.data(), b.data(), out.data(), len);
  for (std::size_t i = 0; i < len; ++i) ASSERT_EQ(out[i], F.mul(a[i], b[i]));
  F.scale_vec(a.data(), c, out.data(), len);
  for (std::size_t i = 0; i < len; ++i) ASSERT_EQ(out[i], F.mul(a[i], c));
  std::vector<std::uint64_t> dst = a;
  F.submul_vec(dst.data(), b.data(), c, len);
  for (std::size_t i = 0; i < len; ++i) {
    ASSERT_EQ(dst[i], F.sub(a[i], F.mul(b[i], c)));
  }
}

TEST(BatchKernels, BatchInvMatchesScalarInv) {
  PrimeField F;
  Rng rng(kP % 1000 + 8);
  for (std::size_t len : {std::size_t{1}, std::size_t{2}, std::size_t{65}}) {
    std::vector<std::uint64_t> vals(len), scratch(len);
    for (auto& v : vals) v = F.uniform_nonzero(rng);
    // Include the edge element p-1 (its own inverse).
    vals[0] = kP - 1;
    const std::vector<std::uint64_t> orig = vals;
    F.batch_inv(vals.data(), len, scratch.data());
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(vals[i], F.inv(orig[i])) << "len=" << len << " i=" << i;
    }
  }
}

TEST(BatchKernels, HornerMatchesPolyEval) {
  PrimeField F;
  Rng rng(kP % 1000 + 9);
  Poly p = Poly::random(F, 7, rng);
  for (int k = 0; k < 33; ++k) {
    const std::uint64_t x = F.uniform(rng);
    ASSERT_EQ(Poly::eval_raw(F, p.coeffs().data(), p.coeffs().size(), x),
              p.eval(F, x));
  }
}

TEST(PrimeField, Fold128ReducesEveryWidth) {
  using u128 = unsigned __int128;
  const u128 cases[] = {0,
                        kP - 1,
                        kP,
                        u128{1} << 122,
                        ~u128{0},  // 2^128 - 1
                        u128{kP} * 12345,
                        u128{kP} * kP,
                        u128{kP - 1} * (kP - 1) * 64 + (kP - 1)};
  for (const u128 t : cases) {
    ASSERT_EQ(PrimeField::fold128(t), static_cast<std::uint64_t>(t % kP))
        << "t=" << static_cast<std::uint64_t>(t >> 64) << ":"
        << static_cast<std::uint64_t>(t);
  }
  Rng rng(2029);
  for (int i = 0; i < 1000; ++i) {
    const u128 t = (u128{rng.next_u64()} << 64) | rng.next_u64();
    ASSERT_EQ(PrimeField::fold128(t), static_cast<std::uint64_t>(t % kP));
  }
}

// --- Kernel property tests: dispatched vs scalar reference vs oracle --------
//
// Every dispatched kernel is checked three ways: as dispatched (the vector
// backend where this machine has one), as m61simd's scalar reference, and
// against the `%`-based oracle in m61_oracle.h. Lengths 0..40 cover every lane
// residue and both sides of batch_inv's lane threshold (32); 257 adds a
// long vector. Edge values 0, 1 and p-1 are planted so every lane position
// sees each of them ((p-1)*(p-1) is the 2^122-magnitude fold case). On
// machines without a vector unit the first two sides coincide and the
// oracle still checks both.

std::vector<std::size_t> kernel_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 40; ++len) lens.push_back(len);
  lens.push_back(257);
  return lens;
}

// Random canonical vector with the edges {0, 1, p-1} on every other slot,
// rotated by `phase` so two vectors pair each edge with every other edge.
std::vector<std::uint64_t> edgy_vec(std::size_t len, Rng& rng,
                                    std::size_t phase) {
  const std::uint64_t edges[] = {0, 1, kP - 1};
  std::vector<std::uint64_t> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = (i + phase) % 2 == 0 ? edges[(i / 2 + phase) % 3]
                                : rng.next_below(kP);
  }
  return v;
}

TEST(Mersenne61Simd, DispatchModeIsHonored) {
#if defined(__x86_64__) && !defined(SSBFT_SIMD_DISABLED)
  EXPECT_EQ(PrimeField().simd_active(), m61simd::available());
#else
  EXPECT_FALSE(PrimeField().simd_active());
#endif
}

TEST(Mersenne61Simd, MulScaleSubmulMatchScalarAndOracle) {
  PrimeField F;
  Rng rng(2024);
  for (std::size_t len : kernel_lengths()) {
    const auto a = edgy_vec(len, rng, 0), b = edgy_vec(len, rng, 1);
    std::vector<std::uint64_t> got(len), ref(len), want(len);
    F.mul_vec(a.data(), b.data(), got.data(), len);
    m61simd::mul_vec_scalar(a.data(), b.data(), ref.data(), len);
    for (std::size_t i = 0; i < len; ++i) want[i] = oracle::mul(a[i], b[i]);
    ASSERT_EQ(got, want) << "mul_vec len=" << len;
    ASSERT_EQ(ref, want) << "mul_vec_scalar len=" << len;
    for (const std::uint64_t c : {std::uint64_t{0}, std::uint64_t{1}, kP - 1,
                                  rng.next_below(kP)}) {
      F.scale_vec(a.data(), c, got.data(), len);
      m61simd::scale_vec_scalar(a.data(), c, ref.data(), len);
      for (std::size_t i = 0; i < len; ++i) want[i] = oracle::mul(a[i], c);
      ASSERT_EQ(got, want) << "scale_vec len=" << len << " c=" << c;
      ASSERT_EQ(ref, want) << "scale_vec_scalar len=" << len << " c=" << c;
      got = a;
      ref = a;
      F.submul_vec(got.data(), b.data(), c, len);
      m61simd::submul_vec_scalar(ref.data(), b.data(), c, len);
      for (std::size_t i = 0; i < len; ++i) {
        want[i] = oracle::sub(a[i], oracle::mul(b[i], c));
      }
      ASSERT_EQ(got, want) << "submul_vec len=" << len << " c=" << c;
      ASSERT_EQ(ref, want) << "submul_vec_scalar len=" << len << " c=" << c;
    }
  }
}

// --- The matrix-product kernel ---------------------------------------------
//
// matmul is checked against two references: a scalar loop that reduces
// with fold61 after every multiply-add (so no sum ever exceeds 2^122), and
// the oracle. Inner lengths straddle the 64-product fold block.

// c = a * b with one fold61 per multiply-add.
std::vector<std::uint64_t> matmul_fold61(const std::vector<std::uint64_t>& a,
                                         const std::vector<std::uint64_t>& b,
                                         std::size_t rows, std::size_t inner,
                                         std::size_t cols) {
  std::vector<std::uint64_t> c(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      std::uint64_t acc = 0;
      for (std::size_t l = 0; l < inner; ++l) {
        acc = PrimeField::fold61(
            static_cast<unsigned __int128>(a[i * inner + l]) * b[l * cols + j] +
            acc);
      }
      c[i * cols + j] = acc;
    }
  }
  return c;
}

std::vector<std::uint64_t> matmul_oracle(const std::vector<std::uint64_t>& a,
                                         const std::vector<std::uint64_t>& b,
                                         std::size_t rows, std::size_t inner,
                                         std::size_t cols) {
  std::vector<std::uint64_t> c(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      std::uint64_t acc = 0;
      for (std::size_t l = 0; l < inner; ++l) {
        acc = oracle::add(acc, oracle::mul(a[i * inner + l], b[l * cols + j]));
      }
      c[i * cols + j] = acc;
    }
  }
  return c;
}

const std::size_t kInnerLengths[] = {0, 1, 2, 63, 64, 65, 129};

TEST(MatMul, AllMaxInputsMatchFold61LoopAndOracle) {
  // Every input p-1: each product is (p-1)^2 ~ 2^122, the worst case for
  // the lazy accumulator, at every inner length and column-tile residue.
  PrimeField F;
  for (const std::size_t inner : kInnerLengths) {
    for (const std::size_t cols :
         {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
      const std::size_t rows = 3;
      const std::vector<std::uint64_t> a(rows * inner, kP - 1),
          b(inner * cols, kP - 1);
      std::vector<std::uint64_t> got(rows * cols, 7);
      F.matmul(rows, inner, cols, a.data(), inner, b.data(), cols, got.data(),
               cols);
      const auto want = matmul_oracle(a, b, rows, inner, cols);
      ASSERT_EQ(got, want) << "inner=" << inner << " cols=" << cols;
      ASSERT_EQ(matmul_fold61(a, b, rows, inner, cols), want)
          << "inner=" << inner << " cols=" << cols;
    }
  }
}

TEST(MatMul, EdgyInputsMatchFold61LoopAndOracle) {
  PrimeField F;
  Rng rng(2027);
  for (const std::size_t inner : kInnerLengths) {
    for (std::size_t cols = 0; cols <= 9; ++cols) {
      const std::size_t rows = 1 + cols % 3;
      const auto a = edgy_vec(rows * inner, rng, 0);
      const auto b = edgy_vec(inner * cols, rng, 1);
      std::vector<std::uint64_t> got(rows * cols);
      F.matmul(rows, inner, cols, a.data(), inner, b.data(), cols, got.data(),
               cols);
      const auto want = matmul_oracle(a, b, rows, inner, cols);
      ASSERT_EQ(got, want) << "inner=" << inner << " cols=" << cols;
      ASSERT_EQ(matmul_fold61(a, b, rows, inner, cols), want);
    }
  }
}

TEST(MatMul, StridedOperandsTouchOnlyTheirWindow) {
  // Sub-matrices of larger row-major buffers, as the coin uses them: the
  // kernel reads and writes only the rows x cols window of each stride.
  PrimeField F;
  Rng rng(2030);
  const std::size_t rows = 5, inner = 6, cols = 9;
  const std::size_t lda = inner + 2, ldb = cols + 3, ldc = cols + 1;
  std::vector<std::uint64_t> a(rows * lda), b(inner * ldb);
  for (auto& v : a) v = F.uniform(rng);
  for (auto& v : b) v = F.uniform(rng);
  std::vector<std::uint64_t> c(rows * ldc, 42);
  F.matmul(rows, inner, cols, a.data(), lda, b.data(), ldb, c.data(), ldc);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      std::uint64_t want = 0;
      for (std::size_t l = 0; l < inner; ++l) {
        want = oracle::add(want, oracle::mul(a[i * lda + l], b[l * ldb + j]));
      }
      ASSERT_EQ(c[i * ldc + j], want) << i << "," << j;
    }
    ASSERT_EQ(c[i * ldc + cols], 42u) << "row " << i << " padding written";
  }
}

TEST(Mersenne61, HornerMatchesOracle) {
  PrimeField F;
  Rng rng(2025);
  for (std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{43}}) {
    const auto coeffs = edgy_vec(count, rng, 0);
    for (const std::uint64_t x : edgy_vec(40, rng, 1)) {
      ASSERT_EQ(F.horner(coeffs.data(), count, x),
                oracle::horner(coeffs.data(), count, x))
          << "count=" << count;
    }
  }
}

TEST(Mersenne61Simd, BatchInvMatchesOracleAcrossLaneBoundaries) {
  PrimeField F;
  Rng rng(2026);
  for (std::size_t len : kernel_lengths()) {
    std::vector<std::uint64_t> vals = edgy_vec(len, rng, 0), scratch(len);
    for (auto& v : vals) {
      if (v == 0) v = 1 + rng.next_below(kP - 1);  // inverses need nonzero
    }
    const std::vector<std::uint64_t> orig = vals;
    F.batch_inv(vals.data(), len, scratch.data());
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(vals[i], oracle::inv(orig[i])) << "len=" << len << " i=" << i;
    }
  }
}

TEST(Mersenne61Simd, ChunkPassesMatchScalarAndOracle) {
  // The four-lane prefix/unwind passes behind batch_inv, per chunk length.
  Rng rng(2028);
  for (std::size_t K = 1; K <= 10; ++K) {
    std::vector<std::uint64_t> vals = edgy_vec(4 * K, rng, 1);
    for (auto& v : vals) {
      if (v == 0) v = 1 + rng.next_below(kP - 1);
    }
    std::vector<std::uint64_t> got(4 * K), ref(4 * K), want(4 * K);
    m61simd::chunk_prefix(vals.data(), got.data(), K);
    m61simd::chunk_prefix_scalar(vals.data(), ref.data(), K);
    std::uint64_t inv_totals[4];
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint64_t run = 1;
      for (std::size_t i = c * K; i < (c + 1) * K; ++i) {
        want[i] = run = oracle::mul(run, vals[i]);
      }
      inv_totals[c] = oracle::inv(run);
    }
    ASSERT_EQ(got, want) << "chunk_prefix K=" << K;
    ASSERT_EQ(ref, want) << "chunk_prefix_scalar K=" << K;
    std::vector<std::uint64_t> inv_got = vals, inv_ref = vals;
    m61simd::chunk_unwind(inv_got.data(), got.data(), inv_totals, K);
    m61simd::chunk_unwind_scalar(inv_ref.data(), ref.data(), inv_totals, K);
    for (std::size_t i = 0; i < 4 * K; ++i) {
      ASSERT_EQ(inv_got[i], oracle::inv(vals[i])) << "K=" << K << " i=" << i;
      ASSERT_EQ(inv_ref[i], oracle::inv(vals[i])) << "K=" << K << " i=" << i;
    }
  }
}

TEST(PrimeField, UniformStaysInRange) {
  PrimeField F;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(F.uniform(rng), kP);
    EXPECT_NE(F.uniform_nonzero(rng), 0u);
  }
}

TEST(Poly, DegreeAndNormalization) {
  EXPECT_EQ(Poly().degree(), -1);
  EXPECT_EQ(Poly({0, 0, 0}).degree(), -1);  // trailing zeros drop
  EXPECT_EQ(Poly({5}).degree(), 0);
  EXPECT_EQ(Poly({1, 2, 0, 0}).degree(), 1);
}

TEST(Poly, HornerEvaluation) {
  PrimeField F;
  Poly p({3, 2, 1});  // 3 + 2x + x^2
  EXPECT_EQ(p.eval(F, 0), 3u);
  EXPECT_EQ(p.eval(F, 1), 6u);
  EXPECT_EQ(p.eval(F, 10), 123u);
}

TEST(Poly, ArithmeticConsistentWithEvaluation) {
  PrimeField F;
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Poly a = Poly::random(F, 4, rng);
    Poly b = Poly::random(F, 3, rng);
    const auto x = F.uniform(rng);
    EXPECT_EQ(a.add(F, b).eval(F, x), F.add(a.eval(F, x), b.eval(F, x)));
    EXPECT_EQ(a.sub(F, b).eval(F, x), F.sub(a.eval(F, x), b.eval(F, x)));
    EXPECT_EQ(a.mul(F, b).eval(F, x), F.mul(a.eval(F, x), b.eval(F, x)));
    EXPECT_EQ(a.scale(F, 7).eval(F, x), F.mul(a.eval(F, x), 7));
  }
}

TEST(Poly, DivmodRoundTrip) {
  PrimeField F;
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    Poly a = Poly::random(F, 6, rng);
    Poly d = Poly::random(F, 2, rng);
    if (d.is_zero()) continue;
    auto [q, r] = a.divmod(F, d);
    EXPECT_LT(r.degree(), d.degree());
    EXPECT_EQ(q.mul(F, d).add(F, r), a);
  }
}

TEST(Poly, DivisionByZeroRejected) {
  PrimeField F;
  EXPECT_THROW(Poly({1, 2}).divmod(F, Poly()), contract_error);
}

TEST(Poly, DivmodZeroDividend) {
  PrimeField F;
  auto [q, r] = Poly().divmod(F, Poly({3, 1}));
  EXPECT_TRUE(q.is_zero());
  EXPECT_TRUE(r.is_zero());
}

TEST(Poly, DivmodLowerDegreeDividendIsIdentityRemainder) {
  PrimeField F;
  Poly a({7, 5});           // degree 1
  Poly d({1, 2, 3, 4});     // degree 3
  auto [q, r] = a.divmod(F, d);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, a);
}

TEST(Poly, DivmodEqualDegrees) {
  PrimeField F;
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    Poly a = Poly::random(F, 4, rng);
    Poly d = Poly::random(F, 4, rng);
    if (a.degree() != 4 || d.degree() != 4) continue;
    auto [q, r] = a.divmod(F, d);
    EXPECT_EQ(q.degree(), 0);
    EXPECT_LT(r.degree(), d.degree());
    EXPECT_EQ(q.mul(F, d).add(F, r), a);
  }
}

TEST(Poly, ScratchVariantsMatchValueApi) {
  PrimeField F;
  Rng rng(10);
  std::vector<std::uint64_t> scratch;  // reused across iterations
  for (int i = 0; i < 30; ++i) {
    Poly a = Poly::random(F, 5, rng);
    Poly b = Poly::random(F, 3, rng);
    a.add_into(F, b, scratch);
    EXPECT_EQ(Poly(scratch), a.add(F, b));
    a.mul_into(F, b, scratch);
    EXPECT_EQ(Poly(scratch), a.mul(F, b));
  }
}

TEST(Poly, RandomWithConstantPinsSecret) {
  PrimeField F;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    Poly p = Poly::random_with_constant(F, 3, 42, rng);
    EXPECT_EQ(p.eval(F, 0), 42u);
    EXPECT_LE(p.degree(), 3);
  }
}

TEST(Interpolation, RecoversOriginalPolynomial) {
  PrimeField F;
  Rng rng(8);
  for (int deg = 0; deg <= 6; ++deg) {
    Poly p = Poly::random(F, deg, rng);
    std::vector<std::uint64_t> xs, ys;
    for (std::uint64_t x = 1; x <= static_cast<std::uint64_t>(deg) + 1; ++x) {
      xs.push_back(x);
      ys.push_back(p.eval(F, x));
    }
    EXPECT_EQ(lagrange_interpolate(F, xs, ys), p) << "deg=" << deg;
  }
}

TEST(Interpolation, ExactDegreeBound) {
  PrimeField F;
  // 3 points -> degree <= 2 polynomial through them.
  Poly p = lagrange_interpolate(F, {1, 2, 3}, {10, 20, 40});
  EXPECT_LE(p.degree(), 2);
  EXPECT_EQ(p.eval(F, 1), 10u);
  EXPECT_EQ(p.eval(F, 2), 20u);
  EXPECT_EQ(p.eval(F, 3), 40u);
}

TEST(Interpolation, DuplicateNodesRejected) {
  PrimeField F;
  EXPECT_THROW(lagrange_interpolate(F, {1, 1}, {2, 3}), contract_error);
}

}  // namespace
}  // namespace ssbft
