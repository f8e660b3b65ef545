#include "field/bivariate.h"

#include "support/check.h"

namespace ssbft {

SymmetricBivariate SymmetricBivariate::sample(const PrimeField& F, int deg,
                                              std::uint64_t secret, Rng& rng) {
  SymmetricBivariate p;
  p.resample(F, deg, secret, rng);
  return p;
}

void SymmetricBivariate::resample(const PrimeField& F, int deg,
                                  std::uint64_t secret, Rng& rng) {
  SSBFT_REQUIRE(deg >= 0 && F.valid(secret));
  const std::size_t w = static_cast<std::size_t>(deg) + 1;
  deg_ = deg;
  c_.assign(w * w, 0);
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = i; j < w; ++j) {
      const std::uint64_t v = (i == 0 && j == 0) ? secret : F.uniform(rng);
      c_[i * w + j] = v;
      c_[j * w + i] = v;
    }
  }
}

std::uint64_t SymmetricBivariate::eval(const PrimeField& F, std::uint64_t x,
                                       std::uint64_t y) const {
  return row(F, x).eval(F, y);
}

Poly SymmetricBivariate::row(const PrimeField& F, std::uint64_t x0) const {
  const std::size_t w = static_cast<std::size_t>(deg_) + 1;
  std::vector<std::uint64_t> out(w, 0);
  row_into(F, x0, out.data());
  return Poly(std::move(out));
}

void SymmetricBivariate::row_into(const PrimeField& F, std::uint64_t x0,
                                  std::uint64_t* out) const {
  SSBFT_REQUIRE_MSG(deg_ >= 0, "row of an empty bivariate");
  const std::size_t w = static_cast<std::size_t>(deg_) + 1;
  // f_{x0}(y) = sum_j (sum_i c_ij x0^i) y^j, and by symmetry the inner sum
  // is coefficient row j evaluated at x0.
  for (std::size_t j = 0; j < w; ++j) {
    out[j] = F.horner(c_.data() + j * w, w, x0);
  }
}

void SymmetricBivariate::rows_into(const PrimeField& F,
                                   const std::uint64_t* powers,
                                   std::size_t count,
                                   std::uint64_t* out) const {
  SSBFT_REQUIRE_MSG(deg_ >= 0, "row of an empty bivariate");
  const std::size_t w = static_cast<std::size_t>(deg_) + 1;
  F.matmul(count, w, w, powers, w, c_.data(), w, out, w);
}

}  // namespace ssbft
