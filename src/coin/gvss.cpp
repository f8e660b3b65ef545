#include "coin/gvss.h"

#include "support/check.h"

namespace ssbft {

bool validate_row_raw(const PrimeField& F, std::uint32_t f,
                      const std::uint64_t* coeffs, std::size_t count) {
  if (count != std::size_t{f} + 1) return false;
  for (std::size_t i = 0; i < count; ++i) {
    if (!F.valid(coeffs[i])) return false;
  }
  return true;
}

std::optional<Poly> validate_row(const PrimeField& F, std::uint32_t f,
                                 const std::vector<std::uint64_t>& coeffs) {
  if (!validate_row_raw(F, f, coeffs.data(), coeffs.size())) {
    return std::nullopt;
  }
  return Poly(coeffs);
}

bool gvss_happy(std::uint32_t n, std::uint32_t f, bool row_valid,
                std::uint32_t cross_matches) {
  return row_valid && cross_matches >= n - f;
}

GvssGrade gvss_grade(std::uint32_t n, std::uint32_t f, std::uint32_t votes) {
  if (votes >= n - f) return GvssGrade::kHigh;
  if (votes >= n - 2 * f) return GvssGrade::kLow;
  return GvssGrade::kNone;
}

void GvssRecoverTable::init(const PrimeField& F, std::uint32_t n,
                            std::uint32_t f) {
  SSBFT_REQUIRE_MSG(n > f, "recover table needs n > f");
  n_ = n;
  f_ = f;
  const std::size_t m = std::size_t{f} + 1;  // prefix subset {1..f+1}
  // Denominators d_i = prod_{j != i} (x_i - x_j), x = 1..f+1, inverted in
  // one batch pass.
  std::vector<std::uint64_t> denom(m, 1), scratch(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      denom[i] = F.mul(denom[i], F.sub(i + 1, j + 1));
    }
  }
  F.batch_inv(denom.data(), m, scratch.data());
  // L_i(x) = d_i^-1 * prod_{j != i} (x - x_j), tabulated at x = 0 and at
  // every non-prefix node point f+2..n.
  auto fill_row = [&](std::uint64_t x, std::uint64_t* out) {
    for (std::size_t i = 0; i < m; ++i) {
      std::uint64_t num = 1;
      for (std::size_t j = 0; j < m; ++j) {
        if (j == i) continue;
        num = F.mul(num, F.sub(x, j + 1));
      }
      out[i] = F.mul(num, denom[i]);
    }
  };
  zero_row_.assign(m, 0);
  fill_row(0, zero_row_.data());
  const std::size_t targets = n - f - 1;
  target_rows_.assign(targets * m, 0);
  for (std::size_t t = 0; t < targets; ++t) {
    fill_row(f + 2 + t, target_rows_.data() + t * m);
  }
  ys_scratch_.assign(m, 0);
}

namespace {

// True iff the first f+1 shares are exactly the canonical prefix 1..f+1 and
// every later share's x is a tabulated node point — the steady-state shape.
bool table_applies(const GvssRecoverTable* table, std::uint32_t f,
                   const std::vector<RsPoint>& shares) {
  if (table == nullptr || !table->ready()) return false;
  if (table->f() != f) return false;
  for (std::size_t i = 0; i <= f; ++i) {
    if (shares[i].x != i + 1) return false;
  }
  for (std::size_t k = std::size_t{f} + 1; k < shares.size(); ++k) {
    if (shares[k].x < std::uint64_t{f} + 2 || shares[k].x > table->n()) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<std::uint64_t> gvss_recover(const PrimeField& F, std::uint32_t f,
                                          const std::vector<RsPoint>& shares,
                                          const GvssRecoverTable* table) {
  const int deg = static_cast<int>(f);
  if (shares.size() < std::size_t{f} + 1) return std::nullopt;
  // Fast path: the first f+1 shares define a candidate; if *every* share
  // agrees it is the unique degree-f codeword (zero errors).
  if (table_applies(table, f, shares)) {
    // Allocation-free: candidate values at the remaining share points come
    // straight from the precomputed Lagrange rows as table-row / share dot
    // products, with the prefix values staged flat once for the kernel.
    const std::size_t m = std::size_t{f} + 1;
    std::uint64_t* ys = table->ys_scratch();
    for (std::size_t i = 0; i < m; ++i) ys[i] = shares[i].y;
    bool clean = true;
    for (std::size_t k = m; k < shares.size(); ++k) {
      if (F.dot(table->target_row(shares[k].x), ys, m) != shares[k].y) {
        clean = false;
        break;
      }
    }
    if (clean) return F.dot(table->zero_row(), ys, m);
  } else {
    std::vector<std::uint64_t> xs, ys;
    xs.reserve(f + 1);
    ys.reserve(f + 1);
    for (std::size_t i = 0; i <= f; ++i) {
      xs.push_back(shares[i].x);
      ys.push_back(shares[i].y);
    }
    const Poly cand = lagrange_interpolate(F, xs, ys);
    if (cand.degree() <= deg && count_disagreements(F, cand, shares) == 0) {
      return cand.eval(F, 0);
    }
  }
  auto decoded = berlekamp_welch(F, shares, deg, static_cast<int>(f));
  if (!decoded) return std::nullopt;
  return decoded->eval(F, 0);
}

GvssDealing GvssDealing::sample(const PrimeField& F, std::uint32_t f,
                                Rng& rng) {
  GvssDealing d{SymmetricBivariate{}};
  d.resample(F, f, rng);
  return d;
}

void GvssDealing::resample(const PrimeField& F, std::uint32_t f, Rng& rng) {
  const std::uint64_t secret = F.uniform(rng);
  poly_.resample(F, static_cast<int>(f), secret, rng);
}

std::vector<std::uint64_t> GvssDealing::row_for(const PrimeField& F,
                                                NodeId to) const {
  std::vector<std::uint64_t> coeffs(static_cast<std::size_t>(poly_.degree()) + 1,
                                    0);
  row_into(F, to, coeffs.data());
  return coeffs;
}

void GvssDealing::row_into(const PrimeField& F, NodeId to,
                           std::uint64_t* out) const {
  poly_.row_into(F, node_point(to), out);
}

}  // namespace ssbft
