#include "coin/gvss.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "support/bitwords.h"
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
  // Row 0 is L(0); row r >= 1 is L at node point f+1+r.
  rows_.assign(std::size_t{n - f} * m, 0);
  fill_row(0, rows_.data());
  for (std::size_t r = 1; r < n - f; ++r) {
    fill_row(f + 1 + r, rows_.data() + r * m);
  }
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
                                          const GvssRecoverTable* table,
                                          std::uint64_t* ys_scratch) {
  const int deg = static_cast<int>(f);
  if (shares.size() < std::size_t{f} + 1) return std::nullopt;
  // Fast path: the first f+1 shares define a candidate; if *every* share
  // agrees it is the unique degree-f codeword (zero errors).
  if (table_applies(table, f, shares)) {
    // Allocation-free: candidate values at the remaining share points come
    // straight from the precomputed Lagrange rows, each one table row times
    // the prefix values, staged flat once for the kernel.
    SSBFT_REQUIRE_MSG(ys_scratch != nullptr,
                      "the table path needs f+1 entries of ys scratch");
    const std::size_t m = std::size_t{f} + 1;
    for (std::size_t i = 0; i < m; ++i) ys_scratch[i] = shares[i].y;
    const auto lagrange_at = [&](const std::uint64_t* row) {
      std::uint64_t v = 0;
      F.matmul(1, m, 1, row, m, ys_scratch, 1, &v, 1);
      return v;
    };
    bool clean = true;
    for (std::size_t k = m; k < shares.size(); ++k) {
      if (lagrange_at(table->target_row(shares[k].x)) != shares[k].y) {
        clean = false;
        break;
      }
    }
    if (clean) return lagrange_at(table->zero_row());
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

CoinTables::CoinTables(const PrimeField& F, std::uint32_t n_nodes,
                       std::uint32_t faults)
    : n(n_nodes), f(faults), recover(F, n_nodes, faults) {
  const std::size_t w = std::size_t{f} + 1;
  powers.assign(std::size_t{n} * w, 0);
  vander.assign(w * n, 0);
  for (NodeId j = 0; j < n; ++j) {
    std::uint64_t xp = 1;
    for (std::size_t i = 0; i < w; ++i) {
      powers[j * w + i] = xp;
      vander[i * n + j] = xp;
      xp = F.mul(xp, node_point(j));
    }
  }
}

std::shared_ptr<const CoinTables> coin_tables(std::uint32_t n,
                                              std::uint32_t f) {
  static std::mutex mu;
  static std::map<std::pair<std::uint32_t, std::uint32_t>,
                  std::shared_ptr<const CoinTables>>
      cache;  // guarded by mu
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[{n, f}];
  if (slot == nullptr) slot = std::make_shared<const CoinTables>(PrimeField{}, n, f);
  return slot;
}

void GvssRecoverScratch::ensure(std::uint32_t n, std::uint32_t f) {
  pts.reserve(n);
  ys.resize(std::size_t{f} + 1);
  batched.resize(n);
  checks.resize(std::size_t{n - f} * kCols);
}

void gvss_recover_all(const PrimeField& F, std::uint32_t n, std::uint32_t f,
                      const std::uint64_t* shares,
                      const std::uint8_t* sender_ok,
                      const std::uint64_t* accepts, std::size_t words,
                      const GvssGrade* grades, const GvssRecoverTable* table,
                      GvssRecoverScratch& scratch,
                      std::optional<std::uint64_t>* out) {
  constexpr std::size_t kCols = GvssRecoverScratch::kCols;
  const std::size_t w = std::size_t{f} + 1;
  const auto counts = [&](std::size_t j, std::size_t d) {
    return sender_ok[j] && bitword_get(accepts + j * words, d) &&
           F.valid(shares[j * n + d]);
  };
  // S must hold the prefix 0..f; `last` is its highest sender.
  bool prefix = table != nullptr && table->ready() && table->n() == n &&
                table->f() == f;
  for (std::size_t j = 0; prefix && j < w; ++j) prefix = sender_ok[j];
  std::size_t last = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (sender_ok[j]) last = j;
  }
  // The batched dealers span columns [lo, hi) (steady state: the correct
  // dealers, which carry the lowest ids).
  std::size_t lo = n, hi = 0;
  for (std::size_t d = 0; d < n; ++d) {
    out[d] = std::nullopt;
    bool all = prefix && grades[d] != GvssGrade::kNone;
    for (std::size_t j = 0; all && j <= last; ++j) {
      all = !sender_ok[j] || counts(j, d);
    }
    scratch.batched[d] = all;
    if (all) {
      lo = std::min(lo, d);
      hi = d + 1;
    }
  }
  // T_S * Y, kCols dealers at a time. The table's rows 0..last-f are L(0)
  // and then L at the points of senders f+1..last, so one product covers
  // every check row; row j - f serves sender j.
  std::uint64_t* checks = scratch.checks.data();
  for (std::size_t c0 = lo; c0 < hi; c0 += kCols) {
    const std::size_t cols = std::min(kCols, hi - c0);
    F.matmul(last - f + 1, w, cols, table->zero_row(), w, shares + c0, n,
             checks, kCols);
    for (std::size_t d = c0; d < c0 + cols; ++d) {
      if (!scratch.batched[d]) continue;
      bool clean = true;
      for (std::size_t j = w; clean && j <= last; ++j) {
        clean = !sender_ok[j] ||
                checks[(j - f) * kCols + (d - c0)] == shares[j * n + d];
      }
      if (clean) out[d] = checks[d - c0];
    }
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (grades[d] == GvssGrade::kNone || out[d].has_value()) continue;
    scratch.pts.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (counts(j, d)) {
        scratch.pts.push_back(
            {node_point(static_cast<NodeId>(j)), shares[j * n + d]});
      }
    }
    out[d] = gvss_recover(F, f, scratch.pts, table, scratch.ys.data());
  }
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
  poly_.row_into(F, node_point(to), coeffs.data());
  return coeffs;
}

}  // namespace ssbft
