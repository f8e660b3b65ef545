// Graded verifiable secret sharing building blocks (Observation 2.1).
//
// The Feldman-Micali common coin rests on a GVSS with three logical phases:
// share, decide (grade), recover. This header provides the per-dealing
// machinery, decoupled from message transport so it is directly unit- and
// property-testable:
//
//   * dealing: symmetric bivariate sampling + row extraction;
//   * row validation of untrusted dealer payloads;
//   * cross-check counting and the happy predicate;
//   * grades from vote counts (>= n-f -> 2, >= n-2f -> 1, else 0);
//   * error-correcting recovery of the dealt secret (fast path: clean
//     interpolation; slow path: Berlekamp-Welch).
//
// Key facts used by the coin (proved in the VSS literature, exercised by
// tests/gvss_test.cpp):
//   - a correct dealer's dealing gets grade 2 at every correct node, and
//     its secret is recovered by everyone (n >= 3f+1 gives the RS decoder
//     budget, see reed_solomon.h);
//   - if any correct node grades a dealing 2, every correct node grades it
//     >= 1 (n-f votes minus f Byzantine still clears n-2f);
//   - f rows reveal nothing about the secret before the recover phase
//     (degree-f secrecy) — the unpredictability property.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "field/bivariate.h"
#include "field/fp.h"
#include "field/poly.h"
#include "field/reed_solomon.h"
#include "support/rng.h"
#include "support/types.h"

namespace ssbft {

// Field point assigned to node id (must be nonzero and distinct).
inline std::uint64_t node_point(NodeId id) { return std::uint64_t{id} + 1; }

// Grades per Definition/use in Observation 2.1.
enum class GvssGrade : std::uint8_t { kNone = 0, kLow = 1, kHigh = 2 };

// Row-validity rule for untrusted dealer payloads, over raw storage: true
// iff exactly f+1 coefficients, all canonical. The single source of truth
// — validate_row and the coin's non-allocating decode path both call it.
bool validate_row_raw(const PrimeField& F, std::uint32_t f,
                      const std::uint64_t* coeffs, std::size_t count);

// Validates an untrusted row polynomial payload: every coefficient
// canonical and degree <= f. Returns nullopt on any violation.
std::optional<Poly> validate_row(const PrimeField& F, std::uint32_t f,
                                 const std::vector<std::uint64_t>& coeffs);

// Happy predicate: the node holds a valid row and at least n-f nodes'
// cross values matched it (matches includes the node itself).
bool gvss_happy(std::uint32_t n, std::uint32_t f, bool row_valid,
                std::uint32_t cross_matches);

// Grade from the number of distinct nodes that voted happy.
GvssGrade gvss_grade(std::uint32_t n, std::uint32_t f, std::uint32_t votes);

// Precomputed Lagrange tables for the recovery fast path over the fixed
// node points 1..n. Immutable once built; the coin shares one per (n, f)
// process-wide through coin_tables().
//
// The tables carry, for the canonical prefix subset {node_point(0..f)} =
// {1..f+1}, the basis coefficients L_i(x) of the degree-f interpolant at
// every other node point and at 0. When the first f+1 shares handed to
// gvss_recover are exactly that prefix (the steady state: correct low-id
// senders are present every beat), candidate evaluation is a table-row
// times share-vector product — no inversion, no allocation. Other subsets
// fall back to a generic batch-inverted path.
class GvssRecoverTable {
 public:
  GvssRecoverTable() = default;
  GvssRecoverTable(const PrimeField& F, std::uint32_t n, std::uint32_t f) {
    init(F, n, f);
  }

  // Builds (or rebuilds) the tables. One batch inversion, O(n * f) space.
  void init(const PrimeField& F, std::uint32_t n, std::uint32_t f);

  bool ready() const { return n_ != 0; }
  std::uint32_t n() const { return n_; }
  std::uint32_t f() const { return f_; }

  // L_i(0) for i <= f (f+1 entries).
  const std::uint64_t* zero_row() const { return rows_.data(); }
  // L_i(point) for point in [f+2, n], f+1 entries. Consecutive points have
  // consecutive rows, so the rows of a run of points form one row-major
  // matrix.
  const std::uint64_t* target_row(std::uint64_t point) const {
    return rows_.data() + static_cast<std::size_t>(point - f_ - 1) * (f_ + 1);
  }

 private:
  std::uint32_t n_ = 0;
  std::uint32_t f_ = 0;
  std::vector<std::uint64_t> rows_;  // (n - f) rows x (f+1): L(0), L(f+2..n)
};

// Recovers the dealt secret g(0) from shares g(node_point(j)) where
// g(x) = F(x, 0) has degree <= f and at most `f` of the points lie. Fast
// path: if the first f+1 points interpolate a polynomial consistent with
// every point, that is the unique codeword. Otherwise full Berlekamp-Welch.
// Returns nullopt when decoding is impossible (an inevitably faulty
// dealing); callers map that to the canonical secret 0 so all correct nodes
// that fail, fail identically.
//
// When `table` is provided (ready, same f) and the shares' first f+1
// x's are the canonical prefix 1..f+1, the fast path runs entirely out of
// the precomputed tables, staging the prefix values in `ys_scratch` (f+1
// entries of caller storage, required with a table), and allocates
// nothing. All paths compute the same field elements, so results are
// bit-identical with or without a table.
std::optional<std::uint64_t> gvss_recover(const PrimeField& F, std::uint32_t f,
                                          const std::vector<RsPoint>& shares,
                                          const GvssRecoverTable* table = nullptr,
                                          std::uint64_t* ys_scratch = nullptr);

// The immutable (n, f) tables of the coin's three matrix products over the
// node points x_j = node_point(j) = j + 1:
//   * deal send: every node's row = powers * C, C the dealing's
//     coefficients (SymmetricBivariate::rows_into);
//   * deal receive: every received row at every node point = R * vander;
//   * recover: checks and secrets = T_S * Y, T_S from `recover`'s Lagrange
//     rows (gvss_recover_all).
struct CoinTables {
  CoinTables(const PrimeField& F, std::uint32_t n, std::uint32_t f);

  std::uint32_t n;
  std::uint32_t f;
  std::vector<std::uint64_t> powers;  // n x (f+1): powers[j][i] = x_j^i
  std::vector<std::uint64_t> vander;  // (f+1) x n: vander[k][j] = x_j^k
  GvssRecoverTable recover;
};

// The process-wide CoinTables for (n, f), built on first request and shared
// by every caller after that (one object per (n, f) for the life of the
// process). Thread-safe: sweeps build engines on several threads at once.
std::shared_ptr<const CoinTables> coin_tables(std::uint32_t n, std::uint32_t f);

// Round-transient buffers of gvss_recover_all; ensure() sizes them once per
// (n, f), so a warm recover round allocates nothing.
struct GvssRecoverScratch {
  // Dealers per product: bounds the checks buffer at (n - f) x kCols.
  static constexpr std::size_t kCols = 16;

  void ensure(std::uint32_t n, std::uint32_t f);

  std::vector<RsPoint> pts;           // one dealing's point set
  std::vector<std::uint64_t> ys;      // f+1 staged prefix values
  std::vector<std::uint8_t> batched;  // per dealer: point set == S
  std::vector<std::uint64_t> checks;  // T_S * Y for kCols dealers
};

// Recovers every graded dealing of one recover round from a flat share
// matrix. shares[j*n + d] is sender j's share of dealer d's secret (every
// entry below 2^61; a non-canonical entry is an absent share). Sender j's
// share of d counts iff sender_ok[j], bit d of accepts row j (rows of
// `words` bitwords) is set, and the share is canonical. For every dealer d
// with grades[d] != kNone, out[d] is exactly gvss_recover(F, f, pts_d,
// table, ...) for pts_d = the counted shares in sender order; other
// dealers get nullopt.
//
// S is the set of senders with sender_ok. When S holds the prefix 0..f,
// every dealer whose counted shares come from exactly S is checked and
// recovered by the product T_S * Y: T_S is the table's zero row and its
// Lagrange rows of the points past the prefix up to S's highest sender,
// and Y is rows 0..f of `shares`. Any other dealer, and any whose shares
// disagree, goes through gvss_recover on its own.
void gvss_recover_all(const PrimeField& F, std::uint32_t n, std::uint32_t f,
                      const std::uint64_t* shares,
                      const std::uint8_t* sender_ok,
                      const std::uint64_t* accepts, std::size_t words,
                      const GvssGrade* grades, const GvssRecoverTable* table,
                      GvssRecoverScratch& scratch,
                      std::optional<std::uint64_t>* out);

// One dealer's side of the share phase.
class GvssDealing {
 public:
  // Samples a dealing of a uniform secret (degree f in each variable).
  static GvssDealing sample(const PrimeField& F, std::uint32_t f, Rng& rng);

  // Re-deals in place with the same draw sequence as sample(), reusing the
  // coefficient storage (no allocation once warm).
  void resample(const PrimeField& F, std::uint32_t f, Rng& rng);

  // Row polynomial for node `to` (degree <= f, f+1 coefficients).
  std::vector<std::uint64_t> row_for(const PrimeField& F, NodeId to) const;

  std::uint64_t secret() const { return poly_.secret(); }
  const SymmetricBivariate& bivariate() const { return poly_; }

 private:
  explicit GvssDealing(SymmetricBivariate p) : poly_(std::move(p)) {}
  SymmetricBivariate poly_;
};

}  // namespace ssbft
