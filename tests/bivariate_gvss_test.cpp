// Tests for symmetric bivariate dealings and the graded-VSS building
// blocks: the share/decide/recover facts Observation 2.1 relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "coin/gvss.h"
#include "field/bivariate.h"
#include "support/bitwords.h"

namespace ssbft {
namespace {

TEST(Bivariate, SymmetryHolds) {
  PrimeField F;
  Rng rng(1);
  auto B = SymmetricBivariate::sample(F, 3, 12345, rng);
  for (std::uint64_t x = 0; x < 6; ++x) {
    for (std::uint64_t y = 0; y < 6; ++y) {
      EXPECT_EQ(B.eval(F, x, y), B.eval(F, y, x));
    }
  }
}

TEST(Bivariate, SecretIsConstantTerm) {
  PrimeField F;
  Rng rng(2);
  auto B = SymmetricBivariate::sample(F, 2, 77, rng);
  EXPECT_EQ(B.secret(), 77u);
  EXPECT_EQ(B.eval(F, 0, 0), 77u);
}

TEST(Bivariate, RowMatchesEvaluation) {
  PrimeField F;
  Rng rng(3);
  auto B = SymmetricBivariate::sample(F, 4, 9, rng);
  for (std::uint64_t x = 1; x <= 5; ++x) {
    Poly row = B.row(F, x);
    EXPECT_LE(row.degree(), 4);
    for (std::uint64_t y = 0; y <= 6; ++y) {
      EXPECT_EQ(row.eval(F, y), B.eval(F, x, y));
    }
  }
}

TEST(Bivariate, CrossCheckConsistency) {
  // The round-2 identity: f_i(j) == f_j(i) for every pair.
  PrimeField F;
  Rng rng(4);
  auto B = SymmetricBivariate::sample(F, 3, 0, rng);
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      EXPECT_EQ(B.row(F, node_point(i)).eval(F, node_point(j)),
                B.row(F, node_point(j)).eval(F, node_point(i)));
    }
  }
}

TEST(Bivariate, SharesLieOnDegreeFPolynomial) {
  // Recover-phase structure: g(x) = F(x, 0) has degree <= f and
  // g(x_i) = row_i(0).
  PrimeField F;
  Rng rng(5);
  const int f = 3;
  auto B = SymmetricBivariate::sample(F, f, 4242, rng);
  std::vector<std::uint64_t> xs, ys;
  for (NodeId i = 0; i < static_cast<NodeId>(f + 1); ++i) {
    xs.push_back(node_point(i));
    ys.push_back(B.row(F, node_point(i)).eval(F, 0));
  }
  Poly g = lagrange_interpolate(F, xs, ys);
  EXPECT_LE(g.degree(), f);
  EXPECT_EQ(g.eval(F, 0), 4242u);
}

TEST(Gvss, ValidateRowAcceptsDealerOutput) {
  PrimeField F;
  Rng rng(6);
  const std::uint32_t f = 2;
  auto dealing = GvssDealing::sample(F, f, rng);
  for (NodeId i = 0; i < 7; ++i) {
    auto row = validate_row(F, f, dealing.row_for(F, i));
    ASSERT_TRUE(row.has_value());
    EXPECT_LE(row->degree(), static_cast<int>(f));
  }
}

TEST(Gvss, ValidateRowRejectsWrongWidth) {
  PrimeField F;
  EXPECT_FALSE(validate_row(F, 2, {1, 2}).has_value());        // too short
  EXPECT_FALSE(validate_row(F, 2, {1, 2, 3, 4}).has_value());  // too long
}

TEST(Gvss, ValidateRowRejectsNonCanonicalElements) {
  PrimeField F;
  EXPECT_FALSE(validate_row(F, 1, {5, PrimeField::kPrime}).has_value());
  EXPECT_FALSE(validate_row(F, 1, {5, ~std::uint64_t{0}}).has_value());
  EXPECT_TRUE(validate_row(F, 1, {5, PrimeField::kPrime - 1}).has_value());
}

TEST(Gvss, HappyThreshold) {
  // n=7, f=2: happy needs a valid row and >= 5 matches.
  EXPECT_TRUE(gvss_happy(7, 2, true, 5));
  EXPECT_TRUE(gvss_happy(7, 2, true, 7));
  EXPECT_FALSE(gvss_happy(7, 2, true, 4));
  EXPECT_FALSE(gvss_happy(7, 2, false, 7));
}

TEST(Gvss, GradeThresholds) {
  // n=7, f=2: grade 2 at >= 5 votes, grade 1 at >= 3, else 0.
  EXPECT_EQ(gvss_grade(7, 2, 7), GvssGrade::kHigh);
  EXPECT_EQ(gvss_grade(7, 2, 5), GvssGrade::kHigh);
  EXPECT_EQ(gvss_grade(7, 2, 4), GvssGrade::kLow);
  EXPECT_EQ(gvss_grade(7, 2, 3), GvssGrade::kLow);
  EXPECT_EQ(gvss_grade(7, 2, 2), GvssGrade::kNone);
  EXPECT_EQ(gvss_grade(7, 2, 0), GvssGrade::kNone);
}

TEST(Gvss, GradePropagationInvariant) {
  // If any correct node sees grade 2 (>= n-f votes), every correct node —
  // seeing at least the same correct votes, i.e. at most f fewer — grades
  // >= 1. Check the arithmetic across the (n, f) sweep.
  for (std::uint32_t f = 1; f <= 8; ++f) {
    const std::uint32_t n = 3 * f + 1;
    for (std::uint32_t votes = n - f; votes <= n; ++votes) {
      EXPECT_EQ(gvss_grade(n, f, votes), GvssGrade::kHigh);
      EXPECT_NE(gvss_grade(n, f, votes - f), GvssGrade::kNone)
          << "n=" << n << " f=" << f << " votes=" << votes;
    }
  }
}

struct RecoverParam {
  std::uint32_t n;
  std::uint32_t f;
};

class GvssRecoverTest : public ::testing::TestWithParam<RecoverParam> {};

INSTANTIATE_TEST_SUITE_P(Sweep, GvssRecoverTest,
                         ::testing::Values(RecoverParam{4, 1},
                                           RecoverParam{7, 2},
                                           RecoverParam{10, 3},
                                           RecoverParam{13, 4}));

TEST_P(GvssRecoverTest, RecoversWithAllHonestShares) {
  const auto [n, f] = GetParam();
  PrimeField F;
  Rng rng(n * 31 + f);
  for (int trial = 0; trial < 10; ++trial) {
    auto dealing = GvssDealing::sample(F, f, rng);
    std::vector<RsPoint> shares;
    for (NodeId i = 0; i < n; ++i) {
      Poly row(dealing.row_for(F, i));
      shares.push_back({node_point(i), row.eval(F, 0)});
    }
    auto s = gvss_recover(F, f, shares);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, dealing.secret());
  }
}

TEST_P(GvssRecoverTest, RecoversWithFByzantineLies) {
  const auto [n, f] = GetParam();
  PrimeField F;
  Rng rng(n * 37 + f);
  for (int trial = 0; trial < 10; ++trial) {
    auto dealing = GvssDealing::sample(F, f, rng);
    std::vector<RsPoint> shares;
    for (NodeId i = 0; i < n; ++i) {
      Poly row(dealing.row_for(F, i));
      std::uint64_t y = row.eval(F, 0);
      if (i >= n - f) y = F.uniform(rng);  // the last f senders lie
      shares.push_back({node_point(i), y});
    }
    auto s = gvss_recover(F, f, shares);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, dealing.secret());
  }
}

TEST_P(GvssRecoverTest, RecoversWithSilentByzantine) {
  // f Byzantine senders say nothing: n-f honest shares still decode.
  const auto [n, f] = GetParam();
  PrimeField F;
  Rng rng(n * 41 + f);
  auto dealing = GvssDealing::sample(F, f, rng);
  std::vector<RsPoint> shares;
  for (NodeId i = 0; i < n - f; ++i) {
    Poly row(dealing.row_for(F, i));
    shares.push_back({node_point(i), row.eval(F, 0)});
  }
  auto s = gvss_recover(F, f, shares);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, dealing.secret());
}

TEST_P(GvssRecoverTest, TableFastPathMatchesClassicInterpolation) {
  // The barycentric prefix table must be observationally equivalent to the
  // classic lagrange_interpolate fast path for every share pattern: clean,
  // with up to f injected Byzantine lies (inside and outside the prefix),
  // and with subsets where the table does not apply and recovery falls
  // back to the generic route.
  const auto [n, f] = GetParam();
  PrimeField F;
  GvssRecoverTable table(F, n, f);
  std::vector<std::uint64_t> ys(f + 1);
  Rng rng(n * 43 + f);
  for (int trial = 0; trial < 20; ++trial) {
    auto dealing = GvssDealing::sample(F, f, rng);
    std::vector<RsPoint> shares;
    for (NodeId i = 0; i < n; ++i) {
      Poly row(dealing.row_for(F, i));
      shares.push_back({node_point(i), row.eval(F, 0)});
    }
    // Inject 0..f lies at random positions (prefix positions included, so
    // the candidate itself can be poisoned).
    const auto lies = rng.next_below(f + 1);
    for (std::uint64_t l = 0; l < lies; ++l) {
      shares[rng.next_below(n)].y = F.uniform(rng);
    }
    const auto with_table = gvss_recover(F, f, shares, &table, ys.data());
    const auto without = gvss_recover(F, f, shares);
    ASSERT_EQ(with_table.has_value(), without.has_value()) << "trial " << trial;
    if (with_table) EXPECT_EQ(*with_table, *without) << "trial " << trial;
    // Non-canonical subset (first sender missing): the table cannot apply;
    // both routes must still agree.
    std::vector<RsPoint> tail(shares.begin() + 1, shares.end());
    const auto tail_with = gvss_recover(F, f, tail, &table, ys.data());
    const auto tail_without = gvss_recover(F, f, tail);
    ASSERT_EQ(tail_with.has_value(), tail_without.has_value());
    if (tail_with) EXPECT_EQ(*tail_with, *tail_without);
  }
}

// --- The coin's batched products vs the per-row / per-dealer paths ---------

class CoinBatchTest : public ::testing::TestWithParam<RecoverParam> {};

INSTANTIATE_TEST_SUITE_P(Sweep, CoinBatchTest,
                         ::testing::Values(RecoverParam{4, 1},
                                           RecoverParam{7, 2},
                                           RecoverParam{13, 4},
                                           RecoverParam{64, 21},
                                           RecoverParam{128, 42}));

TEST_P(CoinBatchTest, DealRowsProductMatchesRowFor) {
  const auto [n, f] = GetParam();
  PrimeField F;
  Rng rng(n * 47 + f);
  const auto tables = coin_tables(n, f);
  const std::size_t w = std::size_t{f} + 1;
  std::vector<std::uint64_t> rows(n * w);
  for (int trial = 0; trial < 3; ++trial) {
    const auto dealing = GvssDealing::sample(F, f, rng);
    dealing.bivariate().rows_into(F, tables->powers.data(), n, rows.data());
    for (NodeId j = 0; j < n; ++j) {
      const std::vector<std::uint64_t> row(rows.begin() + j * w,
                                           rows.begin() + (j + 1) * w);
      ASSERT_EQ(row, dealing.row_for(F, j)) << "node " << j;
    }
  }
}

TEST_P(CoinBatchTest, DealEvalProductMatchesHorner) {
  // R * vander evaluates every row at every node point.
  const auto [n, f] = GetParam();
  PrimeField F;
  Rng rng(n * 53 + f);
  const auto tables = coin_tables(n, f);
  const std::size_t w = std::size_t{f} + 1;
  std::vector<std::uint64_t> rows(n * w), evals(n * n);
  for (auto& v : rows) v = F.uniform(rng);
  F.matmul(n, w, n, rows.data(), w, tables->vander.data(), n, evals.data(), n);
  for (NodeId d = 0; d < n; ++d) {
    for (NodeId j = 0; j < n; ++j) {
      ASSERT_EQ(evals[d * n + j], F.horner(rows.data() + d * w, w, node_point(j)))
          << d << "," << j;
    }
  }
}

// One recover round's inputs, honest by default: every sender holds the
// true share of every dealing, sends it, and accepts every dealer.
struct RecoverRound {
  RecoverRound(const PrimeField& F, std::uint32_t n_, std::uint32_t f_,
               Rng& rng)
      : n(n_),
        f(f_),
        words(bitword_count(n_)),
        shares(std::size_t{n_} * n_),
        sender_ok(n_, 1),
        accepts(std::size_t{n_} * words, 0),
        grades(n_, GvssGrade::kHigh) {
    for (NodeId d = 0; d < n; ++d) {
      const auto dealing = GvssDealing::sample(F, f, rng);
      secrets.push_back(dealing.secret());
      for (NodeId j = 0; j < n; ++j) {
        shares[j * n + d] = Poly(dealing.row_for(F, j)).eval(F, 0);
        bitword_set(accepts.data() + j * words, d, true);
      }
    }
  }

  void reject(NodeId j, NodeId d) {
    bitword_set(accepts.data() + j * words, d, false);
  }

  // The per-dealer reference: the counted shares in sender order.
  std::vector<RsPoint> points_of(const PrimeField& F, NodeId d) const {
    std::vector<RsPoint> pts;
    for (NodeId j = 0; j < n; ++j) {
      const std::uint64_t y = shares[j * n + d];
      if (sender_ok[j] && bitword_get(accepts.data() + j * words, d) &&
          F.valid(y)) {
        pts.push_back({node_point(j), y});
      }
    }
    return pts;
  }

  std::uint32_t n, f;
  std::size_t words;
  std::vector<std::uint64_t> shares;
  std::vector<std::uint8_t> sender_ok;
  std::vector<std::uint64_t> accepts;
  std::vector<GvssGrade> grades;
  std::vector<std::uint64_t> secrets;
};

// Runs gvss_recover_all with and without the table and checks every dealer
// against per-dealer gvss_recover with and without the table. Returns the
// number of dealers the product recovered.
std::size_t expect_matches_per_dealer(const PrimeField& F,
                                      const RecoverRound& r,
                                      const std::string& what) {
  const auto tables = coin_tables(r.n, r.f);
  GvssRecoverScratch scratch;
  scratch.ensure(r.n, r.f);
  std::vector<std::optional<std::uint64_t>> batch(r.n), plain(r.n);
  gvss_recover_all(F, r.n, r.f, r.shares.data(), r.sender_ok.data(),
                   r.accepts.data(), r.words, r.grades.data(),
                   &tables->recover, scratch, batch.data());
  std::size_t batched = 0;
  for (NodeId d = 0; d < r.n; ++d) batched += scratch.batched[d];
  gvss_recover_all(F, r.n, r.f, r.shares.data(), r.sender_ok.data(),
                   r.accepts.data(), r.words, r.grades.data(), nullptr,
                   scratch, plain.data());
  std::vector<std::uint64_t> ys(r.f + 1);
  for (NodeId d = 0; d < r.n; ++d) {
    if (r.grades[d] == GvssGrade::kNone) {
      EXPECT_FALSE(batch[d].has_value()) << what << " dealer " << d;
      EXPECT_FALSE(plain[d].has_value()) << what << " dealer " << d;
      continue;
    }
    const auto pts = r.points_of(F, d);
    const auto want = gvss_recover(F, r.f, pts);
    EXPECT_EQ(gvss_recover(F, r.f, pts, &tables->recover, ys.data()), want)
        << what << " dealer " << d;
    EXPECT_EQ(batch[d], want) << what << " dealer " << d;
    EXPECT_EQ(plain[d], want) << what << " dealer " << d;
  }
  return batched;
}

TEST_P(CoinBatchTest, RecoverAllMatchesPerDealerRecover) {
  const auto [n, f] = GetParam();
  PrimeField F;
  Rng rng(n * 59 + f);
  // Dealers that get lies or a private sender set; Berlekamp-Welch runs for
  // each of them, so the count stays small at large n.
  const std::size_t picked = std::min<std::size_t>(n, 8);

  {
    RecoverRound r(F, n, f, rng);
    EXPECT_EQ(expect_matches_per_dealer(F, r, "clean"), n);
    for (NodeId d = 0; d < n; ++d) {
      EXPECT_EQ(gvss_recover(F, f, r.points_of(F, d)), r.secrets[d]);
    }
  }
  {
    // Steady state: the f highest ids are silent and their dealings
    // ungraded.
    RecoverRound r(F, n, f, rng);
    for (NodeId j = n - f; j < n; ++j) {
      r.sender_ok[j] = 0;
      r.grades[j] = GvssGrade::kNone;
    }
    EXPECT_EQ(expect_matches_per_dealer(F, r, "silent faulty"), n - f);
  }
  {
    // A prefix sender is missing: nothing can use the product.
    RecoverRound r(F, n, f, rng);
    r.sender_ok[rng.next_below(f + 1)] = 0;
    EXPECT_EQ(expect_matches_per_dealer(F, r, "prefix sender missing"), 0u);
  }
  {
    // Dealers with their own sender sets (a rejected vote, an absent share,
    // inside and outside the prefix) next to dealers that match S, with
    // mixed grades.
    RecoverRound r(F, n, f, rng);
    for (std::size_t k = 0; k < picked; ++k) {
      const auto d = static_cast<NodeId>(rng.next_below(n));
      r.reject(static_cast<NodeId>(rng.next_below(n)), d);
      r.shares[rng.next_below(n) * n + d] = PrimeField::kPrime;  // absent
      r.grades[rng.next_below(n)] =
          static_cast<GvssGrade>(rng.next_below(3));
    }
    expect_matches_per_dealer(F, r, "different sender sets");
  }
  // Berlekamp-Welch dominates at large n: sample the lie counts there.
  std::vector<std::uint32_t> lie_counts = {0, 1, f / 2, f};
  if (n <= 13) {
    lie_counts.clear();
    for (std::uint32_t l = 0; l <= f; ++l) lie_counts.push_back(l);
  }
  for (const std::uint32_t lies : lie_counts) {
    // `lies` wrong shares per picked dealer, alternating between the
    // prefix and the other senders.
    RecoverRound r(F, n, f, rng);
    for (std::size_t k = 0; k < picked; ++k) {
      const auto d = static_cast<NodeId>(rng.next_below(n));
      for (std::uint32_t l = 0; l < lies; ++l) {
        const auto j = static_cast<NodeId>(
            l % 2 == 0 ? rng.next_below(f + 1)
                       : f + 1 + rng.next_below(n - f - 1));
        r.shares[j * n + d] = F.uniform(rng);
      }
    }
    // Lies change share values, not sender sets: every dealer still takes
    // the product, and the liars' dealings fall back one by one.
    EXPECT_EQ(expect_matches_per_dealer(F, r, "lies=" + std::to_string(lies)),
              n);
  }
}

TEST(Gvss, DealingResampleMatchesSample) {
  // resample() must make the same draws as sample() so pipeline recycling
  // is replay-identical to per-beat construction.
  PrimeField F;
  Rng rng_a(123), rng_b(123);
  auto fresh = GvssDealing::sample(F, 3, rng_a);
  auto recycled = GvssDealing::sample(F, 3, rng_b);
  // Warm `recycled` with different state, then re-deal from a synced rng.
  Rng rng_c(456);
  recycled.resample(F, 3, rng_c);
  Rng rng_d(123);
  recycled.resample(F, 3, rng_d);
  EXPECT_EQ(recycled.secret(), fresh.secret());
  for (NodeId i = 0; i < 10; ++i) {
    EXPECT_EQ(recycled.row_for(F, i), fresh.row_for(F, i));
  }
}

TEST(Gvss, RecoverFailsWithTooFewShares) {
  PrimeField F;
  EXPECT_FALSE(gvss_recover(F, 2, {{1, 5}, {2, 9}}).has_value());
  EXPECT_FALSE(gvss_recover(F, 2, {}).has_value());
}

TEST(Gvss, DegreeFSecrecy) {
  // f rows determine nothing about the secret: for any f rows there exist
  // dealings with those rows and *any* secret. Verified constructively for
  // f=1, n=4: enumerate two dealings sharing node 0's row but with
  // different secrets.
  PrimeField F;
  Rng rng(77);
  auto B1 = SymmetricBivariate::sample(F, 1, 10, rng);
  Poly row0 = B1.row(F, node_point(0));
  // Build B2 with secret 55 and the same row for node 0:
  // F2(x,y) = c00 + c01(x+y) + c11 xy with F2(1,y) = row0(y).
  // row0(y) = (c00 + c01) + (c01 + c11) y  =>  c01 = row0[0] - 55,
  // c11 = row0[1] - c01.
  const std::uint64_t c00 = 55;
  const std::uint64_t c01 = F.sub(row0.coeff(0), c00);
  const std::uint64_t c11 = F.sub(row0.coeff(1), c01);
  // Check: the reconstructed row matches node 0's view exactly.
  const std::uint64_t r0 = F.add(c00, c01);
  const std::uint64_t r1 = F.add(c01, c11);
  EXPECT_EQ(r0, row0.coeff(0));
  EXPECT_EQ(r1, row0.coeff(1));
  EXPECT_NE(c00, B1.secret());  // same view, different secret: zero leakage
}

}  // namespace
}  // namespace ssbft
