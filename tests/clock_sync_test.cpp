// Tests for ss-Byz-Clock-Sync (Figure 4, Theorem 4): the k-Clock for any
// k, including the Lemma 6 closure timeline and full-stack adversarial
// runs.
#include <gtest/gtest.h>

#include "adversary/adversaries.h"
#include "coin/fm_coin.h"
#include "coin/oracle_coin.h"
#include "core/clock_sync.h"
#include "harness/convergence.h"
#include "harness/runner.h"
#include "support/check.h"

namespace ssbft {
namespace {

struct KParam {
  std::uint32_t n;
  std::uint32_t f;
  ClockValue k;
  bool skew_attack;
};

EngineBundle build_clock_sync(const KParam& p, std::uint64_t seed) {
  auto beacon = std::make_shared<OracleBeacon>(
      p.n, OracleCoinParams{0.45, 0.45}, Rng(seed).split("beacon"));
  CoinSpec spec = oracle_coin_spec(beacon);
  EngineConfig cfg;
  cfg.n = p.n;
  cfg.f = p.f;
  cfg.faulty = EngineConfig::last_ids_faulty(p.n, p.f);
  cfg.seed = seed;
  std::unique_ptr<Adversary> adv;
  if (p.f > 0) {
    adv = p.skew_attack ? make_clock_skew_adversary(p.k, 0)
                        : make_random_noise_adversary(6, 32);
  }
  auto factory = [spec, k = p.k](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, k, spec, rng);
  };
  EngineBundle bundle;
  bundle.engine = std::make_unique<Engine>(cfg, factory, std::move(adv));
  bundle.engine->add_listener(beacon.get());
  bundle.keepalive = beacon;
  return bundle;
}

class ClockSyncTest : public ::testing::TestWithParam<KParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClockSyncTest,
    ::testing::Values(KParam{4, 1, 1, true}, KParam{4, 1, 2, true},
                      KParam{4, 1, 3, false}, KParam{4, 1, 4, true},
                      KParam{4, 1, 5, true}, KParam{4, 1, 8, false},
                      KParam{4, 1, 16, true}, KParam{7, 2, 10, true},
                      KParam{7, 2, 60, false}, KParam{7, 2, 1024, true},
                      KParam{10, 3, 100, true}, KParam{4, 0, 12, false},
                      KParam{4, 1, 1000000007ULL, true}));

TEST_P(ClockSyncTest, SolvesKClockFromArbitraryState) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto bundle = build_clock_sync(GetParam(), seed * 307);
    ConvergenceConfig cc;
    cc.max_beats = 6000;
    cc.confirm_window = 16;
    const auto res = measure_convergence(*bundle.engine, cc);
    ASSERT_TRUE(res.converged)
        << "k=" << GetParam().k << " seed=" << seed;
    // Closure (Lemma 6): +1 mod k every beat, forever.
    const ClockValue k = GetParam().k;
    auto prev = bundle.engine->correct_clocks().front();
    for (int i = 0; i < 24; ++i) {
      bundle.engine->run_beat();
      ASSERT_TRUE(clocks_agree(*bundle.engine));
      const auto cur = bundle.engine->correct_clocks().front();
      EXPECT_EQ(cur, (prev + 1) % k);
      prev = cur;
    }
  }
}

TEST(ClockSync, WrapAroundIsExact) {
  // Watch the clock cross k-1 -> 0 several times.
  auto bundle = build_clock_sync({4, 1, 6, false}, 17);
  ConvergenceConfig cc;
  cc.max_beats = 4000;
  ASSERT_TRUE(measure_convergence(*bundle.engine, cc).converged);
  int wraps = 0;
  auto prev = bundle.engine->correct_clocks().front();
  for (int i = 0; i < 40; ++i) {
    bundle.engine->run_beat();
    const auto cur = bundle.engine->correct_clocks().front();
    if (prev == 5) {
      EXPECT_EQ(cur, 0u);
      ++wraps;
    }
    prev = cur;
  }
  EXPECT_GE(wraps, 5);
}

TEST(ClockSync, ReconvergesAfterTransientFaultsAndPhantoms) {
  auto beacon = std::make_shared<OracleBeacon>(
      7, OracleCoinParams{0.45, 0.45}, Rng(23).split("beacon"));
  CoinSpec spec = oracle_coin_spec(beacon);
  EngineConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.faulty = {5, 6};
  cfg.seed = 23;
  cfg.faults.network_faulty_until = 8;
  cfg.faults.phantoms_per_beat = 10;
  cfg.faults.faulty_drop_prob = 0.25;
  cfg.faults.corruptions[40] = {0, 1};
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, 24, spec, rng);
  };
  Engine eng(cfg, factory, make_clock_skew_adversary(24, 0));
  eng.add_listener(beacon.get());
  ConvergenceConfig cc;
  cc.max_beats = 6000;
  // One measurement across the corruption at beat 40: the detector demands
  // a *final* stable streak, so passing means it reconverged after it.
  eng.run_beats(60);
  EXPECT_TRUE(measure_convergence(eng, cc).converged);
}

TEST(ClockSync, SharedCoinModeWorks) {
  auto beacon = std::make_shared<OracleBeacon>(
      4, OracleCoinParams{0.45, 0.45}, Rng(29).split("beacon"));
  CoinSpec spec = oracle_coin_spec(beacon);
  EngineConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.faulty = {3};
  cfg.seed = 29;
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, 30, spec, rng, 0,
                                            CoinPipelineMode::kShared);
  };
  Engine eng(cfg, factory, make_clock_skew_adversary(30, 0));
  eng.add_listener(beacon.get());
  ConvergenceConfig cc;
  cc.max_beats = 6000;
  EXPECT_TRUE(measure_convergence(eng, cc).converged);
}

TEST(ClockSync, FullStackWithFmCoinAndAttacker) {
  // Everything at once: GVSS coin pipelines inside the 4-clock and the
  // phase-3 gamble, plus the dedicated FM attacker aimed at the outermost
  // coin's channels.
  CoinSpec spec = fm_coin_spec();
  EngineConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.faulty = {3};
  cfg.seed = 31;
  auto factory = [spec](const ProtocolEnv& env, Rng rng) {
    return std::make_unique<SsByzClockSync>(env, 16, spec, rng);
  };
  // The outer coin pipeline sits after FULL/PROP/BIT (3) + the 4-clock.
  const auto coin_base = static_cast<ChannelId>(
      3 + SsByz4Clock::channels_needed(spec, CoinPipelineMode::kPerSubClock));
  Engine eng(cfg, factory, make_fm_coin_attacker(coin_base));
  ConvergenceConfig cc;
  cc.max_beats = 3000;
  EXPECT_TRUE(measure_convergence(eng, cc).converged);
}

TEST(ClockSync, ChannelAccounting) {
  CoinSpec fm = fm_coin_spec();
  // 3 own + 10 (4-clock, two pipelines) + 4 (own pipeline) = 17.
  EXPECT_EQ(SsByzClockSync::channels_needed(fm, CoinPipelineMode::kPerSubClock),
            17u);
  // 3 own + 6 (4-clock shared) + 4 = 13.
  EXPECT_EQ(SsByzClockSync::channels_needed(fm, CoinPipelineMode::kShared),
            13u);
}

TEST(ClockSync, RejectsZeroK) {
  auto beacon = std::make_shared<OracleBeacon>(
      4, OracleCoinParams{0.45, 0.45}, Rng(1));
  CoinSpec spec = oracle_coin_spec(beacon);
  ProtocolEnv env{0, 4, 1};
  EXPECT_THROW(SsByzClockSync(env, 0, spec, Rng(1)), contract_error);
}

}  // namespace
}  // namespace ssbft
