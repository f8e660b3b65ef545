// ssbft_sim — the command-line experiment driver.
//
// Runs any algorithm in the library against any adversary, over many
// seeded trials, and prints a convergence/traffic summary (or CSV). This
// is the tool a downstream user reaches for to answer "what does algorithm
// X do at (n, f, k) under attack Y?" without writing C++. The flags fill
// one harness World, so every run is built by the same build_world the
// scenario registry and `ssbft_bench` use.
//
//   ssbft_sim --algo clocksync --n 7 --f 2 --k 60 --adversary skew
//             --coin fm --trials 25 --max-beats 8000 [--csv]
//
//   --algo      clocksync | clock2 | clock4 | cascade | king | queen |
//               dw | dw-shared
//   --coin      oracle | fm | local        (coin-consuming algorithms)
//   --adversary silent | noise | split | skew | adaptive | coinattack
//   --levels    cascade tower height (cascade only; k = 2^levels)
//
// A malformed flag or an impossible world (f > n, k = 0, ...) exits 2
// with one error line.
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "harness/checkpoint.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/table.h"
#include "support/check.h"

using namespace ssbft;

namespace {

template <typename T>
struct Named {
  const char* name;
  T value;
};

const Named<Family> kAlgos[] = {
    {"clocksync", Family::kClockSync},
    {"clock2", Family::kClock2},
    {"clock4", Family::kClock4},
    {"cascade", Family::kCascade},
    {"king", Family::kPipelinedKing},
    {"queen", Family::kPipelinedQueen},
    {"dw", Family::kDolevWelch},
    {"dw-shared", Family::kDolevWelchShared},
};
const Named<CoinKind> kCoins[] = {
    {"oracle", CoinKind::kOracle},
    {"fm", CoinKind::kFm},
    {"local", CoinKind::kLocal},
};
const Named<Attack> kAttacks[] = {
    {"silent", Attack::kSilent},     {"noise", Attack::kNoise},
    {"split", Attack::kSplit},       {"skew", Attack::kSkew},
    {"adaptive", Attack::kAdaptive}, {"coinattack", Attack::kCoinAttack},
};

struct Options {
  std::string algo = "clocksync";
  std::string coin = "oracle";
  std::string adversary = "skew";
  Family family = Family::kClockSync;
  World world;
  std::uint64_t trials = 20;
  std::uint64_t seed = 1;
  std::uint64_t max_beats = 10000;
  bool csv = false;
};

[[noreturn]] void fail(const std::string& msg) {
  std::cerr << "ssbft_sim: " << msg << " (try --help)\n";
  std::exit(2);
}

void usage() {
  std::cout << "usage: ssbft_sim [--algo A] [--coin C] [--adversary X] "
               "[--n N] [--f F] [--k K]\n"
            << "                 [--levels L] [--trials T] [--seed S] "
               "[--max-beats B] [--csv]\n"
            << "  --algo      clocksync | clock2 | clock4 | cascade | king | "
               "queen | dw | dw-shared\n"
            << "  --coin      oracle | fm | local (coin-consuming "
               "algorithms)\n"
            << "  --adversary silent | noise | split | skew | adaptive | "
               "coinattack\n"
            << "  --levels    cascade tower height (cascade only; k = "
               "2^levels)\n";
}

template <typename T, std::size_t N>
T lookup(const Named<T> (&table)[N], const char* flag,
         const std::string& name) {
  for (const Named<T>& entry : table) {
    if (name == entry.name) return entry.value;
  }
  fail(std::string("unknown ") + flag + " '" + name + "'");
}

// A non-negative integer that fits T; anything else is a usage error.
template <typename T>
T number(const std::string& flag, const char* text) {
  std::uint64_t v = 0;
  if (!parse_u64_strict(text, &v) || v > std::numeric_limits<T>::max()) {
    fail(flag + " needs an integer in 0.." +
         std::to_string(std::numeric_limits<T>::max()) + ", got '" + text +
         "'");
  }
  return static_cast<T>(v);
}

Options parse(int argc, char** argv) {
  Options o;
  o.world.k = 16;
  o.world.levels = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    }
    if (a == "--csv") {
      o.csv = true;
      continue;
    }
    if (i + 1 >= argc) fail(a + " needs a value");
    const char* v = argv[++i];
    if (a == "--algo") o.algo = v;
    else if (a == "--coin") o.coin = v;
    else if (a == "--adversary") o.adversary = v;
    else if (a == "--n") o.world.n = number<std::uint32_t>(a, v);
    else if (a == "--f") o.world.f = number<std::uint32_t>(a, v);
    else if (a == "--k") o.world.k = number<ClockValue>(a, v);
    else if (a == "--levels") o.world.levels = number<std::uint32_t>(a, v);
    else if (a == "--trials") o.trials = number<std::uint64_t>(a, v);
    else if (a == "--seed") o.seed = number<std::uint64_t>(a, v);
    else if (a == "--max-beats") o.max_beats = number<std::uint64_t>(a, v);
    else fail("unknown flag " + a);
  }
  o.family = lookup(kAlgos, "--algo", o.algo);
  o.world.coin = lookup(kCoins, "--coin", o.coin);
  o.world.attack = lookup(kAttacks, "--adversary", o.adversary);
  o.world.actual = o.world.f;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const World& w = o.world;
  if (w.f > 0 && w.f <= w.n && w.n <= std::uint64_t{3} * w.f &&
      o.family != Family::kPipelinedQueen /* queen fails earlier anyway */) {
    std::cerr << "warning: n <= 3f — expect non-convergence (that may be "
                 "the experiment)\n";
  }

  RunnerConfig rc;
  rc.trials = o.trials;
  rc.base_seed = o.seed;
  rc.convergence.max_beats = o.max_beats;
  TrialStats stats;
  try {
    stats = run_trials(build_world(o.family, w), rc);
  } catch (const contract_error& e) {
    std::cerr << "ssbft_sim: error: " << e.what() << "\n";
    return 2;
  }

  AsciiTable t({"algo", "coin", "adversary", "n", "f", "k", "trials",
                "converged", "mean", "median", "p90", "max", "msgs/beat"});
  t.add_row({o.algo, o.coin, o.adversary, std::to_string(w.n),
             std::to_string(w.f), std::to_string(w.k),
             std::to_string(stats.trials), std::to_string(stats.converged),
             fmt_double(stats.mean, 2), fmt_double(stats.median, 1),
             fmt_double(stats.p90, 1), std::to_string(stats.max),
             fmt_double(stats.mean_msgs_per_beat, 1)});
  if (o.csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
    if (stats.converged < stats.trials) {
      std::cout << (stats.trials - stats.converged)
                << " trial(s) censored at --max-beats " << o.max_beats
                << " (excluded from the statistics above)\n";
    }
  }
  return 0;
}
