// Adversary gallery: the same 2-Clock system under every attack strategy
// this library implements, showing convergence holding at f < n/3
// regardless of the adversary's sophistication — including one that reads
// the coin (rushing) before choosing its votes.
//
// The four worlds are registered scenario cells (`gallery/*` in the
// harness registry — `ssbft_bench run 'gallery/*'` runs the same grid),
// and all trials of all four adversaries go through one sweep queue.
//
//   $ ./byzantine_gallery [trials]
#include <iostream>
#include <string>

#include "harness/checkpoint.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "harness/table.h"

using namespace ssbft;

int main(int argc, char** argv) {
  std::uint64_t trials = 40;
  if (argc > 2 || (argc == 2 && !parse_u64_strict(argv[1], &trials))) {
    std::cerr << "byzantine_gallery: usage: byzantine_gallery [trials] "
                 "(a non-negative integer)\n";
    return 2;
  }
  const struct {
    const char* scenario;
    const char* label;
  } rows[] = {
      {"gallery/silent", "silent (crash)"},
      {"gallery/noise", "random noise"},
      {"gallery/split", "split-world equivocation"},
      {"gallery/anti-coin", "anti-coin rusher (reads the coin first)"},
  };

  std::vector<SweepCell> cells;
  for (const auto& row : rows) {
    const ScenarioSpec* spec = find_scenario(row.scenario);
    SSBFT_CHECK(spec != nullptr);
    RunnerConfig rc = scenario_runner_config(*spec);
    rc.trials = trials;
    cells.push_back(SweepCell{spec->name, build_scenario(*spec), rc});
  }

  std::cout << "ss-Byz-2-Clock, n=7, f=2, " << trials
            << " trials per adversary, randomized genesis\n\n";
  const std::vector<TrialStats> stats = run_sweep(cells, SweepOptions{});
  AsciiTable t({"adversary", "converged", "mean beats", "median", "p90"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TrialStats& s = stats[i];
    t.add_row({rows[i].label,
               std::to_string(s.converged) + "/" + std::to_string(trials),
               fmt_double(s.mean, 1), fmt_double(s.median, 1),
               fmt_double(s.p90, 1)});
  }
  t.print(std::cout);
  std::cout
      << "\nnote the anti-coin rusher: it sees each beat's coin before\n"
         "sending (the model allows rushing), yet cannot slow convergence\n"
         "much — the gamble's value was fixed one beat earlier (Remark 3.1/"
         "Lemma 4).\n";
  return 0;
}
