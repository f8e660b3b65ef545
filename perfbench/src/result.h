// One workload run's outcome: the operation counts, the correctness verdict,
// and the metrics by name (units live in BENCHMARK.json; run.py attaches
// them and checks that exactly the declared names were printed).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> notes;  // human-readable report lines

  void set(const std::string& name, double value);
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

// Starts a traced result with every per-layer metric at 0: a traced run
// prints all of them on every workload, and a layer the workload does not
// exercise reads 0.
Result per_layer_result();

// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 when empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

// Peak resident set size of this process, MiB.
double rss_peak_mib();

// CPU model, nproc, ISA path, compiler, build type, as JSON members.
std::string host_json();

// Deterministic per-trial seed derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
