// perfbench: one workload run of the repository's benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--span-log FILE]
//
// Prints a host and run record, a human-readable report, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"} whose
// metrics map names to values. Normally started by perfbench/run.py, which
// builds this binary and attaches the units declared in BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "result.h"
#include "steady.h"
#include "sweep.h"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string span_log;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fm-n64|oracle-n128|table1-sweep"
               " --seed N --seconds S --trace 0|1 [--commit SHA]"
               " [--span-log FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--commit") {
        a.commit = v;
      } else if (flag == "--span-log") {
        a.span_log = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

perfbench::Result run(const Args& a) {
  if (a.workload == "fm-n64" || a.workload == "oracle-n128") {
    perfbench::SteadyOptions o;
    o.stack.fm = a.workload == "fm-n64";
    o.stack.n = o.stack.fm ? 64 : 128;
    // Enough set-up trials that the mean convergence time is steady from
    // seed to seed and the median trial time from run to run (an n=64 FM
    // trial takes about a second), and about a second of warm-up beats.
    o.setup_trials = o.stack.fm ? 10 : 96;
    o.warmup_beats = o.stack.fm ? 24 : 400;
    o.seed = a.seed;
    o.seconds = a.seconds;
    o.trace = a.trace;
    o.span_log = a.span_log;
    return perfbench::run_steady(o);
  }
  if (a.workload == "table1-sweep") {
    perfbench::SweepRunOptions o;
    o.seed = a.seed;
    o.seconds = a.seconds;
    o.trace = a.trace;
    return perfbench::run_table1_sweep(o);
  }
  usage("unknown workload " + a.workload);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  std::cout << "host: {" << perfbench::host_json() << ", \"commit\": \""
            << a.commit << "\", \"workload\": \"" << a.workload
            << "\", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
            << ", \"trace\": " << (a.trace ? 1 : 0) << "}\n";
  perfbench::Result r;
  try {
    r = run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& line : r.notes) std::cout << line << "\n";
  std::cout << "ops_failed / ops_total: " << r.failed << " / " << r.attempted
            << "\n";
  char buf[64];
  std::cout << "{\"correct\": " << (r.correct && r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const double v = r.metrics[i].second;
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");  // run.py rejects the run
    }
    std::cout << (i ? ", " : "") << "\"" << r.metrics[i].first << "\": " << buf;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
