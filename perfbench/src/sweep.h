// The table1-sweep workload: run_sweep over every table1/* scenario cell
// with the cells' own trial counts and budgets, repeated until the window
// ends. One operation is one (cell, trial) unit.
#pragma once

#include <cstdint>

#include "result.h"

namespace perfbench {

struct SweepRunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Result run_table1_sweep(const SweepRunOptions& o);

}  // namespace perfbench
