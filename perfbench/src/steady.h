// The steady workloads (fm-n64, oracle-n128): a closed beat loop over one
// large engine. Set-up builds the stack several times and runs each build
// to confirmed convergence from its randomized start; the first one then
// warms up and runs a timed window of steady beats, one operation per beat,
// while the other set-up trials run spread over the window.
#pragma once

#include <cstdint>
#include <string>

#include "result.h"
#include "sim/engine.h"
#include "stack.h"

namespace perfbench {

// Checks one beat of a converged system: every correct clock agrees and
// advanced by exactly 1 mod k since the previous beat. Also chains a digest
// of every correct clock of every beat, so two runs can be compared beat
// for beat.
class BeatCheck {
 public:
  explicit BeatCheck(const ssbft::Engine& engine);
  // Observes the beat the engine just ran; false when it failed the check.
  bool step(const ssbft::Engine& engine);
  std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t k_;
  std::uint64_t prev_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

struct SteadyOptions {
  StackSpec stack;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setup_trials = 5;
  int warmup_beats = 0;  // untimed beats before the window
  std::string span_log;  // traced run: where to write the span log
};

Result run_steady(const SteadyOptions& opts);

}  // namespace perfbench
