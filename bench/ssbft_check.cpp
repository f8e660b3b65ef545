// ssbft_check: offline trace verifier and commitment tool.
//
// Consumes JSONL execution traces produced by `--trace DIR` runs (one file
// per (cell, trial)), merges them into canonical per-run streams, verifies
// the paper's invariants (harness/checker.h) and prints one line per run
// plus an aggregate SHA-256 commitment over all of them.
//
// Exit codes: 0 = all runs pass (censored never-converged runs pass unless
// --require-convergence), 1 = at least one invariant violation, 2 = decode
// error (malformed or forged trace input) or bad usage, such as a flag
// value that is not a number.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/checker.h"
#include "harness/checkpoint.h"

namespace {

void usage() {
  std::printf(
      "usage: ssbft_check [options] <trace.jsonl | dir>...\n"
      "\n"
      "Verifies JSONL execution traces (written by benches run with\n"
      "--trace DIR) and prints a SHA-256 commitment per merged run plus an\n"
      "aggregate over all of them. Directories contribute their *.jsonl\n"
      "files (non-recursive).\n"
      "\n"
      "options:\n"
      "  --bound N             require the final convergence to start within\n"
      "                        N beats of the last recorded corruption\n"
      "                        (of beat 0 when none)\n"
      "  --require-convergence treat a never-converged (censored) trace as a\n"
      "                        failure instead of a pass\n"
      "  --coin-agreement P    minimum post-convergence all-equal rate for\n"
      "                        coin groups (default 0.5)\n"
      "  --window W            override the header's confirmation window\n"
      "  --commitment-only     print only the aggregate commitment hex\n"
      "\n"
      "exit codes: 0 ok, 1 invariant violation, 2 decode error or bad usage\n");
}

}  // namespace

int main(int argc, char** argv) {
  ssbft::CheckOptions opts;
  bool commitment_only = false;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto take = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ssbft_check: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A mistyped number must not silently read as 0 ("don't enforce").
    auto reject = [&](const char* what, const char* text) {
      std::fprintf(stderr, "ssbft_check: %s needs %s, got '%s'\n",
                   arg.c_str(), what, text);
      std::exit(2);
    };
    auto take_u64 = [&]() -> std::uint64_t {
      const char* text = take();
      std::uint64_t v = 0;
      if (!ssbft::parse_u64_strict(text, &v)) {
        reject("a non-negative integer", text);
      }
      return v;
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--bound") {
      opts.bound = take_u64();
    } else if (arg == "--require-convergence") {
      opts.require_convergence = true;
    } else if (arg == "--coin-agreement") {
      const char* text = take();
      char* end = nullptr;
      const double p = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
        reject("a rate in [0, 1]", text);
      }
      opts.coin_agreement = p;
    } else if (arg == "--window") {
      opts.confirm_window = take_u64();
    } else if (arg == "--commitment-only") {
      commitment_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ssbft_check: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    usage();
    return 2;
  }

  // Expand directories, then sort: file-system enumeration order must not
  // influence anything downstream.
  std::error_code ec;
  std::vector<std::string> paths;
  for (const std::string& in : inputs) {
    if (std::filesystem::is_directory(in, ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(in, ec)) {
        if (!entry.is_regular_file()) continue;
        if (entry.path().extension() == ".jsonl") {
          paths.push_back(entry.path().string());
        }
      }
    } else {
      paths.push_back(in);
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "ssbft_check: no .jsonl inputs found\n");
    return 2;
  }

  std::vector<ssbft::ParsedTrace> parsed;
  for (const std::string& path : paths) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "ssbft_check: cannot open %s\n", path.c_str());
      return 2;
    }
    ssbft::ParseResult r = ssbft::parse_trace(f);
    if (!r.ok) {
      std::fprintf(stderr, "ssbft_check: %s:%zu: %s\n", path.c_str(),
                   r.error_line, r.error.c_str());
      return 2;
    }
    parsed.push_back(std::move(r.trace));
  }

  ssbft::MergeResult merged = ssbft::merge_traces(std::move(parsed));
  if (!merged.ok) {
    std::fprintf(stderr, "ssbft_check: %s\n", merged.error.c_str());
    return 2;
  }

  bool all_ok = true;
  std::vector<std::string> commitments;
  for (const ssbft::ParsedTrace& trace : merged.traces) {
    const std::string commit = ssbft::trace_commitment(trace);
    commitments.push_back(commit);
    if (commitment_only) continue;
    const ssbft::CheckResult res = ssbft::check_trace(trace, opts);
    all_ok = all_ok && res.ok;
    const char* status = res.ok ? (res.censored ? "censored" : "ok") : "FAIL";
    std::printf(
        "%-8s %-28s trial=%llu seed=%llu beats=%llu synced_at=%lld "
        "coin=%.3f/%llu commit=%.12s\n",
        status,
        trace.header.scenario.empty() ? "(ad-hoc)"
                                      : trace.header.scenario.c_str(),
        static_cast<unsigned long long>(trace.header.trial),
        static_cast<unsigned long long>(trace.header.seed),
        static_cast<unsigned long long>(res.beats),
        res.converged ? static_cast<long long>(res.synced_at) : -1ll,
        res.coin_agreement_rate,
        static_cast<unsigned long long>(res.coin_groups), commit.c_str());
    for (const std::string& v : res.violations) {
      std::printf("         violation: %s\n", v.c_str());
    }
  }

  const std::string aggregate = ssbft::aggregate_commitment(commitments);
  if (commitment_only) {
    std::printf("%s\n", aggregate.c_str());
  } else {
    std::printf("aggregate %s\n", aggregate.c_str());
  }
  return all_ok ? 0 : 1;
}
