// The two steady workloads' protocol stack: ss-Byz-Clock-Sync (k = 64)
// with f = (n-1)/3 Byzantine nodes running the clock-skew adversary, on
// either the library's FM/GVSS coin or the oracle coin.
#pragma once

#include <cstdint>

#include "harness/runner.h"
#include "tracer.h"

namespace perfbench {

struct StackSpec {
  std::uint32_t n = 64;
  bool fm = true;  // false: oracle coin with p0 = p1 = 0.45
};

// Builds the stack from the library's public pieces. With `tracer` null it
// uses fm_coin_spec() / oracle_coin_spec() as they are. With a tracer,
// every ClockProtocol, CoinComponent, Adversary and BeatListener is wrapped
// in a forwarding decorator that records spans, and the FM pipeline is
// rebuilt around decorated FmCoinInstances exactly as fm_coin_spec() builds
// it (one shared FmCoinScratch per pipeline). Both variants draw the same
// random streams, so they execute identical beats. The tracer must outlive
// the bundle.
ssbft::EngineBundle build_stack(const StackSpec& spec, std::uint64_t seed,
                                Tracer* tracer = nullptr);

}  // namespace perfbench
