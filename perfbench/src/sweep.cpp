#include "sweep.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "harness/sweep.h"
#include "tracer.h"

namespace perfbench {

using namespace ssbft;

namespace {

// table1/<family>/n<k>; ss-Byz-Clock-Sync rows are sync (oracle coin) and
// sync-fm (FM coin).
const std::array<std::string, 5> kFamilies = {"dw", "queen", "king", "sync",
                                              "sync-fm"};
constexpr std::size_t kDw = 0;
constexpr std::size_t kSync = 3;
constexpr std::size_t kSyncFm = 4;
constexpr int kSetupReps = 25;
// Sweep workers: more than one, so the scheduler is exercised, and few
// enough for a small host.
constexpr std::uint64_t kJobs = 2;

std::size_t family_of(const std::string& cell) {
  const std::size_t a = cell.find('/') + 1;
  const std::string fam = cell.substr(a, cell.find('/', a) - a);
  for (std::size_t i = 0; i < kFamilies.size(); ++i) {
    if (kFamilies[i] == fam) return i;
  }
  throw std::runtime_error("unknown table1 family in " + cell);
}

struct UnitRecord {
  std::size_t family = 0;
  std::uint64_t build_start = 0;
  std::uint64_t build_end = 0;
  std::uint64_t first_beat = 0;
  std::uint64_t end = 0;
  std::uint64_t beats = 0;
  // Correct-node bytes of the first `bytes_beats` beats (every beat but
  // the last: a listener sees the totals only at the next beat's start).
  std::uint64_t bytes = 0;
  std::uint64_t bytes_beats = 0;
};

// Wall times of single simulated beats, in 10 ns bins.
class BeatHistogram {
 public:
  void add(const std::vector<std::uint32_t>& beat_ns) {
    for (std::uint32_t ns : beat_ns) ++bins_[std::min<std::size_t>(ns / kBinNs, kBins - 1)];
    total_ += beat_ns.size();
  }
  std::uint64_t total() const { return total_; }
  // Nearest-rank percentile, ms (the bin's middle).
  double percentile_ms(double q) const {
    const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      seen += bins_[b];
      if (seen >= std::max<std::uint64_t>(rank, 1)) {
        return (static_cast<double>(b) + 0.5) * kBinNs / 1e6;
      }
    }
    return 0.0;
  }

 private:
  static constexpr std::uint32_t kBinNs = 10;
  static constexpr std::size_t kBins = 1 << 17;  // up to 1.3 ms a beat
  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(kBins);
  std::uint64_t total_ = 0;
};

class UnitLog {
 public:
  void reserve(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_.reserve(n);
  }
  void add(const UnitRecord& r, const std::vector<std::uint32_t>& beat_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back(r);
    beats_.add(beat_ns);
  }
  std::vector<UnitRecord> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(recs_);
  }
  // Every pass so far; read once the sweeps are done.
  const BeatHistogram& beats() const { return beats_; }

 private:
  std::mutex mu_;
  std::vector<UnitRecord> recs_;
  BeatHistogram beats_;
};

// Rides along with a unit's engine as its keepalive: it observes every beat
// start as a listener, timing each beat from its start to the next one's,
// and logs the unit when the sweep releases the bundle,
// right after measure_convergence returns. It never touches the engine
// outside on_beat.
class UnitProbe final : public BeatListener {
 public:
  UnitProbe(UnitLog& log, const Engine& engine, const UnitRecord& rec,
            std::shared_ptr<void> inner)
      : log_(log), engine_(engine), rec_(rec), inner_(std::move(inner)) {}
  UnitProbe(const UnitProbe&) = delete;
  UnitProbe& operator=(const UnitProbe&) = delete;
  ~UnitProbe() override {
    rec_.end = now_ns();
    log_.add(rec_, beat_ns_);
  }

  void on_beat(Beat beat) override {
    const std::uint64_t now = now_ns();
    if (rec_.beats == 0) {
      rec_.first_beat = now;
    } else {
      beat_ns_.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(now - last_, UINT32_MAX)));
    }
    last_ = now;
    rec_.beats = beat + 1;
    rec_.bytes = engine_.metrics().total().correct_bytes;
    rec_.bytes_beats = beat;
  }

 private:
  UnitLog& log_;
  const Engine& engine_;
  UnitRecord rec_;
  std::uint64_t last_ = 0;
  std::vector<std::uint32_t> beat_ns_;  // every beat but the unit's last
  std::shared_ptr<void> inner_;
};

struct Grid {
  std::vector<SweepCell> cells;
  std::vector<std::size_t> family;  // per cell
  std::size_t units = 0;
};

// The table1 grid with every cell's seeds shifted by the workload seed.
Grid make_grid(std::uint64_t seed, UnitLog* log) {
  Grid g;
  for (const ScenarioSpec* spec : match_scenarios("table1/*")) {
    SweepCell c;
    c.name = spec->name;
    c.cfg = scenario_runner_config(*spec);
    c.cfg.base_seed += derive_seed(seed, 0) >> 16;
    const std::size_t fam = family_of(spec->name);
    EngineBuilder inner = build_scenario(*spec);
    if (log == nullptr) {
      c.builder = std::move(inner);
    } else {
      c.builder = [inner, fam, log](std::uint64_t s) {
        UnitRecord rec;
        rec.family = fam;
        rec.build_start = now_ns();
        EngineBundle b = inner(s);
        rec.build_end = now_ns();
        auto probe = std::make_shared<UnitProbe>(*log, *b.engine, rec,
                                                 std::move(b.keepalive));
        b.engine->add_listener(probe.get());
        b.keepalive = std::move(probe);
        return b;
      };
    }
    g.units += c.cfg.trials;
    g.family.push_back(fam);
    g.cells.push_back(std::move(c));
  }
  return g;
}

bool same_stats(const TrialStats& a, const TrialStats& b) {
  return a.trials == b.trials && a.converged == b.converged &&
         a.samples == b.samples && a.mean_msgs_per_beat == b.mean_msgs_per_beat;
}

}  // namespace

Result run_table1_sweep(const SweepRunOptions& o) {
  Result r = o.trace ? per_layer_result() : Result{};

  // Set-up: build the grid and every unit's engine once, as the sweep will.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    const Grid g = make_grid(o.seed, nullptr);
    for (const SweepCell& c : g.cells) {
      for (std::uint64_t t = 0; t < c.cfg.trials; ++t) {
        EngineBundle b = c.builder(c.cfg.base_seed + t);
      }
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  SweepOptions so;
  so.jobs = kJobs;
  // Warm-up: one untimed pass, which brings the caches, the allocator and
  // both worker CPUs up to speed. Every timed pass must reproduce its
  // TrialStats exactly.
  const std::vector<TrialStats> first = run_sweep(make_grid(o.seed, nullptr).cells, so);

  UnitLog log;
  const Grid g = make_grid(o.seed, &log);
  std::vector<double> walls, rates, busy;
  std::array<std::uint64_t, 5> fam_beats{}, fam_ns{};
  std::uint64_t bytes = 0, bytes_beats = 0, build_ns = 0, units_seen = 0;
  // Passes repeat while one as long as the last still ends within the
  // window, so a run ends by --seconds unless its first pass outlasts it.
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(o.seconds * 1e9);
  do {
    log.reserve(g.units);
    const std::uint64_t t0 = now_ns();
    const std::vector<TrialStats> stats = run_sweep(g.cells, so);
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    const std::vector<UnitRecord> recs = log.take();
    if (recs.size() != g.units) r.fail("sweep ran an unexpected unit count");

    const bool first_pass = walls.empty();
    for (std::size_t c = 0; c < stats.size(); ++c) {
      if (!same_stats(stats[c], first[c])) {
        r.fail("repeated sweep disagrees on " + g.cells[c].name);
      }
    }
    for (std::size_t c = 0; c < stats.size(); ++c) {
      r.attempted += stats[c].trials;
      // Dolev-Welch censoring is the expected result, not a failure.
      if (g.family[c] != kDw) r.failed += stats[c].trials - stats[c].converged;
    }

    std::uint64_t beats = 0, unit_ns = 0;
    for (const UnitRecord& u : recs) {
      beats += u.beats;
      unit_ns += u.end - u.build_start;
      build_ns += u.build_end - u.build_start;
      fam_ns[u.family] += u.end - u.first_beat;
      if (first_pass) {
        fam_beats[u.family] += u.beats;
        bytes += u.bytes;
        bytes_beats += u.bytes_beats;
      }
    }
    units_seen += recs.size();
    walls.push_back(wall);
    rates.push_back(static_cast<double>(beats) / wall);
    busy.push_back(static_cast<double>(unit_ns) / 1e9 /
                   (static_cast<double>(kJobs) * wall));
  } while (now_ns() + static_cast<std::uint64_t>(walls.back() * 1e9) <= deadline);

  const std::size_t passes = walls.size();
  if (o.trace) {
    r.set("harness.build_ms_per_trial",
          static_cast<double>(build_ns) / 1e6 / static_cast<double>(units_seen));
    for (std::size_t f = 0; f < kFamilies.size(); ++f) {
      r.set("harness." + kFamilies[f] + ".beats",
            static_cast<double>(fam_beats[f]));
      r.set("harness." + kFamilies[f] + ".ns_per_beat",
            static_cast<double>(fam_ns[f]) /
                static_cast<double>(fam_beats[f] * passes));
    }
    r.set("harness.sweep_busy_frac", median(busy));
    // The harness timing above is the sweep's only instrumentation, and the
    // untraced run carries it too, so there is no separate traced path.
    r.set("trace_overhead_frac", 0.0);
  } else {
    double sync_sum = 0, sync_n = 0;
    for (std::size_t c = 0; c < first.size(); ++c) {
      if (g.family[c] != kSync && g.family[c] != kSyncFm) continue;
      for (std::uint64_t s : first[c].samples) sync_sum += static_cast<double>(s);
      sync_n += static_cast<double>(first[c].converged);
    }
    r.set("beats_per_s", median(rates));
    r.set("beat_ms_p50", log.beats().percentile_ms(0.50));
    r.set("beat_ms_p95", log.beats().percentile_ms(0.95));
    r.set("wire_kib_per_beat", static_cast<double>(bytes) /
                                   static_cast<double>(bytes_beats) / 1024.0);
    r.set("converge_beats_mean", sync_sum / sync_n);
    r.set("sweep_wall_s", median(walls));
    r.set("setup_s", median(setup_s));
    r.set("rss_peak_mib", rss_peak_mib());
  }
  std::ostringstream os;
  os << "sweep passes: " << passes << " x " << g.units << " units over "
     << g.cells.size() << " cells, jobs=" << kJobs
     << "; beat_ms_p50/p95 samples: " << log.beats().total() << " beats";
  r.note(os.str());
  return r;
}

}  // namespace perfbench
