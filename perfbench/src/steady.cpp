#include "steady.h"

#include <sstream>

#include "harness/convergence.h"
#include "tracer.h"

namespace perfbench {

using ssbft::ConvergenceResult;
using ssbft::Engine;
using ssbft::EngineBundle;

namespace {

// p95 then keeps at least 10 samples beyond it.
constexpr std::size_t kMinSamples = 200;
// wire_kib_per_beat covers this many beats after the warm-up: a fixed
// count, so the figure is an exact function of the seed.
constexpr std::size_t kWireBeats = 64;
// The window outlasts --seconds only to reach kMinSamples, and by no more
// than this.
constexpr double kMaxOverrunSeconds = 90;
// Traced run: beats per chunk, alternating untraced and traced engines.
constexpr int kChunk = 8;
constexpr std::size_t kSpanLogCapacity = 1 << 16;

// Set-up trials: each builds the stack and runs it to confirmed convergence
// from its randomized start. Trial 0's engine then runs the window; the
// others are spread evenly over the window, so the set-up figures sample
// the same stretch of a drifting host as the beat figures, not only the
// process's first seconds.
class Setup {
 public:
  Setup(const SteadyOptions& o, Result& r) : o_(o), r_(r) { run_next(); }

  // Runs the next trial; false when every trial has run.
  bool run_next() {
    if (next_ >= o_.setup_trials) return false;
    const std::uint64_t seed = derive_seed(o_.seed, static_cast<std::uint64_t>(next_));
    const std::uint64_t t0 = now_ns();
    {
      EngineBundle b = build_stack(o_.stack, seed);
      const std::uint64_t t1 = now_ns();
      const ConvergenceResult c = ssbft::measure_convergence(*b.engine);
      const std::uint64_t t2 = now_ns();
      if (!c.converged) r_.fail("set-up trial " + std::to_string(next_) + " did not converge");
      trial_s.push_back(static_cast<double>(t2 - t0) / 1e9);
      build_ms_sum += static_cast<double>(t1 - t0) / 1e6;
      converge_beats_sum += static_cast<double>(c.synced_at);
      beats_run += c.beats_run;
      converge_ns += static_cast<double>(t2 - t1);
      if (next_ == 0) {
        first = std::move(b);
        first_seed = seed;
        first_conv = c;
      }
    }  // a later trial's engine is torn down here
    wall_s += static_cast<double>(now_ns() - t0) / 1e9;
    ++next_;
    return true;
  }

  // Runs the trials due `elapsed` ns into a window `length` ns long (trial i
  // at i / setup_trials of it); true when one ran.
  bool run_due(std::uint64_t elapsed, std::uint64_t length) {
    bool ran = false;
    while (next_ < o_.setup_trials &&
           elapsed * static_cast<std::uint64_t>(o_.setup_trials) >=
               static_cast<std::uint64_t>(next_) * length) {
      ran = run_next();
    }
    return ran;
  }

  EngineBundle first;
  std::uint64_t first_seed = 0;
  ConvergenceResult first_conv;
  std::vector<double> trial_s;
  double wall_s = 0;  // every trial, engine teardowns included
  double build_ms_sum = 0;
  double converge_beats_sum = 0;  // synced_at, as TrialStats counts it
  std::uint64_t beats_run = 0;
  double converge_ns = 0;

 private:
  const SteadyOptions& o_;
  Result& r_;
  int next_ = 0;
};

// The timed window: --seconds long, and longer only until it holds
// kMinSamples beats.
class Window {
 public:
  explicit Window(double seconds)
      : start_(now_ns()), length_(static_cast<std::uint64_t>(seconds * 1e9)) {}
  std::uint64_t elapsed() const { return now_ns() - start_; }
  std::uint64_t length() const { return length_; }
  bool over(std::size_t beats) const {
    const std::uint64_t t = elapsed();
    return (t >= length_ && beats >= kMinSamples) ||
           t >= length_ + static_cast<std::uint64_t>(kMaxOverrunSeconds * 1e9);
  }

 private:
  std::uint64_t start_;
  std::uint64_t length_;
};

// One closed-loop beat; returns its wall time. With a tracer the beat is
// the root span.
std::uint64_t timed_beat(Engine& e, Tracer* t) {
  const std::uint64_t t0 = now_ns();
  if (t != nullptr) {
    Span root(*t, kBeat);
    e.run_beat();
  } else {
    e.run_beat();
  }
  const std::uint64_t dt = now_ns() - t0;
  if (t != nullptr) t->end_beat();
  return dt;
}

// A beat that warms the engine up (before the window, and after a set-up
// trial has run in its caches): checked like a timed beat, but neither
// timed nor an operation.
void untimed_beat(Engine& e, BeatCheck& check, Result& r) {
  e.run_beat();
  if (!check.step(e)) r.fail("untimed beat " + std::to_string(e.beat()) + " failed");
}

// Timed beats over timed wall time, the whole window at once: the host's
// speed drifts over seconds, and the window's mean averages the drift.
double window_rate(const std::vector<double>& beat_ms) {
  double ms = 0;
  for (double x : beat_ms) ms += x;
  return static_cast<double>(beat_ms.size()) / (ms / 1e3);
}

std::uint64_t correct_bytes(const Engine& e) {
  return e.metrics().total().correct_bytes;
}

void run_untraced(const SteadyOptions& o, Setup& s, Result& r) {
  Engine& e = *s.first.engine;
  BeatCheck check(e);
  for (int i = 0; i < o.warmup_beats; ++i) untimed_beat(e, check, r);
  const std::uint64_t bytes0 = correct_bytes(e);
  std::uint64_t wire = 0;
  std::vector<double> beat_ms;
  const Window w(o.seconds);
  while (!w.over(beat_ms.size())) {
    // Set-up trials wait for the wire window, which stays contiguous.
    if (beat_ms.size() >= kWireBeats && s.run_due(w.elapsed(), w.length())) {
      untimed_beat(e, check, r);
    }
    const std::uint64_t dt = timed_beat(e, nullptr);
    beat_ms.push_back(static_cast<double>(dt) / 1e6);
    ++r.attempted;
    if (!check.step(e)) ++r.failed;
    if (beat_ms.size() == kWireBeats) wire = correct_bytes(e) - bytes0;
  }
  while (s.run_next()) {
  }
  if (beat_ms.size() < kWireBeats) r.fail("window shorter than the wire window");

  const double trials = static_cast<double>(s.trial_s.size());
  r.set("beats_per_s", window_rate(beat_ms));
  r.set("beat_ms_p50", percentile(beat_ms, 0.50));
  r.set("beat_ms_p95", percentile(beat_ms, 0.95));
  r.set("wire_kib_per_beat",
        static_cast<double>(wire) / static_cast<double>(kWireBeats) / 1024.0);
  r.set("converge_beats_mean", s.converge_beats_sum / trials);
  r.set("sweep_wall_s", s.wall_s);
  r.set("setup_s", median(s.trial_s));
  r.set("rss_peak_mib", rss_peak_mib());
  r.note("timed beats: " + std::to_string(beat_ms.size()) +
         " (beat_ms_p50/p95 samples) after " + std::to_string(o.warmup_beats) +
         " warm-up beats; set-up trials: " + std::to_string(s.trial_s.size()) +
         ", spread over the window");
}

void run_traced(const SteadyOptions& o, Setup& s, Result& r) {
  Tracer tracer(kSpanLogCapacity);
  EngineBundle tb = build_stack(o.stack, s.first_seed, &tracer);
  Engine& u = *s.first.engine;
  Engine& t = *tb.engine;
  const ConvergenceResult tc = ssbft::measure_convergence(t);
  if (tc.synced_at != s.first_conv.synced_at ||
      tc.beats_run != s.first_conv.beats_run ||
      t.correct_clocks() != u.correct_clocks()) {
    r.fail("traced stack converged differently from the untraced one");
  }

  BeatCheck cu(u), ct(t);
  for (int i = 0; i < o.warmup_beats; ++i) {
    untimed_beat(u, cu, r);
    untimed_beat(t, ct, r);
  }
  tracer.reset();
  const std::uint64_t u_bytes0 = correct_bytes(u);
  const std::uint64_t t_bytes0 = correct_bytes(t);
  const ssbft::BeatTraffic t_traffic0 = t.metrics().total();
  std::uint64_t u_ns = 0, t_ns = 0, u_beats = 0;
  const Window w(o.seconds);
  while (!w.over(tracer.beats())) {
    // Every beat of the traced engine is a root span, so no untimed beat
    // follows a set-up trial here.
    s.run_due(w.elapsed(), w.length());
    for (int i = 0; i < kChunk; ++i) {
      u_ns += timed_beat(u, nullptr);
      ++u_beats;
      ++r.attempted;
      if (!cu.step(u)) ++r.failed;
    }
    for (int i = 0; i < kChunk; ++i) {
      t_ns += timed_beat(t, &tracer);
      ++r.attempted;
      if (!ct.step(t)) ++r.failed;
    }
    if (cu.digest() != ct.digest() ||
        correct_bytes(u) - u_bytes0 != correct_bytes(t) - t_bytes0) {
      r.fail("traced run diverged from the untraced run by beat " +
             std::to_string(t.beat()));
      break;
    }
  }
  while (s.run_next()) {
  }

  const double beats = static_cast<double>(tracer.beats());
  const double beat_ns = static_cast<double>(tracer.beat_ns());
  auto per_beat = [&](Layer l) { return static_cast<double>(tracer.self_ns(l)) / beats; };
  const ssbft::BeatTraffic& tt = t.metrics().total();
  const double msgs =
      static_cast<double>((tt.correct_messages - t_traffic0.correct_messages) +
                          (tt.adversary_messages - t_traffic0.adversary_messages)) /
      beats;
  r.set("sim.plumbing_ns_per_beat", per_beat(kBeat));
  r.set("sim.plumbing_share", static_cast<double>(tracer.self_ns(kBeat)) / beat_ns);
  r.set("sim.msgs_per_beat", msgs);
  r.set("sim.plumbing_ns_per_msg", per_beat(kBeat) / msgs);
  r.set("adversary.act_ns_per_beat", per_beat(kAdversary));
  r.set("core.send_ns_per_beat", per_beat(kCoreSend));
  r.set("core.recv_ns_per_beat", per_beat(kCoreRecv));
  r.set("core.share", static_cast<double>(tracer.self_ns(kCoreSend) +
                                          tracer.self_ns(kCoreRecv)) /
                          beat_ns);
  r.set("coin.pipeline_ns_per_beat", per_beat(kPipeline));
  r.set("coin.oracle_ns_per_beat", per_beat(kOracle));
  static const char* const kRound[4] = {"deal", "cross", "vote", "share"};
  for (int i = 0; i < 4; ++i) {
    const std::string c = std::string("coin.") + kRound[i];
    r.set(c + ".send_ns_per_beat", per_beat(static_cast<Layer>(kRoundSend + i)));
    if (i < 3) {
      r.set(c + ".recv_ns_per_beat", per_beat(static_cast<Layer>(kRoundRecv + i)));
    }
    r.set(c + ".kib_per_beat",
          static_cast<double>(tracer.round_bytes(i + 1)) / beats / 1024.0);
  }
  r.set("coin.recover_ns_per_beat", per_beat(static_cast<Layer>(kRoundRecv + 3)));

  const double trials = static_cast<double>(s.trial_s.size());
  double busy_s = 0;
  for (double x : s.trial_s) busy_s += x;
  const std::string fam = o.stack.fm ? "sync-fm" : "sync";
  r.set("harness.build_ms_per_trial", s.build_ms_sum / trials);
  r.set("harness." + fam + ".beats", static_cast<double>(s.beats_run));
  r.set("harness." + fam + ".ns_per_beat",
        s.converge_ns / static_cast<double>(s.beats_run));
  r.set("harness.sweep_busy_frac", busy_s / s.wall_s);
  const double u_rate = static_cast<double>(u_beats) / static_cast<double>(u_ns);
  const double t_rate = beats / static_cast<double>(t_ns);
  r.set("trace_overhead_frac", 1.0 - t_rate / u_rate);

  std::uint64_t self_sum = 0;
  for (int l = 0; l < kLayerCount; ++l) self_sum += tracer.self_ns(static_cast<Layer>(l));
  std::ostringstream os;
  os << "traced beats: " << tracer.beats() << ", layer self times cover "
     << static_cast<double>(self_sum) / beat_ns * 100.0
     << "% of run_beat, smallest per-beat plumbing " << tracer.min_plumbing_ns()
     << " ns";
  r.note(os.str());
  if (tracer.min_plumbing_ns() < 0) r.fail("negative plumbing residual");
  for (int l = 0; l < kLayerCount; ++l) {
    std::ostringstream line;
    line << "  " << layer_name(static_cast<Layer>(l)) << " self "
         << static_cast<double>(tracer.self_ns(static_cast<Layer>(l))) / beat_ns *
                100.0
         << "%";
    r.note(line.str());
  }
  if (!o.span_log.empty() && !tracer.write_log(o.span_log)) {
    r.note("could not write span log " + o.span_log);
  }
}

}  // namespace

BeatCheck::BeatCheck(const Engine& engine) {
  const auto* first = dynamic_cast<const ssbft::ClockProtocol*>(
      &engine.node(engine.correct_ids().front()));
  k_ = first->modulus();
  prev_ = first->clock();
}

bool BeatCheck::step(const Engine& engine) {
  const std::vector<ssbft::ClockValue> clocks = engine.correct_clocks();
  bool ok = true;
  for (ssbft::ClockValue c : clocks) {
    ok = ok && c == clocks.front();
    digest_ = (digest_ ^ c) * 0x100000001b3ULL;  // FNV-1a over the clocks
  }
  ok = ok && clocks.front() == (prev_ + 1) % k_;
  prev_ = clocks.front();
  return ok;
}

Result run_steady(const SteadyOptions& o) {
  Result r = o.trace ? per_layer_result() : Result{};
  Setup s(o, r);
  if (o.trace) {
    run_traced(o, s, r);
  } else {
    run_untraced(o, s, r);
  }
  return r;
}

}  // namespace perfbench
