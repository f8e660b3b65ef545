// In-memory span recorder for the traced run. Spans are opened and closed
// by the forwarding decorators in stack.cpp (and by the benchmark loop
// around Engine::run_beat); nothing inside the library is instrumented.
//
// A span's self time is its duration minus the time its child spans cover.
// Self time is folded per layer as spans close, so the per-layer split of a
// beat partitions the beat's wall time exactly: the root span's self time
// is the engine's own plumbing. Raw spans are additionally logged, up to a
// fixed capacity, and written out when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum Layer : std::uint8_t {
  kBeat,        // Engine::run_beat, opened by the benchmark loop (root)
  kAdversary,   // Adversary::act
  kCoreSend,    // ClockProtocol::send_phase
  kCoreRecv,    // ClockProtocol::receive_phase
  kPipeline,    // FM CoinComponent (the ss-Byz-Coin-Flip pipeline)
  kOracle,      // oracle CoinComponent and the beacon's BeatListener
  kRoundSend,   // CoinInstance::send_round, rounds 1..4 = kRoundSend + r - 1
  kRoundRecv = kRoundSend + 4,  // CoinInstance::receive_round, rounds 1..4
  kLayerCount = kRoundRecv + 4,
};

const char* layer_name(Layer l);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  // Spans logged beyond `log_capacity` are folded but not kept.
  explicit Tracer(std::size_t log_capacity);

  void open(Layer layer);
  void close();

  // Correct-node wire bytes a coin instance emitted in `round` (1..4).
  void add_round_bytes(int round, std::uint64_t bytes) {
    round_bytes_[static_cast<std::size_t>(round - 1)] += bytes;
  }
  // The benchmark calls this once per timed beat, after closing the root.
  void end_beat() { ++beats_; }

  // Drops everything folded so far (used after the untimed convergence
  // phase, whose beats run without a root span).
  void reset();

  std::uint64_t beats() const { return beats_; }
  std::uint64_t self_ns(Layer l) const { return self_ns_[l]; }
  std::uint64_t round_bytes(int round) const {
    return round_bytes_[static_cast<std::size_t>(round - 1)];
  }
  // Sum of root span durations (= sum of all layers' self time).
  std::uint64_t beat_ns() const { return beat_ns_; }
  // Smallest root self time seen in one beat; negative would mean child
  // spans covered more than their parent.
  std::int64_t min_plumbing_ns() const { return min_plumbing_ns_; }

  // Writes the span log as TSV: id, beat, layer, start_ns, end_ns, parent.
  bool write_log(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::int64_t log_id;  // -1 when not logged
  };
  struct Logged {
    std::uint64_t beat;
    std::uint64_t start;
    std::uint64_t end;
    std::int64_t parent;
    Layer layer;
  };

  std::array<Open, 8> stack_{};
  std::size_t depth_ = 0;
  std::array<std::uint64_t, kLayerCount> self_ns_{};
  std::array<std::uint64_t, 4> round_bytes_{};
  std::uint64_t beat_ns_ = 0;
  std::uint64_t beats_ = 0;
  std::int64_t min_plumbing_ns_ = INT64_MAX;
  std::size_t log_capacity_;
  std::vector<Logged> log_;
};

// Opens a span for the enclosing scope.
class Span {
 public:
  Span(Tracer& t, Layer layer) : t_(t) { t_.open(layer); }
  ~Span() { t_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

}  // namespace perfbench
