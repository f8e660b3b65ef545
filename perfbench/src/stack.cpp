#include "stack.h"

#include <memory>
#include <utility>

#include "adversary/adversaries.h"
#include "coin/coin_pipeline.h"
#include "coin/fm_coin.h"
#include "coin/oracle_coin.h"
#include "core/clock_sync.h"

namespace perfbench {

using namespace ssbft;

namespace {

// Forwarding decorators. Each records one span around the wrapped call and
// otherwise behaves exactly like the object it wraps.

class TracedClock final : public ClockProtocol {
 public:
  TracedClock(std::unique_ptr<ClockProtocol> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}

  void send_phase(Outbox& out) override {
    Span s(t_, kCoreSend);
    inner_->send_phase(out);
  }
  void receive_phase(const Inbox& in) override {
    Span s(t_, kCoreRecv);
    inner_->receive_phase(in);
  }
  void randomize_state(Rng& rng) override { inner_->randomize_state(rng); }
  std::uint32_t channel_count() const override {
    return inner_->channel_count();
  }
  void trace_state(TraceEmitter& em) const override { inner_->trace_state(em); }
  ClockValue clock() const override { return inner_->clock(); }
  ClockValue modulus() const override { return inner_->modulus(); }

 private:
  std::unique_ptr<ClockProtocol> inner_;
  Tracer& t_;
};

class TracedCoin final : public CoinComponent {
 public:
  TracedCoin(std::unique_ptr<CoinComponent> inner, Tracer& t, Layer layer)
      : inner_(std::move(inner)), t_(t), layer_(layer) {}

  void send_phase(Outbox& out) override {
    Span s(t_, layer_);
    inner_->send_phase(out);
  }
  void randomize_state(Rng& rng) override { inner_->randomize_state(rng); }

 protected:
  bool do_receive_phase(const Inbox& in) override {
    Span s(t_, layer_);
    return inner_->receive_phase(in);
  }

 private:
  std::unique_ptr<CoinComponent> inner_;
  Tracer& t_;
  Layer layer_;
};

class TracedInstance final : public CoinInstance {
 public:
  TracedInstance(std::unique_ptr<CoinInstance> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}

  int rounds() const override { return inner_->rounds(); }
  void send_round(int round, Outbox& out, ChannelId base) override {
    const std::uint64_t before = out.sent_bytes();
    {
      Span s(t_, static_cast<Layer>(kRoundSend + round - 1));
      inner_->send_round(round, out, base);
    }
    t_.add_round_bytes(round, out.sent_bytes() - before);
  }
  void receive_round(int round, const Inbox& in, ChannelId base) override {
    Span s(t_, static_cast<Layer>(kRoundRecv + round - 1));
    inner_->receive_round(round, in, base);
  }
  bool output() const override { return inner_->output(); }
  void reinit(Rng rng) override { inner_->reinit(rng); }
  void randomize_state(Rng& rng) override { inner_->randomize_state(rng); }

 private:
  std::unique_ptr<CoinInstance> inner_;
  Tracer& t_;
};

class TracedAdversary final : public Adversary {
 public:
  TracedAdversary(std::unique_ptr<Adversary> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}
  void act(AdversaryContext& ctx) override {
    Span s(t_, kAdversary);
    inner_->act(ctx);
  }

 private:
  std::unique_ptr<Adversary> inner_;
  Tracer& t_;
};

class TracedListener final : public BeatListener {
 public:
  TracedListener(BeatListener& inner, Tracer& t) : inner_(inner), t_(t) {}
  void on_beat(Beat beat) override {
    Span s(t_, kOracle);
    inner_.on_beat(beat);
  }

 private:
  BeatListener& inner_;
  Tracer& t_;
};

// fm_coin_spec() with every pipeline and instance decorated.
CoinSpec traced_fm_coin_spec(Tracer& t) {
  CoinSpec spec;
  spec.channels = FmCoinInstance::kRounds;
  spec.make = [&t](const ProtocolEnv& env, ChannelId base, Rng rng) {
    auto scratch = std::make_shared<FmCoinScratch>();
    CoinInstanceFactory factory = [env, scratch, &t](Rng inst_rng) {
      return std::make_unique<TracedInstance>(
          std::make_unique<FmCoinInstance>(env, FmCoinParams{}, inst_rng,
                                           scratch),
          t);
    };
    return std::make_unique<TracedCoin>(
        std::make_unique<SsByzCoinFlip>(std::move(factory),
                                        FmCoinInstance::kRounds, base, rng),
        t, kPipeline);
  };
  return spec;
}

CoinSpec traced(CoinSpec inner, Tracer& t, Layer layer) {
  CoinSpec spec;
  spec.channels = inner.channels;
  spec.make = [make = std::move(inner.make), &t, layer](
                  const ProtocolEnv& env, ChannelId base, Rng rng) {
    return std::make_unique<TracedCoin>(make(env, base, rng), t, layer);
  };
  return spec;
}

constexpr ClockValue kClockModulus = 64;
// Bounded traffic history keeps the steady beat loop allocation-free.
constexpr std::size_t kMetricsHistory = 8;

struct OracleKeepalive {
  std::shared_ptr<OracleBeacon> beacon;
  std::unique_ptr<TracedListener> listener;
};

}  // namespace

EngineBundle build_stack(const StackSpec& s, std::uint64_t seed,
                         Tracer* tracer) {
  EngineConfig cfg;
  cfg.n = s.n;
  cfg.f = (s.n - 1) / 3;
  cfg.faulty = EngineConfig::last_ids_faulty(cfg.n, cfg.f);
  cfg.seed = seed;
  cfg.metrics_history_limit = kMetricsHistory;

  CoinSpec coin;
  std::shared_ptr<OracleBeacon> beacon;
  if (s.fm) {
    coin = tracer ? traced_fm_coin_spec(*tracer) : fm_coin_spec();
  } else {
    beacon = std::make_shared<OracleBeacon>(
        s.n, OracleCoinParams{0.45, 0.45}, Rng(seed).split("beacon"));
    coin = oracle_coin_spec(beacon);
    if (tracer) coin = traced(std::move(coin), *tracer, kOracle);
  }

  std::unique_ptr<Adversary> adv = make_clock_skew_adversary(kClockModulus, 0);
  if (tracer) adv = std::make_unique<TracedAdversary>(std::move(adv), *tracer);

  ProtocolFactory factory = [coin, tracer](const ProtocolEnv& env, Rng rng)
      -> std::unique_ptr<Protocol> {
    auto p = std::make_unique<SsByzClockSync>(env, kClockModulus, coin, rng);
    if (!tracer) return p;
    return std::make_unique<TracedClock>(std::move(p), *tracer);
  };

  EngineBundle b;
  b.engine = std::make_unique<Engine>(std::move(cfg), factory, std::move(adv));
  if (beacon) {
    auto keep = std::make_shared<OracleKeepalive>();
    keep->beacon = beacon;
    BeatListener* listener = beacon.get();
    if (tracer) {
      keep->listener = std::make_unique<TracedListener>(*beacon, *tracer);
      listener = keep->listener.get();
    }
    b.engine->add_listener(listener);
    b.keepalive = std::move(keep);
  }
  return b;
}

}  // namespace perfbench
