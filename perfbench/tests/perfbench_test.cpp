// The benchmark's own tests: the tracing decorators are transparent, the
// span accounting partitions a beat, and the beat check counts a corrupted
// clock as a failed operation.
#include <gtest/gtest.h>

#include "harness/convergence.h"
#include "stack.h"
#include "steady.h"
#include "tracer.h"

namespace perfbench {
namespace {

// Runs the plain and the traced stack side by side from the same seed and
// requires identical clocks and wire bytes after every beat.
void expect_transparent(bool fm) {
  StackSpec spec;
  spec.n = 7;
  spec.fm = fm;
  Tracer tracer(1024);
  ssbft::EngineBundle plain = build_stack(spec, 42);
  ssbft::EngineBundle traced = build_stack(spec, 42, &tracer);
  for (int beat = 0; beat < 60; ++beat) {
    plain.engine->run_beat();
    {
      Span root(tracer, kBeat);
      traced.engine->run_beat();
    }
    tracer.end_beat();
    ASSERT_EQ(plain.engine->correct_clocks(), traced.engine->correct_clocks())
        << "beat " << beat;
    ASSERT_EQ(plain.engine->metrics().total().correct_bytes,
              traced.engine->metrics().total().correct_bytes)
        << "beat " << beat;
  }
  EXPECT_EQ(tracer.beats(), 60u);
  EXPECT_GT(tracer.self_ns(kCoreSend), 0u);
  EXPECT_GT(tracer.self_ns(kAdversary), 0u);
  if (fm) {
    EXPECT_GT(tracer.self_ns(kPipeline), 0u);
    EXPECT_GT(tracer.self_ns(static_cast<Layer>(kRoundRecv + 3)), 0u);
    EXPECT_GT(tracer.round_bytes(1), 0u);
    EXPECT_EQ(tracer.self_ns(kOracle), 0u);
  } else {
    EXPECT_GT(tracer.self_ns(kOracle), 0u);
    EXPECT_EQ(tracer.self_ns(kPipeline), 0u);
  }
}

TEST(Decorators, FmStackIsTransparent) { expect_transparent(true); }
TEST(Decorators, OracleStackIsTransparent) { expect_transparent(false); }

TEST(Tracer, SelfTimesPartitionTheRootSpan) {
  Tracer t(16);
  for (int beat = 0; beat < 3; ++beat) {
    Span root(t, kBeat);
    {
      Span core(t, kCoreSend);
      Span coin(t, kPipeline);
      Span round(t, kRoundSend);
    }
    Span adv(t, kAdversary);
  }
  std::uint64_t sum = 0;
  for (int l = 0; l < kLayerCount; ++l) sum += t.self_ns(static_cast<Layer>(l));
  EXPECT_EQ(sum, t.beat_ns());
  EXPECT_GE(t.min_plumbing_ns(), 0);
}

TEST(BeatCheck, CorruptedClockIsAFailedOperation) {
  StackSpec spec;
  spec.n = 7;
  spec.fm = false;
  ssbft::EngineBundle b = build_stack(spec, 7);
  ASSERT_TRUE(ssbft::measure_convergence(*b.engine).converged);
  BeatCheck check(*b.engine);
  for (int i = 0; i < 8; ++i) {
    b.engine->run_beat();
    EXPECT_TRUE(check.step(*b.engine)) << "steady beat " << i;
  }
  b.engine->corrupt_node(b.engine->correct_ids().front());
  b.engine->run_beat();
  EXPECT_FALSE(check.step(*b.engine));
}

}  // namespace
}  // namespace perfbench
