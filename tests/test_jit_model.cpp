#include "jvmsim/jit_model.hpp"

#include <gtest/gtest.h>

#include "support/units.hpp"

namespace jat {
namespace {

WorkloadSpec jit_workload() {
  WorkloadSpec w;
  w.name = "jit-test";
  w.method_count = 960;
  w.hot_zipf_exponent = 1.2;
  w.invocations_per_work = 2000;
  w.code_size_per_method = 1000;
  w.interpreter_speed = 0.06;
  w.c1_speed = 0.5;
  return w;
}

JitParams tiered_params() {
  JitParams p;
  p.tiered = true;
  p.stop_at_level = 4;
  p.tier3_invocations = 200;
  p.tier4_invocations = 5000;
  p.compiler_threads = 3;
  p.code_cache_capacity = 48 << 20;
  return p;
}

/// Drives the model alternating work and time until quiescent.
void warm_up(JitModel& jit, double total_work, double step = 50.0) {
  for (double done = 0; done < total_work; done += step) {
    jit.advance(step, SimTime::millis(static_cast<std::int64_t>(step)));
  }
  // Let outstanding compiles finish.
  for (int i = 0; i < 1000; ++i) {
    const SimTime next = jit.time_until_next_completion();
    if (next.is_infinite()) break;
    jit.advance(0, next);
  }
}

TEST(JitModel, StartsAtInterpreterSpeed) {
  const WorkloadSpec w = jit_workload();
  JitModel jit(tiered_params(), w, MachineSpec{});
  EXPECT_NEAR(jit.speed_mix(), w.interpreter_speed, 0.03);
  EXPECT_EQ(jit.busy_compilers(), 0);
  EXPECT_EQ(jit.compiles_c1(), 0);
}

TEST(JitModel, SpeedImprovesWithWarmup) {
  JitModel jit(tiered_params(), jit_workload(), MachineSpec{});
  const double cold = jit.speed_mix();
  warm_up(jit, 20000);
  const double hot = jit.speed_mix();
  EXPECT_GT(hot, cold * 3.0);
  EXPECT_GT(jit.compiles_c1(), 0);
  EXPECT_GT(jit.compiles_c2(), 0);
}

TEST(JitModel, CompileCpuAccumulates) {
  JitModel jit(tiered_params(), jit_workload(), MachineSpec{});
  warm_up(jit, 20000);
  EXPECT_GT(jit.compile_cpu(), SimTime::zero());
  EXPECT_GT(jit.code_cache_used(), 0);
}

TEST(JitModel, InterpretOnlyNeverCompiles) {
  JitParams p = tiered_params();
  p.interpret_only = true;
  JitModel jit(p, jit_workload(), MachineSpec{});
  warm_up(jit, 50000);
  EXPECT_EQ(jit.compiles_c1(), 0);
  EXPECT_EQ(jit.compiles_c2(), 0);
  EXPECT_NEAR(jit.speed_mix(), jit_workload().interpreter_speed, 0.03);
}

TEST(JitModel, StopAtLevelZeroStaysInterpreted) {
  JitParams p = tiered_params();
  p.stop_at_level = 0;
  JitModel jit(p, jit_workload(), MachineSpec{});
  warm_up(jit, 50000);
  EXPECT_EQ(jit.compiles_c1(), 0);
  EXPECT_EQ(jit.compiles_c2(), 0);
}

TEST(JitModel, StopAtLevelOneCapsAtC1) {
  JitParams p = tiered_params();
  p.stop_at_level = 1;
  JitModel jit(p, jit_workload(), MachineSpec{});
  warm_up(jit, 50000);
  EXPECT_GT(jit.compiles_c1(), 0);
  EXPECT_EQ(jit.compiles_c2(), 0);
}

TEST(JitModel, ClientVmUsesOnlyC1) {
  JitParams p = tiered_params();
  p.client_vm = true;
  p.tiered = false;
  p.compile_threshold = 10000;
  JitModel jit(p, jit_workload(), MachineSpec{});
  warm_up(jit, 50000);
  EXPECT_GT(jit.compiles_c1(), 0);
  EXPECT_EQ(jit.compiles_c2(), 0);
}

TEST(JitModel, NonTieredServerSkipsC1) {
  JitParams p = tiered_params();
  p.tiered = false;
  p.compile_threshold = 1000;
  JitModel jit(p, jit_workload(), MachineSpec{});
  warm_up(jit, 50000);
  EXPECT_EQ(jit.compiles_c1(), 0);
  EXPECT_GT(jit.compiles_c2(), 0);
}

TEST(JitModel, LowerThresholdsCompileSooner) {
  JitParams fast = tiered_params();
  fast.tier3_invocations = 10;
  JitParams slow = tiered_params();
  slow.tier3_invocations = 10000;

  const WorkloadSpec w = jit_workload();
  JitModel jit_fast(fast, w, MachineSpec{});
  JitModel jit_slow(slow, w, MachineSpec{});
  EXPECT_LT(jit_fast.work_until_next_enqueue(),
            jit_slow.work_until_next_enqueue());
}

TEST(JitModel, CompileAllQueuesEverythingUpFront) {
  JitParams p = tiered_params();
  p.compile_all = true;
  const WorkloadSpec w = jit_workload();
  JitModel jit(p, w, MachineSpec{});
  EXPECT_GT(jit.busy_compilers(), 0);
  EXPECT_FALSE(jit.time_until_next_completion().is_infinite());
}

TEST(JitModel, CompileAllInflatedByLoadedClasses) {
  // -Xcomp compiles every loaded method, not just the hot ones, so its
  // compile CPU dwarfs the lazy pipeline's.
  WorkloadSpec w = jit_workload();
  w.startup_classes = 4000;
  JitParams lazy = tiered_params();
  JitParams comp = tiered_params();
  comp.compile_all = true;

  JitModel jit_lazy(lazy, w, MachineSpec{});
  JitModel jit_comp(comp, w, MachineSpec{});
  warm_up(jit_lazy, 100000);
  warm_up(jit_comp, 100000);
  EXPECT_GT(jit_comp.compile_cpu().as_seconds(),
            3.0 * jit_lazy.compile_cpu().as_seconds());
}

TEST(JitModel, BusyCompilersBoundedByThreadCount) {
  JitParams p = tiered_params();
  p.compiler_threads = 2;
  p.compile_all = true;
  JitModel jit(p, jit_workload(), MachineSpec{});
  EXPECT_LE(jit.busy_compilers(), 2);
  EXPECT_GT(jit.busy_compilers(), 0);
}

TEST(JitModel, TinyCodeCacheWithoutFlushingDisablesCompiler) {
  JitParams p = tiered_params();
  p.code_cache_capacity = 64 * 1024;  // far too small
  p.code_cache_flushing = false;
  JitModel jit(p, jit_workload(), MachineSpec{});
  warm_up(jit, 100000);
  EXPECT_TRUE(jit.compiler_disabled());
  EXPECT_EQ(jit.flush_count(), 0);
}

TEST(JitModel, DisablingTheCompilerIdlesEveryCompilerThread) {
  JitParams p = tiered_params();
  p.code_cache_capacity = 64 * 1024;
  p.code_cache_flushing = false;
  JitModel jit(p, jit_workload(), MachineSpec{});
  // Small steps keep other compiles in flight when the cache fills.
  for (int i = 0; i < 10000 && !jit.compiler_disabled(); ++i) {
    jit.advance(10, SimTime::millis(10));
  }
  ASSERT_TRUE(jit.compiler_disabled());
  EXPECT_EQ(jit.busy_compilers(), 0);
  EXPECT_TRUE(jit.time_until_next_completion().is_infinite());
}

TEST(JitModel, TinyCodeCacheWithFlushingKeepsCompiling) {
  JitParams p = tiered_params();
  p.code_cache_capacity = 256 * 1024;
  p.code_cache_flushing = true;
  JitModel jit(p, jit_workload(), MachineSpec{});
  warm_up(jit, 100000);
  EXPECT_FALSE(jit.compiler_disabled());
  EXPECT_GT(jit.flush_count(), 0);
  EXPECT_LE(jit.code_cache_used(), 256 * 1024);
}

TEST(JitModel, FlushThatCannotMakeRoomFallsBackToInterpreterSpeed) {
  // One bucket whose C1 code (1150 bytes) fits the cache but whose C2 code
  // (1400 bytes) does not: installing C2 flushes the C1 code and still
  // fails, so the bucket runs interpreted again.
  WorkloadSpec w = jit_workload();
  w.method_count = 1;
  JitParams p = tiered_params();
  p.code_cache_capacity = 1300;
  const double cold = JitModel(p, w, MachineSpec{}).speed_mix();
  JitModel jit(p, w, MachineSpec{});
  double before_flush = cold;
  for (int i = 0; i < 100000 && jit.flush_count() == 0; ++i) {
    before_flush = jit.speed_mix();
    jit.advance(1.0, SimTime::millis(1));
  }
  ASSERT_EQ(jit.flush_count(), 1);
  EXPECT_EQ(jit.compiles_c2(), 0);
  EXPECT_GT(before_flush, cold);
  EXPECT_DOUBLE_EQ(jit.speed_mix(), cold);
}

TEST(JitModel, LargeCacheNeverFlushes) {
  JitParams p = tiered_params();
  p.code_cache_capacity = 512 << 20;
  JitModel jit(p, jit_workload(), MachineSpec{});
  warm_up(jit, 100000);
  EXPECT_EQ(jit.flush_count(), 0);
  EXPECT_FALSE(jit.compiler_disabled());
}

TEST(JitModel, CryptoIntrinsicsSpeedUpCryptoWorkloads) {
  WorkloadSpec w = jit_workload();
  w.crypto_frac = 0.5;
  JitParams fast = tiered_params();
  fast.crypto_speed = 3.0;
  JitParams slow = tiered_params();
  slow.crypto_speed = 1.0;

  JitModel jit_fast(fast, w, MachineSpec{});
  JitModel jit_slow(slow, w, MachineSpec{});
  warm_up(jit_fast, 50000);
  warm_up(jit_slow, 50000);
  EXPECT_GT(jit_fast.speed_mix(), jit_slow.speed_mix() * 1.3);
}

TEST(JitModel, VectorQualityOnlyHelpsVectorWork) {
  WorkloadSpec scalar = jit_workload();
  WorkloadSpec vec = jit_workload();
  vec.vector_frac = 0.5;
  JitParams p = tiered_params();
  p.vector_quality = 2.0;

  JitModel jit_scalar(p, scalar, MachineSpec{});
  JitModel jit_vec(p, vec, MachineSpec{});
  warm_up(jit_scalar, 50000);
  warm_up(jit_vec, 50000);
  EXPECT_GT(jit_vec.speed_mix(), jit_scalar.speed_mix());
}

TEST(JitModel, JniFractionRunsAtFullSpeedEvenCold) {
  WorkloadSpec w = jit_workload();
  w.jni_frac = 0.5;
  JitModel jit(tiered_params(), w, MachineSpec{});
  // Half the work at speed 1 dominates the harmonic mix's floor.
  EXPECT_GT(jit.speed_mix(), 0.1);
}

TEST(JitModel, WorkUntilEnqueueDecreasesAsWorkAccumulates) {
  JitModel jit(tiered_params(), jit_workload(), MachineSpec{});
  const double before = jit.work_until_next_enqueue();
  ASSERT_GT(before, 0.0);
  jit.advance(before * 0.5, SimTime::zero());
  const double after = jit.work_until_next_enqueue();
  EXPECT_LT(after, before);
}

// Property: speed_mix stays within [interpreter floor, quality ceiling]
// throughout warmup for a range of thread counts.
class JitThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(JitThreadSweep, SpeedMixBoundedDuringWarmup) {
  JitParams p = tiered_params();
  p.compiler_threads = GetParam();
  const WorkloadSpec w = jit_workload();
  JitModel jit(p, w, MachineSpec{});
  for (int step = 0; step < 200; ++step) {
    jit.advance(25.0, SimTime::millis(25));
    const double speed = jit.speed_mix();
    EXPECT_GT(speed, w.interpreter_speed * 0.5);
    EXPECT_LT(speed, 2.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, JitThreadSweep, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace jat
