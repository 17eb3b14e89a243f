#include "jvmsim/params.hpp"

#include <gtest/gtest.h>

#include "support/units.hpp"

namespace jat {
namespace {

class ParamsTest : public ::testing::Test {
 protected:
  Configuration config_{FlagRegistry::hotspot()};
};

TEST_F(ParamsTest, DefaultDecode) {
  const JvmParams p = decode_params(config_);
  EXPECT_EQ(p.gc.algorithm, GcAlgorithm::kParallel);
  EXPECT_EQ(p.heap.max_heap, kGiB);
  EXPECT_TRUE(p.jit.tiered);
  EXPECT_FALSE(p.jit.interpret_only);
  EXPECT_FALSE(p.jit.client_vm);
  EXPECT_TRUE(p.runtime.biased_locking);
  EXPECT_TRUE(p.gc.pause_goal.is_infinite());  // no goal for throughput GC
}

TEST_F(ParamsTest, GcSelection) {
  config_.set_bool("UseParallelGC", false);
  config_.set_bool("UseSerialGC", true);
  EXPECT_EQ(decode_params(config_).gc.algorithm, GcAlgorithm::kSerial);

  config_.set_bool("UseSerialGC", false);
  config_.set_bool("UseConcMarkSweepGC", true);
  EXPECT_EQ(decode_params(config_).gc.algorithm, GcAlgorithm::kCms);

  config_.set_bool("UseConcMarkSweepGC", false);
  config_.set_bool("UseG1GC", true);
  EXPECT_EQ(decode_params(config_).gc.algorithm, GcAlgorithm::kG1);
}

TEST_F(ParamsTest, NoCollectorSelectedFallsBackToParallel) {
  config_.set_bool("UseParallelGC", false);
  EXPECT_EQ(decode_params(config_).gc.algorithm, GcAlgorithm::kParallel);
}

TEST_F(ParamsTest, SerialGcForcesSingleStwThread) {
  config_.set_bool("UseParallelGC", false);
  config_.set_bool("UseSerialGC", true);
  config_.set_int("ParallelGCThreads", 16);
  EXPECT_EQ(decode_params(config_).gc.stw_threads, 1);
}

TEST_F(ParamsTest, CmsWithoutParNewCollectsYoungSingleThreaded) {
  config_.set_bool("UseParallelGC", false);
  config_.set_bool("UseConcMarkSweepGC", true);
  config_.set_bool("UseParNewGC", false);
  EXPECT_EQ(decode_params(config_).gc.stw_threads, 1);
  config_.set_bool("UseParNewGC", true);
  EXPECT_GT(decode_params(config_).gc.stw_threads, 1);
}

TEST_F(ParamsTest, G1GetsDefaultPauseGoal) {
  config_.set_bool("UseParallelGC", false);
  config_.set_bool("UseG1GC", true);
  EXPECT_EQ(decode_params(config_).gc.pause_goal, SimTime::millis(200));
  config_.set_int("MaxGCPauseMillis", 50);
  EXPECT_EQ(decode_params(config_).gc.pause_goal, SimTime::millis(50));
}

TEST_F(ParamsTest, YoungSizeErgonomics) {
  const JvmParams p = decode_params(config_);
  // NewRatio 2 over a 1 GiB heap: max young = heap/3.
  EXPECT_EQ(p.heap.max_young_size, kGiB / 3);
  // Initial young starts below the bound (staged growth).
  EXPECT_LT(p.heap.young_size, p.heap.max_young_size);
  EXPECT_GT(p.heap.young_size, 0);
}

TEST_F(ParamsTest, ExplicitNewSizeWins) {
  config_.set_int("NewSize", 300 * kMiB);
  const JvmParams p = decode_params(config_);
  EXPECT_EQ(p.heap.young_size, 300 * kMiB);
}

TEST_F(ParamsTest, MaxNewSizeOverridesNewRatio) {
  config_.set_int("MaxNewSize", 100 * kMiB);
  EXPECT_EQ(decode_params(config_).heap.max_young_size, 100 * kMiB);
}

// A MaxNewSize below 1 MiB crosses the young-size bounds [1 MiB,
// max_young_size]; the upper bound wins. Values pinned from the decoder as
// it was before the bounds check was written out by hand.
TEST_F(ParamsTest, MaxNewSizeBelowOneMiBBoundsTheYoungGeneration) {
  config_.set_int("MaxNewSize", 512 * kKiB);
  const JvmParams p = decode_params(config_);
  EXPECT_EQ(p.heap.max_young_size, 524288);
  EXPECT_EQ(p.heap.young_size, 524288);
}

TEST_F(ParamsTest, InitialHeapClampedToMax) {
  config_.set_int("MaxHeapSize", 7 * kGiB);  // keep startable
  config_.set_int("InitialHeapSize", 4 * kGiB);
  const JvmParams p = decode_params(config_);
  EXPECT_LE(p.heap.initial_heap, p.heap.max_heap);
}

TEST_F(ParamsTest, ExecutionModes) {
  config_.set_enum("ExecutionMode", "int");
  EXPECT_TRUE(decode_params(config_).jit.interpret_only);
  config_.set_enum("ExecutionMode", "comp");
  const JvmParams p = decode_params(config_);
  EXPECT_TRUE(p.jit.compile_all);
  EXPECT_FALSE(p.jit.interpret_only);
}

TEST_F(ParamsTest, ClientVmDisablesTiered) {
  config_.set_enum("VMMode", "client");
  const JvmParams p = decode_params(config_);
  EXPECT_TRUE(p.jit.client_vm);
  EXPECT_FALSE(p.jit.tiered);
}

TEST_F(ParamsTest, NonTieredForcesStopLevelFour) {
  config_.set_bool("TieredCompilation", false);
  config_.set_int("TieredStopAtLevel", 1);
  EXPECT_EQ(decode_params(config_).jit.stop_at_level, 4);
}

TEST_F(ParamsTest, MoreInliningRaisesQualityThenPlateaus) {
  const double base = decode_params(config_).jit.c2_quality;
  config_.set_int("MaxInlineSize", 120);
  const double more = decode_params(config_).jit.c2_quality;
  EXPECT_GT(more, base);
  config_.set_int("MaxInlineSize", 500);
  const double extreme = decode_params(config_).jit.c2_quality;
  EXPECT_LT(extreme, more);  // icache pressure eats the gains
}

TEST_F(ParamsTest, InliningBloatsCode) {
  const double base = decode_params(config_).jit.code_bloat;
  config_.set_int("MaxInlineSize", 400);
  EXPECT_GT(decode_params(config_).jit.code_bloat, base);
}

TEST_F(ParamsTest, EscapeAnalysisElidesAllocationAndLocks) {
  JvmParams with = decode_params(config_);
  EXPECT_GT(with.jit.alloc_elision, 0.0);
  EXPECT_GT(with.jit.lock_elision, 0.0);
  config_.set_bool("DoEscapeAnalysis", false);
  JvmParams without = decode_params(config_);
  EXPECT_EQ(without.jit.alloc_elision, 0.0);
  EXPECT_EQ(without.jit.lock_elision, 0.0);
}

TEST_F(ParamsTest, CryptoIntrinsicsRaiseCryptoSpeed) {
  const double with = decode_params(config_).jit.crypto_speed;
  config_.set_bool("UseAESIntrinsics", false);
  const double without = decode_params(config_).jit.crypto_speed;
  EXPECT_GT(with, without);
  EXPECT_GE(without, 1.0);
}

TEST_F(ParamsTest, SuperWordRaisesVectorQuality) {
  const double with = decode_params(config_).jit.vector_quality;
  config_.set_bool("UseSuperWord", false);
  const double without = decode_params(config_).jit.vector_quality;
  EXPECT_GT(with, without);
}

TEST_F(ParamsTest, InterpreterFastPathFlags) {
  const double base = decode_params(config_).jit.interpreter_quality;
  config_.set_bool("RewriteBytecodes", false);
  const double slower = decode_params(config_).jit.interpreter_quality;
  EXPECT_LT(slower, base);
}

TEST_F(ParamsTest, SafepointIntervalZeroMeansNever) {
  config_.set_int("GuaranteedSafepointInterval", 0);
  EXPECT_TRUE(decode_params(config_).runtime.safepoint_interval.is_infinite());
  config_.set_int("GuaranteedSafepointInterval", 500);
  EXPECT_EQ(decode_params(config_).runtime.safepoint_interval, SimTime::millis(500));
}

TEST_F(ParamsTest, GcAlgorithmNames) {
  EXPECT_STREQ(to_string(GcAlgorithm::kSerial), "serial");
  EXPECT_STREQ(to_string(GcAlgorithm::kParallel), "parallel");
  EXPECT_STREQ(to_string(GcAlgorithm::kCms), "cms");
  EXPECT_STREQ(to_string(GcAlgorithm::kG1), "g1");
}

}  // namespace
}  // namespace jat
