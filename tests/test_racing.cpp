#include <gtest/gtest.h>

#include <cmath>

#include "harness/runner.hpp"
#include "support/log.hpp"
#include "support/statistics.hpp"
#include "tuner/search_space.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec racing_workload() {
  WorkloadSpec w;
  w.name = "racing-test";
  w.total_work = 400;
  w.startup_work = 80;
  w.startup_classes = 1000;
  w.noise_sigma = 0.01;
  return w;
}

/// Hints carrying `incumbent` as the dispatch-time incumbent, as the
/// scheduler would snapshot it.
EvalHints against(const Measurement& incumbent) {
  RunningStat s;
  for (double t : incumbent.times_ms) s.add(t);
  EvalHints hints;
  hints.incumbent = IncumbentSnapshot{s.count(), s.mean(), s.m2()};
  return hints;
}

Configuration slow_config() {
  Configuration slow(FlagRegistry::hotspot());
  slow.set_enum("ExecutionMode", "int");  // several times slower
  return slow;
}

class RacingTest : public ::testing::Test {
 protected:
  RacingTest() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;

  BenchmarkRunner make_runner(double racing_factor) {
    RunnerOptions options;
    options.repetitions = 3;
    options.racing_factor = racing_factor;
    return BenchmarkRunner(sim_, racing_workload(), options);
  }
};

TEST_F(RacingTest, DisabledByDefaultRunsAllRepetitions) {
  BenchmarkRunner runner = make_runner(0.0);
  Configuration slow(FlagRegistry::hotspot());
  slow.set_enum("ExecutionMode", "int");
  runner.measure(Configuration(FlagRegistry::hotspot()));
  const Measurement m = runner.measure(slow);
  EXPECT_EQ(m.times_ms.size(), 3u);
  EXPECT_EQ(m.stop, StopReason::kFull);
}

TEST_F(RacingTest, AbandonsClearLosersAfterOneRep) {
  BenchmarkRunner runner = make_runner(1.3);
  // Establish the incumbent with the defaults.
  const Measurement base = runner.measure(Configuration(FlagRegistry::hotspot()));
  ASSERT_EQ(base.times_ms.size(), 3u);

  const Measurement m = runner.measure(slow_config(), nullptr, against(base));
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.times_ms.size(), 1u);  // raced out
  EXPECT_EQ(m.stop, StopReason::kRacedOut);
  EXPECT_GT(m.objective(), base.objective());
}

TEST_F(RacingTest, KeepsCompetitiveCandidatesAtFullRepetitions) {
  BenchmarkRunner runner = make_runner(1.3);
  const Measurement base =
      runner.measure(Configuration(FlagRegistry::hotspot()));
  Configuration similar(FlagRegistry::hotspot());
  similar.set_int("NewRatio", 3);  // near-identical performance
  const Measurement m = runner.measure(similar, nullptr, against(base));
  EXPECT_EQ(m.times_ms.size(), 3u);
}

TEST_F(RacingTest, NoIncumbentNoRacing) {
  BenchmarkRunner runner = make_runner(1.3);
  runner.measure(Configuration(FlagRegistry::hotspot()));
  const Measurement m = runner.measure(slow_config());
  EXPECT_EQ(m.times_ms.size(), 3u);
  EXPECT_EQ(m.stop, StopReason::kFull);
}

// A racing decision is a function of the configuration, the seed and the
// dispatch-time incumbent only: whatever the runner measured before (on
// this thread, another worker, or another sandbox process) cannot move it.
TEST_F(RacingTest, DecisionIgnoresWhatTheRunnerMeasuredBefore) {
  BenchmarkRunner warm = make_runner(1.3);
  const Measurement fast =
      warm.measure(Configuration(FlagRegistry::hotspot()));
  ASSERT_TRUE(fast.valid());
  BenchmarkRunner fresh = make_runner(1.3);

  // The same hints for both: an incumbent the slow candidate is within
  // reach of, so only a runner-wide first-repetition floor could cut it.
  Measurement reach = fast;
  for (double& t : reach.times_ms) t *= 10.0;
  const EvalHints hints = against(reach);

  const Measurement after_fast = warm.measure(slow_config(), nullptr, hints);
  const Measurement alone = fresh.measure(slow_config(), nullptr, hints);
  EXPECT_EQ(after_fast.times_ms, alone.times_ms);
  EXPECT_EQ(after_fast.rep_metrics, alone.rep_metrics);
  EXPECT_EQ(after_fast.stop, alone.stop);
  EXPECT_EQ(after_fast.crashed, alone.crashed);
  EXPECT_EQ(after_fast.failed_reps, alone.failed_reps);
  EXPECT_EQ(alone.stop, StopReason::kFull);
}

TEST_F(RacingTest, RacingSavesRunsAtEqualEvaluationCount) {
  BenchmarkRunner plain = make_runner(0.0);
  BenchmarkRunner racing = make_runner(1.3);
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(11);
  const Configuration defaults(FlagRegistry::hotspot());
  const EvalHints hints = against(plain.measure(defaults));
  racing.measure(defaults);
  for (int i = 0; i < 30; ++i) {
    const Configuration c = space.random_config(rng, 0.3);
    plain.measure(c, nullptr, hints);
    racing.measure(c, nullptr, hints);
  }
  EXPECT_LT(racing.runs_executed(), plain.runs_executed());
}

TEST_F(RacingTest, SessionWithRacingStillValidatesHonestly) {
  SessionOptions options;
  options.budget = SimTime::minutes(20);
  options.repetitions = 3;
  options.racing_factor = 1.3;
  TuningSession session(sim_, racing_workload(), options);
  HierarchicalTuner tuner;
  const TuningOutcome outcome = session.run(tuner);
  EXPECT_TRUE(std::isfinite(outcome.best_ms));
  EXPECT_LE(outcome.best_ms, outcome.default_ms);
  EXPECT_GE(outcome.improvement_frac(), 0.0);
}

}  // namespace
}  // namespace jat
