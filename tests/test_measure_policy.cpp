// Confidence-driven adaptive measurement policy: the per-repetition
// stop/abandon rule (measure_policy.hpp), the runner's adaptive loop and
// raced-out top-up path, and the session-level contracts — determinism
// across eval_threads, run savings against the fixed-repetition loop, and
// bit-identity of the policy-off path.
#include "harness/measure_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "determinism_matrix.hpp"
#include "harness/runner.hpp"
#include "support/log.hpp"
#include "support/statistics.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/search_space.hpp"
#include "tuner/session.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

// ---------------------------------------------------------------------------
// StopReason serialization

TEST(StopReasonStrings, RoundTripsEveryReason) {
  for (StopReason stop :
       {StopReason::kFull, StopReason::kConverged, StopReason::kRacedOut,
        StopReason::kBudgetCut, StopReason::kCancelled}) {
    EXPECT_EQ(stop_reason_from_string(to_string(stop)), stop);
  }
}

TEST(StopReasonStrings, UnknownLabelsReadAsFull) {
  EXPECT_EQ(stop_reason_from_string(""), StopReason::kFull);
  EXPECT_EQ(stop_reason_from_string("exploded"), StopReason::kFull);
}

TEST(IncumbentSnapshotTest, RoundTripsThroughMoments) {
  RunningStat s;
  for (double x : {100.0, 102.5, 98.0, 101.0}) s.add(x);
  const IncumbentSnapshot snap{s.count(), s.mean(), s.m2()};
  ASSERT_TRUE(snap.usable());
  const RunningStat back = snap.to_stat();
  EXPECT_EQ(back.count(), s.count());
  EXPECT_DOUBLE_EQ(back.mean(), s.mean());
  EXPECT_DOUBLE_EQ(back.variance(), s.variance());
  EXPECT_FALSE((IncumbentSnapshot{1, 100.0, 0.0}).usable());
}

// ---------------------------------------------------------------------------
// Decision rule (pure, no simulator)

RunningStat stat_of(std::initializer_list<double> xs) {
  RunningStat s;
  for (double x : xs) s.add(x);
  return s;
}

MeasurementPolicyOptions adaptive_options() {
  MeasurementPolicyOptions o;
  o.adaptive = true;
  return o;
}

TEST(MeasurementPolicyTest, DisabledPolicyNeverStops) {
  MeasurementPolicyOptions off;  // adaptive = false
  MeasurementPolicy policy(off, IncumbentSnapshot{});
  // Even a perfectly tight sample continues: the fixed loop is in charge.
  EXPECT_EQ(policy.after_rep(stat_of({100.0, 100.0, 100.0})),
            MeasurementPolicy::Decision::kContinue);
}

TEST(MeasurementPolicyTest, NeverDecidesBeforeTwoRepetitions) {
  MeasurementPolicy policy(adaptive_options(), IncumbentSnapshot{});
  EXPECT_EQ(policy.after_rep(stat_of({100.0})),
            MeasurementPolicy::Decision::kContinue);
}

TEST(MeasurementPolicyTest, ConvergesWhenCiWithinRelativeThreshold) {
  MeasurementPolicy policy(adaptive_options(), IncumbentSnapshot{});
  // Five reps, ~0.1% spread: CI95 half-width well inside 2% of the mean.
  EXPECT_EQ(policy.after_rep(stat_of({100.0, 100.1, 99.9, 100.05, 99.95})),
            MeasurementPolicy::Decision::kConverged);
  // Wide spread at the same count: keep sampling.
  EXPECT_EQ(policy.after_rep(stat_of({80.0, 120.0, 95.0, 110.0, 90.0})),
            MeasurementPolicy::Decision::kContinue);
}

TEST(MeasurementPolicyTest, RacesOutStatisticallyWorseSample) {
  const RunningStat incumbent = stat_of({100.0, 101.0, 99.0, 100.0, 100.5});
  const IncumbentSnapshot snap{incumbent.count(), incumbent.mean(),
                               incumbent.m2()};
  MeasurementPolicy policy(adaptive_options(), snap);
  // Far above the incumbent but too noisy to have converged: abandon.
  EXPECT_EQ(policy.after_rep(stat_of({140.0, 160.0, 150.0})),
            MeasurementPolicy::Decision::kRacedOut);
}

TEST(MeasurementPolicyTest, BetterSampleIsNeverRacedOut) {
  const RunningStat incumbent = stat_of({100.0, 101.0, 99.0, 100.0, 100.5});
  MeasurementPolicy policy(
      adaptive_options(),
      IncumbentSnapshot{incumbent.count(), incumbent.mean(), incumbent.m2()});
  // Far *below* the incumbent: a potential winner keeps measuring no matter
  // how significant the difference is.
  EXPECT_EQ(policy.after_rep(stat_of({40.0, 60.0, 50.0})),
            MeasurementPolicy::Decision::kContinue);
}

TEST(MeasurementPolicyTest, NoRacingWithoutUsableIncumbent) {
  MeasurementPolicy policy(adaptive_options(),
                           IncumbentSnapshot{1, 100.0, 0.0});
  EXPECT_EQ(policy.after_rep(stat_of({140.0, 160.0, 150.0})),
            MeasurementPolicy::Decision::kContinue);
}

TEST(MeasurementPolicyTest, ConvergenceWinsOverRacingForTightLosers) {
  const RunningStat incumbent = stat_of({100.0, 101.0, 99.0, 100.0, 100.5});
  MeasurementPolicy policy(
      adaptive_options(),
      IncumbentSnapshot{incumbent.count(), incumbent.mean(), incumbent.m2()});
  // A loser whose own mean is already tight is kept as kConverged — the
  // session compares objectives, and a tight loser is an honest datapoint.
  EXPECT_EQ(policy.after_rep(stat_of({150.0, 150.1, 149.9, 150.05})),
            MeasurementPolicy::Decision::kConverged);
}

// The first-repetition racing factor (jat_tune --racing) is a rule of the
// same policy, independent of the adaptive switch.

TEST(MeasurementPolicyTest, FactorRacesOutFirstRepAboveTheIncumbentMean) {
  MeasurementPolicyOptions off;  // the factor needs no adaptive policy
  // One incumbent repetition is enough (the Welch test would need two).
  MeasurementPolicy policy(off, IncumbentSnapshot{1, 100.0, 0.0}, 1.3);
  EXPECT_EQ(policy.after_rep(stat_of({130.5})),
            MeasurementPolicy::Decision::kRacedOut);
  MeasurementPolicy adaptive(adaptive_options(),
                             IncumbentSnapshot{1, 100.0, 0.0}, 1.3);
  EXPECT_EQ(adaptive.after_rep(stat_of({130.5})),
            MeasurementPolicy::Decision::kRacedOut);
}

TEST(MeasurementPolicyTest, FactorKeepsFirstRepAtOrBelowTheCut) {
  const IncumbentSnapshot incumbent{3, 100.0, 2.0};
  MeasurementPolicy policy(MeasurementPolicyOptions{}, incumbent, 1.3);
  EXPECT_EQ(policy.after_rep(stat_of({1.3 * incumbent.mean})),
            MeasurementPolicy::Decision::kContinue);
  EXPECT_EQ(policy.after_rep(stat_of({90.0})),
            MeasurementPolicy::Decision::kContinue);
}

TEST(MeasurementPolicyTest, FactorNeedsAnIncumbent) {
  MeasurementPolicy policy(MeasurementPolicyOptions{}, IncumbentSnapshot{},
                           1.3);
  EXPECT_EQ(policy.after_rep(stat_of({1000.0})),
            MeasurementPolicy::Decision::kContinue);
}

TEST(MeasurementPolicyTest, ZeroFactorDisablesTheRule) {
  MeasurementPolicy policy(MeasurementPolicyOptions{},
                           IncumbentSnapshot{3, 100.0, 2.0}, 0.0);
  EXPECT_EQ(policy.after_rep(stat_of({1000.0})),
            MeasurementPolicy::Decision::kContinue);
}

TEST(MeasurementPolicyTest, FactorAppliesToTheFirstRepetitionOnly) {
  MeasurementPolicy policy(MeasurementPolicyOptions{},
                           IncumbentSnapshot{3, 100.0, 2.0}, 1.3);
  EXPECT_EQ(policy.after_rep(stat_of({1000.0, 1000.0})),
            MeasurementPolicy::Decision::kContinue);
  EXPECT_EQ(policy.after_rep(stat_of({1000.0, 1000.0, 1000.0})),
            MeasurementPolicy::Decision::kContinue);
}

// ---------------------------------------------------------------------------
// Runner integration

WorkloadSpec policy_workload() {
  WorkloadSpec w;
  w.name = "policy-test";
  w.total_work = 400;
  w.startup_work = 80;
  w.startup_classes = 1000;
  w.noise_sigma = 0.01;
  return w;
}

IncumbentSnapshot snapshot_of(const Measurement& m) {
  RunningStat s;
  for (double t : m.times_ms) s.add(t);
  return IncumbentSnapshot{s.count(), s.mean(), s.m2()};
}

class MeasurePolicyRunnerTest : public ::testing::Test {
 protected:
  MeasurePolicyRunnerTest() { set_log_level(LogLevel::kWarn); }

  BenchmarkRunner make_runner(const MeasurementPolicyOptions& policy,
                              int repetitions = 3) {
    RunnerOptions options;
    options.repetitions = repetitions;
    options.policy = policy;
    return BenchmarkRunner(sim_, policy_workload(), options);
  }

  Configuration defaults() { return Configuration(FlagRegistry::hotspot()); }

  Configuration slow() {
    Configuration c(FlagRegistry::hotspot());
    c.set_enum("ExecutionMode", "int");  // several times slower
    return c;
  }

  JvmSimulator sim_;
};

TEST_F(MeasurePolicyRunnerTest, AdaptiveRunnerStopsOnConvergence) {
  MeasurementPolicyOptions policy = adaptive_options();
  policy.max_reps = 10;
  policy.ci_rel = 0.05;  // generous: 1% noise converges in a few reps
  BenchmarkRunner runner = make_runner(policy);
  const Measurement m = runner.measure(defaults());
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.stop, StopReason::kConverged);
  EXPECT_GE(m.times_ms.size(), 2u);
  EXPECT_LT(m.times_ms.size(), 10u);
}

TEST_F(MeasurePolicyRunnerTest, AdaptiveRunnerRacesOutWorseCandidate) {
  MeasurementPolicyOptions policy = adaptive_options();
  policy.max_reps = 10;
  policy.ci_rel = 0.001;  // tight enough that racing decides first
  BenchmarkRunner runner = make_runner(policy);
  const Measurement base = runner.measure(defaults());
  ASSERT_TRUE(base.valid());

  EvalHints hints;
  hints.incumbent = snapshot_of(base);
  const Measurement m = runner.measure(slow(), nullptr, hints);
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.stop, StopReason::kRacedOut);
  EXPECT_LT(m.times_ms.size(), 10u);
  EXPECT_GT(m.objective(), base.objective());
}

TEST_F(MeasurePolicyRunnerTest, PolicyOffIgnoresHintsBitForBit) {
  MeasurementPolicyOptions off;  // adaptive = false
  BenchmarkRunner plain = make_runner(off);
  BenchmarkRunner hinted = make_runner(off);
  const Measurement base = plain.measure(defaults());

  const Measurement expected = plain.measure(slow());
  EvalHints hints;
  hints.incumbent = snapshot_of(base);
  const Measurement m = hinted.measure(slow(), nullptr, hints);
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.times_ms, expected.times_ms);
  EXPECT_EQ(m.stop, StopReason::kFull);
  EXPECT_EQ(expected.stop, StopReason::kFull);
}

TEST_F(MeasurePolicyRunnerTest, TopUpMergeIsBitIdenticalToFromScratch) {
  MeasurementPolicyOptions policy = adaptive_options();
  policy.max_reps = 8;
  policy.ci_rel = 0.0005;  // never converges at this noise: runs to the cap
  BenchmarkRunner runner = make_runner(policy);
  const Measurement base = runner.measure(defaults());
  ASSERT_TRUE(base.valid());
  const std::int64_t runs_after_base = runner.runs_executed();

  // Race the slow candidate out against the incumbent: a truncated,
  // cached partial.
  EvalHints race;
  race.incumbent = snapshot_of(base);
  const Measurement partial = runner.measure(slow(), nullptr, race);
  ASSERT_EQ(partial.stop, StopReason::kRacedOut);
  const std::size_t partial_reps = partial.times_ms.size();
  ASSERT_LT(partial_reps, 8u);

  // Top it up (no incumbent: the continuation runs to the cap).
  EvalHints topup;
  topup.top_up = true;
  const Measurement merged = runner.measure(slow(), nullptr, topup);
  ASSERT_TRUE(merged.valid());
  EXPECT_EQ(merged.stop, StopReason::kFull);
  ASSERT_EQ(merged.times_ms.size(), 8u);
  // Only the missing repetitions were executed.
  EXPECT_EQ(runner.runs_executed() - runs_after_base, 8);

  // A fresh runner measuring from scratch produces the same repetitions
  // bit for bit: seed continuity makes the merge invisible.
  BenchmarkRunner fresh = make_runner(policy);
  const Measurement scratch = fresh.measure(slow());
  ASSERT_TRUE(scratch.valid());
  EXPECT_EQ(merged.times_ms, scratch.times_ms);
  EXPECT_EQ(merged.stop, scratch.stop);
  EXPECT_EQ(merged.summary.mean, scratch.summary.mean);

  // The merged result replaced the cached partial: a repeat answers from
  // the cache with the full measurement.
  const Measurement again = runner.measure(slow());
  EXPECT_EQ(again.times_ms, merged.times_ms);
  EXPECT_EQ(runner.runs_executed() - runs_after_base, 8);
}

TEST_F(MeasurePolicyRunnerTest, TopUpLeavesConvergedMeasurementsAlone) {
  MeasurementPolicyOptions policy = adaptive_options();
  policy.max_reps = 10;
  policy.ci_rel = 0.05;
  BenchmarkRunner runner = make_runner(policy);
  const Measurement first = runner.measure(defaults());
  ASSERT_EQ(first.stop, StopReason::kConverged);
  const std::int64_t runs = runner.runs_executed();

  EvalHints topup;
  topup.top_up = true;
  const Measurement again = runner.measure(defaults(), nullptr, topup);
  EXPECT_EQ(again.times_ms, first.times_ms);
  EXPECT_EQ(runner.runs_executed(), runs);  // cache hit, nothing re-run
}

// ---------------------------------------------------------------------------
// Session integration

class MeasurePolicySessionTest : public ::testing::Test {
 protected:
  MeasurePolicySessionTest() { set_log_level(LogLevel::kWarn); }

  SessionOptions session_options(bool adaptive, std::size_t threads) {
    SessionOptions options;
    options.budget = SimTime::minutes(10);
    options.repetitions = 5;
    options.seed = 77;
    options.eval_threads = threads;
    options.inflight = 8;
    if (adaptive) {
      options.measurement.adaptive = true;
      options.measurement.max_reps = 5;
      options.measurement.ci_rel = 0.02;
      options.measurement.race_p = 0.05;
    }
    return options;
  }

  JvmSimulator sim_;
};

// Determinism: the adaptive policy makes its decisions from dispatch-time
// incumbent snapshots captured on the control thread, so the trajectory —
// including stop reasons — is identical for any eval_threads.
TEST_F(MeasurePolicySessionTest, AdaptiveTrajectoryIdenticalAcrossEvalThreads) {
  for (const char* name : {"random", "hill"}) {
    DeterminismMatrix matrix;
    matrix.cases = {{.eval_threads = 4}};
    matrix.compare_stop = true;  // the policy's early stops must replay too
    run_determinism_matrix(
        sim_, policy_workload(), session_options(true, 0),
        [&]() -> std::unique_ptr<SearchStrategy> {
          if (std::string(name) == "random")
            return std::make_unique<RandomSearch>(0.15);
          return std::make_unique<HillClimber>();
        },
        matrix, name);
  }
}

// The point of the policy: equal budget, strictly fewer simulator runs
// than the fixed-repetition loop, with the winner's quality preserved.
TEST_F(MeasurePolicySessionTest, AdaptiveSavesRunsAtEqualBudget) {
  TuningSession fixed_session(sim_, policy_workload(),
                              session_options(false, 0));
  RandomSearch fixed_strategy(0.15);
  const TuningOutcome fixed = fixed_session.run(fixed_strategy);

  TuningSession adaptive_session(sim_, policy_workload(),
                                 session_options(true, 0));
  RandomSearch adaptive_strategy(0.15);
  const TuningOutcome adaptive = adaptive_session.run(adaptive_strategy);

  ASSERT_TRUE(std::isfinite(adaptive.best_ms));
  // Same budget, more candidates explored per run spent.
  EXPECT_GE(adaptive.evaluations, fixed.evaluations);
  EXPECT_LT(static_cast<double>(adaptive.runs) / adaptive.evaluations,
            static_cast<double>(fixed.runs) / fixed.evaluations);
  // Quality within noise of the fixed loop's winner.
  EXPECT_LE(adaptive.best_ms, fixed.best_ms * 1.05);

  // The policy actually engaged: truncated stop reasons appear in the log.
  bool saw_policy_stop = false;
  for (const EvalRecord& rec : adaptive.db->all()) {
    if (rec.stop == StopReason::kConverged ||
        rec.stop == StopReason::kRacedOut) {
      saw_policy_stop = true;
    }
  }
  EXPECT_TRUE(saw_policy_stop);
  for (const EvalRecord& rec : fixed.db->all()) {
    EXPECT_NE(rec.stop, StopReason::kConverged);
    EXPECT_NE(rec.stop, StopReason::kRacedOut);
  }
}

// Policy-off taxonomy: with the policy disabled, records read stop=full —
// or budget_cut for the measurements the budget expired under, which is
// the pre-existing truncation now labeled — but never a policy decision
// (converged/raced_out only exist when the policy is on).
TEST_F(MeasurePolicySessionTest, DisabledPolicyNeverEmitsPolicyStops) {
  TuningSession session(sim_, policy_workload(), session_options(false, 0));
  RandomSearch strategy(0.15);
  const TuningOutcome outcome = session.run(strategy);
  ASSERT_GT(outcome.db->size(), 0u);
  bool saw_full = false;
  for (const EvalRecord& rec : outcome.db->all()) {
    EXPECT_TRUE(rec.stop == StopReason::kFull ||
                rec.stop == StopReason::kBudgetCut)
        << to_string(rec.stop);
    saw_full = saw_full || rec.stop == StopReason::kFull;
  }
  EXPECT_TRUE(saw_full);
}

}  // namespace
}  // namespace jat
