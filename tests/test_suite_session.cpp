#include "tuner/suite_session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "support/error.hpp"
#include "support/log.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec mini(const char* name, double alloc_kib, int methods) {
  WorkloadSpec w;
  w.name = name;
  w.total_work = 400;
  w.startup_work = 80;
  w.startup_classes = 1200;
  w.alloc_rate = alloc_kib * 1024;
  w.method_count = methods;
  w.noise_sigma = 0.01;
  return w;
}

class SuiteSessionTest : public ::testing::Test {
 protected:
  SuiteSessionTest() { set_log_level(LogLevel::kWarn); }
  JvmSimulator sim_;

  std::vector<WorkloadSpec> mini_suite() {
    return {mini("mini-alloc", 900, 2500), mini("mini-code", 150, 9000),
            mini("mini-flat", 300, 4000)};
  }
};

TEST_F(SuiteSessionTest, DefaultsScoreExactlyOneThousand) {
  SuiteRunner runner(sim_, mini_suite());
  const Measurement m =
      runner.measure(Configuration(FlagRegistry::hotspot()), nullptr);
  ASSERT_TRUE(m.valid());
  EXPECT_NEAR(m.objective(), 1000.0, 1e-6);
}

TEST_F(SuiteSessionTest, EmptySuiteRejected) {
  EXPECT_THROW(SuiteRunner(sim_, {}), TunerError);
}

TEST_F(SuiteSessionTest, CrashOnAnyMemberCrashesTheCandidate) {
  SuiteRunner runner(sim_, mini_suite());
  Configuration bad(FlagRegistry::hotspot());
  bad.set_bool("UseG1GC", true);  // conflicting collectors
  const Measurement m = runner.measure(bad, nullptr);
  EXPECT_TRUE(m.crashed);
}

TEST_F(SuiteSessionTest, MeasureEachReportsPerWorkloadTimes) {
  SuiteRunner runner(sim_, mini_suite());
  const auto times = runner.measure_each(Configuration(FlagRegistry::hotspot()),
                                         nullptr);
  ASSERT_EQ(times.size(), 3u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_TRUE(std::isfinite(times[i]));
    EXPECT_NEAR(times[i], runner.default_times_ms()[i], 1e-9);
  }
}

TEST_F(SuiteSessionTest, BudgetChargedAcrossMembers) {
  SuiteRunner runner(sim_, mini_suite());
  BudgetClock budget(SimTime::minutes(1000));
  Configuration c(FlagRegistry::hotspot());
  c.set_int("NewRatio", 3);  // cache miss: actually runs
  runner.measure(c, &budget);
  // 3 workloads x 3 reps x (run + 2 s overhead).
  EXPECT_GT(budget.spent(), SimTime::seconds(18));
}

TEST_F(SuiteSessionTest, GeneralTuningImprovesTheGeomean) {
  SessionOptions options;
  options.budget = SimTime::minutes(45);
  options.repetitions = 2;
  SuiteTuningSession session(sim_, mini_suite(), options);
  HierarchicalTuner tuner;
  const SuiteOutcome outcome = session.run(tuner);

  EXPECT_LE(outcome.geomean_ratio, 1.0);
  EXPECT_GE(outcome.improvement_frac(), 0.0);
  ASSERT_EQ(outcome.per_workload_improvement.size(), 3u);
  ASSERT_EQ(outcome.workload_names.size(), 3u);
  EXPECT_EQ(outcome.workload_names[0], "mini-alloc");
  EXPECT_GT(outcome.evaluations, 1);
  ASSERT_NE(outcome.db, nullptr);
}

TEST_F(SuiteSessionTest, GeomeanConsistentWithPerWorkloadImprovements) {
  SessionOptions options;
  options.budget = SimTime::minutes(45);
  options.repetitions = 2;
  SuiteTuningSession session(sim_, mini_suite(), options);
  HierarchicalTuner tuner;
  const SuiteOutcome outcome = session.run(tuner);

  double log_sum = 0;
  for (double improvement : outcome.per_workload_improvement) {
    log_sum += std::log(1.0 - improvement);
  }
  const double recomputed =
      std::exp(log_sum / static_cast<double>(outcome.per_workload_improvement.size()));
  EXPECT_NEAR(outcome.geomean_ratio, recomputed, 1e-9);
}

// Options a suite session cannot honour are refused before anything is
// measured, with an error that names the option, instead of being ignored.
void expect_rejected(const JvmSimulator& sim,
                     const std::vector<WorkloadSpec>& suite,
                     const SessionOptions& options, const std::string& option) {
  try {
    SuiteTuningSession session(sim, suite, options);
    ADD_FAILURE() << "option '" << option << "' was accepted";
  } catch (const TunerError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + option + "'"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SuiteSessionTest, RejectsRacingFactor) {
  SessionOptions options;
  options.racing_factor = 1.3;
  expect_rejected(sim_, mini_suite(), options, "racing_factor");
}

TEST_F(SuiteSessionTest, RejectsResilient) {
  SessionOptions options;
  options.resilient = true;
  expect_rejected(sim_, mini_suite(), options, "resilient");
}

TEST_F(SuiteSessionTest, RejectsFaultInjection) {
  SessionOptions options;
  options.fault_injection.transient_rate = 0.1;
  expect_rejected(sim_, mini_suite(), options, "fault_injection");
}

TEST_F(SuiteSessionTest, RejectsTrace) {
  TraceSink sink;
  SessionOptions options;
  options.trace = &sink;
  expect_rejected(sim_, mini_suite(), options, "trace");
}

TEST_F(SuiteSessionTest, DeterministicAcrossRuns) {
  SessionOptions options;
  options.budget = SimTime::minutes(20);
  options.repetitions = 2;
  SuiteTuningSession s1(sim_, mini_suite(), options);
  SuiteTuningSession s2(sim_, mini_suite(), options);
  HillClimber t1;
  HillClimber t2;
  const SuiteOutcome a = s1.run(t1);
  const SuiteOutcome b = s2.run(t2);
  EXPECT_EQ(a.geomean_ratio, b.geomean_ratio);
  EXPECT_EQ(a.best_config.fingerprint(), b.best_config.fingerprint());
}

}  // namespace
}  // namespace jat
