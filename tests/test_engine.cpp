#include "jvmsim/engine.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "flags/hierarchy.hpp"
#include "flags/validate.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "tuner/search_space.hpp"
#include "workloads/suites.hpp"

namespace jat {
namespace {

WorkloadSpec quick_workload() {
  WorkloadSpec w;
  w.name = "engine-test";
  w.total_work = 800;
  w.startup_work = 100;
  w.startup_classes = 1000;
  w.alloc_rate = 300 * 1024;
  w.noise_sigma = 0.0;  // exact determinism checks
  return w;
}

class EngineTest : public ::testing::Test {
 protected:
  JvmSimulator sim_;
  Configuration config_{FlagRegistry::hotspot()};
};

TEST_F(EngineTest, DefaultRunCompletesAllWork) {
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(r.crashed) << r.crash_reason;
  EXPECT_NEAR(r.work_done, 800.0, 1.0);
  EXPECT_GT(r.total_time, SimTime::zero());
  EXPECT_GT(r.throughput(), 0.0);
}

TEST_F(EngineTest, DeterministicForSameSeed) {
  const RunResult a = sim_.run(config_, quick_workload(), 77);
  const RunResult b = sim_.run(config_, quick_workload(), 77);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.young_gc_count, b.young_gc_count);
  EXPECT_EQ(a.compiles_c1, b.compiles_c1);
  EXPECT_EQ(a.gc_pause_total, b.gc_pause_total);
}

TEST_F(EngineTest, NoiseMakesSeedsDiffer) {
  WorkloadSpec w = quick_workload();
  w.noise_sigma = 0.05;
  const RunResult a = sim_.run(config_, w, 1);
  const RunResult b = sim_.run(config_, w, 2);
  EXPECT_NE(a.total_time, b.total_time);
}

TEST_F(EngineTest, ZeroNoiseSeedsAgreeOnDuration) {
  const RunResult a = sim_.run(config_, quick_workload(), 1);
  const RunResult b = sim_.run(config_, quick_workload(), 2);
  EXPECT_EQ(a.total_time, b.total_time);
}

TEST_F(EngineTest, NonStartableConfigurationCrashes) {
  config_.set_bool("UseG1GC", true);  // conflicts with UseParallelGC
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_NE(r.crash_reason.find("VM failed to start"), std::string::npos);
}

TEST_F(EngineTest, TinyHeapOomCrashes) {
  WorkloadSpec w = quick_workload();
  w.long_lived_bytes = 900.0 * 1024 * 1024;
  config_.set_int("MaxHeapSize", 64 * kMiB);
  config_.set_int("InitialHeapSize", 32 * kMiB);
  const RunResult r = sim_.run(config_, w, 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_NE(r.crash_reason.find("OutOfMemoryError"), std::string::npos);
}

TEST_F(EngineTest, MetaspaceOomCrashes) {
  WorkloadSpec w = quick_workload();
  w.startup_classes = 20000;
  config_.set_int("MaxMetaspaceSize", 16 * kMiB);
  const RunResult r = sim_.run(config_, w, 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_NE(r.crash_reason.find("Metaspace"), std::string::npos);
}

TEST_F(EngineTest, StartupTimeBeforeTotalTime) {
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  EXPECT_GT(r.startup_time, SimTime::zero());
  EXPECT_LT(r.startup_time, r.total_time);
  EXPECT_GE(r.startup_time, r.class_load_time);
}

TEST_F(EngineTest, InterpreterOnlyIsMuchSlower) {
  const RunResult mixed = sim_.run(config_, quick_workload(), 1);
  config_.set_enum("ExecutionMode", "int");
  const RunResult interp = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(interp.crashed);
  EXPECT_GT(interp.total_time, mixed.total_time * 2.0);
  EXPECT_EQ(interp.compiles_c1 + interp.compiles_c2, 0);
}

TEST_F(EngineTest, DisablingVerificationSpeedsClassLoad) {
  const RunResult verified = sim_.run(config_, quick_workload(), 1);
  config_.set_bool("BytecodeVerificationRemote", false);
  const RunResult unverified = sim_.run(config_, quick_workload(), 1);
  EXPECT_LT(unverified.class_load_time, verified.class_load_time);
}

TEST_F(EngineTest, CdsSpeedsClassLoad) {
  const RunResult with = sim_.run(config_, quick_workload(), 1);
  config_.set_bool("UseSharedSpaces", false);
  const RunResult without = sim_.run(config_, quick_workload(), 1);
  EXPECT_GT(without.class_load_time, with.class_load_time);
}

TEST_F(EngineTest, PretouchMovesCostToStartup) {
  WorkloadSpec w = quick_workload();
  const RunResult lazy = sim_.run(config_, w, 1);
  config_.set_bool("AlwaysPreTouch", true);
  const RunResult eager = sim_.run(config_, w, 1);
  EXPECT_GT(eager.startup_time, lazy.startup_time);
}

TEST_F(EngineTest, GcStatsAreConsistent) {
  WorkloadSpec w = quick_workload();
  w.total_work = 3000;
  w.alloc_rate = 1200 * 1024;
  const RunResult r = sim_.run(config_, w, 1);
  ASSERT_FALSE(r.crashed);
  EXPECT_GT(r.young_gc_count, 0);
  EXPECT_GT(r.gc_pause_total, SimTime::zero());
  EXPECT_GE(r.gc_pause_max, SimTime::zero());
  EXPECT_LE(r.gc_pause_max, r.gc_pause_total);
  EXPECT_LE(r.gc_pause_total, r.total_time);
  EXPECT_GT(r.peak_heap_used, 0);
  EXPECT_LE(r.peak_heap_used, static_cast<std::int64_t>(1.05 * r.heap_capacity));
}

TEST_F(EngineTest, HigherAllocationRateMeansMoreYoungGcs) {
  WorkloadSpec slow = quick_workload();
  slow.total_work = 2000;
  slow.alloc_rate = 200 * 1024;
  WorkloadSpec fast = slow;
  fast.alloc_rate = 1600 * 1024;
  const RunResult r_slow = sim_.run(config_, slow, 1);
  const RunResult r_fast = sim_.run(config_, fast, 1);
  EXPECT_GT(r_fast.young_gc_count, r_slow.young_gc_count);
}

TEST_F(EngineTest, BiggerHeapMeansFewerYoungGcs) {
  WorkloadSpec w = quick_workload();
  w.total_work = 2000;
  w.alloc_rate = 1200 * 1024;
  const RunResult small = sim_.run(config_, w, 1);
  config_.set_int("MaxHeapSize", 4 * kGiB);
  const RunResult big = sim_.run(config_, w, 1);
  EXPECT_LT(big.young_gc_count, small.young_gc_count);
}

TEST_F(EngineTest, LockHeavyWorkloadAccumulatesLockOverhead) {
  WorkloadSpec w = quick_workload();
  w.locks_per_work = 300;
  w.lock_contention = 0.3;
  const RunResult r = sim_.run(config_, w, 1);
  EXPECT_GT(r.lock_overhead, SimTime::zero());
  EXPECT_LT(r.lock_overhead, r.total_time);
}

TEST_F(EngineTest, BatchCompilationStallsButCompletes) {
  config_.set_bool("BackgroundCompilation", false);
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(r.crashed);
  EXPECT_NEAR(r.work_done, 800.0, 1.0);
}

TEST_F(EngineTest, CompileAllCompilesUpFront) {
  config_.set_enum("ExecutionMode", "comp");
  const RunResult r = sim_.run(config_, quick_workload(), 1);
  ASSERT_FALSE(r.crashed);
  EXPECT_GT(r.compile_cpu, SimTime::seconds(1));
}

TEST_F(EngineTest, TimeoutGuardTripsOnPathologicalRuns) {
  SimOptions options;
  options.max_sim_seconds = 0.5;  // absurdly tight harness timeout
  JvmSimulator strict(options);
  WorkloadSpec w = quick_workload();
  w.total_work = 100000;
  const RunResult r = strict.run(config_, w, 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_NE(r.crash_reason.find("timeout"), std::string::npos);
}

TEST_F(EngineTest, CmsRunReportsConcurrentWork) {
  config_.set_bool("UseParallelGC", false);
  config_.set_bool("UseConcMarkSweepGC", true);
  config_.set_bool("UseParNewGC", true);
  config_.set_int("MaxHeapSize", 192 * kMiB);
  WorkloadSpec w = quick_workload();
  w.total_work = 4000;
  w.alloc_rate = 800 * 1024;
  w.mid_lived_frac = 0.15;
  w.short_lived_frac = 0.7;
  w.mid_lifetime_alloc = 48.0 * 1024 * 1024;
  w.long_lived_bytes = 40.0 * 1024 * 1024;
  const RunResult r = sim_.run(config_, w, 1);
  ASSERT_FALSE(r.crashed) << r.crash_reason;
  EXPECT_GT(r.concurrent_cycles, 0);
  EXPECT_GT(r.concurrent_gc_cpu, SimTime::zero());
}

// Property sweep: every suite workload completes under every collector
// (the default 1 GiB heap holds every suite live set).
struct SweepCase {
  std::string workload;
  GcAlgorithm algorithm;
};

class CollectorWorkloadSweep
    : public ::testing::TestWithParam<std::tuple<std::string, GcAlgorithm>> {};

TEST_P(CollectorWorkloadSweep, CompletesWithoutCrash) {
  const auto& [name, algorithm] = GetParam();
  Configuration c(FlagRegistry::hotspot());
  c.set_bool("UseParallelGC", algorithm == GcAlgorithm::kParallel);
  c.set_bool("UseSerialGC", algorithm == GcAlgorithm::kSerial);
  c.set_bool("UseConcMarkSweepGC", algorithm == GcAlgorithm::kCms);
  c.set_bool("UseParNewGC", algorithm == GcAlgorithm::kCms);
  c.set_bool("UseG1GC", algorithm == GcAlgorithm::kG1);

  JvmSimulator sim;
  const WorkloadSpec& w = find_workload(name);
  const RunResult r = sim.run(c, w, 9);
  EXPECT_FALSE(r.crashed) << name << "/" << to_string(algorithm) << ": "
                          << r.crash_reason;
  EXPECT_NEAR(r.work_done, w.total_work, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SuitesTimesCollectors, CollectorWorkloadSweep,
    ::testing::Combine(::testing::Values("startup.compress", "startup.serial",
                                         "startup.compiler.compiler", "avrora",
                                         "h2", "lusearch", "jython"),
                       ::testing::Values(GcAlgorithm::kSerial,
                                         GcAlgorithm::kParallel,
                                         GcAlgorithm::kCms, GcAlgorithm::kG1)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name + "_" + to_string(std::get<1>(info.param));
    });

// Pins the simulator's output bit for bit. Every RunResult field of every
// suite workload under the default VM, the JIT edge cases and a fixed set of
// random configurations is folded into one digest, so a change to the
// stepping code that moves any result by one ulp fails here. Regenerate the
// constant only for an intended model change, and say so in CHANGES.md.
std::uint64_t fold_result(std::uint64_t h, const RunResult& r) {
  const auto time = [](SimTime t) {
    return static_cast<std::uint64_t>(t.as_micros());
  };
  const auto count = [](std::int64_t n) { return static_cast<std::uint64_t>(n); };
  for (const std::uint64_t field :
       {std::uint64_t{r.crashed}, fnv1a64(r.crash_reason), time(r.total_time),
        time(r.startup_time), std::bit_cast<std::uint64_t>(r.work_done),
        count(r.young_gc_count), count(r.full_gc_count),
        count(r.concurrent_cycles), count(r.concurrent_mode_failures),
        count(r.promotion_failures), time(r.gc_pause_total),
        time(r.gc_pause_max), time(r.concurrent_gc_cpu),
        count(r.peak_heap_used), count(r.heap_capacity), count(r.compiles_c1),
        count(r.compiles_c2), time(r.compile_cpu), count(r.code_cache_used),
        std::uint64_t{r.code_cache_disabled}, count(r.code_cache_flushes),
        time(r.lock_overhead), time(r.safepoint_overhead),
        time(r.class_load_time)}) {
    h = mix64(h, field);
  }
  return h;
}

TEST(SimulatorDigestTest, RunResultsBitIdenticalAcrossSuites) {
  constexpr std::uint64_t kExpectedDigest = 0x4712c44c3e7e0f57ULL;
  constexpr int kRandomConfigs = 36;

  const FlagRegistry& registry = FlagRegistry::hotspot();
  const auto edited = [&](auto edit) {
    Configuration c(registry);
    edit(c);
    EXPECT_TRUE(first_fatal(c).empty()) << first_fatal(c);
    return decode_params(c);
  };
  std::vector<JvmParams> cases;
  cases.push_back(edited([](Configuration&) {}));
  for (const bool flushing : {true, false}) {
    JvmParams tiny = cases.front();
    tiny.jit.code_cache_capacity = 512 * 1024;
    tiny.jit.code_cache_flushing = flushing;
    cases.push_back(tiny);
  }
  cases.push_back(edited([](Configuration& c) { c.set_enum("ExecutionMode", "comp"); }));
  cases.push_back(edited([](Configuration& c) { c.set_enum("ExecutionMode", "int"); }));
  cases.push_back(edited([](Configuration& c) { c.set_enum("VMMode", "client"); }));
  cases.push_back(edited([](Configuration& c) { c.set_int("TieredStopAtLevel", 1); }));
  cases.push_back(
      edited([](Configuration& c) { c.set_bool("TieredCompilation", false); }));
  cases.push_back(
      edited([](Configuration& c) { c.set_bool("BackgroundCompilation", false); }));
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(2015);
  for (int i = 0; i < kRandomConfigs; ++i) {
    const Configuration c = space.random_config(rng);
    ASSERT_TRUE(first_fatal(c).empty()) << first_fatal(c);
    cases.push_back(decode_params(c));
  }

  std::vector<const WorkloadSpec*> workloads;
  for (const WorkloadSpec& w : specjvm2008_startup()) workloads.push_back(&w);
  for (const WorkloadSpec& w : dacapo()) workloads.push_back(&w);

  const JvmSimulator sim;
  std::uint64_t digest = 0;
  bool flushed = false;
  bool disabled = false;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      const RunResult r = sim.run(cases[c], *workloads[w], mix64(c, w));
      flushed = flushed || r.code_cache_flushes > 0;
      disabled = disabled || r.code_cache_disabled;
      digest = fold_result(digest, r);
    }
  }
  // The edge cases must actually reach the cache's flush and disable paths.
  EXPECT_TRUE(flushed);
  EXPECT_TRUE(disabled);
  EXPECT_EQ(digest, kExpectedDigest) << "digest 0x" << std::hex << digest;
}

// run(decode(config), ...) is the harness's decode-once path; it must match
// run(config, ...) bit for bit, refused starts included.
TEST(SimulatorDecodeTest, DecodedRunMatchesConfigurationRun) {
  const FlagRegistry& registry = FlagRegistry::hotspot();
  std::vector<Configuration> configs;
  configs.emplace_back(registry);
  Configuration tiny_young(registry);
  tiny_young.set_int("MaxNewSize", 512 * kKiB);
  configs.push_back(tiny_young);
  const SearchSpace space(FlagHierarchy::hotspot());
  Rng rng(15);
  for (int i = 0; i < 8; ++i) configs.push_back(space.random_config(rng));
  Configuration refused(registry);
  refused.set_int("InitialHeapSize", 2 * kGiB);
  configs.push_back(refused);

  const JvmSimulator sim;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const JvmSimulator::Decoded decoded = JvmSimulator::decode(configs[c]);
    EXPECT_EQ(decoded.fatal, first_fatal(configs[c]));
    for (const char* workload : {"startup.compress", "h2"}) {
      const WorkloadSpec& w = find_workload(workload);
      const RunResult direct = sim.run(configs[c], w, mix64(c, 3));
      const RunResult via_decoded = sim.run(decoded, w, mix64(c, 3));
      EXPECT_EQ(fold_result(0, via_decoded), fold_result(0, direct))
          << "config " << c << " on " << workload;
    }
  }

  const JvmSimulator::Decoded decoded = JvmSimulator::decode(refused);
  ASSERT_FALSE(decoded.fatal.empty());
  const RunResult r = sim.run(decoded, find_workload("h2"), 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_EQ(r.crash_reason, "VM failed to start: " + decoded.fatal);
  EXPECT_EQ(r.total_time, SimTime::seconds(1.0));
}

}  // namespace
}  // namespace jat
