#include "flags/configuration.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/units.hpp"

namespace jat {
namespace {

class ConfigurationTest : public ::testing::Test {
 protected:
  const FlagRegistry& reg_ = FlagRegistry::hotspot();
};

TEST_F(ConfigurationTest, StartsAtDefaults) {
  const Configuration c(reg_);
  EXPECT_EQ(c.size(), reg_.size());
  EXPECT_TRUE(c.changed_flags().empty());
  for (FlagId id = 0; id < reg_.size(); ++id) {
    EXPECT_TRUE(c.is_default(id));
  }
}

// The defaults' fingerprint keys every baseline measurement in journals,
// stores and goldens; pinned so a change to the hashing shows here first.
TEST_F(ConfigurationTest, DefaultsFingerprintIsPinned) {
  EXPECT_EQ(Configuration(reg_).fingerprint(), 0x3190073e9c01758cULL);
}

// fingerprint() is const and memoizes: callers on several threads sharing
// one configuration must all get the same value without a data race (run
// under TSan in CI).
TEST_F(ConfigurationTest, ConcurrentFingerprintCallsAgree) {
  Configuration source(reg_);
  source.set_bool("UseG1GC", true);
  source.set_bool("UseParallelGC", false);
  source.set_int("MaxHeapSize", 2 * kGiB);
  const Configuration shared = source;  // memo still empty
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &seen, t] {
      for (int i = 0; i < 16; ++i) seen[t] = shared.fingerprint();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], source.fingerprint()) << "thread " << t;
  }
}

TEST_F(ConfigurationTest, TypedGetters) {
  const Configuration c(reg_);
  EXPECT_TRUE(c.get_bool("UseParallelGC"));
  EXPECT_EQ(c.get_int("MaxHeapSize"), kGiB);
  EXPECT_EQ(c.get_enum("VMMode"), "server");
}

TEST_F(ConfigurationTest, SetAndGetRoundTrip) {
  Configuration c(reg_);
  c.set_bool("UseG1GC", true);
  c.set_int("MaxHeapSize", 2 * kGiB);
  c.set_enum("ExecutionMode", "comp");
  EXPECT_TRUE(c.get_bool("UseG1GC"));
  EXPECT_EQ(c.get_int("MaxHeapSize"), 2 * kGiB);
  EXPECT_EQ(c.get_enum("ExecutionMode"), "comp");
}

TEST_F(ConfigurationTest, SetOutOfDomainThrows) {
  Configuration c(reg_);
  EXPECT_THROW(c.set_int("MaxTenuringThreshold", 99), FlagError);
  EXPECT_THROW(c.set_int("MaxHeapSize", -5), FlagError);
  EXPECT_THROW(c.set_enum("VMMode", "turbo"), FlagError);
  EXPECT_THROW(c.set_bool("MaxHeapSize", true), FlagError);
}

TEST_F(ConfigurationTest, UnknownFlagThrows) {
  Configuration c(reg_);
  EXPECT_THROW(c.set_bool("NoSuchFlag", true), FlagError);
  EXPECT_THROW((void)c.get("NoSuchFlag"), FlagError);
}

TEST_F(ConfigurationTest, ChangedFlagsTracksExactlyTheChanges) {
  Configuration c(reg_);
  c.set_bool("UseG1GC", true);
  c.set_int("NewRatio", 4);
  const auto changed = c.changed_flags();
  EXPECT_EQ(changed.size(), 2u);
  // Setting a flag back to default removes it from the diff.
  c.set_int("NewRatio", reg_.spec(reg_.require("NewRatio")).default_value.as_int());
  EXPECT_EQ(c.changed_flags().size(), 1u);
}

TEST_F(ConfigurationTest, RenderFlagUsesHotspotSyntax) {
  Configuration c(reg_);
  c.set_bool("UseG1GC", true);
  c.set_bool("UseParallelGC", false);
  c.set_int("MaxHeapSize", 512 * kMiB);
  c.set_int("NewRatio", 3);
  EXPECT_EQ(c.render_flag(reg_.require("UseG1GC")), "-XX:+UseG1GC");
  EXPECT_EQ(c.render_flag(reg_.require("UseParallelGC")), "-XX:-UseParallelGC");
  EXPECT_EQ(c.render_flag(reg_.require("MaxHeapSize")), "-XX:MaxHeapSize=512m");
  EXPECT_EQ(c.render_flag(reg_.require("NewRatio")), "-XX:NewRatio=3");
}

TEST_F(ConfigurationTest, CommandLineListsOnlyNonDefaults) {
  Configuration c(reg_);
  EXPECT_EQ(c.render_command_line(), "");
  c.set_bool("UseSerialGC", true);
  c.set_bool("UseParallelGC", false);
  const std::string cli = c.render_command_line();
  EXPECT_NE(cli.find("-XX:+UseSerialGC"), std::string::npos);
  EXPECT_NE(cli.find("-XX:-UseParallelGC"), std::string::npos);
  EXPECT_EQ(cli.find("MaxHeapSize"), std::string::npos);
}

TEST_F(ConfigurationTest, EqualityAndFingerprint) {
  Configuration a(reg_);
  Configuration b(reg_);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  a.set_int("MaxHeapSize", 2 * kGiB);
  EXPECT_NE(a, b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  b.set_int("MaxHeapSize", 2 * kGiB);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST_F(ConfigurationTest, FingerprintInsensitiveToAssignmentOrder) {
  Configuration a(reg_);
  Configuration b(reg_);
  a.set_int("MaxHeapSize", 2 * kGiB);
  a.set_bool("UseG1GC", true);
  b.set_bool("UseG1GC", true);
  b.set_int("MaxHeapSize", 2 * kGiB);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST_F(ConfigurationTest, FingerprintSensitiveToWhichFlagHoldsValue) {
  Configuration a(reg_);
  Configuration b(reg_);
  a.set_bool("UseG1GC", true);
  b.set_bool("UseSerialGC", true);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST_F(ConfigurationTest, CopySemantics) {
  Configuration a(reg_);
  a.set_int("NewRatio", 5);
  Configuration b = a;
  b.set_int("NewRatio", 7);
  EXPECT_EQ(a.get_int("NewRatio"), 5);
  EXPECT_EQ(b.get_int("NewRatio"), 7);
}

}  // namespace
}  // namespace jat
