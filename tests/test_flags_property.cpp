// Property-based round-trip sweep over the flag layer: for ANY valid
// configuration, rendering to HotSpot syntax and parsing back must
// reproduce the configuration bit for bit, and the fingerprint must not
// depend on the order flags are applied. 10k seeded random configurations
// run in ctest; every failure message carries the case seed, so a red run
// is reproducible with
//   JAT_FLAGS_SEED=<seed> ctest -R FlagsProperty
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "flags/configuration.hpp"
#include "flags/parse.hpp"
#include "flags/registry.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace jat {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("JAT_FLAGS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x6a61745f666c6167ULL;  // "jat_flag"
}

/// Uniform double in [0, 1) from the top 53 bits of one draw.
double next_unit(Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

/// A uniformly random in-domain value for one flag. Integer domains
/// respect the step quantisation; doubles cover the closed range endpoints
/// often enough to exercise boundary rendering.
FlagValue random_value(const FlagSpec& spec, Rng& rng) {
  switch (spec.type) {
    case FlagType::kBool:
      return FlagValue(rng.next_below(2) == 1);
    case FlagType::kInt:
    case FlagType::kSize: {
      const IntDomain& d = spec.int_domain;
      const std::int64_t step = d.step > 0 ? d.step : 1;
      const std::uint64_t steps =
          static_cast<std::uint64_t>((d.hi - d.lo) / step) + 1;
      return FlagValue(d.lo +
                       static_cast<std::int64_t>(rng.next_below(steps)) * step);
    }
    case FlagType::kDouble: {
      const DoubleDomain& d = spec.double_domain;
      // 1-in-8: pin to an endpoint; otherwise uniform in the range.
      switch (rng.next_below(8)) {
        case 0: return FlagValue(d.lo);
        case 1: return FlagValue(d.hi);
        default: return FlagValue(d.lo + (d.hi - d.lo) * next_unit(rng));
      }
    }
    case FlagType::kEnum:
      return FlagValue(spec.choices[rng.next_below(spec.choices.size())]);
  }
  return FlagValue(false);
}

/// Random valid configuration: registry defaults with 1..12 flags moved to
/// random in-domain values (the tuner's own output shape — a handful of
/// non-default flags over a 600-flag catalog).
Configuration random_config(const FlagRegistry& registry, Rng& rng) {
  Configuration config(registry);
  const std::size_t changes = rng.next_below(12) + 1;
  for (std::size_t i = 0; i < changes; ++i) {
    const FlagId id = static_cast<FlagId>(rng.next_below(registry.size()));
    config.set(id, random_value(registry.spec(id), rng));
  }
  return config;
}

class FlagsProperty : public ::testing::Test {
 protected:
  const FlagRegistry& reg_ = FlagRegistry::hotspot();
};

// The core property, 10k cases: parse(render(cfg)) == cfg bit for bit —
// values, fingerprint, and a second render all agree. This is what lets
// tuned configurations survive files, shells, journals, and the store.
TEST_F(FlagsProperty, RenderParseRoundTripsTenThousandRandomConfigs) {
  constexpr int kCases = 10000;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed = mix64(base_seed(), static_cast<std::uint64_t>(i));
    Rng rng(seed);
    const Configuration config = random_config(reg_, rng);
    const std::string rendered = config.render_command_line();
    const Configuration reparsed = parse_command_line(reg_, rendered);
    ASSERT_TRUE(reparsed == config)
        << "round-trip case " << i << " diverged; replay with seed 0x"
        << std::hex << seed << std::dec << "\n  rendered: " << rendered;
    ASSERT_EQ(reparsed.fingerprint(), config.fingerprint())
        << "fingerprint moved under round-trip; seed 0x" << std::hex << seed;
    ASSERT_EQ(reparsed.render_command_line(), rendered)
        << "second render differs; seed 0x" << std::hex << seed;
  }
}

// Configuration::fingerprint() is documented order-independent: applying
// the same assignments in any order must land on the same fingerprint and
// the same configuration. (Each canonical -XX token touches exactly one
// flag, so token order is semantically irrelevant; this pins that the
// fingerprint implementation agrees.)
TEST_F(FlagsProperty, FingerprintInvariantUnderFlagReordering) {
  constexpr int kCases = 2000;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0x72656f7264657221ULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    const Configuration config = random_config(reg_, rng);
    std::vector<std::string> tokens =
        tokenize_command_line(config.render_command_line());

    // Fisher-Yates with the case rng: a deterministic shuffle.
    for (std::size_t j = tokens.size(); j > 1; --j) {
      std::swap(tokens[j - 1], tokens[rng.next_below(j)]);
    }
    Configuration shuffled(reg_);
    for (const std::string& token : tokens) apply_option(shuffled, token);

    ASSERT_TRUE(shuffled == config)
        << "reorder case " << i << " diverged; replay with seed 0x"
        << std::hex << seed;
    ASSERT_EQ(shuffled.fingerprint(), config.fingerprint())
        << "fingerprint depends on application order; seed 0x" << std::hex
        << seed;
  }
}

// Sanity bound on the property itself: the fingerprint must MOVE when a
// value changes — otherwise the round-trip fingerprint checks above are
// vacuous.
TEST_F(FlagsProperty, FingerprintSeparatesDistinctConfigurations) {
  constexpr int kCases = 500;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        mix64(base_seed() ^ 0x73657061726174ULL, static_cast<std::uint64_t>(i));
    Rng rng(seed);
    Configuration config = random_config(reg_, rng);
    const std::uint64_t before = config.fingerprint();
    // Flip one boolean flag away from its current value.
    for (;;) {
      const FlagId id = static_cast<FlagId>(rng.next_below(reg_.size()));
      if (reg_.spec(id).type != FlagType::kBool) continue;
      config.set_bool(reg_.spec(id).name, !config.get_bool(reg_.spec(id).name));
      break;
    }
    ASSERT_NE(config.fingerprint(), before) << "seed 0x" << std::hex << seed;
  }
}

/// The fingerprint fold computed from scratch: every flag's rendered value,
/// hashed and folded in id order. Configuration::fingerprint must equal it
/// whatever it memoizes or reuses.
std::uint64_t reference_fingerprint(const Configuration& config) {
  const FlagRegistry& registry = config.registry();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (FlagId id = 0; id < config.size(); ++id) {
    const bool as_size = registry.spec(id).type == FlagType::kSize;
    h = mix64(h, mix64(id, fnv1a64(config.get(id).render(as_size))));
  }
  return h;
}

// The memo and the per-flag default hashes never change a fingerprint: over
// the same 10k random configurations as the round-trip sweep, the memoized
// value equals the reference fold, after a set() (which must drop the
// memo), in a copy and after a move.
TEST_F(FlagsProperty, MemoizedFingerprintMatchesReferenceFold) {
  constexpr int kCases = 10000;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed = mix64(base_seed(), static_cast<std::uint64_t>(i));
    Rng rng(seed);
    Configuration config = random_config(reg_, rng);
    const std::uint64_t before = reference_fingerprint(config);
    ASSERT_EQ(config.fingerprint(), before) << "seed 0x" << std::hex << seed;

    const Configuration copy_before = config;
    const FlagId id = static_cast<FlagId>(rng.next_below(reg_.size()));
    config.set(id, random_value(reg_.spec(id), rng));
    const std::uint64_t after = reference_fingerprint(config);
    ASSERT_EQ(config.fingerprint(), after)
        << "memo survived set() of " << reg_.spec(id).name << "; seed 0x"
        << std::hex << seed;
    ASSERT_EQ(copy_before.fingerprint(), before) << "seed 0x" << std::hex << seed;

    const Configuration copy = config;
    ASSERT_EQ(copy.fingerprint(), after) << "seed 0x" << std::hex << seed;
    const Configuration moved = std::move(config);
    ASSERT_EQ(moved.fingerprint(), after) << "seed 0x" << std::hex << seed;
  }
}

// -0.0 == 0.0, and the two render differently ("-0" vs "0"): set() stores
// -0.0 as 0.0, so equal configurations hash equal and the runner cache and
// the store keep one key for them.
TEST(FingerprintDefaults, NegativeZeroHashesAsTheDefault) {
  FlagSpec ratio;
  ratio.name = "Ratio";
  ratio.type = FlagType::kDouble;
  ratio.default_value = FlagValue(0.0);
  ratio.double_domain = {-1.0, 1.0};
  FlagSpec on;
  on.name = "On";
  on.type = FlagType::kBool;
  on.default_value = FlagValue(true);
  FlagSpec offset = ratio;  // a -0.0 default is stored as 0.0 as well
  offset.name = "Offset";
  offset.default_value = FlagValue(-0.0);
  const FlagRegistry registry({ratio, on, offset});

  const Configuration defaults(registry);
  Configuration negative_zero(registry);
  negative_zero.set("Ratio", FlagValue(-0.0));
  EXPECT_TRUE(negative_zero == defaults);
  EXPECT_EQ(defaults.fingerprint(), reference_fingerprint(defaults));
  EXPECT_EQ(negative_zero.fingerprint(), reference_fingerprint(negative_zero));
  EXPECT_EQ(negative_zero.fingerprint(), defaults.fingerprint());
  EXPECT_EQ(negative_zero.render_command_line(), "");
  EXPECT_FALSE(std::signbit(defaults.get_double("Offset")));
}

// Pinned regression corners for the round-trip property. The sweep above
// is seeded and rotating in CI (JAT_FLAGS_SEED), so corners it has caught
// once are pinned here forever.
TEST_F(FlagsProperty, PinnedRoundTripCorners) {
  // Size values that are NOT multiples of any k/m/g suffix must render as
  // raw byte counts and survive. ThreadStackSize is a kInt measured in
  // kilobytes; MaxHeapSize is a kSize with page-step quantisation — use
  // whatever step the catalog declares to stay in-domain.
  {
    Configuration config(reg_);
    const FlagId id = reg_.require("MaxHeapSize");
    const IntDomain& d = reg_.spec(id).int_domain;
    const std::int64_t step = d.step > 0 ? d.step : 1;
    // One step above the low edge: small, and (for page-sized steps)
    // usually not g/m-divisible once offset from a round default.
    config.set(id, FlagValue(d.lo + step));
    const Configuration reparsed =
        parse_command_line(reg_, config.render_command_line());
    EXPECT_TRUE(reparsed == config) << config.render_command_line();
  }
  // A double that needs more than 6 significant digits: the renderer must
  // widen the precision until strtod inverts it exactly.
  {
    Configuration config(reg_);
    const FlagId id = reg_.require("CMSSmallCoalSurplusPercent");
    const DoubleDomain& d = reg_.spec(id).double_domain;
    const double awkward = d.lo + (d.hi - d.lo) * (1.0 / 3.0);
    config.set(id, FlagValue(awkward));
    const Configuration reparsed =
        parse_command_line(reg_, config.render_command_line());
    EXPECT_TRUE(reparsed == config) << config.render_command_line();
    EXPECT_EQ(reparsed.get_double("CMSSmallCoalSurplusPercent"), awkward);
  }
  // A boolean moved to false when its default is true renders as
  // -XX:-Name (not an assignment) and must still round-trip.
  {
    Configuration config(reg_);
    for (FlagId id = 0; id < reg_.size(); ++id) {
      const FlagSpec& spec = reg_.spec(id);
      if (spec.type == FlagType::kBool && spec.default_value.as_bool()) {
        config.set(id, FlagValue(false));
        break;
      }
    }
    const Configuration reparsed =
        parse_command_line(reg_, config.render_command_line());
    EXPECT_TRUE(reparsed == config) << config.render_command_line();
  }
}

}  // namespace
}  // namespace jat
