// The flag registry: the full catalog of tunable HotSpot flags.
//
// Mirrors `java -XX:+PrintFlagsFinal`: one FlagSpec per flag, looked up by
// name or by dense index (FlagId). The catalog itself lives in catalog.cpp
// and contains 600+ real HotSpot flag definitions (JDK 7/8 era, matching
// the paper). Registry instances are immutable after construction and
// shared by reference throughout the library.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flags/flag_spec.hpp"

namespace jat {

/// Dense index of a flag inside a Registry; stable for the Registry's life.
using FlagId = std::uint32_t;
inline constexpr FlagId kInvalidFlag = UINT32_MAX;

class FlagRegistry {
 public:
  /// Builds a registry from explicit specs (tests use small hand-made ones).
  explicit FlagRegistry(std::vector<FlagSpec> specs);

  /// The full HotSpot catalog (600+ flags). Built once, shared.
  static const FlagRegistry& hotspot();

  std::size_t size() const { return specs_.size(); }
  const FlagSpec& spec(FlagId id) const { return specs_.at(id); }

  /// fnv1a64 of the flag's rendered default value, computed once at
  /// construction; Configuration::fingerprint reuses it for default flags.
  std::uint64_t default_value_hash(FlagId id) const { return default_hashes_[id]; }

  /// Name lookup; kInvalidFlag when absent.
  FlagId find(std::string_view name) const;

  /// Name lookup that throws FlagError when absent (for user-facing paths).
  FlagId require(std::string_view name) const;

  /// All flag ids in a subsystem.
  std::vector<FlagId> by_subsystem(Subsystem subsystem) const;

  /// Ids of flags with impact > 0 (flags the simulator actually reads).
  std::vector<FlagId> impactful() const;

  /// log10 of the cartesian search-space size over the given flags
  /// (product of per-flag domain cardinalities).
  double log10_space_size(const std::vector<FlagId>& ids) const;

  /// log10 of the full (flat) space over every flag.
  double log10_space_size_all() const;

 private:
  std::vector<FlagSpec> specs_;
  std::vector<std::uint64_t> default_hashes_;
  std::unordered_map<std::string, FlagId> by_name_;
};

}  // namespace jat
