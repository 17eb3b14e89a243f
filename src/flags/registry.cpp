#include "flags/registry.hpp"

#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace jat {

FlagRegistry::FlagRegistry(std::vector<FlagSpec> specs) : specs_(std::move(specs)) {
  by_name_.reserve(specs_.size());
  default_hashes_.reserve(specs_.size());
  for (FlagId id = 0; id < specs_.size(); ++id) {
    const auto& spec = specs_[id];
    if (spec.name.empty()) throw FlagError("FlagRegistry: unnamed flag");
    if (!spec.in_domain(spec.default_value)) {
      throw FlagError("FlagRegistry: default out of domain for " + spec.name);
    }
    const auto [it, inserted] = by_name_.emplace(spec.name, id);
    if (!inserted) throw FlagError("FlagRegistry: duplicate flag " + spec.name);
    default_hashes_.push_back(
        fnv1a64(spec.default_value.render(spec.type == FlagType::kSize)));
  }
}

FlagId FlagRegistry::find(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kInvalidFlag : it->second;
}

FlagId FlagRegistry::require(std::string_view name) const {
  const FlagId id = find(name);
  if (id == kInvalidFlag) {
    throw FlagError("unknown flag: " + std::string(name));
  }
  return id;
}

std::vector<FlagId> FlagRegistry::by_subsystem(Subsystem subsystem) const {
  std::vector<FlagId> out;
  for (FlagId id = 0; id < specs_.size(); ++id) {
    if (specs_[id].subsystem == subsystem) out.push_back(id);
  }
  return out;
}

std::vector<FlagId> FlagRegistry::impactful() const {
  std::vector<FlagId> out;
  for (FlagId id = 0; id < specs_.size(); ++id) {
    if (specs_[id].impact > 0.0) out.push_back(id);
  }
  return out;
}

double FlagRegistry::log10_space_size(const std::vector<FlagId>& ids) const {
  double log_product = 0.0;
  for (FlagId id : ids) log_product += std::log10(spec(id).domain_cardinality());
  return log_product;
}

double FlagRegistry::log10_space_size_all() const {
  double log_product = 0.0;
  for (const auto& spec : specs_) log_product += std::log10(spec.domain_cardinality());
  return log_product;
}

}  // namespace jat
