#include "flags/configuration.hpp"

#include <bit>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace jat {

namespace {

/// One configuration, one key: -0.0 == 0.0, so a stored -0.0 becomes 0.0,
/// which keeps operator== and fingerprint() (which hashes the "-0" / "0"
/// renderings) in agreement.
FlagValue canonical(FlagValue value) {
  if (value.is_double() && value.as_double() == 0.0) return FlagValue(0.0);
  return value;
}

}  // namespace

Configuration::Configuration(const FlagRegistry& registry) : registry_(&registry) {
  values_.reserve(registry.size());
  for (FlagId id = 0; id < registry.size(); ++id) {
    values_.push_back(canonical(registry.spec(id).default_value));
  }
}

Configuration::Configuration(const Configuration& other)
    : registry_(other.registry_),
      values_(other.values_),
      fingerprint_(other.fingerprint_.load(std::memory_order_relaxed)) {}

Configuration::Configuration(Configuration&& other) noexcept
    : registry_(other.registry_),
      values_(std::move(other.values_)),
      fingerprint_(other.fingerprint_.exchange(0, std::memory_order_relaxed)) {}

Configuration& Configuration::operator=(const Configuration& other) {
  registry_ = other.registry_;
  values_ = other.values_;
  fingerprint_.store(other.fingerprint_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  return *this;
}

Configuration& Configuration::operator=(Configuration&& other) noexcept {
  registry_ = other.registry_;
  values_ = std::move(other.values_);
  fingerprint_.store(other.fingerprint_.exchange(0, std::memory_order_relaxed),
                     std::memory_order_relaxed);
  return *this;
}

const FlagValue& Configuration::get(FlagId id) const { return values_.at(id); }

const FlagValue& Configuration::get(std::string_view name) const {
  return get(registry_->require(name));
}

bool Configuration::get_bool(std::string_view name) const {
  return get(name).as_bool();
}

std::int64_t Configuration::get_int(std::string_view name) const {
  return get(name).as_int();
}

double Configuration::get_double(std::string_view name) const {
  return get(name).as_double();
}

const std::string& Configuration::get_enum(std::string_view name) const {
  return get(name).as_string();
}

void Configuration::set(FlagId id, FlagValue value) {
  const FlagSpec& spec = registry_->spec(id);
  if (!spec.in_domain(value)) {
    throw FlagError("Configuration::set: value " + value.render() +
                    " out of domain for " + spec.name);
  }
  values_[id] = canonical(std::move(value));
  fingerprint_.store(0, std::memory_order_relaxed);
}

void Configuration::set(std::string_view name, FlagValue value) {
  set(registry_->require(name), std::move(value));
}

void Configuration::set_bool(std::string_view name, bool value) {
  set(name, FlagValue(value));
}

void Configuration::set_int(std::string_view name, std::int64_t value) {
  set(name, FlagValue(value));
}

void Configuration::set_double(std::string_view name, double value) {
  set(name, FlagValue(value));
}

void Configuration::set_enum(std::string_view name, std::string value) {
  set(name, FlagValue(std::move(value)));
}

bool Configuration::is_default(FlagId id) const {
  return values_[id] == registry_->spec(id).default_value;
}

std::vector<FlagId> Configuration::changed_flags() const {
  std::vector<FlagId> out;
  for (FlagId id = 0; id < values_.size(); ++id) {
    if (!is_default(id)) out.push_back(id);
  }
  return out;
}

std::string Configuration::render_flag(FlagId id) const {
  const FlagSpec& spec = registry_->spec(id);
  const FlagValue& value = values_[id];
  if (spec.type == FlagType::kBool) {
    return std::string("-XX:") + (value.as_bool() ? "+" : "-") + spec.name;
  }
  return "-XX:" + spec.name + "=" + value.render(spec.type == FlagType::kSize);
}

std::string Configuration::render_command_line() const {
  std::string out;
  for (FlagId id : changed_flags()) {
    if (!out.empty()) out += ' ';
    out += render_flag(id);
  }
  return out;
}

std::uint64_t Configuration::fingerprint() const {
  std::uint64_t h = fingerprint_.load(std::memory_order_relaxed);
  if (h == 0) {
    h = compute_fingerprint();
    fingerprint_.store(h, std::memory_order_relaxed);
  }
  return h;
}

namespace {

/// Equal values that also render alike: doubles compare by bit pattern,
/// since -0.0 == 0.0 but the two render as "-0" and "0".
bool same_rendering(const FlagValue& a, const FlagValue& b) {
  if (a.is_double() && b.is_double()) {
    return std::bit_cast<std::uint64_t>(a.as_double()) ==
           std::bit_cast<std::uint64_t>(b.as_double());
  }
  return a == b;
}

}  // namespace

std::uint64_t Configuration::compute_fingerprint() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (FlagId id = 0; id < values_.size(); ++id) {
    const FlagSpec& spec = registry_->spec(id);
    const std::uint64_t value_hash =
        same_rendering(values_[id], spec.default_value)
            ? registry_->default_value_hash(id)
            : fnv1a64(values_[id].render(spec.type == FlagType::kSize));
    h = mix64(h, mix64(id, value_hash));
  }
  return h;
}

}  // namespace jat
