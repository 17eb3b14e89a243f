#include "tuner/suite_session.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "tuner/session_core.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/units.hpp"

namespace jat {
namespace {

/// Warm-start transfer, suite flavour: round-robin over the members' store
/// namespaces (rank 0 of every member, then rank 1, ...) up to k seeds, so
/// no single workload's history dominates the seed set.
SessionCore::WarmSeeds pick_suite_store_seeds(
    const ResultStore& store, const FlagRegistry& registry,
    const std::vector<WorkloadSpec>& workloads, const std::string& objective_id,
    std::size_t k) {
  const std::uint64_t space_fp = space_fingerprint(registry);
  SessionCore::WarmSeeds seeds;
  std::set<std::uint64_t> seen{Configuration(registry).fingerprint()};
  for (std::size_t rank = 0; rank < k && seeds.configs.size() < k; ++rank) {
    for (const WorkloadSpec& workload : workloads) {
      if (seeds.configs.size() >= k) break;
      const auto records = store.top_k(space_fp, workload_fingerprint(workload),
                                       objective_id, rank + 1);
      if (records.size() <= rank) continue;
      const StoreRecord* rec = records[rank];
      if (!seen.insert(rec->key.config_fingerprint).second) continue;
      if (auto config = stored_config(registry, *rec)) {
        seeds.configs.push_back(std::move(*config));
      }
    }
  }
  return seeds;
}

}  // namespace

SuiteRunner::SuiteRunner(const JvmSimulator& simulator,
                         std::vector<WorkloadSpec> workloads,
                         RunnerOptions options)
    : objective_(options.objective) {
  if (workloads.empty()) throw TunerError("SuiteRunner: empty suite");
  const Objective& obj = objective_ ? *objective_ : run_time_objective();
  if (!obj.positive_scale()) {
    throw ObjectiveError(
        "SuiteRunner: objective '" + obj.id() +
        "' has no positive scale; the suite score is a geometric mean of "
        "value/default ratios and needs positive member values (tune suite "
        "members under run_time or another positive-scale objective)");
  }
  runners_.reserve(workloads.size());
  for (auto& workload : workloads) {
    runners_.push_back(
        std::make_unique<BenchmarkRunner>(simulator, std::move(workload), options));
  }
  const Configuration defaults(FlagRegistry::hotspot());
  default_ms_.reserve(runners_.size());
  for (auto& runner : runners_) {
    const Measurement m = runner->measure(defaults);
    if (!m.valid()) {
      throw TunerError("SuiteRunner: default configuration fails on " +
                       runner->workload().name);
    }
    const double value = m.objective(obj);
    if (!(value > 0) || !std::isfinite(value)) {
      throw ObjectiveError("SuiteRunner: default " + obj.id() + " on " +
                           runner->workload().name + " is " +
                           std::to_string(value) +
                           "; the suite score normalises by it and needs a "
                           "positive, finite default");
    }
    default_ms_.push_back(value);
    // Abandon candidates far slower than this member's baseline. The limit
    // is on wall-clock run time (summary.mean), never the objective scalar.
    runner->set_time_limit(SimTime::millis(
        static_cast<std::int64_t>(m.summary.mean * 5.0)));
  }
}

void SuiteRunner::set_cancellation(const CancellationToken* token) {
  for (auto& runner : runners_) runner->set_cancellation(token);
}

std::int64_t SuiteRunner::store_hits() const {
  std::int64_t total = 0;
  for (const auto& runner : runners_) total += runner->store_hits();
  return total;
}

std::int64_t SuiteRunner::store_appends() const {
  std::int64_t total = 0;
  for (const auto& runner : runners_) total += runner->store_appends();
  return total;
}

std::vector<double> SuiteRunner::measure_each(const Configuration& config,
                                              BudgetClock* budget) {
  const Objective& obj = objective_ ? *objective_ : run_time_objective();
  std::vector<double> out;
  out.reserve(runners_.size());
  for (auto& runner : runners_) {
    out.push_back(runner->measure(config, budget).objective(obj));
  }
  return out;
}

Measurement SuiteRunner::measure(const Configuration& config,
                                 BudgetClock* budget,
                                 const EvalHints& /*hints*/) {
  Measurement m;
  m.config_fingerprint = config.fingerprint();
  double log_sum = 0;
  const auto times = measure_each(config, budget);
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (!std::isfinite(times[i])) {
      m.crashed = true;
      m.crash_reason = "crashed on " + runners_[i]->workload().name;
      return m;
    }
    log_sum += std::log(times[i] / default_ms_[i]);
  }
  const double score =
      1000.0 * std::exp(log_sum / static_cast<double>(times.size()));
  m.times_ms = {score};
  m.summary = summarize(m.times_ms);
  return m;
}

SuiteTuningSession::SuiteTuningSession(const JvmSimulator& simulator,
                                       std::vector<WorkloadSpec> workloads,
                                       SessionOptions options)
    : simulator_(&simulator), workloads_(std::move(workloads)), options_(options) {
  const std::pair<bool, const char*> unsupported[] = {
      {options_.racing_factor != 0.0, "racing_factor"},
      {options_.resilient, "resilient"},
      {options_.fault_injection.any(), "fault_injection"},
      {options_.trace != nullptr, "trace"}};
  for (const auto& [set, option] : unsupported) {
    if (!set) continue;
    throw TunerError(std::string("SuiteTuningSession: option '") + option +
                     "' is not supported for suite sessions");
  }
}

SuiteOutcome SuiteTuningSession::run(SearchStrategy& strategy) {
  return run_internal(strategy, options_.journal, /*resuming=*/false);
}

SuiteOutcome SuiteTuningSession::resume(SessionJournal& journal,
                                        SearchStrategy& strategy) {
  return run_internal(strategy, &journal, /*resuming=*/true);
}

JournalMeta SuiteTuningSession::journal_meta(
    const std::string& tuner_name) const {
  std::string members;
  for (const WorkloadSpec& workload : workloads_) {
    if (!members.empty()) members += ',';
    members += workload.name;
  }
  return session_journal_meta(options_, "suite", std::move(members),
                              tuner_name);
}

SuiteOutcome SuiteTuningSession::run_internal(SearchStrategy& strategy,
                                              SessionJournal* journal,
                                              bool resuming) {
  // Members converge individually under the policy (CI stop only — no
  // incumbent hints cross the suite boundary; see SuiteRunner::measure) and
  // are scored with the session objective. The store tier lives in the
  // member runners: each workload's measurements are answered from (and
  // published to) its own store namespace, so a suite session shares
  // results with the single-workload sessions that tuned its members.
  SuiteRunner runner(*simulator_, workloads_, session_runner_options(options_));
  runner.set_cancellation(options_.cancel);

  const SearchSpace space(FlagHierarchy::hotspot());

  if (options_.store != nullptr) {
    const std::uint64_t space_fp = space_fingerprint(space.registry());
    for (const WorkloadSpec& workload : workloads_) {
      options_.store->put_workload(space_fp, workload);
    }
  }

  // Optional out-of-process execution: the whole SuiteRunner (its member
  // runners, baselines, and time limits are already set up above, so the
  // forked workers inherit them copy-on-write) moves into the worker pool.
  Evaluator* evaluator = &runner;
  std::unique_ptr<SandboxedEvaluator> sandbox;
  if (options_.sandbox) {
    sandbox = std::make_unique<SandboxedEvaluator>(runner, space.registry(),
                                                   options_.sandbox_options);
    evaluator = sandbox.get();
  }

  // The suite-level context scores on run_time semantics: the suite
  // measurement is already a scalar score (one "repetition" whose value *is*
  // the objective), so adaptive racing and top-up never engage here.
  SessionCore core(options_, space, *evaluator, run_time_objective(),
                   journal_meta(strategy.name()),
                   Rng(mix64(options_.seed, fnv1a64("suite:" + strategy.name()))),
                   /*trace=*/nullptr, journal, resuming);
  core.baseline();  // score 1000 by construction
  core.search(strategy, [&] {
    return pick_suite_store_seeds(
        *options_.store, space.registry(), workloads_,
        options_.objective ? options_.objective->id() : std::string("run_time"),
        static_cast<std::size_t>(options_.warm_start));
  });

  if (sandbox) sandbox->shutdown();

  // Validation pass with fresh seeds.
  SuiteRunner validator(*simulator_, workloads_,
                        validation_runner_options(options_));

  Configuration best_config = core.context().best_config();
  const auto tuned_each = validator.measure_each(best_config, nullptr);

  SuiteOutcome outcome{.tuner_name = strategy.name(),
                       .best_config = best_config,
                       .geomean_ratio = 1.0,
                       .per_workload_improvement = {},
                       .workload_names = {},
                       .evaluations = static_cast<std::int64_t>(core.db()->size()),
                       .store_hits = runner.store_hits(),
                       .store_appends = runner.store_appends(),
                       .warm_seeds = core.warm_seeds(),
                       .charged_evaluations = core.context().charged_evaluations(),
                       .budget_spent = core.budget().spent(),
                       .db = core.db(),
                       .cancelled = core.cancelled()};

  double log_sum = 0;
  bool any_crash = false;
  for (std::size_t i = 0; i < tuned_each.size(); ++i) {
    outcome.workload_names.push_back(validator.workload(i).name);
    const double base = validator.default_times_ms()[i];
    if (!std::isfinite(tuned_each[i])) {
      any_crash = true;
      outcome.per_workload_improvement.push_back(0.0);
      continue;
    }
    outcome.per_workload_improvement.push_back(1.0 - tuned_each[i] / base);
    log_sum += std::log(tuned_each[i] / base);
  }
  if (any_crash) {
    // The general configuration must run everywhere; fall back to defaults.
    outcome.best_config = core.defaults();
    outcome.geomean_ratio = 1.0;
    std::fill(outcome.per_workload_improvement.begin(),
              outcome.per_workload_improvement.end(), 0.0);
  } else {
    outcome.geomean_ratio =
        std::exp(log_sum / static_cast<double>(tuned_each.size()));
    if (outcome.geomean_ratio > 1.0) {
      outcome.best_config = core.defaults();
      outcome.geomean_ratio = 1.0;
      std::fill(outcome.per_workload_improvement.begin(),
                outcome.per_workload_improvement.end(), 0.0);
    }
  }

  core.close(outcome.best_config.fingerprint(),
             outcome.geomean_ratio * 1000.0, 1000.0);

  log_info() << "suite tuning with " << strategy.name() << ": geomean improvement "
             << format_percent(outcome.improvement_frac()) << " over "
             << workloads_.size() << " workloads";
  return outcome;
}

}  // namespace jat
