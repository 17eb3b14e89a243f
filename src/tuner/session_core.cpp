#include "tuner/session_core.hpp"

#include <algorithm>

#include "flags/parse.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "tuner/scheduler.hpp"
#include "tuner/warm_start.hpp"

namespace jat {

JournalMeta session_journal_meta(const SessionOptions& options,
                                 std::string kind, std::string workload,
                                 const std::string& tuner_name) {
  JournalMeta meta;
  meta.objective =
      options.objective ? options.objective->id() : std::string("run_time");
  meta.version = SessionJournal::version_for_objective(meta.objective);
  meta.kind = std::move(kind);
  meta.workload = std::move(workload);
  meta.tuner = tuner_name;
  meta.seed = options.seed;
  meta.budget = options.budget;
  meta.repetitions = options.repetitions;
  meta.inflight = options.inflight;
  meta.eval_threads = options.eval_threads;
  meta.per_run_overhead_s = options.per_run_overhead_s;
  meta.racing_factor = options.racing_factor;
  meta.adaptive = options.measurement.adaptive;
  meta.min_reps = options.measurement.min_reps;
  meta.max_reps = options.measurement.max_reps;
  meta.ci_rel = options.measurement.ci_rel;
  meta.race_p = options.measurement.race_p;
  meta.space_fingerprint =
      space_fingerprint(FlagHierarchy::hotspot().registry());
  meta.resilient = options.resilient;
  meta.fault_fingerprint = fault_options_fingerprint(options.fault_injection);
  return meta;
}

RunnerOptions session_runner_options(const SessionOptions& options) {
  RunnerOptions runner;
  runner.repetitions = options.repetitions;
  runner.seed = options.seed;
  runner.per_run_overhead_s = options.per_run_overhead_s;
  runner.racing_factor = options.racing_factor;
  runner.policy = options.measurement;
  runner.objective = options.objective;
  runner.store = options.store;
  runner.store_reads = options.store_reads;
  return runner;
}

RunnerOptions validation_runner_options(const SessionOptions& options) {
  RunnerOptions runner = session_runner_options(options);
  runner.seed = mix64(options.seed, fnv1a64("validation"));
  runner.repetitions = std::max(5, options.repetitions);
  runner.racing_factor = 0.0;
  runner.policy = MeasurementPolicyOptions{};
  runner.store = nullptr;
  return runner;
}

std::optional<Configuration> stored_config(const FlagRegistry& registry,
                                           const StoreRecord& record) {
  try {
    Configuration config = parse_command_line(registry, record.command_line);
    if (config.fingerprint() == record.key.config_fingerprint) return config;
    log_warn() << "store warm-start: stored command line for "
               << fingerprint_hex(record.key.config_fingerprint)
               << " parses to a different configuration; skipped";
  } catch (const Error& e) {
    log_warn() << "store warm-start: cannot parse stored config: " << e.what();
  }
  return std::nullopt;
}

SessionCore::SessionCore(const SessionOptions& options, const SearchSpace& space,
                         Evaluator& evaluator, const Objective& objective,
                         const JournalMeta& meta, Rng rng, TraceSink* trace,
                         SessionJournal* journal, bool resuming)
    : options_(options),
      space_(space),
      journal_(journal),
      resuming_(resuming),
      trace_(trace),
      budget_(options.budget),
      db_(std::make_shared<ResultDb>()),
      pool_(options.eval_threads > 0
                ? std::make_unique<ThreadPool>(options.eval_threads)
                : nullptr),
      ctx_(evaluator, budget_, *db_, space, rng, pool_.get(), trace),
      defaults_(space.registry()) {
  // Durability: pin (fresh journal) or validate (resume) the session
  // metadata before anything is measured. Everything a bit-identical replay
  // depends on is checked here; a mismatch is a structured JournalError,
  // not a silent divergence half a budget later.
  if (journal_ != nullptr) {
    if (resuming_) {
      validate_resume_meta(journal_->meta(), meta);
    } else if (journal_->has_meta()) {
      throw JournalError("journal '" + journal_->path() +
                         "' already holds a session; use resume()");
    } else {
      journal_->write_meta(meta);
    }
    if (trace_ != nullptr) {
      trace_->emit(
          TraceEvent("journal_open")
              .with("path", journal_->path())
              .with("mode", resuming_ ? std::string("resume")
                                      : std::string("fresh"))
              .with("records",
                    static_cast<std::int64_t>(journal_->committed().size()))
              .with("dropped",
                    static_cast<std::int64_t>(journal_->dropped_records())));
    }
  }

  db_->set_objective(objective.id());
  ctx_.set_objective(objective);
  ctx_.set_measurement_policy(options_.measurement);
  ctx_.set_journal(journal_);
  ctx_.set_cancellation(options_.cancel);
  if (resuming_) ctx_.set_replay(&journal_->committed());
}

Measurement SessionCore::baseline() {
  ctx_.set_phase("default");
  const bool replayed = ctx_.replaying();
  TuningContext::MeasuredEval base =
      replayed ? ctx_.replay_next(defaults_) : ctx_.measure_only(defaults_);
  const double objective = ctx_.commit(defaults_, base, replayed);
  if (trace_ != nullptr) {
    trace_->emit(TraceEvent("baseline", budget_.spent())
                     .with("objective_ms", objective));
  }
  return std::move(base.measurement);
}

void SessionCore::search(SearchStrategy& strategy,
                         const std::function<WarmSeeds()>& pick_store_seeds) {
  WarmSeeds seeds;
  if (resuming_) {
    for (const JournalEval& rec : journal_->committed()) {
      if (rec.phase != "warm_start") continue;
      seeds.configs.push_back(
          parse_command_line(space_.registry(), rec.command_line));
    }
  } else if (options_.store != nullptr && options_.warm_start > 0) {
    seeds = pick_store_seeds();
  }
  warm_seeds_ = static_cast<std::int64_t>(seeds.configs.size());
  if (trace_ != nullptr && (warm_seeds_ > 0 || options_.warm_start > 0)) {
    trace_->emit(TraceEvent("warm_start", budget_.spent())
                     .with("seeds", warm_seeds_)
                     .with("same_workload", seeds.same_workload)
                     .with("neighbors", seeds.neighbors));
  }
  std::optional<WarmStartStrategy> warm;
  SearchStrategy* active = &strategy;
  if (!seeds.configs.empty()) {
    warm.emplace(strategy, std::move(seeds.configs));
    active = &*warm;
  }

  EvalScheduler scheduler(ctx_, SchedulerOptions{options_.inflight});
  scheduler.run(*active);
  cancelled_ = scheduler.cancelled_run();

  if (resuming_) {
    if (trace_ != nullptr) {
      trace_->emit(
          TraceEvent("journal_replay", budget_.spent())
              .with("replayed", static_cast<std::int64_t>(ctx_.replay_cursor()))
              .with("total", static_cast<std::int64_t>(ctx_.replay_total())));
    }
    if (ctx_.replaying()) {
      log_warn() << "journal " << journal_->path() << ": "
                 << (ctx_.replay_total() - ctx_.replay_cursor())
                 << " committed record(s) were not re-proposed by the "
                    "strategy — wrong journal or changed code?";
    }
  }
}

void SessionCore::close(std::uint64_t best_fingerprint, double best_objective,
                        double default_objective) {
  if (journal_ == nullptr) return;
  if (!cancelled_) {
    journal_->append_end(best_fingerprint, best_objective, default_objective,
                         static_cast<std::int64_t>(db_->size()));
  }
  journal_->flush();
  if (trace_ != nullptr) {
    trace_->emit(TraceEvent("journal_flush", budget_.spent())
                     .with("records", static_cast<std::int64_t>(
                                          journal_->records_written())));
  }
}

}  // namespace jat
