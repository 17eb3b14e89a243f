#include "tuner/session.hpp"

#include <set>

#include "tuner/session_core.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace jat {
namespace {

/// Warm-start transfer: the workload's own top-k stored configurations,
/// then the best of up to k structurally similar workloads.
SessionCore::WarmSeeds pick_store_seeds(const ResultStore& store,
                                        const FlagRegistry& registry,
                                        const WorkloadSpec& workload,
                                        const std::string& objective_id,
                                        std::size_t k) {
  const std::uint64_t space_fp = space_fingerprint(registry);
  const std::uint64_t wl_fp = workload_fingerprint(workload);
  SessionCore::WarmSeeds seeds;
  std::vector<const StoreRecord*> picks =
      store.top_k(space_fp, wl_fp, objective_id, k);
  seeds.same_workload = static_cast<std::int64_t>(picks.size());
  const std::vector<const StoreRecord*> transfer = store.neighbors(
      space_fp, wl_fp, workload_features(workload), objective_id, k);
  seeds.neighbors = static_cast<std::int64_t>(transfer.size());
  picks.insert(picks.end(), transfer.begin(), transfer.end());
  // The baseline default is already committed; re-seeding it would only
  // buy a duplicate row and a cache-hit charge.
  std::set<std::uint64_t> seen{Configuration(registry).fingerprint()};
  for (const StoreRecord* rec : picks) {
    if (!seen.insert(rec->key.config_fingerprint).second) continue;
    if (auto config = stored_config(registry, *rec)) {
      seeds.configs.push_back(std::move(*config));
    }
  }
  return seeds;
}

}  // namespace

TuningSession::TuningSession(const JvmSimulator& simulator, WorkloadSpec workload,
                             SessionOptions options)
    : simulator_(&simulator), workload_(std::move(workload)), options_(options) {}

TuningOutcome TuningSession::run(SearchStrategy& strategy) {
  return run_internal(strategy, options_.journal, /*resuming=*/false);
}

TuningOutcome TuningSession::resume(SessionJournal& journal,
                                    SearchStrategy& strategy) {
  return run_internal(strategy, &journal, /*resuming=*/true);
}

JournalMeta TuningSession::journal_meta(const std::string& tuner_name) const {
  return session_journal_meta(options_, "single", workload_.name, tuner_name);
}

TuningOutcome TuningSession::run_internal(SearchStrategy& strategy,
                                          SessionJournal* journal,
                                          bool resuming) {
  const Objective& objective =
      options_.objective ? *options_.objective : run_time_objective();
  BenchmarkRunner runner(*simulator_, workload_,
                         session_runner_options(options_));
  runner.set_cancellation(options_.cancel);
  const SearchSpace space(FlagHierarchy::hotspot());

  // Cross-session store: register this workload's descriptor (the basis
  // for other sessions' neighbor queries) before anything is measured, so
  // the descriptor record precedes this session's results in the file.
  if (options_.store != nullptr) {
    options_.store->put_workload(space_fingerprint(space.registry()),
                                 workload_);
  }

  // The evaluation chain the tuner searches against: runner, optionally
  // relocated into forked worker processes by the sandbox, optionally a
  // fault injector (hostile-harness experiments), optionally the
  // retry/quarantine/circuit-breaker layer on top. The injector sits
  // *above* the sandbox so injected (modelled) faults stay parent-side and
  // deterministic, while the sandbox handles real process death below it.
  Evaluator* evaluator = &runner;
  std::unique_ptr<SandboxedEvaluator> sandbox;
  if (options_.sandbox) {
    sandbox = std::make_unique<SandboxedEvaluator>(*evaluator, space.registry(),
                                                   options_.sandbox_options);
    sandbox->link_runner(&runner);
    evaluator = sandbox.get();
  }
  std::unique_ptr<FaultInjectingEvaluator> injector;
  if (options_.fault_injection.any()) {
    injector =
        std::make_unique<FaultInjectingEvaluator>(*evaluator, options_.fault_injection);
    evaluator = injector.get();
  }
  std::unique_ptr<ResilientEvaluator> resilient;
  if (options_.resilient) {
    resilient =
        std::make_unique<ResilientEvaluator>(*evaluator, options_.resilience);
    resilient->set_cancellation(options_.cancel);
    evaluator = resilient.get();
  }

  // Tracing: one sink pointer threaded through every layer; all emit sites
  // are null-guarded, so a disabled trace costs one branch per site.
  TraceSink* trace = options_.trace;
  runner.set_trace_sink(trace);
  if (sandbox) sandbox->set_trace_sink(trace);
  if (resilient) resilient->set_trace_sink(trace);
  if (trace != nullptr) {
    trace->emit(TraceEvent("session_start")
                    .with("workload", workload_.name)
                    .with("tuner", strategy.name())
                    .with("objective", objective.id())
                    .with("budget_s", options_.budget.as_seconds())
                    .with("repetitions",
                          static_cast<std::int64_t>(options_.repetitions))
                    .with("seed", static_cast<std::int64_t>(options_.seed))
                    .with("eval_threads",
                          static_cast<std::int64_t>(options_.eval_threads))
                    .with("resilient", options_.resilient)
                    .with("adaptive", options_.measurement.adaptive)
                    .with("resumed", resuming));
    if (options_.store != nullptr) {
      const StoreStats store_stats = options_.store->stats();
      trace->emit(TraceEvent("store_open")
                      .with("path", options_.store->path())
                      .with("records", store_stats.records)
                      .with("workloads", store_stats.workloads)
                      .with("read_only", options_.store->read_only()));
    }
  }

  SessionCore core(options_, space, *evaluator, objective,
                   journal_meta(strategy.name()),
                   Rng(mix64(options_.seed, fnv1a64(strategy.name()))), trace,
                   journal, resuming);
  if (resuming) {
    // Seed downstream state the journal's committed measurements determine:
    // the runner's result cache (so a configuration proposed again after
    // the replayed prefix costs a cache hit, exactly as in the
    // uninterrupted run) and the resilience layer's quarantine/breaker
    // bookkeeping. The runner cache can only be seeded when measurements
    // flow straight from the runner (no injector/resilience rewriting
    // them); see DESIGN.md for the divergence caveats.
    for (const JournalEval& rec : journal->committed()) {
      if (!injector && !resilient) runner.seed_cache(rec.to_measurement());
      if (resilient) resilient->replay_outcome(rec.to_measurement());
    }
  }

  const Measurement base = core.baseline();
  if (base.valid()) {
    // Abandon candidates 5x slower than the baseline rather than paying
    // their full run time out of the tuning budget. The cut-off is always
    // on wall-clock run time (the baseline's mean repetition time), never
    // the objective scalar: a pause-time or footprint objective must not
    // set a pause- or megabyte-scaled wall-clock limit. For run_time the
    // two are the same double, so the limit is bit-identical.
    runner.set_time_limit(
        SimTime::millis(static_cast<std::int64_t>(base.summary.mean * 5.0)));
  }
  log_info() << "tuning " << workload_.name << " with " << strategy.name()
             << " (budget " << options_.budget.to_string() << ", default "
             << fmt(base.objective(objective), 0) << ' ' << objective.unit()
             << ")";

  core.search(strategy, [&] {
    return pick_store_seeds(*options_.store, space.registry(), workload_,
                            objective.id(),
                            static_cast<std::size_t>(options_.warm_start));
  });

  // The search is over: stop the worker pool before the (in-process)
  // validation pass so its exits are accounted to the session, not torn
  // down implicitly at scope exit.
  if (sandbox) sandbox->shutdown();

  // Validation pass: re-measure the incumbent (and the baseline) with fresh
  // seeds and more repetitions. Reporting the *search* minimum would suffer
  // the winner's curse — the minimum over hundreds of noisy measurements is
  // biased low, flattering undirected search.
  BenchmarkRunner validator(*simulator_, workload_,
                            validation_runner_options(options_));
  Configuration best_config = core.context().best_config();
  const double search_best_ms = core.context().best_objective();
  const double validated_default =
      validator.measure(core.defaults()).objective(objective);
  double validated_best = validator.measure(best_config).objective(objective);
  bool winner_validated = validated_best < validated_default;
  if (!winner_validated) {
    // The apparent winner does not validate: the honest outcome is that
    // tuning found nothing better than the defaults.
    best_config = core.defaults();
    validated_best = validated_default;
  }
  if (trace != nullptr) {
    trace->emit(TraceEvent("validation", core.budget().spent())
                    .with("default_ms", validated_default)
                    .with("best_ms", validated_best)
                    .with("search_best_ms", search_best_ms)
                    .with("accepted", winner_validated));
  }

  // In sandbox mode the parent runner never measures: runs, cache hits,
  // and rep-level fault counters arrive aggregated from worker replies.
  FaultStats fault_stats = runner.stats();
  if (sandbox) fault_stats += sandbox->stats();
  if (injector) fault_stats += injector->stats();
  if (resilient) fault_stats += resilient->stats();

  TuningOutcome outcome{.workload_name = workload_.name,
                        .tuner_name = strategy.name(),
                        .best_config = best_config,
                        .objective_id = objective.id(),
                        .default_ms = validated_default,
                        .best_ms = validated_best,
                        .evaluations = static_cast<std::int64_t>(core.db()->size()),
                        .runs = runner.runs_executed() +
                                (sandbox ? sandbox->runs_executed() : 0),
                        .cache_hits = runner.cache_hits() +
                                      (sandbox ? sandbox->cache_hits() : 0),
                        .store_hits = runner.store_hits() +
                                      (sandbox ? sandbox->store_hits() : 0),
                        .store_appends =
                            runner.store_appends() +
                            (sandbox ? sandbox->store_appends() : 0),
                        .warm_seeds = core.warm_seeds(),
                        .charged_evaluations = core.context().charged_evaluations(),
                        .budget_spent = core.budget().spent(),
                        .fault_stats = fault_stats,
                        .db = core.db(),
                        .cancelled = core.cancelled()};

  core.close(outcome.best_config.fingerprint(), outcome.best_ms,
             outcome.default_ms);

  if (trace != nullptr) {
    trace->metrics().set_gauge("session.default_ms", outcome.default_ms);
    trace->metrics().set_gauge("session.best_ms", outcome.best_ms);
    trace->metrics().set_gauge("session.improvement",
                               outcome.improvement_frac());
    TraceEvent session_end =
        TraceEvent("session_end", core.budget().spent())
            .with("workload", workload_.name)
            .with("tuner", strategy.name())
            .with("default_ms", outcome.default_ms)
            .with("best_ms", outcome.best_ms)
            .with("improvement", outcome.improvement_frac())
            .with("evaluations", outcome.evaluations)
            .with("runs", outcome.runs)
            .with("cache_hits", outcome.cache_hits)
            .with("budget_spent_s", outcome.budget_spent.as_seconds());
    // Store fields appear only on store-enabled sessions: store-less
    // traces stay byte-identical to what they were before the store.
    if (options_.store != nullptr) {
      session_end.fields.emplace_back("store_hits", outcome.store_hits);
      session_end.fields.emplace_back("store_appends", outcome.store_appends);
      session_end.fields.emplace_back("warm_seeds", outcome.warm_seeds);
      session_end.fields.emplace_back("charged_evaluations",
                                      outcome.charged_evaluations);
    }
    trace->emit(std::move(session_end));
    TraceEvent metrics("metrics", core.budget().spent());
    for (const auto& [name, value] : trace->metrics().counters()) {
      metrics.fields.emplace_back("c." + name, value);
    }
    for (const auto& [name, value] : trace->metrics().gauges()) {
      metrics.fields.emplace_back("g." + name, value);
    }
    trace->emit(std::move(metrics));
    runner.set_trace_sink(nullptr);
  }

  log_info() << "  best " << fmt(outcome.best_ms, 0) << ' ' << objective.unit()
             << " ("
             << format_percent(outcome.improvement_frac()) << " improvement, "
             << outcome.evaluations << " evals, " << outcome.runs << " runs)";
  if (fault_stats.failures() > 0 || fault_stats.quarantine_hits > 0 ||
      fault_stats.salvaged > 0) {
    log_info() << "  faults: " << fault_stats.to_string();
  }
  if (options_.store != nullptr) {
    log_info() << "  store: " << outcome.store_hits << " hits, "
               << outcome.store_appends << " appended, " << outcome.warm_seeds
               << " warm seeds, " << outcome.charged_evaluations
               << " charged evaluations";
  }
  return outcome;
}

}  // namespace jat
