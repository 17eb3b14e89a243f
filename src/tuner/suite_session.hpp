// "General configuration" tuning: one flag set for a whole suite.
//
// The per-benchmark results (T2/T3) tune each program separately; the
// natural follow-up question — and the practical deployment question — is
// how much a single configuration tuned for the *suite* can recover.
// SuiteRunner aggregates per-workload measurements into one objective (the
// geometric mean of run times normalised to each workload's default), and
// SuiteTuningSession runs any SearchStrategy against it. bench_t9_general
// compares the result against per-benchmark tuning.
#pragma once

#include <memory>
#include <vector>

#include "harness/evaluator.hpp"
#include "harness/runner.hpp"
#include "tuner/session.hpp"

namespace jat {

/// Evaluates a configuration on every workload in a suite. The score is
/// 1000 x geomean_i(value_i / default_value_i), where value_i is the
/// member's scalar under the session objective (RunnerOptions::objective;
/// run time by default): 1000 means "exactly the defaults", lower is
/// better, and a crash on any member crashes the candidate (a general
/// configuration must work everywhere). The geometric mean of ratios needs
/// a positive scale, so objectives with positive_scale() == false (e.g.
/// negated throughput) are rejected with ObjectiveError at construction.
class SuiteRunner : public Evaluator {
 public:
  SuiteRunner(const JvmSimulator& simulator,
              std::vector<WorkloadSpec> workloads, RunnerOptions options = {});

  /// `hints` affects only per-member convergence: the suite objective is a
  /// normalised score (not milliseconds), so the incumbent snapshot is
  /// never forwarded to member runners — units would not match — and suite
  /// measurements always report StopReason::kFull (no suite-level top-up).
  Measurement measure(const Configuration& config, BudgetClock* budget,
                      const EvalHints& hints) override;
  using Evaluator::measure;

  /// Forwards a cancellation token to every member runner (see
  /// BenchmarkRunner::set_cancellation).
  void set_cancellation(const CancellationToken* token);

  /// Per-workload default objective values, measured at construction.
  const std::vector<double>& default_times_ms() const { return default_ms_; }

  /// Per-workload objective values for a configuration; entries are +inf
  /// for crashes. Charges the budget like measure().
  std::vector<double> measure_each(const Configuration& config,
                                   BudgetClock* budget);

  std::size_t size() const { return runners_.size(); }
  const WorkloadSpec& workload(std::size_t index) const {
    return runners_[index]->workload();
  }

  /// Cross-session store activity summed over the member runners (zero
  /// when RunnerOptions::store is null).
  std::int64_t store_hits() const;
  std::int64_t store_appends() const;

 private:
  std::vector<std::unique_ptr<BenchmarkRunner>> runners_;
  std::vector<double> default_ms_;
  std::shared_ptr<const Objective> objective_;
};

struct SuiteOutcome {
  std::string tuner_name;
  Configuration best_config;
  /// Geomean of tuned/default across the suite (e.g. 0.85 = 15% better on
  /// the geometric mean), from the validated re-measurement.
  double geomean_ratio = 1.0;
  double improvement_frac() const { return 1.0 - geomean_ratio; }
  /// Per-workload validated improvements of the general configuration.
  std::vector<double> per_workload_improvement;
  std::vector<std::string> workload_names;
  std::int64_t evaluations = 0;
  /// Cross-session store activity summed over the member runners, plus the
  /// warm-start seeds replayed and the nonzero-cost commits (see
  /// TuningOutcome for the field semantics).
  std::int64_t store_hits = 0;
  std::int64_t store_appends = 0;
  std::int64_t warm_seeds = 0;
  std::int64_t charged_evaluations = 0;
  SimTime budget_spent;
  std::shared_ptr<ResultDb> db;
  /// True when the session stopped on cooperative cancellation.
  bool cancelled = false;
};

class SuiteTuningSession {
 public:
  /// Throws TunerError, before anything is measured, when `options` asks
  /// for something a suite candidate — one normalised score from plain
  /// member runners — cannot honour: racing_factor, resilient,
  /// fault_injection or trace.
  SuiteTuningSession(const JvmSimulator& simulator,
                     std::vector<WorkloadSpec> workloads,
                     SessionOptions options = {});

  /// Tunes one configuration against the whole suite by running one
  /// strategy through the EvalScheduler. The budget covers the complete
  /// session (a candidate costs the sum of its per-workload runs), like
  /// tuning against a composite benchmark.
  SuiteOutcome run(SearchStrategy& strategy);

  /// Resumes a journaled suite session (see TuningSession::resume). Member
  /// runner caches cannot be reseeded from the journal (per-member times
  /// are not journaled), so a configuration proposed *again* after the
  /// replayed prefix is re-measured at full cost — see DESIGN.md for the
  /// divergence caveat.
  SuiteOutcome resume(SessionJournal& journal, SearchStrategy& strategy);

  /// The metadata record this session would journal (kind "suite"; the
  /// workload field is the member names joined with ",").
  JournalMeta journal_meta(const std::string& tuner_name) const;

 private:
  SuiteOutcome run_internal(SearchStrategy& strategy, SessionJournal* journal,
                            bool resuming);

  const JvmSimulator* simulator_;
  std::vector<WorkloadSpec> workloads_;
  SessionOptions options_;
};

}  // namespace jat
