// TuningSession: one (workload, tuner, budget) experiment, end to end.
//
// This is the library's top-level entry point — the thing bench binaries
// and examples drive. It builds the evaluator chain for one workload,
// measures the default configuration first (the baseline the paper reports
// improvement against), runs an ask/tell SearchStrategy through the
// EvalScheduler (the wiring it shares with SuiteTuningSession lives in
// tuner/session_core.hpp), re-validates the winner, and packages the
// outcome.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "harness/fault.hpp"
#include "harness/journal.hpp"
#include "harness/resilient.hpp"
#include "harness/sandbox.hpp"
#include "support/cancellation.hpp"
#include "support/trace.hpp"
#include "jvmsim/engine.hpp"
#include "tuner/algorithms.hpp"
#include "tuner/tuner.hpp"
#include "workloads/workload.hpp"

namespace jat {

struct SessionOptions {
  /// Tuning-time budget (the paper used 200 minutes per benchmark).
  SimTime budget = SimTime::minutes(200);
  /// Timed repetitions per candidate configuration.
  int repetitions = 3;
  /// Master seed; the tuner's stream is derived from (seed, tuner name).
  std::uint64_t seed = 2015;
  /// Worker threads for pipelined evaluation (0 = serial). Parallelism
  /// changes wall-clock only; each run's seed depends only on its
  /// configuration, and the scheduler's committed-ledger admission keeps
  /// outcomes identical for any thread count.
  std::size_t eval_threads = 0;
  /// Maximum evaluations the scheduler keeps in flight. Part of the search
  /// trajectory (it bounds speculation), deliberately independent of
  /// eval_threads — see SchedulerOptions.
  std::size_t inflight = 8;
  /// Simulated per-run harness overhead (JVM spawn etc.), seconds.
  double per_run_overhead_s = 2.0;
  /// First-repetition racing factor forwarded to the search runner (see
  /// RunnerOptions): a first repetition over this many times the
  /// dispatch-time incumbent's mean stops the candidate. The validation
  /// pass always uses full repetitions regardless.
  double racing_factor = 0.0;
  /// The tuning objective (harness/objective.hpp, make_objective()). Null
  /// selects run_time_objective(): sessions are then bit-identical to the
  /// pre-objective behaviour — outcomes, evaluation logs, and journals.
  /// Any other objective rescores every evaluation (search, incumbent,
  /// racing, validation) on its scalar, switches the CSV to the extended
  /// metric schema, and journals version-2 records with metric vectors.
  std::shared_ptr<const Objective> objective;
  /// Confidence-driven adaptive measurement policy (see
  /// harness/measure_policy.hpp). With `adaptive` off (default) sessions
  /// are bit-identical to fixed-repetition behaviour. When on,
  /// `measurement.max_reps` replaces `repetitions` as the per-candidate
  /// cap, stopping early on CI convergence or a Welch racing cut against
  /// the incumbent; raced-out winners are topped up to convergence before
  /// they can take the incumbency. The validation pass always measures
  /// with the policy disabled (full repetitions when it counts).
  MeasurementPolicyOptions measurement;
  /// Injected-fault model layered over the search runner (all rates zero =
  /// no injection). The validation pass always runs on a clean harness:
  /// it models re-measuring the winner once the infrastructure recovered.
  FaultOptions fault_injection;
  /// Put the retry/quarantine/circuit-breaker layer between tuner and
  /// evaluator (see harness/resilient.hpp).
  bool resilient = false;
  ResilienceOptions resilience;
  /// Execute measurements in forked worker processes (harness/sandbox.hpp):
  /// a crashing or wedged evaluation kills its worker, never the session.
  /// On a fault-free run the outcome is bit-identical to the in-process
  /// path at fixed seed and window, so this is an execution detail like
  /// eval_threads, not part of the search trajectory.
  bool sandbox = false;
  SandboxOptions sandbox_options;
  /// Structured tracing: when set, the session and every evaluation layer
  /// emit typed events (schema in EXPERIMENTS.md) into this sink, from
  /// which tools/trace_report reconstructs convergence curves and
  /// per-phase budget attribution. Null disables tracing at zero cost.
  TraceSink* trace = nullptr;
  /// Write-ahead evaluation journal (see harness/journal.hpp): when set,
  /// every committed evaluation is made durable before it is applied, so
  /// a killed session resumes bit-identically via TuningSession::resume.
  /// Null disables journaling. The journal must be fresh (create());
  /// resume() takes its journal explicitly.
  SessionJournal* journal = nullptr;
  /// Cooperative cancellation: when set and cancelled (e.g. from a SIGINT
  /// handler), the scheduler closes admission, drains and commits the
  /// evaluations already in flight, and the session returns its outcome
  /// early with TuningOutcome::cancelled set. Null disables cancellation.
  const CancellationToken* cancel = nullptr;
  /// Cross-session result store (harness/store.hpp): a persistent
  /// read-through/write-behind tier below the runner's in-memory cache.
  /// Store hits charge zero budget; complete measurements are published
  /// for future sessions. Null disables the tier entirely — sessions are
  /// then bit-identical to the store-less behaviour.
  std::shared_ptr<ResultStore> store;
  /// Warm-start transfer (tuner/warm_start.hpp): replay up to this many
  /// top prior configs for the same workload — plus up to the same number
  /// of structural-neighbor configs from other workloads — as "warm_start"
  /// phase evaluations before the strategy's first ask(). 0 disables.
  /// Requires `store`.
  int warm_start = 0;
  /// When false the store is write-behind only (--no-store-reads): prior
  /// results are never read back, but this session still publishes.
  bool store_reads = true;
};

struct TuningOutcome {
  std::string workload_name;
  std::string tuner_name;
  Configuration best_config;
  /// Objective the session tuned for ("run_time" unless selected).
  std::string objective_id = "run_time";
  double default_ms = 0;  ///< objective of the default configuration
  double best_ms = 0;     ///< objective of the best configuration found

  /// True when both measurements are usable as a ratio: finite, positive.
  /// A crashed baseline or a crashed winner makes the comparison
  /// meaningless, and both ratio metrics below agree on returning 0.
  bool comparable() const {
    return default_ms > 0 && best_ms > 0 && std::isfinite(default_ms) &&
           std::isfinite(best_ms);
  }
  /// The paper's headline metric: (default - tuned) / default. Zero when
  /// either side failed (no meaningful reference).
  double improvement_frac() const {
    return comparable() ? (default_ms - best_ms) / default_ms : 0.0;
  }
  double speedup() const { return comparable() ? default_ms / best_ms : 0.0; }

  std::int64_t evaluations = 0;  ///< configurations measured (incl. cached)
  std::int64_t runs = 0;         ///< simulated JVM launches
  std::int64_t cache_hits = 0;
  /// Cross-session store activity: misses answered from the store (zero
  /// budget), records published to it, and warm-start seeds replayed.
  std::int64_t store_hits = 0;
  std::int64_t store_appends = 0;
  std::int64_t warm_seeds = 0;
  /// Committed evaluations that charged nonzero budget — the session's
  /// real measurement work (store hits are excluded; cache hits are not:
  /// they charge the lookup overhead).
  std::int64_t charged_evaluations = 0;
  SimTime budget_spent;
  /// Failure taxonomy + recovery actions over the whole session: rep-level
  /// counters from the runner, injected faults, and the resilience layer's
  /// retry/quarantine/breaker activity (each layer counts its own events).
  FaultStats fault_stats;
  std::shared_ptr<ResultDb> db;  ///< full evaluation log (trajectories)
  /// True when the session stopped on cooperative cancellation rather than
  /// budget exhaustion; the outcome still reflects everything committed.
  bool cancelled = false;
};

class TuningSession {
 public:
  TuningSession(const JvmSimulator& simulator, WorkloadSpec workload,
                SessionOptions options = {});

  /// Runs one strategy with fresh state (budget, cache, log) through the
  /// EvalScheduler and returns the outcome. Deterministic for fixed
  /// options and any eval_threads (see the contract in tuner/strategy.hpp).
  TuningOutcome run(SearchStrategy& strategy);

  /// Resumes a journaled session: validates the journal's metadata against
  /// this session's options (throwing a field-level JournalError on any
  /// mismatch), replays the committed evaluations through the strategy in
  /// commit order — rebuilding its state and the budget clock exactly —
  /// and continues live from where the journal stops. The final outcome is
  /// bit-identical to the uninterrupted run's. New evaluations are appended
  /// to the same journal.
  TuningOutcome resume(SessionJournal& journal, SearchStrategy& strategy);

  /// The metadata record this session would journal (also what resume
  /// validates against).
  JournalMeta journal_meta(const std::string& tuner_name) const;

  const SessionOptions& session_options() const { return options_; }
  const WorkloadSpec& workload() const { return workload_; }

 private:
  TuningOutcome run_internal(SearchStrategy& strategy, SessionJournal* journal,
                             bool resuming);

  const JvmSimulator* simulator_;
  WorkloadSpec workload_;
  SessionOptions options_;
};

}  // namespace jat
