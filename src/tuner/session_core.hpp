// SessionCore: the run wiring TuningSession and SuiteTuningSession share.
//
// A session hands its evaluator chain and journal metadata to a SessionCore,
// which owns the budget clock, result log, worker pool and TuningContext,
// and calls its steps in order: the constructor, baseline(), search(),
// close(). Each session keeps what differs: its evaluator chain, how it
// picks warm-start seeds from the store, and its validation and outcome.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/store.hpp"
#include "tuner/session.hpp"
#include "tuner/strategy.hpp"

namespace jat {

/// The journal metadata a session with these options writes; the session
/// supplies only `kind` and `workload`.
JournalMeta session_journal_meta(const SessionOptions& options,
                                 std::string kind, std::string workload,
                                 const std::string& tuner_name);

/// The search runner's options (member runners', for a suite).
RunnerOptions session_runner_options(const SessionOptions& options);
/// The validation pass's: fresh seeds (so never answered by the store), at
/// least five full repetitions, no racing or early stops.
RunnerOptions validation_runner_options(const SessionOptions& options);

/// Parses a stored record back into a configuration of `registry`, or
/// warns and returns nothing when it does not parse to the configuration
/// it was stored under (a lost optimization, not a session failure).
std::optional<Configuration> stored_config(const FlagRegistry& registry,
                                           const StoreRecord& record);

class SessionCore {
 public:
  /// Warm-start seeds picked from the store; the counts say where they came
  /// from (reported in the "warm_start" trace event).
  struct WarmSeeds {
    std::vector<Configuration> configs;
    std::int64_t same_workload = 0;
    std::int64_t neighbors = 0;
  };

  /// Pins (fresh journal) or validates (resume) the journal metadata,
  /// wires the context and arms replay. `space`, `evaluator` and `journal`
  /// must outlive the core; `trace` may be null; `resuming` needs a journal.
  SessionCore(const SessionOptions& options, const SearchSpace& space,
              Evaluator& evaluator, const Objective& objective,
              const JournalMeta& meta, Rng rng, TraceSink* trace,
              SessionJournal* journal, bool resuming);
  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  /// Measures (or replays) the default configuration — the baseline the
  /// paper reports improvement against — and commits it as the first row,
  /// charged like any candidate. Returns its measurement.
  Measurement baseline();

  /// Runs `strategy` behind its warm-start seeds: on resume those the
  /// journal recorded (never re-queried from a store that may have
  /// changed), else, with a store and SessionOptions::warm_start > 0,
  /// whatever `pick_store_seeds` returns.
  void search(SearchStrategy& strategy,
              const std::function<WarmSeeds()>& pick_store_seeds);

  /// Journals the end record — unless the search was cancelled, so the
  /// session stays resumable — and flushes. No-op without a journal.
  void close(std::uint64_t best_fingerprint, double best_objective,
             double default_objective);

  TuningContext& context() { return ctx_; }
  const BudgetClock& budget() const { return budget_; }
  const std::shared_ptr<ResultDb>& db() const { return db_; }
  const Configuration& defaults() const { return defaults_; }
  std::int64_t warm_seeds() const { return warm_seeds_; }
  bool cancelled() const { return cancelled_; }

 private:
  const SessionOptions& options_;
  const SearchSpace& space_;
  SessionJournal* journal_;
  bool resuming_;
  TraceSink* trace_;
  BudgetClock budget_;
  std::shared_ptr<ResultDb> db_;
  std::unique_ptr<ThreadPool> pool_;
  TuningContext ctx_;
  Configuration defaults_;
  std::int64_t warm_seeds_ = 0;
  bool cancelled_ = false;
};

}  // namespace jat
