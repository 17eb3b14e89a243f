// The ask/tell search-strategy interface.
//
// Production auto-tuners (BestConfig, OneStopTuner — see PAPERS.md)
// decouple *proposal* from *measurement*: the search algorithm is a state
// machine that emits candidate configurations on demand (ask) and absorbs
// results as they complete (tell), and a scheduler pipelines measurement
// around it. The algorithm never blocks on a measurement: the EvalScheduler
// (tuner/scheduler.hpp) keeps a bounded window of evaluations in flight
// and feeds results back in proposal order. This is the only way a search
// runs.
//
// Determinism contract (the part that makes parallel evaluation safe to
// enable by default):
//  - ask() and tell() always run on the scheduler's control thread, in a
//    fixed interleaving determined only by the strategy's own behaviour
//    and the in-flight window size — never by measurement timing. Using
//    ctx().rng() inside ask()/tell() is therefore deterministic.
//  - tell() is delivered exactly once per proposal, in proposal-id order
//    (the order ask() emitted them). A strategy that proposes an "anchor"
//    followed by speculative follow-ups will see the anchor's result
//    first, whatever order the measurements finished in.
//  - Admission and everything visible through StrategyContext (progress,
//    exhaustion, incumbent, evaluation count) reflect *committed* state:
//    results folded in at tell time, not live concurrent charges. The
//    whole trajectory is thus bit-identical for any eval_threads value at
//    a fixed in-flight window.
//  - proposal_rng(id) derives an Rng stream from the proposal id, for
//    strategies whose candidate generation should not even depend on the
//    window size (e.g. RandomSearch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tuner/tuner.hpp"

namespace jat {

class EvalScheduler;

/// A candidate evaluation requested by a strategy.
struct Proposal {
  explicit Proposal(Configuration config, std::uint64_t tag = 0)
      : config(std::move(config)), tag(tag) {}

  Configuration config;
  /// Phase label recorded with the evaluation; empty uses the label of the
  /// last StrategyContext::set_phase() call.
  std::string phase;
  /// Strategy-private cookie echoed back in the Observation (epoch
  /// counters, operator ids, ...). The scheduler never interprets it.
  std::uint64_t tag = 0;
};

/// The result of one proposal, delivered to tell() in proposal-id order.
struct Observation {
  std::uint64_t id = 0;   ///< dispatch order, 0-based, gap-free
  std::uint64_t tag = 0;  ///< Proposal::tag, echoed
  const Configuration* config = nullptr;  ///< valid for the tell() call only
  std::uint64_t fingerprint = 0;
  double objective = 0.0;  ///< +inf for crashes
  SimTime cost;            ///< budget charged by this evaluation
  FaultClass fault = FaultClass::kNone;
};

/// The strategy's deterministic window onto the session. All accessors
/// reflect committed state (see the determinism contract above).
class StrategyContext {
 public:
  const SearchSpace& space() const { return tuning_->space(); }
  /// The control-loop stream: deterministic when used from ask()/tell().
  Rng& rng() { return tuning_->rng(); }
  /// An independent stream keyed by proposal id, for candidate generation
  /// that must not depend on ask() batching.
  Rng proposal_rng(std::uint64_t proposal_id) const {
    return Rng(mix64(rng_salt_, proposal_id));
  }

  /// Committed incumbent (updates at tell time).
  Configuration best_config() const { return tuning_->best_config(); }
  double best_objective() const { return tuning_->best_objective(); }

  SimTime budget_total() const { return tuning_->budget().total(); }
  /// Budget charged by committed (told) evaluations, plus everything spent
  /// before the scheduler started (the session baseline).
  SimTime committed_spent() const { return *committed_spent_; }
  bool exhausted() const { return committed_spent() >= budget_total(); }
  /// Committed budget consumption in [0, 1].
  double progress() const {
    const double total = budget_total().as_seconds();
    if (!(total > 0)) return 1.0;
    const double p = committed_spent().as_seconds() / total;
    return p < 1.0 ? p : 1.0;
  }
  /// Committed evaluation count (equals the ResultDb size).
  std::int64_t evaluations() const { return *committed_evals_; }

  void set_phase(std::string phase) { tuning_->set_phase(std::move(phase)); }
  bool tracing() const { return tuning_->tracing(); }
  void trace_event(TraceEvent event) {
    tuning_->trace_event(std::move(event));
  }

 private:
  friend class EvalScheduler;
  TuningContext* tuning_ = nullptr;
  const SimTime* committed_spent_ = nullptr;
  const std::int64_t* committed_evals_ = nullptr;
  std::uint64_t rng_salt_ = 0;
};

/// An ask/tell search algorithm. Drive it with EvalScheduler::run() or a
/// TuningSession.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  virtual std::string name() const = 0;

  /// Called once before the first ask(); resets all run state. The context
  /// outlives the run and is stashed in ctx_.
  virtual void begin(StrategyContext& ctx) { ctx_ = &ctx; }

  /// Appends up to `max` (≥ 1) new proposals to `out`. Returning none is a
  /// yield: the scheduler delivers an outstanding result and asks again.
  /// Returning none with nothing outstanding ends the search.
  virtual void ask(std::vector<Proposal>& out, std::size_t max) = 0;

  /// One result, in proposal-id order, exactly once per proposal.
  virtual void tell(const Observation& observation) = 0;

  /// Called after the last tell(), even when the budget expired with
  /// proposals still queued inside the strategy.
  virtual void finish() {}

 protected:
  StrategyContext& ctx() { return *ctx_; }
  const StrategyContext& ctx() const { return *ctx_; }

 private:
  StrategyContext* ctx_ = nullptr;
};

}  // namespace jat
