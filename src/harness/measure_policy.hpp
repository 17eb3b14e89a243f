// Adaptive measurement policy: how many repetitions a candidate deserves.
//
// The paper's evaluation is budget-bound, so every repetition spent on a
// candidate whose mean is already known — or already known to be worse
// than the incumbent — is budget a strategy could have spent exploring.
// MeasurementPolicy is the per-repetition decision layer the runner
// consults after every successful repetition. It holds both racing rules,
// and both read only the incumbent snapshot the scheduler captured at
// dispatch:
//   - the first-repetition factor (RunnerOptions::racing_factor, jat_tune
//     --racing): abandon when the first repetition exceeds the factor times
//     the incumbent's mean;
//   - the adaptive rules: stop because the mean has converged (CI95
//     half-width within a relative threshold), abandon because a Welch test
//     against the incumbent's running statistics says this candidate is
//     worse, or continue up to a cap.
// The decision and its statistics are pure — a function of the sample and
// the snapshot, never of what the runner measured before — so racing is
// deterministic across eval_threads and the sandbox. The runner owns seeds,
// budget charging, and faults.
//
// Every early exit is recorded as a StopReason in the Measurement, so
// downstream consumers (ResultDb CSV, journal, traces) can distinguish a
// trusted summary from a truncated one — and the session can later "top
// up" a raced-out measurement that becomes an incumbent candidate.
#pragma once

#include <cstddef>
#include <string_view>

#include "support/statistics.hpp"

namespace jat {

/// Why a measurement stopped collecting repetitions.
enum class StopReason {
  kFull = 0,    ///< ran its planned repetitions (or faulted out; see fault)
  kConverged,   ///< adaptive: CI95 half-width within ci_rel of the mean
  kRacedOut,    ///< abandoned as worse than the incumbent (factor or Welch)
  kBudgetCut,   ///< the tuning budget expired mid-measurement
  kCancelled,   ///< cooperative cancellation drained it early
};

constexpr const char* to_string(StopReason stop) {
  switch (stop) {
    case StopReason::kFull: return "full";
    case StopReason::kConverged: return "converged";
    case StopReason::kRacedOut: return "raced_out";
    case StopReason::kBudgetCut: return "budget_cut";
    case StopReason::kCancelled: return "cancelled";
  }
  return "full";
}

/// Inverse of to_string(StopReason). `known` (when non-null) reports
/// whether the label named a real reason; readers of external data use it
/// to surface unknown labels as warnings. Unknown labels still map to
/// kFull so tolerant readers can proceed.
constexpr StopReason stop_reason_from_string(std::string_view name,
                                             bool* known = nullptr) {
  if (known != nullptr) *known = true;
  if (name == "full") return StopReason::kFull;
  if (name == "converged") return StopReason::kConverged;
  if (name == "raced_out") return StopReason::kRacedOut;
  if (name == "budget_cut") return StopReason::kBudgetCut;
  if (name == "cancelled") return StopReason::kCancelled;
  if (known != nullptr) *known = false;
  return StopReason::kFull;
}

/// Tuning knobs for the adaptive policy. Disabled by default: with
/// `adaptive` off the runner executes its fixed repetition count exactly as
/// before, bit-identical at a fixed seed.
struct MeasurementPolicyOptions {
  /// Master switch for per-repetition stop/abandon decisions.
  bool adaptive = false;
  /// Never decide before this many successful repetitions (a variance
  /// estimate needs at least two samples).
  int min_reps = 2;
  /// Repetition cap when adaptive (replaces the fixed repetition count).
  int max_reps = 10;
  /// Converged when t_crit * sem <= ci_rel * mean: the 95% confidence
  /// interval of the mean is within this relative half-width.
  double ci_rel = 0.02;
  /// Abandon when a Welch test against the incumbent says this candidate's
  /// mean is *worse* with p below this threshold.
  double race_p = 0.05;
};

/// The incumbent's running statistics at dispatch time, in the serialized
/// moment form that crosses the sandbox request frame. count == 0 means "no
/// incumbent yet" (session start or journal replay); the racing factor
/// needs count >= 1 and the Welch test count >= 2.
struct IncumbentSnapshot {
  std::size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< Welford sum of squared deviations

  /// A Welch test needs a variance on both sides.
  bool usable() const { return count >= 2; }
  RunningStat to_stat() const {
    return RunningStat::from_moments(count, mean, m2);
  }
};

/// Per-repetition decision engine. Stateless beyond its inputs: the runner
/// feeds it the sample accumulated so far and it answers stop/abandon/
/// continue. Kept separate from the runner so the stop rule is testable
/// without a simulator.
class MeasurementPolicy {
 public:
  enum class Decision {
    kContinue,   ///< collect another repetition
    kConverged,  ///< mean is trusted; stop
    kRacedOut,   ///< worse than the incumbent; abandon
  };

  /// `racing_factor` > 0 enables the first-repetition rule; the runner
  /// passes 0 for objectives without a positive scale.
  MeasurementPolicy(const MeasurementPolicyOptions& options,
                    const IncumbentSnapshot& incumbent,
                    double racing_factor = 0.0);

  /// Decision after a successful repetition, given every successful
  /// repetition so far. The factor applies to the first repetition only,
  /// whether or not the policy is adaptive. After that, convergence is
  /// checked before the Welch test: a converged loser still gets an honest
  /// (tight) measurement.
  Decision after_rep(const RunningStat& sample) const;

 private:
  MeasurementPolicyOptions options_;
  double racing_factor_;
  IncumbentSnapshot incumbent_;
};

}  // namespace jat
