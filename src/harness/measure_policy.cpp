#include "harness/measure_policy.hpp"

#include <algorithm>
#include <cmath>

namespace jat {

MeasurementPolicy::MeasurementPolicy(const MeasurementPolicyOptions& options,
                                     const IncumbentSnapshot& incumbent,
                                     double racing_factor)
    : options_(options), racing_factor_(racing_factor), incumbent_(incumbent) {}

MeasurementPolicy::Decision MeasurementPolicy::after_rep(
    const RunningStat& sample) const {
  // Racing factor: a first repetition this far above the incumbent's mean
  // is a clear loser, not worth a second run.
  if (sample.count() == 1 && racing_factor_ > 0.0 && incumbent_.count >= 1 &&
      sample.mean() > racing_factor_ * incumbent_.mean) {
    return Decision::kRacedOut;
  }
  if (!options_.adaptive) return Decision::kContinue;
  const int min_reps = std::max(2, options_.min_reps);
  if (sample.count() < static_cast<std::size_t>(min_reps)) {
    return Decision::kContinue;
  }

  // Convergence first: a tight mean is always worth keeping, even for a
  // loser — the session compares objectives, not stop reasons. The sample
  // carries the objective's per-rep scalars, which may be negative
  // (throughput is negated), so the relative half-width is taken against
  // |mean|; for the positive run-time stream this is the same comparison
  // as before.
  const double dof = static_cast<double>(sample.count() - 1);
  const double scale = std::abs(sample.mean());
  if (scale > 0.0 &&
      t_critical_95(dof) * sample.sem() <= options_.ci_rel * scale) {
    return Decision::kConverged;
  }

  // Racing: abandon when the Welch test says this candidate's mean is
  // worse than the incumbent's at the configured significance. One-sided
  // intent (worse only), so the mean ordering gates the two-sided p.
  if (incumbent_.usable() && sample.mean() > incumbent_.mean) {
    const WelchResult w = welch_t_test(sample, incumbent_.to_stat());
    if (w.p_value < options_.race_p) return Decision::kRacedOut;
  }
  return Decision::kContinue;
}

}  // namespace jat
