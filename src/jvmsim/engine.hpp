// The simulated HotSpot JVM: the public entry point of jvmsim.
//
// JvmSimulator::run executes one (configuration, workload, seed) triple and
// returns a RunResult. Runs are deterministic in all three inputs, so the
// harness can reproduce any measurement exactly; run-to-run variance is
// injected explicitly through the seed.
//
// The engine is a discrete-event simulation over continuous rates: between
// events the application executes work, allocates, and advances invocation
// counters at rates derived from the current JIT tier mix, core
// availability, and lock overheads; events are eden exhaustion, JIT
// compile enqueue/completion, concurrent-GC milestones, and the biased-
// locking activation edge.
#pragma once

#include <cstdint>
#include <string>

#include "flags/configuration.hpp"
#include "jvmsim/machine.hpp"
#include "jvmsim/params.hpp"
#include "jvmsim/run_result.hpp"
#include "workloads/workload.hpp"

namespace jat {

struct SimOptions {
  MachineSpec machine;
  /// Abort (as a crash) runs whose simulated time exceeds this bound —
  /// models the harness killing a hung JVM.
  double max_sim_seconds = 7200.0;
  /// Hard event-count backstop against model bugs.
  std::int64_t max_events = 4'000'000;
  /// Record a per-run GC event timeline in RunResult::trace (costs
  /// allocation per collection; off for tuning throughput).
  bool collect_trace = false;
};

class JvmSimulator {
 public:
  /// A configuration checked and decoded once, for any number of runs:
  /// either the VM refuses to start (`fatal` holds the first fatal
  /// violation) or `params` holds the decoded parameters.
  struct Decoded {
    std::string fatal;
    JvmParams params;
  };

  explicit JvmSimulator(SimOptions options = {});

  /// Validates and decodes the configuration (no simulation).
  static Decoded decode(const Configuration& config);

  /// Runs the workload under the configuration; run(decode(config), ...).
  /// Non-startable configurations and OutOfMemoryErrors come back as
  /// crashed results (the tuner treats those as worst-possible, like the
  /// paper's harness).
  RunResult run(const Configuration& config, const WorkloadSpec& workload,
                std::uint64_t seed) const;

  /// Same, for a configuration decoded once and run many times (the
  /// harness's repetitions); bit-identical to the Configuration overload.
  RunResult run(const Decoded& decoded, const WorkloadSpec& workload,
                std::uint64_t seed) const;

  /// Same, for already-decoded parameters (skips flag access; used by
  /// simulator unit tests and the micro-benchmarks).
  RunResult run(const JvmParams& params, const WorkloadSpec& workload,
                std::uint64_t seed) const;

  const SimOptions& options() const { return options_; }

 private:
  SimOptions options_;
};

}  // namespace jat
