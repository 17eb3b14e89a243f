// Tiered JIT compilation model.
//
// Methods are aggregated into hotness buckets with Zipf-distributed
// execution weights. Each bucket accumulates per-method invocation counts
// as application work progresses; crossing a tier threshold enqueues a
// compile job, a bounded pool of compiler threads drains the queue, and
// completed jobs shift the execution-speed mix toward the compiled tiers.
// The code cache bounds how much compiled code can exist: when it fills,
// either cold code is flushed (UseCodeCacheFlushing) or compilation shuts
// down for good, exactly like the JDK 7-era VM.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "jvmsim/machine.hpp"
#include "jvmsim/params.hpp"
#include "support/sim_time.hpp"
#include "workloads/workload.hpp"

namespace jat {

class JitModel {
 public:
  JitModel(const JitParams& params, const WorkloadSpec& workload,
           const MachineSpec& machine);

  /// Current execution speed relative to ideal fully-compiled code (1.0):
  /// the harmonic mix over buckets at their current tiers, including the
  /// vectorisation / intrinsics / quality factors.
  double speed_mix() const { return speed_mix_; }

  /// Compiler threads currently busy (they occupy machine cores).
  int busy_compilers() const { return busy_; }

  /// Work units until the next bucket crosses a compile threshold
  /// (infinity when none will).
  double work_until_next_enqueue() const;

  /// Simulated time until the next in-flight compile finishes
  /// (infinite when none are in flight).
  SimTime time_until_next_completion() const;

  /// Advances application work (drives invocation counters => enqueues)
  /// and wall time (drives compile progress => completions).
  void advance(double work_delta, SimTime time_delta);

  // ---- stats ----------------------------------------------------------------
  std::int64_t compiles_c1() const { return compiles_c1_; }
  std::int64_t compiles_c2() const { return compiles_c2_; }
  SimTime compile_cpu() const { return compile_cpu_; }
  std::int64_t code_cache_used() const { return static_cast<std::int64_t>(cache_used_); }
  bool compiler_disabled() const { return compiler_disabled_; }
  std::int64_t flush_count() const { return flush_count_; }

 private:
  // Tier of a bucket's installed code: 0 interpreter, 1 = C1, 2 = C2.
  struct Bucket {
    double weight = 0;         ///< share of execution
    double invocation_rate = 0;  ///< per-method invocations per work unit
    double invocations = 0;    ///< per-method count so far
    int tier = 0;
    int pending_tier = -1;     ///< tier queued/in-flight, -1 = none
    double code_c1 = 0;        ///< installed code bytes
    double code_c2 = 0;
    /// Cached next_tier_for(), and the invocation count at which that tier
    /// is enqueued (infinity while a job is pending or none is due).
    /// refresh_next_tier() must follow every change to tier, pending_tier
    /// or compiler_disabled_.
    int next_tier = -1;
    double trigger = 0;
  };
  struct Job {
    std::size_t bucket = 0;
    int tier = 1;
    double remaining_bytes = 0;
    double total_bytes = 0;
    bool in_flight = false;
  };

  double threshold_for(int tier) const;
  int next_tier_for(const Bucket& bucket) const;  ///< -1 when fully compiled
  void refresh_next_tier(Bucket& bucket);
  void refresh_speed_mix();
  void enqueue(std::size_t index, int tier);
  void start_pending_jobs();
  void complete_job(const Job& job);
  bool ensure_cache_space(double bytes);

  JitParams params_;
  MachineSpec machine_;
  double jni_frac_ = 0;
  double vector_frac_ = 0;
  double crypto_frac_ = 0;
  double interp_speed_ = 0.07;
  double c1_speed_ = 0.55;
  double methods_per_bucket_ = 1;
  double code_size_per_method_ = 1200;  ///< bloat-scaled compiled size
  double compile_all_inflation_ = 1.0;  ///< -Xcomp loaded/executed ratio
  double threshold_scale_ = 1.0;        ///< >1 when OSR is off
  /// Execution speed of code at each tier (interpreter, C1, C2), fixed
  /// once the -Xcomp quality adjustments are applied.
  double tier_speed_[3] = {};
  /// speed_mix() result; stale while speed_mix_dirty_ (a tier changed).
  double speed_mix_ = 0;
  bool speed_mix_dirty_ = false;

  std::vector<Bucket> buckets_;
  std::deque<Job> queue_;  ///< front `compiler_threads` jobs are in flight
  int busy_ = 0;           ///< in-flight jobs in queue_
  double cache_used_ = 0;
  bool compiler_disabled_ = false;

  std::int64_t compiles_c1_ = 0;
  std::int64_t compiles_c2_ = 0;
  std::int64_t flush_count_ = 0;
  SimTime compile_cpu_;
};

}  // namespace jat
