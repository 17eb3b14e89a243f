#include "jvmsim/jit_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace jat {

namespace {

constexpr int kBucketCount = 48;
/// C2 code is denser in optimisation but larger in bytes than C1 output.
constexpr double kC2SizeFactor = 1.4;
/// Tier-3 (C1 with profiling) code carries instrumentation overhead.
constexpr double kProfiledC1SizeFactor = 1.15;
/// The client compiler triggers far earlier than the server default.
constexpr double kClientThresholdScale = 0.15;
/// A flushed method restarts with half its trigger budget already earned,
/// so still-hot flushed code recompiles quickly (and can thrash).
constexpr double kFlushRestartFraction = 0.5;

double harmonic_pair(double frac_special, double special_speed) {
  // Speed of code whose `frac_special` portion runs `special_speed` times
  // faster than the rest (time-weighted composition).
  if (frac_special <= 0.0 || special_speed <= 0.0) return 1.0;
  return 1.0 / ((1.0 - frac_special) + frac_special / special_speed);
}

}  // namespace

JitModel::JitModel(const JitParams& params, const WorkloadSpec& workload,
                   const MachineSpec& machine)
    : params_(params),
      machine_(machine),
      jni_frac_(workload.jni_frac),
      vector_frac_(workload.vector_frac),
      crypto_frac_(workload.crypto_frac),
      interp_speed_(workload.interpreter_speed),
      c1_speed_(workload.c1_speed) {
  const int bucket_count = std::min(kBucketCount, std::max(1, workload.method_count));
  methods_per_bucket_ =
      static_cast<double>(workload.method_count) / bucket_count;
  // On-stack replacement lets backedge counters trigger compiles long
  // before the invocation thresholds would: loop-dominated code (high
  // vectorisable fraction) warms up almost immediately when OSR is on,
  // and pays dearly when it is off.
  threshold_scale_ = params_.osr
                         ? 1.0 / (1.0 + 4.0 * workload.vector_frac)
                         : 1.8 * (1.0 + 2.0 * workload.vector_frac);

  // Zipf execution weights; bucket 0 is the hottest.
  buckets_.resize(static_cast<std::size_t>(bucket_count));
  double total_weight = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].weight =
        std::pow(static_cast<double>(i + 1), -workload.hot_zipf_exponent);
    total_weight += buckets_[i].weight;
  }
  for (auto& bucket : buckets_) {
    bucket.weight /= total_weight;
    bucket.invocation_rate =
        bucket.weight * workload.invocations_per_work / methods_per_bucket_;
    refresh_next_tier(bucket);
  }

  code_size_per_method_ = workload.code_size_per_method * params_.code_bloat;

  if (params_.compile_all && !params_.interpret_only) {
    // -Xcomp: every *loaded* method is compiled before it first runs, with
    // no profile data. Programs load far more methods than ever get hot,
    // so each bucket's job is inflated by the loaded/executed ratio, and
    // the profile-free code is slower than profile-guided output.
    const double loaded_methods =
        std::max<double>(workload.method_count,
                         static_cast<double>(workload.startup_classes) * 8.0);
    compile_all_inflation_ =
        loaded_methods / static_cast<double>(workload.method_count);
    params_.c2_quality *= 0.92;
    params_.c1_quality *= 0.95;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i].next_tier > 0) enqueue(i, buckets_[i].next_tier);
    }
    start_pending_jobs();
  }

  const double crypto = harmonic_pair(crypto_frac_, params_.crypto_speed);
  const double vec = harmonic_pair(vector_frac_, params_.vector_quality);
  tier_speed_[0] = interp_speed_ * params_.interpreter_quality;
  // C1 gets intrinsics but not the vectorising optimisations.
  tier_speed_[1] = c1_speed_ * params_.c1_quality * crypto;
  tier_speed_[2] = params_.c2_quality * crypto * vec;
  refresh_speed_mix();
}

double JitModel::threshold_for(int tier) const {
  double base;
  if (params_.client_vm) {
    base = static_cast<double>(params_.compile_threshold) * kClientThresholdScale;
  } else if (!params_.tiered) {
    base = static_cast<double>(params_.compile_threshold);
  } else if (tier == 1) {
    base = static_cast<double>(params_.tier3_invocations);
  } else {
    base = static_cast<double>(params_.tier4_invocations);
  }
  return std::max(1.0, base * threshold_scale_);
}

int JitModel::next_tier_for(const Bucket& bucket) const {
  if (params_.interpret_only || compiler_disabled_) return -1;
  const int top_tier = [&] {
    if (params_.client_vm) return 1;
    if (!params_.tiered) return 2;
    if (params_.stop_at_level <= 0) return 0;
    return params_.stop_at_level >= 4 ? 2 : 1;
  }();
  const int current = std::max(bucket.tier, bucket.pending_tier);
  if (current >= top_tier) return -1;
  // Non-tiered server jumps straight to C2; tiered goes through C1 first.
  if (!params_.tiered && !params_.client_vm) return 2;
  return current + 1;
}

void JitModel::refresh_next_tier(Bucket& bucket) {
  bucket.next_tier = next_tier_for(bucket);
  bucket.trigger = bucket.pending_tier < 0 && bucket.next_tier > 0
                       ? threshold_for(bucket.next_tier)
                       : std::numeric_limits<double>::infinity();
}

void JitModel::refresh_speed_mix() {
  // Harmonic composition: time per unit of work is the weighted sum of
  // per-bucket times; JNI work runs at fixed speed 1.
  double time = jni_frac_ / 1.0;
  for (const Bucket& bucket : buckets_) {
    time += (1.0 - jni_frac_) * bucket.weight / tier_speed_[bucket.tier];
  }
  speed_mix_ = 1.0 / time;
  speed_mix_dirty_ = false;
}

double JitModel::work_until_next_enqueue() const {
  double best = std::numeric_limits<double>::infinity();
  for (const Bucket& bucket : buckets_) {
    if (bucket.invocation_rate <= 0) continue;
    // An infinite trigger yields an infinite wait, which never wins.
    const double need = bucket.trigger - bucket.invocations;
    best = std::min(best, std::max(0.0, need) / bucket.invocation_rate);
  }
  return best;
}

SimTime JitModel::time_until_next_completion() const {
  const double rate_c1 = machine_.c1_compile_rate;
  const double rate_c2 = machine_.c2_compile_rate;
  double best_seconds = std::numeric_limits<double>::infinity();
  for (const Job& job : queue_) {
    if (!job.in_flight) continue;
    const double rate = job.tier == 2 ? rate_c2 : rate_c1;
    best_seconds = std::min(best_seconds, job.remaining_bytes / rate);
  }
  if (!std::isfinite(best_seconds)) return SimTime::infinite();
  // Round up so callers that advance exactly this long always complete the
  // job (truncation would strand sub-microsecond remainders forever).
  return SimTime::micros(
      static_cast<std::int64_t>(std::ceil(best_seconds * 1e6)) + 1);
}

void JitModel::advance(double work_delta, SimTime time_delta) {
  // 1. Invocation counters advance with application work.
  if (work_delta > 0) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      Bucket& bucket = buckets_[i];
      bucket.invocations += bucket.invocation_rate * work_delta;
      if (bucket.invocations >= bucket.trigger) enqueue(i, bucket.next_tier);
    }
  }

  // 2. Compile progress advances with wall time.
  if (time_delta > SimTime::zero()) {
    const double seconds = time_delta.as_seconds();
    std::vector<Job> finished;
    for (Job& job : queue_) {
      if (!job.in_flight) continue;
      const double rate =
          job.tier == 2 ? machine_.c2_compile_rate : machine_.c1_compile_rate;
      job.remaining_bytes -= rate * seconds;
      if (job.remaining_bytes <= 1e-3) finished.push_back(job);
    }
    if (!finished.empty()) {
      std::erase_if(queue_, [](const Job& job) {
        return job.in_flight && job.remaining_bytes <= 1e-3;
      });
      busy_ -= static_cast<int>(finished.size());
      for (const Job& job : finished) complete_job(job);
    }
  }
  if (speed_mix_dirty_) refresh_speed_mix();
  start_pending_jobs();
}

void JitModel::enqueue(std::size_t index, int tier) {
  Bucket& bucket = buckets_[index];
  bucket.pending_tier = tier;
  refresh_next_tier(bucket);
  Job job;
  job.bucket = index;
  job.tier = tier;
  const double size_factor =
      tier == 2 ? kC2SizeFactor
                : (params_.tiered ? kProfiledC1SizeFactor : 1.0);
  job.total_bytes = methods_per_bucket_ * code_size_per_method_ * size_factor *
                    compile_all_inflation_;
  job.remaining_bytes = job.total_bytes;
  queue_.push_back(job);
}

void JitModel::start_pending_jobs() {
  // Compiler threads beyond the machine's cores cannot compile in parallel.
  const int max_parallel = std::min(params_.compiler_threads, machine_.cores);
  for (Job& job : queue_) {
    if (busy_ >= max_parallel) break;
    if (!job.in_flight) {
      job.in_flight = true;
      ++busy_;
    }
  }
}

bool JitModel::ensure_cache_space(double bytes) {
  if (cache_used_ + bytes <= static_cast<double>(params_.code_cache_capacity)) {
    return true;
  }
  if (!params_.code_cache_flushing) {
    // JDK-7 behaviour: "CodeCache is full. Compiler has been disabled."
    compiler_disabled_ = true;
    for (Bucket& bucket : buckets_) {
      if (bucket.pending_tier >= 0 && bucket.tier < bucket.pending_tier) {
        bucket.pending_tier = -1;
      }
      refresh_next_tier(bucket);
    }
    queue_.clear();
    busy_ = 0;
    return false;
  }
  // Flush coldest compiled buckets until the new code fits.
  while (cache_used_ + bytes > static_cast<double>(params_.code_cache_capacity)) {
    Bucket* coldest = nullptr;
    for (Bucket& bucket : buckets_) {
      if (bucket.code_c1 + bucket.code_c2 <= 0) continue;
      if (coldest == nullptr || bucket.weight < coldest->weight) coldest = &bucket;
    }
    if (coldest == nullptr) return false;  // nothing left to flush
    cache_used_ -= coldest->code_c1 + coldest->code_c2;
    coldest->code_c1 = 0;
    coldest->code_c2 = 0;
    coldest->tier = 0;
    speed_mix_dirty_ = true;
    refresh_next_tier(*coldest);
    if (std::isfinite(coldest->trigger)) {
      // The method interprets again; if it stays hot it re-earns a compile.
      coldest->invocations = coldest->trigger * kFlushRestartFraction;
    }
    ++flush_count_;
  }
  return true;
}

void JitModel::complete_job(const Job& job) {
  Bucket& bucket = buckets_[job.bucket];
  const double rate =
      job.tier == 2 ? machine_.c2_compile_rate : machine_.c1_compile_rate;
  compile_cpu_ += SimTime::seconds(job.total_bytes / rate);
  bucket.pending_tier = -1;
  if (!ensure_cache_space(job.total_bytes)) {
    refresh_next_tier(bucket);
    return;
  }

  cache_used_ += job.total_bytes;
  if (job.tier == 2) {
    bucket.code_c2 = job.total_bytes;
    if (!params_.tiered) {
      bucket.code_c1 = 0;  // nothing to replace
    }
    bucket.tier = 2;
    compiles_c2_ += static_cast<std::int64_t>(methods_per_bucket_ + 0.5);
    // Once C2 code is installed the profiled C1 version is made not-entrant
    // and reclaimed by the sweeper.
    if (bucket.code_c1 > 0) {
      cache_used_ -= bucket.code_c1;
      bucket.code_c1 = 0;
    }
  } else {
    bucket.code_c1 = job.total_bytes;
    bucket.tier = std::max(bucket.tier, 1);
    compiles_c1_ += static_cast<std::int64_t>(methods_per_bucket_ + 0.5);
  }
  speed_mix_dirty_ = true;
  refresh_next_tier(bucket);
  // A newly installed tier may immediately qualify for the next one.
  if (bucket.invocations >= bucket.trigger) enqueue(job.bucket, bucket.next_tier);
}

}  // namespace jat
