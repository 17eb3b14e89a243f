// Tuning-time budget accounting.
//
// The paper gives each benchmark a fixed wall-clock tuning budget
// (200 minutes). We charge simulated time instead: every candidate run
// costs its simulated duration plus a fixed harness overhead (JVM spawn,
// result collection), so "improvement vs tuning time" curves have the
// paper's semantics without wall-clock hours. Thread-safe: parallel
// evaluators charge concurrently.
//
// The scheduler bounds concurrent overshoot to one in-flight window by
// admitting work against its own committed ledger (tuner/scheduler.hpp);
// MeteredBudget tells it each evaluation's exact cost across every
// evaluator layer (runner, fault injector, resilience).
#pragma once

#include <atomic>
#include <cstdint>

#include "support/cancellation.hpp"
#include "support/sim_time.hpp"

namespace jat {

class BudgetClock {
 public:
  explicit BudgetClock(SimTime total) : total_(total) {}
  virtual ~BudgetClock() = default;

  BudgetClock(const BudgetClock&) = delete;
  BudgetClock& operator=(const BudgetClock&) = delete;

  SimTime total() const { return total_; }
  virtual SimTime spent() const {
    return SimTime::micros(spent_us_.load(std::memory_order_relaxed));
  }
  SimTime remaining() const {
    const SimTime s = spent();
    return s >= total_ ? SimTime::zero() : total_ - s;
  }
  virtual bool exhausted() const { return spent() >= total_; }

  /// Charges a cost; the clock may overshoot on the run in flight when it
  /// expires (like a real harness finishing its last measurement).
  virtual void charge(SimTime cost) {
    spent_us_.fetch_add(cost.as_micros(), std::memory_order_relaxed);
  }

 private:
  SimTime total_;
  std::atomic<std::int64_t> spent_us_{0};
};

/// Pass-through decorator that forwards to a parent clock (sharing its
/// global spent/exhausted view, so layers like the runner's mid-measurement
/// expiry checks behave identically) while tallying the charges made
/// through *this* instance. One MeteredBudget per measurement gives the
/// scheduler the exact budget cost of that evaluation, whatever evaluator
/// layers charged it. With a null parent it degrades to a free-standing
/// tally with an unlimited budget.
class MeteredBudget final : public BudgetClock {
 public:
  explicit MeteredBudget(BudgetClock* parent)
      : BudgetClock(parent != nullptr ? parent->total() : SimTime::infinite()),
        parent_(parent) {}

  SimTime spent() const override {
    return parent_ != nullptr ? parent_->spent() : metered();
  }

  void charge(SimTime cost) override {
    metered_us_.fetch_add(cost.as_micros(), std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->charge(cost);
  }

  /// Total charged through this decorator (one measurement's cost).
  SimTime metered() const {
    return SimTime::micros(metered_us_.load(std::memory_order_relaxed));
  }

 private:
  BudgetClock* parent_;
  std::atomic<std::int64_t> metered_us_{0};
};

/// Per-measurement deadline decorator: forwards charges to the parent clock
/// but caps the amount this measurement may consume. Once the metered total
/// reaches the deadline, charges are clamped so the parent is never billed
/// past it, exhausted() reports true (which the runner's between-repetition
/// expiry check turns into a cutoff), and an optional CancellationToken is
/// cancelled so cooperative layers below stop early. This is how the
/// resilience layer turns an injected hang — a single lump charge of the
/// full hang timeout — into a bounded, classified kTimeout instead of a
/// budget sinkhole.
class DeadlineBudget final : public BudgetClock {
 public:
  DeadlineBudget(BudgetClock* parent, SimTime deadline,
                 CancellationToken* token = nullptr)
      : BudgetClock(parent != nullptr ? parent->total() : SimTime::infinite()),
        parent_(parent),
        deadline_us_(deadline.as_micros()),
        token_(token) {}

  SimTime spent() const override {
    return parent_ != nullptr ? parent_->spent() : metered();
  }

  bool exhausted() const override {
    return tripped() || (parent_ != nullptr && parent_->exhausted());
  }

  void charge(SimTime cost) override {
    const std::int64_t before =
        metered_us_.fetch_add(cost.as_micros(), std::memory_order_relaxed);
    std::int64_t allowed = cost.as_micros();
    if (before >= deadline_us_) {
      allowed = 0;
    } else if (before + allowed > deadline_us_) {
      allowed = deadline_us_ - before;
    }
    if (before + cost.as_micros() >= deadline_us_ && token_ != nullptr) {
      token_->cancel();
    }
    if (allowed > 0 && parent_ != nullptr) {
      parent_->charge(SimTime::micros(allowed));
    }
  }

  /// Total this measurement attempted to charge (uncapped).
  SimTime metered() const {
    return SimTime::micros(metered_us_.load(std::memory_order_relaxed));
  }
  /// True once the deadline has been hit.
  bool tripped() const {
    return metered_us_.load(std::memory_order_relaxed) >= deadline_us_;
  }

 private:
  BudgetClock* parent_;
  std::int64_t deadline_us_;
  CancellationToken* token_;
  std::atomic<std::int64_t> metered_us_{0};
};

}  // namespace jat
