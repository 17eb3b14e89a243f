#include "jvmsim/heap_sim.hpp"

#include <gtest/gtest.h>

#include "support/units.hpp"

namespace jat {
namespace {

constexpr double kMiBd = 1024.0 * 1024.0;

HeapParams small_heap() {
  HeapParams h;
  h.max_heap = 256 * kMiB;
  h.initial_heap = 64 * kMiB;
  h.young_size = 64 * kMiB;
  h.max_young_size = 85 * kMiB;
  h.survivor_ratio = 8;
  h.max_tenuring = 15;
  h.adaptive_sizing = true;
  return h;
}

WorkloadSpec plain_workload() {
  WorkloadSpec w;
  w.name = "t";
  w.total_work = 1000;
  w.short_lived_frac = 0.9;
  w.mid_lived_frac = 0.05;
  w.long_lived_bytes = 8 * kMiBd;
  w.short_lifetime_alloc = 2 * kMiBd;
  w.mid_lifetime_alloc = 32 * kMiBd;
  return w;
}

TEST(HeapSim, LayoutFollowsSurvivorRatio) {
  HeapSim heap(small_heap(), plain_workload(), 1.0, 1e9);
  // young = eden + 2 survivors, eden/survivor = ratio.
  EXPECT_NEAR(heap.eden_capacity() + 2 * heap.survivor_capacity(),
              heap.young_size(), 1.0);
  EXPECT_NEAR(heap.eden_capacity() / heap.survivor_capacity(), 8.0, 1e-9);
  EXPECT_NEAR(heap.young_size() + heap.old_capacity(), 256 * kMiBd, 1.0);
}

TEST(HeapSim, AllocationFillsEden) {
  HeapSim heap(small_heap(), plain_workload(), 1.0, 1e9);
  EXPECT_FALSE(heap.eden_full());
  heap.allocate(heap.eden_capacity() * 0.5);
  EXPECT_FALSE(heap.eden_full());
  heap.allocate(heap.eden_capacity() * 0.5);
  EXPECT_TRUE(heap.eden_full());
}

TEST(HeapSim, ScavengeEmptiesEden) {
  HeapSim heap(small_heap(), plain_workload(), 1.0, 1e9);
  heap.allocate(heap.eden_capacity());
  const auto result = heap.scavenge();
  EXPECT_EQ(heap.eden_used(), 0.0);
  EXPECT_GT(result.copied_bytes, 0.0);
  EXPECT_FALSE(result.promotion_failure);
}

TEST(HeapSim, ShortLivedMostlyDieWithLargeEden) {
  WorkloadSpec w = plain_workload();
  w.mid_lived_frac = 0.0;
  w.long_lived_bytes = 0.0;
  HeapSim heap(small_heap(), w, 1.0, 1e9);
  heap.allocate(heap.eden_capacity());
  const auto result = heap.scavenge();
  // Only objects within the short lifetime window survive.
  EXPECT_LE(result.copied_bytes, w.short_lifetime_alloc * w.short_lived_frac + 1);
  EXPECT_EQ(result.promoted_bytes, 0.0);
}

TEST(HeapSim, SmallEdenSurvivesProportionallyMore) {
  WorkloadSpec w = plain_workload();
  w.mid_lived_frac = 0.0;
  w.long_lived_bytes = 0.0;

  HeapParams big = small_heap();
  HeapSim big_heap(big, w, 1.0, 1e9);
  HeapParams tiny = small_heap();
  tiny.young_size = 4 * kMiB;
  tiny.max_young_size = 4 * kMiB;
  HeapSim tiny_heap(tiny, w, 1.0, 1e9);

  big_heap.allocate(big_heap.eden_capacity());
  tiny_heap.allocate(tiny_heap.eden_capacity());
  const double big_frac =
      big_heap.scavenge().copied_bytes / big_heap.eden_capacity();
  const double tiny_frac =
      tiny_heap.scavenge().copied_bytes / tiny_heap.eden_capacity();
  EXPECT_GT(tiny_frac, big_frac);
}

TEST(HeapSim, LongLivedEventuallyPromote) {
  HeapSim heap(small_heap(), plain_workload(), 1.0, 64 * kMiBd);
  for (int i = 0; i < 40; ++i) {
    heap.allocate(heap.eden_capacity());
    heap.scavenge();
  }
  EXPECT_GT(heap.old_live(), 4 * kMiBd);
}

TEST(HeapSim, ZeroTenuringPromotesEverythingImmediately) {
  HeapParams h = small_heap();
  h.max_tenuring = 0;
  h.initial_tenuring = 0;
  h.adaptive_sizing = false;
  WorkloadSpec w = plain_workload();
  HeapSim heap(h, w, 1.0, 1e9);
  heap.allocate(heap.eden_capacity());
  const auto result = heap.scavenge();
  EXPECT_GT(result.promoted_bytes, 0.0);
  EXPECT_EQ(result.tenuring_threshold, 0);
}

TEST(HeapSim, HighTenuringKeepsMidLivedOutOfOldGen) {
  WorkloadSpec w = plain_workload();
  w.long_lived_bytes = 0.0;

  HeapParams keep = small_heap();
  keep.adaptive_sizing = false;
  keep.max_tenuring = 15;
  HeapParams promote = keep;
  promote.max_tenuring = 1;

  HeapSim keeper(keep, w, 1.0, 1e12);
  HeapSim promoter(promote, w, 1.0, 1e12);
  for (int i = 0; i < 10; ++i) {
    keeper.allocate(keeper.eden_capacity());
    keeper.scavenge();
    promoter.allocate(promoter.eden_capacity());
    promoter.scavenge();
  }
  EXPECT_LT(keeper.old_used(), promoter.old_used());
}

TEST(HeapSim, SurvivorOverflowPromotes) {
  WorkloadSpec w = plain_workload();
  w.mid_lived_frac = 0.6;  // way more than survivor space can hold
  w.short_lived_frac = 0.2;
  w.mid_lifetime_alloc = 1e12;  // effectively immortal mid-lived
  HeapParams h = small_heap();
  h.adaptive_sizing = false;
  HeapSim heap(h, w, 1.0, 1e12);
  heap.allocate(heap.eden_capacity());
  const auto r1 = heap.scavenge();
  heap.allocate(heap.eden_capacity());
  const auto r2 = heap.scavenge();
  EXPECT_GT(r1.promoted_bytes + r2.promoted_bytes, 0.0);
}

TEST(HeapSim, PromotionFailureWhenOldCannotAbsorb) {
  HeapParams h = small_heap();
  h.max_heap = 32 * kMiB;
  h.young_size = 24 * kMiB;
  h.max_young_size = 24 * kMiB;
  h.max_tenuring = 0;
  h.adaptive_sizing = false;
  WorkloadSpec w = plain_workload();
  w.mid_lived_frac = 0.8;
  w.short_lived_frac = 0.1;
  w.mid_lifetime_alloc = 1e12;
  HeapSim heap(h, w, 1.0, 1e12);
  bool failed = false;
  for (int i = 0; i < 10 && !failed; ++i) {
    heap.allocate(heap.eden_capacity());
    failed = heap.scavenge().promotion_failure;
  }
  EXPECT_TRUE(failed);
}

TEST(HeapSim, CollectOldReclaimsGarbageAndCompactionClearsFragmentation) {
  WorkloadSpec w = plain_workload();
  w.mid_lived_frac = 0.4;
  w.short_lived_frac = 0.4;
  HeapParams h = small_heap();
  h.max_tenuring = 1;
  h.adaptive_sizing = false;
  HeapSim heap(h, w, 1.0, 1e12);
  for (int i = 0; i < 20; ++i) {
    heap.allocate(heap.eden_capacity());
    heap.scavenge();
  }
  ASSERT_GT(heap.old_dead(), 0.0);

  // Sweep (CMS): reclaims but fragments.
  const auto sweep = heap.collect_old(/*compact=*/false);
  EXPECT_GT(sweep.reclaimed, 0.0);
  EXPECT_EQ(sweep.moved, 0.0);
  EXPECT_GT(heap.fragmentation(), 0.0);
  EXPECT_EQ(heap.old_dead(), 0.0);

  // Compaction clears the fragmentation.
  const auto compact = heap.collect_old(/*compact=*/true);
  EXPECT_GT(compact.moved, 0.0);
  EXPECT_EQ(heap.fragmentation(), 0.0);
}

TEST(HeapSim, ReclaimOldDeadPartial) {
  WorkloadSpec w = plain_workload();
  w.mid_lived_frac = 0.4;
  w.short_lived_frac = 0.4;
  HeapParams h = small_heap();
  h.max_tenuring = 1;
  h.adaptive_sizing = false;
  HeapSim heap(h, w, 1.0, 1e12);
  for (int i = 0; i < 20; ++i) {
    heap.allocate(heap.eden_capacity());
    heap.scavenge();
  }
  const double dead = heap.old_dead();
  ASSERT_GT(dead, 2.0);
  const double got = heap.reclaim_old_dead(dead / 2);
  EXPECT_NEAR(got, dead / 2, 1.0);
  EXPECT_NEAR(heap.old_dead(), dead / 2, 1.0);
  // Asking for more than available returns what exists.
  EXPECT_NEAR(heap.reclaim_old_dead(1e18), dead / 2, 1.0);
}

TEST(HeapSim, SetYoungSizeClampsToOldContents) {
  HeapSim heap(small_heap(), plain_workload(), 1.0, 64 * kMiBd);
  for (int i = 0; i < 30; ++i) {
    heap.allocate(heap.eden_capacity());
    heap.scavenge();
  }
  const double old_used = heap.old_used();
  ASSERT_GT(old_used, 0.0);
  // Try to grab almost the whole heap for the young generation.
  heap.set_young_size(250 * kMiBd);
  EXPECT_GE(heap.old_capacity(), old_used);
}

TEST(HeapSim, DivertedAllocationBypassesEden) {
  WorkloadSpec w = plain_workload();
  HeapSim heap(small_heap(), w, 1.0, 1e9);
  heap.set_divert_frac(0.5);
  heap.allocate(10 * kMiBd);
  EXPECT_NEAR(heap.eden_used(), 5 * kMiBd, 1.0);
  EXPECT_NEAR(heap.old_used(), 5 * kMiBd, 1.0);
}

TEST(HeapSim, PretenureThresholdEnablesDiversion) {
  WorkloadSpec w = plain_workload();
  w.humongous_frac = 0.2;
  HeapParams h = small_heap();
  h.pretenure_threshold = 512 * kKiB;
  HeapSim heap(h, w, 1.0, 1e9);
  heap.allocate(10 * kMiBd);
  EXPECT_GT(heap.old_used(), 1 * kMiBd);
}

TEST(HeapSim, FootprintFactorScalesLiveBytes) {
  WorkloadSpec w = plain_workload();
  HeapSim narrow(small_heap(), w, 1.0, 64 * kMiBd);
  HeapSim wide(small_heap(), w, 1.25, 64 * kMiBd);
  for (int i = 0; i < 30; ++i) {
    narrow.allocate(narrow.eden_capacity());
    narrow.scavenge();
    wide.allocate(wide.eden_capacity());
    wide.scavenge();
  }
  EXPECT_GT(wide.old_live(), narrow.old_live());
}

TEST(HeapSim, PeakTracksHighWater) {
  HeapSim heap(small_heap(), plain_workload(), 1.0, 1e9);
  heap.allocate(heap.eden_capacity() * 0.9);
  const double at_fill = heap.peak_used();
  heap.scavenge();
  EXPECT_GE(heap.peak_used(), at_fill);
  EXPECT_GT(at_fill, heap.eden_capacity() * 0.8);
}

TEST(HeapSim, OccupancyFractionsInRange) {
  HeapSim heap(small_heap(), plain_workload(), 1.0, 64 * kMiBd);
  for (int i = 0; i < 30; ++i) {
    heap.allocate(heap.eden_capacity());
    heap.scavenge();
    EXPECT_GE(heap.heap_occupancy_frac(), 0.0);
    EXPECT_LE(heap.heap_occupancy_frac(), 1.2);
    EXPECT_GE(heap.old_occupancy_frac(), 0.0);
  }
}

// Bounds that cross (max_young_size below 1 MiB): the upper bound wins.
TEST(HeapSim, YoungSizeBelowOneMiBKeepsTheUpperBound) {
  HeapParams h = small_heap();
  h.young_size = 512 * kKiB;
  h.max_young_size = 512 * kKiB;
  HeapSim heap(h, plain_workload(), 1.0, 1e9);
  EXPECT_EQ(heap.young_size(), 524288.0);
  heap.set_young_size(8 * kMiBd);
  EXPECT_EQ(heap.young_size(), 524288.0);
}

}  // namespace
}  // namespace jat
