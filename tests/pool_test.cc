#include "pool/subplan_cache.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gpl {
namespace {

using pool::PagePoolStats;
using pool::SubplanCache;
using pool::SubplanCacheOptions;
using pool::SubplanCacheStats;

constexpr int64_t kPage = SubplanCache::kPageBytes;

SubplanCacheOptions SmallCache(int64_t pages) {
  SubplanCacheOptions options;
  options.capacity_bytes = pages * kPage;
  return options;
}

SubplanCache::Payload IntPayload(int value) {
  return std::static_pointer_cast<const void>(std::make_shared<int>(value));
}

int PayloadValue(const SubplanCache::Payload& payload) {
  return *static_cast<const int*>(payload.get());
}

/// Owns and publishes `key` in one step (the single-threaded miss path).
void PublishNew(SubplanCache& cache, const std::string& key, int64_t bytes,
                int value = 0) {
  ASSERT_TRUE(cache.Acquire(key).owner);
  cache.Publish(key, IntPayload(value), bytes, /*cost_ms=*/1.0);
}

// ---------------------------------------------------------------------------
// Page budget: SubplanCache::pool_stats(). Every retained entry is charged
// ceil(bytes / kPageBytes) pages; `payload_bytes` mirrors stats().bytes.
// ---------------------------------------------------------------------------

TEST(PagePoolTest, AcquireRoundsUpToWholePagesAndTracksWaste) {
  SubplanCache cache(SmallCache(8));
  PublishNew(cache, "k", kPage + kPage / 2);  // 1.5 pages -> 2 pages

  const PagePoolStats stats = cache.pool_stats();
  EXPECT_EQ(stats.page_bytes, kPage);
  EXPECT_EQ(stats.total_pages, 8);
  EXPECT_EQ(stats.used_pages, 2);
  EXPECT_EQ(stats.payload_bytes, kPage + kPage / 2);
  EXPECT_EQ(stats.payload_bytes, cache.stats().bytes);
  EXPECT_EQ(stats.waste_bytes, kPage / 2);
  EXPECT_DOUBLE_EQ(stats.Occupancy(), 2.0 / 8.0);

  cache.Clear();
  const PagePoolStats after = cache.pool_stats();
  EXPECT_EQ(after.used_pages, 0);
  EXPECT_EQ(after.payload_bytes, 0);
  EXPECT_EQ(after.waste_bytes, 0);
}

TEST(PagePoolTest, ZeroPayloadAlwaysSucceedsWithEmptyRun) {
  SubplanCache cache(SmallCache(0));  // capacity 0: no pages at all
  PublishNew(cache, "empty", 0);
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.pool_stats().used_pages, 0);
  EXPECT_TRUE(cache.Acquire("empty").hit);

  PublishNew(cache, "denied", 1);
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(PagePoolTest, FailedAcquireLeavesPoolUnchanged) {
  SubplanCache cache(SmallCache(2));
  PublishNew(cache, "held", 2 * kPage);  // both pages
  const PagePoolStats before = cache.pool_stats();

  PublishNew(cache, "too_big", 2 * kPage + 1);
  const PagePoolStats after = cache.pool_stats();
  EXPECT_EQ(after.used_pages, before.used_pages);
  EXPECT_EQ(after.payload_bytes, before.payload_bytes);
  EXPECT_EQ(after.waste_bytes, before.waste_bytes);
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

/// Concurrent publish/evict under pressure from many threads: the page books
/// balance — used pages never exceed the budget, the payload mirrors the
/// retained bytes, and a Clear() drains every page.
TEST(PagePoolTest, ConcurrentAcquireReleaseBalancesExactly) {
  SubplanCache cache(SmallCache(16));
  constexpr int kThreads = 8;
  constexpr int kIters = 300;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kIters; ++i) {
        // Deterministic per-thread mix of 32 keys, 0.5 .. 4.5 pages each.
        const int key_id = (t * 7 + i * 3) % 32;
        const std::string key = "k" + std::to_string(key_id);
        SubplanCache::Acquisition acq = cache.Acquire(key);
        if (acq.owner) {
          const int64_t bytes = kPage / 2 + (key_id % 8) * (kPage / 2);
          cache.Publish(key, IntPayload(key_id), bytes, /*cost_ms=*/1.0);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const SubplanCacheStats stats = cache.stats();
  const PagePoolStats pages = cache.pool_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(pages.used_pages, pages.total_pages);
  EXPECT_EQ(pages.payload_bytes, stats.bytes);
  EXPECT_EQ(pages.waste_bytes, pages.used_pages * kPage - stats.bytes);
  EXPECT_GE(pages.waste_bytes, 0);
  EXPECT_LT(pages.waste_bytes, stats.entries * kPage);
  EXPECT_EQ(stats.inserts - stats.evictions,
            static_cast<uint64_t>(stats.entries));

  cache.Clear();
  EXPECT_EQ(cache.pool_stats().used_pages, 0);
  EXPECT_EQ(cache.pool_stats().payload_bytes, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

// ---------------------------------------------------------------------------
// SubplanCache protocol.
// ---------------------------------------------------------------------------

TEST(SubplanCacheTest, MissPublishHitRoundTrip) {
  SubplanCache cache(SmallCache(8));
  SubplanCache::Acquisition first = cache.Acquire("k");
  ASSERT_TRUE(first.owner);
  EXPECT_FALSE(first.hit);
  cache.Publish("k", IntPayload(42), /*bytes=*/100, /*cost_ms=*/1.0);

  SubplanCache::Acquisition second = cache.Acquire("k");
  ASSERT_TRUE(second.hit);
  EXPECT_FALSE(second.owner);
  EXPECT_EQ(PayloadValue(second.payload), 42);

  const SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 100);
}

TEST(SubplanCacheTest, AbortWakesWaiterToBecomeOwner) {
  SubplanCache cache(SmallCache(8));
  SubplanCache::Acquisition owner = cache.Acquire("k");
  ASSERT_TRUE(owner.owner);

  std::thread waiter([&cache] {
    SubplanCache::Acquisition acq = cache.Acquire("k");
    // The owner aborted, so the waiter retried and became the next owner.
    ASSERT_TRUE(acq.owner);
    cache.Abort("k");
  });
  // Give the waiter a chance to block on the in-flight record, then abort.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.Abort("k");
  waiter.join();

  EXPECT_EQ(cache.stats().attaches, 0u);
  EXPECT_EQ(cache.stats().entries, 0);
}

/// Capacity 0 retains nothing, but concurrent queries on one key still share
/// the single in-flight compute (the attach path needs no pages).
TEST(SubplanCacheTest, CapacityZeroStillAttachesInFlight) {
  SubplanCache cache(SmallCache(0));
  SubplanCache::Acquisition owner = cache.Acquire("k");
  ASSERT_TRUE(owner.owner);

  std::thread waiter([&cache] {
    SubplanCache::Acquisition acq = cache.Acquire("k");
    ASSERT_TRUE(acq.hit);
    EXPECT_EQ(PayloadValue(acq.payload), 7);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.Publish("k", IntPayload(7), /*bytes=*/100, /*cost_ms=*/1.0);
  waiter.join();

  const SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.attaches, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 0);  // nothing retained
  EXPECT_EQ(stats.rejected, 1u);
  // A later acquire misses: the payload was served but never kept.
  EXPECT_TRUE(cache.Acquire("k").owner);
  cache.Abort("k");
}

/// Eviction under pressure drops the cheapest/least-reused entries but never
/// invalidates a payload a consumer still holds.
TEST(SubplanCacheTest, EvictsColdEntriesUnderPressureAndKeepsServedPins) {
  SubplanCache cache(SmallCache(4));

  ASSERT_TRUE(cache.Acquire("a").owner);
  cache.Publish("a", IntPayload(1), /*bytes=*/2 * kPage, /*cost_ms=*/1.0);
  SubplanCache::Acquisition pinned = cache.Acquire("a");  // hold the payload
  ASSERT_TRUE(pinned.hit);

  ASSERT_TRUE(cache.Acquire("b").owner);
  cache.Publish("b", IntPayload(2), /*bytes=*/2 * kPage, /*cost_ms=*/1.0);
  EXPECT_EQ(cache.stats().entries, 2);

  // A third 2-page entry cannot fit without evicting; "a" has a hit and "b"
  // does not, so "b" is the victim.
  ASSERT_TRUE(cache.Acquire("c").owner);
  cache.Publish("c", IntPayload(3), /*bytes=*/2 * kPage, /*cost_ms=*/1.0);

  const SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_TRUE(cache.Acquire("b").owner);  // evicted
  cache.Abort("b");
  EXPECT_TRUE(cache.Acquire("a").hit);
  EXPECT_TRUE(cache.Acquire("c").hit);
  // The pinned payload from before the eviction round is still intact.
  EXPECT_EQ(PayloadValue(pinned.payload), 1);
}

/// An entry larger than the whole budget is rejected up front: it must not
/// flush the entries already retained on its way to failing. One exactly as
/// large as the budget still fits, evicting everything else.
TEST(SubplanCacheTest, OversizePublishKeepsRetainedEntries) {
  SubplanCache cache(SmallCache(4));
  PublishNew(cache, "a", kPage, 1);
  PublishNew(cache, "b", kPage, 2);

  PublishNew(cache, "huge", 5 * kPage, 3);
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(cache.pool_stats().used_pages, 2);
  EXPECT_EQ(cache.pool_stats().payload_bytes, stats.bytes);
  EXPECT_TRUE(cache.Acquire("a").hit);
  EXPECT_TRUE(cache.Acquire("b").hit);

  PublishNew(cache, "whole", 4 * kPage, 4);
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(cache.pool_stats().used_pages, 4);
  EXPECT_EQ(cache.pool_stats().payload_bytes, stats.bytes);
  EXPECT_TRUE(cache.Acquire("whole").hit);
}

/// Concurrent acquire/publish on overlapping keys: every thread observes the
/// same payload value per key (single compute, everyone attaches or hits),
/// and the books balance afterwards.
TEST(SubplanCacheTest, ConcurrentAcquirePublishExactness) {
  SubplanCache cache(SmallCache(64));
  constexpr int kThreads = 8;
  constexpr int kKeys = 4;
  constexpr int kIters = 200;
  std::atomic<uint64_t> mismatches{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &mismatches, t] {
      for (int i = 0; i < kIters; ++i) {
        const int key_id = (t + i) % kKeys;
        std::string key("k");
        key += std::to_string(key_id);
        SubplanCache::Acquisition acq = cache.Acquire(key);
        if (acq.owner) {
          cache.Publish(key, IntPayload(key_id), /*bytes=*/512,
                        /*cost_ms=*/1.0);
        } else if (PayloadValue(acq.payload) != key_id) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.entries, kKeys);
  // Hot keys: after the first round everything hits.
  EXPECT_GE(stats.HitRate(), 0.9);
}

TEST(SubplanCacheTest, RegisterGaugesExportsOccupancyAndTraffic) {
  obs::MetricsRegistry registry;
  SubplanCache cache(SmallCache(8));
  std::vector<uint64_t> ids = cache.RegisterGauges(&registry, "test_subplan");
  EXPECT_FALSE(ids.empty());

  ASSERT_TRUE(cache.Acquire("k").owner);
  cache.Publish("k", IntPayload(1), /*bytes=*/1500, /*cost_ms=*/1.0);

  bool saw_entries = false;
  bool saw_waste = false;
  for (const obs::FamilySnapshot& family : registry.Collect()) {
    if (family.name == "test_subplan_entries") {
      saw_entries = true;
      ASSERT_EQ(family.series.size(), 1u);
      EXPECT_DOUBLE_EQ(family.series[0].value, 1.0);
    }
    if (family.name == "test_subplan_pool_waste_bytes") {
      saw_waste = true;
      ASSERT_EQ(family.series.size(), 1u);
      EXPECT_DOUBLE_EQ(family.series[0].value, kPage - 1500.0);
    }
  }
  EXPECT_TRUE(saw_entries);
  EXPECT_TRUE(saw_waste);
  for (uint64_t id : ids) registry.RemoveCallback(id);
}

}  // namespace
}  // namespace gpl
