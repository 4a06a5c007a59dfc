#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/tuning_cache.h"

namespace gpl {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ScopedHostParallelism scope(4);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> touched(kN);
  for (auto& t : touched) t.store(0);
  ParallelFor(0, kN, /*grain=*/64, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) touched[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ChunkBoundariesAreFixedRegardlessOfParallelism) {
  // The determinism contract: chunks are [begin + k*grain, ...) whether the
  // loop runs serially or on many threads.
  constexpr int64_t kBegin = 5, kEnd = 1003, kGrain = 100;
  std::set<std::pair<int64_t, int64_t>> expected;
  for (int64_t b = kBegin; b < kEnd; b += kGrain) {
    expected.emplace(b, std::min(b + kGrain, kEnd));
  }
  for (int threads : {1, 2, 8}) {
    ScopedHostParallelism scope(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> seen;
    ParallelFor(kBegin, kEnd, kGrain, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace(b, e);
    });
    EXPECT_EQ(seen, expected) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleChunkRanges) {
  ScopedHostParallelism scope(8);
  int calls = 0;
  ParallelFor(10, 10, 4, [&](int64_t, int64_t) { calls++; });
  EXPECT_EQ(calls, 0);

  std::atomic<int64_t> sum{0};
  ParallelFor(0, 3, 1024, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPoolTest, SerialScopeRunsInlineInOrder) {
  // CurrentHostParallelism defaults to 1: chunks run on the caller, in
  // order, so even order-dependent bodies behave like a plain loop.
  EXPECT_EQ(CurrentHostParallelism(), 1);
  std::vector<int64_t> order;
  ParallelFor(0, 100, 10,
              [&](int64_t b, int64_t) { order.push_back(b); });
  ASSERT_EQ(order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ThreadPoolTest, ScopedHostParallelismResolvesAndRestores) {
  EXPECT_EQ(CurrentHostParallelism(), 1);
  {
    ScopedHostParallelism outer(6);
    EXPECT_EQ(outer.resolved(), 6);
    EXPECT_EQ(CurrentHostParallelism(), 6);
    {
      ScopedHostParallelism inner(1);
      EXPECT_EQ(CurrentHostParallelism(), 1);
    }
    EXPECT_EQ(CurrentHostParallelism(), 6);
  }
  EXPECT_EQ(CurrentHostParallelism(), 1);

  // <= 0 resolves to the hardware concurrency.
  ScopedHostParallelism defaulted(0);
  EXPECT_EQ(defaulted.resolved(), HostHardwareThreads());
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ScopedHostParallelism scope(4);
  std::atomic<int64_t> total{0};
  ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Nested loop on the same shared pool; caller participation keeps it
      // deadlock-free even with every worker busy in the outer loop.
      ParallelFor(0, 1000, 50, [&](int64_t ib, int64_t ie) {
        int64_t s = 0;
        for (int64_t j = ib; j < ie; ++j) s += j;
        total += s;
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * (999 * 1000 / 2));
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  ThreadPool pool(2);
  constexpr int kTasks = 100;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, ConcurrentParallelForFromManyThreads) {
  // QueryService shape: several host threads each run their own scoped
  // parallel loops over the one global pool.
  constexpr int kCallers = 4;
  constexpr int64_t kN = 20'000;
  std::vector<int64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &sums] {
      ScopedHostParallelism scope(4);
      std::atomic<int64_t> sum{0};
      ParallelFor(0, kN, 256, [&](int64_t b, int64_t e) {
        int64_t s = 0;
        for (int64_t i = b; i < e; ++i) s += i;
        sum += s;
      });
      sums[static_cast<size_t>(c)] = sum.load();
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[static_cast<size_t>(c)], (kN - 1) * kN / 2);
  }
}

TEST(ThreadPoolTest, PoolGrowsOnDemandAndClampsToMax) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  pool.EnsureThreads(3);
  EXPECT_EQ(pool.num_threads(), 3);
  pool.EnsureThreads(2);  // never shrinks
  EXPECT_EQ(pool.num_threads(), 3);
  pool.EnsureThreads(ThreadPool::kMaxThreads + 100);
  EXPECT_EQ(pool.num_threads(), ThreadPool::kMaxThreads);
}

model::TuningChoice MakeChoice(int64_t tile_bytes) {
  model::TuningChoice choice;
  choice.params.tile_bytes = tile_bytes;
  choice.params.workgroups = {64, 128};
  choice.estimate.total_cycles = static_cast<double>(tile_bytes) * 0.5;
  return choice;
}

TEST(TuningCacheTest, LookupInsertAndStats) {
  model::TuningCache cache;
  EXPECT_FALSE(cache.Lookup("k1").has_value());
  cache.Insert("k1", MakeChoice(1024));
  const auto hit = cache.Lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->params.tile_bytes, 1024);
  EXPECT_EQ(hit->params.workgroups, (std::vector<int>{64, 128}));

  const model::TuningCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(TuningCacheTest, FirstInsertWins) {
  model::TuningCache cache;
  cache.Insert("k", MakeChoice(100));
  cache.Insert("k", MakeChoice(999));  // benign double-miss: ignored
  EXPECT_EQ(cache.Lookup("k")->params.tile_bytes, 100);
}

TEST(TuningCacheTest, SignatureDistinguishesDeviceDescAndOverrides) {
  const sim::DeviceSpec amd = sim::DeviceSpec::AmdA10();
  const sim::DeviceSpec nvidia = sim::DeviceSpec::NvidiaK40();

  model::SegmentDesc desc;
  desc.input_bytes = 1 << 20;
  model::StageDesc stage;
  stage.timing.name = "k_map";
  stage.rows_in = 1000.0;
  stage.bytes_in = 8000.0;
  stage.rows_out = 1000.0;
  stage.bytes_out = 8000.0;
  desc.stages.push_back(stage);

  const model::TuningOverrides none;
  const std::string base =
      model::TuningCache::SegmentSignature(amd, desc, none, "gpl");
  EXPECT_NE(base,
            model::TuningCache::SegmentSignature(nvidia, desc, none, "gpl"));

  model::SegmentDesc other = desc;
  other.stages[0].rows_out = 1001.0;
  EXPECT_NE(base,
            model::TuningCache::SegmentSignature(amd, other, none, "gpl"));

  model::TuningOverrides pinned;
  pinned.tile_bytes = 1 << 20;
  EXPECT_NE(base,
            model::TuningCache::SegmentSignature(amd, desc, pinned, "gpl"));

  // The engine scope is part of the key: the same segment tuned under
  // another engine mode (or fusion grouping) must never alias.
  EXPECT_NE(base,
            model::TuningCache::SegmentSignature(amd, desc, none, "noce"));
  EXPECT_NE(base,
            model::TuningCache::SegmentSignature(amd, desc, none, "fused:1"));

  // Deterministic: the same inputs always produce the same key.
  EXPECT_EQ(base, model::TuningCache::SegmentSignature(amd, desc, none, "gpl"));
}

TEST(TuningCacheTest, ConcurrentLookupInsertIsSafe) {
  model::TuningCache cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int rep = 0; rep < 50; ++rep) {
        for (int k = 0; k < kKeys; ++k) {
          const std::string key = "key" + std::to_string(k);
          if (auto cached = cache.Lookup(key)) {
            // Values are keyed by construction: any racing insert stored
            // the same payload.
            EXPECT_EQ(cached->params.tile_bytes, k);
          } else {
            cache.Insert(key, MakeChoice(k));
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  const model::TuningCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * 50 * kKeys);
}

}  // namespace
}  // namespace gpl
