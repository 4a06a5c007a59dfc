#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "exec/hash_table.h"

namespace gpl {
namespace {

bool HasMatch(const JoinHashTable& ht, int64_t key) {
  std::vector<int64_t> rows;
  ht.Probe(key, &rows);
  return !rows.empty();
}

TEST(JoinHashTableTest, EmptyTableFindsNothing) {
  JoinHashTable ht;
  std::vector<int64_t> rows;
  ht.Probe(42, &rows);
  EXPECT_TRUE(rows.empty());
  EXPECT_FALSE(HasMatch(ht, 42));
  EXPECT_EQ(ht.num_entries(), 0);
}

TEST(JoinHashTableTest, BuildAndProbeSingleMatches) {
  JoinHashTable ht;
  ht.Build({10, 20, 30});
  std::vector<int64_t> rows;
  ht.Probe(20, &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 1);
  EXPECT_TRUE(HasMatch(ht, 10));
  EXPECT_FALSE(HasMatch(ht, 15));
}

TEST(JoinHashTableTest, DuplicateKeysReturnAllRows) {
  JoinHashTable ht;
  ht.Build({7, 8, 7, 9, 7});
  std::vector<int64_t> rows;
  ht.Probe(7, &rows);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<int64_t>{0, 2, 4}));
}

TEST(JoinHashTableTest, RowBaseOffsetsRows) {
  JoinHashTable ht;
  ht.Build({1, 2}, /*row_base=*/100);
  std::vector<int64_t> rows;
  ht.Probe(2, &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 101);
}

TEST(JoinHashTableTest, IncrementalInsertAcrossTiles) {
  JoinHashTable ht;
  ht.Insert({1, 2, 3}, 0);
  ht.Insert({3, 4}, 3);
  EXPECT_EQ(ht.num_entries(), 5);
  std::vector<int64_t> rows;
  ht.Probe(3, &rows);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<int64_t>{2, 3}));
}

TEST(JoinHashTableTest, RebuildClearsOldEntries) {
  JoinHashTable ht;
  ht.Build({1, 2, 3});
  ht.Build({9});
  EXPECT_FALSE(HasMatch(ht, 1));
  EXPECT_TRUE(HasMatch(ht, 9));
  EXPECT_EQ(ht.num_entries(), 1);
}

TEST(JoinHashTableTest, NegativeAndLargeKeys) {
  JoinHashTable ht;
  ht.Build({-5, 0, (1LL << 62), -(1LL << 40)});
  EXPECT_TRUE(HasMatch(ht, -5));
  EXPECT_TRUE(HasMatch(ht, 0));
  EXPECT_TRUE(HasMatch(ht, 1LL << 62));
  EXPECT_TRUE(HasMatch(ht, -(1LL << 40)));
  EXPECT_FALSE(HasMatch(ht, 1));
}

TEST(JoinHashTableTest, PackKeysIsInjectiveOnPairs) {
  std::set<int64_t> packed;
  for (int32_t a = -3; a <= 3; ++a) {
    for (int32_t b = -3; b <= 3; ++b) {
      packed.insert(JoinHashTable::PackKeys(a, b));
    }
  }
  EXPECT_EQ(packed.size(), 49u);
}

TEST(JoinHashTableTest, ByteSizeGrowsWithEntries) {
  JoinHashTable small, large;
  std::vector<int64_t> few(100), many(10000);
  for (size_t i = 0; i < few.size(); ++i) few[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < many.size(); ++i) many[i] = static_cast<int64_t>(i);
  small.Build(few);
  large.Build(many);
  EXPECT_GT(large.byte_size(), small.byte_size());
  EXPECT_GE(small.byte_size(),
            static_cast<int64_t>(few.size() * 3 * sizeof(int64_t)));
}

TEST(JoinHashTableTest, StressRandomKeysAgainstReference) {
  Random rng(42);
  std::vector<int64_t> keys(5000);
  for (auto& k : keys) k = rng.Uniform(0, 999);
  JoinHashTable ht;
  ht.Build(keys);

  for (int64_t probe = 0; probe < 1000; probe += 37) {
    std::vector<int64_t> expected;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == probe) expected.push_back(static_cast<int64_t>(i));
    }
    std::vector<int64_t> actual;
    ht.Probe(probe, &actual);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "probe key " << probe;
  }
}

// ---- ProbeBatch against per-key Probe ----

/// The pairs of probing keys[i] for each i in turn with Probe: the order
/// contract ProbeBatch must reproduce exactly.
void ExpectProbeBatchMatchesProbe(const JoinHashTable& ht,
                                  const std::vector<int64_t>& keys,
                                  int64_t row_base) {
  std::vector<int64_t> want_probe, want_build, rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    rows.clear();
    ht.Probe(keys[i], &rows);
    for (int64_t r : rows) {
      want_probe.push_back(row_base + static_cast<int64_t>(i));
      want_build.push_back(r);
    }
  }
  // Pre-existing output is appended to, not replaced.
  std::vector<int64_t> got_probe = {-7}, got_build = {-9};
  ht.ProbeBatch(keys.data(), static_cast<int64_t>(keys.size()), row_base,
                &got_probe, &got_build);
  want_probe.insert(want_probe.begin(), -7);
  want_build.insert(want_build.begin(), -9);
  EXPECT_EQ(got_probe, want_probe);
  EXPECT_EQ(got_build, want_build);
}

TEST(JoinHashTableTest, ProbeBatchOnEmptyTableFindsNothing) {
  JoinHashTable ht;
  const std::vector<int64_t> keys = {1, 2, 3};
  std::vector<int64_t> probe, build;
  ht.ProbeBatch(keys.data(), 3, 0, &probe, &build);
  EXPECT_TRUE(probe.empty());
  EXPECT_TRUE(build.empty());
  ExpectProbeBatchMatchesProbe(ht, keys, 5);
  ht.ProbeBatch(keys.data(), 0, 0, &probe, &build);  // n = 0
  EXPECT_TRUE(probe.empty());
}

TEST(JoinHashTableTest, ProbeBatchKeepsChainOrderOfDuplicates) {
  JoinHashTable ht;
  ht.Build({7, 8, 7, 9, 7, 8});
  const std::vector<int64_t> keys = {7, 1, 8, 7, 9};
  ExpectProbeBatchMatchesProbe(ht, keys, 0);
  std::vector<int64_t> probe, build;
  ht.ProbeBatch(keys.data(), 1, 0, &probe, &build);
  EXPECT_EQ(probe, (std::vector<int64_t>{0, 0, 0}));
  EXPECT_EQ(build, (std::vector<int64_t>{4, 2, 0}));  // newest first
}

TEST(JoinHashTableTest, ProbeBatchMatchesProbeAfterRehashingTileInserts) {
  // Tile-wise inserts that outgrow the bucket array rehash it; the chains
  // are relinked and ProbeBatch must still walk them in Probe's order.
  Random rng(11);
  JoinHashTable ht;
  int64_t base = 0;
  for (int tile = 0; tile < 6; ++tile) {
    std::vector<int64_t> keys(static_cast<size_t>(7 + 40 * tile));
    for (auto& k : keys) k = rng.Uniform(0, 60);
    ht.Insert(keys, base);
    base += static_cast<int64_t>(keys.size());
  }
  ASSERT_GT(ht.num_entries(), 16);  // past the first bucket array
  std::vector<int64_t> probes(3 * JoinHashTable::kProbeGroup + 5);
  for (auto& k : probes) k = rng.Uniform(-5, 70);
  ExpectProbeBatchMatchesProbe(ht, probes, 0);
  ExpectProbeBatchMatchesProbe(ht, probes, 1000);
}

TEST(JoinHashTableTest, ProbeBatchMatchesProbeOnRandomKeys) {
  Random rng(42);
  std::vector<int64_t> build(5000);
  for (auto& k : build) k = rng.Uniform(0, 999);
  JoinHashTable ht;
  ht.Build(build, 3);
  for (const int64_t n : {int64_t{1}, JoinHashTable::kProbeGroup - 1,
                          JoinHashTable::kProbeGroup,
                          JoinHashTable::kProbeGroup + 1, int64_t{1001}}) {
    SCOPED_TRACE(n);
    std::vector<int64_t> probes(static_cast<size_t>(n));
    for (auto& k : probes) k = rng.Uniform(-10, 1200);
    ExpectProbeBatchMatchesProbe(ht, probes, 0);
    ExpectProbeBatchMatchesProbe(ht, probes, 77);
  }
}

}  // namespace
}  // namespace gpl
