#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "engine/engine.h"
#include "exec/partitioned_join.h"
#include "queries/tpch_queries.h"
#include "ref/reference_executor.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::Int32Table;
using testing_util::SmallDb;

TEST(PartitionedJoinStateTest, RequiresPowerOfTwoPartitions) {
  PartitionedJoinState ok(8);
  EXPECT_EQ(ok.num_partitions(), 8);
  EXPECT_DEATH(PartitionedJoinState bad(6), "power of two");
}

TEST(PartitionedJoinStateTest, RejectsEveryNonPowerOfTwoCount) {
  for (int n : {3, 5, 7, 12}) {
    EXPECT_DEATH(PartitionedJoinState bad(n), "power of two") << n;
  }
  // The boundary cases that are powers of two must construct fine.
  for (int n : {1, 2, 64}) {
    PartitionedJoinState ok(n);
    EXPECT_EQ(ok.num_partitions(), n);
  }
}

TEST(PartitionedJoinStateTest, PartitionOfIsStableAndInRange) {
  PartitionedJoinState state(16);
  for (int64_t key = -100; key <= 100; ++key) {
    const int p = state.PartitionOf(key);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 16);
    EXPECT_EQ(p, state.PartitionOf(key));
  }
}

TEST(PartitionedJoinStateTest, SequentialKeysSpreadAcrossPartitions) {
  PartitionedJoinState state(8);
  std::set<int> used;
  for (int64_t key = 0; key < 64; ++key) used.insert(state.PartitionOf(key));
  EXPECT_EQ(used.size(), 8u) << "hash mixing must spread dense keys";
}

TEST(PartitionedJoinTest, MatchesSimpleHashJoin) {
  Random rng(99);
  Table build_side("b");
  Column bk(DataType::kInt32), payload(DataType::kFloat64);
  for (int i = 0; i < 5000; ++i) {
    bk.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 999)));
    payload.AppendDouble(static_cast<double>(i));
  }
  GPL_CHECK_OK(build_side.AddColumn("bk", std::move(bk)));
  GPL_CHECK_OK(build_side.AddColumn("payload", std::move(payload)));

  Table probe_side("p");
  Column pk(DataType::kInt32);
  for (int i = 0; i < 2000; ++i) {
    pk.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 1400)));
  }
  GPL_CHECK_OK(probe_side.AddColumn("pk", std::move(pk)));

  // Simple join.
  auto simple_state = std::make_shared<HashJoinState>();
  GPL_CHECK(MakeHashBuildKernel({Col("bk")}, simple_state)
                ->Process(build_side)
                .ok());
  Result<Table> simple = MakeHashProbeKernel({Col("pk")}, simple_state,
                                             {"payload"})
                             ->Process(probe_side);
  ASSERT_TRUE(simple.ok());

  // Partitioned join.
  auto part_state = std::make_shared<PartitionedJoinState>(8);
  GPL_CHECK(MakePartitionedBuildKernel({Col("bk")}, part_state)
                ->Process(build_side)
                .ok());
  Result<Table> partitioned =
      MakePartitionedProbeKernel({Col("pk")}, part_state, {"payload"})
          ->Process(probe_side);
  ASSERT_TRUE(partitioned.ok());

  // Same multiset of (pk, payload) pairs. Sort both for comparison.
  auto sorted = [](const Table& t) {
    KernelPtr sort = MakeSortKernel({{"pk", false}, {"payload", false}});
    GPL_CHECK(sort->Process(t).ok());
    Result<Table> out = sort->Finish();
    GPL_CHECK(out.ok());
    return out.take();
  };
  std::string diff;
  EXPECT_TRUE(ref::TablesEqual(sorted(*simple), sorted(*partitioned), &diff))
      << diff;
}

TEST(PartitionedJoinTest, ProbeOrderMatchesSimpleHashJoinExactly) {
  // A key's build rows all land in one partition, inserted in build order,
  // so its chain order there equals the simple table's. The partitioned
  // probe batch-probes partition by partition and scatters the matches back
  // to probe-row order: its output must equal the simple probe's row for
  // row, unsorted, with duplicate build keys across several build tiles.
  Random rng(7);
  auto simple_state = std::make_shared<HashJoinState>();
  auto part_state = std::make_shared<PartitionedJoinState>(8);
  KernelPtr simple_build = MakeHashBuildKernel({Col("bk")}, simple_state);
  KernelPtr part_build = MakePartitionedBuildKernel({Col("bk")}, part_state);
  for (int tile = 0; tile < 3; ++tile) {
    Table build_side("b");
    Column bk(DataType::kInt32), payload(DataType::kFloat64);
    for (int i = 0; i < 700; ++i) {
      bk.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 299)));
      payload.AppendDouble(static_cast<double>(tile * 1000 + i));
    }
    GPL_CHECK_OK(build_side.AddColumn("bk", std::move(bk)));
    GPL_CHECK_OK(build_side.AddColumn("payload", std::move(payload)));
    ASSERT_TRUE(simple_build->Process(build_side).ok());
    ASSERT_TRUE(part_build->Process(build_side).ok());
  }
  Table probe_side("p");
  Column pk(DataType::kInt32);
  for (int i = 0; i < 1000; ++i) {
    pk.AppendInt32(static_cast<int32_t>(rng.Uniform(-20, 350)));
  }
  GPL_CHECK_OK(probe_side.AddColumn("pk", std::move(pk)));
  Result<Table> simple =
      MakeHashProbeKernel({Col("pk")}, simple_state, {"payload"})
          ->Process(probe_side);
  Result<Table> partitioned =
      MakePartitionedProbeKernel({Col("pk")}, part_state, {"payload"})
          ->Process(probe_side);
  ASSERT_TRUE(simple.ok());
  ASSERT_TRUE(partitioned.ok());
  ASSERT_GT(simple->num_rows(), probe_side.num_rows());  // duplicates fan out
  EXPECT_EQ(simple->GetColumn("pk").data32(),
            partitioned->GetColumn("pk").data32());
  EXPECT_EQ(simple->GetColumn("payload").dataf(),
            partitioned->GetColumn("payload").dataf());
}

TEST(PartitionedJoinTest, TileWiseBuildAccumulates) {
  auto state = std::make_shared<PartitionedJoinState>(4);
  KernelPtr build = MakePartitionedBuildKernel({Col("bk")}, state);
  ASSERT_TRUE(build->Process(Int32Table("bk", {1, 2, 3})).ok());
  ASSERT_TRUE(build->Process(Int32Table("bk", {3, 4})).ok());
  int64_t total_entries = 0;
  for (int p = 0; p < 4; ++p) total_entries += state->table(p).num_entries();
  EXPECT_EQ(total_entries, 5);

  KernelPtr probe = MakePartitionedProbeKernel({Col("pk")}, state, {"bk"});
  Result<Table> out = probe->Process(Int32Table("pk", {3}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2);  // key 3 inserted twice
}

TEST(PartitionedJoinTest, CompositeKeys) {
  auto state = std::make_shared<PartitionedJoinState>(4);
  Table build_side("b");
  Column a(DataType::kInt32), b(DataType::kInt32);
  a.AppendInt32(1);
  b.AppendInt32(2);
  a.AppendInt32(3);
  b.AppendInt32(4);
  GPL_CHECK_OK(build_side.AddColumn("a", std::move(a)));
  GPL_CHECK_OK(build_side.AddColumn("b", std::move(b)));
  ASSERT_TRUE(MakePartitionedBuildKernel({Col("a"), Col("b")}, state)
                  ->Process(build_side)
                  .ok());

  Table probe_side("p");
  Column pa(DataType::kInt32), pb(DataType::kInt32);
  pa.AppendInt32(3);
  pb.AppendInt32(4);
  pa.AppendInt32(3);
  pb.AppendInt32(5);  // no match
  GPL_CHECK_OK(probe_side.AddColumn("pa", std::move(pa)));
  GPL_CHECK_OK(probe_side.AddColumn("pb", std::move(pb)));
  Result<Table> out = MakePartitionedProbeKernel({Col("pa"), Col("pb")}, state,
                                                 {"b"})
                          ->Process(probe_side);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetColumn("b").Int32At(0), 4);
}

TEST(PartitionedJoinTest, EmptyPartitionsProbeCleanly) {
  // One build key leaves most of the 16 partitions empty; probes that hash
  // into the empty ones must produce zero rows, not crash or mis-join.
  auto state = std::make_shared<PartitionedJoinState>(16);
  ASSERT_TRUE(MakePartitionedBuildKernel({Col("bk")}, state)
                  ->Process(Int32Table("bk", {42}))
                  .ok());
  int empty = 0;
  for (int p = 0; p < 16; ++p) {
    if (state->table(p).num_entries() == 0) ++empty;
  }
  EXPECT_EQ(empty, 15);

  std::vector<int32_t> probes(256);
  for (size_t i = 0; i < probes.size(); ++i) {
    probes[i] = static_cast<int32_t>(i);
  }
  Result<Table> out = MakePartitionedProbeKernel({Col("pk")}, state, {"bk"})
                          ->Process(Int32Table("pk", probes));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetColumn("pk").Int32At(0), 42);
}

TEST(PartitionedJoinTest, EmptyBuildMatchesNothing) {
  auto state = std::make_shared<PartitionedJoinState>(8);
  ASSERT_TRUE(MakePartitionedBuildKernel({Col("bk")}, state)
                  ->Process(Int32Table("bk", {}))
                  .ok());
  Result<Table> out = MakePartitionedProbeKernel({Col("pk")}, state, {"bk"})
                          ->Process(Int32Table("pk", {1, 2, 3}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0);
}

TEST(PartitionedJoinTest, SkewedKeysAllLandInOnePartitionAndStillJoin) {
  // Every build row carries the same key: one partition holds the whole
  // table (maximum skew), and a matching probe fans out to every duplicate.
  auto state = std::make_shared<PartitionedJoinState>(8);
  std::vector<int32_t> keys(1000, 7);
  ASSERT_TRUE(MakePartitionedBuildKernel({Col("bk")}, state)
                  ->Process(Int32Table("bk", keys))
                  .ok());
  int populated = 0;
  for (int p = 0; p < 8; ++p) {
    if (state->table(p).num_entries() > 0) ++populated;
  }
  EXPECT_EQ(populated, 1);
  EXPECT_EQ(state->max_partition_bytes(), state->total_table_bytes());

  Result<Table> out = MakePartitionedProbeKernel({Col("pk")}, state, {"bk"})
                          ->Process(Int32Table("pk", {7, 8}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1000);  // key 7 matches every duplicate
}

TEST(PartitionedJoinTest, NoMatchesStillProducesSchema) {
  auto state = std::make_shared<PartitionedJoinState>(4);
  ASSERT_TRUE(MakePartitionedBuildKernel({Col("bk")}, state)
                  ->Process(Int32Table("bk", {1}))
                  .ok());
  Result<Table> out = MakePartitionedProbeKernel({Col("pk")}, state, {"bk"})
                          ->Process(Int32Table("pk", {99}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0);
  EXPECT_TRUE(out->HasColumn("bk"));
}

TEST(PartitionedJoinTest, ResetClearsState) {
  auto state = std::make_shared<PartitionedJoinState>(4);
  KernelPtr build = MakePartitionedBuildKernel({Col("bk")}, state);
  ASSERT_TRUE(build->Process(Int32Table("bk", {1, 2})).ok());
  EXPECT_GT(state->total_table_bytes(), 0);
  build->Reset();
  EXPECT_EQ(state->total_table_bytes(), 0);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(state->table(p).num_entries(), 0);
  }
}

TEST(PartitionedJoinTest, WorkingSetIsFractionOfTotal) {
  auto state = std::make_shared<PartitionedJoinState>(16);
  std::vector<int32_t> keys(20000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int32_t>(i);
  KernelPtr build = MakePartitionedBuildKernel({Col("bk")}, state);
  ASSERT_TRUE(build->Process(Int32Table("bk", keys)).ok());
  EXPECT_LT(state->max_partition_bytes(), state->total_table_bytes() / 8)
      << "partitions must be much smaller than the whole table";
  EXPECT_EQ(build->MaterializedStateBytes(), state->total_table_bytes());
}

// ---- Engine integration ----

TEST(PartitionedJoinEngineTest, PlannerFlagsLargeBuilds) {
  Catalog catalog = Catalog::FromDatabase(SmallDb());
  PlanOptions options;
  options.partition_build_threshold_bytes = 1;  // force everywhere
  Result<PhysicalOpPtr> plan =
      BuildPhysicalPlan(queries::Q9(), catalog, options);
  ASSERT_TRUE(plan.ok());
  int partitioned = 0;
  std::function<void(const PhysicalOp&)> walk = [&](const PhysicalOp& op) {
    if (op.kind == PhysicalOp::Kind::kHashJoin && op.partitioned_join) {
      ++partitioned;
    }
    if (op.child != nullptr) walk(*op.child);
    if (op.build_child != nullptr) walk(*op.build_child);
  };
  walk(**plan);
  EXPECT_GT(partitioned, 0);
}

TEST(PartitionedJoinEngineTest, ResultsIdenticalWithPartitioning) {
  for (auto& [name, query] : queries::EvaluationSuite()) {
    EngineOptions plain_options;
    plain_options.mode = EngineMode::kGpl;
    Engine plain(&SmallDb(), plain_options);
    Result<QueryResult> expected = plain.Execute(query);
    ASSERT_TRUE(expected.ok()) << name;

    EngineOptions part_options;
    part_options.mode = EngineMode::kGpl;
    part_options.partitioned_joins = true;
    // Tiny threshold so partitioning actually engages at test scale.
    part_options.partition_threshold_bytes = 1;
    Engine partitioned(&SmallDb(), part_options);
    Result<QueryResult> got = partitioned.Execute(query);
    ASSERT_TRUE(got.ok()) << name;

    std::string diff;
    EXPECT_TRUE(ref::TablesEqual(got->table, expected->table, &diff))
        << name << ": " << diff;
  }
}

}  // namespace
}  // namespace gpl
