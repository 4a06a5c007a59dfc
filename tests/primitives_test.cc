#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/morsel.h"
#include "exec/primitives.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::FloatTable;
using testing_util::Int32Table;

TEST(FilterKernelTest, KeepsMatchingRows) {
  KernelPtr k = MakeFilterKernel(Lt(Col("x"), LitInt(3)));
  Result<Table> out = k->Process(Int32Table("x", {5, 1, 2, 9, 0}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3);
  EXPECT_EQ(out->GetColumn("x").Int32At(0), 1);
  EXPECT_EQ(out->GetColumn("x").Int32At(2), 0);
  EXPECT_FALSE(k->blocking());
  EXPECT_EQ(k->name(), "k_map");
}

TEST(FilterKernelTest, EmptyWhenNothingMatches) {
  KernelPtr k = MakeFilterKernel(Gt(Col("x"), LitInt(100)));
  Result<Table> out = k->Process(Int32Table("x", {1, 2, 3}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0);
  EXPECT_EQ(out->num_columns(), 1);  // schema preserved
}

TEST(ProjectKernelTest, ComputesDerivedColumns) {
  KernelPtr k = MakeProjectKernel(
      {{"double_x", Mul(Col("x"), LitInt(2))}, {"x", Col("x")}});
  Result<Table> out = k->Process(Int32Table("x", {1, 2}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_columns(), 2);
  EXPECT_EQ(out->GetColumn("double_x").Int64At(1), 4);
  EXPECT_EQ(out->GetColumn("x").Int32At(1), 2);
}

TEST(HashBuildProbeTest, JoinAcrossKernels) {
  auto state = std::make_shared<HashJoinState>();
  KernelPtr build = MakeHashBuildKernel({Col("bk")}, state);
  EXPECT_TRUE(build->blocking());

  Table build_side("b");
  Column bk(DataType::kInt32), payload(DataType::kFloat64);
  for (int i = 0; i < 4; ++i) {
    bk.AppendInt32(i);
    payload.AppendDouble(i * 10.0);
  }
  GPL_CHECK_OK(build_side.AddColumn("bk", std::move(bk)));
  GPL_CHECK_OK(build_side.AddColumn("payload", std::move(payload)));
  ASSERT_TRUE(build->Process(build_side).ok());
  EXPECT_EQ(state->table.num_entries(), 4);
  EXPECT_GT(build->timing().random_working_set_bytes, 0);

  KernelPtr probe = MakeHashProbeKernel({Col("pk")}, state, {"payload"});
  Result<Table> out = probe->Process(Int32Table("pk", {2, 2, 5, 0}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3);  // 2, 2, 0 match; 5 does not
  EXPECT_DOUBLE_EQ(out->GetColumn("payload").DoubleAt(0), 20.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("payload").DoubleAt(2), 0.0);
}

TEST(HashBuildProbeTest, TileWiseBuildAccumulates) {
  auto state = std::make_shared<HashJoinState>();
  KernelPtr build = MakeHashBuildKernel({Col("bk")}, state);
  ASSERT_TRUE(build->Process(Int32Table("bk", {1, 2})).ok());
  ASSERT_TRUE(build->Process(Int32Table("bk", {3})).ok());
  EXPECT_EQ(state->table.num_entries(), 3);
  EXPECT_EQ(state->build_rows.num_rows(), 3);

  KernelPtr probe = MakeHashProbeKernel({Col("pk")}, state, {"bk"});
  Result<Table> out = probe->Process(Int32Table("pk", {3}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetColumn("bk").Int32At(0), 3);
}

TEST(HashBuildProbeTest, CompositeKeys) {
  auto state = std::make_shared<HashJoinState>();
  Table build_side("b");
  Column a(DataType::kInt32), b(DataType::kInt32);
  a.AppendInt32(1);
  b.AppendInt32(2);
  a.AppendInt32(1);
  b.AppendInt32(3);
  GPL_CHECK_OK(build_side.AddColumn("a", std::move(a)));
  GPL_CHECK_OK(build_side.AddColumn("b", std::move(b)));
  KernelPtr build = MakeHashBuildKernel({Col("a"), Col("b")}, state);
  ASSERT_TRUE(build->Process(build_side).ok());

  Table probe_side("p");
  Column pa(DataType::kInt32), pb(DataType::kInt32);
  pa.AppendInt32(1);
  pb.AppendInt32(3);  // matches second entry only
  pa.AppendInt32(2);
  pb.AppendInt32(2);  // no match (a differs)
  GPL_CHECK_OK(probe_side.AddColumn("pa", std::move(pa)));
  GPL_CHECK_OK(probe_side.AddColumn("pb", std::move(pb)));
  KernelPtr probe =
      MakeHashProbeKernel({Col("pa"), Col("pb")}, state, {"b"});
  Result<Table> out = probe->Process(probe_side);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetColumn("b").Int32At(0), 3);
}

TEST(HashBuildTest, ResetClearsSharedState) {
  auto state = std::make_shared<HashJoinState>();
  KernelPtr build = MakeHashBuildKernel({Col("bk")}, state);
  ASSERT_TRUE(build->Process(Int32Table("bk", {1})).ok());
  build->Reset();
  EXPECT_EQ(state->table.num_entries(), 0);
  EXPECT_FALSE(state->build_rows_initialized);
}

TEST(AggregateKernelTest, GlobalSumWithheldUntilFinish) {
  KernelPtr agg = MakeAggregateKernel({}, {{AggSpec::kSum, Col("v"), "total"}});
  Result<Table> mid = agg->Process(FloatTable("v", {1.0, 2.0}));
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->num_columns(), 0);  // withheld
  ASSERT_TRUE(agg->Process(FloatTable("v", {3.5})).ok());
  Result<Table> out = agg->Finish();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_DOUBLE_EQ(out->GetColumn("total").DoubleAt(0), 6.5);
}

TEST(AggregateKernelTest, GroupedAggregates) {
  Table t("t");
  Column g(DataType::kInt32), v(DataType::kFloat64);
  const int32_t groups[] = {1, 2, 1, 2, 1};
  const double values[] = {1, 10, 2, 20, 3};
  for (int i = 0; i < 5; ++i) {
    g.AppendInt32(groups[i]);
    v.AppendDouble(values[i]);
  }
  GPL_CHECK_OK(t.AddColumn("g", std::move(g)));
  GPL_CHECK_OK(t.AddColumn("v", std::move(v)));

  KernelPtr agg = MakeAggregateKernel({{"g", Col("g")}},
                                      {{AggSpec::kSum, Col("v"), "sum"},
                                       {AggSpec::kCount, nullptr, "count"},
                                       {AggSpec::kAvg, Col("v"), "avg"},
                                       {AggSpec::kMin, Col("v"), "min"},
                                       {AggSpec::kMax, Col("v"), "max"}});
  ASSERT_TRUE(agg->Process(t).ok());
  Result<Table> out = agg->Finish();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2);  // groups sorted: 1, 2
  EXPECT_EQ(out->GetColumn("g").Int32At(0), 1);
  EXPECT_DOUBLE_EQ(out->GetColumn("sum").DoubleAt(0), 6.0);
  EXPECT_EQ(out->GetColumn("count").Int64At(0), 3);
  EXPECT_DOUBLE_EQ(out->GetColumn("avg").DoubleAt(0), 2.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("min").DoubleAt(0), 1.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("max").DoubleAt(0), 3.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("sum").DoubleAt(1), 30.0);
}

TEST(AggregateKernelTest, StringGroupKeysPreserveDictionary) {
  Table t("t");
  Column g(DataType::kString), v(DataType::kFloat64);
  g.AppendString("FRANCE");
  v.AppendDouble(1.0);
  g.AppendString("GERMANY");
  v.AppendDouble(2.0);
  g.AppendString("FRANCE");
  v.AppendDouble(3.0);
  GPL_CHECK_OK(t.AddColumn("nation", std::move(g)));
  GPL_CHECK_OK(t.AddColumn("v", std::move(v)));
  KernelPtr agg = MakeAggregateKernel({{"nation", Col("nation")}},
                                      {{AggSpec::kSum, Col("v"), "sum"}});
  ASSERT_TRUE(agg->Process(t).ok());
  Result<Table> out = agg->Finish();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2);
  EXPECT_EQ(out->GetColumn("nation").StringAt(0), "FRANCE");
  EXPECT_DOUBLE_EQ(out->GetColumn("sum").DoubleAt(0), 4.0);
}

TEST(AggregateKernelTest, ResetAllowsReuse) {
  KernelPtr agg = MakeAggregateKernel({}, {{AggSpec::kSum, Col("v"), "s"}});
  ASSERT_TRUE(agg->Process(FloatTable("v", {5.0})).ok());
  agg->Reset();
  ASSERT_TRUE(agg->Process(FloatTable("v", {1.0})).ok());
  Result<Table> out = agg->Finish();
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->GetColumn("s").DoubleAt(0), 1.0);
}

TEST(SortKernelTest, SortsAscendingAndDescending) {
  KernelPtr asc = MakeSortKernel({{"x", false}});
  ASSERT_TRUE(asc->Process(Int32Table("x", {3, 1})).ok());
  ASSERT_TRUE(asc->Process(Int32Table("x", {2})).ok());
  Result<Table> out = asc->Finish();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetColumn("x").Int32At(0), 1);
  EXPECT_EQ(out->GetColumn("x").Int32At(2), 3);
  EXPECT_TRUE(asc->blocking());

  KernelPtr desc = MakeSortKernel({{"x", true}});
  ASSERT_TRUE(desc->Process(Int32Table("x", {3, 1, 2})).ok());
  Result<Table> out2 = desc->Finish();
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->GetColumn("x").Int32At(0), 3);
}

TEST(SortKernelTest, MultiKeyStableOrder) {
  Table t("t");
  Column a(DataType::kInt32), b(DataType::kFloat64);
  const int av[] = {2, 1, 2, 1};
  const double bv[] = {0.5, 9.0, 0.1, 3.0};
  for (int i = 0; i < 4; ++i) {
    a.AppendInt32(av[i]);
    b.AppendDouble(bv[i]);
  }
  GPL_CHECK_OK(t.AddColumn("a", std::move(a)));
  GPL_CHECK_OK(t.AddColumn("b", std::move(b)));
  KernelPtr sort = MakeSortKernel({{"a", false}, {"b", true}});
  ASSERT_TRUE(sort->Process(t).ok());
  Result<Table> out = sort->Finish();
  ASSERT_TRUE(out.ok());
  // a=1 rows first, within them b descending: 9.0, 3.0.
  EXPECT_EQ(out->GetColumn("a").Int32At(0), 1);
  EXPECT_DOUBLE_EQ(out->GetColumn("b").DoubleAt(0), 9.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("b").DoubleAt(1), 3.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("b").DoubleAt(2), 0.5);
}

TEST(SortKernelTest, StringKeysSortLexicographically) {
  Column s(DataType::kString);
  s.AppendString("GERMANY");
  s.AppendString("ARGENTINA");
  s.AppendString("FRANCE");
  Table t("t");
  GPL_CHECK_OK(t.AddColumn("n", std::move(s)));
  KernelPtr sort = MakeSortKernel({{"n", false}});
  ASSERT_TRUE(sort->Process(t).ok());
  Result<Table> out = sort->Finish();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetColumn("n").StringAt(0), "ARGENTINA");
  EXPECT_EQ(out->GetColumn("n").StringAt(2), "GERMANY");
}

TEST(KbePrimitivesTest, PrefixSumAndScatter) {
  Table t = Int32Table("x", {5, 1, 7, 2, 8});
  Column flags = ComputeFlags(t, Gt(Col("x"), LitInt(4)));  // 1 0 1 0 1
  int64_t total = 0;
  Column offsets = PrefixSum(flags, &total);
  EXPECT_EQ(total, 3);
  EXPECT_EQ(offsets.Int32At(0), 0);
  EXPECT_EQ(offsets.Int32At(2), 1);
  EXPECT_EQ(offsets.Int32At(4), 2);

  Table out = ScatterRows(t, flags, offsets);
  ASSERT_EQ(out.num_rows(), 3);
  EXPECT_EQ(out.GetColumn("x").Int32At(0), 5);
  EXPECT_EQ(out.GetColumn("x").Int32At(1), 7);
  EXPECT_EQ(out.GetColumn("x").Int32At(2), 8);
}

TEST(TimingDescTest, BlockingFlagsMatchPaper) {
  EXPECT_FALSE(FilterTiming(1.0).blocking);
  EXPECT_FALSE(ProjectTiming(1.0, 2).blocking);
  EXPECT_TRUE(PrefixSumTiming().blocking);
  EXPECT_TRUE(HashBuildTiming(0).blocking);
  EXPECT_FALSE(HashProbeTiming(0).blocking);
  EXPECT_FALSE(AggregateTiming(1.0, 1).blocking);  // k_reduce* is non-blocking
  EXPECT_TRUE(ScanAggregateTiming().blocking);     // KBE scan aggregation
  EXPECT_TRUE(SortTiming().blocking);
}

TEST(TimingDescTest, ProbeDeclaresRandomAccess) {
  const sim::KernelTimingDesc d = HashProbeTiming(1 << 20);
  EXPECT_GT(d.random_access_fraction, 0.0);
  EXPECT_EQ(d.random_working_set_bytes, 1 << 20);
}

// ---- Morsel helpers on a wide table ----

/// 2 * kMorselRows + 1 rows (three morsels, the last of one row) over six
/// columns of every physical type, so that a morsel slice of only the
/// columns an expression reads is observable.
Table WideTable() {
  Random rng(5);
  const int64_t n = 2 * kMorselRows + 1;
  Column a(DataType::kInt32), b(DataType::kInt64), c(DataType::kFloat64);
  Column d(DataType::kDate), s(DataType::kString), pad(DataType::kInt64);
  for (int64_t i = 0; i < n; ++i) {
    a.AppendInt32(static_cast<int32_t>(rng.Uniform(-100, 100)));
    b.AppendInt64(rng.Uniform(0, 3000));
    c.AppendDouble(static_cast<double>(rng.Uniform(-800, 800)) / 16.0);
    d.AppendInt32(static_cast<int32_t>(rng.Uniform(9000, 9400)));
    s.AppendString(rng.Bernoulli(0.3) ? "PROMO" : "OTHER");
    pad.AppendInt64(i);
  }
  Table t("wide");
  GPL_CHECK_OK(t.AddColumn("a", std::move(a)));
  GPL_CHECK_OK(t.AddColumn("b", std::move(b)));
  GPL_CHECK_OK(t.AddColumn("c", std::move(c)));
  GPL_CHECK_OK(t.AddColumn("d", std::move(d)));
  GPL_CHECK_OK(t.AddColumn("s", std::move(s)));
  GPL_CHECK_OK(t.AddColumn("pad", std::move(pad)));
  return t;
}

void ExpectColumnsBitIdentical(const Column& expected, const Column& actual) {
  ASSERT_EQ(expected.type(), actual.type());
  EXPECT_TRUE(expected.data32() == actual.data32());
  EXPECT_TRUE(expected.data64() == actual.data64());
  EXPECT_TRUE(expected.dataf() == actual.dataf());
}

class MorselWideTableTest : public ::testing::TestWithParam<int> {};

TEST_P(MorselWideTableTest, EvaluateMorselsMatchesEvaluate) {
  const Table t = WideTable();
  ScopedHostParallelism scope(GetParam());
  const std::vector<ExprPtr> exprs = {
      Add(Col("b"), LitInt(3)),                     // one column
      Mul(LitFloat(2.5), Col("c")),                 // literal on the left
      CaseWhen(Lt(Col("a"), LitInt(0)), Col("c"), LitInt(1)),
      YearOf(Col("d")),
      Eq(Col("s"), LitString("PROMO")),
      Add(LitInt(1), LitInt(2)),                    // no column
      LitFloat(0.25),
  };
  for (const ExprPtr& e : exprs) {
    SCOPED_TRACE(e->ToString());
    const Column got = EvaluateMorsels(*e, RowBatch(t));
    ASSERT_EQ(got.size(), t.num_rows());
    ExpectColumnsBitIdentical(e->Evaluate(t), got);
  }
}

TEST_P(MorselWideTableTest, SelectIndicesMatchesEvaluate) {
  const Table t = WideTable();
  ScopedHostParallelism scope(GetParam());
  const std::vector<ExprPtr> predicates = {
      Ge(Col("a"), LitInt(10)),                     // one column
      And(Lt(LitFloat(-3.0), Col("c")), Col("c")),  // float under AND
      Lt(LitInt(1), LitInt(2)),                     // no column: every row
      Gt(LitInt(1), LitInt(2)),                     // no column: no row
  };
  for (const ExprPtr& p : predicates) {
    SCOPED_TRACE(p->ToString());
    const Column flags = p->Evaluate(t);
    std::vector<int64_t> expected;
    for (int64_t i = 0; i < flags.size(); ++i) {
      if (flags.Int32At(i) != 0) expected.push_back(i);
    }
    EXPECT_EQ(SelectIndices(*p, RowBatch(t)), expected);
  }
}

TEST_P(MorselWideTableTest, EvaluateJoinKeysMatchesEvaluate) {
  const Table t = WideTable();
  ScopedHostParallelism scope(GetParam());
  const std::vector<std::vector<ExprPtr>> key_sets = {
      {Col("b")}, {Col("a")}, {Col("c")}, {LitInt(9)},
      {Col("a"), Col("d")}, {Sub(Col("b"), LitInt(7)), Col("c")}};
  for (const std::vector<ExprPtr>& key_exprs : key_sets) {
    SCOPED_TRACE(key_exprs[0]->ToString());
    const Column k0 = key_exprs[0]->Evaluate(t);
    std::vector<int64_t> expected(static_cast<size_t>(t.num_rows()));
    for (int64_t i = 0; i < t.num_rows(); ++i) {
      expected[static_cast<size_t>(i)] =
          key_exprs.size() == 1
              ? k0.AsInt64(i)
              : JoinHashTable::PackKeys(
                    static_cast<int32_t>(k0.AsInt64(i)),
                    static_cast<int32_t>(key_exprs[1]->Evaluate(t).AsInt64(i)));
    }
    EXPECT_EQ(EvaluateJoinKeys(RowBatch(t), key_exprs), expected);
  }
}

TEST_P(MorselWideTableTest, ProbeAllMatchesPerKeyProbe) {
  const Table t = WideTable();
  const std::vector<int64_t> keys = EvaluateJoinKeys(RowBatch(t), {Col("b")});
  JoinHashTable table;
  // Duplicated build keys, and probe keys with no match.
  std::vector<int64_t> build;
  for (int64_t k = 0; k < 2000; k += 3) build.push_back(k);
  for (int64_t k = 0; k < 2000; k += 7) build.push_back(k);
  table.Build(build);
  std::vector<int64_t> want_probe, want_build, rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    rows.clear();
    table.Probe(keys[i], &rows);
    for (int64_t r : rows) {
      want_probe.push_back(static_cast<int64_t>(i));
      want_build.push_back(r);
    }
  }
  ScopedHostParallelism scope(GetParam());
  std::vector<int64_t> got_probe, got_build;
  ProbeAll(table, keys, &got_probe, &got_build);
  EXPECT_EQ(got_probe, want_probe);
  EXPECT_EQ(got_build, want_build);
}

TEST_P(MorselWideTableTest, ProbeAllWritesPartsAfterExistingPairs) {
  // ProbeAll appends: each morsel's pairs land at their prefix offset past
  // what the outputs already hold. Keys 0..2999 against a sparse build side
  // leave some morsels with no match at all.
  const Table t = WideTable();
  const std::vector<int64_t> keys = EvaluateJoinKeys(RowBatch(t), {Col("b")});
  JoinHashTable table;
  std::vector<int64_t> build;
  for (int64_t k = 0; k < 3000; k += 11) build.push_back(k);
  for (int64_t k = 0; k < 600; k += 2) build.push_back(k);
  table.Build(build);
  std::vector<int64_t> want_probe = {-7, -8};
  std::vector<int64_t> want_build = {-9, -10};
  std::vector<int64_t> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    rows.clear();
    table.Probe(keys[i], &rows);
    for (int64_t r : rows) {
      want_probe.push_back(static_cast<int64_t>(i));
      want_build.push_back(r);
    }
  }
  ScopedHostParallelism scope(GetParam());
  std::vector<int64_t> got_probe = {-7, -8};
  std::vector<int64_t> got_build = {-9, -10};
  ProbeAll(table, keys, &got_probe, &got_build);
  EXPECT_EQ(got_probe, want_probe);
  EXPECT_EQ(got_build, want_build);
}

TEST_P(MorselWideTableTest, HelpersReadComposedBatchesAsTheirTable) {
  // A batch whose rows are composed positions (every third row, then the
  // first rows backwards) evaluates exactly like its materialized table.
  const Table t = WideTable();
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < t.num_rows(); i += 3) rows.push_back(i);
  for (int64_t i = kMorselRows; i >= 0; --i) rows.push_back(i);
  const RowBatch batch = RowBatch(t).Select(rows);
  const Table materialized = batch.Materialize();
  ScopedHostParallelism scope(GetParam());
  const ExprPtr expr = Add(Mul(Col("c"), LitFloat(2.0)), Col("a"));
  ExpectColumnsBitIdentical(expr->Evaluate(materialized),
                            EvaluateMorsels(*expr, batch));
  const ExprPtr predicate = Eq(Col("s"), LitString("PROMO"));
  EXPECT_EQ(SelectIndices(*predicate, batch),
            SelectIndices(*predicate, RowBatch(materialized)));
  EXPECT_EQ(EvaluateJoinKeys(batch, {Col("a"), Col("d")}),
            EvaluateJoinKeys(RowBatch(materialized), {Col("a"), Col("d")}));
}

INSTANTIATE_TEST_SUITE_P(HostThreads, MorselWideTableTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace gpl
