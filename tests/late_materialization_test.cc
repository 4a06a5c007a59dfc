// The row-batch contract of the functional layer (DESIGN.md decision 13):
// a segment run that hands RowBatches between stages must produce the same
// output table and the same per-stage observations, bit for bit, as running
// every stage over a materialized table through Kernel::Process.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/tiling.h"
#include "engine/engine.h"
#include "exec/expr.h"
#include "exec/partitioned_join.h"
#include "exec/primitives.h"
#include "queries/tpch_queries.h"
#include "sim/fault.h"
#include "test_util.h"

namespace gpl {
namespace {

/// Three morsels and a bit, so morsel-parallel bodies split at 4 threads.
constexpr int64_t kRows = 3 * kMorselRows + 123;
/// Rows [kDeadBegin, kDeadBegin + kDeadRows) fail every filter below: with
/// kDeadRows-row tiles, the third tile keeps no row at all.
constexpr int64_t kDeadBegin = 2048;
constexpr int64_t kDeadRows = 1024;

Column StringColumn(Random* rng, int64_t n, const std::vector<std::string>& v) {
  Column c(DataType::kString);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t pick = rng->Uniform(0, static_cast<int64_t>(v.size()) - 1);
    c.AppendString(v[static_cast<size_t>(pick)]);
  }
  return c;
}

/// A 13-column probe-side input over every physical type.
Table WideInput() {
  Random rng(41);
  const int64_t n = kRows;
  Column k1(DataType::kInt32), k2(DataType::kInt64), flag(DataType::kInt32);
  Column qty(DataType::kFloat64), price(DataType::kFloat64);
  Column ship(DataType::kDate), c_i32(DataType::kInt32);
  Column c_i64(DataType::kInt64);
  Column c_f64(DataType::kFloat64), c_date(DataType::kDate);
  Column pad(DataType::kInt64);
  for (int64_t i = 0; i < n; ++i) {
    k1.AppendInt32(static_cast<int32_t>(rng.Uniform(-5, 320)));
    k2.AppendInt64(rng.Uniform(0, 120));
    const bool dead = i >= kDeadBegin && i < kDeadBegin + kDeadRows;
    flag.AppendInt32(dead ? -1 : static_cast<int32_t>(rng.Uniform(0, 9)));
    qty.AppendDouble(static_cast<double>(rng.Uniform(1, 50)));
    price.AppendDouble(static_cast<double>(rng.Uniform(100, 99999)) / 100.0);
    ship.AppendInt32(static_cast<int32_t>(rng.Uniform(8000, 10000)));
    c_i32.AppendInt32(static_cast<int32_t>(rng.Uniform(-1000, 1000)));
    c_i64.AppendInt64(rng.Uniform(0, int64_t{1} << 40));
    c_f64.AppendDouble(static_cast<double>(rng.Uniform(-800, 800)) / 16.0);
    c_date.AppendInt32(static_cast<int32_t>(rng.Uniform(9000, 9400)));
    pad.AppendInt64(i);
  }
  Table t("wide");
  GPL_CHECK_OK(t.AddColumn("k1", std::move(k1)));
  GPL_CHECK_OK(t.AddColumn("k2", std::move(k2)));
  GPL_CHECK_OK(t.AddColumn("flag", std::move(flag)));
  GPL_CHECK_OK(t.AddColumn("qty", std::move(qty)));
  GPL_CHECK_OK(t.AddColumn("price", std::move(price)));
  GPL_CHECK_OK(t.AddColumn("ship", std::move(ship)));
  GPL_CHECK_OK(
      t.AddColumn("mode", StringColumn(&rng, n, {"AIR", "RAIL", "SHIP"})));
  GPL_CHECK_OK(t.AddColumn("c_i32", std::move(c_i32)));
  GPL_CHECK_OK(t.AddColumn("c_i64", std::move(c_i64)));
  GPL_CHECK_OK(t.AddColumn("c_f64", std::move(c_f64)));
  GPL_CHECK_OK(t.AddColumn("c_date", std::move(c_date)));
  GPL_CHECK_OK(
      t.AddColumn("c_str", StringColumn(&rng, n, {"x", "yy", "zzz", "w"})));
  GPL_CHECK_OK(t.AddColumn("pad", std::move(pad)));
  return t;
}

/// Build side 1: keys 0..299 with every third key twice (duplicates fan
/// out) and every seventh key missing.
Table Build1() {
  Random rng(42);
  Column key(DataType::kInt32), val(DataType::kFloat64);
  for (int32_t k = 0; k < 300; ++k) {
    if (k % 7 == 0) continue;
    for (int copy = 0; copy < (k % 3 == 0 ? 2 : 1); ++copy) {
      key.AppendInt32(k);
      val.AppendDouble(static_cast<double>(rng.Uniform(0, 1000)) / 8.0);
    }
  }
  const int64_t n = key.size();
  Table t("build1");
  GPL_CHECK_OK(t.AddColumn("bk1", std::move(key)));
  GPL_CHECK_OK(t.AddColumn(
      "b1_name", StringColumn(&rng, n, {"ALPHA", "BETA", "GAMMA"})));
  GPL_CHECK_OK(t.AddColumn("b1_val", std::move(val)));
  return t;
}

/// Build side 2: unique int64 keys 0..99.
Table Build2() {
  Column key(DataType::kInt64), region(DataType::kInt32);
  Column when(DataType::kDate);
  for (int64_t k = 0; k < 100; ++k) {
    key.AppendInt64(k);
    region.AppendInt32(static_cast<int32_t>(k % 5));
    when.AppendInt32(static_cast<int32_t>(9000 + k));
  }
  Table t("build2");
  GPL_CHECK_OK(t.AddColumn("bk2", std::move(key)));
  GPL_CHECK_OK(t.AddColumn("b2_region", std::move(region)));
  GPL_CHECK_OK(t.AddColumn("b2_when", std::move(when)));
  return t;
}

/// The built join states every chain probes; built once.
struct Joins {
  std::shared_ptr<HashJoinState> join1 = std::make_shared<HashJoinState>();
  std::shared_ptr<HashJoinState> join2 = std::make_shared<HashJoinState>();
  std::shared_ptr<PartitionedJoinState> join2_partitioned =
      std::make_shared<PartitionedJoinState>(4);
  /// Probes join1 through HashJoinState::shared, as a subplan-cache hit.
  std::shared_ptr<HashJoinState> join1_snapshot =
      std::make_shared<HashJoinState>();

  Joins() {
    GPL_CHECK(MakeHashBuildKernel({Col("bk1")}, join1)->Process(Build1()).ok());
    GPL_CHECK(MakeHashBuildKernel({Col("bk2")}, join2)->Process(Build2()).ok());
    GPL_CHECK(MakePartitionedBuildKernel({Col("bk2")}, join2_partitioned)
                  ->Process(Build2())
                  .ok());
    join1_snapshot->shared = join1;
  }
};

const Joins& SharedJoins() {
  static const Joins* joins = new Joins();
  return *joins;
}

enum class Chain {
  /// filter -> probe (duplicate keys) -> probe -> project -> aggregate
  kAggregate,
  /// project -> filter -> probe -> partitioned probe: every column carried
  /// to a wide materialized output, computed columns composed by a filter.
  kWide,
};

/// A fresh segment for `chain`; `snapshot` probes join1 from its snapshot.
Segment MakeChain(Chain chain, bool snapshot) {
  const Joins& joins = SharedJoins();
  const std::shared_ptr<HashJoinState> join1 =
      snapshot ? joins.join1_snapshot : joins.join1;
  Segment seg;
  const auto add = [&](KernelPtr kernel) {
    seg.stages.push_back({std::move(kernel)});
  };
  if (chain == Chain::kAggregate) {
    add(MakeFilterKernel(
        And(Ge(Col("flag"), LitInt(1)), Lt(Col("qty"), LitFloat(45.0)))));
    add(MakeHashProbeKernel({Col("k1")}, join1, {"b1_name", "b1_val"}));
    add(MakeHashProbeKernel({Col("k2")}, joins.join2, {"b2_region"}));
    const ExprPtr rev =
        Mul(Col("price"), Sub(LitFloat(1.0), Div(Col("qty"), LitFloat(100.0))));
    add(MakeProjectKernel({{"mode", Col("mode")},
                           {"b1_name", Col("b1_name")},
                           {"region", Col("b2_region")},
                           {"rev", rev},
                           {"v", Add(Col("b1_val"), Col("c_f64"))},
                           {"year", YearOf(Col("c_date"))}}));
    add(MakeAggregateKernel({{"mode", Col("mode")},
                             {"b1_name", Col("b1_name")},
                             {"region", Col("region")}},
                            {{AggSpec::kSum, Col("rev"), "sum_rev"},
                             {AggSpec::kCount, nullptr, "n"},
                             {AggSpec::kMax, Col("v"), "max_v"},
                             {AggSpec::kAvg, Col("year"), "avg_year"}}));
  } else {
    std::vector<ProjectedColumn> carry;
    for (const char* name :
         {"k1", "k2", "flag", "qty", "price", "ship", "mode", "c_i32", "c_i64",
          "c_f64", "c_date", "c_str", "pad"}) {
      carry.push_back({name, Col(name)});
    }
    carry.push_back({"disc", Mul(Col("price"), LitFloat(0.9))});
    carry.push_back({"k1_plus", Add(Col("k1"), LitInt(0))});
    add(MakeProjectKernel(std::move(carry)));
    add(MakeFilterKernel(
        And(Ge(Col("flag"), LitInt(2)), Gt(Col("disc"), LitFloat(50.0)))));
    add(MakeHashProbeKernel({Col("k1_plus")}, join1, {"b1_name", "b1_val"}));
    add(MakePartitionedProbeKernel({Col("k2")}, joins.join2_partitioned,
                                   {"b2_region", "b2_when"}));
  }
  return seg;
}

/// The materializing pipeline the row batches replace: every tile is a
/// copied slice and every stage's output a table, through Kernel::Process.
FunctionalRun RunMaterializing(const Segment& segment, const Table& input,
                               int64_t tile_bytes) {
  FunctionalRun run;
  run.stages.resize(segment.stages.size());
  run.input_rows = input.num_rows();
  run.input_bytes = input.byte_size();
  bool initialized = false;
  std::function<void(size_t, Table)> flow = [&](size_t first, Table batch) {
    for (size_t s = first; s < segment.stages.size(); ++s) {
      StageObservation& obs = run.stages[s];
      obs.rows_in += batch.num_rows();
      obs.bytes_in += batch.byte_size();
      Result<Table> out = segment.stages[s].kernel->Process(batch);
      GPL_CHECK_OK(out.status());
      obs.rows_out += out->num_rows();
      obs.bytes_out += out->byte_size();
      batch = out.take();
      if (batch.num_columns() == 0) return;
    }
    if (!initialized) {
      run.output = std::move(batch);
      initialized = true;
    } else {
      GPL_CHECK_OK(run.output.AppendTable(batch));
    }
  };
  const std::vector<TileRange> tiles =
      MakeTiles(input.num_rows(), input.row_width(), tile_bytes);
  run.num_tiles = static_cast<int64_t>(tiles.size());
  for (const TileRange& tile : tiles) {
    flow(0, input.Slice(tile.begin, tile.rows));
  }
  if (tiles.empty()) flow(0, input.Slice(0, 0));
  for (size_t s = 0; s < segment.stages.size(); ++s) {
    Result<Table> emitted = segment.stages[s].kernel->Finish();
    GPL_CHECK_OK(emitted.status());
    if (emitted->num_columns() == 0) continue;
    run.stages[s].rows_out += emitted->num_rows();
    run.stages[s].bytes_out += emitted->byte_size();
    flow(s + 1, emitted.take());
  }
  return run;
}

void ExpectTablesBitIdentical(const Table& expected, const Table& actual) {
  EXPECT_EQ(expected.name(), actual.name());
  ASSERT_EQ(expected.column_names(), actual.column_names());
  for (int64_t c = 0; c < expected.num_columns(); ++c) {
    SCOPED_TRACE(expected.ColumnNameAt(c));
    const Column& e = expected.ColumnAt(c);
    const Column& a = actual.ColumnAt(c);
    ASSERT_EQ(e.type(), a.type());
    EXPECT_EQ(e.dictionary(), a.dictionary());
    EXPECT_TRUE(e.data32() == a.data32());
    EXPECT_TRUE(e.data64() == a.data64());
    EXPECT_TRUE(e.dataf() == a.dataf());
  }
}

void ExpectObservationsEqual(const StageObservation& expected,
                             const StageObservation& actual) {
  EXPECT_EQ(expected.rows_in, actual.rows_in);
  EXPECT_EQ(expected.bytes_in, actual.bytes_in);
  EXPECT_EQ(expected.rows_out, actual.rows_out);
  EXPECT_EQ(expected.bytes_out, actual.bytes_out);
}

/// Runs `chain` both ways and checks output and observations match.
void CheckChain(Chain chain, bool snapshot, const Table& input,
                int64_t tile_bytes) {
  const FunctionalRun want =
      RunMaterializing(MakeChain(chain, snapshot), input, tile_bytes);
  Result<FunctionalRun> got =
      RunSegmentFunctional(MakeChain(chain, snapshot), input, tile_bytes);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EXPECT_EQ(got->input_rows, want.input_rows);
  EXPECT_EQ(got->input_bytes, want.input_bytes);
  EXPECT_EQ(got->num_tiles, want.num_tiles);
  ASSERT_EQ(got->stages.size(), want.stages.size());
  for (size_t s = 0; s < want.stages.size(); ++s) {
    SCOPED_TRACE("stage " + std::to_string(s));
    ExpectObservationsEqual(want.stages[s], got->stages[s]);
  }
  ExpectTablesBitIdentical(want.output, got->output);
  if (input.num_rows() > 0) {
    EXPECT_GT(want.output.num_rows(), 0);
  }
}

class LateMaterializationTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  int threads() const { return std::get<0>(GetParam()); }
  bool snapshot() const { return std::get<1>(GetParam()); }
};

TEST_P(LateMaterializationTest, AggregateChainMatchesMaterializingRun) {
  const Table input = WideInput();
  ScopedHostParallelism scope(threads());
  // kDeadRows-row tiles: 13 tiles, the last partial, the third all filtered
  // out. Then tiles wider than a morsel, and the whole input as one tile.
  const std::vector<TileRange> tiles = MakeTiles(
      input.num_rows(), input.row_width(), kDeadRows * input.row_width());
  ASSERT_EQ(tiles[2].begin, kDeadBegin);
  ASSERT_NE(tiles.back().rows, kDeadRows);
  for (const int64_t tile_rows : {kDeadRows, 2 * kMorselRows + 7, kRows}) {
    SCOPED_TRACE("tile rows " + std::to_string(tile_rows));
    CheckChain(Chain::kAggregate, snapshot(), input,
               tile_rows * input.row_width());
  }
}

TEST_P(LateMaterializationTest, WideChainMatchesMaterializingRun) {
  const Table input = WideInput();
  ScopedHostParallelism scope(threads());
  for (const int64_t tile_rows : {kDeadRows, 2 * kMorselRows + 7, kRows}) {
    SCOPED_TRACE("tile rows " + std::to_string(tile_rows));
    CheckChain(Chain::kWide, snapshot(), input, tile_rows * input.row_width());
  }
}

TEST_P(LateMaterializationTest, EmptyInputKeepsAggregateKeyTypes) {
  const Table input = WideInput().Slice(0, 0);
  ScopedHostParallelism scope(threads());
  CheckChain(Chain::kAggregate, snapshot(), input, KiB(64));
  CheckChain(Chain::kWide, snapshot(), input, KiB(64));
  Result<FunctionalRun> run = RunSegmentFunctional(
      MakeChain(Chain::kAggregate, snapshot()), input, KiB(64));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->output.num_rows(), 0);
  EXPECT_EQ(run->output.GetColumn("mode").type(), DataType::kString);
  EXPECT_EQ(run->output.GetColumn("mode").dictionary(),
            input.GetColumn("mode").dictionary());
  EXPECT_EQ(run->output.GetColumn("b1_name").type(), DataType::kString);
  EXPECT_EQ(run->output.GetColumn("region").type(), DataType::kInt32);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSnapshot, LateMaterializationTest,
    ::testing::Combine(::testing::Values(1, 4), ::testing::Bool()));

/// HwCounters and elapsed_ms of Q5 and Q9 at SF 0.01. Simulated time reads
/// only observed rows and bytes, so neither the functional layer nor the
/// simulator's plumbing may move it by one bit. The rows cover every
/// simulator path: RunKernelBatch (kbe, ocelot), RunPipeline (gpl),
/// RunSequentialTiles (noce, fused, and gpl with every channel allocation
/// failing, which degrades each pipelined segment).
struct PinnedRun {
  const char* query;
  EngineMode mode;
  double elapsed_ms;
  sim::HwCounters counters;
  bool channels_fail = false;
};

const PinnedRun kPinned[] = {
    {"Q5", EngineMode::kKbe, 0x1.2514dcf811503p-1,
     {0x1.927c76b46b46bp+18, 0x1.a688p+17, 0x1.26160d0750751p+19, 0x0p+0,
      0x0p+0, 0x1.4244p+18, 0x1.a677cccccccccp+12, 0x1.c49p+12,
      0x1.8eb4787c57c58p+22, 494720, 0}},
    {"Q9", EngineMode::kKbe, 0x1.77da92587494dp+0,
     {0x1.02140cccccccdp+20, 0x1.637ap+19, 0x1.83c5024924925p+22, 0x0p+0,
      0x0p+0, 0x1.f20cp+17, 0x1.3fbdp+14, 0x1.5648p+14, 0x1.5d0c7ed41d41dp+26,
      13575372, 0}},
    {"Q5", EngineMode::kGpl, 0x1.c5f7b078fb45fp-2,
     {0x1.37b6fb2492492p+18, 0x1.a86p+17, 0x1.9d9772972972ap+18, 0x1.954p+12,
      0x1.ee4dbf63f63f8p+16, 0x1.01dp+18, 0x1.7c6p+13, 0x1.8ac8p+13,
      0x1.93543797c57c9p+21, 187368, 186656}},
    {"Q9", EngineMode::kGpl, 0x1.11b61b05f044ep-1,
     {0x1.77e2a57c57c59p+18, 0x1.5c4p+19, 0x1.ed225a83a83a7p+19,
      0x1.5da3492492492p+17, 0x1.f8cf6cccccccfp+18, 0x1.abbcp+17,
      0x1.78a87586c9987p+18, 0x1.7a3098p+18, 0x1.e1b7c33333333p+21, 1611768,
      11709004}},
    {"Q5", EngineMode::kFused, 0x1.b531b64cf4946p-2,
     {0x1.2c328a7507508p+18, 0x1.9da013a92a305p+17, 0x1.b28c0bbbbbbbcp+18,
      0x1.5c24924924924p+11, 0x1.bf92e72972975p+16, 0x1.e942p+17,
      0x1.e734b2dbd1942p+12, 0x1.00be596de8ca1p+13, 0x1.9b6c31aa0ea12p+21,
      272408, 56276}},
    {"Q9", EngineMode::kFused, 0x1.00d6b499ca71fp-1,
     {0x1.60b6da6473141p+18, 0x1.575cd3a06d3ap+19, 0x1.0b428af8af8afp+20,
      0x1.1e6d075075075p+16, 0x1.335f6cccccccfp+18, 0x1.85a6p+17,
      0x1.447688eb710ecp+17, 0x1.466eadddddddep+17, 0x1.429a263d70a3ep+22,
      2091656, 4786916}},
    {"Q5", EngineMode::kGplNoCe, 0x1.4ea4e33b394cap-1,
     {0x1.cb90504e04e05p+18, 0x1.6ad8p+17, 0x1.cae2b3a83a83bp+18, 0x0p+0,
      0x0p+0, 0x1.8e7p+18, 0x1.54b5p+12, 0x1.6b38p+12,
      0x1.5d49285f15f17p+22, 374024, 0}},
    {"Q9", EngineMode::kGplNoCe, 0x1.5b56cc285b4dap+0,
     {0x1.dcff62be2be2cp+19, 0x1.443ap+19, 0x1.367ed8af8af8cp+22, 0x0p+0,
      0x0p+0, 0x1.482p+18, 0x1.2ab599999999ap+14, 0x1.3688p+14,
      0x1.161c8495f15f2p+26, 13320772, 0}},
    {"Q5", EngineMode::kOcelot, 0x1.09ca05525f407p-1,
     {0x1.6d017eeeeeeefp+18, 0x1.7a18p+17, 0x1.087a0283a83a9p+19, 0x0p+0,
      0x0p+0, 0x1.24f8p+18, 0x1.7a6699999999ap+12, 0x1.982p+12,
      0x1.70f9ead41d41ep+22, 376557, 0}},
    {"Q9", EngineMode::kOcelot, 0x1.72432aa62c3aap+0,
     {0x1.fc7a5d41d41d4p+19, 0x1.61fap+19, 0x1.836a45f15f15fp+22, 0x0p+0,
      0x0p+0, 0x1.d4cp+17, 0x1.3e40333333333p+14, 0x1.54c8p+14,
      0x1.5d06d30ea0ea1p+26, 13559623, 0}},
    // Every pipelined segment degrades to RunSequentialTiles with the tuned
    // parameters the noce mode also runs, so this equals the noce row.
    {"Q5", EngineMode::kGpl, 0x1.4ea4e33b394cap-1,
     {0x1.cb90504e04e05p+18, 0x1.6ad8p+17, 0x1.cae2b3a83a83bp+18, 0x0p+0,
      0x0p+0, 0x1.8e7p+18, 0x1.54b5p+12, 0x1.6b38p+12,
      0x1.5d49285f15f17p+22, 374024, 0},
     /*channels_fail=*/true},
};

TEST(LateMaterializationPinTest, SimulatedTimeIsPinned) {
  tpch::DbgenConfig config;
  config.scale_factor = 0.01;
  config.seed = 20160626;
  const tpch::Database db = tpch::Generate(config);
  for (const PinnedRun& pinned : kPinned) {
    SCOPED_TRACE(std::string(pinned.query) + " mode " +
                 EngineModeName(pinned.mode) +
                 (pinned.channels_fail ? " channels fail" : ""));
    EngineOptions options;
    options.mode = pinned.mode;
    Engine engine(&db, options);
    sim::FaultConfig faults;
    faults.channel_alloc_fail_rate = 1.0;
    sim::FaultInjector injector(faults);
    ExecOptions exec = options.exec;
    if (pinned.channels_fail) exec.fault = &injector;
    Result<QueryResult> result = engine.Execute(
        std::string(pinned.query) == "Q5" ? queries::Q5() : queries::Q9(),
        exec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->metrics.degraded_segments > 0, pinned.channels_fail);
    EXPECT_EQ(result->metrics.elapsed_ms, pinned.elapsed_ms);
    testing_util::ExpectCountersBitIdentical(pinned.counters,
                                             result->metrics.counters);
  }
}

}  // namespace
}  // namespace gpl
