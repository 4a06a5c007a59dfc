/// Micro-benchmarks (google-benchmark) for the building blocks: data
/// generation, expression evaluation, the relational primitives, the join
/// hash table, and the event simulator. These are wall-clock benchmarks of
/// the library itself, complementing the figure harnesses (which report
/// simulated GPU time).
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "exec/hash_table.h"
#include "exec/primitives.h"
#include "model/calibration.h"
#include "plan/segment.h"
#include "sim/engine.h"
#include "tpch/dbgen.h"

namespace gpl {
namespace {

const tpch::Database& BenchDb() {
  static const tpch::Database* db = [] {
    tpch::DbgenConfig config;
    config.scale_factor = 0.01;
    return new tpch::Database(tpch::Generate(config));
  }();
  return *db;
}

// Argument: scale factor in thousandths (1000 = SF 1).
void BM_Dbgen(benchmark::State& state) {
  tpch::DbgenConfig config;
  config.scale_factor = static_cast<double>(state.range(0)) / 1000.0;
  int64_t bytes = 0;
  for (auto _ : state) {
    tpch::Database db = tpch::Generate(config);
    bytes = db.byte_size();
    benchmark::DoNotOptimize(db.lineitem.num_rows());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_Dbgen)->Arg(2)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_FilterKernel(benchmark::State& state) {
  const tpch::Database& db = BenchDb();
  KernelPtr kernel = MakeFilterKernel(
      Lt(Col("l_quantity"), LitInt(static_cast<int64_t>(state.range(0)))));
  for (auto _ : state) {
    Result<Table> out = kernel->Process(db.lineitem);
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * db.lineitem.num_rows());
}
BENCHMARK(BM_FilterKernel)->Arg(5)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_HashBuild(benchmark::State& state) {
  const tpch::Database& db = BenchDb();
  for (auto _ : state) {
    auto hj = std::make_shared<HashJoinState>();
    KernelPtr build = MakeHashBuildKernel({Col("o_orderkey")}, hj);
    Result<Table> out = build->Process(db.orders);
    benchmark::DoNotOptimize(hj->table.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * db.orders.num_rows());
}
BENCHMARK(BM_HashBuild)->Unit(benchmark::kMillisecond);

void BM_HashProbe(benchmark::State& state) {
  const tpch::Database& db = BenchDb();
  auto hj = std::make_shared<HashJoinState>();
  KernelPtr build = MakeHashBuildKernel({Col("o_orderkey")}, hj);
  GPL_CHECK(build->Process(db.orders).ok());
  KernelPtr probe = MakeHashProbeKernel({Col("l_orderkey")}, hj, {"o_orderdate"});
  for (auto _ : state) {
    Result<Table> out = probe->Process(db.lineitem);
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * db.lineitem.num_rows());
}
BENCHMARK(BM_HashProbe)->Unit(benchmark::kMillisecond);

/// One segment of the functional layer end to end over every lineitem
/// column: filter -> probe orders -> probe supplier -> aggregate, in 1 MiB
/// tiles through RunSegmentFunctional. The stages hand on row batches, so
/// the carried columns are never copied; rows/s is the layer's standing
/// number (DESIGN.md decision 13).
void BM_SegmentFunctionalWide(benchmark::State& state) {
  const tpch::Database& db = BenchDb();
  auto orders = std::make_shared<HashJoinState>();
  auto supplier = std::make_shared<HashJoinState>();
  GPL_CHECK(MakeHashBuildKernel({Col("o_orderkey")}, orders)->Process(db.orders).ok());
  GPL_CHECK(
      MakeHashBuildKernel({Col("s_suppkey")}, supplier)->Process(db.supplier).ok());
  Segment segment;
  segment.stages.push_back(
      {MakeFilterKernel(Lt(Col("l_shipdate"), LitDate("1997-01-01")))});
  segment.stages.push_back({MakeHashProbeKernel(
      {Col("l_orderkey")}, orders, {"o_orderdate", "o_custkey"})});
  segment.stages.push_back({MakeHashProbeKernel(
      {Col("l_suppkey")}, supplier, {"s_nationkey"})});
  segment.stages.push_back({MakeAggregateKernel(
      {{"s_nationkey", Col("s_nationkey")}},
      {{AggSpec::kSum,
        Mul(Col("l_extendedprice"), Sub(LitFloat(1.0), Col("l_discount"))),
        "revenue"}})});
  for (auto _ : state) {
    segment.stages.back().kernel->Reset();
    Result<FunctionalRun> run =
        RunSegmentFunctional(segment, db.lineitem, MiB(1));
    GPL_CHECK(run.ok());
    benchmark::DoNotOptimize(run->output.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * db.lineitem.num_rows());
}
BENCHMARK(BM_SegmentFunctionalWide)->Unit(benchmark::kMillisecond);

void BM_PrefixSum(benchmark::State& state) {
  Random rng(1);
  Column flags(DataType::kInt32);
  for (int i = 0; i < 1 << 20; ++i) {
    flags.AppendInt32(rng.Bernoulli(0.5) ? 1 : 0);
  }
  for (auto _ : state) {
    int64_t total = 0;
    Column offsets = PrefixSum(flags, &total);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * flags.size());
}
BENCHMARK(BM_PrefixSum)->Unit(benchmark::kMillisecond);

void BM_SortKernel(benchmark::State& state) {
  const tpch::Database& db = BenchDb();
  for (auto _ : state) {
    KernelPtr sort = MakeSortKernel({{"o_totalprice", true}});
    GPL_CHECK(sort->Process(db.orders).ok());
    Result<Table> out = sort->Finish();
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * db.orders.num_rows());
}
BENCHMARK(BM_SortKernel)->Unit(benchmark::kMillisecond);

void BM_JoinHashTableProbe(benchmark::State& state) {
  Random rng(7);
  std::vector<int64_t> keys(1 << 18);
  for (auto& k : keys) k = rng.Uniform(0, 1 << 16);
  JoinHashTable ht;
  ht.Build(keys);
  std::vector<int64_t> matches;
  int64_t i = 0;
  for (auto _ : state) {
    matches.clear();
    ht.Probe(i++ & 0xffff, &matches);
    benchmark::DoNotOptimize(matches.size());
  }
}
BENCHMARK(BM_JoinHashTableProbe);

/// A join hash table over build keys 0..2^log2_keys-1, built once per size.
/// At 2^22 keys (8 M bucket heads plus three 4 M-entry arrays, 160 MB) it
/// is larger than the last-level cache, so each probe misses in it; at
/// 2^16 (2.5 MB) it stays cache-resident.
const JoinHashTable& JoinTableOfSize(int log2_keys) {
  static std::map<int, JoinHashTable> tables;
  auto [it, inserted] = tables.try_emplace(log2_keys);
  if (inserted) {
    std::vector<int64_t> keys(size_t{1} << log2_keys);
    for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
    it->second.Build(keys);
  }
  return it->second;
}

/// 64 K random probe keys, each matching once, against
/// JoinTableOfSize(range(1)). range(0) = 0 probes key by key with Probe,
/// the loop ProbeAll ran before ProbeBatch; 1 probes the whole span with
/// one ProbeBatch call.
void BM_JoinHashTableProbeBatch(benchmark::State& state) {
  const int log2_keys = static_cast<int>(state.range(1));
  const JoinHashTable& ht = JoinTableOfSize(log2_keys);
  Random rng(9);
  std::vector<int64_t> keys(1 << 16);
  for (auto& k : keys) k = rng.Uniform(0, (int64_t{1} << log2_keys) - 1);
  const int64_t n = static_cast<int64_t>(keys.size());
  std::vector<int64_t> probe_idx, build_idx, rows;
  for (auto _ : state) {
    probe_idx.clear();
    build_idx.clear();
    if (state.range(0) == 0) {
      for (int64_t i = 0; i < n; ++i) {
        rows.clear();
        ht.Probe(keys[static_cast<size_t>(i)], &rows);
        for (int64_t r : rows) {
          probe_idx.push_back(i);
          build_idx.push_back(r);
        }
      }
    } else {
      ht.ProbeBatch(keys.data(), n, 0, &probe_idx, &build_idx);
    }
    benchmark::DoNotOptimize(probe_idx.data());
    benchmark::DoNotOptimize(build_idx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_JoinHashTableProbeBatch)
    ->Args({0, 22})
    ->Args({1, 22})
    ->Args({0, 16})
    ->Args({1, 16});

void BM_EventSimulatorPipeline(benchmark::State& state) {
  sim::Simulator simulator(sim::DeviceSpec::AmdA10());
  for (auto _ : state) {
    sim::ChannelConfig config;
    config.num_channels = static_cast<int>(state.range(0));
    const sim::HwCounters r =
        model::RunProducerConsumer(simulator, config, MiB(16));
    benchmark::DoNotOptimize(r.elapsed_cycles);
  }
}
BENCHMARK(BM_EventSimulatorPipeline)->Arg(1)->Arg(8)->Arg(16);

void BM_Calibration(benchmark::State& state) {
  sim::Simulator simulator(sim::DeviceSpec::AmdA10());
  for (auto _ : state) {
    const model::CalibrationTable table =
        model::CalibrationTable::Run(simulator);
    benchmark::DoNotOptimize(table.points().size());
  }
}
BENCHMARK(BM_Calibration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gpl

BENCHMARK_MAIN();
