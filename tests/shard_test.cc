#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "engine/engine.h"
#include "engine/explain_analyze.h"
#include "engine/metrics_json.h"
#include "exec/exact_sum.h"
#include "exec/expr.h"
#include "model/exchange_model.h"
#include "obs/registry.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"
#include "queries/tpch_queries.h"
#include "ref/reference_executor.h"
#include "service/query_service.h"
#include "shard/device_group.h"
#include "shard/partitioner.h"
#include "shard/sharded_executor.h"
#include "sim/link.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/table.h"
#include "storage/types.h"
#include "test_util.h"
#include "trace/json.h"
#include "trace/trace.h"
#include "tpch/dbgen.h"

namespace gpl {
namespace {

using shard::DeviceGroup;
using shard::PartitionDatabase;
using shard::PartitionOptions;
using shard::ShardedDatabase;
using shard::ShardedExecutor;
using shard::ShardOfKey;
using testing_util::ExpectCountersBitIdentical;
using testing_util::ExpectTablesBitIdentical;
using testing_util::SmallDb;

/// Bit-level table equality: raw physical buffers, not a tolerance compare.
/// Execution is simulated, so sharding must not change a single bit.
/// Calibrations are the expensive part of executor construction; share one
/// table per device across every test in this binary.
const std::map<std::string, model::CalibrationTable>& SharedCalibrations() {
  static const auto* calibrations = [] {
    auto* map = new std::map<std::string, model::CalibrationTable>();
    for (const sim::DeviceSpec& spec :
         {sim::DeviceSpec::AmdA10(), sim::DeviceSpec::NvidiaK40()}) {
      map->emplace(spec.name, model::CalibrationTable::Run(sim::Simulator(spec)));
    }
    return map;
  }();
  return *calibrations;
}

// ---- Partitioner ----

TEST(PartitionerTest, ShardOfKeyIsStableInRangeAndSpreads) {
  std::set<int> used;
  for (int64_t key = 0; key < 256; ++key) {
    const int s = ShardOfKey(key, 8);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 8);
    EXPECT_EQ(s, ShardOfKey(key, 8));
    used.insert(s);
  }
  EXPECT_EQ(used.size(), 8u) << "dense keys must spread across shards";
}

TEST(PartitionerTest, RejectsNonPositiveShardCount) {
  PartitionOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(PartitionDatabase(SmallDb(), options).ok());
}

TEST(PartitionerTest, HashShardsPreserveRowsOrderAndCoPartitionOrders) {
  PartitionOptions options;
  options.num_shards = 4;
  Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->num_shards(), 4);
  EXPECT_EQ(sharded->fact_table(), "lineitem");
  EXPECT_TRUE(sharded->IsPartitioned("orders"));
  EXPECT_FALSE(sharded->IsPartitioned("customer"));

  // (l_orderkey, l_linenumber) is lineitem's key: it names each source row.
  const Table& source = *SmallDb().ByName("lineitem");
  const auto row_key = [](const Table& t, int64_t r) {
    return std::make_pair(t.GetColumn("l_orderkey").AsInt64(r),
                          t.GetColumn("l_linenumber").AsInt64(r));
  };
  std::map<std::pair<int64_t, int64_t>, int64_t> source_index;
  for (int64_t r = 0; r < source.num_rows(); ++r) {
    ASSERT_TRUE(source_index.emplace(row_key(source, r), r).second);
  }

  int64_t total_rows = 0;
  std::set<int64_t> seen_rows;
  for (const tpch::Database& shard : sharded->shards) {
    const Table* lineitem = shard.ByName("lineitem");
    ASSERT_NE(lineitem, nullptr);
    const Column& orderkey = lineitem->GetColumn("l_orderkey");
    int64_t previous = -1;
    for (int64_t r = 0; r < lineitem->num_rows(); ++r) {
      auto it = source_index.find(row_key(*lineitem, r));
      ASSERT_NE(it, source_index.end()) << "shard row missing from source";
      EXPECT_GT(it->second, previous) << "shard rows must keep source order";
      previous = it->second;
      EXPECT_TRUE(seen_rows.insert(it->second).second)
          << "source row " << it->second << " on two shards";
      // Rows landed on the shard their join key hashes to, and the
      // co-partitioned orders rows are the only ones with that property.
      EXPECT_EQ(ShardOfKey(orderkey.AsInt64(r), 4),
                static_cast<int>(&shard - sharded->shards.data()));
    }
    total_rows += lineitem->num_rows();

    // Dimensions are broadcast: full copies sharing the source dictionary.
    const Table* nation = shard.ByName("nation");
    ASSERT_NE(nation, nullptr);
    EXPECT_EQ(nation->num_rows(), SmallDb().ByName("nation")->num_rows());
    EXPECT_EQ(nation->GetColumn("n_name").dictionary(),
              SmallDb().ByName("nation")->GetColumn("n_name").dictionary());
  }
  EXPECT_EQ(total_rows, source.num_rows());
  EXPECT_EQ(static_cast<int64_t>(seen_rows.size()), source.num_rows());
}

TEST(PartitionerTest, SkewedShardCountsStillCoverEveryRow) {
  // 1 shard (degenerate) and 7 shards (non-power-of-two) both partition
  // without losing or duplicating rows.
  for (int n : {1, 7}) {
    PartitionOptions options;
    options.num_shards = n;
    Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    int64_t total = 0;
    for (const tpch::Database& shard : sharded->shards) {
      total += shard.ByName("lineitem")->num_rows();
    }
    EXPECT_EQ(total, SmallDb().ByName("lineitem")->num_rows()) << n;
  }
}

// ---- Link ----

TEST(LinkTest, TransferMsIsLatencyPlusBandwidthAndZeroBytesFree) {
  sim::LinkSpec spec;
  spec.gbytes_per_sec = 16.0;
  spec.latency_us = 5.0;
  EXPECT_DOUBLE_EQ(spec.TransferMs(0), 0.0);
  // 16 MB at 16 GB/s = 1 ms payload + 0.005 ms setup.
  EXPECT_DOUBLE_EQ(spec.TransferMs(16'000'000), 1.005);
}

// ---- Exchange model ----

TEST(ExchangeModelTest, BroadcastsDimensionsAndRepartitionsFactSizedInputs) {
  // Zero link latency makes modeled ms proportional to bytes, so the plan is
  // the pure byte argmin and the expectations below are exact arithmetic.
  sim::LinkSpec link;
  link.latency_us = 0.0;
  const int64_t fact_bytes = 1'000'000;

  // Dimensions-only plan: each relation's standalone repartition would drag
  // the whole fact spine with it, so everything broadcasts.
  {
    std::vector<model::ExchangeInput> inputs;
    inputs.push_back({"nation", /*bytes=*/1000, /*rows=*/25, false});
    inputs.push_back({"orders", /*bytes=*/400'000, /*rows=*/1500, true});
    model::ExchangePlan plan =
        model::PlanExchange(inputs, link, /*num_shards=*/4, fact_bytes);
    ASSERT_EQ(plan.decisions.size(), 2u);
    EXPECT_EQ(plan.decisions[0].strategy, model::ExchangeStrategy::kBroadcast);
    EXPECT_EQ(plan.decisions[0].bytes, 1000 * 3);
    EXPECT_EQ(plan.decisions[1].strategy,
              model::ExchangeStrategy::kCoPartitioned);
    EXPECT_EQ(plan.decisions[1].bytes, 0);
    EXPECT_FALSE(plan.has_spine);
    EXPECT_EQ(plan.total_bytes, 1000 * 3);
    EXPECT_EQ(plan.all_broadcast_bytes, 1000 * 3);
  }

  // A fact-sized input flips to repartition: broadcasting 9 MB to 3 peers
  // (27 MB) loses to shipping its outbound fraction plus the one spine
  // relocation, 9 MB * 3/4 + 1 MB * 3/4 = 7.5 MB. Once that relocation is
  // paid, the small dimension rides along for its own fraction (750 bytes
  // in one DMA beats three 1000-byte copies).
  {
    std::vector<model::ExchangeInput> inputs;
    inputs.push_back({"bigside", /*bytes=*/9'000'000, /*rows=*/100'000, false});
    inputs.push_back({"nation", /*bytes=*/1000, /*rows=*/25, false});
    inputs.push_back({"orders", /*bytes=*/400'000, /*rows=*/1500, true});
    model::ExchangePlan plan =
        model::PlanExchange(inputs, link, /*num_shards=*/4, fact_bytes);
    ASSERT_EQ(plan.decisions.size(), 3u);

    const model::ExchangeDecision& big = plan.decisions[0];
    EXPECT_EQ(big.strategy, model::ExchangeStrategy::kRepartition);
    EXPECT_EQ(big.bytes, (9'000'000 + fact_bytes) * 3 / 4);
    EXPECT_EQ(big.spine_bytes, fact_bytes * 3 / 4);

    const model::ExchangeDecision& nation = plan.decisions[1];
    EXPECT_EQ(nation.strategy, model::ExchangeStrategy::kRepartition);
    EXPECT_EQ(nation.bytes, 1000 * 3 / 4);
    EXPECT_EQ(nation.spine_bytes, 0);  // bigside already pays the relocation

    const model::ExchangeDecision& orders = plan.decisions[2];
    EXPECT_EQ(orders.strategy, model::ExchangeStrategy::kCoPartitioned);
    EXPECT_EQ(orders.bytes, 0);
    EXPECT_DOUBLE_EQ(orders.ms, 0.0);

    EXPECT_TRUE(plan.has_spine);
    EXPECT_EQ(plan.spine_table, "bigside");
    EXPECT_EQ(plan.spine_bytes, fact_bytes * 3 / 4);
    EXPECT_EQ(plan.total_bytes, big.bytes + nation.bytes);
    EXPECT_DOUBLE_EQ(plan.total_ms, big.ms + nation.ms);
    EXPECT_EQ(plan.all_broadcast_bytes, 9'000'000 * 3 + 1000 * 3);
    EXPECT_LT(plan.total_bytes, plan.all_broadcast_bytes);
  }
}

TEST(ExchangeModelTest, ChargesSpineRelocationOnceAcrossRepartitions) {
  // Two mid-sized dimensions, each with a known 4 MB attach spine. Charged
  // per relation (the old bug), repartitioning costs 2 x (0.9 + 3) = 7.8 MB
  // and loses to the 7.2 MB double broadcast; charged once, it costs
  // 0.9 + 0.9 + 3 = 4.8 MB and wins. The subset argmin must find that.
  sim::LinkSpec link;
  link.latency_us = 0.0;
  std::vector<model::ExchangeInput> inputs;
  inputs.push_back({"dim_a", /*bytes=*/1'200'000, /*rows=*/12'000, false,
                    /*spine_bytes=*/4'000'000});
  inputs.push_back({"dim_b", /*bytes=*/1'200'000, /*rows=*/12'000, false,
                    /*spine_bytes=*/4'000'000});
  model::ExchangePlan plan = model::PlanExchange(
      inputs, link, /*num_shards=*/4, /*fact_bytes=*/50'000'000);
  ASSERT_EQ(plan.decisions.size(), 2u);
  EXPECT_EQ(plan.decisions[0].strategy, model::ExchangeStrategy::kRepartition);
  EXPECT_EQ(plan.decisions[1].strategy, model::ExchangeStrategy::kRepartition);

  // Exactly one decision carries the relocation; totals count it once.
  const int64_t own = 1'200'000 * 3 / 4;
  const int64_t reloc = 4'000'000 * 3 / 4;
  EXPECT_EQ(plan.decisions[0].bytes, own + reloc);  // widest-tie: first pays
  EXPECT_EQ(plan.decisions[0].spine_bytes, reloc);
  EXPECT_EQ(plan.decisions[1].bytes, own);
  EXPECT_EQ(plan.decisions[1].spine_bytes, 0);
  EXPECT_TRUE(plan.has_spine);
  EXPECT_EQ(plan.spine_table, "dim_a");
  EXPECT_EQ(plan.spine_bytes, reloc);
  EXPECT_EQ(plan.total_bytes, 2 * own + reloc);
  EXPECT_EQ(plan.all_broadcast_bytes, 2 * 1'200'000 * 3);
  EXPECT_LT(plan.total_bytes, plan.all_broadcast_bytes);

  // The widest spine pays: with unequal spines the relocation is priced off
  // the larger one, and the narrow-spine relation ships its fraction alone.
  inputs[1].spine_bytes = 6'000'000;
  plan = model::PlanExchange(inputs, link, 4, 50'000'000);
  EXPECT_TRUE(plan.has_spine);
  EXPECT_EQ(plan.spine_table, "dim_b");
  EXPECT_EQ(plan.spine_bytes, 6'000'000 * 3 / 4);
  EXPECT_EQ(plan.decisions[0].bytes, own);
  EXPECT_EQ(plan.decisions[1].bytes, own + 6'000'000 * 3 / 4);

  // A lone repartition prices exactly like standalone PriceExchange.
  const model::ExchangeInput fat = {"fat", 9'000'000, 90'000, false,
                                    /*spine_bytes=*/4'000'000};
  const model::ExchangeDecision standalone = model::PriceExchange(
      fat, model::ExchangeStrategy::kRepartition, link, 4, 50'000'000);
  model::ExchangePlan lone = model::PlanExchange({fat}, link, 4, 50'000'000);
  ASSERT_EQ(lone.decisions.size(), 1u);
  EXPECT_EQ(lone.decisions[0].strategy, model::ExchangeStrategy::kRepartition);
  EXPECT_EQ(lone.decisions[0].bytes, standalone.bytes);
  EXPECT_DOUBLE_EQ(lone.decisions[0].ms, standalone.ms);
}

// ---- Device list parsing ----

TEST(DeviceListTest, ParsesNamesAndRejectsEmptyTokens) {
  Result<std::vector<sim::DeviceSpec>> list = ParseDeviceList("amd,nvidia,amd");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].name, sim::DeviceSpec::AmdA10().name);
  EXPECT_EQ((*list)[1].name, sim::DeviceSpec::NvidiaK40().name);

  EXPECT_FALSE(ParseDeviceList("").ok());
  EXPECT_FALSE(ParseDeviceList("amd,,nvidia").ok());
  EXPECT_FALSE(ParseDeviceList("amd,tpu").ok());
}

// ---- Device group ----

TEST(DeviceGroupTest, HomogeneousAndToString) {
  DeviceGroup group = DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 4);
  EXPECT_EQ(group.size(), 4);
  EXPECT_NE(group.ToString().find("x4"), std::string::npos);
  EXPECT_NE(group.ToString().find(group.link.name), std::string::npos);
}

// ---- Bit-identity of sharded execution ----

struct ShardedTruth {
  std::string name;
  QueryResult single;
};

const std::vector<ShardedTruth>& SingleDeviceTruth(EngineMode mode) {
  static auto* cache = new std::map<EngineMode, std::vector<ShardedTruth>>();
  auto it = cache->find(mode);
  if (it != cache->end()) return it->second;
  EngineOptions options;
  options.mode = mode;
  options.calibration =
      &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
  Engine engine(&SmallDb(), options);
  std::vector<ShardedTruth> truth;
  for (auto& [name, query] : queries::EvaluationSuite()) {
    Result<QueryResult> result = engine.Execute(query);
    GPL_CHECK(result.ok()) << name << ": " << result.status().ToString();
    truth.push_back({name, result.take()});
  }
  return cache->emplace(mode, std::move(truth)).first->second;
}

void ExpectShardedBitIdentical(const DeviceGroup& group, EngineMode mode) {
  PartitionOptions poptions;
  poptions.num_shards = group.size();
  Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), poptions);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  EngineOptions options;
  options.mode = mode;
  ShardedExecutor executor(&SmallDb(), &*sharded, group, options,
                           &SharedCalibrations());

  const std::vector<ShardedTruth>& truth = SingleDeviceTruth(mode);
  const auto suite = queries::EvaluationSuite();
  ASSERT_EQ(suite.size(), truth.size());
  for (size_t qi = 0; qi < suite.size(); ++qi) {
    const ShardedTruth& t = truth[qi];
    SCOPED_TRACE(t.name + " on " + group.ToString());
    Result<QueryResult> got = executor.Execute(suite[qi].second);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTablesBitIdentical(t.single.table, got->table);

    const QueryMetrics& m = got->metrics;
    EXPECT_EQ(m.num_shards, group.size());
    ASSERT_EQ(m.device_elapsed_ms.size(), static_cast<size_t>(group.size()));
    ASSERT_EQ(m.device_utilization.size(), static_cast<size_t>(group.size()));
    for (int i = 0; i < group.size(); ++i) {
      EXPECT_GT(m.device_elapsed_ms[static_cast<size_t>(i)], 0.0);
      EXPECT_LE(m.device_elapsed_ms[static_cast<size_t>(i)], m.elapsed_ms);
      EXPECT_GT(m.device_utilization[static_cast<size_t>(i)], 0.0);
      EXPECT_LE(m.device_utilization[static_cast<size_t>(i)], 1.0);
    }
    EXPECT_EQ(m.exchange_bytes, m.broadcast_bytes + m.shuffle_bytes);
    if (group.size() > 1) {
      EXPECT_GT(m.exchange_bytes, 0);
      EXPECT_GT(m.exchange_ms, 0.0);
      EXPECT_GT(m.merge_ms, 0.0);
      // Every suite query's aggregate input is provably partitioned.
      EXPECT_TRUE(m.partial_combine);
    } else {
      // A 1-device group runs the plain plan on its one device: no
      // exchange, no merge — zero sharding tax.
      EXPECT_EQ(m.exchange_bytes, 0);
      EXPECT_DOUBLE_EQ(m.exchange_ms, 0.0);
      EXPECT_DOUBLE_EQ(m.merge_ms, 0.0);
      EXPECT_FALSE(m.partial_combine);
      EXPECT_EQ(m.elapsed_ms, t.single.metrics.elapsed_ms);
    }
  }
}

TEST(ShardedBitIdentityTest, HomogeneousHashAllShardCounts) {
  for (int n : {1, 2, 4, 8}) {
    ExpectShardedBitIdentical(
        DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), n),
        EngineMode::kGpl);
  }
}

TEST(ShardedBitIdentityTest, NonPowerOfTwoShardCounts) {
  for (int n : {3, 5}) {
    ExpectShardedBitIdentical(
        DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), n),
        EngineMode::kGpl);
  }
}

TEST(ShardedBitIdentityTest, MixedDeviceGroup) {
  DeviceGroup mixed;
  mixed.devices = {sim::DeviceSpec::AmdA10(), sim::DeviceSpec::NvidiaK40(),
                   sim::DeviceSpec::AmdA10(), sim::DeviceSpec::NvidiaK40()};
  ExpectShardedBitIdentical(mixed, EngineMode::kGpl);
}

TEST(ShardedBitIdentityTest, KbeModeShards) {
  ExpectShardedBitIdentical(
      DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 2),
      EngineMode::kKbe);
}

TEST(ShardedExecutorTest, RepeatRunsAreDeterministic) {
  PartitionOptions poptions;
  poptions.num_shards = 4;
  Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), poptions);
  ASSERT_TRUE(sharded.ok());
  DeviceGroup group = DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 4);
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.metrics = &registry;
  ShardedExecutor executor(&SmallDb(), &*sharded, group, options,
                           &SharedCalibrations());
  Result<QueryResult> first = executor.Execute(queries::Q5());
  Result<QueryResult> second = executor.Execute(queries::Q5());
  ASSERT_TRUE(first.ok() && second.ok());
  ExpectTablesBitIdentical(first->table, second->table);
  EXPECT_EQ(first->metrics.elapsed_ms, second->metrics.elapsed_ms);
  EXPECT_EQ(first->metrics.exchange_bytes, second->metrics.exchange_bytes);

  // The exchange series counted both executions' traffic.
  EXPECT_EQ(shard::ExchangeBytesCounter(&registry, "broadcast")->Value() +
                shard::ExchangeBytesCounter(&registry, "shuffle")->Value(),
            2 * static_cast<uint64_t>(first->metrics.exchange_bytes));
}

TEST(ShardedExecutorTest, ExplainRendersExchangeOperatorsInline) {
  PartitionOptions poptions;
  poptions.num_shards = 4;
  Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), poptions);
  ASSERT_TRUE(sharded.ok());
  DeviceGroup group = DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 4);
  ShardedExecutor executor(&SmallDb(), &*sharded, group, EngineOptions{},
                           &SharedCalibrations());

  // Q9's whole join tree above the fact scan partitions, so the aggregate
  // is pushed down: the plan gathers per-shard partials, and orders — joined
  // above the fact scan, co-partitioned on orderkey — runs distributed as an
  // in-place passthrough, zero bytes.
  Result<shard::DistributedExplain> q9 = executor.Explain(queries::Q9());
  ASSERT_TRUE(q9.ok()) << q9.status().ToString();
  EXPECT_EQ(q9->num_shards, 4);
  EXPECT_EQ(q9->fallback_reason, "");
  EXPECT_NE(q9->plan_text.find("Exchange["), std::string::npos)
      << q9->plan_text;
  EXPECT_NE(q9->plan_text.find("PartialAggregate"), std::string::npos)
      << q9->plan_text;
  bool saw_orders = false;
  bool saw_gather = false;
  for (const shard::ExchangeOpReport& ex : q9->exchanges) {
    EXPECT_GT(ex.predicted_ms, -1e-12);
    if (ex.table == "orders") {
      saw_orders = true;
      EXPECT_EQ(ex.kind, ExchangeKind::kPassthrough);
      EXPECT_EQ(ex.predicted_bytes, 0);
    }
    if (ex.kind == ExchangeKind::kGather) {
      saw_gather = true;
      EXPECT_GT(ex.predicted_bytes, 0);
    }
  }
  EXPECT_TRUE(saw_orders);
  EXPECT_TRUE(saw_gather);

  // Execute renders the plan it ran: the text and exchanges Explain shows,
  // whose relation bytes are the broadcast bytes the run charged.
  shard::DistributedExplain ran;
  Result<QueryResult> q9_run =
      executor.Execute(queries::Q9(), ExecOptions{}, &ran);
  ASSERT_TRUE(q9_run.ok()) << q9_run.status().ToString();
  EXPECT_EQ(ran.plan_text, q9->plan_text);
  ASSERT_EQ(ran.exchanges.size(), q9->exchanges.size());
  int64_t relation_bytes = 0;
  for (const shard::ExchangeOpReport& ex : ran.exchanges) {
    if (ex.kind != ExchangeKind::kGather) relation_bytes += ex.predicted_bytes;
  }
  EXPECT_EQ(relation_bytes, q9_run->metrics.broadcast_bytes);

  // At this scale Q5 plans a two-key join above the fact scan
  // ({l_orderkey, l_suppkey} = {o_orderkey, s_suppkey}). The classifier
  // proves it partition-preserving off the aligned orderkey pair — the
  // compound key only tightens the match — so the aggregate still pushes
  // down instead of falling back to one device.
  Result<shard::DistributedExplain> q5 = executor.Explain(queries::Q5());
  ASSERT_TRUE(q5.ok()) << q5.status().ToString();
  EXPECT_EQ(q5->fallback_reason, "");
  EXPECT_NE(q5->plan_text.find("PartialAggregate"), std::string::npos)
      << q5->plan_text;
  ASSERT_FALSE(q5->exchanges.empty());
  EXPECT_EQ(q5->exchanges.back().kind, ExchangeKind::kGather);
  EXPECT_GT(q5->exchanges.back().predicted_bytes, 0);

  // Explain is pure planning: a 1-device group reports the plain plan with
  // no exchanges, and says why it does not combine.
  DeviceGroup one = DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 1);
  PartitionOptions pone;
  pone.num_shards = 1;
  Result<ShardedDatabase> sharded1 = PartitionDatabase(SmallDb(), pone);
  ASSERT_TRUE(sharded1.ok());
  ShardedExecutor single(&SmallDb(), &*sharded1, one, EngineOptions{},
                         &SharedCalibrations());
  Result<shard::DistributedExplain> plain = single.Explain(queries::Q5());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->num_shards, 1);
  EXPECT_FALSE(plain->fallback_reason.empty());
  EXPECT_TRUE(plain->exchanges.empty());
  EXPECT_EQ(plain->plan_text.find("Exchange["), std::string::npos);
}

TEST(ExchangeModelTest, SingleRelationPlanMatchesBruteForceArgmin) {
  // A one-relation PlanExchange must pick exactly the strategy a brute-force
  // sweep over PriceExchange finds cheapest by modeled ms (bytes breaking
  // ties, broadcast winning what remains). The grid leans on small relations at
  // high shard counts — the latency-dominated corner where the ms argmin
  // diverges from the byte argmin (N-1 tiny copies vs one DMA).
  const sim::LinkSpec link;
  const std::vector<int64_t> fact_sizes = {0, 1000, 1'000'000, 50'000'000};
  const std::vector<model::ExchangeInput> inputs = {
      {"tiny", 64, 8, false},
      {"small", 4'096, 128, false},
      {"mid", 500'000, 5000, false},
      {"big", 20'000'000, 200'000, false},
      {"copart", 500'000, 5000, true},
      {"spined", 2'000'000, 20'000, false, /*spine_bytes=*/300'000},
  };
  int latency_flips = 0;  // repartition chosen despite moving more bytes
  for (int num_shards : {2, 4, 8, 16, 32, 64}) {
    for (int64_t fact_bytes : fact_sizes) {
      for (const model::ExchangeInput& input : inputs) {
        const model::ExchangeDecision got =
            model::PlanExchange({input}, link, num_shards, fact_bytes)
                .decisions[0];
        if (input.co_partitioned || num_shards <= 1) {
          EXPECT_EQ(got.strategy, model::ExchangeStrategy::kCoPartitioned);
          EXPECT_EQ(got.bytes, 0);
          continue;
        }
        model::ExchangeDecision best;
        bool first = true;
        for (model::ExchangeStrategy s :
             {model::ExchangeStrategy::kBroadcast,
              model::ExchangeStrategy::kRepartition}) {
          const model::ExchangeDecision candidate =
              model::PriceExchange(input, s, link, num_shards, fact_bytes);
          if (first || candidate.ms < best.ms ||
              (candidate.ms == best.ms && candidate.bytes < best.bytes)) {
            best = candidate;
            first = false;
          }
        }
        EXPECT_EQ(got.strategy, best.strategy)
            << input.table << " shards=" << num_shards
            << " fact=" << fact_bytes;
        EXPECT_EQ(got.bytes, best.bytes);
        EXPECT_DOUBLE_EQ(got.ms, best.ms);
        const model::ExchangeDecision bcast = model::PriceExchange(
            input, model::ExchangeStrategy::kBroadcast, link, num_shards,
            fact_bytes);
        if (got.strategy == model::ExchangeStrategy::kRepartition &&
            got.bytes > bcast.bytes) {
          ++latency_flips;
        }
      }
    }
  }
  // The grid must actually exercise the divergence: at least one small
  // relation crossing a high-latency link once beats N-1 tiny copies even
  // though it moves more bytes.
  EXPECT_GT(latency_flips, 0);
}

TEST(ShardedExecutorTest, MetricsJsonCarriesShardFields) {
  PartitionOptions poptions;
  poptions.num_shards = 2;
  Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), poptions);
  ASSERT_TRUE(sharded.ok());
  DeviceGroup group = DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 2);
  ShardedExecutor executor(&SmallDb(), &*sharded, group, EngineOptions{},
                           &SharedCalibrations());
  Result<QueryResult> got = executor.Execute(queries::Q14());
  ASSERT_TRUE(got.ok());

  MetricsJsonEntry entry;
  entry.query = "Q14";
  entry.mode = "gpl";
  entry.device = group.ToString();
  entry.metrics = got->metrics;
  const std::string json = QueryMetricsToJson(entry);
  EXPECT_NE(json.find("\"num_shards\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exchange_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"exchange_all_broadcast_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"merge_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"partial_combine\":true"), std::string::npos);
  EXPECT_NE(json.find("\"device_utilization\""), std::string::npos);

  // Single-device metrics stay free of shard fields (byte-stable JSON).
  Engine engine(&SmallDb(), EngineOptions{});
  Result<QueryResult> single = engine.Execute(queries::Q14());
  ASSERT_TRUE(single.ok());
  entry.metrics = single->metrics;
  EXPECT_EQ(QueryMetricsToJson(entry).find("num_shards"), std::string::npos);
}

// ---- Unified Execute API (ExecOptions routing) ----

TEST(EngineRoutingTest, ExecOptionsShardsRouteThroughShardedExecutor) {
  EngineOptions options;
  options.calibration =
      &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
  Engine engine(&SmallDb(), options);

  // Plain call: single-device, no shard fields.
  Result<QueryResult> single = engine.Execute(queries::Q9());
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->metrics.num_shards, 0);

  // shards > 1 routes through the engine's own ShardedExecutor and stays
  // bit-identical.
  ExecOptions exec = options.exec;
  exec.shards = 4;
  Result<QueryResult> sharded = engine.Execute(queries::Q9(), exec);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->metrics.num_shards, 4);
  EXPECT_TRUE(sharded->metrics.partial_combine);
  EXPECT_GT(sharded->metrics.exchange_bytes, 0);
  ExpectTablesBitIdentical(single->table, sharded->table);

  // shards == 1 is not a sharded execution: the plain path runs, with no
  // partitioning and no shard metrics.
  exec.shards = 1;
  Result<QueryResult> one = engine.Execute(queries::Q9(), exec);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->metrics.num_shards, 0);
  EXPECT_EQ(one->metrics.elapsed_ms, single->metrics.elapsed_ms);
  ExpectTablesBitIdentical(single->table, one->table);
}

TEST(EngineRoutingTest, DeviceListDefinesTheGroup) {
  EngineOptions options;
  options.calibration =
      &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
  Engine engine(&SmallDb(), options);
  ExecOptions exec = options.exec;
  exec.device_list = {sim::DeviceSpec::AmdA10(), sim::DeviceSpec::NvidiaK40()};
  Result<QueryResult> got = engine.Execute(queries::Q14(), exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->metrics.num_shards, 2);
  ASSERT_EQ(got->metrics.device_elapsed_ms.size(), 2u);

  Result<QueryResult> single = engine.Execute(queries::Q14());
  ASSERT_TRUE(single.ok());
  ExpectTablesBitIdentical(single->table, got->table);
}

TEST(EngineRoutingTest, ShardedForSharesAProvidedShardedDatabase) {
  PartitionOptions poptions;
  poptions.num_shards = 2;
  Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), poptions);
  ASSERT_TRUE(sharded.ok());

  EngineOptions options;
  options.calibration =
      &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
  options.device_calibrations = &SharedCalibrations();
  options.sharded_db = &*sharded;
  Engine engine(&SmallDb(), options);

  ExecOptions exec = options.exec;
  exec.shards = 2;
  Result<QueryResult> got = engine.Execute(queries::Q5(), exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->metrics.num_shards, 2);

  // A mismatched shard count must not use the provided database; the engine
  // partitions its own copy instead of failing.
  exec.shards = 3;
  Result<QueryResult> three = engine.Execute(queries::Q5(), exec);
  ASSERT_TRUE(three.ok()) << three.status().ToString();
  EXPECT_EQ(three->metrics.num_shards, 3);
  ExpectTablesBitIdentical(got->table, three->table);
}

TEST(ShardedExecutorTest, PartialCombineFlagMatchesExplain) {
  // Execute must take exactly the merge Explain predicts, for every query of
  // the suite (all five push their aggregate down today, but the invariant
  // is flag == plan, not flag == true).
  PartitionOptions poptions;
  poptions.num_shards = 2;
  Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), poptions);
  ASSERT_TRUE(sharded.ok());
  DeviceGroup group = DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 2);
  ShardedExecutor executor(&SmallDb(), &*sharded, group, EngineOptions{},
                           &SharedCalibrations());
  bool any_combine = false;
  for (auto& [name, query] : queries::EvaluationSuite()) {
    SCOPED_TRACE(name);
    Result<shard::DistributedExplain> plan = executor.Explain(query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Result<QueryResult> got = executor.Execute(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->metrics.partial_combine, plan->fallback_reason.empty());
    any_combine = any_combine || got->metrics.partial_combine;
  }
  EXPECT_TRUE(any_combine)
      << "no query exercised the partial-aggregate pushdown";
}

// ---- Compound-key co-partitioning ----

/// Two-table database whose join needs BOTH key columns: every order carries
/// a matching row (okey2 = orderkey + 1000) and a decoy row (okey2 =
/// orderkey + 2000, weight 1e9) that an orderkey-only join would wrongly
/// pick up. Any mis-merged compound key shows up as a wildly wrong sum.
tpch::Database TwoKeyDb(const std::vector<int64_t>& orderkeys) {
  Column l_orderkey(DataType::kInt64);
  Column l_okey2(DataType::kInt64);
  Column l_price(DataType::kFloat64);
  Column o_orderkey(DataType::kInt64);
  Column o_okey2(DataType::kInt64);
  Column o_weight(DataType::kFloat64);
  for (const int64_t k : orderkeys) {
    for (int line = 0; line < 3; ++line) {
      l_orderkey.AppendInt64(k);
      l_okey2.AppendInt64(k + 1000);
      l_price.AppendDouble(static_cast<double>(k) * 1.25 + line * 0.5);
    }
    o_orderkey.AppendInt64(k);
    o_okey2.AppendInt64(k + 1000);
    o_weight.AppendDouble(static_cast<double>(k % 7 + 1));
    o_orderkey.AppendInt64(k);
    o_okey2.AppendInt64(k + 2000);  // decoy: matches on orderkey alone
    o_weight.AppendDouble(1e9);
  }
  tpch::Database db;
  db.lineitem = Table("lineitem");
  GPL_CHECK_OK(db.lineitem.AddColumn("l_orderkey", std::move(l_orderkey)));
  GPL_CHECK_OK(db.lineitem.AddColumn("l_okey2", std::move(l_okey2)));
  GPL_CHECK_OK(db.lineitem.AddColumn("l_price", std::move(l_price)));
  db.orders = Table("orders");
  GPL_CHECK_OK(db.orders.AddColumn("o_orderkey", std::move(o_orderkey)));
  GPL_CHECK_OK(db.orders.AddColumn("o_okey2", std::move(o_okey2)));
  GPL_CHECK_OK(db.orders.AddColumn("o_weight", std::move(o_weight)));
  return db;
}

/// lineitem JOIN orders on the compound key {orderkey, okey2}; `reversed`
/// flips the order the two JoinEdges list the key columns ({a,b} vs {b,a})
/// — the classifier's aligned-pair proof must not depend on key position.
LogicalQuery TwoKeyQuery(bool reversed) {
  LogicalQuery q;
  q.name = reversed ? "twokey_rev" : "twokey";
  BaseRelation lineitem;
  lineitem.table = "lineitem";
  lineitem.columns = {"l_orderkey", "l_okey2", "l_price"};
  BaseRelation orders;
  orders.table = "orders";
  orders.columns = {"o_orderkey", "o_okey2", "o_weight"};
  q.relations = {lineitem, orders};
  JoinEdge on_orderkey;
  on_orderkey.left = 0;
  on_orderkey.right = 1;
  on_orderkey.left_keys = {Col("l_orderkey")};
  on_orderkey.right_keys = {Col("o_orderkey")};
  JoinEdge on_okey2;
  on_okey2.left = 0;
  on_okey2.right = 1;
  on_okey2.left_keys = {Col("l_okey2")};
  on_okey2.right_keys = {Col("o_okey2")};
  if (reversed) {
    q.joins = {on_okey2, on_orderkey};
  } else {
    q.joins = {on_orderkey, on_okey2};
  }
  q.derived = {{"amount", Mul(Col("l_price"), Col("o_weight"))}};
  q.group_by = {{"l_okey2", Col("l_okey2")}};
  q.aggregates = {{AggSpec::kSum, Col("amount"), "total"},
                  {AggSpec::kMin, Col("l_price"), "min_price"},
                  {AggSpec::kMax, Col("amount"), "max_amount"}};
  q.order_by = {{"l_okey2", false}};
  return q;
}

/// First `count` positive keys that hash to `shard` of `num_shards` — lets a
/// test pin every row onto one shard (leaving the others empty).
std::vector<int64_t> KeysOnShard(int shard, int num_shards, int count) {
  std::vector<int64_t> keys;
  for (int64_t k = 1; static_cast<int>(keys.size()) < count; ++k) {
    if (ShardOfKey(k, num_shards) == shard) keys.push_back(k);
  }
  return keys;
}

/// Runs TwoKeyQuery over `orderkeys` at shard counts {1, 2, 4, 8}, in both
/// key orders, asserting the combine merge ran and the result is
/// bit-identical to the single-device oracle.
void ExpectCompoundKeyCombine(const std::vector<int64_t>& orderkeys) {
  const tpch::Database db = TwoKeyDb(orderkeys);
  EngineOptions options;
  options.calibration =
      &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
  Engine oracle(&db, options);
  for (const bool reversed : {false, true}) {
    const LogicalQuery query = TwoKeyQuery(reversed);
    Result<QueryResult> truth = oracle.Execute(query);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    ASSERT_GT(truth->table.num_rows(), 0);
    for (const int n : {1, 2, 4, 8}) {
      SCOPED_TRACE(query.name + " shards=" + std::to_string(n));
      PartitionOptions poptions;
      poptions.num_shards = n;
      Result<ShardedDatabase> sharded = PartitionDatabase(db, poptions);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ShardedExecutor executor(
          &db, &*sharded,
          DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), n),
          EngineOptions{}, &SharedCalibrations());
      Result<QueryResult> got = executor.Execute(query);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectTablesBitIdentical(truth->table, got->table);
      if (n > 1) {
        EXPECT_TRUE(got->metrics.partial_combine)
            << "compound-key join must prove co-partitioning";
      }
    }
  }
}

TEST(CompoundKeyShardingTest, KeyOrderPermutationsStayCombinable) {
  std::vector<int64_t> keys(24);
  std::iota(keys.begin(), keys.end(), int64_t{1});
  ExpectCompoundKeyCombine(keys);
}

TEST(CompoundKeyShardingTest, EmptyShardCombines) {
  // Every orderkey hashes to shard 0 of 2, so shard 1 holds zero lineitem
  // and zero (co-partitioned) orders rows; its empty partial must combine
  // cleanly and the empty-probe join must not derail the pushdown.
  const std::vector<int64_t> keys = KeysOnShard(0, 2, 8);
  PartitionOptions poptions;
  poptions.num_shards = 2;
  Result<ShardedDatabase> sharded = PartitionDatabase(TwoKeyDb(keys), poptions);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->shards[1].lineitem.num_rows(), 0);
  EXPECT_EQ(sharded->shards[1].orders.num_rows(), 0);
  ExpectCompoundKeyCombine(keys);
}

TEST(CompoundKeyShardingTest, AllRowsOnOneShardCombine) {
  // The opposite skew: at 4 shards all rows land on shard 3.
  ExpectCompoundKeyCombine(KeysOnShard(3, 4, 8));
}

TEST(CompoundKeyShardingTest, FewerDistinctKeysThanShards) {
  // Two distinct orderkeys spread across up to 8 shards: most shards are
  // empty and the group count is below the device count.
  ExpectCompoundKeyCombine({5, 6});
}

/// Database whose lineitem rows all hash to shard 3 of 4, with an int32 and
/// a string column to group by: shards 0-2 hold zero rows, so their
/// aggregate segments see no tiles at all. The partitioner splits orders
/// alongside lineitem, so it carries the same keys.
tpch::Database NarrowKeyDb() {
  auto flags = std::make_shared<Dictionary>();
  Column l_orderkey(DataType::kInt64);
  Column l_qty(DataType::kInt32);
  Column l_flag(DataType::kString, flags);
  Column l_price(DataType::kFloat64);
  Column o_orderkey(DataType::kInt64);
  for (const int64_t k : KeysOnShard(3, 4, 8)) {
    o_orderkey.AppendInt64(k);
    l_orderkey.AppendInt64(k);
    l_qty.AppendInt32(static_cast<int32_t>(k % 3));
    l_flag.AppendString(k % 2 == 0 ? "A" : "R");
    l_price.AppendDouble(static_cast<double>(k) * 1.5);
  }
  tpch::Database db;
  db.lineitem = Table("lineitem");
  GPL_CHECK_OK(db.lineitem.AddColumn("l_orderkey", std::move(l_orderkey)));
  GPL_CHECK_OK(db.lineitem.AddColumn("l_qty", std::move(l_qty)));
  GPL_CHECK_OK(db.lineitem.AddColumn("l_flag", std::move(l_flag)));
  GPL_CHECK_OK(db.lineitem.AddColumn("l_price", std::move(l_price)));
  db.orders = Table("orders");
  GPL_CHECK_OK(db.orders.AddColumn("o_orderkey", std::move(o_orderkey)));
  return db;
}

/// Groups NarrowKeyDb's lineitem by its int32 and string columns (after
/// `filter`, when set) on 4 shards under GPL and fused, and checks the
/// combined result against the single-device engine: same column types,
/// same dictionary, same bits.
void ExpectNarrowGroupKeysBitIdentical(const ExprPtr& filter) {
  const tpch::Database db = NarrowKeyDb();
  PartitionOptions poptions;
  poptions.num_shards = 4;
  Result<ShardedDatabase> sharded = PartitionDatabase(db, poptions);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded->shards[0].lineitem.num_rows(), 0);
  LogicalQuery q;
  q.name = "narrow_keys";
  BaseRelation lineitem;
  lineitem.table = "lineitem";
  lineitem.columns = {"l_orderkey", "l_qty", "l_flag", "l_price"};
  lineitem.filter = filter;
  q.relations = {lineitem};
  q.group_by = {{"l_qty", Col("l_qty")}, {"l_flag", Col("l_flag")}};
  q.aggregates = {{AggSpec::kSum, Col("l_price"), "total"}};
  q.order_by = {{"l_qty", false}, {"l_flag", false}};
  for (EngineMode mode : {EngineMode::kGpl, EngineMode::kFused}) {
    SCOPED_TRACE(EngineModeName(mode));
    EngineOptions options;
    options.mode = mode;
    options.calibration =
        &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
    Result<QueryResult> truth = Engine(&db, options).Execute(q);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    ASSERT_EQ(truth->table.GetColumn("l_qty").type(), DataType::kInt32);
    ASSERT_EQ(truth->table.GetColumn("l_flag").type(), DataType::kString);
    options.calibration = nullptr;
    ShardedExecutor executor(
        &db, &*sharded,
        DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 4), options,
        &SharedCalibrations());
    Result<QueryResult> got = executor.Execute(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->metrics.partial_combine);
    ExpectTablesBitIdentical(truth->table, got->table);
    EXPECT_EQ(got->table.GetColumn("l_flag").dictionary(),
              truth->table.GetColumn("l_flag").dictionary());
  }
}

TEST(CompoundKeyShardingTest, EmptyShardsKeepNarrowGroupKeyTypes) {
  // The empty shards' partials come first in shard order. Their group
  // columns must not type the combined int32 and string keys as int64.
  ExpectNarrowGroupKeysBitIdentical(nullptr);
}

TEST(CompoundKeyShardingTest, AllEmptyPartialsKeepNarrowGroupKeyTypes) {
  // A filter that keeps no row leaves every partial empty: shards 0-2 make
  // no tiles at all, and shard 3's aggregate sees only filtered-out rows.
  // Each shard's aggregate must still type its group columns from the
  // input schema, or the combined keys come out int64.
  ExpectNarrowGroupKeysBitIdentical(Lt(Col("l_price"), LitFloat(0.0)));
}

/// Database whose lineitem carries a float64 column to group by: the six
/// values {1.2, 1.7, -0.5, -1.5, 0.0, -0.0} four times each, over orderkeys
/// that hash-partition across 4 shards.
tpch::Database FloatKeyDb() {
  const double keys[] = {1.2, 1.7, -0.5, -1.5, 0.0, -0.0};
  Column l_orderkey(DataType::kInt64);
  Column l_key(DataType::kFloat64);
  Column l_price(DataType::kFloat64);
  Column o_orderkey(DataType::kInt64);
  for (int64_t k = 1; k <= 24; ++k) {
    o_orderkey.AppendInt64(k);
    l_orderkey.AppendInt64(k);
    l_key.AppendDouble(keys[k % 6]);
    l_price.AppendDouble(static_cast<double>(k));
  }
  tpch::Database db;
  db.lineitem = Table("lineitem");
  GPL_CHECK_OK(db.lineitem.AddColumn("l_orderkey", std::move(l_orderkey)));
  GPL_CHECK_OK(db.lineitem.AddColumn("l_key", std::move(l_key)));
  GPL_CHECK_OK(db.lineitem.AddColumn("l_price", std::move(l_price)));
  db.orders = Table("orders");
  GPL_CHECK_OK(db.orders.AddColumn("o_orderkey", std::move(o_orderkey)));
  return db;
}

TEST(FloatGroupKeyTest, FloatKeysAreNotTruncatedInAnyModeOrShardCount) {
  // Grouping by a float64 column keeps 1.2 and 1.7 apart (a truncated key
  // merges them into 1.0) and folds -0.0 into 0.0: five groups, ascending.
  const tpch::Database db = FloatKeyDb();
  PartitionOptions poptions;
  poptions.num_shards = 4;
  Result<ShardedDatabase> sharded = PartitionDatabase(db, poptions);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  int nonempty_shards = 0;
  for (const tpch::Database& shard : sharded->shards) {
    nonempty_shards += shard.lineitem.num_rows() > 0 ? 1 : 0;
  }
  ASSERT_GE(nonempty_shards, 2);  // the combine really merges partials
  LogicalQuery q;
  q.name = "float_keys";
  BaseRelation lineitem;
  lineitem.table = "lineitem";
  lineitem.columns = {"l_orderkey", "l_key", "l_price"};
  q.relations = {lineitem};
  q.group_by = {{"l_key", Col("l_key")}};
  q.aggregates = {{AggSpec::kCount, nullptr, "n"},
                  {AggSpec::kSum, Col("l_price"), "total"}};
  q.order_by = {{"l_key", false}};
  const std::vector<double> want_keys = {-1.5, -0.5, 0.0, 1.2, 1.7};
  const std::vector<int64_t> want_counts = {4, 4, 8, 4, 4};
  const auto expect_groups = [&](const Table& t) {
    ASSERT_EQ(t.GetColumn("l_key").type(), DataType::kFloat64);
    EXPECT_EQ(t.GetColumn("l_key").dataf(), want_keys);
    EXPECT_FALSE(std::signbit(t.GetColumn("l_key").DoubleAt(2)));
    EXPECT_EQ(t.GetColumn("n").data64(), want_counts);
  };
  for (EngineMode mode :
       {EngineMode::kKbe, EngineMode::kGpl, EngineMode::kFused}) {
    SCOPED_TRACE(EngineModeName(mode));
    EngineOptions options;
    options.mode = mode;
    options.calibration =
        &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
    Engine engine(&db, options);
    Result<QueryResult> single = engine.Execute(q);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    expect_groups(single->table);
    if (mode == EngineMode::kGpl) {
      Result<PhysicalOpPtr> plan = engine.Plan(q);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      Result<Table> reference = ref::ExecutePlan(db, *plan);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      expect_groups(*reference);
    }
    options.calibration = nullptr;
    ShardedExecutor executor(
        &db, &*sharded,
        DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 4), options,
        &SharedCalibrations());
    Result<QueryResult> got = executor.Execute(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->metrics.partial_combine);
    ExpectTablesBitIdentical(single->table, got->table);
  }
}

/// Runs `q` on 2 and 4 shards and asserts it falls back to one device: a
/// non-empty Explain reason, partial_combine false, one fallback counted per
/// run, no exchange or merge, and table, counters and elapsed_ms equal to
/// the single-device engine's. Also pins what the fallback publishes:
/// device 0 busy for the whole run and the other devices idle, in the
/// metrics and the slot gauges; no exchange bytes in the registry; and a
/// trace with one zero-length exchange span carrying the merge label and no
/// per-shard span.
void ExpectSingleDeviceFallback(const LogicalQuery& q) {
  EngineOptions options;
  options.calibration =
      &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
  Result<QueryResult> truth = Engine(&SmallDb(), options).Execute(q);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  ASSERT_GT(truth->table.num_rows(), 0);

  for (const int n : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    PartitionOptions poptions;
    poptions.num_shards = n;
    Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), poptions);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    obs::MetricsRegistry registry;
    EngineOptions sharded_options;
    sharded_options.metrics = &registry;
    ShardedExecutor executor(
        &SmallDb(), &*sharded,
        DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), n),
        sharded_options, &SharedCalibrations());
    Result<shard::DistributedExplain> plan = executor.Explain(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_FALSE(plan->fallback_reason.empty());
    EXPECT_TRUE(plan->exchanges.empty());
    const obs::Counter* fallbacks =
        registry.GetCounter("gpl_shard_fallbacks_total", "");

    for (uint64_t run = 1; run <= 2; ++run) {
      Result<QueryResult> got = executor.Execute(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const QueryMetrics& m = got->metrics;
      ExpectTablesBitIdentical(truth->table, got->table);
      ExpectCountersBitIdentical(truth->metrics.counters, m.counters);
      EXPECT_EQ(m.elapsed_ms, truth->metrics.elapsed_ms);
      EXPECT_FALSE(m.partial_combine);
      EXPECT_EQ(m.num_shards, n);
      EXPECT_EQ(m.exchange_bytes, 0);
      EXPECT_EQ(m.merge_ms, 0.0);
      std::vector<double> device_ms(static_cast<size_t>(n), 0.0);
      device_ms.front() = m.elapsed_ms;
      EXPECT_EQ(m.device_elapsed_ms, device_ms);
      std::vector<double> utilization(static_cast<size_t>(n), 0.0);
      utilization.front() = 1.0;
      EXPECT_EQ(m.device_utilization, utilization);
      EXPECT_EQ(fallbacks->Value(), run);
      for (int slot = 0; slot < n; ++slot) {
        const obs::Gauge* busy = shard::SlotBusyGauge(
            &registry, slot, sim::DeviceSpec::AmdA10().name);
        EXPECT_EQ(busy->Value(),
                  slot == 0 ? static_cast<double>(run) * m.elapsed_ms : 0.0)
            << "slot " << slot;
      }
      EXPECT_EQ(shard::ExchangeBytesCounter(&registry, "broadcast")->Value(),
                0u);
      EXPECT_EQ(shard::ExchangeBytesCounter(&registry, "shuffle")->Value(),
                0u);
    }

    trace::TraceCollector collector;
    ExecOptions exec;
    exec.trace = &collector;
    ASSERT_TRUE(executor.Execute(q, exec).ok());
    int exchange_spans = 0;
    for (const trace::SpanEvent& span : collector.spans()) {
      EXPECT_NE(span.category, "shard.exec") << span.name;
      if (span.category != "shard.exchange") continue;
      ++exchange_spans;
      EXPECT_EQ(span.start_cycles, span.end_cycles);
      const std::string label =
          "\"" + shard::MergeLabel(plan->fallback_reason) + "\"";
      EXPECT_NE(std::find(span.args.begin(), span.args.end(),
                          trace::Arg{"merge", label}),
                span.args.end());
    }
    EXPECT_EQ(exchange_spans, 1);
  }
}

/// Add(l_orderkey, 0) equals o_orderkey row for row, so rows stay
/// co-located — but the classifier only proves alignment for bare column
/// pairs, so the combine cannot be proven exact and the query runs on one
/// device.
LogicalQuery ExpressionKeyQuery() {
  LogicalQuery q;
  q.name = "expr_key";
  BaseRelation lineitem;
  lineitem.table = "lineitem";
  lineitem.columns = {"l_orderkey", "l_extendedprice"};
  BaseRelation orders;
  orders.table = "orders";
  orders.columns = {"o_orderkey", "o_orderdate"};
  q.relations = {lineitem, orders};
  JoinEdge edge;
  edge.left = 0;
  edge.right = 1;
  edge.left_keys = {Add(Col("l_orderkey"), LitInt(0))};
  edge.right_keys = {Col("o_orderkey")};
  q.joins = {edge};
  q.group_by = {{"o_year", YearOf(Col("o_orderdate"))}};
  q.aggregates = {{AggSpec::kSum, Col("l_extendedprice"), "revenue"}};
  q.order_by = {{"o_year", false}};
  return q;
}

TEST(ShardedExecutorTest, ExpressionJoinKeyFallsBackToSingleDevice) {
  ExpectSingleDeviceFallback(ExpressionKeyQuery());
}

TEST(ShardedExecutorTest, MergeLabelReachesExplainAnalyzeAndTrace) {
  EngineOptions options;
  options.calibration =
      &SharedCalibrations().at(sim::DeviceSpec::AmdA10().name);
  options.device_calibrations = &SharedCalibrations();
  Engine engine(&SmallDb(), options);
  ExecOptions exec = options.exec;
  exec.shards = 2;
  const std::string label =
      "single-device (aggregate input not provably partitioned)";

  Result<ExplainAnalyzeReport> report =
      ExplainAnalyze(engine, ExpressionKeyQuery(), exec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->metrics.partial_combine);
  EXPECT_NE(report->ToString().find("merge=" + label), std::string::npos)
      << report->ToString();
  EXPECT_NE(report->ToJson().find("\"fallback_reason\":\"aggregate input "
                                  "not provably partitioned\""),
            std::string::npos)
      << report->ToJson();

  // Both merges label the exchange span with a JSON string, so the
  // exported trace parses.
  trace::TraceCollector collector;
  exec.trace = &collector;
  ASSERT_TRUE(engine.Execute(ExpressionKeyQuery(), exec).ok());
  ASSERT_TRUE(engine.Execute(queries::Q14(), exec).ok());
  std::set<std::string> merges;
  for (const trace::SpanEvent& span : collector.spans()) {
    for (const trace::Arg& arg : span.args) {
      if (arg.first == "merge") merges.insert(arg.second);
    }
  }
  EXPECT_EQ(merges, (std::set<std::string>{"\"" + label + "\"",
                                           "\"combine\""}));
  std::string error;
  EXPECT_TRUE(trace::ValidateJson(collector.ToChromeJson(), &error)) << error;
}

TEST(ShardedExecutorTest, PlanWithoutFactScanFallsBackToSingleDevice) {
  // nation JOIN region never touches the partitioned fact table: every
  // shard holds both relations in full, so there is nothing to combine.
  LogicalQuery q;
  q.name = "nations_per_region";
  BaseRelation nation;
  nation.table = "nation";
  nation.columns = {"n_nationkey", "n_regionkey"};
  BaseRelation region;
  region.table = "region";
  region.columns = {"r_regionkey", "r_name"};
  q.relations = {nation, region};
  JoinEdge edge;
  edge.left = 0;
  edge.right = 1;
  edge.left_keys = {Col("n_regionkey")};
  edge.right_keys = {Col("r_regionkey")};
  q.joins = {edge};
  q.group_by = {{"r_name", Col("r_name")}};
  q.aggregates = {{AggSpec::kCount, nullptr, "nations"}};
  q.order_by = {{"r_name", false}};
  ExpectSingleDeviceFallback(q);
}

// ---- Partial-gather estimate ----

TEST(PartialGatherEstimateTest, MinMaxPartialsCarryNoCountColumn) {
  PhysicalOp agg;
  agg.kind = PhysicalOp::Kind::kAggregate;
  agg.group_by = {{"g", Col("g")}};
  agg.est_rows = 10.0;
  const int64_t senders = 2;  // 3 shards: shard 0 keeps its partial local

  const auto estimate = [&agg](AggSpec::Func func) {
    AggSpec spec;
    spec.func = func;
    if (func != AggSpec::kCount) spec.arg = Col("x");
    spec.output_name = "a";
    agg.aggregates = {spec};
    return shard::EstimatePartialGatherBytes(agg, 3);
  };
  // One 8-byte group column plus per-aggregate partial state, per group row
  // per sending shard. Min/max ship the running value alone — pricing an
  // 8-byte count they never wire was the satellite bug.
  EXPECT_EQ(estimate(AggSpec::kMin), (8 + 8) * 10 * senders);
  EXPECT_EQ(estimate(AggSpec::kMax), (8 + 8) * 10 * senders);
  EXPECT_EQ(estimate(AggSpec::kCount), (8 + 8) * 10 * senders);
  const int64_t sum_state = 8 * (2 + ExactFloat64Sum::kDigits);
  EXPECT_EQ(estimate(AggSpec::kSum), (8 + sum_state) * 10 * senders);
  EXPECT_EQ(estimate(AggSpec::kAvg), (8 + sum_state) * 10 * senders);

  // A mixed list is the sum of its parts over the same group rows.
  agg.aggregates = {{AggSpec::kMin, Col("x"), "mn"},
                    {AggSpec::kSum, Col("x"), "s"}};
  EXPECT_EQ(shard::EstimatePartialGatherBytes(agg, 3),
            (8 + 8 + sum_state) * 10 * senders);
}

TEST(ShardedExecutorTest, GatherEstimateTracksMeasuredPartialBytes) {
  // The gather's predicted bytes must track what the combine merge actually
  // ships. A min/max-only aggregate is the sharp case: before the count fix
  // the estimate ran ~2x the wire bytes and fell out of this band.
  LogicalQuery q;
  q.name = "minmax_gather";
  BaseRelation lineitem;
  lineitem.table = "lineitem";
  lineitem.columns = {"l_returnflag", "l_extendedprice"};
  q.relations = {lineitem};
  q.group_by = {{"l_returnflag", Col("l_returnflag")}};
  q.aggregates = {{AggSpec::kMin, Col("l_extendedprice"), "min_price"},
                  {AggSpec::kMax, Col("l_extendedprice"), "max_price"}};
  q.order_by = {{"l_returnflag", false}};

  PartitionOptions poptions;
  poptions.num_shards = 4;
  Result<ShardedDatabase> sharded = PartitionDatabase(SmallDb(), poptions);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ShardedExecutor executor(
      &SmallDb(), &*sharded,
      DeviceGroup::Homogeneous(sim::DeviceSpec::AmdA10(), 4), EngineOptions{},
      &SharedCalibrations());
  Result<shard::DistributedExplain> plan = executor.Explain(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->fallback_reason, "");
  ASSERT_FALSE(plan->exchanges.empty());
  const shard::ExchangeOpReport& gather = plan->exchanges.back();
  ASSERT_EQ(gather.kind, ExchangeKind::kGather);
  ASSERT_GT(gather.predicted_bytes, 0);

  Result<QueryResult> got = executor.Execute(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->metrics.partial_combine);
  ASSERT_GT(got->metrics.shuffle_bytes, 0);
  const double ratio = static_cast<double>(got->metrics.shuffle_bytes) /
                       static_cast<double>(gather.predicted_bytes);
  EXPECT_GE(ratio, 0.65) << "measured " << got->metrics.shuffle_bytes
                         << " vs predicted " << gather.predicted_bytes;
  EXPECT_LE(ratio, 1.5) << "measured " << got->metrics.shuffle_bytes
                        << " vs predicted " << gather.predicted_bytes;
}

// ---- Sharded service ----

/// Runs the evaluation suite `rounds` times through a service built from
/// `options` and checks it ran 2-way sharded: results bit-identical to the
/// single device, and each completed query's exchange and per-device time
/// counted once in the series the workers' sharded executors add to.
void ExpectTwoWayShardedService(service::ServiceOptions options, int rounds) {
  options.num_workers = 2;
  options.queue_capacity = 64;
  service::QueryService service(&SmallDb(), options);
  EXPECT_TRUE(service.sharded());
  EXPECT_EQ(service.device_group().size(), 2);

  std::vector<ShardedTruth> truth = SingleDeviceTruth(EngineMode::kGpl);
  std::vector<service::QueryHandle> handles;
  auto suite = queries::EvaluationSuite();
  for (int round = 0; round < rounds; ++round) {
    for (auto& [name, query] : suite) {
      Result<service::QueryHandle> submitted = service.Submit(name, query);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      handles.push_back(submitted.take());
    }
  }
  uint64_t exchange_bytes = 0;
  std::vector<double> device_ms(2, 0.0);
  for (size_t i = 0; i < handles.size(); ++i) {
    const ShardedTruth& t = truth[i % truth.size()];
    SCOPED_TRACE(t.name);
    const Result<QueryResult>& result = handles[i].Await();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTablesBitIdentical(t.single.table, result->table);
    EXPECT_EQ(result->metrics.num_shards, 2);
    EXPECT_GT(result->metrics.exchange_bytes, 0);
    exchange_bytes += static_cast<uint64_t>(result->metrics.exchange_bytes);
    ASSERT_EQ(result->metrics.device_elapsed_ms.size(), 2u);
    for (size_t d = 0; d < 2; ++d) {
      device_ms[d] += result->metrics.device_elapsed_ms[d];
    }
  }
  service.Shutdown();

  const service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, handles.size());
  EXPECT_EQ(stats.exchange_bytes, exchange_bytes);
  ASSERT_EQ(stats.device_busy_ms.size(), 2u);
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_GT(stats.device_busy_ms[d], 0.0);
    EXPECT_NEAR(stats.device_busy_ms[d], device_ms[d], 1e-9 * device_ms[d]);
  }
}

TEST(ShardedServiceTest, ResultsBitIdenticalToSingleDevice) {
  service::ServiceOptions options;
  options.engine.exec.shards = 2;
  ExpectTwoWayShardedService(options, /*rounds=*/2);
}

TEST(ShardedServiceTest, ShardedExactlyWhenEngineOptionsAre) {
  // The engine options alone carry the shape: either way of asking for two
  // shards must shard the service's own partition, calibrations and
  // exchange/busy series, not only its workers.
  {
    SCOPED_TRACE("exec.shards = 2");
    service::ServiceOptions options;
    options.engine.exec.shards = 2;
    ExpectTwoWayShardedService(options, /*rounds=*/1);
  }
  {
    SCOPED_TRACE("exec.device_list = {amd, nvidia}");
    service::ServiceOptions options;
    options.engine.exec.device_list = {sim::DeviceSpec::AmdA10(),
                                       sim::DeviceSpec::NvidiaK40()};
    ExpectTwoWayShardedService(options, /*rounds=*/1);
  }
  service::ServiceOptions single;
  service::QueryService unsharded(&SmallDb(), single);
  EXPECT_FALSE(unsharded.sharded());
  EXPECT_EQ(unsharded.device_group().size(), 0);
}

TEST(ShardedServiceTest, RetriesRecoverInjectedFaultsUnderSharding) {
  service::ServiceOptions options;
  options.num_workers = 2;
  options.engine.exec.shards = 2;
  options.queue_capacity = 64;
  options.fault.kernel_abort_rate = 0.01;
  options.fault.seed = 17;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_ms = 0.01;
  options.retry.max_backoff_ms = 0.1;
  service::QueryService service(&SmallDb(), options);

  std::vector<ShardedTruth> truth = SingleDeviceTruth(EngineMode::kGpl);
  std::vector<service::QueryHandle> handles;
  auto suite = queries::EvaluationSuite();
  for (int round = 0; round < 3; ++round) {
    for (auto& [name, query] : suite) {
      Result<service::QueryHandle> submitted = service.Submit(name, query);
      ASSERT_TRUE(submitted.ok());
      handles.push_back(submitted.take());
    }
  }
  size_t completed = 0;
  for (size_t i = 0; i < handles.size(); ++i) {
    const Result<QueryResult>& result = handles[i].Await();
    if (!result.ok()) continue;  // a query may exhaust its retry budget
    ++completed;
    // Whatever survives the chaos is still bit-identical to the truth.
    ExpectTablesBitIdentical(truth[i % truth.size()].single.table,
                             result->table);
  }
  service.Shutdown();
  const service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.completed + stats.failed, stats.admitted);
  EXPECT_GT(completed, handles.size() / 2)
      << "retries should recover most transient faults";
}

}  // namespace
}  // namespace gpl
