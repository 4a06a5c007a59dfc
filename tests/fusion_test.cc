#include "plan/fusion.h"

#include <vector>

#include <gtest/gtest.h>

#include "model/cost_model.h"

namespace gpl {
namespace {

FusionStageView Map(int64_t private_bytes = 16) {
  FusionStageView v;
  v.private_bytes_per_item = private_bytes;
  return v;
}

FusionStageView Blocking() {
  FusionStageView v;
  v.blocking = true;
  return v;
}

FusionStageView CompleteAggregate() {
  FusionStageView v;
  v.is_aggregate = true;
  return v;
}

FusionStageView PartialAggregate() {
  FusionStageView v;
  v.is_aggregate = true;
  v.partial_aggregate = true;
  return v;
}

using Groups = std::vector<int>;

TEST(PlanFusionTest, AllNonBlockingStagesFuseIntoOneChain) {
  EXPECT_EQ(PlanFusion({Map(), Map(), Map(), Map()}), Groups({4}));
}

TEST(PlanFusionTest, BlockingStagesNeverFuse) {
  // map | BLOCKING | map map — the barrier executes alone, the tail fuses.
  EXPECT_EQ(PlanFusion({Map(), Blocking(), Map(), Map()}), Groups({1, 1, 2}));
  // Two barriers back-to-back stay singletons.
  EXPECT_EQ(PlanFusion({Blocking(), Blocking()}), Groups({1, 1}));
}

TEST(PlanFusionTest, CompleteAggregateNeverFuses) {
  EXPECT_EQ(PlanFusion({Map(), Map(), CompleteAggregate()}), Groups({2, 1}));
}

TEST(PlanFusionTest, PartialAggregateOnlyTerminatesAChain) {
  // map map PARTIAL map: the partial aggregate joins as the chain's tail,
  // but nothing fuses after it.
  EXPECT_EQ(PlanFusion({Map(), Map(), PartialAggregate(), Map()}),
            Groups({3, 1}));
  // A partial aggregate cannot *head* a chain either — it accumulates, so
  // its successor would never see per-tile output.
  EXPECT_EQ(PlanFusion({PartialAggregate(), Map()}), Groups({1, 1}));
}

TEST(PlanFusionTest, ExchangeBoundaryStartsItsOwnChain) {
  // The consumer of exchanged data ran after a device hop: it may not join
  // its producer's kernel, but it can head a fresh chain.
  FusionStageView exchanged = Map();
  exchanged.exchange_boundary = true;
  EXPECT_EQ(PlanFusion({Map(), Map(), exchanged, Map()}), Groups({2, 2}));
}

TEST(PlanFusionTest, MultiConsumerTerminatesItsChain) {
  FusionStageView shared = Map();
  shared.multi_consumer = true;
  // The multi-consumer stage joins as tail (its output materializes either
  // way), then the rest start over.
  EXPECT_EQ(PlanFusion({Map(), shared, Map(), Map()}), Groups({2, 2}));
}

TEST(PlanFusionTest, RegisterBudgetSplitsLongChains) {
  static_assert(kFusedPrivateBytesBudget == 256);
  // The budget bounds the plain sum: 100 + 100 fits, adding the third
  // (300 > 256) splits the chain.
  EXPECT_EQ(PlanFusion({Map(100), Map(100), Map(100)}), Groups({2, 1}));
  // 3 x 80 = 240 fits, so all three fuse.
  EXPECT_EQ(PlanFusion({Map(80), Map(80), Map(80)}), Groups({3}));
}

TEST(PlanFusionTest, EmptySegmentYieldsEmptyPlan) {
  EXPECT_TRUE(PlanFusion(std::vector<FusionStageView>{}).empty());
}

// ---- model::ComposeFusedStage: the descriptor-level mirror ----

TEST(ComposeFusedStageTest, SumsWorkAndDropsInteriorTraffic) {
  model::SegmentDesc segment;
  segment.input_bytes = 1 << 20;
  for (int i = 0; i < 3; ++i) {
    model::StageDesc s;
    s.timing.name = "k" + std::to_string(i);
    s.timing.compute_inst_per_row = 2.0;
    s.timing.mem_inst_per_row = 4.0;
    s.timing.private_bytes_per_item = 32;
    s.rows_in = 1000.0 - 100.0 * i;
    s.rows_out = 900.0 - 100.0 * i;
    s.bytes_in = 8 * s.rows_in;
    s.bytes_out = 8 * s.rows_out;
    segment.stages.push_back(s);
  }

  const model::StageDesc fused = model::ComposeFusedStage(segment.stages, 0, 3);
  // Boundary I/O is the group's: first stage's input, last stage's output.
  EXPECT_DOUBLE_EQ(fused.rows_in, 1000.0);
  EXPECT_DOUBLE_EQ(fused.bytes_in, 8000.0);
  EXPECT_DOUBLE_EQ(fused.rows_out, 700.0);
  EXPECT_DOUBLE_EQ(fused.bytes_out, 5600.0);
  // Per-row instruction work accumulates scaled by each stage's share of the
  // group's input rows, so it can only shrink relative to the plain sum.
  EXPECT_GT(fused.timing.compute_inst_per_row, 2.0);
  EXPECT_LE(fused.timing.compute_inst_per_row, 6.0);
  // Register reuse: max + half the rest, not the plain sum.
  EXPECT_EQ(fused.timing.private_bytes_per_item, 32 + (96 - 32) / 2);
}

}  // namespace
}  // namespace gpl
