#ifndef GPL_MODEL_EXCHANGE_MODEL_H_
#define GPL_MODEL_EXCHANGE_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/link.h"

namespace gpl {
namespace model {

/// How a build relation reaches the shards of a data-parallel execution.
enum class ExchangeStrategy {
  /// Already partitioned on the join key alongside the fact table; the join
  /// is shard-local and nothing crosses a link at query time.
  kCoPartitioned,
  /// Ship one full copy of the relation to every other device.
  kBroadcast,
  /// Hash-repartition both sides of the relation's attach join on its key.
  /// The relation ships its outbound fraction, and the probe-spine rows at
  /// the attach join relocate with it — but that spine relocation happens at
  /// most once per query, however many relations repartition.
  kRepartition,
};

/// One relation participating in a sharded query, as seen by the exchange
/// model. `bytes`/`rows` cover only the columns the query references (what
/// would actually move).
struct ExchangeInput {
  std::string table;
  int64_t bytes = 0;
  int64_t rows = 0;
  /// True when the partitioner co-located this relation with the fact table
  /// on the join key (e.g. orders hash-partitioned by orderkey).
  bool co_partitioned = false;
  /// Bytes of the fact-side subtree at this relation's attach join — the
  /// probe-spine rows that would co-relocate under repartition. Joins high
  /// on the spine sit above selective filters and earlier joins, so their
  /// spine is far narrower than the raw fact scan. 0 = unknown; the model
  /// then falls back to the full fact-scan bytes (conservative).
  int64_t spine_bytes = 0;
};

/// The chosen strategy and modeled link cost for one relation.
struct ExchangeDecision {
  std::string table;
  ExchangeStrategy strategy = ExchangeStrategy::kBroadcast;
  /// Bytes crossing inter-device links under the chosen strategy. For
  /// kRepartition this includes `spine_bytes` when this decision pays the
  /// shared spine relocation (see ExchangePlan).
  int64_t bytes = 0;
  /// Serialized transfer time over the link (the exchange is charged on the
  /// source device's DMA engine, so transfers do not overlap).
  double ms = 0.0;
  /// kRepartition only: the portion of `bytes` that is the spine relocation
  /// included in this decision. 0 when another decision in the same plan
  /// already pays it (the spine relocates at most once per plan).
  int64_t spine_bytes = 0;
};

/// Exchange plan for one query: per-relation decisions plus totals.
struct ExchangePlan {
  std::vector<ExchangeDecision> decisions;
  int64_t total_bytes = 0;
  double total_ms = 0.0;
  /// Set when at least one relation repartitions: the relation whose attach
  /// join re-keys the probe spine (the widest spine among the repartitioning
  /// relations — relocating it once covers the others), and the link bytes
  /// of that one relocation.
  bool has_spine = false;
  std::string spine_table;
  int64_t spine_bytes = 0;
  /// Counterfactual: total link bytes had every non-co-partitioned relation
  /// broadcast (the pre-repartition baseline). Benchmark gates compare the
  /// chosen plan's bytes against this to prove repartitioning paid off.
  int64_t all_broadcast_bytes = 0;
};

/// Chooses broadcast-vs-repartition per relation and prices the data
/// movement over `link` for an `num_shards`-way sharded execution.
///
/// Cost model (bytes crossing links):
///   broadcast:    bytes * (N-1)            — every other device gets a copy,
///                 one serialized DMA per copy (latency paid N-1 times);
///   repartition:  bytes * (N-1)/N own traffic, plus one shared relocation
///                 of the probe spine at the attach join,
///                 spine_bytes * (N-1)/N — every row of both sides relocates
///                 with probability (N-1)/N. The spine relocation is charged
///                 at most ONCE per PlanExchange call (the fact side moves
///                 once, not once per dimension): the widest spine among the
///                 repartitioning relations pays it.
/// Co-partitioned relations cost nothing at query time. The plan is the
/// exact argmin over repartition subsets by total ms (bytes break ties, the
/// all-broadcast plan wins remaining ties) — deterministic. With k <= 7
/// eligible relations the 2^k sweep takes a few microseconds, so every
/// sharded plan is priced afresh rather than memoized.
ExchangePlan PlanExchange(const std::vector<ExchangeInput>& inputs,
                          const sim::LinkSpec& link, int num_shards,
                          int64_t fact_bytes);

/// Prices one relation under one specific strategy (no choosing), as if it
/// were the only relation exchanged: kRepartition includes the relation's
/// own spine relocation (spine_bytes, falling back to fact_bytes when 0).
/// The per-relation price PlanExchange sums; exposed so tests can check a
/// single-relation plan against a brute-force argmin.
ExchangeDecision PriceExchange(const ExchangeInput& input,
                               ExchangeStrategy strategy,
                               const sim::LinkSpec& link, int num_shards,
                               int64_t fact_bytes);

}  // namespace model
}  // namespace gpl

#endif  // GPL_MODEL_EXCHANGE_MODEL_H_
