#include "model/exchange_model.h"

namespace gpl {
namespace model {

namespace {

/// Bytes a relation of `bytes` ships when every row relocates with
/// probability (N-1)/N (each device keeps 1/N of the re-keyed relation).
int64_t OutboundFraction(int64_t bytes, int num_shards) {
  const double n = static_cast<double>(num_shards < 1 ? 1 : num_shards);
  return static_cast<int64_t>(static_cast<double>(bytes) * (n - 1.0) / n);
}

/// The spine relocation a repartition of `input` would trigger: the probe
/// side of its attach join when known, the full fact scan otherwise.
int64_t RelocationBytes(const ExchangeInput& input, int64_t fact_bytes) {
  return input.spine_bytes > 0 ? input.spine_bytes : fact_bytes;
}

}  // namespace

ExchangeDecision PriceExchange(const ExchangeInput& input,
                               ExchangeStrategy strategy,
                               const sim::LinkSpec& link, int num_shards,
                               int64_t fact_bytes) {
  ExchangeDecision decision;
  decision.table = input.table;
  decision.strategy = strategy;
  switch (strategy) {
    case ExchangeStrategy::kCoPartitioned:
      decision.bytes = 0;
      decision.ms = 0.0;
      break;
    case ExchangeStrategy::kBroadcast:
      decision.bytes = input.bytes * static_cast<int64_t>(num_shards - 1);
      // One serialized DMA per receiving device (latency paid per copy).
      decision.ms =
          static_cast<double>(num_shards - 1) * link.TransferMs(input.bytes);
      break;
    case ExchangeStrategy::kRepartition:
      // Every row of both sides of the attach join relocates with
      // probability (N-1)/N; moving the relation alone is useless — the
      // probe spine must land on the same key too. Each device ships its
      // outbound fraction in one serialized DMA.
      decision.spine_bytes =
          OutboundFraction(RelocationBytes(input, fact_bytes), num_shards);
      decision.bytes =
          OutboundFraction(input.bytes, num_shards) + decision.spine_bytes;
      decision.ms = link.TransferMs(decision.bytes);
      break;
  }
  return decision;
}

/// The exact subset argmin. Decisions are coupled: the spine relocation is
/// charged once per plan (the fact side relocates once, not once per
/// dimension), paid by the repartitioning relation with the widest spine —
/// so the optimal strategy for one relation depends on which others
/// repartition. With k eligible relations (k <= 7 for TPC-H shapes)
/// a 2^k sweep is exact and deterministic: minimize total ms, tie-break on
/// total bytes, remaining ties go to the subset enumerated first (the
/// all-broadcast plan).
ExchangePlan PlanExchange(const std::vector<ExchangeInput>& inputs,
                          const sim::LinkSpec& link, int num_shards,
                          int64_t fact_bytes) {
  ExchangePlan plan;
  plan.decisions.resize(inputs.size());

  struct Candidate {
    size_t index = 0;          ///< into inputs/decisions
    ExchangeDecision bcast;
    int64_t own_bytes = 0;     ///< outbound fraction of the relation itself
    double own_ms = 0.0;       ///< one DMA for the own bytes alone
    int64_t reloc_bytes = 0;   ///< outbound fraction of its spine relocation
  };
  std::vector<Candidate> eligible;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const ExchangeInput& input = inputs[i];
    if (input.co_partitioned || num_shards <= 1) {
      plan.decisions[i] = PriceExchange(
          input, ExchangeStrategy::kCoPartitioned, link, num_shards,
          fact_bytes);
      continue;
    }
    Candidate c;
    c.index = i;
    c.bcast = PriceExchange(input, ExchangeStrategy::kBroadcast, link,
                            num_shards, fact_bytes);
    c.own_bytes = OutboundFraction(input.bytes, num_shards);
    c.own_ms = link.TransferMs(c.own_bytes);
    c.reloc_bytes =
        OutboundFraction(RelocationBytes(input, fact_bytes), num_shards);
    plan.all_broadcast_bytes += c.bcast.bytes;
    eligible.push_back(std::move(c));
  }

  const size_t k = eligible.size();
  uint64_t best_mask = 0;
  double best_ms = 0.0;
  int64_t best_bytes = 0;
  bool first = true;
  // Beyond 16 eligible relations (never seen in practice) fall back to the
  // all-broadcast baseline (mask 0).
  const uint64_t num_masks = k <= 16 ? (uint64_t{1} << k) : 1;
  for (uint64_t mask = 0; mask < num_masks; ++mask) {
    double ms = 0.0;
    int64_t bytes = 0;
    // The widest spine among the repartitioning relations pays the one
    // shared relocation; ties go to the earliest relation (input order).
    size_t payer = k;
    int64_t payer_reloc = -1;
    for (size_t j = 0; j < k; ++j) {
      if ((mask >> j) & 1) {
        if (eligible[j].reloc_bytes > payer_reloc) {
          payer_reloc = eligible[j].reloc_bytes;
          payer = j;
        }
      }
    }
    for (size_t j = 0; j < k; ++j) {
      const Candidate& c = eligible[j];
      if (!((mask >> j) & 1)) {
        ms += c.bcast.ms;
        bytes += c.bcast.bytes;
      } else if (j == payer) {
        // Own bytes and the spine relocation ship in one DMA, exactly the
        // standalone PriceExchange(kRepartition) price.
        ms += link.TransferMs(c.own_bytes + payer_reloc);
        bytes += c.own_bytes + payer_reloc;
      } else {
        ms += c.own_ms;
        bytes += c.own_bytes;
      }
    }
    if (first || ms < best_ms || (ms == best_ms && bytes < best_bytes)) {
      best_mask = mask;
      best_ms = ms;
      best_bytes = bytes;
      first = false;
    }
  }

  size_t payer = k;
  int64_t payer_reloc = -1;
  for (size_t j = 0; j < k; ++j) {
    if (((best_mask >> j) & 1) && eligible[j].reloc_bytes > payer_reloc) {
      payer_reloc = eligible[j].reloc_bytes;
      payer = j;
    }
  }
  for (size_t j = 0; j < k; ++j) {
    const Candidate& c = eligible[j];
    ExchangeDecision decision;
    if (!((best_mask >> j) & 1)) {
      decision = c.bcast;
    } else {
      decision.table = inputs[c.index].table;
      decision.strategy = ExchangeStrategy::kRepartition;
      if (j == payer) {
        decision.spine_bytes = payer_reloc;
        decision.bytes = c.own_bytes + payer_reloc;
        decision.ms = link.TransferMs(decision.bytes);
        plan.has_spine = true;
        plan.spine_table = inputs[c.index].table;
        plan.spine_bytes = payer_reloc;
      } else {
        decision.bytes = c.own_bytes;
        decision.ms = c.own_ms;
      }
    }
    plan.decisions[c.index] = std::move(decision);
  }
  for (const ExchangeDecision& decision : plan.decisions) {
    plan.total_bytes += decision.bytes;
    plan.total_ms += decision.ms;
  }
  return plan;
}

}  // namespace model
}  // namespace gpl
