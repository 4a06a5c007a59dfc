#include "engine/kbe_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "exec/morsel.h"
#include "exec/primitives.h"
#include "plan/segment.h"

namespace gpl {

KbeEngine::KbeEngine(const tpch::Database* db, const sim::Simulator* simulator,
                     KbeFlavor flavor)
    : db_(db), simulator_(simulator), flavor_(flavor) {
  GPL_CHECK(db_ != nullptr && simulator_ != nullptr);
}

Status KbeEngine::Record(Context* ctx, const sim::KernelLaunch& launch,
                         int64_t resident_bytes) {
  GPL_ASSIGN_OR_RETURN(
      const sim::HwCounters counters,
      simulator_->RunKernelBatch(launch, resident_bytes, ctx->trace,
                                 ctx->fault));
  ctx->counters.Accumulate(counters);
  return Status::OK();
}

Result<RowBatch> KbeEngine::Exec(const PhysicalOp& op, Context* ctx) {
  // Operator-boundary cancellation check (the KBE analogue of the GPL
  // executor's segment-boundary check).
  if (ctx->cancel != nullptr) GPL_RETURN_NOT_OK(ctx->cancel->Check());
  if (&op == ctx->substitute_at) return RowBatch(std::move(ctx->substitute));
  switch (op.kind) {
    case PhysicalOp::Kind::kScan: {
      const Table* base = db_->ByName(op.table);
      if (base == nullptr) return Status::NotFound("unknown table: " + op.table);
      Table view(op.table);
      for (const std::string& col : op.columns) {
        const std::string name =
            op.alias.empty() ? col : op.alias + "_" + col;
        GPL_RETURN_NOT_OK(view.AddColumn(name, base->GetColumn(col)));
      }
      // Base data already resides in global memory.
      return RowBatch(std::move(view));
    }

    case PhysicalOp::Kind::kFilter: {
      GPL_ASSIGN_OR_RETURN(RowBatch input, Exec(*op.child, ctx));
      const int64_t n = input.num_rows();
      const int64_t input_bytes = input.byte_size();

      // k_map: evaluate the predicate into flags (a bitmap for Ocelot).
      Column flags = EvaluateMorsels(*op.predicate, input);
      const int64_t flags_bytes = flavor_.bitmap_selection ? n / 8 + 1 : n * 4;
      sim::KernelLaunch map_launch;
      map_launch.desc = FilterTiming(op.predicate->CostPerRow());
      map_launch.rows_in = n;
      map_launch.bytes_in = input_bytes;
      map_launch.rows_out = n;
      map_launch.bytes_out = flags_bytes;
      map_launch.input_resident_fraction = flavor_.scan_resident_fraction;
      GPL_RETURN_NOT_OK(Record(ctx, map_launch, 0));

      if (!flavor_.bitmap_selection) {
        // k_prefix_sum over the flags array (blocking). Only the launch is
        // simulated: the host compacts through FlaggedRows, which needs no
        // offsets.
        sim::KernelLaunch prefix_launch;
        prefix_launch.desc = PrefixSumTiming();
        prefix_launch.rows_in = n;
        prefix_launch.bytes_in = n * 4;
        prefix_launch.rows_out = n;
        prefix_launch.bytes_out = n * 4;
        prefix_launch.input_resident_fraction =
            simulator_->cache().ChannelResidency(n * 4, 0);
        GPL_RETURN_NOT_OK(Record(ctx, prefix_launch, 0));
      }

      // k_scatter: compact the satisfying rows into a new relation. The
      // launch charges writing every column, as a kernel-at-a-time engine
      // materializes it; on the host the rows pass on by position.
      RowBatch out = input.Select(FlaggedRows(flags));
      sim::KernelLaunch scatter_launch;
      scatter_launch.desc = ScatterTiming(static_cast<int>(input.num_columns()));
      scatter_launch.rows_in = n;
      scatter_launch.bytes_in = input_bytes + flags_bytes +
                                (flavor_.bitmap_selection ? 0 : n * 4);
      scatter_launch.rows_out = out.num_rows();
      scatter_launch.bytes_out = out.byte_size();
      GPL_RETURN_NOT_OK(Record(ctx, scatter_launch, 0));
      return out;
    }

    case PhysicalOp::Kind::kProject: {
      GPL_ASSIGN_OR_RETURN(RowBatch input, Exec(*op.child, ctx));
      KernelPtr kernel = MakeProjectKernel(op.projections);
      GPL_ASSIGN_OR_RETURN(RowBatch out, kernel->ProcessBatch(input));
      sim::KernelLaunch launch;
      launch.desc = kernel->timing();
      launch.rows_in = input.num_rows();
      launch.bytes_in = input.byte_size();
      launch.rows_out = out.num_rows();
      launch.bytes_out = out.byte_size();
      GPL_RETURN_NOT_OK(Record(ctx, launch, 0));
      return out;
    }

    case PhysicalOp::Kind::kHashJoin: {
      GPL_ASSIGN_OR_RETURN(RowBatch build_input, Exec(*op.build_child, ctx));

      // Ocelot: reuse a previously built hash table for the same build. The
      // key pins the whole build relation (scan columns, aliases, filters,
      // projections, nested joins) over this engine's database, plus the
      // build keys.
      std::string signature;
      std::shared_ptr<HashJoinState> state;
      if (flavor_.cache_hash_tables) {
        GPL_ASSIGN_OR_RETURN(signature, PlanSignature(op.build_child));
        for (const ExprPtr& k : op.build_keys) signature += "|" + k->ToString();
        auto it = hash_table_cache_.find(signature);
        if (it != hash_table_cache_.end()) state = it->second;
      }
      if (state == nullptr) {
        state = std::make_shared<HashJoinState>();
        KernelPtr build = MakeHashBuildKernel(op.build_keys, state);
        GPL_ASSIGN_OR_RETURN(RowBatch ignored,
                             build->ProcessBatch(build_input));
        (void)ignored;
        sim::KernelLaunch build_launch;
        build_launch.desc = build->timing();
        build_launch.rows_in = build_input.num_rows();
        build_launch.bytes_in = build_input.byte_size();
        build_launch.rows_out = build_input.num_rows();
        build_launch.bytes_out = state->table.byte_size();
        // Record before caching: a build whose launch faults is not cached,
        // so a retry rebuilds (and re-charges) it from scratch.
        GPL_RETURN_NOT_OK(Record(ctx, build_launch, state->table.byte_size()));
        if (flavor_.cache_hash_tables) hash_table_cache_[signature] = state;
      }

      GPL_ASSIGN_OR_RETURN(RowBatch probe_input, Exec(*op.child, ctx));
      KernelPtr probe =
          MakeHashProbeKernel(op.probe_keys, state, op.build_payload);
      GPL_ASSIGN_OR_RETURN(RowBatch out, probe->ProcessBatch(probe_input));
      sim::KernelLaunch probe_launch;
      probe_launch.desc = probe->timing();
      probe_launch.rows_in = probe_input.num_rows();
      probe_launch.bytes_in = probe_input.byte_size();
      probe_launch.rows_out = out.num_rows();
      probe_launch.bytes_out = out.byte_size();
      GPL_RETURN_NOT_OK(Record(ctx, probe_launch, state->table.byte_size()));
      return out;
    }

    case PhysicalOp::Kind::kAggregate: {
      GPL_ASSIGN_OR_RETURN(RowBatch input, Exec(*op.child, ctx));
      const int64_t n = input.num_rows();

      KernelPtr agg = MakeAggregateKernel(op.group_by, op.aggregates,
                                          op.partial_aggregate
                                              ? AggregatePhase::kPartial
                                              : AggregatePhase::kComplete);
      GPL_ASSIGN_OR_RETURN(RowBatch ignored, agg->ProcessBatch(input));
      (void)ignored;
      GPL_ASSIGN_OR_RETURN(Table out, agg->Finish());

      // KBE aggregation is scan-based (OmniDB): the prefix-scan kernel
      // materializes a scan array of the input size...
      sim::KernelLaunch scan_launch;
      scan_launch.desc = ScanAggregateTiming();
      scan_launch.rows_in = n;
      scan_launch.bytes_in = input.byte_size();
      scan_launch.rows_out = n;
      scan_launch.bytes_out = n * 8;
      GPL_RETURN_NOT_OK(Record(ctx, scan_launch, 0));

      // ...followed by a gather of the per-group results.
      sim::KernelLaunch gather_launch;
      gather_launch.desc = AggregateTiming(1.0, static_cast<int>(op.aggregates.size()));
      gather_launch.desc.name = "k_gather";
      gather_launch.rows_in = n;
      gather_launch.bytes_in = n * 8;
      gather_launch.rows_out = out.num_rows();
      gather_launch.bytes_out = out.byte_size();
      gather_launch.input_resident_fraction =
          simulator_->cache().ChannelResidency(n * 8, 0);
      GPL_RETURN_NOT_OK(Record(ctx, gather_launch, 0));
      return RowBatch(std::move(out));
    }

    case PhysicalOp::Kind::kExchange:
      // Identity on a single device: the exchange describes inter-device
      // data motion, which the shard layer prices on the link — no kernel
      // launches here.
      return Exec(*op.child, ctx);

    case PhysicalOp::Kind::kSort: {
      GPL_ASSIGN_OR_RETURN(RowBatch input, Exec(*op.child, ctx));
      KernelPtr sort = MakeSortKernel(op.sort_keys);
      GPL_ASSIGN_OR_RETURN(RowBatch ignored, sort->ProcessBatch(input));
      (void)ignored;
      GPL_ASSIGN_OR_RETURN(Table out, sort->Finish());
      sim::KernelLaunch launch;
      launch.desc = sort->timing();
      launch.rows_in = input.num_rows();
      launch.bytes_in = input.byte_size();
      launch.rows_out = out.num_rows();
      launch.bytes_out = out.byte_size();
      GPL_RETURN_NOT_OK(Record(ctx, launch, 0));
      return RowBatch(std::move(out));
    }
  }
  return Status::Internal("unknown physical operator kind");
}

Result<QueryResult> KbeEngine::Execute(const PhysicalOpPtr& plan,
                                       const ExecOptions& exec) {
  return ExecuteWithInput(plan, nullptr, Table(), exec);
}

Result<QueryResult> KbeEngine::ExecuteWithInput(const PhysicalOpPtr& plan,
                                                const PhysicalOp* substitute_at,
                                                Table substitute,
                                                const ExecOptions& exec) {
  GPL_CHECK(plan != nullptr);
  // Morsel-parallel primitive bodies for this execution; host-side only, the
  // simulated counters below are unaffected.
  ScopedHostParallelism host_parallelism(exec.host_threads);
  Context ctx;
  ctx.trace = exec.trace;
  ctx.cancel = exec.cancel;
  ctx.fault = exec.fault;
  ctx.substitute_at = substitute_at;
  ctx.substitute = std::move(substitute);
  GPL_ASSIGN_OR_RETURN(RowBatch out, Exec(*plan, &ctx));
  QueryResult result;
  result.table = out.Materialize();
  result.metrics.counters = ctx.counters;
  result.metrics.Finalize(simulator_->device());
  return result;
}

}  // namespace gpl
