#include "plan/segment.h"

#include "common/logging.h"
#include "exec/partitioned_join.h"

namespace gpl {

namespace {

/// The segment currently being assembled while walking the plan tree.
struct OpenPipeline {
  Segment segment;
  /// Set after an exchange op: the next stage appended consumes data that
  /// arrived from another device, so fusion must not reach across it.
  bool pending_exchange_boundary = false;
};

/// Appends a stage to the open pipeline, transferring the pending
/// exchange-boundary mark onto it.
void AppendStage(OpenPipeline* open, Stage stage) {
  stage.exchange_boundary = open->pending_exchange_boundary;
  open->pending_exchange_boundary = false;
  open->segment.stages.push_back(std::move(stage));
}

// ---- Chain-signature helpers (subplan-cache identity; see Segment) --------

std::string ExprSig(const ExprPtr& expr) {
  return expr == nullptr ? std::string("~") : expr->ToString();
}

std::string ExprListSig(const std::vector<ExprPtr>& exprs) {
  std::string sig;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) sig += ',';
    sig += ExprSig(exprs[i]);
  }
  return sig;
}

std::string ProjListSig(const std::vector<ProjectedColumn>& columns) {
  std::string sig;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) sig += ',';
    sig += columns[i].name;
    sig += '=';
    sig += ExprSig(columns[i].expr);
  }
  return sig;
}

std::string NameListSig(const std::vector<std::string>& names) {
  std::string sig;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) sig += ',';
    sig += names[i];
  }
  return sig;
}

Result<OpenPipeline> Build(const PhysicalOpPtr& op, SegmentedPlan* out);

Result<OpenPipeline> BuildChild(const PhysicalOpPtr& op, SegmentedPlan* out) {
  GPL_CHECK(op != nullptr);
  return Build(op, out);
}

Result<OpenPipeline> Build(const PhysicalOpPtr& op, SegmentedPlan* out) {
  switch (op->kind) {
    case PhysicalOp::Kind::kScan: {
      OpenPipeline open;
      open.segment.input_table = op->table;
      open.segment.input_alias = op->alias;
      open.segment.input_columns = op->columns;
      open.segment.est_input_rows = op->est_rows;
      open.segment.chain_signature =
          "T:" + op->table + "/" + op->alias + ":" + NameListSig(op->columns);
      return open;
    }

    case PhysicalOp::Kind::kFilter: {
      GPL_ASSIGN_OR_RETURN(OpenPipeline open, BuildChild(op->child, out));
      Stage stage;
      stage.kernel = MakeFilterKernel(op->predicate);
      stage.est_rows_out = op->est_rows;
      stage.est_columns_out = static_cast<int>(OutputColumns(*op).size());
      open.segment.chain_signature += "|F:" + ExprSig(op->predicate);
      AppendStage(&open, std::move(stage));
      return open;
    }

    case PhysicalOp::Kind::kProject: {
      GPL_ASSIGN_OR_RETURN(OpenPipeline open, BuildChild(op->child, out));
      Stage stage;
      stage.kernel = MakeProjectKernel(op->projections);
      stage.est_rows_out = op->est_rows > 0.0
                               ? op->est_rows
                               : (op->child != nullptr ? op->child->est_rows : 0.0);
      stage.est_columns_out = static_cast<int>(op->projections.size());
      open.segment.chain_signature += "|P:" + ProjListSig(op->projections);
      AppendStage(&open, std::move(stage));
      return open;
    }

    case PhysicalOp::Kind::kHashJoin: {
      // Build side closes into its own segment, ending with the hash build
      // (the blocking barrier of Section 3.2). The planner may have chosen
      // the radix-partitioned variant for cache-exceeding build sides.
      KernelPtr build_kernel;
      KernelPtr probe_kernel;
      std::shared_ptr<HashJoinState> join_state;
      if (op->partitioned_join) {
        auto state =
            std::make_shared<PartitionedJoinState>(op->num_partitions);
        build_kernel = MakePartitionedBuildKernel(op->build_keys, state);
        probe_kernel = MakePartitionedProbeKernel(op->probe_keys, state,
                                                  op->build_payload);
      } else {
        join_state = std::make_shared<HashJoinState>();
        build_kernel = MakeHashBuildKernel(op->build_keys, join_state);
        probe_kernel =
            MakeHashProbeKernel(op->probe_keys, join_state, op->build_payload);
      }
      std::string build_sig;
      {
        GPL_ASSIGN_OR_RETURN(OpenPipeline build_open,
                             BuildChild(op->build_child, out));
        Stage build_stage;
        build_stage.kernel = std::move(build_kernel);
        build_stage.est_rows_out = 0.0;  // output is the hash table
        build_stage.est_columns_out = 1;
        build_open.segment.chain_signature +=
            (op->partitioned_join
                 ? "|PB" + std::to_string(op->num_partitions) + ":"
                 : "|HB:") +
            ExprListSig(op->build_keys);
        AppendStage(&build_open, std::move(build_stage));
        build_open.segment.output_is_hash_build = true;
        build_open.segment.hash_state = join_state;
        build_open.segment.uncacheable |= op->partitioned_join;
        build_sig = build_open.segment.chain_signature;
        out->segments.push_back(std::move(build_open.segment));
      }

      GPL_ASSIGN_OR_RETURN(OpenPipeline open, BuildChild(op->child, out));
      Stage probe_stage;
      probe_stage.kernel = std::move(probe_kernel);
      probe_stage.est_rows_out = op->est_rows;
      probe_stage.est_columns_out = static_cast<int>(OutputColumns(*op).size());
      // The probe's output depends on the build side's content, so the build
      // chain is part of this segment's identity.
      open.segment.chain_signature +=
          (op->partitioned_join ? "|PP:" : "|HP:") +
          ExprListSig(op->probe_keys) + ">" + NameListSig(op->build_payload) +
          "{B=" + build_sig + "}";
      open.segment.uncacheable |= op->partitioned_join;
      AppendStage(&open, std::move(probe_stage));
      return open;
    }

    case PhysicalOp::Kind::kExchange: {
      // Identity within a device's pipeline; the shard layer prices the
      // data motion on the inter-device link. The stage above it consumes
      // exchanged data, so mark it as a fusion boundary.
      GPL_ASSIGN_OR_RETURN(OpenPipeline open, BuildChild(op->child, out));
      open.pending_exchange_boundary = true;
      open.segment.chain_signature += "|X";
      return open;
    }

    case PhysicalOp::Kind::kAggregate: {
      GPL_ASSIGN_OR_RETURN(OpenPipeline open, BuildChild(op->child, out));
      Stage stage;
      stage.kernel = MakeAggregateKernel(op->group_by, op->aggregates,
                                         op->partial_aggregate
                                             ? AggregatePhase::kPartial
                                             : AggregatePhase::kComplete);
      stage.est_rows_out = op->est_rows;
      stage.est_columns_out = static_cast<int>(OutputColumns(*op).size());
      stage.is_aggregate = true;
      stage.partial_aggregate = op->partial_aggregate;
      std::string agg_sig;
      for (size_t a = 0; a < op->aggregates.size(); ++a) {
        const AggSpec& spec = op->aggregates[a];
        if (a > 0) agg_sig += ',';
        agg_sig += std::to_string(static_cast<int>(spec.func)) + "(" +
                   ExprSig(spec.arg) + ")>" + spec.output_name;
      }
      open.segment.chain_signature +=
          std::string(op->partial_aggregate ? "|Ap:" : "|Ac:") +
          ProjListSig(op->group_by) + ";" + agg_sig;
      AppendStage(&open, std::move(stage));
      return open;
    }

    case PhysicalOp::Kind::kSort: {
      GPL_ASSIGN_OR_RETURN(OpenPipeline open, BuildChild(op->child, out));
      Stage stage;
      stage.kernel = MakeSortKernel(op->sort_keys);
      stage.est_rows_out = op->est_rows;
      stage.est_columns_out = static_cast<int>(OutputColumns(*op).size());
      std::string sort_sig;
      for (size_t k = 0; k < op->sort_keys.size(); ++k) {
        if (k > 0) sort_sig += ',';
        sort_sig += op->sort_keys[k].column;
        sort_sig += op->sort_keys[k].descending ? '-' : '+';
      }
      open.segment.chain_signature += "|S:" + sort_sig;
      AppendStage(&open, std::move(stage));
      // Sort is blocking: close the segment. Anything above the sort starts
      // a new pipeline reading the materialized result.
      const std::string closed_sig = open.segment.chain_signature;
      out->segments.push_back(std::move(open.segment));
      OpenPipeline next;
      next.segment.input_segment = static_cast<int>(out->segments.size()) - 1;
      next.segment.est_input_rows = op->est_rows;
      // The continuation reads the sorted materialization: its identity is
      // the sorted chain's (the partitioned-state taint does not carry over —
      // the continuation only touches the materialized table).
      next.segment.chain_signature = "M{" + closed_sig + "}";
      return next;
    }
  }
  return Status::Internal("unknown physical operator kind");
}

}  // namespace

Result<SegmentedPlan> SegmentPlan(const PhysicalOpPtr& root) {
  SegmentedPlan plan;
  GPL_ASSIGN_OR_RETURN(OpenPipeline open, Build(root, &plan));
  // Close the root pipeline unless the tree ended in a sort that already
  // closed it and left an empty continuation.
  if (!open.segment.stages.empty() || open.segment.input_segment < 0) {
    if (open.segment.stages.empty() && open.segment.input_segment < 0 &&
        open.segment.input_table.empty()) {
      return Status::Internal("empty plan");
    }
    plan.segments.push_back(std::move(open.segment));
  }
  if (plan.segments.empty()) {
    return Status::Internal("plan produced no segments");
  }
  return plan;
}

Result<std::string> PlanSignature(const PhysicalOpPtr& root) {
  GPL_ASSIGN_OR_RETURN(SegmentedPlan plan, SegmentPlan(root));
  return std::move(plan.segments.back().chain_signature);
}

}  // namespace gpl
