#include "exec/partitioned_join.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"
#include "exec/morsel.h"

namespace gpl {

namespace {

class PartitionedBuildKernel : public Kernel {
 public:
  PartitionedBuildKernel(std::vector<ExprPtr> key_exprs,
                         std::shared_ptr<PartitionedJoinState> state)
      : key_exprs_(std::move(key_exprs)), state_(std::move(state)) {
    timing_.name = "k_partition_build";
    timing_.compute_inst_per_row = 40.0;  // hash + route + insert
    timing_.mem_inst_per_row = 5.0;
    timing_.private_bytes_per_item = 64;
    timing_.local_bytes_per_item = 8;  // per-partition staging buffers
    timing_.blocking = true;
    timing_.random_access_fraction = 0.6;
  }

  void PrepareTiming() override {
    // Partitioned inserts touch one cache-sized partition at a time.
    timing_.random_working_set_bytes = state_->max_partition_bytes();
  }

  Result<RowBatch> ProcessBatch(const RowBatch& input) override {
    const std::vector<int64_t> keys = EvaluateJoinKeys(input, key_exprs_);
    const int num_partitions = state_->num_partitions();
    std::vector<std::vector<int64_t>> partition_rows(
        static_cast<size_t>(num_partitions));
    for (size_t i = 0; i < keys.size(); ++i) {
      partition_rows[static_cast<size_t>(state_->PartitionOf(keys[i]))]
          .push_back(static_cast<int64_t>(i));
    }
    for (int p = 0; p < num_partitions; ++p) {
      const std::vector<int64_t>& rows = partition_rows[static_cast<size_t>(p)];
      if (rows.empty()) continue;
      std::vector<int64_t> partition_keys(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        partition_keys[i] = keys[static_cast<size_t>(rows[i])];
      }
      // A blocking consumer: each partition's rows materialize here.
      Table gathered = input.Select(rows).Materialize();
      const int64_t base =
          state_->rows_initialized(p) ? state_->rows(p).num_rows() : 0;
      state_->table(p).Insert(partition_keys, base);
      if (!state_->rows_initialized(p)) {
        state_->rows(p) = std::move(gathered);
        state_->set_rows_initialized(p);
      } else {
        GPL_RETURN_NOT_OK(state_->rows(p).AppendTable(gathered));
      }
    }
    timing_.random_working_set_bytes = state_->max_partition_bytes();
    return RowBatch();
  }

  void Reset() override { state_->Reset(); }

  int64_t MaterializedStateBytes() const override {
    return state_->total_table_bytes();
  }

 private:
  std::vector<ExprPtr> key_exprs_;
  std::shared_ptr<PartitionedJoinState> state_;
};

class PartitionedProbeKernel : public Kernel {
 public:
  PartitionedProbeKernel(std::vector<ExprPtr> key_exprs,
                         std::shared_ptr<PartitionedJoinState> state,
                         std::vector<std::string> build_payload)
      : key_exprs_(std::move(key_exprs)),
        state_(std::move(state)),
        build_payload_(std::move(build_payload)) {
    timing_.name = "k_partitioned_probe";
    timing_.compute_inst_per_row = 42.0;  // hash + partition pick + probe
    timing_.mem_inst_per_row = 5.0;
    timing_.private_bytes_per_item = 64;
    timing_.random_access_fraction = 0.5;
  }

  void PrepareTiming() override {
    timing_.random_working_set_bytes = state_->max_partition_bytes();
  }

  Result<RowBatch> ProcessBatch(const RowBatch& input) override {
    PrepareTiming();
    const std::vector<int64_t> keys = EvaluateJoinKeys(input, key_exprs_);
    const size_t n = keys.size();
    // Batch-probe each partition with its keys, then scatter the matches
    // back to ascending probe row (chain order within a row): the pairs of
    // probing every key in turn.
    const int num_partitions = state_->num_partitions();
    std::vector<std::vector<int64_t>> partition_rows(
        static_cast<size_t>(num_partitions));
    for (size_t i = 0; i < n; ++i) {
      partition_rows[static_cast<size_t>(state_->PartitionOf(keys[i]))]
          .push_back(static_cast<int64_t>(i));
    }
    struct Matches {
      std::vector<int64_t> probe;  // probe row
      std::vector<int64_t> build;
    };
    std::vector<Matches> matches(static_cast<size_t>(num_partitions));
    std::vector<int64_t> offsets(n + 1, 0);  // match counts, then slots
    std::vector<int64_t> partition_keys;
    for (int p = 0; p < num_partitions; ++p) {
      const std::vector<int64_t>& rows = partition_rows[static_cast<size_t>(p)];
      Matches& m = matches[static_cast<size_t>(p)];
      partition_keys.resize(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        partition_keys[i] = keys[static_cast<size_t>(rows[i])];
      }
      state_->table(p).ProbeBatch(partition_keys.data(),
                                  static_cast<int64_t>(rows.size()), 0,
                                  &m.probe, &m.build);
      for (int64_t& row : m.probe) {
        row = rows[static_cast<size_t>(row)];
        ++offsets[static_cast<size_t>(row) + 1];
      }
    }
    for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
    const size_t total = static_cast<size_t>(offsets[n]);
    std::vector<int64_t> probe_idx(total);
    std::vector<int> partition_of(total);
    std::vector<int64_t> build_idx(total);
    for (int p = 0; p < num_partitions; ++p) {
      const Matches& m = matches[static_cast<size_t>(p)];
      for (size_t k = 0; k < m.probe.size(); ++k) {
        const size_t slot =
            static_cast<size_t>(offsets[static_cast<size_t>(m.probe[k])]++);
        probe_idx[slot] = m.probe[k];
        partition_of[slot] = p;
        build_idx[slot] = m.build[k];
      }
    }
    // Probe-side columns follow their rows by position; the payload is
    // gathered here, across partitions.
    RowBatch out = input.Select(probe_idx);
    const size_t matched = build_idx.size();
    for (const std::string& name : build_payload_) {
      // Every built partition has the build side's schema; with no built
      // partition the column defaults to int32.
      std::vector<const Column*> sources(
          static_cast<size_t>(state_->num_partitions()), nullptr);
      const Column* schema = nullptr;
      for (int p = 0; p < state_->num_partitions(); ++p) {
        if (state_->rows_initialized(p) && state_->rows(p).HasColumn(name)) {
          sources[static_cast<size_t>(p)] = &state_->rows(p).GetColumn(name);
          if (schema == nullptr) schema = sources[static_cast<size_t>(p)];
        }
      }
      Column col = schema == nullptr
                       ? Column(DataType::kInt32)
                       : Column(schema->type(), schema->dictionary());
      const auto source = [&](size_t i) -> const Column& {
        return *sources[static_cast<size_t>(partition_of[i])];
      };
      switch (col.type()) {
        case DataType::kInt32:
        case DataType::kDate:
        case DataType::kString: {
          std::vector<int32_t>& dst = col.data32();
          dst.resize(matched);
          for (size_t i = 0; i < matched; ++i) {
            dst[i] = source(i).Int32At(build_idx[i]);
          }
          break;
        }
        case DataType::kInt64: {
          std::vector<int64_t>& dst = col.data64();
          dst.resize(matched);
          for (size_t i = 0; i < matched; ++i) {
            dst[i] = source(i).Int64At(build_idx[i]);
          }
          break;
        }
        case DataType::kFloat64: {
          std::vector<double>& dst = col.dataf();
          dst.resize(matched);
          for (size_t i = 0; i < matched; ++i) {
            dst[i] = source(i).DoubleAt(build_idx[i]);
          }
          break;
        }
      }
      GPL_RETURN_NOT_OK(out.AddColumn(name, std::move(col)));
    }
    return out;
  }

 private:
  std::vector<ExprPtr> key_exprs_;
  std::shared_ptr<PartitionedJoinState> state_;
  std::vector<std::string> build_payload_;
};

}  // namespace

PartitionedJoinState::PartitionedJoinState(int num_partitions) {
  GPL_CHECK(num_partitions >= 1 && IsPow2(static_cast<uint64_t>(num_partitions)))
      << "partition count must be a power of two";
  tables_.resize(static_cast<size_t>(num_partitions));
  rows_.resize(static_cast<size_t>(num_partitions));
  rows_initialized_.assign(static_cast<size_t>(num_partitions), false);
}

int PartitionedJoinState::PartitionOf(int64_t key) const {
  // Mix before masking so sequential keys spread across partitions.
  uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  return static_cast<int>((h >> 32) & (tables_.size() - 1));
}

int64_t PartitionedJoinState::total_table_bytes() const {
  int64_t total = 0;
  for (const JoinHashTable& t : tables_) total += t.byte_size();
  return total;
}

int64_t PartitionedJoinState::max_partition_bytes() const {
  int64_t max_bytes = 0;
  for (const JoinHashTable& t : tables_) {
    max_bytes = std::max(max_bytes, t.byte_size());
  }
  return max_bytes;
}

void PartitionedJoinState::Reset() {
  const int n = num_partitions();
  tables_.assign(static_cast<size_t>(n), JoinHashTable());
  rows_.assign(static_cast<size_t>(n), Table());
  rows_initialized_.assign(static_cast<size_t>(n), false);
}

KernelPtr MakePartitionedBuildKernel(std::vector<ExprPtr> key_exprs,
                                     std::shared_ptr<PartitionedJoinState> state) {
  return std::make_shared<PartitionedBuildKernel>(std::move(key_exprs),
                                                  std::move(state));
}

KernelPtr MakePartitionedProbeKernel(std::vector<ExprPtr> key_exprs,
                                     std::shared_ptr<PartitionedJoinState> state,
                                     std::vector<std::string> build_payload) {
  return std::make_shared<PartitionedProbeKernel>(
      std::move(key_exprs), std::move(state), std::move(build_payload));
}

}  // namespace gpl
