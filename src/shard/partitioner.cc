#include "shard/partitioner.h"

#include <utility>

#include "common/logging.h"

namespace gpl {
namespace shard {

namespace {

/// Gathers the rows listed in `indices` from `table`, preserving order.
Table GatherRows(const Table& table, const std::vector<int64_t>& indices) {
  Table out = table.Gather(indices);
  out.set_name(table.name());
  return out;
}

/// The per-shard row-index lists of one partitioned table.
std::vector<std::vector<int64_t>> SplitIndices(const Table& table,
                                               const std::string& key_column,
                                               const PartitionOptions& options) {
  const int64_t n = table.num_rows();
  std::vector<std::vector<int64_t>> indices(
      static_cast<size_t>(options.num_shards));
  for (auto& v : indices) v.reserve(static_cast<size_t>(n / options.num_shards + 1));

  if (options.scheme == PartitionScheme::kRange) {
    // Contiguous, balanced row ranges: shard s gets [s*n/N, (s+1)*n/N).
    for (int s = 0; s < options.num_shards; ++s) {
      const int64_t begin = n * s / options.num_shards;
      const int64_t end = n * (s + 1) / options.num_shards;
      for (int64_t i = begin; i < end; ++i) {
        indices[static_cast<size_t>(s)].push_back(i);
      }
    }
    return indices;
  }

  const Column& key = table.GetColumn(key_column);
  for (int64_t i = 0; i < n; ++i) {
    const int s = ShardOfKey(key.AsInt64(i), options.num_shards);
    indices[static_cast<size_t>(s)].push_back(i);
  }
  return indices;
}

}  // namespace

const char* PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kHash:
      return "hash";
    case PartitionScheme::kRange:
      return "range";
  }
  return "?";
}

Result<PartitionScheme> ParsePartitionScheme(std::string_view name) {
  if (name == "hash") return PartitionScheme::kHash;
  if (name == "range") return PartitionScheme::kRange;
  return Status::InvalidArgument("unknown partition scheme: '" +
                                 std::string(name) + "' (want hash|range)");
}

std::string HashPartitionKeyColumn(const std::string& table) {
  // Matches PartitionDatabase's kHash split below: lineitem by l_orderkey,
  // orders co-partitioned by o_orderkey.
  if (table == "lineitem") return "l_orderkey";
  if (table == "orders") return "o_orderkey";
  return "";
}

int ShardOfKey(int64_t key, int num_shards) {
  GPL_DCHECK(num_shards >= 1);
  // splitmix64 finalizer: adjacent/skewed keys still spread evenly.
  uint64_t h = static_cast<uint64_t>(key);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h = h ^ (h >> 31);
  return static_cast<int>(h % static_cast<uint64_t>(num_shards));
}

bool ShardedDatabase::IsPartitioned(const std::string& table) const {
  for (const std::string& t : partitioned_tables) {
    if (t == table) return true;
  }
  return false;
}

Result<ShardedDatabase> PartitionDatabase(const tpch::Database& db,
                                          const PartitionOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "num_shards must be >= 1, got " + std::to_string(options.num_shards));
  }
  if (db.lineitem.HasColumn(kRowIdColumn)) {
    return Status::InvalidArgument(
        "database already carries a '" + std::string(kRowIdColumn) +
        "' column; partitioning an already-partitioned shard is not supported");
  }

  ShardedDatabase out;
  out.options = options;
  out.partitioned_tables = {"lineitem"};
  if (options.scheme == PartitionScheme::kHash) {
    out.partitioned_tables.push_back("orders");
  }

  const std::vector<std::vector<int64_t>> lineitem_split =
      SplitIndices(db.lineitem, "l_orderkey", options);
  std::vector<std::vector<int64_t>> orders_split;
  if (options.scheme == PartitionScheme::kHash) {
    orders_split = SplitIndices(db.orders, "o_orderkey", options);
  }

  out.shards.reserve(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    tpch::Database shard;
    // Broadcast tables: full copies (column buffers and dictionaries
    // shared, so codes stay comparable across shards).
    shard.region = db.region;
    shard.nation = db.nation;
    shard.supplier = db.supplier;
    shard.customer = db.customer;
    shard.part = db.part;
    shard.partsupp = db.partsupp;
    shard.orders = options.scheme == PartitionScheme::kHash
                       ? GatherRows(db.orders,
                                    orders_split[static_cast<size_t>(s)])
                       : db.orders;

    // The fact partition, tagged with each row's index in the source table.
    const std::vector<int64_t>& rows = lineitem_split[static_cast<size_t>(s)];
    shard.lineitem = GatherRows(db.lineitem, rows);
    Column rowid(DataType::kInt64);
    rowid.data64().assign(rows.begin(), rows.end());
    GPL_RETURN_NOT_OK(
        shard.lineitem.AddColumn(kRowIdColumn, std::move(rowid)));

    out.shards.push_back(std::move(shard));
  }

  for (const std::string& name : out.partitioned_tables) {
    const Table* t = db.ByName(name);
    GPL_CHECK(t != nullptr);
    out.partitioned_bytes += t->byte_size();
  }
  out.broadcast_bytes = db.byte_size() - out.partitioned_bytes;
  return out;
}

}  // namespace shard
}  // namespace gpl
