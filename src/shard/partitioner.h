#ifndef GPL_SHARD_PARTITIONER_H_
#define GPL_SHARD_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tpch/dbgen.h"

namespace gpl {
namespace shard {

struct PartitionOptions {
  int num_shards = 2;
};

/// A database split into N per-shard databases. lineitem is hashed by
/// l_orderkey and orders co-partitioned by o_orderkey, so the
/// lineitem-orders join is shard-local; every other table is broadcast.
/// Partitioned tables hold disjoint row subsets whose relative order
/// matches the source table; broadcast tables are full copies. All shards
/// share the source database's string dictionaries (columns copy data but
/// share the Dictionary instance), so dictionary codes stay comparable
/// across shards and with the unpartitioned truth.
struct ShardedDatabase {
  PartitionOptions options;
  std::vector<tpch::Database> shards;

  /// The partitioned fact table ("lineitem") first, then its co-partitioned
  /// companion ("orders").
  std::vector<std::string> partitioned_tables;

  /// Bytes of partitioned tables summed across shards (== one source copy).
  int64_t partitioned_bytes = 0;
  /// Bytes of one broadcast copy (each shard holds this much duplicated).
  int64_t broadcast_bytes = 0;

  int num_shards() const { return static_cast<int>(shards.size()); }
  const std::string& fact_table() const { return partitioned_tables.front(); }
  bool IsPartitioned(const std::string& table) const;
};

/// Partition-key column of `table`, or "" when the table is broadcast. The
/// distribution classifier uses this to prove co-partitioned joins
/// shard-local.
std::string HashPartitionKeyColumn(const std::string& table);

/// Shard index of a partition key (exposed for tests and for
/// co-partitioning additional tables). Deterministic splitmix-style
/// finalizer so skewed key ranges still spread evenly.
int ShardOfKey(int64_t key, int num_shards);

/// Splits `db` into `options.num_shards` per-shard databases. The source
/// must outlive the result only through its shared dictionaries (table data
/// is copied). Fails on num_shards < 1.
Result<ShardedDatabase> PartitionDatabase(const tpch::Database& db,
                                          const PartitionOptions& options);

}  // namespace shard
}  // namespace gpl

#endif  // GPL_SHARD_PARTITIONER_H_
