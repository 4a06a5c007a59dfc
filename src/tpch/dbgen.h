#ifndef GPL_TPCH_DBGEN_H_
#define GPL_TPCH_DBGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace gpl {
namespace tpch {

/// Generation parameters. scale_factor follows dbgen semantics (SF 1 ==
/// ~6M lineitem rows); fractional scale factors are supported for fast tests
/// and benches. Generation runs on the host thread pool and is fully
/// deterministic for a given (scale_factor, seed) pair: the output is
/// identical at any host thread count (DESIGN.md decision 4).
struct DbgenConfig {
  double scale_factor = 0.01;
  uint64_t seed = 20160626;  // SIGMOD'16 opening day.
};

/// The eight TPC-H base relations in columnar form.
///
/// Thread-safety: query execution only reads the database (string
/// dictionaries are populated during Generate/LoadTbl, never during
/// execution), so one Database may back any number of concurrent engines —
/// the contract service::QueryService relies on. Do not mutate tables or
/// append dictionary entries while queries are in flight.
struct Database {
  Table region;
  Table nation;
  Table supplier;
  Table customer;
  Table part;
  Table partsupp;
  Table orders;
  Table lineitem;

  /// Lookup by lower-case TPC-H table name; returns nullptr if unknown.
  const Table* ByName(const std::string& name) const;

  /// Total bytes across all base tables.
  int64_t byte_size() const;
};

/// Expected base-table cardinalities for a scale factor (lineitem is
/// approximate: 1..7 lines per order, expectation 4).
struct Cardinalities {
  int64_t supplier = 0;
  int64_t part = 0;
  int64_t partsupp = 0;
  int64_t customer = 0;
  int64_t orders = 0;
  int64_t lineitem_expected = 0;
};
Cardinalities CardinalitiesFor(double scale_factor);

/// Generates the full database. Referentially complete: every foreign key
/// refers to an existing primary key, and (l_partkey, l_suppkey) pairs always
/// exist in partsupp, as required by Q9.
Database Generate(const DbgenConfig& config);

/// p_retailprice for a 1-based part key, per TPC-H clause 4.2.3.
double RetailPrice(int64_t partkey);

}  // namespace tpch
}  // namespace gpl

#endif  // GPL_TPCH_DBGEN_H_
