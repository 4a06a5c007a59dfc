#ifndef GPL_TESTS_TEST_UTIL_H_
#define GPL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/counters.h"
#include "storage/table.h"
#include "tpch/dbgen.h"

namespace gpl {
namespace testing_util {

/// A small shared TPC-H database (SF 0.005), generated once per test binary.
inline const tpch::Database& SmallDb() {
  static const tpch::Database* db = [] {
    tpch::DbgenConfig config;
    config.scale_factor = 0.005;
    config.seed = 20160626;
    return new tpch::Database(tpch::Generate(config));
  }();
  return *db;
}

/// A slightly larger database (SF 0.02) for engine-level tests where tiling
/// and cache effects need some volume.
inline const tpch::Database& MediumDb() {
  static const tpch::Database* db = [] {
    tpch::DbgenConfig config;
    config.scale_factor = 0.02;
    config.seed = 20160626;
    return new tpch::Database(tpch::Generate(config));
  }();
  return *db;
}

/// Percentile over an unsorted sample by linear interpolation between the
/// two order statistics bracketing p/100 * (n-1) (p in [0, 100]): p50 of
/// {1, 2} is 1.5, not either sample. 0 for an empty sample. The exact oracle
/// that the service's and the metrics registry's histogram quantiles are
/// checked against.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Same column names, types and raw buffers (string columns compare their
/// dictionary codes).
inline void ExpectTablesBitIdentical(const Table& expected,
                                     const Table& actual) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (int64_t i = 0; i < expected.num_columns(); ++i) {
    SCOPED_TRACE("column " + expected.ColumnNameAt(i));
    EXPECT_EQ(expected.ColumnNameAt(i), actual.ColumnNameAt(i));
    const Column& e = expected.ColumnAt(i);
    const Column& a = actual.ColumnAt(i);
    ASSERT_EQ(e.type(), a.type());
    EXPECT_TRUE(e.data32() == a.data32());
    EXPECT_TRUE(e.data64() == a.data64());
    EXPECT_TRUE(e.dataf() == a.dataf());
  }
}

/// Exact equality of every simulated hardware counter (all deterministic).
inline void ExpectCountersBitIdentical(const sim::HwCounters& expected,
                                const sim::HwCounters& actual) {
  EXPECT_EQ(expected.elapsed_cycles, actual.elapsed_cycles);
  EXPECT_EQ(expected.compute_cycles, actual.compute_cycles);
  EXPECT_EQ(expected.mem_cycles, actual.mem_cycles);
  EXPECT_EQ(expected.channel_cycles, actual.channel_cycles);
  EXPECT_EQ(expected.stall_cycles, actual.stall_cycles);
  EXPECT_EQ(expected.launch_cycles, actual.launch_cycles);
  EXPECT_EQ(expected.cache_hits, actual.cache_hits);
  EXPECT_EQ(expected.cache_accesses, actual.cache_accesses);
  EXPECT_EQ(expected.resident_wg_time, actual.resident_wg_time);
  EXPECT_EQ(expected.bytes_materialized, actual.bytes_materialized);
  EXPECT_EQ(expected.bytes_via_channel, actual.bytes_via_channel);
}

/// Builds a single-column int32 table for kernel-level tests.
inline Table Int32Table(const std::string& column,
                        const std::vector<int32_t>& values) {
  Column col(DataType::kInt32);
  for (int32_t v : values) col.AppendInt32(v);
  Table t("test");
  GPL_CHECK_OK(t.AddColumn(column, std::move(col)));
  return t;
}

/// Builds a single-column float64 table.
inline Table FloatTable(const std::string& column,
                        const std::vector<double>& values) {
  Column col(DataType::kFloat64);
  for (double v : values) col.AppendDouble(v);
  Table t("test");
  GPL_CHECK_OK(t.AddColumn(column, std::move(col)));
  return t;
}

}  // namespace testing_util
}  // namespace gpl

#endif  // GPL_TESTS_TEST_UTIL_H_
