#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/table.h"

namespace gpl {
namespace {

TEST(DictionaryTest, InsertAssignsDenseCodes) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrInsert("ASIA"), 0);
  EXPECT_EQ(dict.GetOrInsert("EUROPE"), 1);
  EXPECT_EQ(dict.GetOrInsert("ASIA"), 0);  // idempotent
  EXPECT_EQ(dict.size(), 2);
}

TEST(DictionaryTest, LookupMissingReturnsMinusOne) {
  Dictionary dict;
  dict.GetOrInsert("ASIA");
  EXPECT_EQ(dict.Lookup("ASIA"), 0);
  EXPECT_EQ(dict.Lookup("MARS"), -1);
}

TEST(DictionaryTest, GetStringRoundTrips) {
  Dictionary dict;
  const int32_t code = dict.GetOrInsert("MIDDLE EAST");
  EXPECT_EQ(dict.GetString(code), "MIDDLE EAST");
}

TEST(ColumnTest, Int32AppendAndRead) {
  Column c(DataType::kInt32);
  c.AppendInt32(7);
  c.AppendInt32(-3);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.Int32At(0), 7);
  EXPECT_EQ(c.Int32At(1), -3);
  EXPECT_EQ(c.byte_size(), 8);
}

TEST(ColumnTest, TypeWidths) {
  EXPECT_EQ(TypeWidth(DataType::kInt32), 4);
  EXPECT_EQ(TypeWidth(DataType::kDate), 4);
  EXPECT_EQ(TypeWidth(DataType::kString), 4);
  EXPECT_EQ(TypeWidth(DataType::kInt64), 8);
  EXPECT_EQ(TypeWidth(DataType::kFloat64), 8);
}

TEST(ColumnTest, StringColumnUsesDictionary) {
  Column c(DataType::kString);
  c.AppendString("AIR");
  c.AppendString("RAIL");
  c.AppendString("AIR");
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.StringAt(0), "AIR");
  EXPECT_EQ(c.StringAt(2), "AIR");
  EXPECT_EQ(c.Int32At(0), c.Int32At(2));
  EXPECT_EQ(c.dictionary()->size(), 2);
}

TEST(ColumnTest, AsDoubleWidensEveryType) {
  Column i(DataType::kInt32);
  i.AppendInt32(5);
  EXPECT_DOUBLE_EQ(i.AsDouble(0), 5.0);

  Column l(DataType::kInt64);
  l.AppendInt64(1LL << 40);
  EXPECT_DOUBLE_EQ(l.AsDouble(0), static_cast<double>(1LL << 40));

  Column f(DataType::kFloat64);
  f.AppendDouble(2.5);
  EXPECT_DOUBLE_EQ(f.AsDouble(0), 2.5);
  EXPECT_EQ(f.AsInt64(0), 2);
}

TEST(ColumnTest, GatherSelectsAndReorders) {
  Column c(DataType::kInt32);
  for (int i = 0; i < 5; ++i) c.AppendInt32(i * 10);
  Column g = c.Gather({4, 0, 2});
  ASSERT_EQ(g.size(), 3);
  EXPECT_EQ(g.Int32At(0), 40);
  EXPECT_EQ(g.Int32At(1), 0);
  EXPECT_EQ(g.Int32At(2), 20);
}

TEST(ColumnTest, GatherPreservesDictionary) {
  Column c(DataType::kString);
  c.AppendString("A");
  c.AppendString("B");
  Column g = c.Gather({1});
  EXPECT_EQ(g.dictionary().get(), c.dictionary().get());
  EXPECT_EQ(g.StringAt(0), "B");
}

TEST(ColumnTest, SliceTakesRange) {
  Column c(DataType::kFloat64);
  for (int i = 0; i < 10; ++i) c.AppendDouble(i);
  Column s = c.Slice(3, 4);
  ASSERT_EQ(s.size(), 4);
  EXPECT_DOUBLE_EQ(s.DoubleAt(0), 3.0);
  EXPECT_DOUBLE_EQ(s.DoubleAt(3), 6.0);
}

TEST(ColumnDeathTest, SliceOutOfRangeAborts) {
  Column c(DataType::kInt32);
  c.AppendInt32(1);
  EXPECT_DEATH(c.Slice(0, 2), "slice out of range");
}

TEST(ColumnTest, AppendColumnConcatenates) {
  Column a(DataType::kInt32), b(DataType::kInt32);
  a.AppendInt32(1);
  b.AppendInt32(2);
  ASSERT_TRUE(a.AppendColumn(b).ok());
  ASSERT_EQ(a.size(), 2);
  EXPECT_EQ(a.Int32At(1), 2);
}

TEST(ColumnTest, AppendColumnRejectsTypeMismatch) {
  Column a(DataType::kInt32), b(DataType::kFloat64);
  EXPECT_FALSE(a.AppendColumn(b).ok());
}

TEST(ColumnTest, AppendColumnRejectsForeignDictionary) {
  Column a(DataType::kString), b(DataType::kString);
  a.AppendString("X");
  b.AppendString("X");
  EXPECT_FALSE(a.AppendColumn(b).ok());  // distinct dictionaries
}

// ---- Copy-on-write buffers ----

Column Int32Column(std::initializer_list<int32_t> values) {
  Column c(DataType::kInt32);
  for (int32_t v : values) c.AppendInt32(v);
  return c;
}

TEST(ColumnCowTest, CopySharesBuffer) {
  const Column a = Int32Column({1, 2, 3});
  const Column b = a;
  EXPECT_EQ(b.data32().data(), a.data32().data());
  Table t("t");
  GPL_CHECK_OK(t.AddColumn("x", a));
  const Table copy = t;
  EXPECT_EQ(copy.GetColumn("x").data32().data(), a.data32().data());
}

TEST(ColumnCowTest, AppendDetachesAndLeavesOtherCopyUnchanged) {
  const Column a = Int32Column({1, 2, 3});
  Column b = a;
  b.AppendInt32(4);
  EXPECT_NE(b.data32().data(), a.data32().data());
  EXPECT_EQ(a.data32(), (std::vector<int32_t>{1, 2, 3}));
  EXPECT_EQ(b.data32(), (std::vector<int32_t>{1, 2, 3, 4}));

  Column s(DataType::kString);
  s.AppendString("AIR");
  const Column s_copy = s;
  s.AppendString("RAIL");
  EXPECT_EQ(s_copy.size(), 1);
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(s.StringAt(1), "RAIL");

  Column l(DataType::kInt64);
  l.AppendInt64(7);
  const Column l_copy = l;
  l.AppendInt64(8);
  EXPECT_EQ(l_copy.data64(), (std::vector<int64_t>{7}));

  Column f(DataType::kFloat64);
  f.AppendDouble(0.5);
  const Column f_copy = f;
  f.AppendDouble(1.5);
  EXPECT_EQ(f_copy.dataf(), (std::vector<double>{0.5}));
}

TEST(ColumnCowTest, ReserveDetaches) {
  const Column a = Int32Column({1, 2, 3});
  Column b = a;
  b.Reserve(1000);
  EXPECT_NE(b.data32().data(), a.data32().data());
  EXPECT_GE(b.data32().capacity(), 1000u);
  EXPECT_EQ(b.data32(), a.data32());
}

TEST(ColumnCowTest, MutableAccessorDetaches) {
  const Column a = Int32Column({1, 2, 3});
  Column b = a;
  b.data32()[0] = 9;
  EXPECT_EQ(a.data32(), (std::vector<int32_t>{1, 2, 3}));
  EXPECT_EQ(b.data32(), (std::vector<int32_t>{9, 2, 3}));

  Column f(DataType::kFloat64);
  f.AppendDouble(1.0);
  Column g = f;
  g.dataf()[0] = 2.0;
  EXPECT_DOUBLE_EQ(f.DoubleAt(0), 1.0);
  EXPECT_DOUBLE_EQ(g.DoubleAt(0), 2.0);

  Column l(DataType::kInt64);
  l.AppendInt64(1);
  Column m = l;
  m.data64()[0] = 2;
  EXPECT_EQ(l.Int64At(0), 1);
  EXPECT_EQ(m.Int64At(0), 2);
}

TEST(ColumnCowTest, MutableAccessorOnSoleOwnerWritesInPlace) {
  Column a = Int32Column({1, 2, 3});
  const int32_t* before = a.data32().data();
  a.data32()[1] = 5;
  EXPECT_EQ(a.data32().data(), before);
  EXPECT_EQ(a.Int32At(1), 5);
}

TEST(ColumnCowTest, AppendColumnDetachesAndLeavesOtherCopyUnchanged) {
  const Column a = Int32Column({1, 2});
  Column b = a;
  ASSERT_TRUE(b.AppendColumn(Int32Column({3})).ok());
  EXPECT_EQ(a.data32(), (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(b.data32(), (std::vector<int32_t>{1, 2, 3}));

  // Appending a shared column to itself's copy must not disturb the source.
  Column c = a;
  ASSERT_TRUE(c.AppendColumn(a).ok());
  EXPECT_EQ(a.data32(), (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(c.data32(), (std::vector<int32_t>{1, 2, 1, 2}));
}

TEST(ColumnCowTest, AppendColumnOntoEmptyShares) {
  const Column a = Int32Column({1, 2, 3});
  Column empty(DataType::kInt32);
  ASSERT_TRUE(empty.AppendColumn(a).ok());
  EXPECT_EQ(std::as_const(empty).data32().data(), a.data32().data());
  empty.AppendInt32(4);  // then detaches like any copy
  EXPECT_EQ(a.size(), 3);
  EXPECT_EQ(empty.size(), 4);

  Table t("t");
  GPL_CHECK_OK(t.AddColumn("x", Column(DataType::kInt32)));
  Table src("t");
  GPL_CHECK_OK(src.AddColumn("x", a));
  ASSERT_TRUE(t.AppendTable(src).ok());
  EXPECT_EQ(t.GetColumn("x").data32().data(), a.data32().data());
}

TEST(ColumnCowTest, FullSliceSharesPartialSliceOwns) {
  const Column a = Int32Column({1, 2, 3, 4});
  const Column full = a.Slice(0, a.size());
  EXPECT_EQ(full.data32().data(), a.data32().data());

  Column part = a.Slice(1, 2);
  EXPECT_NE(part.data32().data(), a.data32().data());
  EXPECT_EQ(part.data32(), (std::vector<int32_t>{2, 3}));
  // Owned: writing in place neither copies nor reaches the source.
  const int32_t* before = part.data32().data();
  part.data32()[0] = 7;
  EXPECT_EQ(part.data32().data(), before);
  EXPECT_EQ(a.Int32At(1), 2);

  Table t("t");
  GPL_CHECK_OK(t.AddColumn("key", a));
  const Table whole = t.Slice(0, t.num_rows());
  EXPECT_EQ(whole.GetColumn("key").data32().data(),
            t.GetColumn("key").data32().data());
}

TEST(ColumnCowTest, EmptyColumnReadsEmptyForEveryBuffer) {
  const Column a(DataType::kInt64);
  EXPECT_EQ(a.size(), 0);
  EXPECT_TRUE(a.data32().empty());
  EXPECT_TRUE(a.data64().empty());
  EXPECT_TRUE(a.dataf().empty());
  const Column full = a.Slice(0, 0);
  EXPECT_EQ(full.size(), 0);
}

TEST(ColumnCowTest, ConcurrentCopiesReadSharedAndMutateOwn) {
  Column shared(DataType::kInt64);
  constexpr int kRows = 4096;
  for (int i = 0; i < kRows; ++i) shared.AppendInt64(i);
  const Column& source = shared;
  constexpr int kThreads = 8;
  std::vector<int64_t> sums(kThreads, 0);
  std::vector<int64_t> own_last(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        Column mine = source;  // shares the buffer
        int64_t sum = 0;
        for (int64_t v : source.data64()) sum += v;
        for (int64_t v : mine.data64()) sum += v;
        sums[static_cast<size_t>(t)] = sum;
        mine.AppendInt64(t);  // detaches
        mine.data64()[0] = -t;
        own_last[static_cast<size_t>(t)] = mine.Int64At(kRows) + mine.Int64At(0);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const int64_t expected_sum = 2 * (int64_t{kRows} * (kRows - 1) / 2);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[static_cast<size_t>(t)], expected_sum);
    EXPECT_EQ(own_last[static_cast<size_t>(t)], 0);  // t + (-t)
  }
  ASSERT_EQ(shared.size(), kRows);
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(shared.Int64At(i), i);
}

Table MakeTestTable() {
  Table t("orders_mini");
  Column key(DataType::kInt32), price(DataType::kFloat64);
  for (int i = 0; i < 6; ++i) {
    key.AppendInt32(i);
    price.AppendDouble(100.0 * i);
  }
  GPL_CHECK_OK(t.AddColumn("key", std::move(key)));
  GPL_CHECK_OK(t.AddColumn("price", std::move(price)));
  return t;
}

TEST(TableTest, BasicShape) {
  Table t = MakeTestTable();
  EXPECT_EQ(t.num_rows(), 6);
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.row_width(), 12);
  EXPECT_EQ(t.byte_size(), 6 * 4 + 6 * 8);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t = MakeTestTable();
  EXPECT_EQ(t.AddColumn("key", Column(DataType::kInt32)).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, ColumnLookup) {
  Table t = MakeTestTable();
  EXPECT_TRUE(t.HasColumn("price"));
  EXPECT_FALSE(t.HasColumn("ghost"));
  EXPECT_EQ(t.ColumnIndex("price"), 1);
  EXPECT_EQ(t.ColumnIndex("ghost"), -1);
  EXPECT_DOUBLE_EQ(t.GetColumn("price").DoubleAt(2), 200.0);
}

TEST(TableDeathTest, MissingColumnAborts) {
  Table t = MakeTestTable();
  EXPECT_DEATH(t.GetColumn("ghost"), "no such column");
}

TEST(TableTest, SliceAllColumns) {
  Table t = MakeTestTable();
  Table s = t.Slice(2, 3);
  EXPECT_EQ(s.num_rows(), 3);
  EXPECT_EQ(s.GetColumn("key").Int32At(0), 2);
  EXPECT_DOUBLE_EQ(s.GetColumn("price").DoubleAt(2), 400.0);
}

TEST(TableTest, GatherAllColumns) {
  Table t = MakeTestTable();
  Table g = t.Gather({5, 1});
  EXPECT_EQ(g.num_rows(), 2);
  EXPECT_EQ(g.GetColumn("key").Int32At(0), 5);
  EXPECT_DOUBLE_EQ(g.GetColumn("price").DoubleAt(1), 100.0);
}

TEST(TableTest, AppendTableSameSchema) {
  Table a = MakeTestTable();
  Table b = MakeTestTable();
  ASSERT_TRUE(a.AppendTable(b).ok());
  EXPECT_EQ(a.num_rows(), 12);
  EXPECT_TRUE(a.Validate().ok());
}

TEST(TableTest, AppendTableRejectsSchemaMismatch) {
  Table a = MakeTestTable();
  Table b("other");
  GPL_CHECK_OK(b.AddColumn("key", Column(DataType::kInt32)));
  EXPECT_FALSE(a.AppendTable(b).ok());
}

TEST(TableTest, ValidateDetectsRaggedColumns) {
  Table t("ragged");
  Column a(DataType::kInt32), b(DataType::kInt32);
  a.AppendInt32(1);
  GPL_CHECK_OK(t.AddColumn("a", std::move(a)));
  GPL_CHECK_OK(t.AddColumn("b", std::move(b)));
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, ToStringRendersHeaderAndRows) {
  Table t = MakeTestTable();
  const std::string s = t.ToString(2);
  EXPECT_NE(s.find("orders_mini"), std::string::npos);
  EXPECT_NE(s.find("key | price"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

}  // namespace
}  // namespace gpl
