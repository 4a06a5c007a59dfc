#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <unordered_set>

#include "test_util.h"
#include "tpch/date.h"
#include "tpch/dbgen.h"
#include "tpch/text.h"

namespace gpl {
namespace tpch {
namespace {

using testing_util::SmallDb;

TEST(TextTest, RegionAndNationDomains) {
  EXPECT_STREQ(RegionName(2), "ASIA");
  EXPECT_STREQ(NationName(2), "BRAZIL");
  EXPECT_EQ(NationRegion(2), 1);  // BRAZIL -> AMERICA
  EXPECT_STREQ(NationName(6), "FRANCE");
  EXPECT_EQ(NationRegion(6), 3);  // FRANCE -> EUROPE
  EXPECT_STREQ(NationName(7), "GERMANY");
  EXPECT_EQ(NationRegion(7), 3);
}

TEST(TextTest, PartTypeEnumeratesAllCombinations) {
  std::set<std::string> types;
  for (int i = 0; i < kNumPartTypes; ++i) types.insert(PartType(i));
  EXPECT_EQ(types.size(), static_cast<size_t>(kNumPartTypes));
  EXPECT_EQ(PartType(0), "STANDARD ANODIZED TIN");
  EXPECT_TRUE(types.count("ECONOMY ANODIZED STEEL") > 0);
  // PROMO types are exactly 25 of the 150 (one of six first syllables).
  int promo = 0;
  for (const std::string& t : types) {
    if (t.rfind("PROMO", 0) == 0) ++promo;
  }
  EXPECT_EQ(promo, 25);
}

TEST(TextTest, BrandAndMfgrFormat) {
  EXPECT_EQ(PartMfgr(0), "Manufacturer#1");
  EXPECT_EQ(PartBrand(0), "Brand#11");
  EXPECT_EQ(PartBrand(24), "Brand#55");
}

TEST(CardinalitiesTest, ScaleLinearly) {
  const Cardinalities c1 = CardinalitiesFor(1.0);
  EXPECT_EQ(c1.supplier, 10000);
  EXPECT_EQ(c1.part, 200000);
  EXPECT_EQ(c1.partsupp, 800000);
  EXPECT_EQ(c1.customer, 150000);
  EXPECT_EQ(c1.orders, 1500000);

  const Cardinalities c01 = CardinalitiesFor(0.1);
  EXPECT_EQ(c01.orders, 150000);
}

TEST(DbgenTest, RowCountsMatchCardinalities) {
  const Database& db = SmallDb();
  const Cardinalities c = CardinalitiesFor(0.005);
  EXPECT_EQ(db.region.num_rows(), 5);
  EXPECT_EQ(db.nation.num_rows(), 25);
  EXPECT_EQ(db.supplier.num_rows(), c.supplier);
  EXPECT_EQ(db.customer.num_rows(), c.customer);
  EXPECT_EQ(db.part.num_rows(), c.part);
  EXPECT_EQ(db.partsupp.num_rows(), c.partsupp);
  EXPECT_EQ(db.orders.num_rows(), c.orders);
  // 1..7 lineitems per order, expectation 4.
  EXPECT_GE(db.lineitem.num_rows(), c.orders);
  EXPECT_LE(db.lineitem.num_rows(), c.orders * 7);
  EXPECT_NEAR(static_cast<double>(db.lineitem.num_rows()),
              static_cast<double>(c.lineitem_expected),
              0.1 * static_cast<double>(c.lineitem_expected));
}

TEST(DbgenTest, AllTablesValidate) {
  const Database& db = SmallDb();
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    const Table* t = db.ByName(name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_TRUE(t->Validate().ok()) << name;
    EXPECT_GT(t->num_rows(), 0) << name;
  }
  EXPECT_EQ(db.ByName("nonsense"), nullptr);
}

TEST(DbgenTest, DeterministicForSeed) {
  DbgenConfig config;
  config.scale_factor = 0.002;
  const Database a = Generate(config);
  const Database b = Generate(config);
  ASSERT_EQ(a.lineitem.num_rows(), b.lineitem.num_rows());
  const Column& pa = a.lineitem.GetColumn("l_extendedprice");
  const Column& pb = b.lineitem.GetColumn("l_extendedprice");
  for (int64_t i = 0; i < pa.size(); i += 97) {
    EXPECT_DOUBLE_EQ(pa.DoubleAt(i), pb.DoubleAt(i));
  }
}

TEST(DbgenTest, DifferentSeedsProduceDifferentData) {
  DbgenConfig a_config{0.002, 1};
  DbgenConfig b_config{0.002, 2};
  const Database a = Generate(a_config);
  const Database b = Generate(b_config);
  int differing = 0;
  const Column& ca = a.orders.GetColumn("o_orderdate");
  const Column& cb = b.orders.GetColumn("o_orderdate");
  const int64_t n = std::min(ca.size(), cb.size());
  for (int64_t i = 0; i < n; ++i) {
    if (ca.Int32At(i) != cb.Int32At(i)) ++differing;
  }
  EXPECT_GT(differing, n / 2);
}

TEST(DbgenTest, ForeignKeysReferenceExistingRows) {
  const Database& db = SmallDb();
  const int64_t suppliers = db.supplier.num_rows();
  const int64_t parts = db.part.num_rows();
  const int64_t customers = db.customer.num_rows();
  const int64_t orders = db.orders.num_rows();

  const Column& o_cust = db.orders.GetColumn("o_custkey");
  for (int64_t i = 0; i < o_cust.size(); ++i) {
    ASSERT_GE(o_cust.Int32At(i), 1);
    ASSERT_LE(o_cust.Int32At(i), customers);
  }
  const Column& l_order = db.lineitem.GetColumn("l_orderkey");
  const Column& l_part = db.lineitem.GetColumn("l_partkey");
  const Column& l_supp = db.lineitem.GetColumn("l_suppkey");
  for (int64_t i = 0; i < l_order.size(); ++i) {
    ASSERT_GE(l_order.Int32At(i), 1);
    ASSERT_LE(l_order.Int32At(i), orders);
    ASSERT_GE(l_part.Int32At(i), 1);
    ASSERT_LE(l_part.Int32At(i), parts);
    ASSERT_GE(l_supp.Int32At(i), 1);
    ASSERT_LE(l_supp.Int32At(i), suppliers);
  }
}

TEST(DbgenTest, LineitemPartSuppPairsExistInPartsupp) {
  // Required by Q9's composite join.
  const Database& db = SmallDb();
  std::unordered_set<int64_t> pairs;
  const Column& ps_part = db.partsupp.GetColumn("ps_partkey");
  const Column& ps_supp = db.partsupp.GetColumn("ps_suppkey");
  for (int64_t i = 0; i < ps_part.size(); ++i) {
    pairs.insert((static_cast<int64_t>(ps_part.Int32At(i)) << 32) |
                 ps_supp.Int32At(i));
  }
  const Column& l_part = db.lineitem.GetColumn("l_partkey");
  const Column& l_supp = db.lineitem.GetColumn("l_suppkey");
  for (int64_t i = 0; i < l_part.size(); ++i) {
    ASSERT_TRUE(pairs.count((static_cast<int64_t>(l_part.Int32At(i)) << 32) |
                            l_supp.Int32At(i)) > 0)
        << "lineitem row " << i << " references a missing partsupp pair";
  }
}

TEST(DbgenTest, EveryPartHasFourDistinctSuppliers) {
  const Database& db = SmallDb();
  const Column& ps_part = db.partsupp.GetColumn("ps_partkey");
  const Column& ps_supp = db.partsupp.GetColumn("ps_suppkey");
  ASSERT_EQ(ps_part.size() % 4, 0);
  for (int64_t i = 0; i < ps_part.size(); i += 4) {
    std::set<int32_t> supps;
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(ps_part.Int32At(i + j), ps_part.Int32At(i));
      supps.insert(ps_supp.Int32At(i + j));
    }
    ASSERT_EQ(supps.size(), 4u) << "part " << ps_part.Int32At(i);
  }
}

TEST(DbgenTest, DateDomains) {
  const Database& db = SmallDb();
  const int32_t min_order = date::FromYMD(1992, 1, 1);
  const int32_t max_order = date::FromYMD(1998, 12, 31) - 151;
  const Column& odate = db.orders.GetColumn("o_orderdate");
  for (int64_t i = 0; i < odate.size(); ++i) {
    ASSERT_GE(odate.Int32At(i), min_order);
    ASSERT_LE(odate.Int32At(i), max_order);
  }
  const Column& ship = db.lineitem.GetColumn("l_shipdate");
  const Column& receipt = db.lineitem.GetColumn("l_receiptdate");
  for (int64_t i = 0; i < ship.size(); ++i) {
    ASSERT_GT(receipt.Int32At(i), ship.Int32At(i));
  }
}

TEST(DbgenTest, ValueDomains) {
  const Database& db = SmallDb();
  const Column& qty = db.lineitem.GetColumn("l_quantity");
  const Column& disc = db.lineitem.GetColumn("l_discount");
  const Column& tax = db.lineitem.GetColumn("l_tax");
  for (int64_t i = 0; i < qty.size(); ++i) {
    ASSERT_GE(qty.DoubleAt(i), 1.0);
    ASSERT_LE(qty.DoubleAt(i), 50.0);
    ASSERT_GE(disc.DoubleAt(i), 0.0);
    ASSERT_LE(disc.DoubleAt(i), 0.10 + 1e-9);
    ASSERT_GE(tax.DoubleAt(i), 0.0);
    ASSERT_LE(tax.DoubleAt(i), 0.08 + 1e-9);
  }
}

TEST(DbgenTest, ExtendedPriceFollowsRetailPrice) {
  const Database& db = SmallDb();
  const Column& qty = db.lineitem.GetColumn("l_quantity");
  const Column& price = db.lineitem.GetColumn("l_extendedprice");
  const Column& part = db.lineitem.GetColumn("l_partkey");
  for (int64_t i = 0; i < qty.size(); i += 53) {
    EXPECT_NEAR(price.DoubleAt(i), qty.DoubleAt(i) * RetailPrice(part.Int32At(i)),
                1e-6);
  }
}

TEST(DbgenTest, RetailPriceFormula) {
  EXPECT_DOUBLE_EQ(RetailPrice(1), (90000.0 + 0.0 + 100.0) / 100.0);
  EXPECT_DOUBLE_EQ(RetailPrice(1000), (90000.0 + 100.0 + 0.0) / 100.0);
}

TEST(DbgenTest, SkippedCustomersHaveNoOrders) {
  const Database& db = SmallDb();
  const Column& cust = db.orders.GetColumn("o_custkey");
  for (int64_t i = 0; i < cust.size(); ++i) {
    ASSERT_NE(cust.Int32At(i) % 3, 0) << "customer divisible by 3 has an order";
  }
}

// FNV-1a over every table's name, column names, types, raw buffers and
// dictionary string order: any change to a generated byte changes it.
class Fingerprint {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t DatabaseFingerprint(const Database& db) {
  Fingerprint f;
  for (const Table* t : {&db.region, &db.nation, &db.supplier, &db.customer,
                         &db.part, &db.partsupp, &db.orders, &db.lineitem}) {
    f.Str(t->name());
    f.Int(t->num_columns());
    for (int64_t c = 0; c < t->num_columns(); ++c) {
      const Column& col = t->ColumnAt(c);
      f.Str(t->column_names()[static_cast<size_t>(c)]);
      f.Int(static_cast<int64_t>(col.type()));
      f.Int(col.size());
      VisitValues(col, [&](const auto* values) {
        f.Bytes(values, static_cast<size_t>(col.size()) * sizeof(*values));
      });
      if (col.type() == DataType::kString) {
        const Dictionary& dict = *col.dictionary();
        f.Int(dict.size());
        for (int32_t code = 0; code < dict.size(); ++code) {
          f.Str(dict.GetString(code));
        }
      }
    }
  }
  return f.value();
}

// Pins the generated bytes: dbgen's output is a function of (scale factor,
// seed) only, whatever the host's thread count or the generator's internals.
TEST(DbgenTest, BytesMatchPinnedFingerprint) {
  struct Case {
    double scale_factor;
    uint64_t seed;
    uint64_t fingerprint;
  };
  const Case cases[] = {
      {0.01, DbgenConfig().seed, 0xb191278c2ce00a1dULL},
      {0.05, 20160627, 0x1559077e335a2cdeULL},
      {0.001, 3, 0x4f87a0ee607b30c8ULL},
  };
  for (const Case& c : cases) {
    const Database db = Generate(DbgenConfig{c.scale_factor, c.seed});
    EXPECT_EQ(DatabaseFingerprint(db), c.fingerprint)
        << "SF " << c.scale_factor << " seed " << c.seed;
  }
}

class DbgenScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(DbgenScaleTest, CardinalitiesTrackScaleFactor) {
  DbgenConfig config;
  config.scale_factor = GetParam();
  const Database db = Generate(config);
  const Cardinalities c = CardinalitiesFor(GetParam());
  EXPECT_EQ(db.orders.num_rows(), c.orders);
  EXPECT_EQ(db.part.num_rows(), c.part);
  EXPECT_EQ(db.nation.num_rows(), 25);
}

INSTANTIATE_TEST_SUITE_P(Scales, DbgenScaleTest,
                         ::testing::Values(0.001, 0.005, 0.02));

}  // namespace
}  // namespace tpch
}  // namespace gpl
