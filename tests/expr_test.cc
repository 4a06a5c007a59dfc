#include <gtest/gtest.h>

#include "exec/expr.h"
#include "test_util.h"
#include "tpch/date.h"

namespace gpl {
namespace {

using testing_util::FloatTable;
using testing_util::Int32Table;

Table MixedTable() {
  Table t("t");
  Column i(DataType::kInt32), f(DataType::kFloat64), d(DataType::kDate),
      s(DataType::kString);
  const int32_t base = date::FromYMD(1995, 1, 1);
  for (int r = 0; r < 5; ++r) {
    i.AppendInt32(r);
    f.AppendDouble(r * 1.5);
    d.AppendInt32(base + r * 100);
    s.AppendString(r % 2 == 0 ? "FRANCE" : "GERMANY");
  }
  GPL_CHECK_OK(t.AddColumn("i", std::move(i)));
  GPL_CHECK_OK(t.AddColumn("f", std::move(f)));
  GPL_CHECK_OK(t.AddColumn("d", std::move(d)));
  GPL_CHECK_OK(t.AddColumn("s", std::move(s)));
  return t;
}

TEST(ExprTest, ColumnRefReturnsColumn) {
  Table t = MixedTable();
  Column c = Col("i")->Evaluate(t);
  EXPECT_EQ(c.type(), DataType::kInt32);
  EXPECT_EQ(c.Int32At(3), 3);
  std::string name;
  EXPECT_TRUE(Col("i")->IsColumnRef(&name));
  EXPECT_EQ(name, "i");
}

TEST(ExprTest, LiteralsBroadcast) {
  Table t = MixedTable();
  Column c = LitInt(7)->Evaluate(t);
  ASSERT_EQ(c.size(), t.num_rows());
  EXPECT_EQ(c.Int64At(4), 7);
  Column f = LitFloat(0.5)->Evaluate(t);
  EXPECT_DOUBLE_EQ(f.DoubleAt(0), 0.5);
  double v = 0;
  EXPECT_TRUE(LitInt(7)->IsLiteral(&v));
  EXPECT_DOUBLE_EQ(v, 7.0);
  EXPECT_FALSE(LitString("x")->IsLiteral(&v));
}

TEST(ExprTest, ArithmeticIntAndFloat) {
  Table t = MixedTable();
  Column sum = Add(Col("i"), LitInt(10))->Evaluate(t);
  EXPECT_EQ(sum.type(), DataType::kInt64);
  EXPECT_EQ(sum.Int64At(2), 12);

  Column prod = Mul(Col("f"), LitFloat(2.0))->Evaluate(t);
  EXPECT_EQ(prod.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(prod.DoubleAt(3), 9.0);

  Column mixed = Sub(LitInt(1), Col("f"))->Evaluate(t);
  EXPECT_EQ(mixed.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(mixed.DoubleAt(2), 1.0 - 3.0);
}

TEST(ExprTest, DivisionByZeroYieldsZero) {
  Table t = MixedTable();
  Column q = Div(Col("f"), LitFloat(0.0))->Evaluate(t);
  EXPECT_DOUBLE_EQ(q.DoubleAt(1), 0.0);
  Column qi = Div(Col("i"), LitInt(0))->Evaluate(t);
  EXPECT_EQ(qi.Int64At(1), 0);
  // Row by row, where only some divisors are zero (i = 0..4, f = 0..6).
  Column ri = Div(LitInt(12), Col("i"))->Evaluate(t);
  EXPECT_EQ(ri.data64(), (std::vector<int64_t>{0, 12, 6, 4, 3}));
  Column rf = Div(LitFloat(3.0), Col("f"))->Evaluate(t);
  EXPECT_EQ(rf.dataf(), (std::vector<double>{0.0, 2.0, 1.0, 3.0 / 4.5, 0.5}));
}

TEST(ExprTest, Comparisons) {
  Table t = MixedTable();
  Column lt = Lt(Col("i"), LitInt(2))->Evaluate(t);
  EXPECT_EQ(lt.type(), DataType::kInt32);
  EXPECT_EQ(lt.Int32At(0), 1);
  EXPECT_EQ(lt.Int32At(1), 1);
  EXPECT_EQ(lt.Int32At(2), 0);

  Column ge = Ge(Col("f"), LitFloat(3.0))->Evaluate(t);
  EXPECT_EQ(ge.Int32At(1), 0);
  EXPECT_EQ(ge.Int32At(2), 1);

  Column eq = Eq(Col("i"), LitInt(3))->Evaluate(t);
  EXPECT_EQ(eq.Int32At(3), 1);
  EXPECT_EQ(eq.Int32At(2), 0);

  Column ne = Ne(Col("i"), LitInt(3))->Evaluate(t);
  EXPECT_EQ(ne.Int32At(3), 0);

  Column le = Le(Col("i"), LitInt(0))->Evaluate(t);
  EXPECT_EQ(le.Int32At(0), 1);
  EXPECT_EQ(le.Int32At(1), 0);

  Column gt = Gt(Col("i"), LitInt(3))->Evaluate(t);
  EXPECT_EQ(gt.Int32At(4), 1);
  EXPECT_EQ(gt.Int32At(3), 0);
}

TEST(ExprTest, DateComparison) {
  Table t = MixedTable();
  Column c = Lt(Col("d"), LitDate("1995-06-01"))->Evaluate(t);
  // Rows 0 (Jan 1) and 1 (Apr 11) are before June.
  EXPECT_EQ(c.Int32At(0), 1);
  EXPECT_EQ(c.Int32At(1), 1);
  EXPECT_EQ(c.Int32At(2), 0);
}

TEST(ExprTest, StringEqualityViaDictionary) {
  Table t = MixedTable();
  Column eq = Eq(Col("s"), LitString("FRANCE"))->Evaluate(t);
  EXPECT_EQ(eq.Int32At(0), 1);
  EXPECT_EQ(eq.Int32At(1), 0);
  Column ne = Ne(Col("s"), LitString("FRANCE"))->Evaluate(t);
  EXPECT_EQ(ne.Int32At(0), 0);
  EXPECT_EQ(ne.Int32At(1), 1);
  // Literal on the left also works.
  Column eq2 = Eq(LitString("GERMANY"), Col("s"))->Evaluate(t);
  EXPECT_EQ(eq2.Int32At(1), 1);
}

TEST(ExprTest, UnknownStringMatchesNothing) {
  Table t = MixedTable();
  Column eq = Eq(Col("s"), LitString("ATLANTIS"))->Evaluate(t);
  for (int64_t i = 0; i < eq.size(); ++i) EXPECT_EQ(eq.Int32At(i), 0);
}

TEST(ExprTest, LogicalOps) {
  Table t = MixedTable();
  ExprPtr a = Lt(Col("i"), LitInt(3));   // 1 1 1 0 0
  ExprPtr b = Gt(Col("i"), LitInt(1));   // 0 0 1 1 1
  Column land = And(a, b)->Evaluate(t);  // 0 0 1 0 0
  EXPECT_EQ(land.Int32At(2), 1);
  EXPECT_EQ(land.Int32At(0), 0);
  Column lor = Or(a, b)->Evaluate(t);  // 1 1 1 1 1
  for (int64_t i = 0; i < lor.size(); ++i) EXPECT_EQ(lor.Int32At(i), 1);
  Column lnot = Not(a)->Evaluate(t);  // 0 0 0 1 1
  EXPECT_EQ(lnot.Int32At(0), 0);
  EXPECT_EQ(lnot.Int32At(4), 1);
}

TEST(ExprTest, YearOf) {
  Table t = MixedTable();
  Column y = YearOf(Col("d"))->Evaluate(t);
  EXPECT_EQ(y.type(), DataType::kInt32);
  EXPECT_EQ(y.Int32At(0), 1995);
  EXPECT_EQ(y.Int32At(4), 1996);  // 1995-01-01 + 400 days
}

TEST(ExprTest, CaseWhen) {
  Table t = MixedTable();
  Column c = CaseWhen(Eq(Col("s"), LitString("FRANCE")), Col("f"),
                      LitFloat(0.0))
                 ->Evaluate(t);
  EXPECT_DOUBLE_EQ(c.DoubleAt(0), 0.0);
  EXPECT_DOUBLE_EQ(c.DoubleAt(2), 3.0);
  EXPECT_DOUBLE_EQ(c.DoubleAt(1), 0.0);
}

TEST(ExprTest, LiteralOperandsNeedNoColumn) {
  // Literal-only operands are read as scalars; the result still has one row
  // per input row, typed as if the literals were broadcast.
  Table t = MixedTable();
  Column sum = Add(LitInt(2), LitFloat(0.5))->Evaluate(t);
  ASSERT_EQ(sum.size(), t.num_rows());
  EXPECT_EQ(sum.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(sum.DoubleAt(4), 2.5);
  Column lt = Lt(LitInt(3), Col("i"))->Evaluate(t);  // literal on the left
  EXPECT_EQ(lt.Int32At(3), 0);
  EXPECT_EQ(lt.Int32At(4), 1);
  Column before = Gt(LitDate("1995-06-01"), Col("d"))->Evaluate(t);
  EXPECT_EQ(before.Int32At(1), 1);
  EXPECT_EQ(before.Int32At(2), 0);
  Column no = Not(LitInt(0))->Evaluate(t);
  ASSERT_EQ(no.size(), t.num_rows());
  EXPECT_EQ(no.Int32At(0), 1);
}

TEST(ExprTest, MixedInt32AndInt64OperandsComputeInInt64) {
  Table t = MixedTable();
  Column big(DataType::kInt64);
  for (int r = 0; r < 5; ++r) big.AppendInt64(int64_t{3000000000} + r);
  GPL_CHECK_OK(t.AddColumn("big", std::move(big)));
  Column sum = Add(Col("i"), Col("big"))->Evaluate(t);
  EXPECT_EQ(sum.type(), DataType::kInt64);
  EXPECT_EQ(sum.Int64At(2), int64_t{3000000004});
  Column prod = Mul(Col("big"), Col("i"))->Evaluate(t);
  EXPECT_EQ(prod.Int64At(3), int64_t{9000000009});
  Column lt = Lt(Col("i"), Col("big"))->Evaluate(t);
  EXPECT_EQ(lt.Int32At(0), 1);
  Column q = Div(Col("big"), Sub(Col("i"), LitInt(2)))->Evaluate(t);
  EXPECT_EQ(q.Int64At(2), 0);  // divisor 0
  EXPECT_EQ(q.Int64At(3), int64_t{3000000003});
}

TEST(ExprTest, FloatConditionsTruncateTowardZero) {
  // AND/OR/NOT/CASE read a float condition as static_cast<int64_t>: 0.5 and
  // -0.9 are false, 1.0 and -1.5 are true.
  Table t = testing_util::FloatTable("c", {0.5, -0.9, 1.0, -1.5, 0.0});
  Column n = Not(Col("c"))->Evaluate(t);
  EXPECT_EQ(n.data32(), (std::vector<int32_t>{1, 1, 0, 0, 1}));
  Column a = And(Col("c"), LitInt(1))->Evaluate(t);
  EXPECT_EQ(a.data32(), (std::vector<int32_t>{0, 0, 1, 1, 0}));
  Column o = Or(LitFloat(0.75), Col("c"))->Evaluate(t);
  EXPECT_EQ(o.data32(), (std::vector<int32_t>{0, 0, 1, 1, 0}));
  Column c = CaseWhen(Col("c"), LitInt(7), LitInt(-7))->Evaluate(t);
  EXPECT_EQ(c.type(), DataType::kInt64);
  EXPECT_EQ(c.data64(), (std::vector<int64_t>{-7, -7, 7, 7, -7}));
  Column cf = CaseWhen(Col("c"), Col("c"), LitInt(2))->Evaluate(t);
  EXPECT_EQ(cf.type(), DataType::kFloat64);
  EXPECT_EQ(cf.dataf(), (std::vector<double>{2.0, 2.0, 1.0, -1.5, 2.0}));
}

TEST(ExprTest, InRangeIsHalfOpen) {
  Table t = MixedTable();
  Column c = InRange(Col("i"), LitInt(1), LitInt(3))->Evaluate(t);
  EXPECT_EQ(c.Int32At(0), 0);
  EXPECT_EQ(c.Int32At(1), 1);
  EXPECT_EQ(c.Int32At(2), 1);
  EXPECT_EQ(c.Int32At(3), 0);
}

TEST(ExprTest, StrStartsWith) {
  Column s(DataType::kString);
  s.AppendString("PROMO PLATED TIN");
  s.AppendString("STANDARD BRUSHED STEEL");
  s.AppendString("PROMO ANODIZED BRASS");
  Table t("t");
  GPL_CHECK_OK(t.AddColumn("p_type", std::move(s)));
  Column c = StrStartsWith(Col("p_type"), "PROMO")->Evaluate(t);
  EXPECT_EQ(c.Int32At(0), 1);
  EXPECT_EQ(c.Int32At(1), 0);
  EXPECT_EQ(c.Int32At(2), 1);
}

TEST(ExprTest, ToStringReadable) {
  const ExprPtr e = And(Ge(Col("x"), LitInt(1)), Lt(Col("x"), LitInt(5)));
  EXPECT_EQ(e->ToString(), "((x >= 1) AND (x < 5))");
  EXPECT_EQ(YearOf(Col("d"))->ToString(), "YEAR(d)");
  EXPECT_NE(LitDate("1994-01-01")->ToString().find("1994-01-01"),
            std::string::npos);
}

TEST(ExprTest, CollectColumnRefs) {
  const ExprPtr e =
      CaseWhen(Eq(Col("a"), LitString("X")), Mul(Col("b"), Col("c")), Col("d"));
  std::vector<std::string> refs;
  e->CollectColumnRefs(&refs);
  EXPECT_EQ(refs, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(ExprTest, CostPerRowGrowsWithComplexity) {
  const double simple = Col("x")->CostPerRow();
  const double cmp = Lt(Col("x"), LitInt(5))->CostPerRow();
  const double complex_expr =
      Mul(Col("x"), Sub(LitInt(1), Col("y")))->CostPerRow();
  EXPECT_LT(simple, cmp);
  EXPECT_LT(cmp, complex_expr + 1.0);
  EXPECT_GT(complex_expr, 1.0);
}

// ---- Selectivity estimation ----

class FakeStats : public StatsProvider {
 public:
  bool GetColumnStats(const std::string& column, double* min_value,
                      double* max_value, int64_t* num_distinct) const override {
    if (column != "x") return false;
    *min_value = 0.0;
    *max_value = 100.0;
    *num_distinct = 50;
    return true;
  }
};

TEST(SelectivityTest, EqualityUsesNdv) {
  FakeStats stats;
  EXPECT_NEAR(Eq(Col("x"), LitInt(7))->EstimateSelectivity(stats), 1.0 / 50, 1e-9);
  EXPECT_NEAR(Ne(Col("x"), LitInt(7))->EstimateSelectivity(stats), 49.0 / 50,
              1e-9);
}

TEST(SelectivityTest, RangeInterpolates) {
  FakeStats stats;
  EXPECT_NEAR(Lt(Col("x"), LitInt(25))->EstimateSelectivity(stats), 0.25, 1e-9);
  EXPECT_NEAR(Ge(Col("x"), LitInt(25))->EstimateSelectivity(stats), 0.75, 1e-9);
  // Literal on the left flips the direction.
  EXPECT_NEAR(Gt(LitInt(25), Col("x"))->EstimateSelectivity(stats), 0.25, 1e-9);
}

TEST(SelectivityTest, SameColumnRangeUsesIntervalWidth) {
  FakeStats stats;
  // P(x >= 10) = 0.9 and P(x < 60) = 0.6 on the same column: the interval
  // covers 0.9 + 0.6 - 1 = 0.5 of the domain, not the 0.54 product.
  const ExprPtr range = InRange(Col("x"), LitInt(10), LitInt(60));
  EXPECT_NEAR(range->EstimateSelectivity(stats), 0.5, 1e-9);
}

TEST(SelectivityTest, IndependentConjunctsMultiply) {
  FakeStats stats;
  // "y" is unknown to the stats provider (default 0.33), "x" interpolates.
  const ExprPtr both = And(Lt(Col("x"), LitInt(25)), Lt(Col("y"), LitInt(5)));
  EXPECT_NEAR(both->EstimateSelectivity(stats), 0.25 * 0.33, 1e-9);
}

TEST(SelectivityTest, DisjunctionInclusionExclusion) {
  FakeStats stats;
  const ExprPtr either =
      Or(Lt(Col("x"), LitInt(20)), Ge(Col("x"), LitInt(80)));
  EXPECT_NEAR(either->EstimateSelectivity(stats), 0.2 + 0.2 - 0.04, 1e-9);
}

TEST(SelectivityTest, NotComplements) {
  FakeStats stats;
  EXPECT_NEAR(Not(Lt(Col("x"), LitInt(25)))->EstimateSelectivity(stats), 0.75,
              1e-9);
}

TEST(SelectivityTest, UnknownColumnUsesDefault) {
  FakeStats stats;
  const double s = Lt(Col("unknown"), LitInt(5))->EstimateSelectivity(stats);
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 1.0);
}

}  // namespace
}  // namespace gpl
