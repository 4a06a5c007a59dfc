// Property test: random expression trees evaluated column-at-a-time by the
// library must agree with a straightforward row-at-a-time interpreter
// written independently here.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/expr.h"
#include "test_util.h"
#include "tpch/date.h"

namespace gpl {
namespace {

/// The fuzz table's columns: int32 "i", float64 "f", int64 "l", date "d"
/// and dictionary-encoded string "s" (its code is its numeric value).
const char* const kStrings[] = {"AIR", "MAIL", "SHIP", "RAIL"};

/// One row of the fuzz table, as the interpreter reads it.
struct RowValues {
  int32_t i = 0;
  double f = 0.0;
  int64_t l = 0;
  int32_t d = 0;
  int32_t s_code = 0;
  std::string s;
};

/// The library's truth value: a float truncates toward zero first.
bool Truth(double v) { return static_cast<int64_t>(v) != 0; }

/// A miniature row-wise interpreter over the same expression shapes the
/// fuzzer generates. Kept deliberately naive.
struct RowExpr {
  enum Kind {
    kColI,
    kColF,
    kColL,
    kColD,
    kColS,
    kLitI,
    kLitF,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kLt,
    kGe,
    kEq,
    kStrEq,
    kAnd,
    kOr,
    kNot,
    kCase
  };
  Kind kind;
  int64_t lit_int = 0;
  double lit_float = 0.0;
  std::string lit_str;
  std::unique_ptr<RowExpr> a, b, c;

  // Returns the value as double; integer context truncates consistently with
  // the library (int64 arithmetic when neither side is float).
  double Eval(const RowValues& row, bool* is_float) const {
    bool fa = false, fb = false, fc = false;
    switch (kind) {
      case kColI:
        *is_float = false;
        return static_cast<double>(row.i);
      case kColF:
        *is_float = true;
        return row.f;
      case kColL:
        *is_float = false;
        return static_cast<double>(row.l);
      case kColD:
        *is_float = false;
        return static_cast<double>(row.d);
      case kColS:
        *is_float = false;
        return static_cast<double>(row.s_code);
      case kLitI:
        *is_float = false;
        return static_cast<double>(lit_int);
      case kLitF:
        *is_float = true;
        return lit_float;
      case kAdd:
      case kSub:
      case kMul:
      case kDiv: {
        const double va = a->Eval(row, &fa);
        const double vb = b->Eval(row, &fb);
        *is_float = fa || fb;
        if (kind == kDiv) {
          if (*is_float) return vb == 0.0 ? 0.0 : va / vb;
          const int64_t ia = static_cast<int64_t>(va);
          const int64_t ib = static_cast<int64_t>(vb);
          return static_cast<double>(ib == 0 ? 0 : ia / ib);
        }
        double r = kind == kAdd ? va + vb : (kind == kSub ? va - vb : va * vb);
        if (!*is_float) r = static_cast<double>(static_cast<int64_t>(r));
        return r;
      }
      case kLt:
      case kGe:
      case kEq: {
        const double va = a->Eval(row, &fa);
        const double vb = b->Eval(row, &fb);
        *is_float = false;
        if (kind == kLt) return va < vb ? 1 : 0;
        if (kind == kGe) return va >= vb ? 1 : 0;
        return va == vb ? 1 : 0;
      }
      case kStrEq:
        *is_float = false;
        return row.s == lit_str ? 1 : 0;
      case kAnd:
      case kOr: {
        const bool va = Truth(a->Eval(row, &fa));
        const bool vb = Truth(b->Eval(row, &fb));
        *is_float = false;
        return (kind == kAnd ? (va && vb) : (va || vb)) ? 1 : 0;
      }
      case kNot:
        *is_float = false;
        return Truth(a->Eval(row, &fa)) ? 0 : 1;
      case kCase: {
        const bool cond = Truth(a->Eval(row, &fa));
        const double vb = b->Eval(row, &fb);
        const double vc = c->Eval(row, &fc);
        *is_float = fb || fc;
        double r = cond ? vb : vc;
        if (!*is_float) r = static_cast<double>(static_cast<int64_t>(r));
        return r;
      }
    }
    return 0.0;
  }
};

/// Generates matching (library expression, row interpreter) pairs.
struct Generated {
  ExprPtr lib;
  std::unique_ptr<RowExpr> row;
};

Generated GenNumeric(Random& rng, int depth);

/// A condition operand: usually boolean, sometimes a numeric expression
/// (possibly float), which AND/OR/NOT/CASE truncate toward zero.
Generated GenCondition(Random& rng, int depth);

Generated GenBool(Random& rng, int depth) {
  Generated g;
  auto row = std::make_unique<RowExpr>();
  const int pick = depth <= 0 ? static_cast<int>(rng.Uniform(0, 3))
                              : static_cast<int>(rng.Uniform(0, 5));
  switch (pick) {
    case 0:
    case 1:
    case 2: {  // comparison of numerics
      Generated a = GenNumeric(rng, depth - 1);
      Generated b = GenNumeric(rng, depth - 1);
      if (pick == 0) {
        g.lib = Lt(a.lib, b.lib);
        row->kind = RowExpr::kLt;
      } else if (pick == 1) {
        g.lib = Ge(a.lib, b.lib);
        row->kind = RowExpr::kGe;
      } else {
        g.lib = Eq(a.lib, b.lib);
        row->kind = RowExpr::kEq;
      }
      row->a = std::move(a.row);
      row->b = std::move(b.row);
      break;
    }
    case 3: {  // string equality, the literal on either side
      row->kind = RowExpr::kStrEq;
      // "TRUCK" is absent from the dictionary and matches nothing.
      row->lit_str = rng.Bernoulli(0.2)
                         ? "TRUCK"
                         : kStrings[rng.Uniform(0, 3)];
      g.lib = rng.Bernoulli(0.5) ? Eq(Col("s"), LitString(row->lit_str))
                                 : Eq(LitString(row->lit_str), Col("s"));
      break;
    }
    case 4: {  // and/or
      Generated a = GenCondition(rng, depth - 1);
      Generated b = GenCondition(rng, depth - 1);
      if (rng.Bernoulli(0.5)) {
        g.lib = And(a.lib, b.lib);
        row->kind = RowExpr::kAnd;
      } else {
        g.lib = Or(a.lib, b.lib);
        row->kind = RowExpr::kOr;
      }
      row->a = std::move(a.row);
      row->b = std::move(b.row);
      break;
    }
    default: {  // not
      Generated a = GenCondition(rng, depth - 1);
      g.lib = Not(a.lib);
      row->kind = RowExpr::kNot;
      row->a = std::move(a.row);
      break;
    }
  }
  g.row = std::move(row);
  return g;
}

Generated GenCondition(Random& rng, int depth) {
  return rng.Bernoulli(0.3) ? GenNumeric(rng, depth) : GenBool(rng, depth);
}

Generated GenLeaf(Random& rng) {
  Generated g;
  auto row = std::make_unique<RowExpr>();
  switch (rng.Uniform(0, 7)) {
    case 0:
      g.lib = Col("i");
      row->kind = RowExpr::kColI;
      break;
    case 1:
      g.lib = Col("f");
      row->kind = RowExpr::kColF;
      break;
    case 2:
      g.lib = Col("l");
      row->kind = RowExpr::kColL;
      break;
    case 3:
      g.lib = Col("d");
      row->kind = RowExpr::kColD;
      break;
    case 4:
      g.lib = Col("s");
      row->kind = RowExpr::kColS;
      break;
    case 5: {
      row->kind = RowExpr::kLitI;
      if (rng.Bernoulli(0.25)) {  // a date literal near the epoch
        const char* const dates[] = {"1969-12-25", "1970-01-01", "1970-01-31"};
        const char* ymd = dates[rng.Uniform(0, 2)];
        row->lit_int = date::Parse(ymd).value();
        g.lib = LitDate(ymd);
      } else {
        row->lit_int = rng.Uniform(-20, 20);
        g.lib = LitInt(row->lit_int);
      }
      break;
    }
    default:
      row->kind = RowExpr::kLitF;
      row->lit_float = static_cast<double>(rng.Uniform(-50, 50)) / 2.0;
      g.lib = LitFloat(row->lit_float);
      break;
  }
  g.row = std::move(row);
  return g;
}

Generated GenNumeric(Random& rng, int depth) {
  const int pick = depth <= 0 ? 0 : static_cast<int>(rng.Uniform(0, 4));
  if (pick <= 1) return GenLeaf(rng);
  Generated g;
  auto row = std::make_unique<RowExpr>();
  if (pick <= 3) {
    Generated a = GenNumeric(rng, depth - 1);
    Generated b = GenNumeric(rng, depth - 1);
    switch (rng.Uniform(0, 3)) {
      case 0:
        g.lib = Add(a.lib, b.lib);
        row->kind = RowExpr::kAdd;
        break;
      case 1:
        g.lib = Sub(a.lib, b.lib);
        row->kind = RowExpr::kSub;
        break;
      case 2:
        g.lib = Mul(a.lib, b.lib);
        row->kind = RowExpr::kMul;
        break;
      default:
        g.lib = Div(a.lib, b.lib);
        row->kind = RowExpr::kDiv;
        break;
    }
    row->a = std::move(a.row);
    row->b = std::move(b.row);
  } else {  // case when
    Generated cond = GenCondition(rng, depth - 1);
    Generated then_e = GenNumeric(rng, depth - 1);
    Generated else_e = GenNumeric(rng, depth - 1);
    g.lib = CaseWhen(cond.lib, then_e.lib, else_e.lib);
    row->kind = RowExpr::kCase;
    row->a = std::move(cond.row);
    row->b = std::move(then_e.row);
    row->c = std::move(else_e.row);
  }
  g.row = std::move(row);
  return g;
}

class ExprFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ExprFuzzTest, ColumnarMatchesRowWise) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);

  // Every eighth row is zero in every numeric column, so divisions by zero
  // and false conditions occur; floats are multiples of 0.5, so a float
  // divisor at most doubles a value and products stay exact in int64.
  Table t("t");
  Column ci(DataType::kInt32), cf(DataType::kFloat64), cl(DataType::kInt64),
      cd(DataType::kDate), cs(DataType::kString);
  for (const char* s : kStrings) cs.AppendString(s);  // codes 0..3
  const int64_t rows = 64;
  std::vector<RowValues> expected_rows(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    RowValues& v = expected_rows[static_cast<size_t>(r)];
    const bool zero = r % 8 == 0;
    v.i = zero ? 0 : static_cast<int32_t>(rng.Uniform(-50, 50));
    v.f = zero ? 0.0 : static_cast<double>(rng.Uniform(-50, 50)) / 2.0;
    v.l = zero ? 0 : rng.Uniform(-60, 60);
    v.d = zero ? 0 : static_cast<int32_t>(rng.Uniform(-40, 40));
    v.s = kStrings[rng.Uniform(0, 3)];
    ci.AppendInt32(v.i);
    cf.AppendDouble(v.f);
    cl.AppendInt64(v.l);
    cd.AppendInt32(v.d);
    cs.AppendString(v.s);
    v.s_code = cs.dictionary()->Lookup(v.s);
  }
  GPL_CHECK_OK(t.AddColumn("i", std::move(ci)));
  GPL_CHECK_OK(t.AddColumn("f", std::move(cf)));
  GPL_CHECK_OK(t.AddColumn("l", std::move(cl)));
  GPL_CHECK_OK(t.AddColumn("d", std::move(cd)));
  // The dictionary's own seed rows are not table rows.
  GPL_CHECK_OK(t.AddColumn("s", cs.Slice(4, rows)));

  for (int trial = 0; trial < 40; ++trial) {
    const Generated g = rng.Bernoulli(0.5) ? GenBool(rng, 3)
                                           : GenNumeric(rng, 3);
    Column result = g.lib->Evaluate(t);
    ASSERT_EQ(result.size(), rows) << g.lib->ToString();
    for (int64_t r = 0; r < rows; ++r) {
      bool is_float = false;
      const double expected =
          g.row->Eval(expected_rows[static_cast<size_t>(r)], &is_float);
      const double actual = result.AsDouble(r);
      EXPECT_NEAR(actual, expected, 1e-9 * std::max(1.0, std::abs(expected)))
          << "row " << r << " of " << g.lib->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace gpl
