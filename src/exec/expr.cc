#include "exec/expr.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <type_traits>

#include "common/logging.h"
#include "tpch/date.h"

namespace gpl {

namespace {

bool IsFloat(DataType t) { return t == DataType::kFloat64; }

class ColumnRef : public Expr {
 public:
  explicit ColumnRef(std::string name) : name_(std::move(name)) {}

  DataType OutputType(const Table& input) const override {
    return input.GetColumn(name_).type();
  }

  Column Evaluate(const Table& input) const override {
    return input.GetColumn(name_);  // shares the buffer (copy-on-write)
  }

  double CostPerRow() const override { return 0.0; }
  std::string ToString() const override { return name_; }

  bool IsColumnRef(std::string* name) const override {
    *name = name_;
    return true;
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class Literal : public Expr {
 public:
  static ExprPtr Int(int64_t v) {
    auto e = std::make_shared<Literal>();
    e->type_ = DataType::kInt64;
    e->int_ = v;
    return e;
  }
  static ExprPtr Float(double v) {
    auto e = std::make_shared<Literal>();
    e->type_ = DataType::kFloat64;
    e->float_ = v;
    return e;
  }
  static ExprPtr Date(int32_t days) {
    auto e = std::make_shared<Literal>();
    e->type_ = DataType::kDate;
    e->int_ = days;
    return e;
  }
  static ExprPtr String(std::string v) {
    auto e = std::make_shared<Literal>();
    e->type_ = DataType::kString;
    e->str_ = std::move(v);
    return e;
  }

  DataType OutputType(const Table&) const override { return type_; }

  Column Evaluate(const Table& input) const override {
    const size_t n = static_cast<size_t>(input.num_rows());
    Column c(type_);
    switch (type_) {
      case DataType::kInt64:
        c.data64().assign(n, int_);
        return c;
      case DataType::kFloat64:
        c.dataf().assign(n, float_);
        return c;
      case DataType::kDate:
        c.data32().assign(n, static_cast<int32_t>(int_));
        return c;
      default:
        GPL_LOG(Fatal) << "string literals are only valid inside comparisons";
    }
    return Column(DataType::kInt32);
  }

  double CostPerRow() const override { return 0.0; }
  std::string ToString() const override {
    switch (type_) {
      case DataType::kInt64:
        return std::to_string(int_);
      case DataType::kFloat64:
        return std::to_string(float_);
      case DataType::kDate:
        return date::Format(static_cast<int32_t>(int_));
      default:
        return "'" + str_ + "'";
    }
  }

  bool IsLiteral(double* value) const override {
    switch (type_) {
      case DataType::kInt64:
      case DataType::kDate:
        *value = static_cast<double>(int_);
        return true;
      case DataType::kFloat64:
        *value = float_;
        return true;
      default:
        return false;  // strings estimated via dictionary cardinality
    }
  }

  DataType type_ = DataType::kInt64;
  int64_t int_ = 0;
  double float_ = 0.0;
  std::string str_;
};

// ---- Typed column-at-a-time evaluation ----
// Operands are read through their physical buffers (VisitValues in
// storage/column.h) with one type dispatch per column; a numeric literal is
// read as a scalar and never broadcast into a column. The conversions are
// Column::AsInt64/AsDouble's.

template <typename T>
struct ColumnValues {
  const T* values;
  T operator[](size_t i) const { return values[i]; }
};

template <typename T>
struct ScalarValue {
  T value;
  T operator[](size_t) const { return value; }
};

/// A value read as a truth value by AND/OR/NOT/CASE: a float truncates
/// toward zero first, as Column::AsInt64 does.
template <typename T>
bool Truth(T v) {
  return static_cast<int64_t>(v) != 0;
}

/// An evaluated operand: a column, or a numeric literal read as a scalar.
struct Operand {
  const Literal* literal = nullptr;
  Column column{DataType::kInt32};
};

Operand EvaluateOperand(const Expr& expr, const Table& input) {
  const auto* literal = dynamic_cast<const Literal*>(&expr);
  if (literal != nullptr && literal->type_ != DataType::kString) {
    return {literal, Column(DataType::kInt32)};
  }
  return {nullptr, expr.Evaluate(input)};
}

/// Calls `fn(values)`, where values[i] reads row i of the operand as its
/// physical type (int32_t, int64_t or double); a literal reads as an int64_t
/// (kInt64, kDate) or double scalar.
template <typename Fn>
decltype(auto) VisitOperand(const Operand& operand, Fn&& fn) {
  if (operand.literal != nullptr) {
    if (operand.literal->type_ == DataType::kFloat64) {
      return fn(ScalarValue<double>{operand.literal->float_});
    }
    return fn(ScalarValue<int64_t>{operand.literal->int_});
  }
  return VisitValues(operand.column, [&](const auto* values) {
    return fn(ColumnValues<std::remove_cvref_t<decltype(*values)>>{values});
  });
}

/// Row count of a result over `operands`: the length of its column operands,
/// which must agree, or the input's row count when all are literals.
int64_t ResultRows(const Table& input,
                   std::initializer_list<const Operand*> operands,
                   const Expr& expr) {
  int64_t n = -1;
  for (const Operand* operand : operands) {
    if (operand->literal != nullptr) continue;
    if (n < 0) n = operand->column.size();
    GPL_CHECK(operand->column.size() == n)
        << "operand length mismatch in " << expr.ToString();
  }
  return n < 0 ? input.num_rows() : n;
}

/// A new n-row column with row i = f(i), typed kInt32, kInt64 or kFloat64
/// for T = int32_t, int64_t or double.
template <typename T, typename F>
Column Fill(int64_t n, F f) {
  constexpr DataType kType = std::is_same_v<T, int32_t>   ? DataType::kInt32
                             : std::is_same_v<T, int64_t> ? DataType::kInt64
                                                          : DataType::kFloat64;
  Column out(kType);
  std::vector<T>* dst = nullptr;
  if constexpr (kType == DataType::kInt32) {
    dst = &out.data32();
  } else if constexpr (kType == DataType::kInt64) {
    dst = &out.data64();
  } else {
    dst = &out.dataf();
  }
  dst->resize(static_cast<size_t>(n));
  T* values = dst->data();
  for (size_t i = 0; i < dst->size(); ++i) values[i] = f(i);
  return out;
}

enum class BinOp { kAdd, kSub, kMul, kDiv, kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr };

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
  }
  return "?";
}

bool IsComparison(BinOp op) {
  return op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
         op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
}

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}

  DataType OutputType(const Table& input) const override {
    if (IsComparison(op_) || op_ == BinOp::kAnd || op_ == BinOp::kOr) {
      return DataType::kInt32;
    }
    const DataType ta = a_->OutputType(input);
    const DataType tb = b_->OutputType(input);
    if (IsFloat(ta) || IsFloat(tb)) return DataType::kFloat64;
    return DataType::kInt64;
  }

  Column Evaluate(const Table& input) const override {
    // String equality against a literal: compare dictionary codes.
    if (IsComparison(op_)) {
      const Literal* str_lit = nullptr;
      if (auto lit = dynamic_cast<const Literal*>(b_.get());
          lit != nullptr && lit->type_ == DataType::kString) {
        str_lit = lit;
        // a_ must be a string column reference.
      } else if (auto lit2 = dynamic_cast<const Literal*>(a_.get());
                 lit2 != nullptr && lit2->type_ == DataType::kString) {
        str_lit = lit2;
      }
      if (str_lit != nullptr) {
        GPL_CHECK(op_ == BinOp::kEq || op_ == BinOp::kNe)
            << "only =/<> are supported on strings (Ocelot-style workload)";
        const Expr* col_side = (str_lit == b_.get() ? a_.get() : b_.get());
        const Column col = col_side->Evaluate(input);
        GPL_CHECK(col.type() == DataType::kString)
            << "string literal compared to non-string expression";
        const int32_t code = col.dictionary()->Lookup(str_lit->str_);
        const int32_t on_equal = op_ == BinOp::kEq ? 1 : 0;
        const int32_t* codes = col.data32().data();
        return Fill<int32_t>(col.size(), [&](size_t i) {
          return codes[i] == code ? on_equal : 1 - on_equal;
        });
      }
    }

    const Operand ca = EvaluateOperand(*a_, input);
    const Operand cb = EvaluateOperand(*b_, input);
    const int64_t n = ResultRows(input, {&ca, &cb}, *this);
    return VisitOperand(ca, [&](auto va) {
      return VisitOperand(cb, [&](auto vb) {
        // Comparisons and arithmetic widen both sides to double when either
        // is float64 and work in int64 otherwise (Column::AsDouble/AsInt64).
        using C =
            std::conditional_t<std::is_same_v<decltype(va[0]), double> ||
                                   std::is_same_v<decltype(vb[0]), double>,
                               double, int64_t>;
        const auto a = [va](size_t i) { return static_cast<C>(va[i]); };
        const auto b = [vb](size_t i) { return static_cast<C>(vb[i]); };
        const auto flags = [n](auto pred) {
          return Fill<int32_t>(n, [&](size_t i) -> int32_t { return pred(i); });
        };
        switch (op_) {
          case BinOp::kAnd:
            return flags([&](size_t i) { return Truth(va[i]) & Truth(vb[i]); });
          case BinOp::kOr:
            return flags([&](size_t i) { return Truth(va[i]) | Truth(vb[i]); });
          case BinOp::kEq:
            return flags([&](size_t i) { return a(i) == b(i); });
          case BinOp::kNe:
            return flags([&](size_t i) { return a(i) != b(i); });
          case BinOp::kLt:
            return flags([&](size_t i) { return a(i) < b(i); });
          case BinOp::kLe:
            return flags([&](size_t i) { return a(i) <= b(i); });
          case BinOp::kGt:
            return flags([&](size_t i) { return a(i) > b(i); });
          case BinOp::kGe:
            return flags([&](size_t i) { return a(i) >= b(i); });
          case BinOp::kAdd:
            return Fill<C>(n, [&](size_t i) { return a(i) + b(i); });
          case BinOp::kSub:
            return Fill<C>(n, [&](size_t i) { return a(i) - b(i); });
          case BinOp::kMul:
            return Fill<C>(n, [&](size_t i) { return a(i) * b(i); });
          case BinOp::kDiv:
            break;
        }
        return Fill<C>(n, [&](size_t i) {
          const C divisor = b(i);
          return divisor == C{0} ? C{0} : a(i) / divisor;
        });
      });
    });
  }

  double CostPerRow() const override {
    return 1.0 + a_->CostPerRow() + b_->CostPerRow();
  }

  std::string ToString() const override {
    return "(" + a_->ToString() + " " + BinOpName(op_) + " " + b_->ToString() + ")";
  }

  double EstimateSelectivity(const StatsProvider& stats) const override {
    if (op_ == BinOp::kAnd) {
      const double sa = a_->EstimateSelectivity(stats);
      const double sb = b_->EstimateSelectivity(stats);
      // Two conditions on the same single column (e.g. a date range) are
      // perfectly anti-correlated intervals, not independent events.
      std::vector<std::string> refs_a, refs_b;
      a_->CollectColumnRefs(&refs_a);
      b_->CollectColumnRefs(&refs_b);
      if (refs_a.size() == 1 && refs_a == refs_b) {
        return std::max(0.0001, sa + sb - 1.0);
      }
      return sa * sb;
    }
    if (op_ == BinOp::kOr) {
      const double sa = a_->EstimateSelectivity(stats);
      const double sb = b_->EstimateSelectivity(stats);
      return sa + sb - sa * sb;
    }
    if (!IsComparison(op_)) return 1.0;

    // Column-vs-literal comparisons use column statistics.
    std::string column;
    double literal = 0.0;
    bool col_left = true;
    if (a_->IsColumnRef(&column) && b_->IsLiteral(&literal)) {
      col_left = true;
    } else if (b_->IsColumnRef(&column) && a_->IsLiteral(&literal)) {
      col_left = false;
    } else if (op_ == BinOp::kEq &&
               (a_->IsColumnRef(&column) || b_->IsColumnRef(&column))) {
      // Equality against a string literal (IsLiteral returns false for
      // strings): 1 / ndv.
      double mn = 0, mx = 0;
      int64_t ndv = 0;
      if (stats.GetColumnStats(column, &mn, &mx, &ndv) && ndv > 0) {
        return 1.0 / static_cast<double>(ndv);
      }
      return 0.1;
    } else {
      return 0.33;  // column-vs-column or complex comparison: default guess
    }

    double mn = 0, mx = 0;
    int64_t ndv = 0;
    if (!stats.GetColumnStats(column, &mn, &mx, &ndv)) return 0.33;
    switch (op_) {
      case BinOp::kEq:
        return ndv > 0 ? 1.0 / static_cast<double>(ndv) : 0.1;
      case BinOp::kNe:
        return ndv > 0 ? 1.0 - 1.0 / static_cast<double>(ndv) : 0.9;
      default: {
        if (mx <= mn) return 0.5;
        double frac_below = (literal - mn) / (mx - mn);  // P(col < literal)
        frac_below = std::clamp(frac_below, 0.0, 1.0);
        const bool less =
            col_left ? (op_ == BinOp::kLt || op_ == BinOp::kLe)
                     : (op_ == BinOp::kGt || op_ == BinOp::kGe);
        return less ? frac_below : 1.0 - frac_below;
      }
    }
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    a_->CollectColumnRefs(out);
    b_->CollectColumnRefs(out);
  }

 private:
  BinOp op_;
  ExprPtr a_;
  ExprPtr b_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr a) : a_(std::move(a)) {}

  DataType OutputType(const Table&) const override { return DataType::kInt32; }

  Column Evaluate(const Table& input) const override {
    const Operand ca = EvaluateOperand(*a_, input);
    const int64_t n = ResultRows(input, {&ca}, *this);
    return VisitOperand(ca, [&](auto va) {
      return Fill<int32_t>(n,
                           [&](size_t i) -> int32_t { return !Truth(va[i]); });
    });
  }

  double CostPerRow() const override { return 1.0 + a_->CostPerRow(); }
  std::string ToString() const override { return "NOT " + a_->ToString(); }

  double EstimateSelectivity(const StatsProvider& stats) const override {
    return 1.0 - a_->EstimateSelectivity(stats);
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    a_->CollectColumnRefs(out);
  }

 private:
  ExprPtr a_;
};

class YearExpr : public Expr {
 public:
  explicit YearExpr(ExprPtr a) : a_(std::move(a)) {}

  DataType OutputType(const Table&) const override { return DataType::kInt32; }

  Column Evaluate(const Table& input) const override {
    const Column ca = a_->Evaluate(input);
    GPL_CHECK(ca.type() == DataType::kDate) << "YearOf needs a date expression";
    const std::vector<int32_t>& days = ca.data32();
    Column out(DataType::kInt32);
    std::vector<int32_t>& dst = out.data32();
    dst.resize(days.size());
    for (size_t i = 0; i < days.size(); ++i) dst[i] = date::Year(days[i]);
    return out;
  }

  double CostPerRow() const override { return 4.0 + a_->CostPerRow(); }
  std::string ToString() const override {
    return "YEAR(" + a_->ToString() + ")";
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    a_->CollectColumnRefs(out);
  }

 private:
  ExprPtr a_;
};

class CaseExpr : public Expr {
 public:
  CaseExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
      : cond_(std::move(cond)),
        then_(std::move(then_expr)),
        else_(std::move(else_expr)) {}

  DataType OutputType(const Table& input) const override {
    const DataType tt = then_->OutputType(input);
    const DataType te = else_->OutputType(input);
    if (IsFloat(tt) || IsFloat(te)) return DataType::kFloat64;
    return DataType::kInt64;
  }

  Column Evaluate(const Table& input) const override {
    const Operand cc = EvaluateOperand(*cond_, input);
    const Operand ct = EvaluateOperand(*then_, input);
    const Operand ce = EvaluateOperand(*else_, input);
    const int64_t n = ResultRows(input, {&cc, &ct, &ce}, *this);
    return VisitOperand(cc, [&](auto vc) {
      return VisitOperand(ct, [&](auto vt) {
        return VisitOperand(ce, [&](auto ve) {
          // Float64 when either branch is, int64 otherwise (OutputType).
          using C =
              std::conditional_t<std::is_same_v<decltype(vt[0]), double> ||
                                     std::is_same_v<decltype(ve[0]), double>,
                                 double, int64_t>;
          return Fill<C>(n, [&](size_t i) {
            return Truth(vc[i]) ? static_cast<C>(vt[i]) : static_cast<C>(ve[i]);
          });
        });
      });
    });
  }

  double CostPerRow() const override {
    return 1.0 + cond_->CostPerRow() + then_->CostPerRow() + else_->CostPerRow();
  }

  std::string ToString() const override {
    return "CASE WHEN " + cond_->ToString() + " THEN " + then_->ToString() +
           " ELSE " + else_->ToString() + " END";
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    cond_->CollectColumnRefs(out);
    then_->CollectColumnRefs(out);
    else_->CollectColumnRefs(out);
  }

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr else_;
};

class StartsWithExpr : public Expr {
 public:
  StartsWithExpr(ExprPtr str_expr, std::string prefix)
      : str_(std::move(str_expr)), prefix_(std::move(prefix)) {}

  DataType OutputType(const Table&) const override { return DataType::kInt32; }

  Column Evaluate(const Table& input) const override {
    const Column col = str_->Evaluate(input);
    GPL_CHECK(col.type() == DataType::kString)
        << "StrStartsWith needs a string expression";
    // Precompute the matching dictionary codes once per batch.
    const Dictionary& dict = *col.dictionary();
    std::vector<uint8_t> matches(static_cast<size_t>(dict.size()));
    for (int32_t code = 0; code < dict.size(); ++code) {
      matches[static_cast<size_t>(code)] =
          dict.GetString(code).rfind(prefix_, 0) == 0 ? 1 : 0;
    }
    const std::vector<int32_t>& codes = col.data32();
    Column out(DataType::kInt32);
    std::vector<int32_t>& dst = out.data32();
    dst.resize(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      dst[i] = matches[static_cast<size_t>(codes[i])];
    }
    return out;
  }

  double CostPerRow() const override { return 2.0 + str_->CostPerRow(); }
  std::string ToString() const override {
    return str_->ToString() + " LIKE '" + prefix_ + "%'";
  }

  double EstimateSelectivity(const StatsProvider& stats) const override {
    (void)stats;
    return 0.17;  // PROMO is 1 of 6 first syllables of p_type
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    str_->CollectColumnRefs(out);
  }

 private:
  ExprPtr str_;
  std::string prefix_;
};

}  // namespace

ExprPtr Col(std::string name) { return std::make_shared<ColumnRef>(std::move(name)); }
ExprPtr LitInt(int64_t value) { return Literal::Int(value); }
ExprPtr LitFloat(double value) { return Literal::Float(value); }
ExprPtr LitDate(const std::string& ymd) {
  Result<int32_t> days = date::Parse(ymd);
  GPL_CHECK(days.ok()) << days.status().ToString();
  return Literal::Date(days.value());
}
ExprPtr LitString(std::string value) { return Literal::String(std::move(value)); }

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kGe, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) { return std::make_shared<NotExpr>(std::move(a)); }
ExprPtr YearOf(ExprPtr date_expr) {
  return std::make_shared<YearExpr>(std::move(date_expr));
}
ExprPtr CaseWhen(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr) {
  return std::make_shared<CaseExpr>(std::move(cond), std::move(then_expr),
                                    std::move(else_expr));
}
ExprPtr InRange(ExprPtr a, ExprPtr lo, ExprPtr hi) {
  return And(Ge(a, std::move(lo)), Lt(a, std::move(hi)));
}

ExprPtr StrStartsWith(ExprPtr str_expr, std::string prefix) {
  return std::make_shared<StartsWithExpr>(std::move(str_expr), std::move(prefix));
}

}  // namespace gpl
