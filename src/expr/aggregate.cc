#include "src/expr/aggregate.h"

#include "src/common/hash_table.h"

namespace gapply {

namespace {

class CountStarAccumulator : public AggAccumulator {
 public:
  Status Add(const Value&) override {
    ++count_;
    return Status::OK();
  }
  Value Finish() const override { return Value::Int(count_); }
  Status Merge(const AggAccumulator& other) override {
    count_ += static_cast<const CountStarAccumulator&>(other).count_;
    return Status::OK();
  }

 private:
  int64_t count_ = 0;
};

class CountAccumulator : public AggAccumulator {
 public:
  Status Add(const Value& v) override {
    if (!v.is_null()) ++count_;
    return Status::OK();
  }
  Value Finish() const override { return Value::Int(count_); }
  Status Merge(const AggAccumulator& other) override {
    count_ += static_cast<const CountAccumulator&>(other).count_;
    return Status::OK();
  }

 private:
  int64_t count_ = 0;
};

class SumAccumulator : public AggAccumulator {
 public:
  Status Add(const Value& v) override {
    if (v.is_null()) return Status::OK();
    if (!IsNumeric(v.type())) {
      return Status::TypeError("sum over non-numeric value");
    }
    if (v.type() == TypeId::kDouble) all_ints_ = false;
    sum_ += v.AsDouble();
    int_sum_ += v.type() == TypeId::kInt64 ? v.int_val() : 0;
    seen_ = true;
    return Status::OK();
  }
  Value Finish() const override {
    if (!seen_) return Value::Null();
    return all_ints_ ? Value::Int(int_sum_) : Value::Double(sum_);
  }
  Status Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const SumAccumulator&>(other);
    sum_ += o.sum_;
    int_sum_ += o.int_sum_;
    all_ints_ = all_ints_ && o.all_ints_;
    seen_ = seen_ || o.seen_;
    return Status::OK();
  }

 private:
  double sum_ = 0;
  int64_t int_sum_ = 0;
  bool all_ints_ = true;
  bool seen_ = false;
};

class AvgAccumulator : public AggAccumulator {
 public:
  Status Add(const Value& v) override {
    if (v.is_null()) return Status::OK();
    if (!IsNumeric(v.type())) {
      return Status::TypeError("avg over non-numeric value");
    }
    sum_ += v.AsDouble();
    ++count_;
    return Status::OK();
  }
  Value Finish() const override {
    if (count_ == 0) return Value::Null();
    return Value::Double(sum_ / static_cast<double>(count_));
  }

 private:
  double sum_ = 0;
  int64_t count_ = 0;
};

class MinMaxAccumulator : public AggAccumulator {
 public:
  explicit MinMaxAccumulator(bool is_min) : is_min_(is_min) {}

  Status Add(const Value& v) override {
    if (v.is_null()) return Status::OK();
    if (best_.is_null()) {
      best_ = v;
      return Status::OK();
    }
    ASSIGN_OR_RETURN(int c, Value::Compare(v, best_));
    if ((is_min_ && c < 0) || (!is_min_ && c > 0)) best_ = v;
    return Status::OK();
  }
  Value Finish() const override { return best_; }
  Status Merge(const AggAccumulator& other) override {
    return Add(static_cast<const MinMaxAccumulator&>(other).best_);
  }

 private:
  bool is_min_;
  Value best_;  // NULL until first non-NULL input
};

/// Forwards only the first occurrence of each distinct value.
class DistinctAccumulator : public AggAccumulator {
 public:
  explicit DistinctAccumulator(std::unique_ptr<AggAccumulator> inner)
      : inner_(std::move(inner)) {}

  Status Add(const Value& v) override {
    const bool first = seen_.FindOrInsert(v.Hash(), [&](uint32_t e) {
      return values_[e].Equals(v);
    }).second;
    if (!first) return Status::OK();
    values_.push_back(v);
    return inner_->Add(v);
  }
  Value Finish() const override { return inner_->Finish(); }

 private:
  std::unique_ptr<AggAccumulator> inner_;
  HashTable seen_;             // entry e = values_[e]
  std::vector<Value> values_;  // distinct values, in arrival order
};

}  // namespace

Status AggAccumulator::Merge(const AggAccumulator&) {
  return Status::Internal(
      "accumulator kind does not support exact partial-aggregate merge");
}

bool AggregateMergeIsExact(const std::vector<AggregateDesc>& aggs) {
  for (const AggregateDesc& a : aggs) {
    if (a.distinct) return false;
    switch (a.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
      case AggKind::kMin:
      case AggKind::kMax:
        break;
      case AggKind::kSum:
        if (a.arg == nullptr || a.arg->type() != TypeId::kInt64) return false;
        break;
      case AggKind::kAvg:
        return false;
    }
  }
  return true;
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

AggregateDesc AggregateDesc::Clone() const {
  AggregateDesc out;
  out.kind = kind;
  out.arg = arg == nullptr ? nullptr : arg->Clone();
  out.distinct = distinct;
  out.output_name = output_name;
  return out;
}

std::vector<AggregateDesc> CloneAggregates(
    const std::vector<AggregateDesc>& aggs) {
  std::vector<AggregateDesc> out;
  out.reserve(aggs.size());
  for (const AggregateDesc& a : aggs) out.push_back(a.Clone());
  return out;
}

TypeId AggregateDesc::OutputType() const {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return TypeId::kInt64;
    case AggKind::kAvg:
      return TypeId::kDouble;
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
      return arg == nullptr ? TypeId::kNull : arg->type();
  }
  return TypeId::kNull;
}

std::string AggregateDesc::ToString() const {
  if (kind == AggKind::kCountStar) return "count(*)";
  std::string out = AggKindName(kind);
  out += "(";
  if (distinct) out += "distinct ";
  out += arg == nullptr ? "?" : arg->ToString();
  out += ")";
  return out;
}

std::unique_ptr<AggAccumulator> CreateAccumulator(AggKind kind,
                                                  bool distinct) {
  std::unique_ptr<AggAccumulator> acc;
  switch (kind) {
    case AggKind::kCountStar:
      acc = std::make_unique<CountStarAccumulator>();
      break;
    case AggKind::kCount:
      acc = std::make_unique<CountAccumulator>();
      break;
    case AggKind::kSum:
      acc = std::make_unique<SumAccumulator>();
      break;
    case AggKind::kAvg:
      acc = std::make_unique<AvgAccumulator>();
      break;
    case AggKind::kMin:
      acc = std::make_unique<MinMaxAccumulator>(/*is_min=*/true);
      break;
    case AggKind::kMax:
      acc = std::make_unique<MinMaxAccumulator>(/*is_min=*/false);
      break;
  }
  if (distinct && kind != AggKind::kCountStar) {
    acc = std::make_unique<DistinctAccumulator>(std::move(acc));
  }
  return acc;
}

AggregateDesc CountStar(std::string name) {
  return AggregateDesc(AggKind::kCountStar, nullptr, std::move(name));
}
AggregateDesc Count(ExprPtr arg, std::string name, bool distinct) {
  return AggregateDesc(AggKind::kCount, std::move(arg), std::move(name),
                       distinct);
}
AggregateDesc Sum(ExprPtr arg, std::string name) {
  return AggregateDesc(AggKind::kSum, std::move(arg), std::move(name));
}
AggregateDesc Avg(ExprPtr arg, std::string name) {
  return AggregateDesc(AggKind::kAvg, std::move(arg), std::move(name));
}
AggregateDesc Min(ExprPtr arg, std::string name) {
  return AggregateDesc(AggKind::kMin, std::move(arg), std::move(name));
}
AggregateDesc Max(ExprPtr arg, std::string name) {
  return AggregateDesc(AggKind::kMax, std::move(arg), std::move(name));
}

std::vector<std::unique_ptr<AggAccumulator>> MakeAccumulators(
    const std::vector<AggregateDesc>& aggs) {
  std::vector<std::unique_ptr<AggAccumulator>> accs;
  accs.reserve(aggs.size());
  for (const AggregateDesc& a : aggs) {
    accs.push_back(CreateAccumulator(a.kind, a.distinct));
  }
  return accs;
}

Status AccumulateRow(const std::vector<AggregateDesc>& aggs,
                     const std::vector<std::unique_ptr<AggAccumulator>>& accs,
                     const Row& row, const EvalContext& ctx) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].kind == AggKind::kCountStar) {
      RETURN_NOT_OK(accs[i]->Add(Value::Bool(true)));
    } else {
      ASSIGN_OR_RETURN(Value v, aggs[i].arg->Eval(row, ctx));
      RETURN_NOT_OK(accs[i]->Add(v));
    }
  }
  return Status::OK();
}

Result<Row> ComputeAggregates(const std::vector<AggregateDesc>& aggs,
                              const std::vector<Row>& rows,
                              const EvalContext& ctx) {
  std::vector<std::unique_ptr<AggAccumulator>> accs = MakeAccumulators(aggs);
  for (const Row& row : rows) RETURN_NOT_OK(AccumulateRow(aggs, accs, row, ctx));
  Row out;
  out.reserve(aggs.size());
  for (const auto& acc : accs) out.push_back(acc->Finish());
  return out;
}

}  // namespace gapply
