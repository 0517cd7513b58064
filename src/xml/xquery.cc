#include "src/xml/xquery.h"

namespace gapply::xml {

namespace {

std::string LiteralSql(const Value& v) {
  if (v.type() != TypeId::kString) return v.ToString();
  std::string out = "'";
  v.AppendTo(&out);
  out += '\'';
  return out;
}

std::string AggSql(AggKind kind, const std::string& column) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count(" + column + ")";
    case AggKind::kSum:
      return "sum(" + column + ")";
    case AggKind::kAvg:
      return "avg(" + column + ")";
    case AggKind::kMin:
      return "min(" + column + ")";
    case AggKind::kMax:
      return "max(" + column + ")";
  }
  return "?";
}

// Output slot layout across the return items (each branch NULL-pads the
// other items' slots, the paper's outer-union column discipline).
struct SlotLayout {
  std::vector<int> offset;  // per item
  int total = 0;
};

SlotLayout LayoutSlots(const FlwrQuery& query) {
  SlotLayout layout;
  for (const FlwrReturnItem& item : query.ret) {
    layout.offset.push_back(layout.total);
    layout.total += item.kind == FlwrReturnItem::Kind::kChildColumns
                        ? static_cast<int>(item.columns.size())
                        : 1;
  }
  return layout;
}

// Select-list for item `i`: NULLs everywhere except the item's own slots.
std::string PaddedSelectList(const FlwrQuery& query, size_t item_index,
                             const std::string& own_slots) {
  std::string out;
  int emitted = 0;
  for (size_t j = 0; j < query.ret.size(); ++j) {
    const int width = query.ret[j].kind ==
                              FlwrReturnItem::Kind::kChildColumns
                          ? static_cast<int>(query.ret[j].columns.size())
                          : 1;
    for (int s = 0; s < width; ++s) {
      if (emitted > 0) out += ", ";
      if (j == item_index) {
        // own_slots is already comma-joined for multi-column items.
        if (s == 0) out += own_slots;
        // Skip the remaining own slots: own_slots covered them.
        s = width - 1;
      } else {
        out += "null";
      }
      ++emitted;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Status Validate(const FlwrQuery& query) {
  if (query.ret.empty() && query.where.kind == FlwrCondKind::kNone) {
    return Status::InvalidArgument(
        "FLWR query needs a Return clause or a Where clause");
  }
  if (!query.ret.empty() && query.where.kind != FlwrCondKind::kNone) {
    return Status::NotImplemented(
        "combining Where with a non-trivial Return is not supported by the "
        "translator (the paper's examples use one or the other)");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> TranslateToGApplySql(const FlwrQuery& query,
                                         const FlwrViewBinding& view) {
  RETURN_NOT_OK(Validate(query));
  const std::string where_clause =
      view.child_where.empty() ? "" : " where " + view.child_where;
  const std::string tail = " from " + view.child_from + where_clause +
                           " group by " + view.parent_key + " : g";

  // Group selection: Return $v with a Where (§4.2).
  if (query.ret.empty()) {
    std::string pgq;
    if (query.where.kind == FlwrCondKind::kSomeChild) {
      pgq = "select * from g where exists (select " + query.where.column +
            " from g where " + query.where.column + " " +
            BinaryOpName(query.where.op) + " " +
            LiteralSql(query.where.literal) + ")";
    } else {
      pgq = "select * from g where (select " +
            AggSql(query.where.agg, query.where.column) + " from g) " +
            BinaryOpName(query.where.op) + " " +
            LiteralSql(query.where.literal);
    }
    return "select gapply(" + pgq + ")" + tail;
  }

  // Mixed Return items → one union-all branch per item.
  const SlotLayout layout = LayoutSlots(query);
  std::vector<std::string> branches;
  for (size_t i = 0; i < query.ret.size(); ++i) {
    const FlwrReturnItem& item = query.ret[i];
    std::string own;
    std::string branch_where;
    switch (item.kind) {
      case FlwrReturnItem::Kind::kChildColumns:
        own = Join(item.columns, ", ");
        break;
      case FlwrReturnItem::Kind::kAggregate:
        own = AggSql(item.agg, item.agg_column);
        break;
      case FlwrReturnItem::Kind::kCountCompareAgg:
        own = "count(*)";
        branch_where = " where " + item.agg_column + " " +
                       BinaryOpName(item.cmp) + " (select " +
                       AggSql(item.agg, item.agg_column) + " from g)";
        break;
    }
    branches.push_back("select " + PaddedSelectList(query, i, own) +
                       " from g" + branch_where);
  }
  return "select gapply(" + Join(branches, " union all ") + ")" + tail;
}

Result<std::string> TranslateToOuterUnionSql(const FlwrQuery& query,
                                             const FlwrViewBinding& view) {
  RETURN_NOT_OK(Validate(query));
  const std::string base_where =
      view.child_where.empty() ? "" : view.child_where;
  auto with_where = [&](const std::string& extra) {
    if (base_where.empty() && extra.empty()) return std::string();
    if (base_where.empty()) return " where " + extra;
    if (extra.empty()) return " where " + base_where;
    return " where " + base_where + " and " + extra;
  };
  // Correlated subqueries need the outer key table aliased (§2's "ps1").
  auto aliased_from = [&](const std::string& alias) {
    std::string out;
    bool first = true;
    size_t start = 0;
    const std::string& from = view.child_from;
    while (start <= from.size()) {
      size_t comma = from.find(',', start);
      std::string table = from.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      // trim
      while (!table.empty() && table.front() == ' ') table.erase(0, 1);
      while (!table.empty() && table.back() == ' ') table.pop_back();
      if (!first) out += ", ";
      out += table;
      if (table == view.key_table) out += " " + alias;
      first = false;
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return out;
  };

  // Group selection baselines: select the whole element via correlated
  // EXISTS / aggregate subqueries, then re-cluster by the key.
  if (query.ret.empty()) {
    if (view.key_table.empty()) {
      return Status::InvalidArgument(
          "outer-union translation needs view.key_table for correlated "
          "subqueries");
    }
    std::string corr;
    if (query.where.kind == FlwrCondKind::kSomeChild) {
      corr = "exists (select " + query.where.column + " from " +
             view.child_from + with_where(
                 view.parent_key + " = x0." + view.parent_key + " and " +
                 query.where.column + " " + BinaryOpName(query.where.op) +
                 " " + LiteralSql(query.where.literal)) +
             ")";
    } else {
      corr = "(select " + AggSql(query.where.agg, query.where.column) +
             " from " + view.child_from +
             with_where(view.parent_key + " = x0." + view.parent_key) +
             ") " + BinaryOpName(query.where.op) + " " +
             LiteralSql(query.where.literal);
    }
    return "select * from " + aliased_from("x0") + with_where(corr) +
           " order by " + view.parent_key;
  }

  const SlotLayout layout = LayoutSlots(query);
  std::vector<std::string> branches;
  for (size_t i = 0; i < query.ret.size(); ++i) {
    const FlwrReturnItem& item = query.ret[i];
    std::string own;
    std::string branch;
    switch (item.kind) {
      case FlwrReturnItem::Kind::kChildColumns:
        own = Join(item.columns, ", ");
        branch = "select " + view.parent_key + ", " +
                 PaddedSelectList(query, i, own) + " from " +
                 view.child_from + with_where("");
        break;
      case FlwrReturnItem::Kind::kAggregate:
        own = AggSql(item.agg, item.agg_column);
        branch = "select " + view.parent_key + ", " +
                 PaddedSelectList(query, i, own) + " from " +
                 view.child_from + with_where("") + " group by " +
                 view.parent_key;
        break;
      case FlwrReturnItem::Kind::kCountCompareAgg: {
        if (view.key_table.empty()) {
          return Status::InvalidArgument(
              "outer-union translation needs view.key_table for correlated "
              "subqueries");
        }
        // The paper's Q2 pattern: redundant join + correlated aggregate.
        own = "count(*)";
        const std::string corr =
            item.agg_column + " " + BinaryOpName(item.cmp) + " (select " +
            AggSql(item.agg, item.agg_column) + " from " + view.child_from +
            with_where(view.parent_key + " = x0." + view.parent_key) + ")";
        branch = "select " + view.parent_key + ", " +
                 PaddedSelectList(query, i, own) + " from " +
                 aliased_from("x0") + with_where(corr) + " group by " +
                 view.parent_key;
        break;
      }
    }
    branches.push_back(branch);
  }
  return Join(branches, " union all ") + " order by " + view.parent_key;
}

}  // namespace gapply::xml
