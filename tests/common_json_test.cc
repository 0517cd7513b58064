// Round-trip tests for the minimal JSON model, including the shared
// per-operator profile schema: the JSON a profiled execution emits must
// parse back with every field intact — the same schema the benches write
// into BENCH_*.json and tools/bench_check walks.

#include <string>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/exec/agg_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/profile.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

TEST(JsonTest, ScalarsRoundTrip) {
  ASSIGN_OR_FAIL(JsonValue null_v, ParseJson("null"));
  EXPECT_TRUE(null_v.is_null());
  ASSIGN_OR_FAIL(JsonValue true_v, ParseJson("true"));
  EXPECT_TRUE(true_v.bool_value());
  ASSIGN_OR_FAIL(JsonValue int_v, ParseJson("-42"));
  EXPECT_EQ(int_v.type(), JsonValue::Type::kInt);
  EXPECT_EQ(int_v.int_value(), -42);
  ASSIGN_OR_FAIL(JsonValue dbl_v, ParseJson("3.5e2"));
  EXPECT_EQ(dbl_v.type(), JsonValue::Type::kDouble);
  EXPECT_DOUBLE_EQ(dbl_v.number_value(), 350.0);
  ASSIGN_OR_FAIL(JsonValue str_v, ParseJson("\"a\\\"b\\n\""));
  EXPECT_EQ(str_v.string_value(), "a\"b\n");
}

TEST(JsonTest, IntsSurviveExactly) {
  // Counters are int64; they must not detour through double.
  const int64_t big = (int64_t{1} << 53) + 1;
  JsonValue v = JsonValue::Int(big);
  ASSIGN_OR_FAIL(JsonValue back, ParseJson(v.Dump()));
  EXPECT_EQ(back.int_value(), big);
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", JsonValue::Int(1));
  obj.Set("alpha", JsonValue::Int(2));
  obj.Set("zebra", JsonValue::Int(3));  // overwrite keeps first position
  EXPECT_EQ(obj.Dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(JsonTest, NestedDocumentRoundTrips) {
  const std::string text =
      "{\"a\": [1, 2.5, \"x\", null, true], \"b\": {\"c\": []}}";
  ASSIGN_OR_FAIL(JsonValue v, ParseJson(text));
  ASSIGN_OR_FAIL(JsonValue again, ParseJson(v.Dump()));
  EXPECT_EQ(v.Dump(), again.Dump());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->items().size(), 5u);
}

TEST(JsonTest, PrettyDumpParsesBack) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue::Str("x"));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Int(1));
  arr.Append(JsonValue::Int(2));
  obj.Set("values", std::move(arr));
  ASSIGN_OR_FAIL(JsonValue back, ParseJson(obj.Dump(2)));
  EXPECT_EQ(back.Dump(), obj.Dump());
}

TEST(JsonTest, EscapeHandlesControlCharacters) {
  const std::string escaped = JsonEscape("tab\there \"quote\" back\\slash");
  ASSIGN_OR_FAIL(JsonValue v, ParseJson("\"" + escaped + "\""));
  EXPECT_EQ(v.string_value(), "tab\there \"quote\" back\\slash");
}

TEST(JsonTest, ParseErrorsAreStatuses) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("nope").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
}

// The shared per-operator schema: profile -> JSON -> parse -> same fields.
TEST(JsonTest, ProfileSchemaRoundTrips) {
  auto table = tutil::MakeTable(
      "t", tutil::GroupedSchema(),
      {{Value::Int(1), Value::Int(10), Value::Double(1.0)},
       {Value::Int(2), Value::Int(80), Value::Double(2.0)}});
  auto scan = std::make_unique<TableScanOp>(table.get());
  const Schema s = scan->output_schema();
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), Gt(Col(s, "v"), Lit(int64_t{50})));
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  auto root =
      std::make_unique<ScalarAggOp>(std::move(filter), std::move(aggs));

  ExecContext ctx;
  ctx.set_profiling(true);
  Result<QueryResult> r = ExecuteToVector(root.get(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const JsonValue emitted = CollectProfileJson(*root);
  ASSIGN_OR_FAIL(JsonValue parsed, ParseJson(emitted.Dump(2)));
  EXPECT_EQ(parsed.Dump(), emitted.Dump());

  // Walk the parsed tree: every node carries the full schema.
  const JsonValue* node = &parsed;
  int depth = 0;
  while (node != nullptr) {
    for (const char* key :
         {"op", "dop", "rows_out", "rows_in", "batches_out", "opens",
          "batch_calls", "workers_merged", "total_ns",
          "self_ns", "open_ns", "next_ns", "close_ns", "phases",
          "children"}) {
      EXPECT_NE(node->Find(key), nullptr)
          << "missing " << key << " at depth " << depth;
    }
    const JsonValue* children = node->Find("children");
    ASSERT_NE(children, nullptr);
    node = children->items().empty() ? nullptr : &children->items()[0];
    ++depth;
  }
  EXPECT_EQ(depth, 3);  // ScalarAgg -> Filter -> TableScan

  // And the row counts survived the trip.
  EXPECT_EQ(parsed.Find("rows_out")->int_value(), 1);
  EXPECT_EQ(parsed.Find("rows_in")->int_value(), 1);
}

}  // namespace
}  // namespace gapply
