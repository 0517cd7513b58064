#include "src/exec/profile.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/common/string_util.h"

namespace gapply {

namespace {

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatEstRows(double est) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", est);
  return buf;
}

/// Phase attribution from the operator's phase timers, under the names
/// EXPLAIN ANALYZE and the profile JSON have always used. Each node is one
/// operator, so at most one operator's phase pair is nonzero.
std::vector<std::pair<const char*, uint64_t>> Phases(
    const ExecContext::Counters& work) {
  std::vector<std::pair<const char*, uint64_t>> phases;
  const auto add = [&](const char* name, uint64_t ns) {
    if (ns > 0) phases.emplace_back(name, ns);
  };
  add("partition", work.gapply_partition_ns);
  add("per_group_query", work.gapply_pgq_ns);
  add("partition", work.exchange_partition_ns);
  add("merge", work.exchange_merge_ns);
  return phases;
}

void RenderTo(const ProfileNode& node, const ProfileRenderOptions& options,
              int indent, std::string* out) {
  *out += Repeat("  ", indent) + node.name;
  const ExecContext::Counters& work = node.profile.work;
  *out += " rows=" + std::to_string(node.profile.rows_out());
  if (node.estimated_rows >= 0) {
    *out += " est=" + FormatEstRows(node.estimated_rows);
  }
  if (node.dop > 1) *out += " dop=" + std::to_string(node.dop);
  // Deterministic (not timing-derived), so printed regardless of
  // show_timings; scans without pushed predicates keep both at zero and
  // print nothing.
  if (work.morsels_pruned > 0 || work.morsels_scanned > 0) {
    *out += " morsels_pruned=" + std::to_string(work.morsels_pruned) +
            " morsels_scanned=" + std::to_string(work.morsels_scanned) +
            " scan_rows_evaluated=" +
            std::to_string(work.scan_rows_evaluated);
  }
  // An operator with children that reads base-table rows itself (a
  // LookupJoin fetching its build rows) shows what it read; a scan's
  // rows_scanned is its rows=.
  if (!node.children.empty() && work.rows_scanned > 0) {
    *out += " rows_scanned=" + std::to_string(work.rows_scanned);
    if (work.scan_rows_evaluated > 0) {
      *out += " scan_rows_evaluated=" +
              std::to_string(work.scan_rows_evaluated);
    }
  }
  // Spill volume is a deterministic function of (input, budget) for a
  // given plan, so it prints with the stable fields; zero (the unbudgeted
  // common case) prints nothing.
  if (work.spill_bytes > 0 || work.spill_partitions > 0) {
    *out += " spill_bytes=" + std::to_string(work.spill_bytes) +
            " spill_partitions=" + std::to_string(work.spill_partitions);
  }
  // Compiled expression programs: the instruction count is deterministic,
  // so it is always printed.
  if (node.profile.expr_instructions > 0) {
    *out += " expr=bytecode[" +
            std::to_string(node.profile.expr_instructions) + "]";
  }
  if (options.show_timings) {
    *out += "  [total=" + FormatMs(node.profile.cumulative_ns()) +
            " self=" + FormatMs(node.self_ns) +
            " open=" + FormatMs(node.profile.open_ns) +
            " next=" + FormatMs(node.profile.next_ns) +
            " close=" + FormatMs(node.profile.close_ns);
    *out += " rows_in=" + std::to_string(node.profile.rows_in);
    if (node.profile.batches_out() > 0) {
      *out += " batches=" + std::to_string(node.profile.batches_out());
    }
    *out += " calls=" + std::to_string(node.profile.batch_calls);
    if (node.profile.workers_merged > 0) {
      *out += " workers=" + std::to_string(node.profile.workers_merged);
    }
    // Peak reservation can shift with worker interleaving (the spill
    // *point* may move under a shared tracker), so it stays with the
    // timing-derived fields.
    if (node.profile.peak_memory > 0) {
      *out += " peak_memory=" + std::to_string(node.profile.peak_memory);
    }
    *out += "]";
    const auto phases = Phases(work);
    if (!phases.empty()) {
      *out += "\n" + Repeat("  ", indent) + "  phases:";
      for (const auto& [name, ns] : phases) {
        *out += std::string(" ") + name + "=" + FormatMs(ns);
      }
    }
  }
  *out += "\n";
  for (const ProfileNode& child : node.children) {
    RenderTo(child, options, indent + 1, out);
  }
}

}  // namespace

ProfileNode CollectProfile(const PhysOp& root) {
  ProfileNode node;
  node.name = root.DebugName();
  node.dop = root.profile_dop();
  node.estimated_rows = root.estimated_rows();
  node.profile = root.runtime_profile();
  uint64_t children_cumulative = 0;
  for (const PhysOp* child : root.children()) {
    node.children.push_back(CollectProfile(*child));
    children_cumulative += node.children.back().profile.cumulative_ns();
  }
  const uint64_t cumulative = node.profile.cumulative_ns();
  node.self_ns =
      cumulative > children_cumulative ? cumulative - children_cumulative : 0;
  return node;
}

std::string RenderProfileText(const ProfileNode& node,
                              const ProfileRenderOptions& options) {
  std::string out;
  RenderTo(node, options, 0, &out);
  return out;
}

JsonValue ProfileToJson(const ProfileNode& node) {
  JsonValue obj = JsonValue::Object();
  const auto count = [&](const char* key, uint64_t value) {
    obj.Set(key, JsonValue::Int(static_cast<int64_t>(value)));
  };
  const OpRuntimeProfile& p = node.profile;
  obj.Set("op", JsonValue::Str(node.name));
  count("dop", node.dop);
  if (node.estimated_rows >= 0) {
    obj.Set("estimated_rows", JsonValue::Double(node.estimated_rows));
  }
  count("rows_out", p.rows_out());
  count("rows_in", p.rows_in);
  count("batches_out", p.batches_out());
  count("opens", p.opens);
  count("batch_calls", p.batch_calls);
  count("workers_merged", p.workers_merged);
  count("morsels_pruned", p.work.morsels_pruned);
  count("morsels_scanned", p.work.morsels_scanned);
  count("scan_rows_evaluated", p.work.scan_rows_evaluated);
  count("spill_bytes", p.work.spill_bytes);
  count("spill_partitions", p.work.spill_partitions);
  count("peak_memory", p.peak_memory);
  if (p.expr_instructions > 0) count("expr_instructions", p.expr_instructions);
  count("total_ns", p.cumulative_ns());
  count("self_ns", node.self_ns);
  count("open_ns", p.open_ns);
  count("next_ns", p.next_ns);
  count("close_ns", p.close_ns);
  JsonValue phases = JsonValue::Object();
  for (const auto& [name, ns] : Phases(p.work)) {
    phases.Set(name, JsonValue::Int(static_cast<int64_t>(ns)));
  }
  obj.Set("phases", std::move(phases));
  JsonValue children = JsonValue::Array();
  for (const ProfileNode& child : node.children) {
    children.Append(ProfileToJson(child));
  }
  obj.Set("children", std::move(children));
  return obj;
}

JsonValue CollectProfileJson(const PhysOp& root) {
  return ProfileToJson(CollectProfile(root));
}

namespace {

bool SubtreeMergedWorkers(const ProfileNode& node) {
  if (node.profile.workers_merged > 0) return true;
  for (const ProfileNode& child : node.children) {
    if (SubtreeMergedWorkers(child)) return true;
  }
  return false;
}

Status ValidateNode(const ProfileNode& node) {
  uint64_t children_rows_out = 0;
  uint64_t children_cumulative = 0;
  bool children_merged = node.profile.workers_merged > 0;
  for (const ProfileNode& child : node.children) {
    children_rows_out += child.profile.rows_out();
    children_cumulative += child.profile.cumulative_ns();
    if (SubtreeMergedWorkers(child)) children_merged = true;
  }
  if (!node.children.empty() && node.profile.rows_in != children_rows_out) {
    return Status::Internal(
        "profile invariant violated at " + node.name + ": rows_in=" +
        std::to_string(node.profile.rows_in) +
        " != sum of children rows_out=" + std::to_string(children_rows_out));
  }
  if (node.profile.cumulative_ns() < node.self_ns) {
    return Status::Internal("profile invariant violated at " + node.name +
                            ": cumulative < self time");
  }
  // Worker-clone merges book summed busy time into the merged subtree,
  // which may exceed the enclosing node's wall-clock span — only enforce
  // time nesting on purely serial subtrees.
  if (!children_merged &&
      node.profile.cumulative_ns() < children_cumulative) {
    return Status::Internal(
        "profile invariant violated at " + node.name + ": cumulative=" +
        std::to_string(node.profile.cumulative_ns()) +
        "ns < children cumulative=" + std::to_string(children_cumulative) +
        "ns");
  }
  for (const ProfileNode& child : node.children) {
    RETURN_NOT_OK(ValidateNode(child));
  }
  return Status::OK();
}

}  // namespace

Status ValidateProfile(const ProfileNode& root) { return ValidateNode(root); }

}  // namespace gapply
