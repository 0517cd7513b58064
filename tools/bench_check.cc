// bench_check: CI perf-regression gate over the benches' BENCH_*.json
// emissions.
//
// Compares every baseline file in --baseline-dir against the same-named
// file in --current-dir, walking the two JSON documents structurally and
// comparing each timing leaf (a number under a key named "ms" or ending in
// "_ms"; lower is better). A leaf regresses when BOTH
//   current > baseline * threshold   (ratio gate), and
//   current - baseline > floor_ms    (noise floor: micro-timings jitter)
// hold. Throughput leaves (a key named "qps" or ending in "_qps"; higher
// is better) gate on the mirrored rule: regression when BOTH
//   current * threshold < baseline, and
//   baseline - current > floor_qps.
// Speedup/ratio fields are derived (higher-better or dimensionless)
// and are skipped, as are per-operator profile times in ns (too noisy to
// gate on; they are carried for inspection, not for gating).
//
// Work-counter leaves (a key named "pgq_executions", "rows_scanned" or
// "scan_rows_evaluated") are gated exactly: each is a deterministic
// function of the plan and the data, so any difference fails, on any
// hardware. A change that silently stopped loop-lifting a PGQ, stopped
// narrowing a sorted scan, or went back to reading a whole build table
// where a lookup join fetches a key's run shows up here even when its
// timings sit under the noise floor. A counter leaf that the baseline
// has and the current file lacks (a dropped member, a shorter array, a
// changed shape) fails too, as COUNTER MISSING: a bench that stops
// writing a counter must not pass the gate unexamined.
//
// The timing gate is hardware-aware: when the two files disagree on
// "hardware_concurrency" the run is on different iron than the baseline,
// so the ratio threshold is doubled and the mismatch reported.
//
// --inject-slowdown=F multiplies every current timing by F (and divides
// every current throughput by F) first — the self-test CI uses to prove
// the gate actually trips (a 2x injected slowdown must fail against a
// fresh baseline, on both the ms and the qps rules).
//
// Exit codes: 0 = pass, 1 = regression detected, 2 = usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace gapply {
namespace {

struct Options {
  std::string baseline_dir = "bench/baselines";
  std::string current_dir = ".";
  double threshold = 1.25;
  double floor_ms = 5.0;
  double floor_qps = 5.0;
  double inject_slowdown = 1.0;
};

struct CheckState {
  const Options* opts = nullptr;
  double threshold = 1.25;  // after any hardware-mismatch relaxation
  int compared = 0;
  int counters = 0;
  int regressions = 0;
  std::vector<std::string> messages;
};

bool IsTimingKey(const std::string& key) {
  if (key.find("speedup") != std::string::npos) return false;
  if (key.find("ratio") != std::string::npos) return false;
  return key == "ms" || (key.size() > 3 &&
                         key.compare(key.size() - 3, 3, "_ms") == 0);
}

bool IsExactCounterKey(const std::string& key) {
  return key == "pgq_executions" || key == "rows_scanned" ||
         key == "scan_rows_evaluated";
}

bool IsThroughputKey(const std::string& key) {
  return key == "qps" || (key.size() > 4 &&
                          key.compare(key.size() - 4, 4, "_qps") == 0);
}

/// Identifying string for a record object, for readable messages.
std::string RecordLabel(const JsonValue& obj) {
  for (const char* key : {"workload", "label", "name", "query", "mode"}) {
    const JsonValue* v = obj.Find(key);
    if (v != nullptr && v->type() == JsonValue::Type::kString) {
      return v->string_value();
    }
  }
  return "";
}

/// The last key on a leaf's path ("" at the root), which decides how the
/// leaf is gated.
std::string LeafKey(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos) return "";
  std::string key = path.substr(dot + 1);
  const size_t bracket = key.find('[');
  if (bracket != std::string::npos) key.resize(bracket);
  return key;
}

std::string MemberPath(const JsonValue& obj, const std::string& path,
                       const std::string& key) {
  const std::string label = RecordLabel(obj);
  return (label.empty() ? path : path + "(" + label + ")") + "." + key;
}

/// Fails every exact-counter leaf under `base`, which the current file
/// lacks. Dropped timings are not regressions; dropped counters are.
void ReportMissingCounters(const JsonValue& base, const std::string& path,
                           CheckState* state) {
  if (base.type() == JsonValue::Type::kObject) {
    for (const auto& member : base.members()) {
      ReportMissingCounters(member.second,
                            MemberPath(base, path, member.first), state);
    }
  } else if (base.type() == JsonValue::Type::kArray) {
    for (size_t i = 0; i < base.items().size(); ++i) {
      ReportMissingCounters(base.items()[i],
                            path + "[" + std::to_string(i) + "]", state);
    }
  } else if (base.is_number() && IsExactCounterKey(LeafKey(path))) {
    state->counters++;
    state->regressions++;
    state->messages.push_back("  COUNTER MISSING " + path);
  }
}

void Walk(const JsonValue& base, const JsonValue& cur, const std::string& path,
          CheckState* state) {
  if (base.type() != cur.type() && !(base.is_number() && cur.is_number())) {
    ReportMissingCounters(base, path, state);
    return;
  }
  if (base.type() == JsonValue::Type::kObject) {
    for (const auto& member : base.members()) {
      const JsonValue* cv = cur.Find(member.first);
      const std::string here = MemberPath(base, path, member.first);
      if (cv == nullptr) {
        ReportMissingCounters(member.second, here, state);
      } else {
        Walk(member.second, *cv, here, state);
      }
    }
    return;
  }
  if (base.type() == JsonValue::Type::kArray) {
    for (size_t i = 0; i < base.items().size(); ++i) {
      const std::string here = path + "[" + std::to_string(i) + "]";
      if (i < cur.items().size()) {
        Walk(base.items()[i], cur.items()[i], here, state);
      } else {
        ReportMissingCounters(base.items()[i], here, state);
      }
    }
    return;
  }
  if (!base.is_number()) return;
  const std::string key = LeafKey(path);
  if (key.empty()) return;
  if (IsExactCounterKey(key)) {
    state->counters++;
    if (base.number_value() != cur.number_value()) {
      state->regressions++;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "  COUNTER CHANGED %s: %.0f -> %.0f (gated exactly)",
                    path.c_str(), base.number_value(), cur.number_value());
      state->messages.push_back(buf);
    }
    return;
  }
  if (IsThroughputKey(key)) {
    // Higher is better: an injected slowdown divides throughput.
    const double base_qps = base.number_value();
    const double cur_qps = cur.number_value() / state->opts->inject_slowdown;
    state->compared++;
    if (cur_qps * state->threshold < base_qps &&
        base_qps - cur_qps > state->opts->floor_qps) {
      state->regressions++;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "  REGRESSION %s: %.1fqps -> %.1fqps (%.2fx < 1/%.2fx "
                    "threshold, delta %.1fqps > %.1fqps floor)",
                    path.c_str(), base_qps, cur_qps,
                    base_qps > 0 ? cur_qps / base_qps : 0.0, state->threshold,
                    base_qps - cur_qps, state->opts->floor_qps);
      state->messages.push_back(buf);
    }
    return;
  }
  if (!IsTimingKey(key)) return;

  const double base_ms = base.number_value();
  double cur_ms = cur.number_value() * state->opts->inject_slowdown;
  state->compared++;
  if (cur_ms > base_ms * state->threshold &&
      cur_ms - base_ms > state->opts->floor_ms) {
    state->regressions++;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  REGRESSION %s: %.3fms -> %.3fms (%.2fx > %.2fx "
                  "threshold, delta %.3fms > %.3fms floor)",
                  path.c_str(), base_ms, cur_ms,
                  base_ms > 0 ? cur_ms / base_ms : 0.0, state->threshold,
                  cur_ms - base_ms, state->opts->floor_ms);
    state->messages.push_back(buf);
  }
}

Result<JsonValue> LoadJsonFile(const std::string& file_path) {
  std::ifstream in(file_path);
  if (!in) return Status::InvalidArgument("cannot open " + file_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseJson(buf.str());
}

int64_t HardwareConcurrency(const JsonValue& doc) {
  if (doc.type() != JsonValue::Type::kObject) return -1;
  const JsonValue* v = doc.Find("hardware_concurrency");
  if (v == nullptr || !v->is_number()) return -1;
  return static_cast<int64_t>(v->number_value());
}

/// Returns 0 (pass), 1 (regression), 2 (I/O error).
int CheckFile(const Options& opts, const std::string& name) {
  Result<JsonValue> base = LoadJsonFile(opts.baseline_dir + "/" + name);
  if (!base.ok()) {
    std::fprintf(stderr, "bench_check: %s\n",
                 base.status().ToString().c_str());
    return 2;
  }
  const std::string current_path = opts.current_dir + "/" + name;
  Result<JsonValue> cur = LoadJsonFile(current_path);
  if (!cur.ok()) {
    // A bench that did not run is a CI wiring problem, not a perf
    // regression; fail loudly either way.
    std::fprintf(stderr, "bench_check: missing current file %s (%s)\n",
                 current_path.c_str(), cur.status().ToString().c_str());
    return 2;
  }

  CheckState state;
  state.opts = &opts;
  state.threshold = opts.threshold;
  const int64_t base_hw = HardwareConcurrency(*base);
  const int64_t cur_hw = HardwareConcurrency(*cur);
  bool relaxed = false;
  if (base_hw > 0 && cur_hw > 0 && base_hw != cur_hw) {
    state.threshold = opts.threshold * 2.0;
    relaxed = true;
  }
  Walk(*base, *cur, name, &state);

  std::printf("%-32s %3d timings, threshold %.2fx%s, %d exact counters: %s\n",
              name.c_str(), state.compared, state.threshold,
              relaxed ? " (hw mismatch, relaxed)" : "", state.counters,
              state.regressions == 0 ? "OK" : "REGRESSED");
  for (const std::string& msg : state.messages) {
    std::printf("%s\n", msg.c_str());
  }
  return state.regressions == 0 ? 0 : 1;
}

int Run(const Options& opts) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts.baseline_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  if (ec) {
    std::fprintf(stderr, "bench_check: cannot list %s: %s\n",
                 opts.baseline_dir.c_str(), ec.message().c_str());
    return 2;
  }
  if (names.empty()) {
    std::fprintf(stderr, "bench_check: no baselines in %s\n",
                 opts.baseline_dir.c_str());
    return 2;
  }
  std::sort(names.begin(), names.end());
  if (opts.inject_slowdown != 1.0) {
    std::printf("(self-test: injecting %.2fx slowdown into current "
                "timings)\n",
                opts.inject_slowdown);
  }
  int rc = 0;
  for (const std::string& name : names) {
    rc = std::max(rc, CheckFile(opts, name));
  }
  std::printf("bench_check: %s\n", rc == 0 ? "PASS" : "FAIL");
  return rc;
}

}  // namespace
}  // namespace gapply

int main(int argc, char** argv) {
  gapply::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--baseline-dir=")) {
      opts.baseline_dir = v;
    } else if (const char* v = value("--current-dir=")) {
      opts.current_dir = v;
    } else if (const char* v = value("--threshold=")) {
      opts.threshold = std::atof(v);
    } else if (const char* v = value("--floor-ms=")) {
      opts.floor_ms = std::atof(v);
    } else if (const char* v = value("--floor-qps=")) {
      opts.floor_qps = std::atof(v);
    } else if (const char* v = value("--inject-slowdown=")) {
      opts.inject_slowdown = std::atof(v);
    } else {
      std::fprintf(stderr,
                   "usage: bench_check [--baseline-dir=DIR] "
                   "[--current-dir=DIR] [--threshold=R] [--floor-ms=MS] "
                   "[--floor-qps=QPS] [--inject-slowdown=F]\n");
      return 2;
    }
  }
  if (opts.threshold <= 1.0 || opts.inject_slowdown <= 0) {
    std::fprintf(stderr,
                 "bench_check: threshold must be > 1 and inject-slowdown "
                 "> 0\n");
    return 2;
  }
  return gapply::Run(opts);
}
