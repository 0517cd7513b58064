#!/usr/bin/env python3
"""Self-test for the XML-publishing benchmark.

Runs every workload through run.py at scale factor 0.01 for a few
operations, untraced and traced, and checks that:
  - each run passes its output checks (correct, failed == 0);
  - the result line holds exactly the metrics BENCHMARK.json declares for
    the mode, each in its declared unit, and the text output names every
    workload-specific end-to-end metric with its unit;
  - failed_frac is printed as 0;
  - the published document's byte count and hash match the values pinned
    below for seeds 1 and 2;
  - the traced run writes a Chrome trace-event file, and the traced
    xq_gapply run reports GApply worker skew (its workers ran in parallel);
  - a wrong result injected into one operation fails the run.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SMALL = ["--sf", "0.01", "--seconds", "1"]

# Figure-1 document at scale factor 0.01: (bytes, FNV-1a 64) per seed.
PINNED_DOCUMENT = {1: (855961, "2d6dce72dbd48eb0"),
                   2: (855961, "13bf81b8c6962806")}

# End-to-end metrics printed as text beyond the gated ones, per workload.
TEXT_METRICS = {
    "xq_gapply": ["latency_p95_ms", "latency_p99_ms", "fig8_q1_ms",
                  "fig8_q2_ms", "fig8_q3_ms", "fig8_q4_ms", "sel_some_ms",
                  "sel_agg_ms", "failed_frac"],
    "xq_souq": ["latency_p95_ms", "latency_p99_ms", "fig8_q1_ms",
                "fig8_q2_ms", "fig8_q3_ms", "fig8_q4_ms", "publish_doc_ms",
                "xml_mb_s", "failed_frac"],
    "lookup_mix": ["latency_p95_ms", "latency_p99_ms", "lookup_header_ms",
                   "lookup_part_suppliers_ms", "lookup_supplier_parts_ms",
                   "lookup_execute_ms", "failed_frac"],
}

failures = []


def expect(cond, message):
    if not cond:
        failures.append(message)
        print("FAIL: " + message)


def run(workload, seed, trace, extra=()):
    max_ops = "14" if workload != "lookup_mix" else "40"
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--trace",
                 str(trace), "--max-ops", max_ops] + SMALL + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, lines, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in TEXT_METRICS:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            code, lines, result = run(workload, 1, trace)
            expect(code == 0 and result is not None, label + ": run failed")
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], label + ": result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, label + ": checks failed")
            declared = spec["per_layer" if trace else "end_to_end"]
            expect(sorted(result["metrics"]) ==
                   sorted(m["name"] for m in declared),
                   label + ": metric set differs from BENCHMARK.json")
            for m in declared:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"] and
                       isinstance(got.get("value"), (int, float)),
                       "%s: %s not in %s" % (label, m["name"], m["unit"]))
            text = "\n".join(lines)
            names = TEXT_METRICS[workload] if not trace else []
            for name in names:
                expect(re.search(r"^metric %s\s+\S+ \S+$" % re.escape(name),
                                 text, re.M),
                       "%s: %s not printed with a unit" % (label, name))
            if not trace:
                expect(re.search(r"^metric failed_frac\s+0\.000000 ratio$",
                                 text, re.M), label + ": failed_frac not 0")
            else:
                trace_file = os.path.join(
                    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                    "perfbench", "trace_%s_seed1.json" % workload)
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                expect(any(e["name"] == "op" for e in events),
                       label + ": trace file has no operation spans")
                if workload == "xq_gapply":
                    skew = result["metrics"]["exec.gapply_worker_skew"]
                    expect(skew["value"] > 0,
                           label + ": GApply workers did not run in parallel")

    for seed, (size, digest) in PINNED_DOCUMENT.items():
        _, lines, _ = run("xq_souq", seed, 0)
        pinned = "check: document %d bytes from 8100 tuples, fnv1a %s, " \
                 "well-formed: yes, equals table-derived reference: yes" % (
                     size, digest)
        expect(pinned in lines, "seed %d: document differs from pin" % seed)

    for workload in TEXT_METRICS:
        code, _, result = run(workload, 1, 0, ["--inject-wrong-result"])
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               workload + ": injected wrong result was not caught")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
