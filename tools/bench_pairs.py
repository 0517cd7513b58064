#!/usr/bin/env python3
"""Runs alternating parent/change pairs of the XML-publishing benchmark.

Usage, from the repository root:

  python3 tools/bench_pairs.py --parent PARENT/perfbench/xmlpub_bench \\
      --change CHANGE/perfbench/xmlpub_bench --workload lookup_mix \\
      --pairs 10 --seconds 20

Build each binary with `perfbench/run.py` in its own checkout, pointing
CARGO_TARGET_DIR at a separate directory per side; the binary then sits in
$CARGO_TARGET_DIR/perfbench/xmlpub_bench. Each binary runs with the flags
`perfbench/run.py` passes (--workload, --seed, --seconds, --trace 0). Pair i
(from 1) runs with seed = i; odd pairs run the parent first, even pairs the
change first, so drift in host speed falls on both sides alike.

Per workload and per end-to-end metric of BENCHMARK.json, it prints every
pair, each side's median and quartiles, the pairs the change won (ties
count for neither side), and a verdict:
  gain      the change won at least 9/10 of the pairs and its median beats
            the parent's by more than the parent's interquartile range;
  worse     the change's median is worse than the parent's by more than the
            metric's BENCHMARK.json bound;
  within    neither.
--json FILE also writes every run's result line and the summary. The exit
code is 0 when every run reported correct output, and 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["xq_gapply", "xq_souq", "lookup_mix"]


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(binary, workload, seed, seconds, timeout_s):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout_s)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.exit("bench_pairs: %s printed no result (exit code %d)"
                 % (" ".join(cmd), proc.returncode))


def value(result, name):
    return result["metrics"][name]["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(metric, parent, change):
    """Verdict for one metric over paired runs (lists in pair order)."""
    higher = metric["better"] == "higher"
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if higher else c < p))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gain = c_med - p_med if higher else p_med - c_med
    if wins * 10 >= 9 * len(parent) and gain > iqr:
        verdict = "gain"
    elif p_med > 0 and -gain / p_med > metric["bound"]:
        verdict = "worse"
    else:
        verdict = "within"
    return {"parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "parent_iqr": iqr, "change_median": c_med, "change_q1": c_q1,
            "change_q3": c_q3, "change_wins": wins, "pairs": len(parent),
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
            "verdict": verdict}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="xmlpub_bench binary of the parent commit")
    parser.add_argument("--change", required=True,
                        help="xmlpub_bench binary of the change")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all three")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--timeout-s", type=float, default=170)
    parser.add_argument("--json", help="also write runs and summary here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for binary in (args.parent, args.change):
        if not os.access(binary, os.X_OK):
            parser.error("not an executable: " + binary)

    metrics = end_to_end_metrics()
    all_ok = True
    report = {}
    for workload in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            for side in order:
                binary = args.parent if side == "parent" else args.change
                result = run_once(binary, workload, pair, args.seconds,
                                  args.timeout_s)
                runs[side].append(result)
                all_ok = all_ok and result.get("correct", False)
            values = ["%s %.6g/%.6g" % (m["name"],
                                        value(runs["parent"][-1], m["name"]),
                                        value(runs["change"][-1], m["name"]))
                      for m in metrics]
            print("%s pair %d (seed %d, %s first) parent/change: %s" % (
                workload, pair, pair, order[0], "  ".join(values)),
                flush=True)
        summary = {}
        for side in ("parent", "change"):
            summary[side + "_failed"] = sum(r["failed"] for r in runs[side])
            summary[side + "_attempted"] = sum(r["attempted"]
                                               for r in runs[side])
            summary[side + "_all_correct"] = all(r["correct"]
                                                 for r in runs[side])
        print("%s: parent %d/%d failed, correct=%s; change %d/%d failed, "
              "correct=%s" % (
                  workload, summary["parent_failed"],
                  summary["parent_attempted"], summary["parent_all_correct"],
                  summary["change_failed"], summary["change_attempted"],
                  summary["change_all_correct"]))
        for m in metrics:
            name = m["name"]
            s = summarize(m, [value(r, name) for r in runs["parent"]],
                          [value(r, name) for r in runs["change"]])
            summary[name] = s
            print("  %-17s parent %.6g (%.6g-%.6g, IQR %.4g)  change %.6g "
                  "(%.6g-%.6g)  %+.1f%%  change won %d/%d  [%s]" % (
                      name, s["parent_median"], s["parent_q1"],
                      s["parent_q3"], s["parent_iqr"], s["change_median"],
                      s["change_q1"], s["change_q3"], s["change_pct"],
                      s["change_wins"], s["pairs"], s["verdict"]))
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
