#!/usr/bin/env python3
"""Builds and runs the XML-publishing benchmark (perfbench/xmlpub_bench.cc).

Usage, from the repository root:

  python3 perfbench/run.py --workload xq_gapply --seed 1 --seconds 20 --trace 0

--workload is xq_gapply, xq_souq, lookup_mix, or `all` (the three in turn,
followed by the Fig. 8 ratio table). --trace 1 reports the per-layer
metrics instead of the end-to-end ones and writes a Chrome trace-event file
into the build directory. Extra flags for tests and exploration:
--sf F (scale factor, default 0.05), --max-ops N, --inject-wrong-result.

The engine library is compiled from src/ together with xmlpub_bench.cc, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The program's
own lines go to stdout as it prints them; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`, holding exactly the
metrics BENCHMARK.json declares for the chosen trace mode. The exit code is
0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["xq_gapply", "xq_souq", "lookup_mix"]
RUN_TIMEOUT_S = 170

# Fig. 8 of the paper: time without GApply / time with GApply.
PAPER_FIG8 = {1: "~1.5-2x", 2: "~2x", 3: "~1.5-2x", 4: "~1.5-2x"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "xmlpub_bench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(binary, workload, args, extra):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace_%s_seed%d.json" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s printed no result (exit code %d)" % (workload,
                                                        proc.returncode))
    if proc.returncode not in (0, 1):
        fail("%s exited with code %d" % (workload, proc.returncode))
    return result


def contract_line(result, trace):
    metrics = {}
    for m in declared_metrics(trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_fig8_ratios(results):
    gapply = results["xq_gapply"]["metrics"]
    souq = results["xq_souq"]["metrics"]
    print("Fig. 8 ratio = xq_souq.fig8_qN_ms / xq_gapply.fig8_qN_ms "
          "(>1: GApply wins). Printed, not gated: a faster join or sort "
          "speeds the baseline and lowers the ratio without anything "
          "getting worse.")
    for q in range(1, 5):
        name = "fig8_q%d_ms" % q
        g, s = gapply[name]["value"], souq[name]["value"]
        print("fig8 Q%d  outer-union %9.3f ms  gapply %9.3f ms  ratio %5.2fx"
              "  paper %s" % (q, s, g, s / g if g > 0 else 0.0, PAPER_FIG8[q]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sf", type=float)
    parser.add_argument("--max-ops", type=int)
    parser.add_argument("--inject-wrong-result", action="store_true")
    args = parser.parse_args()

    extra = []
    for flag, value in (("--sf", args.sf), ("--max-ops", args.max_ops)):
        if value is not None:
            extra += [flag, str(value)]
    if args.inject_wrong_result:
        extra.append("--inject-wrong-result")

    binary = build()
    print("seed: %d" % args.seed)
    if args.workload != "all":
        line = contract_line(run_workload(binary, args.workload, args, extra),
                             args.trace)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    results = {w: run_workload(binary, w, args, extra) for w in WORKLOADS}
    if not args.trace:
        print_fig8_ratios(results)
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {}}
    for w, r in results.items():
        for name, m in contract_line(r, args.trace)["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
