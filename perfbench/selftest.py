#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny workload sizes (well under a minute
once built).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, on the main seed and a held-out seed,
it checks that:
  * each run drains, reproduces its digest and reports correct = true;
  * every named metric is emitted, with the unit BENCHMARK.json gives it,
    and nothing else (end-to-end metrics untraced, per-layer metrics traced);
  * deterministic metrics and the full digest repeat exactly across two
    invocations;
  * every traced span nests inside its parent and carries the run id.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 7919)  # The second is held out: never used to tune the benchmark.
SPANS = {"workload", "scenario.spec", "scenario.build", "net.drained_probe",
         "scenario.run", "scenario.collect", "crypto.probe"}
# Host-time metrics (and every trace.* span time); every other metric is a
# deterministic function of the workload and seed and must repeat exactly.
HOST = {"device_cycles_per_s", "setup_s", "peak_rss_mb", "scenario.build_s",
        "scenario.build_us_per_station", "scenario.collect_s",
        "sim.host_ns_per_executed_tick", "net.drained_ns", "net.drained_est_s",
        "crypto.des_ns_per_byte", "crypto.aes_ns_per_byte",
        "crypto.rc4_ns_per_byte", "crypto.est_s", "host.run_samples"}


def fail(msg):
    sys.stderr.write("selftest FAILED: %s\n" % msg)
    sys.exit(1)


def invoke(workload, seed, trace):
    """Runs run.py at tiny size; returns (result line, full report)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
    if out.returncode != 0:
        fail("%s seed %d trace %d exited %d" % (workload, seed, trace, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    report_path = out.stdout.split("report ")[-1].split("\n")[0].strip()
    with open(report_path) as f:
        return result, json.load(f)


def check_spans(report, where):
    spans = report["spans"]
    if {s["name"] for s in spans} != SPANS:
        fail("%s: span names %s" % (where, sorted({s["name"] for s in spans})))
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["run_id"] != report["run_id"] or s["end_s"] < s["start_s"]:
            fail("%s: malformed span %s" % (where, s))
        if s["parent"] < 0:
            if s["name"] != "workload":
                fail("%s: orphan span %s" % (where, s["name"]))
            continue
        p = by_id[s["parent"]]
        if not (p["start_s"] <= s["start_s"] and s["end_s"] <= p["end_s"]):
            fail("%s: span %s escapes its parent %s" % (where, s["name"], p["name"]))
        if s["self_s"] < 0:
            fail("%s: span %s has negative self time" % (where, s["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    named = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (wl["name"] for wl in bench["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                where = "%s seed %d trace %d" % (w, seed, trace)
                runs = [invoke(w, seed, trace) for _ in range(2)]
                for result, report in runs:
                    if not result["correct"] or result["failed"] or result["attempted"] < 1:
                        fail("%s: %s" % (where, {k: result[k] for k in
                                                 ("correct", "attempted", "failed")}))
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    if got != named[trace]:
                        fail("%s: metrics/units differ from BENCHMARK.json: %s" %
                             (where, sorted(set(got.items()) ^ set(named[trace].items()))))
                    if trace:
                        check_spans(report, where)
                (r1, rep1), (r2, rep2) = runs
                if rep1["full_digest"] != rep2["full_digest"] or rep1["counters"] != rep2["counters"]:
                    fail("%s: digest or counters differ across invocations" % where)
                for k, m in r1["metrics"].items():
                    if k not in HOST and not k.startswith("trace.") and m["value"] != r2["metrics"][k]["value"]:
                        fail("%s: deterministic metric %s differs: %r vs %r" %
                             (where, k, m["value"], r2["metrics"][k]["value"]))
            print("ok %s seed %d digest %s" % (w, seed, rep1["full_digest"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
