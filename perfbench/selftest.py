#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny run length (a few seconds each).

    python3 perfbench/selftest.py

1. Every workload runs clean: exit 0, correct, zero failed operations, and
   every end-to-end metric printed with its unit.
2. The traced run of every workload prints every per-layer metric and
   writes spans that cover its timed rounds.
3. Checks that can fail: a corrupted bcast buffer, allreduce element or
   service record must be reported as exactly that one failed operation,
   with a nonzero exit.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace=0, corrupt=None, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s: no output; stderr:\n%s" % (cmd, r.stderr))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise AssertionError("%s: last line is not a result:\n%s\n%s" %
                             (cmd, "\n".join(lines[-5:]), r.stderr[-2000:]))
    failures = [l for l in lines if l.startswith("failed: ")]
    return r.returncode, result, failures, lines


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def test_clean(workload):
    rc, res, failures, _ = run(workload)
    expect(rc == 0 and res["correct"] and res["failed"] == 0 and not failures,
           "%s: clean run failed: rc %d %s" % (workload, rc, failures))
    expect(set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]},
           "%s: end-to-end metrics %s" % (workload, sorted(res["metrics"])))
    for m in BENCH["end_to_end"]:
        got = res["metrics"][m["name"]]
        expect(got["unit"] == m["unit"] and got["value"] > 0,
               "%s: %s = %s" % (workload, m["name"], got))


def test_traced(workload):
    rc, res, failures, _ = run(workload, trace=1)
    expect(rc == 0 and res["failed"] == 0 and not failures,
           "%s: traced run failed: rc %d %s" % (workload, rc, failures))
    expect(set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]},
           "%s: per-layer metrics %s" % (workload, sorted(res["metrics"])))
    path = os.path.join(ROOT, ".bench_build", "perfbench", "spans",
                        workload + ".json")
    with open(path) as f:
        spans = json.load(f)
    rounds = [s for s in spans if s["name"] in ("round", "round.traced")]
    expect(len(rounds) >= 2, "%s: %d round spans" % (workload, len(rounds)))
    timed = [s for s in spans
             if s["name"].startswith(("osu.", "svc.run_loadgen"))
             and s["name"] != "osu.warmup"]
    expect(timed, "%s: no spans around timed calls" % workload)
    by_id = {s["id"]: s for s in spans}
    for s in timed:
        # Every timed call hangs under a round span.
        p = s
        while p["parent"] >= 0 and p["name"] not in ("round", "round.traced"):
            p = by_id[p["parent"]]
        expect(p["name"] in ("round", "round.traced"),
               "%s: span %s outside the rounds" % (workload, s))


def test_corrupt(workload, kind, op_pattern):
    rc, res, failures, _ = run(workload, corrupt=kind)
    expect(rc != 0 and not res["correct"] and res["failed"] == 1,
           "%s --corrupt %s: rc %d, result %s" % (workload, kind, rc,
                                                  {k: res[k] for k in
                                                   ("correct", "failed")}))
    expect(len(failures) == 1 and re.match(op_pattern, failures[0]),
           "%s --corrupt %s: failures %s" % (workload, kind, failures))


def main():
    tests = []
    for w in WORKLOADS:
        tests.append(("clean " + w, lambda w=w: test_clean(w)))
        tests.append(("traced " + w, lambda w=w: test_traced(w)))
    # The corruption hits the first (smallest) size of each collective.
    tests += [
        ("corrupt bcast sim_small_epyc2p", lambda: test_corrupt(
            "sim_small_epyc2p", "bcast", r"failed: check\.bcast\.[48]: ")),
        ("corrupt allreduce sim_large_armn1", lambda: test_corrupt(
            "sim_large_armn1", "allreduce",
            r"failed: check\.allreduce\.2[67]\d{4}: ")),
        ("corrupt bcast native_host", lambda: test_corrupt(
            "native_host", "bcast", r"failed: check\.bcast\.(8|12): ")),
        ("corrupt svc svc_epyc1p", lambda: test_corrupt(
            "svc_epyc1p", "svc", r"failed: nominal\.request\.750: ")),
    ]
    bad = 0
    for name, fn in tests:
        try:
            fn()
            print("ok   " + name, flush=True)
        except AssertionError as e:
            bad += 1
            print("FAIL " + name + ": " + str(e), flush=True)
    print("%d of %d tests failed" % (bad, len(tests)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
