#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload prio-sdss --seed 1 --seconds 30 --trace 0

builds perfbench/ (a Go module that uses the repository through a
`replace` of ../) into .bench_build/ and runs it with the given
arguments; the last line of its output is the result. The Go build
cache and temporary files live under .bench_build/ as well.

Two more modes drive the binary several times:

    python3 perfbench/run.py --report 10 [--seconds 30]
        steadiness report: runs each workload with seeds 1..N and prints,
        for every end-to-end metric, the median, quartiles and relative
        spread (IQR / median), calibrated and raw side by side.

    python3 perfbench/run.py --selftest [--seconds 4]
        anti-vacuousness self-test: each workload clean, then with each
        of the output corruptions the clean run lists; every corrupted
        run must fail its check and lower ok_frac.

Both take the workload and end-to-end metric names from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")


def spec():
    """The workload and end-to-end metric names BENCHMARK.json records."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return [w["name"] for w in b["workloads"]], [m["name"] for m in b["end_to_end"]]


def build():
    """Build the benchmark; every file the toolchain writes stays in .bench_build."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: %s holds no go.mod: run from the root of a full checkout" % ROOT)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    p = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit("perfbench: build failed:\n" + p.stderr)


def run_once(args):
    """Run the binary; return (exit code, stdout lines)."""
    p = subprocess.run([BIN] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return p.returncode, p.stdout.splitlines()


def parse(lines):
    """The result, the "# raw" figures and the corruption kinds a run prints."""
    result = json.loads(lines[-1]) if lines else None
    raw, corruptions = None, []
    for line in lines:
        if line.startswith("# raw "):
            raw = json.loads(line[len("# raw "):])
        elif line.startswith("# corruptions:"):
            corruptions = line[len("# corruptions:"):].split()
    return result, raw, corruptions


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("nan")


def report(n, seconds):
    workloads, end_to_end = spec()
    print("steadiness over %d runs per workload (seeds 1..%d, %g s each)" % (n, n, seconds))
    for w in workloads:
        print("%-16s %-16s %12s %12s %12s %8s   %12s %8s" %
              ("workload", "metric", "median", "q1", "q3", "spread", "raw median", "spread"))
        cal, raw = {}, {}
        for seed in range(1, n + 1):
            code, lines = run_once(["--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"])
            res, rw, _ = parse(lines)
            if code != 0 or not res or not res["correct"]:
                sys.exit("perfbench: %s seed %d failed (exit %d): %s" % (w, seed, code, lines[-3:]))
            for m in end_to_end:
                cal.setdefault(m, []).append(res["metrics"][m]["value"])
            for m, v in rw.items():
                raw.setdefault(m, []).append(v)
            print("# %s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (m, res["metrics"][m]["value"]) for m in end_to_end)), flush=True)
        for m in end_to_end + [m for m in raw if m not in cal]:
            line = "%-16s %-16s" % (w, m)
            if m in cal:
                med, q1, q3, sp = spread(cal[m])
                line += " %12.4f %12.4f %12.4f %8.4f" % (med, q1, q3, sp)
            else:
                line += " %12s %12s %12s %8s" % ("", "", "", "")
            if m in raw:
                med, _, _, sp = spread(raw[m])
                line += "   %12.4f %8.4f" % (med, sp)
            print(line, flush=True)


def selftest(seconds):
    ok = True
    for w in spec()[0]:
        good, corruptions = selftest_run(w, "", seconds)
        if not corruptions:
            print("%-16s lists no corruption  WRONG" % w)
        ok = ok and good and corruptions != []
        for kind in corruptions:
            good, _ = selftest_run(w, kind, seconds)
            ok = ok and good
    if not ok:
        sys.exit("perfbench: self-test failed")
    print("self-test passed: every corruption fails its check")


def selftest_run(w, kind, seconds):
    """Run w clean (kind "") or corrupted; return whether the check
    behaved (passed clean, failed corrupted) and the corruptions listed."""
    args = ["--workload", w, "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    if kind:
        args += ["--corrupt", kind]
    code, lines = run_once(args)
    res, _, corruptions = parse(lines)
    frac = res["metrics"]["ok_frac"]["value"] if res else float("nan")
    want_fail = kind != ""
    good = res is not None and (res["correct"] != want_fail) and ((frac < 1) == want_fail)
    print("%-16s %-10s exit=%d correct=%-5s ok_frac=%.3f  %s" %
          (w, kind or "clean", code, res and res["correct"], frac, "ok" if good else "WRONG"), flush=True)
    return good, corruptions


def main():
    ap = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    ap.add_argument("--report", type=int)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--seconds", type=float)
    known, rest = ap.parse_known_args()
    build()
    if known.report:
        report(known.report, known.seconds or 30)
    elif known.selftest:
        selftest(known.seconds or 4)
    else:
        args = rest + (["--seconds", str(known.seconds)] if known.seconds else [])
        code, lines = run_once(args)
        for line in lines:
            print(line)
        sys.exit(code)


if __name__ == "__main__":
    main()
