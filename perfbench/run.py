#!/usr/bin/env python3
"""Repository benchmark: host cost of paper-shaped offload runs.

    python3 perfbench/run.py --workload stencil|alltoall|lossy_stencil \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. Builds `perfbench-runner` (a package of
its own under `perfbench/`, target dir `$CARGO_TARGET_DIR`, default
`.bench_build`), then starts it once per repetition, with the same seed,
until `--seconds` of repetitions are spent. Each repetition is its own
process, so peak memory and CPU time are per repetition; the reported
figure is the median over repetitions (step percentiles pool every
repetition's rank-0 iterations).

Every repetition passes the correctness gate or the run reports
`"correct": false`: no typed request failure, every received payload
verified, no conformance violation, and the digest of simulated
statistics equal across the run's repetitions, traced or not.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` repetitions alternate untraced and traced and it
carries the per-layer metrics. Raw repetition records go to
`perfbench/out/`. See `perfbench/README.md` for what each metric means.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("stencil", "alltoall", "lossy_stencil")
# Step percentiles need ten samples beyond p90.
MIN_STEPS = 100
MIN_REPS = 4
# Never let one run approach the 180 s limit, whatever the machine does.
HARD_CAP_S = 120.0
# Variables that would change what the engine does or where it writes.
SCRUB_ENV = ("SIMNET_THREADS", "SIMNET_CHAOS", "FAULT_PLAN", "BF_FAILURE_DUMP_DIR")


def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        sys.exit("error: building perfbench-runner failed")
    return os.path.join(target, "release", "perfbench-runner")


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in SCRUB_ENV and not k.startswith("BENCH_")}
    env["RUST_BACKTRACE"] = "0"
    return env


def repetition(binary, workload, seed, traced, tiny):
    """One runner process: its JSON record plus wall, CPU and peak RSS."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").strip().splitlines()
    if code != 0 or not lines:
        return {"ok": False, "error": f"runner exited with {code}", "ext_wall_s": wall}
    rec = json.loads(lines[-1])
    rec.update(ok=True, ext_wall_s=wall, ext_cpu_s=ru.ru_utime + ru.ru_stime,
               peak_rss_mb=ru.ru_maxrss / 1024.0)
    return rec


def gate(rec, first):
    """Correctness problems of one repetition, as strings. Sets
    `rec["failures"]`: its failed requests (payload mismatches included),
    conformance violations, and one more for a crash or a mismatch."""
    if not rec["ok"]:
        rec["failures"] = 1
        return [rec["error"]]
    errs = []
    for key in ("failed", "corrupt", "violations"):
        if rec[key]:
            errs.append(f"{key}={rec[key]}")
    counted = len(errs)
    if rec["attempted"] < 1:
        errs.append("no offload request attempted")
    if first is not None:
        for key in ("digest", "virtual_ms"):
            if rec[key] != first[key]:
                errs.append(f"{key} {rec[key]} != {first[key]} of the first repetition")
    if rec["trace"] and rec["layers"]["core.host.api_calls"] != rec["workload_api_calls"]:
        errs.append("traced API calls differ from the calls the workload made")
    rec["failures"] = rec["failed"] + rec["violations"] + (len(errs) > counted)
    return errs


def percentile(samples, q):
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def measure(binary, args):
    # simnet lets one simulated process run at a time, so one core is all
    # a run can use; pinning to it takes cross-core wake-up latency, which
    # co-tenants make noisy, out of every hand-off. Children inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    reps, problems = [], []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rec = repetition(binary, args.workload, args.seed, traced, args.tiny)
        first = next((r for r in reps if r["ok"]), None)
        errs = gate(rec, first)
        rec["gate"] = errs
        problems += [f"repetition {len(reps)}: {e}" for e in errs]
        reps.append(rec)
        longest = max(longest, rec["ext_wall_s"])
        elapsed = time.perf_counter() - t0
        untraced = [r for r in reps if r["ok"] and not r["trace"]]
        steps = sum(len(r["step_ms"]) for r in untraced)
        enough = len(reps) >= MIN_REPS and (args.trace or steps >= MIN_STEPS)
        if not rec["ok"] or elapsed + longest > HARD_CAP_S:
            break
        if enough and elapsed + longest > args.seconds:
            break
    return reps, problems, time.perf_counter() - t0


def end_to_end(reps):
    plain = [r for r in reps if r["ok"] and not r["trace"]]
    med = lambda key: statistics.median(r[key] for r in plain)
    steps = [s for r in plain for s in r["step_ms"]]
    return {
        "wall_s": med("ext_wall_s"),
        "cpu_s": med("ext_cpu_s"),
        "setup_s": med("setup_s"),
        "xfers_per_s": statistics.median(r["xfers"] / r["measured_s"] for r in plain),
        "step_ms_p50": percentile(steps, 0.50),
        "step_ms_p90": percentile(steps, 0.90),
        "peak_rss_mb": med("peak_rss_mb"),
        "virtual_ms": med("virtual_ms"),
        "ops_ok_frac": 1.0 - sum(r["failed"] for r in plain)
        / max(1, sum(r["attempted"] for r in plain)),
    }, len(steps)


def per_layer(reps):
    traced = [r for r in reps if r["ok"] and r["trace"]]
    plain = [r for r in reps if r["ok"] and not r["trace"]]
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    out["trace.overhead_frac"] = (statistics.median(r["ext_wall_s"] for r in traced)
                                  / statistics.median(r["ext_wall_s"] for r in plain) - 1.0)
    out["env.nproc"] = float(os.cpu_count() or 0)
    out["env.loadavg"] = os.getloadavg()[0]
    return out


def run_one(binary, args):
    """Measure one workload; print its gate problems, info line and result."""
    load0 = os.getloadavg()
    reps, problems, spent = measure(binary, args)
    ok = [r for r in reps if r["ok"]]
    correct = not problems and any(not r["trace"] for r in ok) and (
        not args.trace or any(r["trace"] for r in ok))
    attempted = sum(r.get("attempted", 0) for r in reps) or 1
    failed = sum(r["failures"] for r in reps)
    metrics, nsteps, unit = {}, 0, units()
    if correct:
        if args.trace:
            metrics = {k: {"value": v, "unit": unit[k]} for k, v in per_layer(reps).items()}
        else:
            e2e, nsteps = end_to_end(reps)
            metrics = {k: {"value": v, "unit": unit[k]} for k, v in e2e.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump({"args": vars(args), "nproc": os.cpu_count(),
                   "cpus": sorted(os.sched_getaffinity(0)), "loadavg_start": load0,
                   "loadavg_end": os.getloadavg(), "seconds_spent": spent,
                   "problems": problems, "repetitions": reps}, f, indent=1)
    for p in problems:
        print(f"gate: {p}")
    digest = ok[0]["digest"] if ok else "-"
    print(f"info: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} step_samples={nsteps} digest={digest} "
          f"nproc={os.cpu_count()} cpus={sorted(os.sched_getaffinity(0))} "
          f"loadavg={load0[0]:.2f} spent_s={spent:.1f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return correct, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or `all` to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-long shapes for the self-tests")
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        return 0 if run_one(binary, args)[0] else 1
    table, all_correct = [], True
    for w in WORKLOADS:
        correct, metrics = run_one(binary, argparse.Namespace(**{**vars(args), "workload": w}))
        all_correct &= correct
        table += [f"{w:14s} {k:28s} {m['value']:16.6f} {m['unit']}" for k, m in metrics.items()]
    print("\n".join(table))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
