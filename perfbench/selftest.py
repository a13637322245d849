#!/usr/bin/env python3
"""Self-tests of the benchmark, on seconds-long tiny shapes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload, an untraced and a
traced run of the tiny shape must pass the correctness gate, and:

* every metric printed is listed in BENCHMARK.json, and every listed
  metric is printed (end-to-end untraced, per-layer traced);
* each attached sink was called once per event the `Metrics` sink
  counted (`obs.sink_calls.*` equals the `Metrics` `events` total);
* `core.host.api_calls` equals the Offload calls the workload issued;
* the simulated-statistics digest is the same traced and untraced.

Last, the benchmark must fail without printing a result when only
BENCHMARK.json and `perfbench/` are present (no engine crates to build).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in bench["workloads"]:
        w = w["name"]
        digests = set()
        for trace in (0, 1):
            code, lines = run(w, trace)
            result = json.loads(lines[-1]) if lines else {}
            expect(code == 0 and result.get("correct") is True,
                   f"{w} trace={trace}: tiny shape passes the correctness gate")
            printed = set(result.get("metrics", {}))
            expect(printed == names[trace],
                   f"{w} trace={trace}: printed metrics match BENCHMARK.json "
                   f"(extra {sorted(printed - names[trace])}, "
                   f"missing {sorted(names[trace] - printed)})")
            tag = f"{w}-tiny-seed{SEED}-trace{trace}.json"
            with open(os.path.join(HERE, "out", tag)) as f:
                reps = json.load(f)["repetitions"]
            digests |= {r["digest"] for r in reps}
            for r in (r for r in reps if r["trace"]):
                layers = r["layers"]
                sinks = {k: v for k, v in layers.items() if k.startswith("obs.sink_calls.")}
                attached = {k: v for k, v in sinks.items() if v}
                expect(attached and all(v == r["metrics_events"] for v in attached.values()),
                       f"{w}: every attached sink saw the Metrics events total "
                       f"{r['metrics_events']} ({attached})")
                expect(layers["core.host.api_calls"] == r["workload_api_calls"],
                       f"{w}: core.host.api_calls {layers['core.host.api_calls']:.0f} "
                       f"equals the workload's {r['workload_api_calls']} Offload calls")
                break
        expect(len(digests) == 1, f"{w}: one digest traced and untraced ({sorted(digests)})")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    code, lines = run("stencil", 0, cwd=bare, env=env)
    expect(code != 0 and not any(l.startswith("{") for l in lines),
           "without the engine crates the benchmark fails and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
