"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--smoke`` and
checks that each run exits 0 with a correct result, that it prints every
metric BENCHMARK.json names for that mode with the unit given there, and
that the traced run's spans have non-negative self times which, together
with their children's durations, fit inside each span. Exits 1 on failure.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_spans(path):
    spans = json.loads(path.read_text())["spans"]
    if not spans:
        return ["no spans written"]
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    errors = []
    for s in spans:
        dur = s["end"] - s["start"]
        if s["self_s"] < 0:
            errors.append(f"span {s['id']} {s['name']}: negative self time {s['self_s']}")
        if s["self_s"] + child_time.get(s["id"], 0.0) > dur + 1e-9:
            errors.append(f"span {s['id']} {s['name']}: self time plus children exceed it")
        if s["parent"] is not None and spans[s["parent"]]["row"] != s["row"]:
            errors.append(f"span {s['id']} {s['name']}: row id differs from its parent's")
    return errors


def main():
    failures = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            tag = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{tag}: exit code {proc.returncode}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                failures.append(f"{tag}: correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']}")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                failures.append(f"{tag}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if any(not isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                failures.append(f"{tag}: a metric value is not a number")
            if trace:
                spans = ROOT / ".perfbench_out" / f"trace-{workload}-seed0.json"
                failures += [f"{tag}: {e}" for e in check_spans(spans)]
            print(f"{tag}: {'ok' if not failures else 'FAILED'}", flush=True)
    for f in failures:
        print("FAILED: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
