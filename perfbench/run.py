"""Benchmark of the lod3recon pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload front-dense --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. Set-up (import, scene generation, config build and, for
`stage-replay`, one pipeline run) is repeated SETUP_REPS times and its
median reported as `setup_s`. Then timed operations run one at a time,
each in a fresh process, until `--seconds` have passed. Every operation
is checked: it must not raise or exit nonzero, its model must be
watertight with a mean surface deviation of at most 1e-6 m from the
ground-truth model at every opening it matched, and on `stage-replay`
its merged instances must equal the pipeline's. A missed opening is
not a failed operation; it lowers `da_pct`.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
traced and untraced operations, traced first, and reports the per-layer
metrics; the spans go to `.bench_work/trace-<workload>-s<seed>.json`. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
# Start no operation that would end the run later than this.
DEADLINE_S = 165.0


class WorkerFailed(RuntimeError):
    pass


def declared_units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def call_worker(job: dict, timeout: float) -> dict:
    """Run worker.py on `job` in a fresh process and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{job['mode']} timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerFailed(f"{job['mode']} exited with {proc.returncode}:\n{tail}")
    with open(job["result"], "r", encoding="utf-8") as fh:
        return json.load(fh)


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(setups, ops) -> dict:
    good = [o for o in ops if o["ok"]]
    metrics = {"setup_s": median(s["setup_s"] for s in setups)}
    for key in ("wall_s", "peak_rss_mb", "artifact_mb"):
        metrics[key] = median(o[key] for o in (good or ops))
    for key in ("da_pct", "precision_pct", "median_iou_pct"):
        metrics[key] = median(o[key] for o in good) if good else 0.0
    return metrics


def per_layer(setups, traced, untraced) -> dict:
    summaries = [o["summary"]["metrics"] for o in traced]
    metrics = {key: median(s[key] for s in summaries) for key in summaries[0]}
    metrics["cli.trace_overhead_s"] = (median(o["wall_s"] for o in traced)
                                       - median(o["wall_s"] for o in untraced))
    metrics["synth.scene_s"] = median(s["synth_s"] for s in setups)
    return metrics


def report_trace(path: Path, workload: str, inputs: dict, traced) -> None:
    """Print self time per layer and write every span, once, at run end."""
    for o in traced:
        summary = o["summary"]
        print(f"traced operation {o['spans'][0]['run_id']}: "
              f"{o['wall_s']:.3f} s; self time by layer:")
        for layer, self_s in sorted(summary["layer_self_s"].items(),
                                    key=lambda kv: -kv[1]):
            print(f"  {layer:<12} {self_s:9.4f} s  "
                  f"{100.0 * self_s / o['wall_s']:5.1f} %")
        print("  calls: " + ", ".join(f"{name} x{n}" for name, n
                                      in sorted(summary["calls"].items())))
        if summary["unwrapped"]:
            print(f"WARNING: cli self time is "
                  f"{100.0 * summary['cli_self_share']:.1f} % of the traced "
                  f"wall time; a stage call went unwrapped", file=sys.stderr)
    record = {"workload": workload, "inputs": inputs,
              "operations": [dict(o["summary"], run_id=o["spans"][0]["run_id"],
                                  wall_s=o["wall_s"]) for o in traced],
              "spans": [s for o in traced for s in o["spans"]]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"spans written to {path.relative_to(ROOT)}")


def run(args) -> int:
    started = time.perf_counter()
    units = declared_units("per_layer" if args.trace else "end_to_end")
    work = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scene = work / "scene"
    job = {"workload": args.workload, "seed": args.seed,
           "scene_dir": str(scene), "result": str(work / "result.json")}

    setups = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(scene, ignore_errors=True)
        setups.append(call_worker(dict(job, mode="setup"),
                                  DEADLINE_S - (time.perf_counter() - started)))
    setup = setups[-1]

    # With --trace 1, traced and untraced operations alternate, traced first.
    ops = []
    measure_start = time.perf_counter()
    while True:
        k = len(ops)
        traced = bool(args.trace) and k % 2 == 0
        out = work / f"op{k}"
        op_start = time.perf_counter()
        try:
            ops.append(call_worker(
                dict(job, mode="op", setup=setup, out_dir=str(out),
                     traced=traced, run_id=f"{args.workload}-s{args.seed}-op{k}"),
                DEADLINE_S - (op_start - started)))
        except WorkerFailed as exc:
            ops.append({"ok": False, "traced": traced, "error": str(exc),
                        "wall_s": time.perf_counter() - op_start,
                        "peak_rss_mb": 0.0, "artifact_mb": 0.0})
        shutil.rmtree(out, ignore_errors=True)
        now = time.perf_counter()
        done = (now - measure_start >= args.seconds
                and (not args.trace or len(ops) >= 2))
        if done or now - started + 1.5 * (now - op_start) > DEADLINE_S:
            break

    failed = [o for o in ops if not o["ok"]]
    for o in failed:
        print(f"failed operation: {o['error']}", file=sys.stderr)
    print(f"workload {args.workload}: {len(ops)} operations, {len(failed)} "
          f"failed, error_rate {len(failed) / len(ops):.3f}")
    print("inputs " + json.dumps(setup["inputs"]))
    print("set-up s: " + " ".join(f"{s['setup_s']:.3f}" for s in setups)
          + "; operation s: " + " ".join(f"{o['wall_s']:.3f}" for o in ops))
    traced = [o for o in ops if o["traced"] and "summary" in o]
    untraced = [o for o in ops if not o["traced"]]
    if args.trace:
        if not traced or not untraced:
            print("error: the run needs one traced and one untraced operation",
                  file=sys.stderr)
            return 1
        metrics = per_layer(setups, traced, untraced)
        report_trace(WORK / f"trace-{args.workload}-s{args.seed}.json",
                     args.workload, setup["inputs"], traced)
        traced_wall = median(o["wall_s"] for o in traced)
        shares = {name: f"  {100.0 * value / traced_wall:5.1f} % of traced wall"
                  for name, value in metrics.items() if units[name] == "s"}
    else:
        metrics = end_to_end(setups, ops)
        shares = {}
        fa = [o["fa_pct"] for o in ops if o["ok"]]
        missed = sum(o.get("missed", 0) for o in ops)
        print(f"setup_s is the median of {len(setups)} set-ups; wall_s, "
              f"peak_rss_mb and artifact_mb the median of {len(ops)} "
              f"operations; fa_pct {median(fa) if fa else 'n/a'} "
              f"(reported as precision_pct = 100 - fa_pct); "
              f"{missed} ground-truth openings missed in all")
    if set(metrics) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:14.6f} {unit:<6}{shares.get(name, '')}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lod3recon" / "cli.py").is_file():
        print(f"error: no lod3recon sources under {ROOT / 'src'}; run from "
              f"the root of a source checkout", file=sys.stderr)
        return 2
    try:
        return run(args)
    except WorkerFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
