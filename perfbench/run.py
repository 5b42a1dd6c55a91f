"""latcover benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a latcover checkout. It builds the workload's
inputs and expected outputs from the seed (perfbench/workloads.py), starts
fresh worker processes (perfbench/worker.py) with BLAS pinned to one
thread, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The metric names and units
are those of BENCHMARK.json: its `end_to_end` metrics with --trace 0, its
`per_layer` metrics with --trace 1. Each run also writes its record, with
the machine and settings, to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIME_LIMIT_S = 170.0
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# set-up-only processes run before and again after the measuring one, so
# the set-up median samples the host at both ends of the run
SETUP_PROBES_EACH_SIDE = 3
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine(args) -> dict:
    uname = platform.uname()
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "system": f"{uname.system} {uname.release} {uname.machine}",
            "python": platform.python_version(), "blas_env": PINNED,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def tail(latencies):
    """(value, percentile): the highest of the percentiles 50, 75, 90, 95,
    99 and 99.9 that leaves at least ten samples beyond it. Below 40
    samples that is the median; with fewer than 20 no percentile above the
    median qualifies, and the median is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max([p for p in LADDER if n * (100.0 - p) / 100.0 >= 10] or [50.0])
    if pct == 50.0:
        return statistics.median(ordered), pct
    return ordered[min(n - 1, math.ceil(n * pct / 100.0) - 1)], pct


def worker(plan_path: Path, *extra: str, deadline: float) -> dict:
    env = dict(os.environ, **PINNED)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), *extra],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    presets_root = ROOT / "src" / "latcover" / "presets"
    if not (ROOT / "src" / "latcover" / "cli.py").is_file():
        return fail(f"no latcover sources under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    import workloads  # numpy is imported here, after the checks above

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    plan = workloads.build(args.workload, args.seed, presets_root, OUT)
    plan["root"] = str(ROOT)
    plan_path = OUT / f"plan-{tag}.json"
    plan_path.write_text(json.dumps(plan))

    extra = ["run", "--seconds", str(args.seconds)]
    if args.trace:
        extra += ["--trace-out", str(OUT / f"trace-{tag}.json")]

    def probes():
        return [worker(plan_path, "setup", deadline=deadline)["setup_s"]
                for _ in range(SETUP_PROBES_EACH_SIDE)]

    try:
        before = probes()
        res = worker(plan_path, *extra, deadline=deadline)
        setups = before + [res["setup_s"]] + probes()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    finally:
        plan_path.unlink()

    lat = res["latencies"]
    attempted, failed = len(lat), len(res["failures"])
    tail_s, tail_pct = tail(lat)
    values = {
        "op_latency_p50_s": statistics.median(lat),
        "op_latency_tail_s": tail_s,
        "ops_per_s": attempted / res["busy_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    notes = {"op_failure_ratio": failed / attempted,
             "tail_percentile": tail_pct, "samples": attempted,
             "cycles": res["cycles"], "setup_samples_s": setups,
             "failures": res["failures"][:5]}
    if args.trace:
        layers = res["layers"]
        values.update(layers)
        nominal = layers.get("pathlift.relator_path.nominal", 0)
        if nominal:
            values["pathlift.relator_path.sample_ratio"] = (
                layers["pathlift.relator_path.samples"] / nominal)
        values["trace.overhead_ratio"] = res["overhead_ratio"]
        values["trace.cycle_s"] = res["traced_cycle_s"]
        idle = {name.rsplit(".", 1)[0] for name, v in layers.items()
                if name.endswith(".calls") and v == 0}
        notes["absent"] = {layer: "not called in this workload; its metrics read 0"
                           for layer in sorted(idle)}
        shares = {name[:-len(".self_s")]: v / layers["cli.main.busy_s"]
                  for name, v in layers.items() if name.endswith(".self_s")}
        notes["self_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1])[:5])
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[section]}
    record = {"machine": dict(machine(args), **res["worker_info"]), "notes": notes,
              "metrics": values, "latencies_s": lat}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print("# machine " + json.dumps(record["machine"]))
    print("# notes " + json.dumps(notes))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
