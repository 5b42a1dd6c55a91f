"""One benchmark process: set up, then run a workload's command cycle in a
closed loop (one client; each command starts when the previous one ends).

    python3 worker.py PLAN setup
    python3 worker.py PLAN run --seconds S [--trace-out FILE]

`setup` times `import latcover.cli` plus one `presets.dm_lattice` per preset
of the plan and prints {"setup_s": ...}. `run` does the same set-up, then
calls `latcover.cli.main(argv)` in this process for each command, captures
stdout, checks it against the plan, and prints one JSON line with the
latencies, failures and peak RSS. With --trace-out it alternates untraced
and traced cycles and writes the traced cycles' spans and counts to FILE.

latcover is imported before any other numeric module, so the set-up time
includes the numpy and mpmath imports a user of the CLI pays.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List, Optional

from tracer import SIZE_STATS, TARGETS, Tracer

REL_TOL = 1e-8  # relative to max(1, |reference|); the CLI prints 9 decimals


def _complex(re_text: str, im_text: str) -> complex:
    return complex(float(re_text), float(im_text.rstrip("i")))


def _close(value: complex, ref: complex) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref)) + 1e-9


def _check_path(spec: Dict, out: str) -> Optional[str]:
    lines = out.split("\n")
    boundaries = [complex(re, im) for re, im in spec["boundaries"]]
    if spec["first"] == "endpoint":
        head, *parts = lines[0].split()
        if head != "endpoint:" or len(parts) != 2:
            return f"bad endpoint line {lines[0]!r}"
        if not _close(_complex(*parts), boundaries[-1]):
            return f"endpoint {lines[0]!r} is not {boundaries[-1]}"
    elif lines[0] != spec["first"]:
        return f"first line {lines[0]!r} is not {spec['first']!r}"
    if lines[1] != "s,re,im" or lines[-1] != "":
        return "sample table header or trailing newline missing"
    nletters = spec["letters"]
    seen = []
    prev_s = -1.0
    for row in lines[2:-1]:
        s_text, re_text, im_text = row.split(",")
        s = float(s_text)
        if s <= prev_s:
            return f"sample parameters not increasing at {row!r}"
        prev_s = s
        pos = s * nletters
        if abs(pos - round(pos)) < 1e-6 and round(pos) >= 1:
            seen.append(complex(float(re_text), float(im_text)))
    if lines[2] != "0.000000000,1.000000000,0.000000000" or abs(prev_s - 1.0) > 1e-9:
        return "path does not run from s=0 at 1 to s=1"
    if len(seen) != len(boundaries):
        return f"{len(seen)} segment ends, expected {len(boundaries)}"
    for k, (got, ref) in enumerate(zip(seen, boundaries)):
        if not _close(got, ref):
            return f"segment {k} ends at {got}, reference {ref}"
    return None


def _check_free_abelian(rank: int, out: str) -> Optional[str]:
    """A presentation on `rank` generators whose relators all have exponent
    sum 0 in every generator: its abelianization is Z^rank."""
    head, *relators = out.rstrip("\n").split("\n")
    gens = head.split()[1:]
    if not head.startswith("generators:") or len(gens) != rank:
        return f"expected {rank} generators, got {head!r}"
    for rel in relators:
        sums = dict.fromkeys(gens, 0)
        for syllable in rel.split("*"):
            name, _, exp = syllable.partition("^")
            sums[name] += int(exp) if exp else 1
        if any(sums[g] for g in gens):
            return f"relator {rel!r} has a nonzero exponent sum"
    return None


def check(cmd: Dict, rc: int, out: str) -> Optional[str]:
    """None if the command's exit code and stdout match the plan."""
    if rc != cmd["rc"]:
        return f"exit code {rc}, expected {cmd['rc']}"
    if "text" in cmd and out != cmd["text"]:
        return "stdout differs from the expected bytes"
    if "lines" in cmd:
        have = set(out.split("\n"))
        missing = [ln for ln in cmd["lines"] if ln not in have]
        if missing:
            return f"missing lines {missing[:3]}"
    if "free_abelian" in cmd:
        try:
            problem = _check_free_abelian(cmd["free_abelian"], out)
        except (KeyError, ValueError) as exc:
            problem = f"unparsable presentation: {exc}"
        if problem:
            return problem
    if "path" in cmd:
        try:
            return _check_path(cmd["path"], out)
        except (ValueError, IndexError) as exc:
            return f"unparsable path output: {exc}"
    return None


def run_cycle(cli, cycle: List[Dict]) -> Dict:
    """Run every command once; latencies exclude the output checks."""
    latencies, failures = [], []
    start = time.perf_counter()
    for cmd in cycle:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(cmd["argv"])
            except Exception:  # a crash is a failed command, not a lost run
                traceback.print_exc()
                rc = None
            latencies.append(time.perf_counter() - t0)
        problem = check(cmd, rc, out.getvalue())
        if problem:
            failures.append(f"{' '.join(cmd['argv'][:3])}: {problem}; "
                            f"stderr {err.getvalue()[-200:]!r}")
    return {"latencies": latencies, "failures": failures,
            "wall_s": time.perf_counter() - start, "busy_s": sum(latencies)}


def closed_loop(step: Callable[[], object], seconds: float, min_steps: int) -> List:
    """Call `step` until another call would end past the deadline, and at
    least `min_steps` times; return the results."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if len(results) >= min_steps and elapsed + elapsed / len(results) > seconds:
            return results


def per_cycle_stats(tracer, ncycles: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for prefix, *_ in TARGETS:
        stat = tracer.stats.get(prefix, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key, value in stat.items():
            out[f"{prefix}.{key}"] = value if key in SIZE_STATS else value / ncycles
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    src = Path(plan["root"]) / "src"
    sys.path.insert(0, str(src))
    # one CPU, away from CPU 0, which takes most interrupts; no migrations
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    t0 = time.perf_counter()
    import latcover.cli as cli
    from latcover import presets
    for preset in plan["presets"]:
        presets.dm_lattice(preset)
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"latcover was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import mpmath

    cycle = plan["cycle"]
    result = {"setup_s": setup_s, "worker_info": {
        "numpy": numpy.__version__, "mpmath": mpmath.__version__, "worker_cpu": cpu}}
    if args.trace_out is None:
        cycles = closed_loop(lambda: run_cycle(cli, cycle), args.seconds,
                             plan["min_cycles"])
    else:
        # untraced and traced cycles alternate, so the overhead ratio
        # compares cycles run moments apart, under the same host load
        tracer = Tracer()

        def pair():
            plain = run_cycle(cli, cycle)
            tracer.install()
            try:
                return plain, run_cycle(cli, cycle)
            finally:
                tracer.uninstall()

        pairs = closed_loop(pair, args.seconds, 1)
        result["traced_cycle_s"] = statistics.median(t["wall_s"] for _, t in pairs)
        result["overhead_ratio"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in pairs)
        result["layers"] = per_cycle_stats(tracer, len(pairs))
        Path(args.trace_out).write_text(json.dumps({
            "columns": ["id", "parent", "command", "name", "start", "end"],
            "spans": tracer.spans, "stats": tracer.stats, "cycles": len(pairs)}))
        cycles = [c for p in pairs for c in p]
    result["latencies"] = [x for c in cycles for x in c["latencies"]]
    result["busy_s"] = sum(c["busy_s"] for c in cycles)
    result["failures"] = [f for c in cycles for f in c["failures"]]
    result["cycles"] = len(cycles)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
