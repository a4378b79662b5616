"""Benchmark one verkit workload end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload count_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from the checkout's ``src``.  The
op list and the exact reference come from the seed before anything is timed.
Then passes run one after another while the next one fits in ``--seconds``
(at least three, or four when traced).  Each pass is a fresh single-threaded
interpreter (``worker.py``) that sets up and issues every op in a closed
loop; its answers are checked here against the reference.

Times are scaled to a steady host speed.  Other tenants of the shared host
slow it by up to 2x, in spells from under a second to minutes, about the
same for every op, so two runs of the same code minutes apart differ by more
than any bound.  From its start to its last op, a timer has each pass time a
fixed reference loop every 10 ms (``worker.Pacer``).  Each op's latency,
less the probes that fell in it, is multiplied by the mean of ``REF_PACE_S``
over the probe times during the op and the two on either side of it; set-up
time likewise, with the probes during set-up.  The unscaled figures are
printed too.

With ``--trace 0`` the metrics are the end-to-end ones: each op's scaled
latency is its median over the passes; memory is the median over the passes,
and set-up time the median over the passes and two set-up-only passes after
each.  With ``--trace 1`` untraced and traced passes alternate, and the
metrics are the per-layer ones from the traced passes (unscaled), the
tracing overhead, and the cold-start split of the import and the CLI.  Every
metric is printed by name and unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of the last
traced pass go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import KNOWN_DEFECTS, expected, judge
from workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).with_name("worker.py")
RUN_LIMIT_S = 150.0   # stop starting passes past this; a run must end within 180 s
PROBES = 3            # cold-start samples per probe in a traced run
SETUPS_PER_PASS = 2   # set-up-only passes after each untraced pass
# The reference loop's time on the unloaded host the baseline was taken on
# (its 1st percentile over 20 s on a 2-vCPU Xeon VM at 2.1 GHz, Python
# 3.11).  Scaled times read as seconds on that host at that speed.
REF_PACE_S = 0.0001
# One interpreter thread per pass; numpy's BLAS pools stay at one thread.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                  OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics: (name, unit).  Times are summed self time per pass.
PER_LAYER = [
    ("lattice.count_points.calls", "count"),
    ("lattice.count_points.self_s", "s"),
    ("lattice.count_cox.self_s", "s"),
    ("lattice.tensordot.calls", "count"),
    ("lattice.tensordot.self_s", "s"),
    ("lattice.tensordot.out_elems", "count"),
    ("lattice.tensordot.max_out_elems", "count"),
    ("lattice.count_points_bruteforce.self_s", "s"),
    ("lattice.count_classical.self_s", "s"),
    ("lattice.brute_assignments", "count"),
    ("verlinde.verlinde.self_s", "s"),
    ("verlinde.standard_graph.calls", "count"),
    ("verlinde.standard_graph.self_s", "s"),
    ("verlinde.verlinde_closed_form.self_s", "s"),
    ("verlinde.verlinde_closed_form.failed", "count"),
    ("graphs.new_graph.calls", "count"),
    ("graphs.new_graph.self_s", "s"),
    ("graphs.canonical_label.calls", "count"),
    ("graphs.canonical_label.self_s", "s"),
    ("graphs.canonical_label.failed", "count"),
    ("graphs.contract_edge.self_s", "s"),
    ("moduli.enumerate_trivalent.self_s", "s"),
    ("moduli.enumerate_trivalent.classes", "count"),
    ("moduli.enumerate_trivalent.candidates", "count"),
    ("moduli.classes_per_candidate", "ratio"),
    ("moduli.flip_neighbors.self_s", "s"),
    ("moduli.contraction_poset.self_s", "s"),
    ("semigroup.gorenstein_check.self_s", "s"),
    ("semigroup.degree_one_generation_check.self_s", "s"),
    ("semigroup.hilbert_cox.self_s", "s"),
    ("semigroup.points_yielded", "count"),
    ("semigroup.assignments", "count"),
    ("semigroup.points_per_assignment", "ratio"),
    ("cli.cold_start_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("cli.import_verkit_s", "s"),
    ("trace.overhead_share", "ratio"),
]


class BenchError(Exception):
    """The run cannot produce a result."""


def _spawn(cmd: list, deadline: float) -> tuple[float, str, str, float]:
    """Run cmd to completion; (start, stdout, stderr, end) on exit code 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=WORKER_ENV)
    try:
        out, err = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:3]} did not finish before the run's time limit")
    finally:  # also on SIGTERM or Ctrl-C: leave no worker behind
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return t0, out, err, t1


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One worker pass; mode is "0", "1" (traced) or "setup"."""
    cmd = [sys.executable, str(WORKER), workload, str(seed), mode]
    if mode == "1":
        cmd.append(str(OUT / f"spans-{workload}-{seed}.jsonl.gz"))
    t_spawn, out, _, _ = _spawn(cmd, deadline)
    result = json.loads(out.splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and worker.
    result["setup_raw_s"] = result["t_setup"] - t_spawn
    paces = result.pop("paces")
    result["setup_s"] = scale([t_spawn], [result["setup_raw_s"]], paces)[0]
    if mode != "setup":
        result["scaled"] = scale(result.pop("starts"), result["latencies"], paces)
    return result


def scale(starts: list, latencies: list, paces: list) -> list:
    """Each op's latency at the reference speed.

    The probes that started during an op are taken out of its latency.  The
    host's speed during the op is the mean speed those probes and the two
    before and after them saw.
    """
    at = [t for t, _ in paces]
    out = []
    for t0, lat in zip(starts, latencies):
        k0 = bisect.bisect_left(at, t0)
        k1 = bisect.bisect_left(at, t0 + lat)
        inside = sum(d for _, d in paces[k0:k1])
        speed = statistics.fmean(REF_PACE_S / d for _, d in paces[max(k0 - 2, 0):k1 + 2])
        out.append((lat - inside) * speed)
    return out


def cold_start(deadline: float) -> dict:
    """Median import times (python -X importtime) and CLI cold start."""
    prefix = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    imports = {"numpy": [], "verkit": []}
    cli = []
    argv = ["verlinde", "--genus", "1", "--weights", "", "--level", "7",
            "--method", "all"]
    for _ in range(PROBES):
        _, _, err, _ = _spawn([sys.executable, "-X", "importtime", "-c",
                               prefix + "import verkit"], deadline)
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[-1].strip() in imports:
                imports[parts[-1].strip()].append(int(parts[1]) / 1e6)
        t0, out, _, t1 = _spawn(
            [sys.executable, "-c", prefix + "from verkit.cli import main; "
             f"sys.exit(main({argv!r}))"], deadline)
        if out.split() != ["8", "8", "8"]:
            raise BenchError(f"CLI cold start printed {out!r}, expected 8 8 8")
        cli.append(t1 - t0)
    if not all(imports.values()):
        raise BenchError(f"-X importtime gave no line for {imports}")
    return {"cli.cold_start_s": statistics.median(cli),
            "cli.import_numpy_s": statistics.median(imports["numpy"]),
            "cli.import_verkit_s": statistics.median(imports["verkit"])}


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def op_medians(passes: list, key: str = "scaled") -> list:
    """Each op's median latency over the passes, in seconds."""
    return [statistics.median(lat) for lat in zip(*(p[key] for p in passes))]


def layer_metrics(traced: list, verdicts: list, probes: dict,
                  overhead: float) -> dict:
    def per_pass(name: str, res: dict, verdict: dict) -> float:
        t = res["trace"]
        counts = t["counts"]
        if name.endswith(".failed"):
            return verdict["route_failures"][name.split(".")[1]]
        if name.endswith(".calls"):
            return t["calls"].get(name[: -len(".calls")], 0)
        if name.endswith(".self_s"):
            return t["self_s"].get(name[: -len(".self_s")], 0.0)
        if name == "moduli.classes_per_candidate":
            base = counts.get("moduli.enumerate_trivalent.candidates", 0)
            return counts.get("moduli.enumerate_trivalent.classes", 0) / base if base else 0.0
        if name == "semigroup.points_per_assignment":
            base = counts.get("semigroup.assignments", 0)
            return counts.get("semigroup.points_yielded", 0) / base if base else 0.0
        return counts.get(name, 0)

    metrics = {}
    for name, unit in PER_LAYER:
        if name in probes:
            value = probes[name]
        elif name == "trace.overhead_share":
            value = overhead
        else:
            value = statistics.median(per_pass(name, r, v) for r, v in zip(traced, verdicts))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "verkit" / "__init__.py").is_file():
        print(f"no verkit sources under {SRC}", file=sys.stderr)
        return 2
    graphs, ops = make_workload(args.workload, args.seed)
    wants = [expected(op, graphs) for op in ops]  # before anything is timed

    probes = cold_start(deadline) if args.trace else {}
    passes, verdicts = [], []
    min_passes = 4 if args.trace else 3
    t0 = time.perf_counter()
    setups = []   # set-up times of the untraced passes and set-up-only ones
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        res = run_pass(args.workload, args.seed, "1" if traced else "0", deadline)
        res["traced"] = traced
        passes.append(res)
        verdicts.append(judge(ops, graphs, wants, res.pop("answers")))
        if not args.trace:
            setups.append(res)
            setups += [run_pass(args.workload, args.seed, "setup", deadline)
                       for _ in range(SETUPS_PER_PASS)]
        now = time.perf_counter()
        per_pass = (now - t0) / len(passes)
        if now + per_pass > deadline:
            break
        # Start no pass that would end past --seconds, once there are enough.
        if len(passes) >= min_passes and now - t0 + per_pass > args.seconds:
            break

    attempted = len(ops) * len(passes)
    failed_ops = sum(v["failed_ops"] for v in verdicts)
    unexpected = [u for v in verdicts for u in v["unexpected"]]
    name = args.workload
    print(f"{name}: seed {args.seed}, {len(ops)} ops per pass, {len(passes)} "
          f"passes of one closed-loop caller each, in {time.perf_counter() - started:.1f} s")
    print(f"{name} failed_share {failed_ops / attempted:.4f} ratio "
          f"({failed_ops} of {attempted} ops)")
    defects = verdicts[0]["defects"]  # the op list is the same every pass
    for key, text in KNOWN_DEFECTS.items():
        if defects[key]:
            print(f"{name} known defect {key}: {defects[key]} ops per pass; {text}")
    for index, op, got in unexpected[:5]:
        print(f"{name} FAILED op {index} {op!r}: got {str(got)[:300]}", file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        traced_verdicts = [v for p, v in zip(passes, verdicts) if p["traced"]]
        overhead = sum(op_medians(traced)) / sum(op_medians(plain))
        metrics = layer_metrics(traced, traced_verdicts, probes, overhead)
    else:
        # The op list's time is the sum of the per-op medians; set-up and
        # memory are medians over the passes.
        op_ms = [1e3 * t for t in op_medians(plain)]
        values = {"setup_s": statistics.median(p["setup_s"] for p in setups),
                  "wall_s": sum(op_ms) / 1e3,
                  "op_p50_ms": statistics.median(op_ms),
                  "op_tail_ms": tail(op_ms)[0],
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        pct = tail(plain[0]["latencies"])[1]
        print(f"{name} op_tail_ms is p{pct:.2f} of {len(ops)} ops per pass, "
              f"10 samples above it")
        raw_ms = [1e3 * t for t in op_medians(plain, "latencies")]
        print(f"{name} unscaled: setup_s "
              f"{statistics.median(p['setup_raw_s'] for p in setups):.6g} s, wall_s "
              f"{sum(raw_ms) / 1e3:.6g} s, op_p50_ms {statistics.median(raw_ms):.6g} ms, "
              f"op_tail_ms {tail(raw_ms)[0]:.6g} ms")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
