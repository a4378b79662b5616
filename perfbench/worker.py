"""One pass of a workload in a fresh, single-threaded interpreter.

Usage (the runner starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py <workload> <seed> <0|1|setup> [spans path]

The third argument is 1 for a traced pass, and ``setup`` for a pass that
only sets up.

Set-up imports verkit from the checkout's ``src`` and builds every input
graph through the library.  Then one caller issues the ops in order, each
after the previous one returned (a closed loop), with no threads or
subprocesses.  Every route's answer, or the name of the error it raised, is
printed as one JSON line for the runner to check against the reference.

From its start to its last op, an interval timer makes the worker time a
short fixed loop (``reference_loop``) every ``PACE_EVERY_S``, from a signal
handler in the one thread, also in the middle of a long op.  Other tenants
of the host change its speed by up to 2x, in spells from under a second to
minutes; these probes tell the runner how fast the host was during each op.
The runner takes their time back out of the op or set-up they fell in.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONSTRUCTORS = {"trinode", "caterpillar", "dumbbell", "theta_graph",
                "loop_with_leg"}
PACE_EVERY_S = 0.01  # interval of the pace probes


def reference_loop() -> int:
    """Fixed work of the library's kind, 0.1 to 0.2 ms: the host's speed gauge.

    Small tuples built, sorted and keyed into a dict, as graph and class
    code does.  A tight loop of dict and str calls slows down more than the
    library when the host is loaded (time ratio 2x where the library's is
    1.75x); this mix slows down like the library.
    """
    items = [(i * 7919 % 211, i, (i, i + 1)) for i in range(300)]
    items.sort()
    d = {t[0]: t for t in items}
    return len(d) + len(frozenset(t[1] for t in items))


class Pacer:
    """Pace probes: (start, seconds) of each run of the reference loop."""

    def __init__(self):
        self.paces: list = []

    def probe(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.paces.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S, PACE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def build(vk, recipe: dict):
    if recipe["build"] == "new_graph":
        return vk.new_graph([(v, 0) for v in recipe["vertices"]],
                            recipe["edges"], recipe["legs"])
    if recipe["build"] not in CONSTRUCTORS:
        raise ValueError(f"unknown graph recipe {recipe['build']!r}")
    return getattr(vk, recipe["build"])(*recipe.get("args", ()))


def calls(vk, G: dict, op: tuple) -> list:
    """The library calls one op makes, in the order check.expected names
    their routes."""
    kind = op[0]
    if kind == "sweep":
        _, key, r = op
        return [lambda: [vk.count_points(G[key], r, L)
                         for L in range(sum(r) + 3)]]
    if kind == "count":
        _, key, r, L = op
        return [lambda: vk.count_points(G[key], r, L)]
    if kind == "count_closed":
        _, key, r, L = op
        g = G[key].total_genus
        return [lambda: vk.count_points(G[key], r, L),
                lambda: vk.verlinde_closed_form(g, r, L)]
    if kind == "verlinde":
        _, g, r, L = op
        out = [lambda: vk.verlinde(g, r, L),
               lambda: vk.verlinde_closed_form(g, r, L)]
        if g == 0 and len(r) == 4:
            out.append(lambda: vk.factorization_4point(*r, L))
        return out
    if kind == "enumerate_trivalent":
        return [lambda: len(vk.enumerate_trivalent(*op[1:]))]
    if kind == "enumerate_stable":
        return [lambda: len(vk.enumerate_stable(*op[1:]))]
    if kind == "contraction_poset":
        def poset():
            p = vk.contraction_poset(*op[1:])
            return [len(p.classes), len(p.hasse), len(p.flips)]
        return [poset]
    if kind == "flip_connectivity":
        return [lambda: list(vk.flip_connectivity(*op[1:]))]
    if kind == "canonical_label":
        return [lambda: G[op[1]].canonical_label.hex()]
    if kind == "bruteforce":
        _, key, r, L = op
        return [lambda: vk.count_points_bruteforce(G[key], r, L)]
    if kind == "classical":
        _, key, r = op
        return [lambda: vk.count_classical(G[key], r)]
    if kind == "gorenstein":
        def gorenstein():
            holds, certificates = vk.gorenstein_check(G[op[1]], op[2])
            return [holds, len(certificates)]
        return [gorenstein]
    if kind == "degree_one":
        def degree_one():
            holds, certificates = vk.degree_one_generation_check(G[op[1]], op[2])
            return [holds, len(certificates)]
        return [degree_one]
    if kind == "hilbert_cox":
        return [lambda: list(vk.hilbert_cox(G[op[1]], op[2]).values)]
    if kind == "hilbert_projective":
        _, key, r, L, top = op
        return [lambda: list(vk.hilbert_projective(G[key], r, L, top).values)]
    raise ValueError(f"unknown op kind {kind!r}")


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    pacer = Pacer()
    pacer.start()
    sys.path.insert(0, str(SRC))
    from workloads import make_workload

    recipes, ops = make_workload(workload, seed)
    import verkit as vk

    if Path(vk.__file__).resolve().parent != SRC / "verkit":
        print(f"verkit imported from {vk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    G = {key: build(vk, recipe) for key, recipe in recipes.items()}
    tracer = None
    if mode == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t_setup = time.perf_counter()
    if mode == "setup":
        pacer.stop()
        pacer.probe()
        json.dump({"t_setup": t_setup, "paces": pacer.paces}, sys.stdout)
        return 0
    answers, starts, latencies = [], [], []
    for index, op in enumerate(ops):
        t0 = time.perf_counter()
        if tracer:
            span = tracer.begin_op(index, op[0])
        out = []
        for call in calls(vk, G, op):
            try:
                out.append(call())
            except Exception as exc:  # a failed route is a result to check
                out.append({"error": f"{type(exc).__name__}: {exc}"[:200]})
        if tracer:
            tracer.end_op(op[0], *span)
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        answers.append(out)
    pacer.stop()
    pacer.probe()

    result = {"t_setup": t_setup, "starts": starts, "latencies": latencies,
              "paces": pacer.paces, "answers": answers,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result["trace"] = tracer.summary()
        if len(argv) > 3:
            tracer.write(Path(argv[3]))
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
