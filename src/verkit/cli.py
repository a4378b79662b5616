"""Command-line front end.

Every computation in the package is reachable through a subcommand; output
is deterministic, arbitrary-precision decimal on stdout, errors on stderr.
Exit codes: 0 success, 2 domain error (error class name included in the
message), 3 numerical residual failure, 1 cross-method disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NumericalResidual, VerkitError
from .graphs import MarkedGraph
from .lattice import (
    count_points,
    count_points_bruteforce,
    enumerate_points,
)
from .moduli import (
    contraction_poset,
    enumerate_stable,
    enumerate_trivalent,
    flip_complex,
    flip_dot,
    hasse_dot,
)
from .semigroup import (
    degree_one_generation_check,
    gorenstein_check,
    hilbert_cox,
    hilbert_projective,
)
from .verlinde import verlinde, verlinde_closed_form, verlinde_factor


def _parse_weights(text: str) -> tuple[int, ...]:
    text = (text or "").strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _load_graph(path: str) -> MarkedGraph:
    if path == "-":
        return MarkedGraph.from_json(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return MarkedGraph.from_json(fh.read())


def _emit(data) -> None:
    print(json.dumps(data, separators=(",", ":")))


def _cmd_verlinde(args) -> int:
    r = _parse_weights(args.weights)
    routes = {
        "count": verlinde,
        "closed": verlinde_closed_form,
        "factor": verlinde_factor,
    }
    if args.method == "all":
        values = {
            name: fn(args.genus, r, args.level) for name, fn in routes.items()
        }
        if args.json:
            _emit(
                {
                    "genus": args.genus,
                    "weights": list(r),
                    "level": args.level,
                    "values": {k: str(v) for k, v in values.items()},
                    "agree": len(set(values.values())) == 1,
                }
            )
        else:
            for name in ("count", "closed", "factor"):
                print(values[name])
        if len(set(values.values())) != 1:
            print(f"methods disagree: {values}", file=sys.stderr)
            return 1
        return 0
    value = routes[args.method](args.genus, r, args.level)
    if args.json:
        _emit(
            {
                "genus": args.genus,
                "weights": list(r),
                "level": args.level,
                "method": args.method,
                "value": str(value),
            }
        )
    else:
        print(value)
    return 0


def _cmd_count(args) -> int:
    graph = _load_graph(args.graph)
    r = _parse_weights(args.weights)
    fn = count_points_bruteforce if args.brute else count_points
    value = fn(graph, r, args.level)
    if args.json:
        _emit({"value": str(value)})
    else:
        print(value)
    return 0


def _cmd_points(args) -> int:
    graph = _load_graph(args.graph)
    r = _parse_weights(args.weights)
    for w in enumerate_points(graph, r, args.level):
        _emit(w.to_json())
    return 0


def _cmd_hilbert(args) -> int:
    graph = _load_graph(args.graph)
    if args.grading == "cox":
        table = hilbert_cox(graph, args.max)
    else:
        if args.base_weights is None or args.base_level is None:
            print(
                "hilbert --grading projective needs --base-weights and "
                "--base-level",
                file=sys.stderr,
            )
            return 2
        table = hilbert_projective(
            graph,
            _parse_weights(args.base_weights),
            args.base_level,
            args.max,
        )
    if args.json:
        _emit(table.to_json())
    else:
        for v in table.values:
            print(v)
    return 0


def _cmd_gorenstein(args) -> int:
    graph = _load_graph(args.graph)
    ok, certificates = gorenstein_check(graph, args.bound)
    if args.json:
        _emit(
            {
                "holds": ok,
                "level_bound": args.bound,
                "interior_points": len(certificates),
            }
        )
    else:
        print("true")
    return 0


def _cmd_gen1(args) -> int:
    graph = _load_graph(args.graph)
    ok, certificates = degree_one_generation_check(graph, args.bound)
    if args.json:
        _emit(
            {
                "holds": ok,
                "level_bound": args.bound,
                "points_checked": len(certificates),
            }
        )
    else:
        print("true")
    return 0


def _cmd_graphs(args) -> int:
    if args.stable:
        classes = enumerate_stable(args.genus, args.legs)
    else:
        classes = enumerate_trivalent(args.genus, args.legs)
    if args.dot:
        if args.stable:
            print(hasse_dot(contraction_poset(args.genus, args.legs)))
        else:
            chunks = [g.to_dot(f"c{i}") for i, g in enumerate(classes)]
            print("\n\n".join(chunks))
        return 0
    if args.json:
        comp = (
            contraction_poset(args.genus, args.legs)
            if args.stable
            else flip_complex(args.genus, args.legs)
        )
        _emit(comp.to_json())
        return 0
    for i, g in enumerate(classes):
        print(
            f"{i} {g.canonical_hex()} "
            f"{json.dumps(g.to_json(), separators=(',', ':'))}"
        )
    return 0


def _cmd_flips(args) -> int:
    comp = flip_complex(args.genus, args.legs)
    if args.dot:
        print(flip_dot(comp))
        return 0
    if args.json:
        _emit(comp.to_json())
        return 0
    for i, j, witness in comp.flips:
        print(f"{i} {j} {witness.hex()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verkit",
        description=(
            "Exact Verlinde lattice counts on trivalent graphs and the "
            "surrounding graph combinatorics"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verlinde", help="Verlinde number of (genus, weights, level)")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--weights", default="", help='comma separated, "" for none')
    p.add_argument("--level", type=int, required=True)
    p.add_argument(
        "--method",
        choices=["count", "closed", "factor", "all"],
        default="count",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verlinde)

    p = sub.add_parser("count", help="lattice count on an explicit graph")
    p.add_argument("--graph", required=True, help="graph JSON file, - for stdin")
    p.add_argument("--weights", default="")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="literal enumeration")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("points", help="stream the admissible weightings")
    p.add_argument("--graph", required=True)
    p.add_argument("--weights", default="")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("hilbert", help="graded dimension table")
    p.add_argument("--graph", required=True)
    p.add_argument("--grading", choices=["cox", "projective"], required=True)
    p.add_argument("--base-weights", dest="base_weights")
    p.add_argument("--base-level", dest="base_level", type=int)
    p.add_argument("--max", type=int, required=True, help="top degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("gorenstein", help="interior-point decomposition check")
    p.add_argument("--graph", required=True)
    p.add_argument("--bound", type=int, required=True, help="level bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gorenstein)

    p = sub.add_parser("gen1", help="degree-1 generation check (trees only)")
    p.add_argument("--graph", required=True)
    p.add_argument("--bound", type=int, required=True, help="level bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen1)

    p = sub.add_parser("graphs", help="isomorphism classes of a signature")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--legs", type=int, required=True)
    p.add_argument("--stable", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graphs)

    p = sub.add_parser("flips", help="flip adjacency of trivalent classes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--legs", type=int, required=True)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_flips)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalResidual as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except VerkitError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
