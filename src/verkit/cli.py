"""Command-line front end.

Every computation in the package is reachable through a subcommand; output
is deterministic, arbitrary-precision decimal on stdout, errors on stderr.
Exit codes: 0 success, 1 cross-method disagreement under
``verlinde --method all`` and nothing else, 2 domain or usage error (error
class name included in the message), 3 closed form cannot be rounded with
certainty, which includes a closed form outside double range, 141 stdout
closed by its reader (nothing is printed).  ``--dot`` and ``--json``
exclude each other: giving both is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .errors import (
    BadGraphDocument,
    BadWeighting,
    NumericalResidual,
    VerkitError,
    _decimal,
)
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
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BadWeighting(f"weights {text!r}: {exc}") from exc


def _load_graph(path: str) -> MarkedGraph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadGraphDocument(f"graph file is not UTF-8: {exc}") from exc
    return MarkedGraph.from_json(text)


def _dumps(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _show(args, doc, lines) -> int:
    """Print doc as compact JSON under --json, else the lines."""
    if args.json:
        print(_dumps(doc))
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_verlinde(args) -> int:
    # Looked up at call time, so that tests can replace a route.
    routes = {
        "count": verlinde,
        "closed": verlinde_closed_form,
        "factor": verlinde_factor,
    }
    r = _parse_weights(args.weights)
    names = list(routes) if args.method == "all" else [args.method]
    values = {name: _decimal(routes[name](args.genus, r, args.level))
              for name in names}
    agree = len(set(values.values())) == 1
    doc = {"genus": args.genus, "weights": list(r), "level": args.level}
    if args.method == "all":
        doc.update(values=values, agree=agree)
    else:
        doc.update(method=args.method, value=values[args.method])
    _show(args, doc, values.values())
    if not agree:
        print(f"methods disagree: {values}", file=sys.stderr)
        return 1
    return 0


def _cmd_count(args) -> int:
    fn = count_points_bruteforce if args.brute else count_points
    value = _decimal(fn(_load_graph(args.graph), _parse_weights(args.weights),
                        args.level))
    return _show(args, {"value": value}, [value])


def _cmd_points(args) -> int:
    graph = _load_graph(args.graph)
    for w in enumerate_points(graph, _parse_weights(args.weights), args.level):
        print(_dumps(w.to_json()))
    return 0


def _cmd_hilbert(args) -> int:
    if args.grading == "cox":
        table = hilbert_cox(_load_graph(args.graph), args.max)
    elif args.base_weights is None or args.base_level is None:
        raise BadWeighting(
            "hilbert --grading projective needs --base-weights and "
            "--base-level"
        )
    else:
        table = hilbert_projective(
            _load_graph(args.graph), _parse_weights(args.base_weights),
            args.base_level, args.max,
        )
    # the document labels the graph canonically: build it only when shown
    return _show(args, table.to_json() if args.json else None,
                 map(_decimal, table.values))


def _cmd_check(check, count_key: str, args) -> int:
    """A certificate check raises on a counterexample: a return means it
    holds."""
    ok, certs = check(_load_graph(args.graph), args.bound)
    doc = {"holds": ok, "level_bound": args.bound, count_key: len(certs)}
    return _show(args, doc, ["true"])


def _cmd_graphs(args) -> int:
    if args.dot and args.stable:
        print(hasse_dot(contraction_poset(args.genus, args.legs)))
    elif args.dot:
        classes = enumerate_trivalent(args.genus, args.legs)
        print("\n\n".join(g.to_dot(f"c{i}") for i, g in enumerate(classes)))
    elif args.json:
        complex_of = contraction_poset if args.stable else flip_complex
        print(_dumps(complex_of(args.genus, args.legs).to_json()))
    else:
        listing = enumerate_stable if args.stable else enumerate_trivalent
        for i, g in enumerate(listing(args.genus, args.legs)):
            print(f"{i} {g.canonical_hex()} {_dumps(g.to_json())}")
    return 0


def _cmd_flips(args) -> int:
    comp = flip_complex(args.genus, args.legs)
    if args.dot:
        print(flip_dot(comp))
    elif args.json:
        print(_dumps(comp.to_json()))
    else:
        for i, j, witness in comp.flips:
            print(f"{i} {j} {witness.hex()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    def shared(*flags, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

    graph = shared("--graph", required=True,
                   help="graph JSON file, - for stdin")
    weights = shared("--weights", default="",
                     help='comma separated, "" for none')
    level = shared("--level", type=int, required=True)
    genus = shared("--genus", type=int, required=True)
    legs = shared("--legs", type=int, required=True)
    bound = shared("--bound", type=int, required=True, help="level bound")
    as_json = shared("--json", action="store_true")
    view = argparse.ArgumentParser(add_help=False)  # --dot or --json
    either = view.add_mutually_exclusive_group()
    either.add_argument("--dot", action="store_true")
    either.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="verkit",
        description=(
            "Exact Verlinde lattice counts on trivalent graphs and the "
            "surrounding graph combinatorics"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, summary, func, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("verlinde", "Verlinde number of (genus, weights, level)",
                _cmd_verlinde, genus, weights, level, as_json)
    p.add_argument(
        "--method",
        choices=["count", "closed", "factor", "all"],
        default="count",
    )
    p = command("count", "lattice count on an explicit graph", _cmd_count,
                graph, weights, level, as_json)
    p.add_argument("--brute", action="store_true", help="literal enumeration")
    command("points", "stream the admissible weightings", _cmd_points,
            graph, weights, level)
    p = command("hilbert", "graded dimension table", _cmd_hilbert,
                graph, as_json)
    p.add_argument("--grading", choices=["cox", "projective"], required=True)
    p.add_argument("--base-weights", dest="base_weights")
    p.add_argument("--base-level", dest="base_level", type=int)
    p.add_argument("--max", type=int, required=True, help="top degree")
    command("gorenstein", "interior-point decomposition check",
            partial(_cmd_check, gorenstein_check, "interior_points"),
            graph, bound, as_json)
    command("gen1", "degree-1 generation check (trees only)",
            partial(_cmd_check, degree_one_generation_check, "points_checked"),
            graph, bound, as_json)
    p = command("graphs", "isomorphism classes of a signature", _cmd_graphs,
                genus, legs, view)
    p.add_argument("--stable", action="store_true")
    command("flips", "flip adjacency of trivalent classes", _cmd_flips,
            genus, legs, view)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone after the last print shows here
        return code
    except BrokenPipeError:
        # stdout's reader is gone: send what is still buffered nowhere, and
        # report the status of a writer stopped by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (VerkitError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalResidual) else 2


if __name__ == "__main__":
    sys.exit(main())
