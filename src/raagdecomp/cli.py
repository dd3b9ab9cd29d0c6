"""Command line front end.

Subcommands:
  analyze  - structural report for a defining graph
  jsj      - graph-of-groups decomposition (relative or abelian), json or dot
  element  - word operations: normal form, support, cyclic form, centralizer

Exit codes: 0 success, 1 input problem, 2 validation failure, 3 budget
exceeded. Input files are JSON or DOT, sniffed by content; "-" reads stdin.
"""

import argparse
import functools
import json
import sys

from .errors import (BudgetExceededError, DomainError, GraphParseError,
                     GraphValidationError, InvariantViolationError)
from .graphs import (clique_separators, connected_components, hanging_vertices,
                     induced_subgraph, is_complete, is_connected, join_factors,
                     minimum_clique_separator, parse_graph)
from .jsj import abelian_jsj, gog_to_dot, gog_to_json_obj, relative_jsj, validate
from .words import (centralizer_descriptor, cyclically_reduce, normal_form,
                    parse_word, support, word_text)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; keep 2 reserved for
    # validation failures and report usage problems as input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


# building the parser costs about a millisecond per call of main;
# every call in a process shares the first one instead
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="raagdecomp",
                     description="Structural decompositions of right-angled "
                                 "Artin groups from their defining graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report structural facts about a graph")
    p.add_argument("file", help="graph file (JSON or DOT), or - for stdin")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("jsj", help="compute a graph-of-groups decomposition")
    p.add_argument("file", help="graph file (JSON or DOT), or - for stdin")
    p.add_argument("--mode", choices=("relative", "abelian"), default="relative")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--quiet", action="store_true",
                   help="omit the validation report from the output")
    p.set_defaults(func=_cmd_jsj)

    p = sub.add_parser("element", help="operate on a group element")
    p.add_argument("file", help="graph file (JSON or DOT), or - for stdin")
    p.add_argument("--word", required=True,
                   help="whitespace-separated letters, e.g. \"a b^-1 c^3\"")
    p.add_argument("--op", choices=("nf", "support", "cyclic", "centralizer"),
                   default="nf")
    p.add_argument("--mode", choices=("pro-p", "pro-C"), default="pro-p",
                   help="completion variety for --op centralizer")
    p.set_defaults(func=_cmd_element)

    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str):
    return parse_graph(_read_text(path))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _cmd_analyze(args) -> int:
    g = _load_graph(args.file)
    comps = connected_components(g)
    if is_connected(g) or not g.vertices:
        seps = clique_separators(g)
    else:
        seps = sorted(
            {s for c in comps
             for s in clique_separators(induced_subgraph(g, c))},
            key=lambda t: (len(t), t))
    _emit({
        "vertices": list(g.vertices),
        "edges": sorted(list(e) for e in g.edges),
        "is_connected": is_connected(g),
        "is_complete": is_complete(g),
        "components": [list(c) for c in comps],
        "join_factors": [list(f) for f in join_factors(g)],
        "clique_separators": [list(s) for s in seps],
        "minimum_clique_separator": list(seps[0]) if seps else None,
        "hanging_vertices": list(hanging_vertices(g)),
    })
    return 0


def _decompose(g, mode):
    gog = abelian_jsj(g) if mode == "abelian" else relative_jsj(g)
    checks = validate(gog, abelian=(mode == "abelian"))
    return gog, checks


def _check_objs(checks):
    return [{"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks]


def _cmd_jsj(args) -> int:
    g = _load_graph(args.file)
    comps = connected_components(g)
    if len(comps) > 1:
        if args.format == "dot":
            raise DomainError(
                "dot output needs a connected graph; got %d components"
                % len(comps))
        sys.stderr.write(
            "warning: graph is disconnected; decomposing %d components "
            "separately\n" % len(comps))
        failed = False
        out = []
        for c in comps:
            gog, checks = _decompose(induced_subgraph(g, c), args.mode)
            failed = failed or not all(ch.passed for ch in checks)
            entry = {"component": list(c),
                     "decomposition": gog_to_json_obj(gog)}
            if not args.quiet:
                entry["validation"] = _check_objs(checks)
            out.append(entry)
        _emit(out)
        return 2 if failed else 0

    gog, checks = _decompose(g, args.mode)
    failed = not all(c.passed for c in checks)
    if args.format == "dot":
        sys.stdout.write(gog_to_dot(gog))
        for c in checks:
            if not c.passed:
                sys.stderr.write("failed check %s: %s\n" % (c.name, c.detail))
    else:
        obj = {"decomposition": gog_to_json_obj(gog)}
        if not args.quiet:
            obj["validation"] = _check_objs(checks)
        _emit(obj)
    return 2 if failed else 0


def _cmd_element(args) -> int:
    g = _load_graph(args.file)
    w = parse_word(g, args.word)
    if args.op == "nf":
        nf = normal_form(w)
        _emit({"input": args.word, "normal_form": word_text(nf),
               "length": nf.length()})
    elif args.op == "support":
        _emit({"input": args.word, "support": list(support(w))})
    elif args.op == "cyclic":
        red, conj = cyclically_reduce(w)
        _emit({"input": args.word, "reduced": word_text(red),
               "conjugator": word_text(conj)})
    else:
        d = centralizer_descriptor(w, mode=args.mode)
        _emit({
            "input": args.word,
            "mode": d.mode,
            "conjugator": word_text(d.conjugator),
            "factors": [{"support": list(f.support),
                         "root": word_text(f.root),
                         "exponent": f.exponent} for f in d.factors],
            "link_part": list(d.link_part),
            "lower_bound": d.lower_bound,
        })
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphParseError, GraphValidationError, DomainError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except BudgetExceededError as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return 3
    except InvariantViolationError as exc:
        sys.stderr.write("validation failure: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
