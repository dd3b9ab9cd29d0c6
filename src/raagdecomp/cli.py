"""Command line front end.

Subcommands:
  analyze  - structural report for a defining graph
  jsj      - graph-of-groups decomposition (relative or abelian), json or dot
  element  - word operations: normal form, support, cyclic form, centralizer

Exit codes: 0 success, 1 input problem, 2 validation failure, 3 budget
exceeded. Input files are JSON or DOT, sniffed by content; "-" reads stdin.

The group of a disconnected graph is the free product of its components'
groups, so a connected graph is the one-component case. `analyze` lists
every component and the sorted union of their clique separators. `jsj`
decomposes each component on its own and prints a JSON array of
{"component", "decomposition", "validation"} objects, after a warning on
stderr; DOT output refuses such a graph (exit 1). `element` works on the
whole graph.
"""

import argparse
import functools
from json.encoder import encode_basestring_ascii as _str
import sys

from .errors import (BudgetExceededError, DomainError, GraphParseError,
                     GraphValidationError, InvariantViolationError)
from .graphs import (_full_mask, _sorted_edges, clique_separators,
                     connected_components, hanging_vertices, induced_subgraph,
                     is_complete, join_factors, parse_graph)
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
def _build_parser():
    """The full parser and its subcommands' parsers by name."""
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

    return parser, sub.choices


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphParseError("input is not UTF-8 text: %s" % exc) from None


def _dump(obj, pad="\n") -> str:
    """The text of `json.dumps(obj, indent=2)` for the dict, list, str,
    int, bool and None values the commands emit; any other value, or a
    key that is not a str, raises TypeError. Given an indent, `json.dumps`
    encodes in pure Python; this walk builds one string per container and
    leaves the strings to the C escaper that `json.dumps` uses without
    one."""
    if isinstance(obj, str):
        return _str(obj)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(
            [_dump(v, inner) for v in obj]) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_str(k) + ": " + _dump(v, inner)
             for k, v in obj.items()]) + pad + "}"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError("cannot emit %s as JSON" % type(obj).__name__)


def _emit(obj) -> None:
    sys.stdout.write(_dump(obj) + "\n")


def _parts(g):
    """The components of g and the graphs to handle: g itself when it has
    at most one component (the empty graph has none), else the subgraph
    induced on each component."""
    comps = connected_components(g)
    if len(comps) <= 1:
        return comps, [g]
    return comps, [induced_subgraph(g, c) for c in comps]


def _cmd_analyze(args, g) -> int:
    comps, parts = _parts(g)
    seps = sorted({s for p in parts for s in clique_separators(p)},
                  key=lambda t: (len(t), t))
    _emit({
        "vertices": list(g.vertices),
        "edges": [list(e) for e in _sorted_edges(g, _full_mask(g))],
        "is_connected": len(parts) == 1,
        "is_complete": is_complete(g),
        "components": [list(c) for c in comps],
        "join_factors": [list(f) for f in join_factors(g)],
        "clique_separators": [list(s) for s in seps],
        "minimum_clique_separator": list(seps[0]) if seps else None,
        "hanging_vertices": list(hanging_vertices(g)),
    })
    return 0


def _cmd_jsj(args, g) -> int:
    comps, parts = _parts(g)
    several = len(parts) > 1
    if several:
        if args.format == "dot":
            raise DomainError(
                "dot output needs a connected graph; got %d components"
                % len(comps))
        sys.stderr.write(
            "warning: graph is disconnected; decomposing %d components "
            "separately\n" % len(comps))
    abelian = args.mode == "abelian"
    failed = False
    out = []
    for k, part in enumerate(parts):
        gog = abelian_jsj(part) if abelian else relative_jsj(part)
        checks = validate(gog, abelian=abelian)
        failed = failed or not all(c.passed for c in checks)
        if args.format == "dot":
            sys.stdout.write(gog_to_dot(gog))
            for c in checks:
                if not c.passed:
                    sys.stderr.write("failed check %s: %s\n"
                                     % (c.name, c.detail))
        else:
            entry = {"component": list(comps[k])} if several else {}
            entry["decomposition"] = gog_to_json_obj(gog)
            if not args.quiet:
                entry["validation"] = [{"name": c.name, "passed": c.passed,
                                        "detail": c.detail} for c in checks]
            out.append(entry)
    if args.format == "json":
        _emit(out if several else out[0])
    return 2 if failed else 0


def _cmd_element(args, g) -> int:
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
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    try:
        # a subcommand's parser gives what the full one would, but when no
        # subcommand comes first or arguments are left the full one speaks
        args, rest = sub.parse_known_args(argv[1:]) if sub else (None, True)
        if rest:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, parse_graph(_read_text(args.file)))
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
