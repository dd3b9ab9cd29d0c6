"""Digests of the decompositions and of the command line output on fixed
corpora of graphs.

The decomposition corpus is every connected graph with at most 6
vertices, grouped by vertex count, plus 300 seeded connected graphs with
7-12 vertices. A graph's record holds its relative and abelian
decompositions as JSON, the relative one as DOT, the separators used and
the validation results; the records of a group are hashed in corpus
order. The stored digests pin the output bytes, so a change of algorithm
that changes an output fails the acceptance sweep that recomputes them.

The command line corpus is 1,000 seeded graphs of 0-9 vertices (random,
empty of edges, complete, or a union of two random graphs), written as
JSON or DOT. Each graph runs `analyze`, every `jsj` mode and format, and
`element` with every op in both modes on two seeded words; a call's
record is its input, arguments, exit code, stdout and stderr, hashed per
vertex count.

To rewrite the stored digests after an intended change of output:

    PYTHONPATH=src python tests/golden.py > tests/data/golden_decompositions.json
    PYTHONPATH=src python tests/golden.py --cli > tests/data/golden_cli.json
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path
import random
import sys

from raagdecomp import (exhaustive_graphs, gog_to_dot, gog_to_json_obj,
                        is_connected, jsj_report, serialize_graph)
from raagdecomp.cli import main

from generators import random_connected_graph

STORED = Path(__file__).resolve().parent / "data" / "golden_decompositions.json"
CLI_STORED = Path(__file__).resolve().parent / "data" / "golden_cli.json"
SEEDED = "seeded_7_12"


def corpus():
    """(group, graph) pairs in corpus order."""
    for n in range(1, 7):
        for g in exhaustive_graphs(n):
            if is_connected(g):
                yield str(n), g
    rng = random.Random(0x901D)
    for _ in range(300):
        yield SEEDED, random_connected_graph(rng, rng.randrange(7, 13),
                                             rng.random() * 0.5)


def record(report):
    return json.dumps({
        "graph": serialize_graph(report.graph),
        "relative": gog_to_json_obj(report.relative),
        "abelian": gog_to_json_obj(report.abelian),
        "relative_dot": gog_to_dot(report.relative),
        "separators_used": [list(s) for s in report.separators_used],
        "validation": [[c.name, c.passed, c.detail]
                       for c in report.validation],
    }, sort_keys=True).encode() + b"\n"


class Digests:
    """One running sha256 per corpus group."""

    def __init__(self):
        self._hashes = {}

    def add(self, group, report):
        self._hashes.setdefault(group, hashlib.sha256()).update(record(report))

    def hexdigests(self):
        return {k: h.hexdigest() for k, h in self._hashes.items()}


def stored():
    return json.loads(STORED.read_text())


def _cli_graph(rng):
    """(vertex count, vertex names, graph text) of one seeded command line
    input."""
    n = rng.randrange(10)
    names = list("abcdefghi"[:n])
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    kind = rng.randrange(4)
    if kind == 0:
        density = rng.random()
        edges = [p for p in pairs if rng.random() < density]
    elif kind == 1:
        edges = []
    elif kind == 2:
        edges = pairs
    else:
        side = dict.fromkeys(names[:rng.randrange(n + 1)], True)
        edges = [(u, v) for u, v in pairs
                 if side.get(u) == side.get(v) and rng.random() < 0.6]
    rng.shuffle(names)
    rng.shuffle(edges)
    if rng.random() < 0.5:
        text = json.dumps({"vertices": names, "edges": [list(e) for e in edges]})
    else:
        text = "graph {\n%s}\n" % "".join(
            "  %s;\n" % s for s in names + ["%s -- %s" % e for e in edges])
    return n, names, text


def _cli_word(rng, names):
    """Seeded word text over `names`: letters with small exponents, at
    times a conjugate, at times an unknown generator."""
    if not names or rng.random() < 0.1:
        return rng.choice(["", "z", "a a^-1"])
    letters = ["%s^%d" % (rng.choice(names), rng.choice((-2, -1, 1, 1, 2)))
               for _ in range(rng.randrange(7))]
    if letters and rng.random() < 0.3:
        u = rng.choice(names)
        letters = [u] + letters + [u + "^-1"]
    return " ".join(letters)


def cli_calls():
    """(vertex count, graph text, argv) triples in corpus order."""
    rng = random.Random(0xC11)
    for _ in range(1000):
        n, names, text = _cli_graph(rng)
        yield n, text, ["analyze", "-"]
        for mode in ("relative", "abelian"):
            for fmt in ("json", "dot"):
                yield n, text, ["jsj", "-", "--mode", mode, "--format", fmt]
            yield n, text, ["jsj", "-", "--mode", mode, "--quiet"]
        for _ in range(2):
            word = _cli_word(rng, names)
            for op in ("nf", "support", "cyclic", "centralizer"):
                for mode in ("pro-p", "pro-C"):
                    yield n, text, ["element", "-", "--word", word,
                                    "--op", op, "--mode", mode]


def _stream(data, errors="strict"):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors=errors, newline="\n")


def cli_run(text, argv):
    """(exit code, stdout, stderr) of `main(argv)` with `text` on stdin.

    The streams are UTF-8 text over bytes, as a process's are: writing
    text that has no UTF-8 form to stdout raises, stderr escapes it."""
    out, err = _stream(b""), _stream(b"", "backslashreplace")
    saved = sys.stdin
    sys.stdin = _stream(text.encode())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
            out.flush()
            err.flush()
    finally:
        sys.stdin = saved
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


def cli_digests():
    """One sha256 per vertex count over the records of its calls."""
    hashes = {}
    for n, text, argv in cli_calls():
        line = json.dumps([text, argv, *cli_run(text, argv)]).encode()
        hashes.setdefault(str(n), hashlib.sha256()).update(line + b"\n")
    return {k: h.hexdigest() for k, h in hashes.items()}


def stored_cli():
    return json.loads(CLI_STORED.read_text())


if __name__ == "__main__":
    if sys.argv[1:] == ["--cli"]:
        result = cli_digests()
    else:
        digests = Digests()
        for group, g in corpus():
            digests.add(group, jsj_report(g))
        result = digests.hexdigests()
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
