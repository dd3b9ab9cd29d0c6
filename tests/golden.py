"""Digests of the decompositions on a fixed corpus of graphs.

The corpus is every connected graph with at most 6 vertices, grouped by
vertex count, plus 300 seeded connected graphs with 7-12 vertices. A
graph's record holds its relative and abelian decompositions as JSON, the
relative one as DOT, the separators used and the validation results; the
records of a group are hashed in corpus order. The stored digests pin the
output bytes, so a change of algorithm that changes an output fails the
acceptance sweep that recomputes them.

To rewrite the stored digests after an intended change of output:

    PYTHONPATH=src python tests/golden.py > tests/data/golden_decompositions.json
"""

import hashlib
import json
from pathlib import Path
import random
import sys

from raagdecomp import (exhaustive_graphs, gog_to_dot, gog_to_json_obj,
                        is_connected, jsj_report, serialize_graph)

from conftest import random_connected_graph

STORED = Path(__file__).resolve().parent / "data" / "golden_decompositions.json"
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


if __name__ == "__main__":
    digests = Digests()
    for group, g in corpus():
        digests.add(group, jsj_report(g))
    json.dump(digests.hexdigests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
