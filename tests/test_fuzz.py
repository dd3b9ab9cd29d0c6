"""Arbitrary input ends in an answer or a `RaagError`, never a traceback.

Graph text is fuzzed as arbitrary JSON values and as DOT token soup, word
text as arbitrary token strings, and the edge lists given to
`SimplicialGraph` as arbitrary values. The parsers and the constructor
must return or raise a `RaagError`; `cli.main` on the same input must
return one of the documented exit codes (0 success, 1 input problem, 2
validation failure, 3 budget exceeded) with no exception escaping, its
output going to UTF-8 streams as a process's does (see `golden.cli_run`),
so a name with no UTF-8 form must not reach the output. Where a command
that answers in JSON exits 0, its output must be exactly the bytes of
`json.dumps(obj, indent=2)` of what it parses to, so arbitrary names and
word text check the CLI's JSON writer too. Words
given to the command line stay at 30 letters or fewer, so a generic
word's centralizer stays cheap.
"""

import json

from hypothesis import example, given, settings, strategies as st

from raagdecomp import (RaagError, SimplicialGraph, Word, parse_graph,
                        parse_word)

from golden import cli_run

EXIT_CODES = {0, 1, 2, 3}

NAMES = st.sampled_from(["a", "b", "c", "d", "e", "v1", "x_2", "é", "",
                         "\ud800"])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)

# graph objects close to the canonical form, so the checks past the
# top-level shape get exercised
GRAPH_OBJECTS = st.fixed_dictionaries({
    "vertices": st.lists(NAMES, max_size=6) | JSON_VALUES,
    "edges": st.lists(st.lists(NAMES, min_size=1, max_size=3)
                      | JSON_VALUES, max_size=6) | JSON_VALUES,
})

DOT_TOKENS = st.sampled_from([
    "graph", "digraph", "G", "{", "}", "--", "->", ";", "\n", " ", "a", "b",
    "c", "a_1", '"q r"', '"x\\"y"', '"', "\\", "/*", "*/", "//", "#", "[",
    "]", "=", "\x1c", "\xa0", "\u2028", "\t", "é"])

GRAPH_TEXT = (st.one_of(JSON_VALUES, GRAPH_OBJECTS).map(json.dumps)
              | st.lists(DOT_TOKENS, max_size=30).map("".join)
              | st.lists(DOT_TOKENS, max_size=30).map(" ".join))

P4_JSON = ('{"vertices": ["a","b","c","d"],'
           ' "edges": [["a","b"],["b","c"],["c","d"]]}')
P4 = parse_graph(P4_JSON)

WORD_TOKENS = st.sampled_from([
    "a", "b", "c", "d", "z", "a^-1", "b^2", "c^-3", "a^", "a^+", "^2", "a^0",
    "b^-0", "a^1^2", "d^+1", "a^٣", "v129", "é", "a^99999999999999999999999",
    "b^0000000000000000000000001"])


def _checked(parse, *args):
    try:
        return parse(*args)
    except RaagError:
        return None


@given(GRAPH_TEXT)
@settings(deadline=None, max_examples=300)
def test_parse_graph_answers_or_raises_a_raag_error(text):
    g = _checked(parse_graph, text)
    assert g is None or isinstance(g, SimplicialGraph)


# edges as any Python value: pairs, other tuples, None, numbers, and
# endpoints that cannot be hashed
ENDPOINTS = NAMES | st.none() | st.integers() | st.lists(NAMES, max_size=2)
EDGES = st.lists(st.tuples(ENDPOINTS, ENDPOINTS)
                 | st.lists(ENDPOINTS, max_size=3).map(tuple)
                 | JSON_VALUES, max_size=6)


@given(st.lists(NAMES, max_size=6), EDGES)
@settings(deadline=None, max_examples=300)
def test_graph_constructor_answers_or_raises_a_raag_error(vertices, edges):
    g = _checked(SimplicialGraph, vertices, edges)
    assert g is None or isinstance(g, SimplicialGraph)


@given(st.lists(WORD_TOKENS, max_size=12).map(" ".join)
       | st.text(max_size=20))
@settings(deadline=None, max_examples=300)
def test_parse_word_answers_or_raises_a_raag_error(text):
    w = _checked(parse_word, P4, text)
    assert w is None or isinstance(w, Word)


OPS = st.sampled_from(["nf", "support", "cyclic", "centralizer"])

COMMANDS = st.sampled_from([
    ["analyze", "-"],
    ["jsj", "-"],
    ["jsj", "-", "--mode", "abelian"],
    ["jsj", "-", "--mode", "abelian", "--format", "dot"],
])


def _checked_run(text, argv):
    """`cli_run`, checking the exit code and, on success, that JSON output
    has the stdlib's bytes for two-space indents."""
    code, out, err = cli_run(text, argv)
    assert code in EXIT_CODES
    dot = argv[0] == "jsj" and "dot" in argv  # an element word may be "dot"
    if code == 0 and not dot:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    return code, out, err


@given(GRAPH_TEXT, COMMANDS)
@settings(deadline=None, max_examples=150)
def test_cli_on_arbitrary_graph_text(text, argv):
    _checked_run(text, argv)


@st.composite
def named_graph_text(draw):
    """A JSON graph whose vertex names are any text (empty names and self
    loops included, which are refused), with a word spelled in its names."""
    names = draw(st.lists(st.text(min_size=1, max_size=4) | NAMES,
                          min_size=1, max_size=6, unique=True))
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    edges = draw(st.lists(pairs.map(list), max_size=8))
    word = " ".join(draw(st.lists(st.sampled_from(names), max_size=6)))
    return json.dumps({"vertices": names, "edges": edges}), word


@given(named_graph_text(), COMMANDS | OPS.map(lambda op: ["element", "-",
                                                         "--op", op]))
@settings(deadline=None, max_examples=150)
def test_cli_on_graphs_with_arbitrary_names(case, argv):
    text, word = case
    if argv[0] == "element":
        argv = argv + ["--word", word]
    _checked_run(text, argv)


# letters of at most two each, at most 15 tokens: 30 letters or fewer
SHORT_WORDS = st.lists(
    st.sampled_from(["a", "b", "c", "d", "z", "a^-1", "b^2", "c^-2", "d^-1",
                     "a^", "b^0", "^", "é"]), max_size=15).map(" ".join)

MODES = st.sampled_from(["pro-p", "pro-C"])


@given(SHORT_WORDS | st.text(max_size=10), OPS, MODES)
@settings(deadline=None, max_examples=150)
def test_cli_on_arbitrary_word_text(word, op, mode):
    argv = ["element", "-", "--word", word, "--op", op, "--mode", mode]
    _checked_run(P4_JSON, argv)


# words over generators past the 128th of a wider graph get answers too
WIDE = json.dumps({"vertices": ["v%03d" % i for i in range(130)],
                   "edges": [["v%03d" % i, "v%03d" % (i + 1)]
                             for i in range(129)]})


@given(st.lists(st.integers(0, 129).map("v%03d".__mod__), min_size=1,
                max_size=30).map(" ".join), OPS)
@example("v000 v129", "centralizer")
@settings(deadline=None, max_examples=60)
def test_cli_word_over_130_vertex_graph(word, op):
    code, out, err = _checked_run(WIDE, ["element", "-", "--word", word,
                                         "--op", op])
    if code == 3:  # only the root search has a budget to run out of
        assert op == "centralizer" and err.startswith("budget exceeded: ")
    else:
        assert (code, err) == (0, "")
        assert json.loads(out)["input"] == word
