import io
import json
from pathlib import Path
import random
import time

from hypothesis import example, given, settings, strategies as st
import pytest

from raagdecomp import (CheckResult, InvariantViolationError, SimplicialGraph,
                        cli, exhaustive_graphs, is_connected, serialize_graph,
                        words)
from raagdecomp.cli import _dump, main

import golden
from generators import random_connected_graph

P4_JSON = ('{"vertices": ["a","b","c","d"],'
           ' "edges": [["a","b"],["b","c"],["c","d"]]}')


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(P4_JSON)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_path_report(self, capsys, p4_file):
        code, out, _ = run(capsys, "analyze", p4_file)
        assert code == 0
        report = json.loads(out)
        assert report["is_connected"] is True
        assert report["is_complete"] is False
        assert report["join_factors"] == [["a", "b", "c", "d"]]
        assert report["clique_separators"] == [["b"], ["c"]]
        assert report["minimum_clique_separator"] == ["b"]
        assert report["hanging_vertices"] == ["a", "d"]

    def test_disconnected_merges_component_separators(self, capsys, tmp_path):
        path = tmp_path / "two_paths.json"
        path.write_text('{"vertices": ["a","b","c","x","y","z"],'
                        ' "edges": [["a","b"],["b","c"],'
                        '["x","y"],["y","z"]]}')
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["is_connected"] is False
        assert report["components"] == [["a", "b", "c"], ["x", "y", "z"]]
        assert report["clique_separators"] == [["b"], ["y"]]

    def test_dot_input(self, capsys, tmp_path):
        path = tmp_path / "g.dot"
        path.write_text("graph { a -- b -- c }\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["clique_separators"] == [["b"]]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(P4_JSON))
        code, out, _ = run(capsys, "analyze", "-")
        assert code == 0
        assert json.loads(out)["vertices"] == ["a", "b", "c", "d"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": oops}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "error" in err

    def test_json_array(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[1]"))
        assert run(capsys, "analyze", "-") == (
            1, "", "error: top-level JSON value must be an object\n")

    def test_non_string_edge_endpoint(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": ["a","b"], "edges": [[["a"],"b"]]}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "endpoints must be vertex name strings" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        # json.loads recurses once per level and runs out of stack
        path = tmp_path / "deep.json"
        path.write_text('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert "nested too deeply" in err

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin.dot"
        path.write_bytes(b"\xff\xfegraph { a -- b }")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert "UTF-8" in err

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"graph { caf\xe9 -- b }"), encoding="utf-8"))
        code, out, err = run(capsys, "analyze", "-")
        assert (code, out) == (1, "")
        assert "UTF-8" in err


class TestJsj:
    def test_relative_json(self, capsys, p4_file):
        code, out, _ = run(capsys, "jsj", p4_file)
        assert code == 0
        obj = json.loads(out)
        assert [n["group"] for n in obj["decomposition"]["nodes"]] == \
            [["a", "b"], ["b", "c"], ["c", "d"]]
        assert all(c["passed"] for c in obj["validation"])

    def test_abelian_json(self, capsys, p4_file):
        code, out, _ = run(capsys, "jsj", p4_file, "--mode", "abelian")
        assert code == 0
        obj = json.loads(out)["decomposition"]
        assert obj["nodes"] == [{"id": 0, "group": ["b", "c"],
                                 "flexible": True}]
        assert [e["stable_letter"] for e in obj["edges"]] == ["a", "d"]

    def test_quiet_drops_validation(self, capsys, p4_file):
        code, out, _ = run(capsys, "jsj", p4_file, "--quiet")
        assert code == 0
        assert "validation" not in json.loads(out)

    def test_dot_format(self, capsys, p4_file):
        code, out, err = run(capsys, "jsj", p4_file, "--mode", "abelian",
                             "--format", "dot")
        assert code == 0
        assert out.startswith("graph decomposition {")
        assert "stable a" in out
        assert err == ""

    def test_disconnected_decomposes_per_component(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text('{"vertices": ["a","b","x"],'
                        ' "edges": [["a","b"]]}')
        code, out, err = run(capsys, "jsj", str(path))
        assert code == 0
        assert "disconnected" in err
        parts = json.loads(out)
        assert [p["component"] for p in parts] == [["a", "b"], ["x"]]

    def test_disconnected_dot_rejected(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text('{"vertices": ["a","b"], "edges": []}')
        code, _, err = run(capsys, "jsj", str(path), "--format", "dot")
        assert code == 1
        assert "connected" in err

    @pytest.fixture
    def failing_check(self, monkeypatch):
        monkeypatch.setattr("raagdecomp.cli.validate", lambda gog, abelian:
                            [CheckResult("shape", False, "bent")])

    def test_failed_check_exits_2(self, capsys, p4_file, failing_check):
        code, out, _ = run(capsys, "jsj", p4_file)
        assert code == 2
        assert json.loads(out)["validation"] == \
            [{"name": "shape", "passed": False, "detail": "bent"}]

    def test_failed_check_dot_exits_2(self, capsys, p4_file, failing_check):
        code, out, err = run(capsys, "jsj", p4_file, "--format", "dot")
        assert code == 2
        assert out.startswith("graph decomposition {")
        assert err == "failed check shape: bent\n"

    def test_failed_check_disconnected_exits_2(self, capsys, tmp_path,
                                               failing_check):
        path = tmp_path / "two.json"
        path.write_text('{"vertices": ["a","b","x"], "edges": [["a","b"]]}')
        code, out, _ = run(capsys, "jsj", str(path))
        assert code == 2
        assert [p["validation"][0]["passed"] for p in json.loads(out)] == \
            [False, False]

    def test_failed_check_quiet_exits_2(self, capsys, p4_file,
                                        failing_check):
        code, out, _ = run(capsys, "jsj", p4_file, "--quiet")
        assert code == 2
        assert "validation" not in json.loads(out)

    def test_construction_failure_exits_2(self, capsys, p4_file,
                                          monkeypatch):
        def broken(g):
            raise InvariantViolationError("no subtree node group properly "
                                          "contains the separator ['b']")
        monkeypatch.setattr("raagdecomp.cli.relative_jsj", broken)
        assert run(capsys, "jsj", p4_file) == (
            2, "", "validation failure: no subtree node group properly "
            "contains the separator ['b']\n")

    def test_bad_mode_is_input_error(self, capsys, p4_file):
        code, _, _ = run(capsys, "jsj", p4_file, "--mode", "sideways")
        assert code == 1


def _renamed(g, names):
    """g with its i-th vertex renamed names[i]."""
    new = dict(zip(g.vertices, names))
    return SimplicialGraph(tuple(new[v] for v in g.vertices),
                           [(new[u], new[v]) for u, v in g.edges])


def _disjoint_pairs():
    """(A, B) pairs of connected graphs on disjoint vertex names: every
    pair of connected graphs of at most 3 vertices, B's names interleaved
    with A's, then seeded pairs of 4-8 vertices under shuffled names."""
    small = [g for n in (1, 2, 3) for g in exhaustive_graphs(n)
             if is_connected(g)]
    for a in small:
        for b in small:
            yield _renamed(a, "ace"), _renamed(b, "bdf")
    rng = random.Random(0xD15)
    for _ in range(12):
        a, b = (random_connected_graph(rng, rng.randrange(4, 9),
                                       rng.random() * 0.6) for _ in "ab")
        pool = list("abcdefghijklmnop")
        rng.shuffle(pool)
        yield (_renamed(a, pool[:len(a.vertices)]),
               _renamed(b, pool[len(a.vertices):][:len(b.vertices)]))


@pytest.mark.parametrize("a, b", list(_disjoint_pairs()),
                         ids=lambda g: "+".join(g.vertices))
def test_disconnected_input_is_the_connected_path_per_component(a, b):
    union = json.dumps({"vertices": list(a.vertices + b.vertices),
                        "edges": [list(e) for g in (a, b)
                                  for e in sorted(g.edges)]})
    parts = sorted((a, b), key=lambda g: min(g.vertices))
    warning = ("warning: graph is disconnected; decomposing 2 components "
               "separately\n")
    for args in (["--mode", "relative"], ["--mode", "abelian"],
                 ["--mode", "relative", "--quiet"],
                 ["--mode", "abelian", "--quiet"]):
        runs = [golden.cli_run(serialize_graph(g), ["jsj", "-"] + args)
                for g in parts]
        assert all(err == "" for _, _, err in runs)
        expected = [dict({"component": list(g.vertices)}, **json.loads(out))
                    for g, (_, out, _) in zip(parts, runs)]
        assert golden.cli_run(union, ["jsj", "-"] + args) == (
            max(code for code, _, _ in runs),
            json.dumps(expected, indent=2) + "\n", warning)
    report = json.loads(golden.cli_run(union, ["analyze", "-"])[1])
    seps = {tuple(s) for g in parts for s in json.loads(golden.cli_run(
        serialize_graph(g), ["analyze", "-"])[1])["clique_separators"]}
    assert report["is_connected"] is False
    assert report["components"] == [list(g.vertices) for g in parts]
    assert report["clique_separators"] == \
        [list(s) for s in sorted(seps, key=lambda s: (len(s), s))]
    assert golden.cli_run(union, ["jsj", "-", "--format", "dot"]) == (
        1, "", "error: dot output needs a connected graph; got 2 components\n")


class TestElement:
    def test_normal_form(self, capsys, p4_file):
        code, out, _ = run(capsys, "element", p4_file,
                           "--word", "b a c a^-1")
        assert code == 0
        obj = json.loads(out)
        assert obj["normal_form"] == "a b c a^-1"
        assert obj["length"] == 4

    def test_word_over_length_cap(self, capsys, p4_file):
        code, out, err = run(capsys, "element", p4_file,
                             "--word", "a^" + "9" * 5000)
        assert code == 1
        assert out == ""
        assert "more than" in err

    def test_support(self, capsys, p4_file):
        code, out, _ = run(capsys, "element", p4_file,
                           "--word", "a b a^-1", "--op", "support")
        assert code == 0
        assert json.loads(out)["support"] == ["b"]

    def test_cyclic(self, capsys, p4_file):
        code, out, _ = run(capsys, "element", p4_file,
                           "--word", "a c a^-1", "--op", "cyclic")
        assert code == 0
        obj = json.loads(out)
        assert obj["reduced"] == "c"
        assert obj["conjugator"] == "a"

    def test_centralizer(self, capsys, p4_file):
        code, out, _ = run(capsys, "element", p4_file,
                           "--word", "b", "--op", "centralizer")
        assert code == 0
        obj = json.loads(out)
        assert obj["mode"] == "pro-p"
        assert obj["lower_bound"] is False
        assert obj["factors"] == [{"support": ["b"], "root": "b",
                                   "exponent": 1}]
        assert obj["link_part"] == ["a", "c"]

    def test_centralizer_pro_c_flags_lower_bound(self, capsys, p4_file):
        code, out, _ = run(capsys, "element", p4_file, "--word", "b",
                           "--op", "centralizer", "--mode", "pro-C")
        assert code == 0
        assert json.loads(out)["lower_bound"] is True

    def test_unknown_generator(self, capsys, p4_file):
        code, _, err = run(capsys, "element", p4_file, "--word", "a z")
        assert code == 1
        assert "'z'" in err

    def test_exponent_of_unicode_digits(self, capsys, p4_file):
        tok = "a^" + "\u0660" * 25 + "1"  # Arabic-Indic zeros, then 1
        assert run(capsys, "element", p4_file, "--word", tok) == (
            1, "", "error: malformed word token %r\n" % tok)

    def test_word_required(self, capsys, p4_file):
        code, _, _ = run(capsys, "element", p4_file)
        assert code == 1

    def test_printing_decodes_no_letters(self, capsys, p4_file, monkeypatch):
        # engine-built words print from their codes; none decodes letters
        calls = []
        decode = words._decode
        monkeypatch.setattr(words, "_decode", lambda g, codes:
                            calls.append(codes) or decode(g, codes))
        for op in ("nf", "support", "cyclic", "centralizer"):
            assert run(capsys, "element", p4_file, "--word",
                       "a b c b^-1 a^-1 d", "--op", op)[0] == 0
        assert calls == []


@pytest.mark.parametrize("argv", [
    ["analyze", "-"],
    ["jsj", "-", "--format", "dot"],
    ["jsj", "-", "--mode", "abelian", "--format", "dot"],
    ["element", "-", "--word", "b"],
])
def test_lone_surrogate_name_is_an_input_error(argv):
    # the name has no UTF-8 form, so no output could carry it
    text = '{"vertices": ["\\ud800", "b"], "edges": [["\\ud800", "b"]]}'
    code, out, err = golden.cli_run(text, argv)
    assert (code, out) == (1, "")
    assert err == "error: vertex name '\\ud800' holds a lone surrogate, " \
        "which has no UTF-8 form\n"


# a 200-vertex path: words over generators past the 128th get answers,
# and a bad token is still refused
WIDE = json.dumps({"vertices": ["v%03d" % i for i in range(200)],
                   "edges": [["v%03d" % i, "v%03d" % (i + 1)]
                             for i in range(199)]})
WIDE_WORD = "v199 v150 v152 v128 v000 v150 v152 v128 v000 v199^-1"


@pytest.mark.parametrize("word, err", [
    ("v128 zzz", "error: unknown generator 'zzz'\n"),
])
def test_word_past_the_128th_generator(word, err):
    assert golden.cli_run(WIDE, ["element", "-", "--word", word]) == \
        (1, "", err)


@pytest.mark.parametrize("op, answer", [
    ("nf", {"normal_form": WIDE_WORD, "length": 10}),
    ("support", {"support": ["v000", "v128", "v150", "v152", "v199"]}),
    ("cyclic", {"reduced": "v150 v152 v128 v000 v150 v152 v128 v000",
                "conjugator": "v199"}),
    ("centralizer", {"mode": "pro-p", "conjugator": "v199",
                     "factors": [{"support": ["v000", "v128", "v150", "v152"],
                                  "root": "v150 v152 v128 v000",
                                  "exponent": 2}],
                     "link_part": [], "lower_bound": False}),
])
def test_word_past_the_128th_generator_is_answered(op, answer):
    t0 = time.perf_counter()
    code, out, err = golden.cli_run(
        WIDE, ["element", "-", "--word", WIDE_WORD, "--op", op])
    assert time.perf_counter() - t0 < 2
    assert (code, err) == (0, "")
    assert json.loads(out) == {"input": WIDE_WORD, **answer}


def test_output_bytes_match_golden_digests():
    # exit codes, stdout and stderr of every subcommand on the seeded
    # command line corpus (see golden.py)
    assert golden.cli_digests() == golden.stored_cli()


# any code point, lone surrogates too, with the characters JSON escapes
# (quotes, backslashes, controls) and a few wide ones drawn more often
CHARS = st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "\u2028", "é",
     "\U0001f600"])

JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**40, 10**40)
    | st.text(CHARS, max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(CHARS, max_size=4), inner, max_size=4),
    max_leaves=20)


class TestJsonWriter:
    @given(JSON_TREES)
    @example({"a": [], "b": {}, "c": [[], {}, [1, [True, None]]], "": -3})
    @settings(deadline=None, max_examples=500)
    def test_same_bytes_as_the_stdlib_with_an_indent(self, obj):
        assert _dump(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {"a"}, {1: "a"}])
    def test_other_values_raise_type_error(self, value):
        # floats, tuples and sets, also nested, and keys that are no str
        for obj in (value, [value], {"k": value}):
            with pytest.raises(TypeError):
                _dump(obj)


# exit code, stdout and stderr of `main` on the P4 graph per argv, as the
# full parser alone gave them; null stands for `main()` reading sys.argv
ARGV_PINS = json.loads(
    (Path(__file__).parent / "data" / "cli_argv.json").read_text())
SYS_ARGV = ["raagdecomp", "element", "-", "--word", "b a c", "--op", "nf"]


@pytest.mark.parametrize("pin", ARGV_PINS, ids=lambda p: "sys.argv"
                         if p["argv"] is None else " ".join(p["argv"]) or "-")
def test_argv_handling_matches_the_full_parser(pin, monkeypatch):
    # usage lines wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.argv", SYS_ARGV)
    got = golden.cli_run(P4_JSON, pin["argv"])
    assert got == (pin["code"], pin["stdout"], pin["stderr"])
    # with no subcommand parser to hand to, every argv meets the full one
    full = cli._build_parser()[0]
    monkeypatch.setattr(cli, "_build_parser", lambda: (full, {}))
    assert golden.cli_run(P4_JSON, pin["argv"]) == got


class TestTopLevel:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_repeated_calls_share_one_parser(self, capsys, p4_file):
        good = ("element", p4_file, "--word", "a c a^-1", "--op", "cyclic")
        first = run(capsys, *good)
        assert first[0] == 0
        bad = run(capsys, "element", p4_file, "--op", "cube")
        assert bad[0] == 1 and "invalid choice" in bad[2]
        assert run(capsys, *good) == first
        assert run(capsys, "jsj", p4_file, "--mode", "abelian")[0] == 0
        assert run(capsys, "element", p4_file)[0] == 1
        assert run(capsys, *good) == first
