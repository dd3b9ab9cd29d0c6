import io
import json

import pytest

from raagdecomp.cli import main

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

    def test_non_string_edge_endpoint(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": ["a","b"], "edges": [[["a"],"b"]]}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "endpoints must be vertex name strings" in err


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

    def test_bad_mode_is_input_error(self, capsys, p4_file):
        code, _, _ = run(capsys, "jsj", p4_file, "--mode", "sideways")
        assert code == 1


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

    def test_word_required(self, capsys, p4_file):
        code, _, _ = run(capsys, "element", p4_file)
        assert code == 1


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
