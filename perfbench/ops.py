"""One op per workload: the calls a user makes, then the checks on what came back.

``run_<workload>(rd, inp)`` pushes one input through the program and returns
``(seconds, outputs)``; only the program's calls are inside ``seconds``.
``check_<workload>(rd, inp, outputs)`` then returns ``(status, detail)`` with
status ``"ok"``, ``"refused"`` (a documented refusal: `centralizer` exits 3
when `primitive_root` runs out of its linearization budget) or ``"failed"``
(a non-zero exit that is not that refusal, an exception, or an output that
does not check out). ``digest(outputs)`` fingerprints the output bytes for
the comparison against the stored reference of the recorded seed.

``rd`` is the imported ``raagdecomp`` package; it is passed in because the
benchmark imports it afresh for each set-up it times.
"""

import contextlib
import hashlib
import io
import json
import sys
import time

from workloads import graph_json

# --- running ------------------------------------------------------------


def _cli(rd, argv, stdin_text):
    """In-process ``raagdecomp.cli.main`` on stdin text, output captured.

    Returns (seconds, (rc, stdout, stderr)); a raised exception is reported
    as rc None with the exception text on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = rd.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                rc = None
                err.write("exception: %r\n" % (exc,))
            seconds = time.perf_counter() - t0
    finally:
        sys.stdin = saved
    return seconds, (rc, out.getvalue(), err.getvalue())


DECOMPOSE_COMMANDS = (
    ("analyze", ["analyze", "-"]),
    ("abelian", ["jsj", "-", "--mode", "abelian", "--format", "json"]),
    ("relative", ["jsj", "-", "--mode", "relative", "--format", "dot"]),
)

WORD_OPS = ("nf", "support", "cyclic", "centralizer")


def run_decompose(rd, graph):
    text = graph_json(graph)
    total, outputs = 0.0, {}
    for name, argv in DECOMPOSE_COMMANDS:
        seconds, outputs[name] = _cli(rd, argv, text)
        total += seconds
    return total, outputs


def run_words(rd, inp):
    graph, word = inp
    text = graph_json(graph)
    total, outputs = 0.0, {}
    for op in WORD_OPS:
        seconds, outputs[op] = _cli(
            rd, ["element", "-", "--word", word, "--op", op], text)
        total += seconds
    return total, outputs


def run_oracles(rd, inp):
    """Three cross-checks on one graph, all inside the timed region."""
    graph, pairs, balls = inp
    text = graph_json(graph)
    out = {}
    t0 = time.perf_counter()
    try:
        g = rd.graphs.parse_graph(text)
        out["separators"] = [list(s) for s in rd.graphs.clique_separators(g)]
        out["brute"] = [list(s) for s in
                        rd.oracles.brute_clique_separators(g)]
        out["equal"] = []
        for a, b in pairs:
            wa = rd.words.parse_word(g, a)
            wb = rd.words.parse_word(g, b)
            out["equal"].append([rd.words.equal(wa, wb),
                                 rd.oracles.bfs_equal(wa, wb)])
        out["centralizer"] = []
        for radius, texts in balls:
            for text_w in texts:
                w = rd.words.parse_word(g, text_w)
                d = rd.words.centralizer_descriptor(w)
                ball = rd.oracles.commuting_words(g, w, radius)
                inside = sum(1 for u in ball if d.contains(u.word))
                out["centralizer"].append([len(ball), inside])
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        out["exception"] = repr(exc)
    return time.perf_counter() - t0, out


RUN = {"decompose": run_decompose, "words": run_words, "oracles": run_oracles}


def digest(outputs):
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# --- checking -----------------------------------------------------------


def _adjacency(graph):
    vs, edges = graph
    adj = {v: set() for v in vs}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _component_count(adj, removed):
    left = set(adj) - removed
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            for y in adj[stack.pop()]:
                if y in left:
                    left.remove(y)
                    stack.append(y)
    return count


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_decompose(rd, graph, outputs):
    for name, (rc, _, err) in outputs.items():
        if rc != 0:
            return "failed", "%s exit %r: %s" % (name, rc, err.strip()[:200])
    adj = _adjacency(graph)
    report = _json(outputs["analyze"][1])
    if not isinstance(report, dict):
        return "failed", "analyze: output is not a JSON object"
    if report.get("vertices") != sorted(adj) or not report.get("is_connected"):
        return "failed", "analyze: vertex list or connectivity is wrong"
    seps = [tuple(s) for s in report.get("clique_separators", ())]
    if seps != sorted(seps, key=lambda s: (len(s), s)):
        return "failed", "analyze: separators are not sorted"
    for s in seps:
        members = set(s)
        if any(v not in adj[u] for u in s for v in s if u != v):
            return "failed", "analyze: %s is not a clique" % (s,)
        if _component_count(adj, members) < 2:
            return "failed", "analyze: %s does not disconnect" % (s,)
        if any(set(t) < members for t in seps):
            return "failed", "analyze: %s is not inclusion-minimal" % (s,)
    minimum = report.get("minimum_clique_separator")
    if minimum != (list(seps[0]) if seps else None):
        return "failed", "analyze: minimum separator is not the first one"
    abelian = _json(outputs["abelian"][1])
    if (not isinstance(abelian, dict)
            or not abelian.get("decomposition", {}).get("nodes")
            or not all(c.get("passed") for c in abelian.get("validation", ()))):
        return "failed", "abelian: no nodes or a validation check failed"
    dot = outputs["relative"][1]
    if not (dot.startswith("graph decomposition {") and dot.endswith("}\n")):
        return "failed", "relative: output is not a DOT graph"
    if outputs["relative"][2]:
        return "failed", "relative: stderr is not empty"
    return "ok", ""


def check_words(rd, inp, outputs):
    graph, word = inp
    refused = False
    for op, (rc, _, err) in outputs.items():
        if rc == 3 and op == "centralizer" and err.startswith("budget exceeded"):
            refused = True
        elif rc != 0:
            return "failed", "%s exit %r: %s" % (op, rc, err.strip()[:200])
    g = rd.graphs.parse_graph(graph_json(graph))
    w = rd.words.parse_word(g, word)
    objs = {op: _json(outputs[op][1]) for op in WORD_OPS}
    if any(not isinstance(objs[op], dict) for op in WORD_OPS if
           not (refused and op == "centralizer")):
        return "failed", "an output is not a JSON object"
    nf = objs["nf"].get("normal_form", "")
    nf_word = rd.words.parse_word(g, nf)
    if not rd.words.equal(nf_word, w) or objs["nf"].get("length") != len(nf.split()):
        return "failed", "nf: normal form is not equal to the input"
    if str(rd.words.normal_form(nf_word)) != nf:
        return "failed", "nf: normal form is not canonical"
    if objs["support"].get("support") != sorted({t.split("^")[0] for t in nf.split()}):
        return "failed", "support: does not match the normal form"
    red = rd.words.parse_word(g, objs["cyclic"].get("reduced", ""))
    conj = rd.words.parse_word(g, objs["cyclic"].get("conjugator", ""))
    if not rd.words.equal(conj.inverse() * w * conj, red):
        return "failed", "cyclic: reduced is not conjugator^-1 * w * conjugator"
    if refused:
        return "refused", "centralizer: primitive_root budget exceeded"
    if not _descriptor(rd, g, objs["centralizer"]).contains(w):
        return "failed", "centralizer: the word is not in its own centralizer"
    return "ok", ""


def _descriptor(rd, g, obj):
    """Rebuild the library's descriptor from the CLI's JSON output."""
    def nf(text):
        return rd.words.NormalForm(g, rd.words.parse_word(g, text).letters)
    factors = tuple(
        rd.words.CentralizerFactor(tuple(f["support"]), nf(f["root"]),
                                   f["exponent"])
        for f in obj["factors"])
    return rd.words.CentralizerDescriptor(
        g, obj["mode"], rd.words.parse_word(g, obj["conjugator"]), factors,
        tuple(obj["link_part"]))


def check_oracles(rd, inp, out):
    if "exception" in out:
        return "failed", out["exception"]
    if out["separators"] != out["brute"]:
        return "failed", "clique_separators disagrees with the brute force"
    pairs = inp[1]
    for k, (fast, slow) in enumerate(out["equal"]):
        if fast != slow:
            return "failed", "equal disagrees with bfs_equal on %r" % (pairs[k],)
        if k % 2 and not fast:
            return "failed", "a pair equal by construction compared unequal"
    for size, inside in out["centralizer"]:
        if size < 1 or inside != size:
            return "failed", "a commuting word is outside the centralizer"
    return "ok", ""


CHECK = {"decompose": check_decompose, "words": check_words,
         "oracles": check_oracles}
