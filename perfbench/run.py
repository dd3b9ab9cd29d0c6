"""Seeded end-to-end and per-layer benchmark for raagdecomp.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the package is imported from ``src/``
next to this directory, never from an installed copy. One process, one
thread, a closed loop with a single client: each op starts when the last
one has returned, as in a researcher's script waiting for each answer.

Workloads (inputs in ``workloads.py``, ops and checks in ``ops.py``):

* ``decompose``: ``analyze``, ``jsj --mode abelian --format json`` and
  ``jsj --mode relative --format dot`` on one graph, in-process through
  ``raagdecomp.cli.main``.
* ``words``: ``element --op nf|support|cyclic|centralizer`` on one word.
* ``oracles``: clique separators, word equality and centralizer membership
  cross-checked against the brute-force oracles on one small graph.

``--trace 0`` runs distinct ops for ``--seconds`` (at least 100) and
prints the end-to-end metrics. Each op and each set-up is timed right after
a fixed calibration chunk, and its time is scaled to a reference host speed
(``calibration.py``); the unscaled figures are printed on the ``raw`` line.
``--trace 1`` runs each of a fixed list of ops (``TRACE_OPS``, whatever
``--seconds`` says) twice, untraced and traced, and prints the per-layer
metrics and the tracing overhead: traced minus untraced time of the same
ops. The spans are written to ``.perfbench/``.

Every op's output is checked in both modes; in the traced mode the traced
and untraced runs of an op must give the same bytes, and for the recorded
seed the output digests are also compared with ``reference.json``. A
failed check counts in ``failed`` and does not stop the run. The last line
of standard output is the JSON result; the line starting with ``env``
records commit, Python version, kernel backend and core count
(``compare.py`` flags runs that differ).

``--self-test`` shows that corrupted outputs count as failed;
``--record-reference`` rewrites ``reference.json``.
"""

import argparse
import importlib
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import sys
import time

import calibration
import ops
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
RECORDED_SEED = 1
# enough reference digests for any time-bounded run on current hardware
REFERENCE_OPS = 1500

# setup_s is the median of these
SETUP_REPEATS = 25
# at least ten latencies beyond p90
MIN_OPS = 100
# ops of a traced run, whole schedule cycles: each op runs untraced and
# traced, about 20-25 s in all on a 2-core x86 container
TRACE_OPS = {"decompose": 96, "words": 80, "oracles": 96}


def _import_fresh():
    """Import raagdecomp from SRC with none of its modules cached."""
    for name in [m for m in sys.modules
                 if m == "raagdecomp" or m.startswith("raagdecomp.")]:
        del sys.modules[name]
    rd = importlib.import_module("raagdecomp")
    importlib.import_module("raagdecomp.cli")
    if Path(rd.__file__).resolve().parent != SRC / "raagdecomp":
        raise ImportError("raagdecomp was imported from %s, not from %s"
                          % (rd.__file__, SRC))
    return rd


class Setup:
    """Timed set-ups: a fresh import of the package, then the warm-up.

    The warm-up inputs are built once, before any timing, and use vertex
    names no timed input uses. `times` keeps every set-up's seconds and
    `chunks` the calibration chunk timed just before it.
    """

    def __init__(self, workload):
        self.workload = workload
        self.warm = workloads.warmup_inputs(workload)
        self.times, self.chunks = [], []

    def __call__(self):
        self.chunks.append(calibration.chunk())
        t0 = time.perf_counter()
        rd = _import_fresh()
        for _, inp in self.warm:
            ops.RUN[self.workload](rd, inp)
        self.times.append(time.perf_counter() - t0)
        return rd


def environment(rd):
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "backend": rd.backend_name(),
        "nproc": os.cpu_count(),
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs and checks ops; keeps latencies, statuses and digests."""

    def __init__(self, rd, workload, seed, reference=None, corrupt=None):
        self.rd, self.workload, self.seed = rd, workload, seed
        self.reference = reference or []
        self.corrupt = corrupt
        self.latencies, self.digests, self.statuses = [], [], []
        self.failures = []

    def op(self, i, tracer=None):
        label, inp = workloads.op_input(self.workload, self.seed, i)
        if tracer is not None:
            tracer.begin_op()
        try:
            seconds, outputs = ops.RUN[self.workload](self.rd, inp)
        finally:
            if tracer is not None:
                tracer.end_op()
        if self.corrupt is not None:
            outputs = self.corrupt(outputs)
        try:
            status, detail = ops.CHECK[self.workload](self.rd, inp, outputs)
        except Exception as exc:  # noqa: BLE001 - a check that breaks fails
            status, detail = "failed", "check raised %r" % (exc,)
        digest = ops.digest(outputs)
        if i < len(self.reference) and digest != self.reference[i]:
            status, detail = "failed", "output differs from the reference"
        if status == "failed":
            self.failures.append("op %d (%s): %s" % (i, label, detail))
        self.latencies.append(seconds)
        self.digests.append(digest)
        self.statuses.append(status)
        return status

    def failed(self):
        return self.statuses.count("failed")


def _timings(latencies, setup_s):
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (cuts[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def _end_to_end(latencies, statuses, setup_s):
    metrics = _timings(latencies, setup_s)
    metrics["answered_ratio"] = (statuses.count("ok") / len(statuses), "ratio")
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return metrics


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner, seconds):
    """Run distinct ops for `seconds`; (raw, scaled) latencies.

    A calibration chunk runs before each op, and each op's time is scaled
    by the chunks around it, so that the host's speed spells cancel out.
    """
    deadline = time.perf_counter() + seconds
    chunks = []
    n = 0
    while n < MIN_OPS or time.perf_counter() < deadline:
        chunks.append(calibration.chunk())
        runner.op(n)
        n += 1
    return runner.latencies, calibration.scale(runner.latencies, chunks)


def measure_traced(runner, workload, seed):
    """Each op untraced and traced, in alternating order; per-layer metrics.

    The package is imported afresh before every execution, so neither run
    of an op finds the other's results in a module-level cache.
    """
    count = TRACE_OPS[workload]
    tracer = tracing.Tracer()
    spent = {False: 0.0, True: 0.0}
    for i in range(count):
        digests = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            runner.rd = _import_fresh()
            if traced:
                tracer.install(runner.rd)
            runner.op(i, tracer if traced else None)
            spent[traced] += runner.latencies[-1]
            digests[traced] = runner.digests[-1]
        if digests[True] != digests[False]:
            runner.statuses[-1] = "failed"
            runner.failures.append("op %d: traced output differs" % i)
    metrics = tracer.aggregate()
    overhead = spent[True] - spent[False]
    metrics.update({
        "trace.ops": count,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / spent[False],
    })
    tracer.write(ROOT / ".perfbench" / ("spans-%s-%d.json.gz"
                                        % (workload, seed)))
    return metrics


def load_reference(workload, seed):
    if seed != RECORDED_SEED or not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text())["digests"].get(workload, [])


def record_reference():
    rd = _import_fresh()
    doc = {"seed": RECORDED_SEED, "digests": {}}
    for workload in workloads.SLOTS:
        runner = Runner(rd, workload, RECORDED_SEED)
        for i in range(REFERENCE_OPS):
            runner.op(i)
        if runner.failed():
            print("\n".join(runner.failures[:10]), file=sys.stderr)
            return 1
        doc["digests"][workload] = runner.digests
        print("%s: %d digests" % (workload, REFERENCE_OPS), flush=True)
    REFERENCE.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the result and environment here")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "raagdecomp" / "__init__.py").is_file():
        print("error: no raagdecomp sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest
        return selftest.main(_import_fresh(), Runner)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    setup = Setup(args.workload)
    for _ in range(SETUP_REPEATS):
        rd = setup()
    env = environment(rd)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    runner = Runner(rd, args.workload, args.seed,
                    load_reference(args.workload, args.seed))
    if args.trace:
        values = measure_traced(runner, args.workload, args.seed)
        metrics = {k: {"value": values[k], "unit": tracing.unit(k)}
                   for k in tracing.metric_names()}
    else:
        raw, latencies = measure(runner, args.seconds)
        values = _end_to_end(
            latencies, runner.statuses,
            statistics.median(calibration.scale(setup.times, setup.chunks)))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        print("raw " + json.dumps({k: v for k, (v, _) in _timings(
            raw, statistics.median(setup.times)).items()}), flush=True)
        print("ops %d, %d beyond p90" % (
            len(latencies),
            sum(1 for x in latencies
                if x * 1e3 > metrics["op_p90_ms"]["value"])), flush=True)
    for line in runner.failures[:20]:
        print("failed: " + line, flush=True)
    failed = runner.failed()
    result = {"correct": failed == 0, "attempted": len(runner.statuses),
              "failed": failed, "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "env": env, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
