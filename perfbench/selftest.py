"""Self-test: corrupted outputs must count as failed ops.

    python3 perfbench/run.py --self-test

For each workload, runs a few ops clean (none may fail), then the same ops
with each corruption below applied to the captured outputs before they are
checked (every op must fail). The last corruption of each workload changes
only bytes that the property checks do not read; it must be caught by the
digest comparison with the reference, as on the recorded seed.
"""

import copy
import json

SEED = 7
OPS = 3


def _edit_json(outputs, command, edit):
    rc, stdout, stderr = outputs[command]
    obj = json.loads(stdout)
    edit(obj)
    outputs[command] = (rc, json.dumps(obj, indent=2) + "\n", stderr)


def _exit(command, rc):
    def corrupt(outputs):
        _, stdout, stderr = outputs[command]
        outputs[command] = (rc, stdout, stderr)
    return corrupt


def _truncate_dot(outputs):
    rc, stdout, stderr = outputs["relative"]
    outputs["relative"] = (rc, stdout[:-2], stderr)


def _disconnected(outputs):
    _edit_json(outputs, "analyze", lambda o: o.update(is_connected=False))


def _extra_letter(command, key):
    def corrupt(outputs):
        def edit(obj):
            tokens = obj[key].split()
            obj[key] = " ".join(tokens + tokens[:1])
        _edit_json(outputs, command, edit)
    return corrupt


def _trailing_space(command):
    def corrupt(outputs):
        rc, stdout, stderr = outputs[command]
        outputs[command] = (rc, stdout + " ", stderr)
    return corrupt


def _flip_bfs(out):
    out["equal"][0][1] = not out["equal"][0][1]


def _extra_brute(out):
    out["brute"].append(["zz"])


def _outside_centralizer(out):
    out["centralizer"][0][1] -= 1


def _extra_key(out):
    out["note"] = "changed"


CORRUPTIONS = {
    "decompose": [("abelian exits 2", _exit("abelian", 2)),
                  ("DOT cut short", _truncate_dot),
                  ("graph reported disconnected", _disconnected),
                  ("trailing space", _trailing_space("analyze"))],
    "words": [("normal form gains a letter", _extra_letter("nf", "normal_form")),
              ("reduced form gains a letter", _extra_letter("cyclic", "reduced")),
              ("centralizer exits 1", _exit("centralizer", 1)),
              ("trailing space", _trailing_space("support"))],
    "oracles": [("bfs_equal flipped", _flip_bfs),
                ("brute force finds another separator", _extra_brute),
                ("a ball word falls outside the centralizer",
                 _outside_centralizer),
                ("extra output field", _extra_key)],
}


def _applying(corrupt):
    def apply(outputs):
        outputs = copy.deepcopy(outputs)
        corrupt(outputs)
        return outputs
    return apply


def main(rd, runner_class):
    problems = []
    for workload, corruptions in CORRUPTIONS.items():
        clean = runner_class(rd, workload, SEED)
        for i in range(OPS):
            clean.op(i)
        problems += ["%s clean: %s" % (workload, f) for f in clean.failures]
        for k, (name, corrupt) in enumerate(corruptions):
            # only the last corruption relies on the reference digests
            reference = clean.digests if k == len(corruptions) - 1 else None
            bad = runner_class(rd, workload, SEED, reference,
                               _applying(corrupt))
            for i in range(OPS):
                bad.op(i)
            caught = bad.failed()
            print("%-9s %-42s %d/%d ops failed"
                  % (workload, name, caught, OPS), flush=True)
            if caught != OPS:
                problems.append("%s: %s not caught" % (workload, name))
    for line in problems:
        print("self-test problem: " + line)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0
