"""Machine-speed calibration for the timed runs.

The benchmark runs on a shared host whose speed drifts: the same op takes
from 1x to 1.8x its fastest time, in spells of seconds to tens of minutes,
and process CPU time drifts with wall time, so the host runs the process
slower rather than descheduling it. A fixed piece of pure-Python work that
does not touch the program, `chunk()`, runs before every timed op and
set-up. Its time tracks the host's speed at that moment, and every timing
is scaled by ``REFERENCE_S / (mean chunk time near it)``: the figures read
as seconds on a host where one chunk takes ``REFERENCE_S``. A change to the
program leaves the chunk as it is, so a faster program still shows as one.
The raw, unscaled figures are printed on their own line beside the result.

The chunk finds, for each vertex of a fixed random graph, the connected
components left when the vertex and its neighbours are removed: set,
frozenset and dict work of the kind `graphs` and the word kernels do,
written here so that no change to the program can change it. Of the
chunks tried (this one, a closure over byte strings, an allocation-heavy
sort, random reads over a large list), its time followed the speed of all
three workloads most closely across the host's speed spells.
"""

import random
import statistics
import time

# median chunk time on a 2-core x86 container, CPython 3.11
REFERENCE_S = 0.0015
# the chunk times of the ops within this many places either side of an op
# give its scale: about a second, shorter than the host's speed spells
WINDOW = 10


def _graph(n, m, seed):
    rng = random.Random(seed)
    adj = {v: set() for v in range(n)}
    while sum(map(len, adj.values())) < 2 * m:
        a, b = rng.sample(range(n), 2)
        adj[a].add(b)
        adj[b].add(a)
    return {v: frozenset(nbrs) for v, nbrs in adj.items()}


_ADJ = _graph(48, 84, 7)


def chunk():
    """Seconds one fixed pass of component searches takes now."""
    t0 = time.perf_counter()
    for v, nbrs in _ADJ.items():
        left = set(_ADJ) - nbrs - {v}
        comps = []
        while left:
            start = left.pop()
            comp, stack = {start}, [start]
            while stack:
                for y in _ADJ[stack.pop()]:
                    if y in left:
                        left.remove(y)
                        comp.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))
        comps.sort(key=len)
    return time.perf_counter() - t0


def scale(times, chunks):
    """`times[i]` scaled by the mean chunk time in its window.

    The mean, not the median: an op's time adds up every slow burst that
    falls in it, and so does the mean of the chunks around it.
    """
    out = []
    for i, t in enumerate(times):
        near = chunks[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.fmean(near))
    return out
