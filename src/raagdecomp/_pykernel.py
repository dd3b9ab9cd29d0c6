"""Pure-Python letter-sequence kernels.

Two independent families live here and must stay independent, because the
second exists to check the first:

* `canonicalize` is the production normal-form routine: one pass that
  inserts each letter into the shortlex-least spelling of the prefix read
  so far, kept as runs of one letter.
* `closure_canonical` / `closure_equal` are brute-force breadth-first
  closures under the two elementary moves (swap an adjacent commuting pair,
  delete an adjacent inverse pair), used only by the oracles.

Encoding shared by both families: a letter is the int `2*i + s` where `i`
is the generator index in the graph's sorted vertex order and `s` is 0 for
a positive letter, 1 for an inverse; `code ^ 1` is the inverse letter and
`code >> 1` the generator. `masks[i]` is the bitmask of generator indices
adjacent to generator `i` (never including `i` itself). The closures hold
one byte per letter.
"""

from collections import deque
import functools

from .errors import BudgetExceededError


def canonicalize(data, masks):
    """Shortlex-least geodesic representative of the element spelled by `data`.

    One pass over the letters. The buffer always holds the shortlex-least
    geodesic of the prefix read so far, as maximal runs of one letter, each
    stored as the int `count * one + code` (`one` exceeds every code). An
    incoming letter x scans the runs from the top while their generators
    commute with x, remembering the lowest scanned run whose letter is
    greater than x; the scan stops at the first run of x's generator or of a
    generator x does not commute with. If that run is x's inverse, x cancels
    one letter of it (the run goes when it empties). Otherwise x goes just
    before the remembered run, or at the end if there is none, extending the
    run before it when that run is x's own: a greedy lex-least topological
    sort places a letter before the first greater letter after its last
    dependency. Deleting a letter that nothing after it depends on keeps the
    spelling least, and never leaves two runs of one letter side by side: a
    least spelling has no factor z y z with a lone y commuting with z, so
    runs never need merging. The codes come back in the type of `data`.
    """
    one = 1 << (2 * len(masks)).bit_length()
    low = one - 1
    runs = []
    for x in data:
        mx = masks[x >> 1]
        j = len(runs) - 1
        at = j + 1
        while j >= 0:
            y = runs[j] & low
            # masks[g] never holds g itself, so x's own generator stops too
            if not (mx >> (y >> 1)) & 1:
                break
            if y > x:
                at = j
            j -= 1
        if j >= 0 and runs[j] & low == x ^ 1:
            if runs[j] >= 2 * one:  # two letters or more
                runs[j] -= one
            else:
                del runs[j]
        elif at and runs[at - 1] & low == x:
            runs[at - 1] += one
        else:
            runs.insert(at, one | x)
    out = []
    for r in runs:
        if r < 2 * one:  # most runs hold one letter
            out.append(r & low)
        else:
            out += [r & low] * (r // one)
    return type(data)(out)


@functools.lru_cache(maxsize=64)
def _move_table(masks):
    """`table[x][y]`: what the adjacent letters x y become under the one
    elementary move that applies to them: b"" when they cancel, the
    swapped pair when they commute, None when neither does. Built once per
    `masks` tuple and cached, so a visited state costs one lookup per
    adjacent pair."""
    size = 2 * len(masks)
    table = []
    for x in range(size):
        row = []
        for y in range(size):
            gx, gy = x >> 1, y >> 1
            if x == y ^ 1:
                row.append(b"")
            elif gx != gy and (masks[gx] >> gy) & 1:
                row.append(bytes((y, x)))
            else:
                row.append(None)
        table.append(tuple(row))
    return tuple(table)


def closure_canonical(data, masks, max_states):
    """Shortlex-least word in the full move-closure of `data`.

    Enumerates every word reachable by swaps and cancellations, so it is an
    independent (and much slower) route to the same canonical form that
    `canonicalize` computes. The queue is a list that the loop reads while
    appending to it: breadth-first order, with nothing popped.
    """
    table = _move_table(tuple(masks))
    start = bytes(data)
    seen = {start}
    queue = [start]
    best = start
    for s in queue:
        # the moves of s, left to right: one per adjacent pair at most
        for i in range(len(s) - 1):
            rep = table[s[i]][s[i + 1]]
            if rep is None:
                continue
            t = s[:i] + rep + s[i + 2:]
            if t in seen:
                continue
            if len(seen) >= max_states:
                raise BudgetExceededError(
                    "closure exceeded %d states" % max_states,
                    dimension="max_states", consumed=len(seen) + 1,
                    limit=max_states)
            seen.add(t)
            queue.append(t)
            if len(t) < len(best) or (len(t) == len(best) and t < best):
                best = t
    return best


def closure_equal(w1, w2, masks, max_states):
    """True iff the move-closures of `w1` and `w2` intersect.

    Both closures are grown breadth-first in lockstep; unequal elements have
    disjoint closures, equal elements share every geodesic representative,
    so the first meeting point decides. `max_states` caps the total number
    of distinct words held across both sides.
    """
    a = bytes(w1)
    b = bytes(w2)
    if a == b:
        return True
    table = _move_table(tuple(masks))
    side = {a: 0, b: 1}
    queues = (deque((a,)), deque((b,)))
    while queues[0] or queues[1]:
        for k in (0, 1):
            if not queues[k]:
                continue
            s = queues[k].popleft()
            for i in range(len(s) - 1):
                rep = table[s[i]][s[i + 1]]
                if rep is None:
                    continue
                t = s[:i] + rep + s[i + 2:]
                o = side.get(t)
                if o is None:
                    if len(side) >= max_states:
                        raise BudgetExceededError(
                            "closure exceeded %d states" % max_states,
                            dimension="max_states", consumed=len(side) + 1,
                            limit=max_states)
                    side[t] = k
                    queues[k].append(t)
                elif o != k:
                    return True
    return False
