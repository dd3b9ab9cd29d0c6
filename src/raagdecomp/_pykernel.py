"""Pure-Python letter-sequence kernels.

Two independent families live here and must stay independent, because the
second exists to check the first:

* `canonicalize` is the production normal-form routine (greedy piling style:
  stack reduction, then least-letter-first linearization).
* `closure_canonical` / `closure_equal` are brute-force breadth-first
  closures under the two elementary moves (swap an adjacent commuting pair,
  delete an adjacent inverse pair), used only by the oracles.

Encoding shared by both families: a letter is one byte `2*i + s` where `i`
is the generator index in the graph's sorted vertex order and `s` is 0 for
a positive letter, 1 for an inverse; `code ^ 1` is the inverse letter and
`code >> 1` the generator. `masks[i]` is the bitmask of generator indices
adjacent to generator `i` (never including `i` itself).
"""

from collections import deque
import functools

from .errors import BudgetExceededError


def canonicalize(data, masks):
    """Shortlex-least geodesic representative of the element spelled by `data`.

    Reduction: letters are pushed onto a stack; an incoming letter scans down
    past commuting letters and cancels the first matching inverse it can
    reach, a same-generator letter or a non-commuting letter blocks the scan.
    Linearization: repeatedly emit the least letter that can be shuffled to
    the front of what remains. A scan stops once every generator of the
    reduced word is blocked, since no later letter can move to the front;
    generators absent from the word never appear later in a scan, so they
    are left out of the blocked sets.
    """
    buf = bytearray()
    for x in data:
        mx = masks[x >> 1]
        gx = x >> 1
        j = len(buf) - 1
        cancel = -1
        while j >= 0:
            y = buf[j]
            gy = y >> 1
            if gy == gx:
                if y == (x ^ 1):
                    cancel = j
                break
            if not (mx >> gy) & 1:
                break
            j -= 1
        if cancel >= 0:
            del buf[cancel]
        else:
            buf.append(x)

    full = 0
    for x in set(buf):
        full |= 1 << (x >> 1)
    # block[g]: generators of the word that cannot move left past g
    # (its non-neighbours and g itself)
    block = [full & ~m for m in masks]
    out = bytearray()
    while buf:
        bad = 0
        best = 256
        best_pos = -1
        for p, x in enumerate(buf):
            g = x >> 1
            if not (bad >> g) & 1 and x < best:
                best = x
                best_pos = p
            bad |= block[g]
            if bad == full:
                break
        out.append(best)
        del buf[best_pos]
    return bytes(out)


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
    `canonicalize` computes.
    """
    table = _move_table(tuple(masks))
    start = bytes(data)
    seen = {start}
    queue = deque((start,))
    best = start
    while queue:
        s = queue.popleft()
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
