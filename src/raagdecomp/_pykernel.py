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

from .errors import BudgetExceededError


def canonicalize(data, masks):
    """Shortlex-least geodesic representative of the element spelled by `data`.

    Reduction: letters are pushed onto a stack; an incoming letter scans down
    past commuting letters and cancels the first matching inverse it can
    reach, a same-generator letter or a non-commuting letter blocks the scan.
    Linearization: repeatedly emit the least letter that can be shuffled to
    the front of what remains.
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

    n = len(masks)
    full = (1 << n) - 1
    # block[g]: generators that cannot move left past g (non-neighbours and g)
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


def _moves(s, masks):
    out = []
    for i in range(len(s) - 1):
        a = s[i]
        b = s[i + 1]
        if a == (b ^ 1):
            out.append(s[:i] + s[i + 2:])
        ga = a >> 1
        gb = b >> 1
        if ga != gb and (masks[ga] >> gb) & 1:
            out.append(s[:i] + bytes((b, a)) + s[i + 2:])
    return out


def closure_canonical(data, masks, max_states):
    """Shortlex-least word in the full move-closure of `data`.

    Enumerates every word reachable by swaps and cancellations, so it is an
    independent (and much slower) route to the same canonical form that
    `canonicalize` computes.
    """
    start = bytes(data)
    seen = {start}
    queue = deque((start,))
    best = start
    while queue:
        for t in _moves(queue.popleft(), masks):
            if t in seen:
                continue
            if len(seen) >= max_states:
                raise BudgetExceededError(
                    "closure exceeded %d states" % max_states,
                    dimension="max_states")
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
    side = {a: 0, b: 1}
    queues = (deque((a,)), deque((b,)))
    while queues[0] or queues[1]:
        for k in (0, 1):
            if not queues[k]:
                continue
            for t in _moves(queues[k].popleft(), masks):
                o = side.get(t)
                if o is None:
                    if len(side) >= max_states:
                        raise BudgetExceededError(
                            "closure exceeded %d states" % max_states,
                            dimension="max_states")
                    side[t] = k
                    queues[k].append(t)
                elif o != k:
                    return True
    return False
