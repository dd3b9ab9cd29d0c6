"""Elements of a right-angled Artin group as words over signed generators.

A `Word` is an unreduced spelling; `NormalForm` is the shortlex-least
geodesic spelling of the element, unique per element, computed by the
letter kernels. Two spellings denote the same element exactly when
their normal forms coincide.

Letter order is (generator name, sign) with the positive letter before the
inverse, generators in sorted name order; all determinism downstream leans
on that order.
"""

from bisect import insort
from dataclasses import dataclass
from itertools import compress
import re
from typing import Iterable, Tuple

from . import kernels
from .errors import BudgetExceededError, DomainError
from .graphs import (SimplicialGraph, induced_subgraph, join_factors, link,
                     _vertex_set)

Letter = Tuple[str, int]


@dataclass(frozen=True)
class Word:
    graph: SimplicialGraph
    letters: Tuple[Letter, ...]

    def __post_init__(self):
        for name, sign in self.letters:
            if sign not in (1, -1):
                raise DomainError("letter sign must be +1 or -1, got %r" % (sign,))
            if name not in self.graph._index:
                raise DomainError("unknown generator %r" % (name,))

    def __mul__(self, other: "Word") -> "Word":
        _same_graph(self, other)
        return Word(self.graph, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.graph,
                    tuple((n, -s) for n, s in reversed(self.letters)))

    def written_length(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_text(self)


@dataclass(frozen=True)
class NormalForm:
    """Canonical spelling; only engine operations construct these."""
    graph: SimplicialGraph
    letters: Tuple[Letter, ...]

    @property
    def word(self) -> Word:
        return Word(self.graph, self.letters)

    def length(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_text(self)


_TOKEN = re.compile(r"([A-Za-z0-9_]+)(?:\^([+-]?\d+))?\Z")

# Most letters a parsed word may expand to. Each expanded letter costs
# about 80 bytes, so the cap keeps a parsed word under about 100 MB.
MAX_WORD_LETTERS = 1_000_000


def parse_word(graph: SimplicialGraph, text: str) -> Word:
    """Whitespace-separated tokens `v`, `v^-1`, `v^k` (k expanded).

    Raises DomainError when the word would expand to more than
    MAX_WORD_LETTERS letters, before building any of them.
    """
    tokens = []
    total = 0
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise DomainError("malformed word token %r" % (tok,))
        name, digits = m.group(1), m.group(2) or "1"
        if name not in graph._index:
            raise DomainError("unknown generator %r" % (name,))
        sign = -1 if digits[0] == "-" else 1
        digits = digits.lstrip("+-").lstrip("0") or "0"
        # int() refuses more than 4300 digits; 20 are far over the cap
        count = int(digits) if len(digits) <= 20 else MAX_WORD_LETTERS + 1
        total += count
        if total > MAX_WORD_LETTERS:
            raise DomainError("word expands to more than %d letters"
                              % MAX_WORD_LETTERS)
        tokens.append(((name, sign), count))
    return Word(graph, tuple(
        letter for letter, count in tokens for _ in range(count)))


def word_text(w) -> str:
    return " ".join(n if s > 0 else n + "^-1" for n, s in w.letters)


def _same_graph(a, b) -> None:
    if a.graph != b.graph:
        raise DomainError("words live over different graphs")


def _encode(graph: SimplicialGraph, letters: Iterable[Letter]) -> bytes:
    idx = graph._index
    try:
        return bytes(2 * idx[n] + (0 if s > 0 else 1) for n, s in letters)
    except ValueError:
        # a letter code is one byte, so generator indices stop at 127
        raise DomainError(
            "words may use only the first 128 generators in sorted order "
            "(one-byte letter codes); this graph has %d"
            % len(graph.vertices)) from None


def _decode(graph: SimplicialGraph, data: bytes) -> Tuple[Letter, ...]:
    vs = graph.vertices
    return tuple((vs[b >> 1], 1 if b % 2 == 0 else -1) for b in data)


def _canonical_codes(w) -> bytes:
    return kernels.canonicalize(_encode(w.graph, w.letters), w.graph.masks)


def normal_form(w: Word) -> NormalForm:
    return NormalForm(w.graph, _decode(w.graph, _canonical_codes(w)))


def equal(w1, w2) -> bool:
    _same_graph(w1, w2)
    return _canonical_codes(w1) == _canonical_codes(w2)


def support(w) -> Tuple[str, ...]:
    """Generators of the least standard subgroup containing the element:
    exactly the generators surviving in the normal form."""
    vs = w.graph.vertices
    return tuple(sorted({vs[b >> 1] for b in _canonical_codes(w)}))


def retract(w: Word, s) -> Word:
    """Image under the retraction killing every generator outside `s`."""
    s = _vertex_set(w.graph, s)
    return Word(w.graph, tuple(l for l in w.letters if l[0] in s))


def power(w: Word, k: int) -> Word:
    base = w if k >= 0 else w.inverse()
    return Word(w.graph, base.letters * abs(k))


def _first_movable(codes: bytes, masks) -> dict:
    """Letter code -> first position that can be shuffled to the front."""
    full = (1 << len(masks)) - 1
    out = {}
    bad = 0
    for p, x in enumerate(codes):
        g = x >> 1
        if not (bad >> g) & 1 and x not in out:
            out[x] = p
        bad |= full & ~masks[g]
        if bad == full:
            break
    return out


def _unblocked(order, block, full) -> int:
    """Bitmask of the generators in `order` (pairs (key, generator), first
    letter first) that no earlier generator in it blocks."""
    out = bad = 0
    for _, g in order:
        if not (bad >> g) & 1:
            out |= 1 << g
        bad |= block[g]
        if bad == full:
            break
    return out


def _peel(codes: bytes, masks) -> Tuple[bytes, bytes]:
    """Peel conjugating pairs off a geodesic spelling.

    Repeatedly takes the least letter x that can be shuffled to the front
    while x^-1 can be shuffled to the rear, and drops both. Returns
    (rest, conjugator): the remaining letters in their order, a geodesic
    spelling (not the normal form) of conjugator^-1 * codes * conjugator,
    and the peeled letters x in order.

    Which letters a geodesic spelling can start or end with depends only
    on the element, so every pair can be peeled off this one spelling.
    Such a pair is the first and the last letter on one generator; the
    positions of each generator's letters form a pile, peeling pops both
    ends of one pile, and the generators are kept sorted by their first
    and by their last remaining position. Each pair costs O(k) for k
    generators, the whole peel O(|codes| + k * pairs).
    """
    full = (1 << len(masks)) - 1
    block = [full & ~m for m in masks]  # non-neighbours and the generator
    piles = [[] for _ in masks]
    for p, x in enumerate(codes):
        piles[x >> 1].append(p)
    lo = [0] * len(piles)
    hi = [len(pile) - 1 for pile in piles]
    heads = sorted((pile[0], g) for g, pile in enumerate(piles) if pile)
    tails = sorted((-pile[-1], g) for g, pile in enumerate(piles) if pile)
    alive = bytearray(b"\x01") * len(codes)
    conj = bytearray()
    while True:
        both = _unblocked(heads, block, full) & _unblocked(tails, block, full)
        while both:
            g = (both & -both).bit_length() - 1
            first, last = piles[g][lo[g]], piles[g][hi[g]]
            if codes[first] == codes[last] ^ 1:
                break
            both &= both - 1
        else:  # no generator offers a pair: cyclically reduced
            break
        conj.append(codes[first])
        alive[first] = alive[last] = 0
        heads.remove((first, g))
        tails.remove((-last, g))
        lo[g] += 1
        hi[g] -= 1
        if lo[g] <= hi[g]:
            insort(heads, (piles[g][lo[g]], g))
            insort(tails, (-piles[g][hi[g]], g))
    return bytes(compress(codes, alive)), bytes(conj)


def cyclically_reduce(w: Word) -> Tuple[NormalForm, Word]:
    """Minimal-support conjugate plus the conjugator.

    Returns (reduced, conjugator) with reduced equal to
    conjugator^-1 * w * conjugator; the reduced form has minimal length and
    minimal support over the whole conjugacy class. The word is
    canonicalized once, the conjugator peeled off that spelling in
    O(k * |w|) for k generators, and what remains canonicalized once more.
    """
    masks = w.graph.masks
    rest, conj = _peel(_canonical_codes(w), masks)
    if conj:
        rest = kernels.canonicalize(rest, masks)
    return (NormalForm(w.graph, _decode(w.graph, rest)),
            Word(w.graph, _decode(w.graph, conj)))


def _divisors_descending(n: int):
    return [k for k in range(n, 1, -1) if n % k == 0]


def _length_m_prefixes(codes: bytes, m: int, masks, cap: int):
    """Distinct length-m prefixes over all linearizations of a reduced word.

    The choice tree takes one front-movable letter off what remains at each
    node, down to depth m. More than `cap` nodes raises BudgetExceededError
    before any prefix is listed. A subtree depends only on the letters that
    remain, and one remainder is reached along many paths, so the tree is
    walked once per distinct remainder, level by level: its nodes are
    counted bottom-up, then its prefixes collected the same way. At most
    `cap` remainders are held, since each is a node of its own.
    """
    def refuse(consumed):
        return BudgetExceededError(
            "linearization enumeration exceeded %d steps" % cap,
            dimension="max_linearizations", consumed=consumed, limit=cap)

    # levels[d]: remainder at depth d -> its (letter, child remainder) pairs
    levels = [{codes: ()}]
    seen = 1  # distinct remainders, each at least one node
    for _ in range(m):
        below = {}
        for rest in levels[-1]:
            kids = []
            for x, p in _first_movable(rest, masks).items():
                child = rest[:p] + rest[p + 1:]
                kids.append((x, child))
                if child not in below:
                    below[child] = ()
                    seen += 1
                    if seen > cap:
                        raise refuse(seen)
            levels[-1][rest] = kids
        levels.append(below)
    nodes = dict.fromkeys(levels[-1], 1)
    for level in reversed(levels[:-1]):
        nodes = {rest: 1 + sum(nodes[c] for _, c in kids)
                 for rest, kids in level.items()}
    if nodes[codes] > cap:
        raise refuse(nodes[codes])
    prefixes = dict.fromkeys(levels[-1], (b"",))
    for level in reversed(levels[:-1]):
        prefixes = {rest: {bytes((x,)) + p for x, c in kids for p in prefixes[c]}
                    for rest, kids in level.items()}
    return prefixes[codes]


def primitive_root(w, max_linearizations: int = 100_000) -> Tuple[NormalForm, int]:
    """Largest k with w = root^k, for a cyclically reduced w whose support
    does not split as a join.

    Tries divisor exponents of the normal-form length from largest to
    smallest; for each, tests every distinct linearization prefix of the
    matching length. The first hit is the primitive root (roots are unique
    here, so the exponent found is maximal).
    """
    g = w.graph
    masks = g.masks
    codes = _canonical_codes(w)
    if not codes:
        raise DomainError("primitive_root requires a nontrivial word")
    if _peel(codes, masks)[1]:
        raise DomainError("primitive_root requires a cyclically reduced word")
    supp = support(w)
    if len(join_factors(induced_subgraph(g, supp))) > 1:
        raise DomainError("support splits as a join; factor the word first")
    n = len(codes)
    for k in _divisors_descending(n):
        m = n // k
        for p in sorted(_length_m_prefixes(codes, m, masks, max_linearizations)):
            if kernels.canonicalize(p * k, masks) == codes:
                return NormalForm(g, _decode(g, p)), k
    return NormalForm(g, _decode(g, codes)), 1


@dataclass(frozen=True)
class CentralizerFactor:
    support: Tuple[str, ...]
    root: NormalForm
    exponent: int


@dataclass(frozen=True)
class CentralizerDescriptor:
    """Finite description of the centralizer of a word.

    The centralizer is conjugator * (product of the cyclic groups on the
    factor roots, times the standard subgroup on link_part) * conjugator^-1.
    In pro-p mode this is the whole centralizer; in pro-C mode the factors
    may sit inside larger projective groups, so the description is a lower
    bound and is flagged as such.
    """
    graph: SimplicialGraph
    mode: str
    conjugator: Word
    factors: Tuple[CentralizerFactor, ...]
    link_part: Tuple[str, ...]

    @property
    def lower_bound(self) -> bool:
        return self.mode == "pro-C"

    def contains(self, cand: Word) -> bool:
        """Membership in the described subgroup (integer exponents)."""
        _same_graph(self, cand)
        g = self.graph
        masks = g.masks
        t = self.conjugator
        shifted = kernels.canonicalize(
            _encode(g, (t.inverse() * cand * t).letters), masks)
        allowed = set(self.link_part)
        for f in self.factors:
            allowed.update(f.support)
        idx = g._index
        if any(g.vertices[b >> 1] not in allowed for b in shifted):
            return False
        for f in self.factors:
            members = {idx[v] for v in f.support}
            coord = kernels.canonicalize(
                bytes(b for b in shifted if (b >> 1) in members), masks)
            if not coord:
                continue
            root = _encode(g, f.root.letters)
            if len(coord) % len(root):
                return False
            m = len(coord) // len(root)
            inv = bytes(b ^ 1 for b in reversed(root))
            if coord != kernels.canonicalize(root * m, masks) and \
               coord != kernels.canonicalize(inv * m, masks):
                return False
        return True


def centralizer_descriptor(w: Word, mode: str = "pro-p") -> CentralizerDescriptor:
    """Centralizer description after conjugating to minimal support.

    The reduced word is split along the join factorization of its support;
    each piece contributes the cyclic group on its primitive root, and the
    link of the support commutes with everything. A trivial word has no
    factors and link_part is the whole vertex set.
    """
    if mode not in ("pro-p", "pro-C"):
        raise DomainError("mode must be 'pro-p' or 'pro-C', got %r" % (mode,))
    g = w.graph
    red, conj = cyclically_reduce(w)
    supp = support(red)
    if not supp:
        return CentralizerDescriptor(g, mode, conj, (), g.vertices)
    factors = []
    for part in join_factors(induced_subgraph(g, supp)):
        inside = set(part)
        piece = Word(g, tuple(l for l in red.letters if l[0] in inside))
        root, exponent = primitive_root(piece)
        factors.append(CentralizerFactor(part, root, exponent))
    return CentralizerDescriptor(g, mode, conj, tuple(factors), link(g, supp))
