"""Elements of a right-angled Artin group as words over signed generators.

A `Word` is an unreduced spelling; `NormalForm` is the shortlex-least
geodesic spelling of the element, unique per element, computed by the
letter kernels. Two spellings denote the same element exactly when
their normal forms coincide.

Letter order is (generator name, sign) with the positive letter before the
inverse, generators in sorted name order; all determinism downstream leans
on that order.
"""

from dataclasses import dataclass
import re
from typing import Iterable, Optional, Tuple

from . import kernels
from .errors import BudgetExceededError, DomainError, InvariantViolationError
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


def _movable_pair(codes: bytes, masks) -> Optional[Tuple[int, int, int]]:
    """Least letter x with x shufflable to the front and x^-1 to the rear,
    as (code, front position, rear position); None when cyclically reduced."""
    front = _first_movable(codes, masks)
    rear = _first_movable(bytes(reversed(codes)), masks)
    best = None
    for x, i in front.items():
        jr = rear.get(x ^ 1)
        if jr is None:
            continue
        j = len(codes) - 1 - jr
        if best is None or x < best[0]:
            best = (x, i, j)
    if best is not None and best[1] >= best[2]:
        raise InvariantViolationError("conjugation pair positions crossed")
    return best


def cyclically_reduce(w: Word) -> Tuple[NormalForm, Word]:
    """Minimal-support conjugate plus the conjugator.

    Returns (reduced, conjugator) with reduced equal to
    conjugator^-1 * w * conjugator; the reduced form has minimal length and
    minimal support over the whole conjugacy class.
    """
    masks = w.graph.masks
    cur = _canonical_codes(w)
    conj = bytearray()
    while True:
        pair = _movable_pair(cur, masks)
        if pair is None:
            break
        x, i, j = pair
        conj.append(x)
        cur = kernels.canonicalize(cur[:i] + cur[i + 1:j] + cur[j + 1:], masks)
    return (NormalForm(w.graph, _decode(w.graph, cur)),
            Word(w.graph, _decode(w.graph, bytes(conj))))


def _divisors_descending(n: int):
    return [k for k in range(n, 1, -1) if n % k == 0]


def _length_m_prefixes(codes: bytes, m: int, masks, cap: int):
    """Distinct length-m prefixes over all linearizations of a reduced word.

    Walks the choice tree of front-movable letters; each visited node counts
    against `cap`.
    """
    results = set()
    spent = 0
    # depth-first, least letter first; the tree is as deep as m
    stack = [(codes, b"")]
    while stack:
        rest, prefix = stack.pop()
        spent += 1
        if spent > cap:
            raise BudgetExceededError(
                "linearization enumeration exceeded %d steps" % cap,
                dimension="max_linearizations")
        if len(prefix) == m:
            results.add(prefix)
            continue
        movable = _first_movable(rest, masks)
        for x in sorted(movable, reverse=True):
            p = movable[x]
            stack.append((rest[:p] + rest[p + 1:], prefix + bytes((x,))))
    return results


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
    if _movable_pair(codes, masks) is not None:
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
