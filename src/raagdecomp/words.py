"""Elements of a right-angled Artin group as words over signed generators.

A `Word` is an unreduced spelling; `NormalForm` is the shortlex-least
geodesic spelling of the element, unique per element, computed by the
letter kernels. Two spellings denote the same element exactly when
their normal forms coincide.

Letter order is (generator name, sign) with the positive letter before the
inverse, generators in sorted name order; all determinism downstream leans
on that order. The kernels read letter codes, a tuple of ints: 2i for the
i-th generator, 2i + 1 for its inverse. Words the engine builds carry
their codes and decode their letters when read; others encode on first use.
"""

from bisect import insort
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
import re
from typing import Iterable, Tuple

from . import kernels
from .errors import BudgetExceededError, DomainError
from .graphs import SimplicialGraph, link, _join_masks, _memoized, _names, _vertex_mask

Letter = Tuple[str, int]


class _Decoded:
    """An engine-built word's letters, decoded from its codes on first read;
    on the class it raises AttributeError, so no dataclass default."""
    def __get__(self, w, cls=None):
        if w is None:
            raise AttributeError("letters")
        letters = vars(w)["letters"] = _decode(w.graph, vars(w)["_codes"])
        return letters


class _Spelling:
    letters = _Decoded()

    @cached_property
    def _codes(self) -> Tuple[int, ...]:
        return _encode(self.graph, self.letters)

    def __str__(self) -> str:
        return word_text(self)


@dataclass(frozen=True)
class Word(_Spelling):
    """A spelling of an element; the constructor checks every letter."""
    graph: SimplicialGraph
    letters: Tuple[Letter, ...]

    def __post_init__(self):
        _encode(self.graph, self.letters)

    def __mul__(self, other: "Word") -> "Word":
        _same_graph(self, other)
        return _built(Word, self.graph, self._codes + other._codes)

    def inverse(self) -> "Word":
        return _built(Word, self.graph,
                      tuple(x ^ 1 for x in reversed(self._codes)))

    def written_length(self) -> int:
        return len(self._codes)


@dataclass(frozen=True)
class NormalForm(_Spelling):
    """Canonical spelling; only engine operations construct these."""
    graph: SimplicialGraph
    letters: Tuple[Letter, ...]

    @property
    def word(self) -> Word:
        return Word(self.graph, self.letters)

    def length(self) -> int:
        return len(self._codes if "_codes" in vars(self) else self.letters)


def _built(cls, graph, codes: Tuple[int, ...]):
    """`cls(graph, letters)` carrying the engine's own `codes`, unchecked;
    its letters are decoded from them on first read."""
    obj = object.__new__(cls)
    vars(obj).update(graph=graph, _codes=codes)
    return obj


_Alphabet = namedtuple("_Alphabet", "code letter text")
_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN = re.compile(r"([A-Za-z0-9_]+)(?:\^([+-]?[0-9]+))?\Z")


@_memoized
def _alphabet(graph: SimplicialGraph) -> _Alphabet:
    """The graph's one alphabet, built on first use: `code` maps the tokens
    `v` and `v^-1` of the generators with token names to codes, `letter`
    and `text` give each code's letter and token text."""
    vs = graph.vertices
    named = list(map(_NAME.match, vs))
    texts = tuple(t for v in vs for t in (v, v + "^-1"))
    return _Alphabet({t: c for c, t in enumerate(texts) if named[c >> 1]},
                     tuple((v, s) for v in vs for s in (1, -1)), texts)


# Most letters a parsed word or a power may expand to. Each expanded letter
# costs about 88 bytes (8 for its code), so a word stays under about 100 MB.
MAX_WORD_LETTERS = 1_000_000
# Budget of the root search: nodes of the linearization choice tree.
MAX_LINEARIZATIONS = 100_000


def parse_word(graph: SimplicialGraph, text: str) -> Word:
    """Whitespace-separated tokens `v`, `v^-1`, `v^k` (k expanded).

    Tokens `v` and `v^-1` come from the graph's alphabet, others from the
    token pattern. Raises DomainError on the first malformed or unknown
    token, and when the word would expand to more than MAX_WORD_LETTERS
    letters, before building any of them.
    """
    tokens = text.split()
    codes = list(map(_alphabet(graph).code.get, tokens))
    if None in codes or len(codes) > MAX_WORD_LETTERS:
        codes, known = [], codes
        for tok, c in zip(tokens, known):
            count = 1
            if c is None:  # not in the alphabet: match the token pattern
                m = _TOKEN.match(tok)
                if not m:
                    raise DomainError("malformed word token %r" % (tok,))
                name, digits = m.group(1), m.group(2) or "1"
                i = graph._index.get(name)
                if i is None:
                    raise DomainError("unknown generator %r" % (name,))
                c = 2 * i + (digits[0] == "-")
                digits = digits.lstrip("+-").lstrip("0") or "0"
                # int() refuses more than 4300 digits; 20 are far over the cap
                count = int(digits) if len(digits) <= 20 else MAX_WORD_LETTERS + 1
            if len(codes) + count > MAX_WORD_LETTERS:
                raise DomainError("word expands to more than %d letters"
                                  % MAX_WORD_LETTERS)
            codes += [c] * count
    return _built(Word, graph, tuple(codes))


def word_text(w) -> str:
    if "_codes" in vars(w):  # else a caller's letters, perhaps unknown ones
        return " ".join(map(_alphabet(w.graph).text.__getitem__, w._codes))
    return " ".join(n if s > 0 else n + "^-1" for n, s in w.letters)


def _same_graph(a, b) -> None:
    if a.graph != b.graph:
        raise DomainError("words live over different graphs")


def _encode(graph: SimplicialGraph, letters: Iterable[Letter]) -> Tuple[int, ...]:
    """The letters' codes. Every letter a caller hands in is checked here:
    a sign other than +1 or -1, then a name off the graph, raises
    DomainError."""
    idx = graph._index
    codes = []
    for name, sign in letters:
        if sign not in (1, -1):
            raise DomainError("letter sign must be +1 or -1, got %r" % (sign,))
        if name not in idx:
            raise DomainError("unknown generator %r" % (name,))
        codes.append(2 * idx[name] + (sign < 0))
    return tuple(codes)


def _decode(graph: SimplicialGraph, codes) -> Tuple[Letter, ...]:
    return tuple(map(_alphabet(graph).letter.__getitem__, codes))


def _canonical_codes(w) -> Tuple[int, ...]:
    return kernels.canonicalize(w._codes, w.graph.masks)


def normal_form(w: Word) -> NormalForm:
    return _built(NormalForm, w.graph, _canonical_codes(w))


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
    m = _vertex_mask(w.graph, s)
    return _built(Word, w.graph, tuple(x for x in w._codes if m >> (x >> 1) & 1))


def power(w: Word, k: int) -> Word:
    """w^k, refused above MAX_WORD_LETTERS letters before building any;
    an exponent that is not an int raises DomainError."""
    if not isinstance(k, int):
        raise DomainError("exponent must be an int, got %r" % (k,))
    codes = w._codes if k >= 0 else tuple(x ^ 1 for x in reversed(w._codes))
    if len(codes) * abs(k) > MAX_WORD_LETTERS:
        raise DomainError("word expands to more than %d letters"
                          % MAX_WORD_LETTERS)
    return _built(Word, w.graph, codes * abs(k))


def _first_movable(codes, masks) -> dict:
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


def _peel(codes, masks):
    """Peel conjugating pairs off a shortlex normal form.

    Repeatedly takes the least letter x that can be shuffled to the front
    while x^-1 can be shuffled to the rear, and drops both. Returns
    (rest, conjugator): the remaining letters in their order, a geodesic
    spelling (not the normal form) of conjugator^-1 * codes * conjugator,
    and the peeled letters x in order.

    Which letters a geodesic spelling can start or end with depends only
    on the element, so every pair can be peeled off this one spelling.
    Such a pair is the first and the last letter on one generator; the
    positions of each generator's letters form a pile, and peeling pops
    both ends of one pile. The generators are kept sorted by their last
    remaining position (`tails`).

    A walk from the front peels first. A suffix of a normal form is one,
    and deleting a letter that can be shuffled to the rear leaves one, so
    what the walk leaves is a normal form, and its first letter is the
    least letter that can be shuffled to the front (a smaller one would
    spell the element shortlex-earlier). So while that letter's generator
    ends in its inverse and no generator with a later last letter blocks
    that inverse, the pair is the one the general loop would peel, on the
    least generator it tries. The walk never meets a letter peeled as a
    last letter: were d the first, paired with an earlier x, the letters
    between them were all peeled as first letters, and one, y, does not
    commute with x (the spelling is geodesic); y's last letter lies before
    d, or it would have blocked x^-1, so the walk met it first. At the
    first letter that fails, the generators are sorted by their first
    remaining position too (`heads`), once, and the general loop takes
    over: it peels the least generator whose first letter no earlier head
    blocks and whose last letter, its inverse, no later tail blocks. Each
    pair costs O(k) for k generators, the whole peel O(|codes| + k * pairs),
    plus one sort of k.
    """
    full = (1 << len(masks)) - 1
    block = [full & ~m for m in masks]  # non-neighbours and the generator
    piles = [[] for _ in masks]
    for p, x in enumerate(codes):
        piles[x >> 1].append(p)
    lo = [0] * len(piles)
    hi = [len(pile) - 1 for pile in piles]
    tails = sorted((-pile[-1], g) for g, pile in enumerate(piles) if pile)
    alive = bytearray(b"\x01") * len(codes)
    conj = []
    for first, x in enumerate(codes):  # the walk
        g = x >> 1
        last = piles[g][hi[g]]
        if codes[last] != x ^ 1:
            break
        bg = block[g]
        for j, (_, h) in enumerate(tails):  # g itself ends the scan
            if h == g or bg >> h & 1:
                break
        if h != g:
            break
        conj.append(x)
        alive[first] = alive[last] = 0
        del tails[j]
        lo[g] += 1
        hi[g] -= 1
        if lo[g] <= hi[g]:
            insort(tails, (-piles[g][hi[g]], g), j)
    heads = sorted((pile[lo[g]], g) for g, pile in enumerate(piles)
                   if lo[g] <= hi[g])
    while True:  # the general loop
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
    return tuple(compress(codes, alive)), tuple(conj)


def cyclically_reduce(w: Word) -> Tuple[NormalForm, Word]:
    """Minimal-support conjugate plus the conjugator.

    Returns (reduced, conjugator) with reduced equal to
    conjugator^-1 * w * conjugator; the reduced form has minimal length and
    minimal support over the whole conjugacy class. The word is
    canonicalized once, the conjugator peeled off that normal form, and
    what remains canonicalized once more. The peel walks the normal form
    from the front while its first letter and its generator's last letter
    make a pair; a general loop, which also finds pairs deeper in, takes
    over at the first letter that does not. It costs O(|w| + k * p) for k
    generators and p peeled pairs.
    """
    masks = w.graph.masks
    rest, conj = _peel(_canonical_codes(w), masks)
    if conj:
        rest = kernels.canonicalize(rest, masks)
    return _built(NormalForm, w.graph, rest), _built(Word, w.graph, conj)


def _divisors_descending(n: int):
    return [k for k in range(n, 1, -1) if n % k == 0]


def _length_m_prefixes(codes, m: int, masks):
    """Distinct length-m prefixes over all linearizations of a reduced word.

    The choice tree takes one front-movable letter off what remains at each
    node, down to depth m. More than MAX_LINEARIZATIONS nodes raise
    BudgetExceededError before any prefix is listed. A subtree depends only
    on the letters that remain, and one remainder is reached along many
    paths, so the tree is walked once per distinct remainder, level by
    level: its nodes are counted bottom-up, then its prefixes collected the
    same way. At most that many remainders are held, each a node.
    """
    cap = MAX_LINEARIZATIONS

    def refuse(consumed):
        return BudgetExceededError(
            "linearization enumeration exceeded %d steps" % cap,
            dimension="max_linearizations", consumed=consumed, limit=cap)

    # levels[d]: remainder at depth d -> its (letter slice, child) pairs
    levels = [{codes: ()}]
    seen = 1  # distinct remainders, each at least one node
    for _ in range(m):
        below = {}
        for rest in levels[-1]:
            kids = []
            for x, p in _first_movable(rest, masks).items():
                child = rest[:p] + rest[p + 1:]
                kids.append((rest[p:p + 1], child))
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
    prefixes = dict.fromkeys(levels[-1], (codes[:0],))
    for level in reversed(levels[:-1]):
        prefixes = {rest: {x + p for x, c in kids for p in prefixes[c]}
                    for rest, kids in level.items()}
    return prefixes[codes]


def primitive_root(w) -> Tuple[NormalForm, int]:
    """Largest k with w = root^k, for a cyclically reduced w whose support
    does not split as a join.

    Tries divisor exponents of the normal-form length from largest to
    smallest; for each, tests every distinct linearization prefix of the
    matching length. The first hit is the primitive root (roots are unique
    here, so the exponent found is maximal). More than MAX_LINEARIZATIONS
    nodes in one choice tree raise BudgetExceededError.
    """
    g = w.graph
    masks = g.masks
    codes = _canonical_codes(w)
    if not codes:
        raise DomainError("primitive_root requires a nontrivial word")
    if _peel(codes, masks)[1]:
        raise DomainError("primitive_root requires a cyclically reduced word")
    supp = _vertex_mask(g, {g.vertices[x >> 1] for x in set(codes)})
    if len(_join_masks(masks, supp)) > 1:
        raise DomainError("support splits as a join; factor the word first")
    return _root(g, codes)


def _root(g: SimplicialGraph, codes) -> Tuple[NormalForm, int]:
    """`primitive_root` of the normal form `codes`, unchecked."""
    n = len(codes)
    piece = bytes(codes) if len(g.masks) <= 128 else codes  # faster to enumerate
    for k in _divisors_descending(n):
        for p in sorted(_length_m_prefixes(piece, n // k, g.masks)):
            if kernels.canonicalize(p * k, g.masks) == piece:
                return _built(NormalForm, g, tuple(p)), k
    return _built(NormalForm, g, codes), 1


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

    @cached_property
    def _membership(self):
        """What `contains` reads, computed on its first call: the
        conjugator's codes and their inverse, the mask of the allowed
        generators, and per factor its generator mask, root codes and
        inverse root codes."""
        g = self.graph
        t = self.conjugator._codes
        factors = tuple((_vertex_mask(g, f.support), f.root._codes,
                         tuple(b ^ 1 for b in reversed(f.root._codes)))
                        for f in self.factors)
        allowed = _vertex_mask(g, self.link_part)
        for mask, _, _ in factors:
            allowed |= mask
        return t, tuple(b ^ 1 for b in reversed(t)), allowed, factors

    def contains(self, cand: Word) -> bool:
        """Membership in the described subgroup (integer exponents): cand,
        conjugated back by the conjugator, uses only allowed generators,
        and its letters on each factor spell a power of that factor's root.
        """
        _same_graph(self, cand)
        masks = self.graph.masks
        t, t_inv, allowed, factors = self._membership
        shifted = kernels.canonicalize(t_inv + cand._codes + t, masks)
        if any(not allowed >> (b >> 1) & 1 for b in shifted):
            return False
        for mask, root, inv in factors:
            coord = kernels.canonicalize(
                tuple(b for b in shifted if mask >> (b >> 1) & 1), masks)
            if not coord:
                continue
            if len(coord) % len(root):
                return False
            m = len(coord) // len(root)
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

    A piece, the reduced normal form's letters on one factor, is its own
    normal form (no factor's letters order another's) and needs no checks.
    """
    if mode not in ("pro-p", "pro-C"):
        raise DomainError("mode must be 'pro-p' or 'pro-C', got %r" % (mode,))
    g = w.graph
    red, conj = cyclically_reduce(w)
    codes = red._codes
    supp = {g.vertices[x >> 1] for x in set(codes)}
    factors = []
    for f in _join_masks(g.masks, _vertex_mask(g, supp)):
        piece = tuple(x for x in codes if f >> (x >> 1) & 1)
        root, exponent = _root(g, piece)
        factors.append(CentralizerFactor(_names(g.vertices, f), root, exponent))
    return CentralizerDescriptor(g, mode, conj, tuple(factors), link(g, supp))
