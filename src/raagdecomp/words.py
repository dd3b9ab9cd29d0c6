"""Elements of a right-angled Artin group as words over signed generators.

A `Word` is an unreduced spelling; `NormalForm` is the shortlex-least
geodesic spelling of the element, unique per element, computed by the
letter kernels. Two spellings denote the same element exactly when
their normal forms coincide.

Letter order is (generator name, sign) with the positive letter before the
inverse, generators in sorted name order; all determinism downstream leans
on that order. The kernels read letter codes, a tuple of ints: 2i for the
i-th generator, 2i + 1 for its inverse. A spelling's codes are its only
state: the constructors of `Word` and `NormalForm` check a caller's letters,
keep their codes and drop the letters, engine-built spellings carry the
engine's codes, and every spelling decodes its letters when they are read.
"""

from bisect import insort
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from math import gcd
import re
from typing import Iterable, Tuple

from . import kernels
from .errors import BudgetExceededError, DomainError
from .graphs import SimplicialGraph, link, _join_masks, _memoized, _names, _vertex_mask

Letter = Tuple[str, int]


class _Decoded:
    """A spelling's letters, decoded from its codes on first read; on the
    class it raises AttributeError, so no dataclass default."""
    def __get__(self, w, cls=None):
        if w is None:
            raise AttributeError("letters")
        letters = vars(w)["letters"] = _decode(w.graph, vars(w)["_codes"])
        return letters


@dataclass(frozen=True, eq=False)
class _Spelling:
    """A spelling over a graph, held as its codes alone; the constructor
    checks every letter, keeps the codes it checked them into and drops the
    caller's letters. Equality and hashing read the type, graph and codes,
    so they decode nothing, and a `Word` never equals a `NormalForm`."""
    graph: SimplicialGraph
    letters: Tuple[Letter, ...] = _Decoded()

    def __post_init__(self):
        vars(self)["_codes"] = _encode(self.graph, vars(self).pop("letters"))

    def __eq__(self, other):
        if not isinstance(other, _Spelling):
            return NotImplemented
        return (type(self) is type(other) and self._codes == other._codes
                and self.graph == other.graph)

    def __hash__(self):
        return hash((type(self), self.graph, self._codes))

    def __str__(self) -> str:
        return word_text(self)


@dataclass(frozen=True, eq=False)
class Word(_Spelling):
    """A spelling of an element."""

    def __mul__(self, other: "Word") -> "Word":
        _same_graph(self, other)
        return _built(Word, self.graph, self._codes + other._codes)

    def inverse(self) -> "Word":
        return _built(Word, self.graph,
                      tuple(x ^ 1 for x in reversed(self._codes)))

    def written_length(self) -> int:
        return len(self._codes)


@dataclass(frozen=True, eq=False)
class NormalForm(_Spelling):
    """Canonical spelling, as engine operations build it. A caller's letters
    are checked as `Word`'s are and must already be the normal form: they
    are not canonicalized, so `normal_form` stays the one way to make one."""

    def __post_init__(self):
        super().__post_init__()
        if kernels.canonicalize(self._codes, self.graph.masks) != self._codes:
            raise DomainError("letters are not the normal form; "
                              "use normal_form(Word(graph, letters))")

    @property
    def word(self) -> Word:
        return _built(Word, self.graph, self._codes)

    def length(self) -> int:
        return len(self._codes)


def _built(cls, graph, codes: Tuple[int, ...]):
    """`cls(graph, letters)` carrying the engine's own `codes` (a tuple of
    ints), unchecked; its letters are decoded from them on first read."""
    obj = object.__new__(cls)
    vars(obj).update(graph=graph, _codes=codes)
    return obj


_Alphabet = namedtuple("_Alphabet", "code text")
_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN = re.compile(r"([A-Za-z0-9_]+)(?:\^([+-]?[0-9]+))?\Z")


@_memoized
def _alphabet(graph: SimplicialGraph) -> _Alphabet:
    """The graph's one alphabet, built on first use: `code` maps the tokens
    `v` and `v^-1` of the generators with token names to codes, and `text`
    gives each code's token text. Names are never empty, so all are token
    names exactly when their join is one."""
    vs = graph.vertices
    texts = tuple(chain.from_iterable(zip(vs, [v + "^-1" for v in vs])))
    if _NAME.match("".join(vs)):
        code = dict(zip(texts, count()))
    else:
        code = {t: c for c, t in enumerate(texts) if _NAME.match(vs[c >> 1])}
    return _Alphabet(code, texts)


@_memoized
def _letters(graph: SimplicialGraph) -> Tuple[Letter, ...]:
    """Each code's letter, built on the first decode; no command decodes."""
    return tuple((v, s) for v in graph.vertices for s in (1, -1))


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
    return " ".join(map(_alphabet(w.graph).text.__getitem__, w._codes))


def _same_graph(a, b) -> None:
    if a.graph != b.graph:
        raise DomainError("words live over different graphs")


def _encode(graph: SimplicialGraph, letters: Iterable[Letter]) -> Tuple[int, ...]:
    """The letters' codes. Every letter a caller hands in is checked here:
    letters that are not an iterable of (name, sign) pairs, then a sign
    other than +1 or -1, then a name off the graph, raise DomainError."""
    get = graph._index.get
    try:
        letters = iter(letters)
    except TypeError:
        raise DomainError("letters must be (name, sign) pairs, got %r"
                          % (letters,)) from None
    codes = []
    for letter in letters:
        try:
            name, sign = letter
            i = get(name)
        except (TypeError, ValueError):
            raise DomainError("each letter must be a (name, sign) pair, got %r"
                              % (letter,)) from None
        if sign not in (1, -1):
            raise DomainError("letter sign must be +1 or -1, got %r" % (sign,))
        if i is None:
            raise DomainError("unknown generator %r" % (name,))
        codes.append(2 * i + (sign < 0))
    return tuple(codes)


def _decode(graph: SimplicialGraph, codes) -> Tuple[Letter, ...]:
    return tuple(map(_letters(graph).__getitem__, codes))


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
    # a tuple cannot repeat past sys.maxsize times, not even the empty one
    return _built(Word, w.graph, codes * abs(k) if codes else ())


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


def _count_choice_tree(codes, m: int, masks) -> None:
    """Count the nodes of the choice tree that takes one front-movable
    letter off what remains of a reduced word at each node, down to depth
    m, level by level once per distinct remainder with the number of paths
    reaching it (each edge out of it adds that many). BudgetExceededError is
    raised as soon as the count passes MAX_LINEARIZATIONS: exactly when the
    whole tree is larger.

    The tree to a smaller depth is the top levels of this one, counted in
    the same order, so its running counts are a prefix of this one's: a
    single count to the deepest depth of several raises exactly when the
    first of the shallower counts, made in turn, would, at the same count.
    A generator's first letter is movable when no earlier letter blocks it;
    its later letters never are, as a generator blocks itself.
    """
    cap = MAX_LINEARIZATIONS
    full = (1 << len(masks)) - 1
    block = [full & ~b for b in masks]  # non-neighbours and the generator
    if len(masks) <= 128:  # every code fits a byte, and bytes slice faster
        codes = bytes(codes)
    level, nodes = {codes: 1}, 1
    for depth in range(m):
        below = {}
        for rest, paths in level.items():
            moves, bad = [], 0
            for p, x in enumerate(rest):
                if not bad >> (x >> 1) & 1:
                    moves.append(p)
                bad |= block[x >> 1]
                if bad == full:
                    break
            nodes += paths * len(moves)
            if nodes > cap:
                raise BudgetExceededError(
                    "linearization enumeration exceeded %d steps" % cap,
                    dimension="max_linearizations", consumed=nodes, limit=cap)
            if depth < m - 1:
                for p in moves:
                    child = rest[:p] + rest[p + 1:]
                    below[child] = below.get(child, 0) + paths
        level = below


def primitive_root(w) -> Tuple[NormalForm, int]:
    """Largest k with w = root^k, for a cyclically reduced w whose support
    does not split as a join.

    The root is read off the letter counts (`_root`). The choice tree of
    linearization prefixes is then counted once, as the refusal rule: more
    than MAX_LINEARIZATIONS nodes in the tree to depth n/j, for some divisor
    j >= 2 of the length n down to the exponent found, raise
    BudgetExceededError. Those trees nest, so only the deepest is counted.
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
    """`primitive_root` of the normal form `codes` (w), unchecked.

    First the answer. For each divisor j >= 2 of d, the gcd of the letter
    counts per generator, from the largest down, the candidate u, the first
    count/j letters of each generator in w's order, is the root when u^j
    canonicalizes to w; if no j fits, w is its own root (k = 1). If p^k = w,
    then k divides d, and as two letters of one generator never swap, the
    first copy of p in p^k is an order ideal of w's heap holding just those
    letters. The normal form w is the heap's greedy lex-least
    linearization, which restricted to an order ideal is the ideal's own
    (its letters wait only for each other): u is nf(p).

    Then the refusal, once: the choice tree to depth n/j0, for j0 the least
    divisor of the length n with j0 >= max(k, 2). It holds the trees of
    every divisor of n from n down to j0 as its top levels
    (`_count_choice_tree`), so it refuses exactly the words a count per
    divisor would. A one-letter word counts no tree.
    """
    n = len(codes)
    counts = Counter(x >> 1 for x in codes)
    d = gcd(*counts.values())
    root, k = codes, 1
    for j in range(d, 1, -1):
        if d % j:
            continue
        left = {h: c // j for h, c in counts.items()}
        u = []
        for x in codes:
            if left[x >> 1]:
                left[x >> 1] -= 1
                u.append(x)
        u = tuple(u)
        if kernels.canonicalize(u * j, g.masks) == codes:
            root, k = u, j
            break
    if n > 1:
        j0 = next(j for j in range(max(k, 2), n + 1) if n % j == 0)
        _count_choice_tree(codes, n // j0, g.masks)
    return _built(NormalForm, g, root), k


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
