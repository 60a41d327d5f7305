"""Monomial-algebra growth over the Aho-Corasick automaton, plus factor complexity.

A monomial algebra is presented by a finite set of forbidden factors;
its nonzero monomials are the words avoiding them all.  The words are
read by the Aho-Corasick automaton of the forbidden set (Aho and
Corasick 1975), the Ufnarovskii graph of the algebra (Ufnarovskii
1982): its states are the trie nodes of the forbidden words, at most
their total length plus one, and a state is dead when its node ends
with a forbidden word, that is when the node is terminal or its suffix
link is dead.  `_automaton` returns one successor table: succ[s][x - 1]
is the state after letter x, or None where that state is dead.  A word
is allowed exactly when it passes no dead state, so `count_words`
counts the words of every length level by level over the live states
(`words._level_counts`), each with the number of words that reach it.

The subword graph has the allowed words of length m as vertices (m one
less than the longest forbidden word) and overlap edges whose
(m+1)-letter merge is allowed.  `subword_graph` lists the windows by
the depth-first walk `words._depth_first` over live states, letters in
increasing order, so they come out in lexicographic order, the order of
`itertools.product`; window u has the edge for letter x exactly when
the state of u has a successor on x in the same table.  Growth is
exponential exactly when some vertex lies on two distinct cycles, and
otherwise polynomial with degree equal to the most cycles any path
through the cycle condensation can visit.

Factor complexity sorts the word's windows once: the factors of length
k are counted by how many sorted neighbours share a prefix of k
letters.  Balance is decided on the palindromic tree: a binary word is
unbalanced iff some palindrome u has both aua and bub as factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import iv_log2
from .words import Alphabet, Word, _depth_first, _is_factor, _level_counts, _pack, _parse_line_word

_GROWTH_CAP = 10_000


@dataclass(frozen=True)
class MonomialAlgebraSpec:
    """A monomial algebra: an alphabet and the words it forbids."""

    alphabet: Alphabet
    forbidden: tuple[Word, ...]

    def __post_init__(self) -> None:
        for w in self.forbidden:
            if len(w) == 0:
                raise ValueError("the empty word cannot be forbidden")
            if w.alphabet != self.alphabet:
                raise ValueError("forbidden word over the wrong alphabet")

    @staticmethod
    def of(alphabet: Alphabet, forbidden: "list[Word] | tuple[Word, ...]") -> "MonomialAlgebraSpec":
        """Normalize: drop any forbidden word containing another as a factor."""
        kept: list[Word] = []
        for w in sorted({f.letters for f in forbidden}, key=lambda t: (len(t), t)):
            if not any(_is_factor(k.letters, w) for k in kept):
                kept.append(Word(w, alphabet))
        return MonomialAlgebraSpec(alphabet, tuple(kept))


@dataclass(frozen=True)
class SubwordGraph:
    """Allowed words of length window, with an edge from u to v when ux = yv is allowed."""

    window: int
    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]  # indices into vertices

    def successors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.vertices]
        for a, b in self.edges:
            out[a].append(b)
        return out


def _automaton(spec: MonomialAlgebraSpec) -> list[list[int | None]]:
    """Aho-Corasick automaton of the forbidden set as one successor table.

    States are the trie nodes of `spec.forbidden`, root 0; succ[s][x - 1]
    is the state after letter x in state s, the longest suffix of the
    letters read that is a trie node, or None where that state is dead.
    """
    size = spec.alphabet.size
    delta = [[-1] * size]
    dead = [False]
    for f in spec.forbidden:
        s = 0
        for x in f.letters:
            if delta[s][x - 1] < 0:
                delta[s][x - 1] = len(delta)
                delta.append([-1] * size)
                dead.append(False)
            s = delta[s][x - 1]
        dead[s] = True
    link = [0] * len(delta)
    queue = []
    for c, t in enumerate(delta[0]):
        if t < 0:
            delta[0][c] = 0
        else:
            queue.append(t)
    # breadth-first, so a state's link is shallower and already final
    for s in queue:
        dead[s] = dead[s] or dead[link[s]]
        fallback = delta[link[s]]
        row = delta[s]
        for c, t in enumerate(row):
            if t < 0:
                row[c] = fallback[c]
            else:
                link[t] = fallback[c]
                queue.append(t)
    return [[None if dead[t] else t for t in row] for row in delta]


def subword_graph(spec: MonomialAlgebraSpec) -> SubwordGraph:
    m = max((len(f) for f in spec.forbidden), default=2) - 1
    m = max(m, 1)
    succ = _automaton(spec)
    letters = spec.alphabet.letters()

    def children(ls: tuple[int, ...], s: int):
        for x, t in zip(letters, succ[s]):
            if t is not None:
                yield ls + (x,), t

    windows = [(ls, s) for ls, s in _depth_first(children, ((), 0), m) if len(ls) == m]
    index = {ls: i for i, (ls, _) in enumerate(windows)}
    # window u has the edge for x exactly when the walk would give u a child ux
    edges = tuple((i, index[ux[1:]]) for i, window in enumerate(windows) for ux, _ in children(*window))
    return SubwordGraph(m, tuple(ls for ls, _ in windows), edges)


def count_words(spec: MonomialAlgebraSpec, n: int) -> list[int]:
    """Allowed words per length 0..n, counted level by level over the live
    automaton states."""
    if n < 0:
        raise ValueError("growth length must be non-negative")
    return _level_counts(_automaton(spec).__getitem__, 0, n)


def growth_function(spec: MonomialAlgebraSpec, n: int) -> list[int]:
    """Cumulative counts V(0..n): words of length at most k, empty word included."""
    if n > _GROWTH_CAP:
        raise ValueError(f"growth cap {_GROWTH_CAP} exceeded")
    return list(itertools.accumulate(count_words(spec, n)))


def count_words_direct(spec: MonomialAlgebraSpec, n: int) -> list[int]:
    """Independent enumeration used to cross-check the level counts.

    Every frontier word is allowed, so an extension by one letter is
    allowed exactly when no forbidden word is a suffix of it.
    """
    forbidden = [f.letters for f in spec.forbidden]
    counts = [1] + [0] * n
    frontier = [()]
    for k in range(1, n + 1):
        nxt = []
        for ls in frontier:
            for x in spec.alphabet.letters():
                cand = ls + (x,)
                if not any(cand[-len(f) :] == f for f in forbidden):
                    nxt.append(cand)
        counts[k] = len(nxt)
        frontier = nxt
    return counts


@dataclass(frozen=True)
class GrowthClass:
    """A growth verdict: exponential, or polynomial of a given degree."""

    kind: str  # "exponential" | "polynomial"
    degree: int | None  # GK dimension for polynomial growth


def classify_growth(spec: MonomialAlgebraSpec) -> GrowthClass:
    g = subword_graph(spec)
    succ = g.successors()
    sccs = _strongly_connected(succ)
    comp_of = [0] * len(g.vertices)
    for ci, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = ci
    internal_edges = [0] * len(sccs)
    for a, b in g.edges:
        if comp_of[a] == comp_of[b]:
            internal_edges[comp_of[a]] += 1
    cyclic = [
        internal_edges[ci] >= 1 for ci in range(len(sccs))
    ]
    branching = [
        internal_edges[ci] > len(sccs[ci]) for ci in range(len(sccs))
    ]
    # Cross-check: a component has more internal edges than vertices exactly
    # when some vertex sits on two distinct simple cycles.
    for ci, comp in enumerate(sccs):
        if cyclic[ci]:
            assert branching[ci] == any(
                _two_cycles_through(v, comp, succ) for v in comp
            )
    if any(branching):
        return GrowthClass("exponential", None)
    # condensation DAG; degree = most cyclic components along a path.
    # Tarjan's algorithm emits a component after every component it
    # reaches, so emission order is a reverse topological order.
    comp_succ: list[set[int]] = [set() for _ in sccs]
    for a, b in g.edges:
        if comp_of[a] != comp_of[b]:
            comp_succ[comp_of[a]].add(comp_of[b])
    best = [0] * len(sccs)
    for ci in range(len(sccs)):
        follow = max((best[cj] for cj in comp_succ[ci]), default=0)
        best[ci] = follow + (1 if cyclic[ci] else 0)
    degree = max(best, default=0)
    return GrowthClass("polynomial", degree)


def _strongly_connected(succ: list[list[int]]) -> list[list[int]]:
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                u = succ[v][pi]
                pi += 1
                if index[u] < 0:
                    work[-1] = (v, pi)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                out.append(comp)
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
    return out


def _two_cycles_through(v: int, comp: list[int], succ: list[list[int]]) -> bool:
    inside = set(comp)
    cycles_found = 0

    def walk(u: int, visited: frozenset[int]) -> int:
        found = 0
        for w in succ[u]:
            if w == v:
                found += 1
            elif w in inside and w not in visited:
                found += walk(w, visited | {w})
            if found >= 2:
                return found
        return found

    cycles_found = walk(v, frozenset([v]))
    return cycles_found >= 2


def gk_dimension_estimate(spec: MonomialAlgebraSpec, n: int) -> Fraction:
    """log V(n) / log n as an exact rational bracket midpoint."""
    if n < 8:
        raise ValueError("estimate needs n >= 8")
    v = growth_function(spec, n)[n]
    num = iv_log2((Fraction(v), Fraction(v)), 64)
    den = iv_log2((Fraction(n), Fraction(n)), 64)
    lo = num[0] / den[1]
    hi = num[1] / den[0]
    return (lo + hi) / 2


# --- factor complexity and mechanical words ---


def complexity_function(w: Word, n: int) -> list[int]:
    """p_w(1..n): distinct factors of each length.

    With m = min(n, |w|), every start i gives one window of m letters,
    padded past the end with zero letters, which sort below every real
    letter.  Windows from different starts then share a prefix of at
    most the shorter real length, so after one sort the factors of
    length k <= m form runs of neighbours sharing at least k letters:

        p(k) = (|w| - k + 1) - #{sorted neighbours sharing >= k letters},

    and p(k) = 0 for k > |w|.  The windows are packed (`words._pack`) and
    read as equal-length integers, whose order is the letter order, so
    two neighbours a, b share m - ceil(bitlen(a ^ b) / (8 * width))
    letters: O(|w| * m) byte work in C and one O(|w|) Python pass.
    """
    ls = w.letters
    L = len(ls)
    m = min(n, L)
    if m < 1:
        return [0] * max(n, 0)
    packed, width = _pack(ls)
    span = m * width
    padded = packed + bytes(span)
    keys = sorted(
        int.from_bytes(padded[i : i + span], "big") for i in range(0, L * width, width)
    )
    bits = 8 * width
    shared = [0] * (m + 1)  # shared[j]: sorted neighbours with exactly j letters in common
    for a, b in itertools.pairwise(keys):
        shared[m - -(-(a ^ b).bit_length() // bits)] += 1
    out = [0] * n
    at_least = 0
    for k in range(m, 0, -1):
        at_least += shared[k]
        out[k - 1] = L - k + 1 - at_least
    return out


def is_balanced(w: Word) -> bool:
    """Any two equal-length factors carry 'b' counts differing by at most 1.

    A binary word is unbalanced iff some palindrome u has both aua and
    bub as factors (Lothaire, Algebraic Combinatorics on Words,
    Prop. 2.1.3; the converse is immediate, as aua and bub have equal
    length and 'b' counts two apart).  The palindromic tree (eertree)
    has one node per distinct palindromic factor, and node u has the
    child x exactly when xux is a factor.  It is built letter by letter,
    in O(|w|) amortised steps, and the word is unbalanced as soon as a
    node of length >= 0 gets its second child.
    """
    if w.alphabet.size > 2:
        raise ValueError("balance is defined over a two-letter alphabet")
    ls = w.letters
    # node 0 is the root of length -1, node 1 the empty palindrome
    length = [-1, 0]
    link = [0, 0]
    child = [[0, 0, 0], [0, 0, 0]]  # child[v][x]: node of x v x, 0 if none
    last = 1  # the longest palindromic suffix of the prefix read so far
    for i, x in enumerate(ls):
        v = last
        while i - length[v] - 1 < 0 or ls[i - length[v] - 1] != x:
            v = link[v]
        kids = child[v]
        if kids[x]:
            last = kids[x]
            continue
        if length[v] < 0:
            suffix = 1
        elif kids[3 - x]:
            return False
        else:
            u = link[v]
            while i - length[u] - 1 < 0 or ls[i - length[u] - 1] != x:
                u = link[u]
            suffix = child[u][x]
        last = kids[x] = len(length)
        length.append(length[v] + 2)
        link.append(suffix)
        child.append([0, 0, 0])
    return True


def mechanical_word(alpha: Fraction, rho: Fraction, length: int) -> Word:
    """Letters floor(alpha*(i+1)+rho) - floor(alpha*i+rho), 0 -> a, 1 -> b."""
    if not 0 <= alpha <= 1:
        raise ValueError("slope must lie in [0, 1]")
    if length < 0:
        raise ValueError("length must be >= 0")
    # alpha*i + rho = (p*i + r) / D over one common denominator
    alpha, rho = Fraction(alpha), Fraction(rho)
    D = alpha.denominator * rho.denominator
    p, r = alpha.numerator * rho.denominator, rho.numerator * alpha.denominator
    floors = [(p * i + r) // D for i in range(length + 1)]
    return Word(tuple(1 + hi - lo for lo, hi in zip(floors, floors[1:])), Alphabet(2))


def parse_algebra_spec(text: str) -> MonomialAlgebraSpec:
    """First line: alphabet size; following lines: forbidden words."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty algebra spec")
    no, first = lines[0]
    try:
        size = int(first)
    except ValueError:
        raise ValueError(f"line {no}: alphabet size {first!r} is not an integer") from None
    alphabet = Alphabet(size)
    forbidden = [_parse_line_word(no, ln, alphabet) for no, ln in lines[1:]]
    return MonomialAlgebraSpec.of(alphabet, forbidden)
