"""Independent oracles the tests compare library results against.

Everything here is deliberately built from different principles than the
library internals: word rewriting instead of the linear representation,
sign sampling instead of bilinear-form tests, generating-function counts
instead of graph search, and the plain loops that a library shortcut
replaced.  The library has no caller of any of them: word-rewriting
lengths (`tits_reduce`), chamber sides, and the `Scalar` wrapper over raw
field vectors live here.
"""

import functools
import itertools
import math
from fractions import Fraction

from coxlang import walls as wl
from coxlang.core import INF
from coxlang.errors import (FieldMismatchError, PreconditionError,
                            ResourceLimitError)
from coxlang.language import descent_data

DEFAULT_ORACLE_LETTERS = 10

NEAR = "near"
FAR = "far"


def _first_repeat(w):
    for i in range(len(w) - 1):
        if w[i] == w[i + 1]:
            return i
    return None


def braid_closure(system, word):
    """All words reachable from `word` by braid moves alone.

    For a reduced word these are every reduced word of its element
    (Matsumoto's theorem).  The braid moves are read from the order table
    alone, so the closure never consults the linear representation.
    """
    return _braid_closure(system.matrix.orders, tuple(word))


@functools.lru_cache(maxsize=None)
def _braids(orders):
    """(a, b) -> the alternating word a b a ... of length m_ab, finite m."""
    n = len(orders)
    return {(a, b): tuple((a, b)[k % 2] for k in range(orders[a][b]))
            for a in range(n) for b in range(n)
            if a != b and orders[a][b] != INF}


# TitsBall and the ball checks ask for the same closures many times; the
# bound keeps a session from holding every closure it ever formed.
@functools.lru_cache(maxsize=4096)
def _braid_closure(orders, word):
    braids = _braids(orders)
    seen = {word}
    queue = [word]
    while queue:
        u = queue.pop()
        for i in range(len(u) - 1):
            alt = braids.get(u[i:i + 2])
            if alt is not None and u[i:i + len(alt)] == alt:
                v = u[:i] + braids[alt[1], alt[0]] + u[i + len(alt):]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return frozenset(seen)


def tits_reduce(system, word, max_letters=DEFAULT_ORACLE_LETTERS):
    """A geodesic word for the element of `word`, by exhaustive rewriting.

    Alternates braid-move closure with deletion of adjacent equal letters
    until no deletion applies; returns the lexicographically least word of
    the final closure.  Independent of the geometric representation, so it
    serves as a length oracle.
    """
    w = tuple(word)
    if len(w) > max_letters:
        raise ResourceLimitError(
            f"oracle word length {len(w)} exceeds cap {max_letters}")
    for s in w:
        if not 0 <= s < system.n:
            raise PreconditionError(f"letter {s} out of range")
    while True:
        i = _first_repeat(w)
        if i is not None:
            w = w[:i] + w[i + 2:]
            continue
        closure = braid_closure(system, w)
        shorter = None
        for u in sorted(closure):
            j = _first_repeat(u)
            if j is not None:
                shorter = u[:j] + u[j + 2:]
                break
        if shorter is None:
            return min(closure) if closure else ()
        w = shorter


def _generator_rows(system, s):
    """sigma_s row by row, from the order table alone:
    sigma_s(a_t) = a_t - 2B(a_s, a_t)·a_s, with 2B(a_s, a_t) = -2cos(pi/m_st)
    and 2B(a_s, a_s) = 2."""
    field, n = system.field, system.n
    orders = system.matrix.orders

    def entry(i, t):
        unit = field.one if i == t else field.zero
        if i != s:
            return unit
        two_b = field.two if t == s else field.raw_neg(
            field.two_cos_raw(orders[s][t]))
        return field.raw_sub(unit, two_b)
    return [[entry(i, t) for t in range(n)] for i in range(n)]


def _row_product(field, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = field.zero
            for k in range(n):
                acc = field.raw_add(acc, field.raw_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def layout_matrices(system, word):
    """(mat, inv) of the element of `word` in the library's layout: the
    tuple of columns, each one flat tuple of the column's field values.
    Formed as row-major products of generator matrices, then converted."""
    field, n = system.field, system.n
    ident = [[field.one if i == j else field.zero for j in range(n)]
             for i in range(n)]
    mat, inv = ident, ident
    for s in word:
        gen = _generator_rows(system, s)
        mat = _row_product(field, mat, gen)
        inv = _row_product(field, gen, inv)

    def columns(m):
        return tuple(tuple(c for i in range(n) for c in m[i][j])
                     for j in range(n))
    return columns(mat), columns(inv)


def side(wall, g):
    """NEAR iff g's chamber is on the identity side of the wall."""
    pulled = wall.system.apply(g.inv, wall.root)
    return NEAR if wall.system.root_sign(pulled) > 0 else FAR


class Scalar:
    """An element of a CycloField: exact, hashable, reduced mod psi.

    Coefficients may be Fractions; the field's raw arithmetic takes them
    as they are, and `sign` clears denominators first, since the field
    decides signs of integer vectors only.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def rational(cls, field, q):
        return cls(field, _raw_rational(field, Fraction(q)))

    @classmethod
    def theta(cls, field):
        return cls(field, field.theta)

    @classmethod
    def from_coeffs(cls, field, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != field.degree:
            raise FieldMismatchError(
                f"expected {field.degree} coefficients, got {len(coeffs)}")
        return cls(field, tuple(c.numerator if c.denominator == 1 else c
                                for c in coeffs))

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatchError("scalars from different fields")
            return other.coeffs
        if isinstance(other, (int, Fraction)):
            return _raw_rational(self.field, other)
        return NotImplemented

    def __add__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_add(self.coeffs, raw))

    __radd__ = __add__

    def __sub__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_sub(self.coeffs, raw))

    def __rsub__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_sub(raw, self.coeffs))

    def __mul__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_mul(self.coeffs, raw))

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.field, self.field.raw_neg(self.coeffs))

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == _raw_rational(self.field, other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"Scalar({self.coeffs}; t = 2cos(pi/{self.field.n}))"

    def is_zero(self):
        return not any(self.coeffs)

    def sign(self):
        # A positive multiple of the vector has the same sign.
        den = math.lcm(*(Fraction(x).denominator for x in self.coeffs))
        return self.field.raw_sign(tuple(int(x * den) for x in self.coeffs))


def _raw_rational(field, q):
    if isinstance(q, Fraction) and q.denominator == 1:
        q = q.numerator
    return field.raw_from_rational(q)


def two_cos(field, m):
    """The scalar 2cos(pi/m) in `field`; m = INF gives 2."""
    return Scalar(field, field.two_cos_raw(m))


class TitsBall:
    """Cayley-graph levels built from braid rewriting only.

    A node is the full set of reduced words of one group element; two words
    represent the same element exactly when braid moves connect them, so
    node identity never consults the linear representation.  Levels are
    breadth-first: a candidate extension is reduced exactly when no braid
    rewrite of it exposes an adjacent repeated letter.
    """

    def __init__(self, system, max_len):
        self.system = system
        self.max_len = max_len
        start = braid_closure(system, ())
        self.level = {start: 0}
        self.trans = {}
        frontier = [start]
        for depth in range(max_len):
            new = []
            for node in frontier:
                rep = min(node)
                for s in range(system.n):
                    cand = braid_closure(system, rep + (s,))
                    if any(self._has_repeat(w) for w in cand):
                        down = self._delete_repeat(cand)
                        self.trans[(node, s)] = (down, -1)
                    else:
                        if cand not in self.level:
                            self.level[cand] = depth + 1
                            new.append(cand)
                        self.trans[(node, s)] = (cand, +1)
            frontier = new
        self.start = start

    @staticmethod
    def _has_repeat(word):
        return any(a == b for a, b in zip(word, word[1:]))

    def _delete_repeat(self, closure):
        for w in sorted(closure):
            for i in range(len(w) - 1):
                if w[i] == w[i + 1]:
                    return braid_closure(self.system, w[:i] + w[i + 2:])
        raise AssertionError("no adjacent repeat in a non-reduced closure")

    def word_length(self, word):
        """Group-element length of an arbitrary word, one hop per letter.

        Walks must stay within max_len - 1 so every needed transition
        exists.
        """
        node, length = self.start, 0
        for s in word:
            node, delta = self.trans[(node, s)]
            length += delta
        return length


def rewriting_pair_value(system, v, vp, s, *, max_letters):
    """max over i >= 1 of l(v(i)^-1 [s] vp(i)), by word rewriting only.

    Prefixes saturate at their full length, as in the fellow-traveller
    scans.  A reduced word for the difference element is kept and grows by
    one letter on each side per step, reduced by `tits_reduce`, so the
    linear representation is never consulted.  `max_letters` caps the
    words handed to `tits_reduce`; they run up to two letters past the
    pair value, since the difference may grow on both sides in one step
    before the value is read.
    """
    d = () if s is None else (s,)
    best = 0
    for i in range(max(len(v), len(vp))):
        if i < len(v):
            d = tits_reduce(system, (v[i],) + d, max_letters)
        if i < len(vp):
            d = tits_reduce(system, d + (vp[i],), max_letters)
        best = max(best, len(d))
    return best


def canonical_word(g):
    """The canonical word walked afresh down the Pi chain, one chunk's
    ShortLex word per step, with nothing kept between calls."""
    parts, identity = [], g.system.identity
    while g is not identity:
        _, w, g = descent_data(g)
        parts.append(w.nf)
    return tuple(itertools.chain.from_iterable(reversed(parts)))


def pair_value(system, v, vp, s):
    """max over i >= 1 of l(v(i)^-1 [s] vp(i)), stepping the difference
    element through every i, the common prefix of v and vp included."""
    d = system.identity if s is None else system.generator(s)
    best = 0
    for i in range(max(len(v), len(vp))):
        if i < len(v):
            d = system.gen_mul(v[i], d)
        if i < len(vp):
            d = system.mul_gen(d, vp[i])
        best = max(best, d.length)
    return best


def crossing_patterns(a, b, chambers):
    """Which (side of a, side of b) combinations the sample realizes."""
    return {(side(a, g), side(b, g)) for g in chambers}


def sign_pattern_cross(a, b, chambers):
    """Walls cross exactly when all four side patterns occur."""
    return len(crossing_patterns(a, b, chambers)) == 4


def chamber_next_to(wall):
    """A chamber incident to the wall: the prefix of the reflection's
    normal form before the letter whose wall it is."""
    r = wall.reflection
    for i, w in enumerate(wl.inversion_walls(r)):
        if w == wall:
            return r.system.element(r.nf[:i])
    raise AssertionError("a wall is not an inversion wall of its reflection")


def chamber_separates(a, g, b):
    """Whether wall a lies between chamber g and wall b, by chamber sides.

    When a and b do not cross, every chamber touching b lies on one side
    of a, so one chamber next to b stands in for the wall.
    """
    return (not wl.walls_cross(a, b)
            and side(a, g) != side(a, chamber_next_to(b)))


def nearest_walls(walls):
    """The walls with no other of them between the identity and them, by
    the pairwise separation test over every ordered pair."""
    walls = set(walls)
    identity = next(iter(walls)).system.identity if walls else None
    return frozenset(
        b for b in walls
        if not any(wl.separates_vertex_from_wall(a, identity, b)
                   for a in walls if a != b))


def q_factorial(n, deg):
    """Coefficients of [n]_q! truncated at degree deg."""
    out = [1]
    for i in range(2, n + 1):
        out = _poly_mul(out, [1] * i, deg)
    return out


def affine_a_ball_sizes(rank, deg):
    """Cumulative growth of the affine group A~rank via the product formula.

    The growth series is [rank+1]_q! divided by prod_i (1 - q^i) over the
    exponents 1..rank; returns ball sizes for radii 0..deg.
    """
    series = q_factorial(rank + 1, deg)
    for e in range(1, rank + 1):
        series = _poly_mul(series, _geometric(e, deg), deg)
    out, run = [], 0
    for coeff in series:
        run += coeff
        out.append(run)
    return out


def _poly_mul(a, b, deg):
    out = [0] * (deg + 1)
    for i, ai in enumerate(a):
        if ai and i <= deg:
            for j, bj in enumerate(b):
                if bj and i + j <= deg:
                    out[i + j] += ai * bj
    return out


def _geometric(step, deg):
    out = [0] * (deg + 1)
    for k in range(0, deg + 1, step):
        out[k] = 1
    return out
