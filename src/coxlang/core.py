"""Coxeter systems and exact group elements.

The geometric representation acts on the span of the simple roots; each
generator is the B-orthogonal reflection in its simple root, where
B(a_s, a_t) = -cos(pi/m_st).  The system stores the form as 2B, with
2B(a_s, a_s) = 2 and 2B(a_s, a_t) = -2cos(pi/m_st), so that, like every
generator matrix, it has entries in Z[theta] and every library value is an
integer vector.  Normal forms are ShortLex: the first letter of nf(g) is
the least left descent of g, and stripping it recurses.

Layout.  With d the field degree, a vector in the simple-root basis is
one flat tuple of n·d ints: coordinate i is the block [i·d, (i+1)·d).  A
matrix is the tuple of its n columns, and column j of g's matrix is the
root g(a_j); the identity's columns are the unit vectors.

Keys.  The height of a root is the sum of its coordinates.  Height j of
g, that of g(a_j), is the value of g⁻¹ρ* on a_j, where ρ* is 1 on every
simple root; ρ* lies inside the Tits cone, on which W acts freely
(Humphreys 1990, 5.13), so the n heights fix g.  They are its key, one
flat tuple of n·d ints, and a system interns one Element per key.  So two
elements of one system are equal exactly when they are the same object,
elements compare and hash by identity, and what an element memoises
serves every caller: normal form, descent sets (shared per system),
descent data (T, w, Pi), canonical word, right steps and the inverse.
`mul_gen(g, s)` stores g·s on g and g on g·s, and `inverse()` stores g⁻¹
on g and g on g⁻¹, so a repeated step or inverse is a lookup.

Steps.  Elements step only on the right.  Column t of g·s is g(a_t) +
c_st·g(a_s) for each neighbour t of s, with c_st = 2cos(pi/m_st) > 0,
and column s is -g(a_s).  Heights are linear, so a right step changes
the key in the same way, as in the numbers game (Björner & Brenti 2005,
4.3), and forms no matrix.  A left step is a right step of the inverse,
s·g = (g⁻¹·s)⁻¹, and the normal form strips left descents of g as right
descents of g⁻¹.  Every product the library forms is such a step: g·u is
`mul_word(g, nf(u))`, and coset questions compare residue gates instead
of forming g⁻¹·x.  The dense `_mat_mul` is their test oracle.

Matrices are formed only when read: inverses read them, and so do left
steps, left descents and normal forms off the ball, and walls; balls,
descent data, residue gates and right-side scans do not.  Generator
matrices differ from the identity only in one row, so a one-sided step
of a matrix costs O(n^2) instead of O(n^3), and the columns a right step
leaves alone are shared.  An element's matrix is formed on first read by
replaying the right steps that made it (see `Element.mat`).  If g = h·s
then g⁻¹ = s·h⁻¹, so g⁻¹'s matrix is one left step of h⁻¹'s, the only
left step of a matrix there is (see `Element.inverse`); no matrix is
ever inverted.

Descents.  s is a right descent of g exactly when g(a_s) is a negative
root (Björner & Brenti 2005, 4.2), that is, when height s of g's key is
negative; s is a left descent exactly when height s of g⁻¹'s key is.
Right descents step with the element: s toggles, a non-neighbour keeps
its membership, and so does a neighbour on the same side as s, since a
positive combination of two roots of one sign has that sign.  Only a
neighbour on the other side can change, and the sign of its height in
the stepped key decides, so the descents of g·s read at most one sign
per such neighbour and do not depend on the steps taken before.
"""

from __future__ import annotations

import math
from operator import add, neg
from typing import NamedTuple

from .errors import (InfiniteParabolicError, InvariantViolation, ParseError,
                     PreconditionError, ResourceLimitError,
                     SystemMismatchError)
from .scalar import INF, field_for

Word = tuple[int, ...]

DEFAULT_BALL_CAP = 10**6
DEFAULT_WORD_CAP = 100_000
MAX_SPHERICAL_SUBSETS = 5_000


class CoxeterMatrix(NamedTuple):
    """Names and the symmetric order table: 1 on the diagonal, ints >= 2
    or INF off it.  A plain record, which `CoxeterSystem` checks."""

    names: tuple[str, ...]
    orders: tuple[tuple[object, ...], ...]


class CoxeterSystem:
    """A Coxeter matrix together with its exact geometric representation.
    A matrix with no generators, or not of the form `CoxeterMatrix`
    states, raises PreconditionError."""

    def __init__(self, matrix: CoxeterMatrix):
        names, orders = matrix
        n = len(names)
        if not n:
            raise PreconditionError("no generators declared")
        if len(set(names)) != n:
            raise PreconditionError("generator names must be distinct")
        if len(orders) != n or any(len(row) != n for row in orders):
            raise PreconditionError("order table has the wrong shape")
        for i in range(n):
            if orders[i][i] != 1:
                raise PreconditionError("diagonal orders must equal 1")
            for j in range(i):
                m = orders[i][j]
                if m != orders[j][i]:
                    raise PreconditionError("order table must be symmetric")
                if m != INF and (not isinstance(m, int) or m < 2):
                    raise PreconditionError(
                        f"off-diagonal orders must be ints >= 2 or INF, got {m!r}")
        self.matrix = matrix
        self.n = n
        self.field = field = field_for(
            orders[i][j] for i in range(n) for j in range(i))

        # Rows of the doubled form 2B: 2B[s][t] = -2cos(pi/m_st), which is
        # 2 on the diagonal (m = 1).
        self._bform = tuple(tuple(field.raw_neg(field.two_cos_raw(m)) for m in row)
                            for row in orders)

        # Sparse reflection data: for each s, the neighbours t with
        # c_st = 2cos(pi/m_st) = -2B[s][t] nonzero.
        self._nbrs = tuple(
            tuple((t, field.raw_neg(x)) for t, x in enumerate(row)
                  if t != s and any(x))
            for s, row in enumerate(self._bform))

        # The identity's columns are the unit vectors; it has no descents.
        zero, fone = field.zero, field.one
        self._id_mat = tuple(zero * j + fone + zero * (n - 1 - j)
                             for j in range(n))
        self._elements: dict[tuple, Element] = {}
        self._descent_sets: dict[frozenset, frozenset] = {}
        self._identity = self._element(self._heights(self._id_mat),
                                       self._id_mat)
        self._identity._nf = ()
        self._identity._inverse = self._identity
        empty = self._descent_sets[frozenset()] = frozenset()
        self._identity._rdesc = empty
        self._gens = tuple(self.mul_gen(self._identity, s) for s in range(n))

        for s in range(n):
            g = self._gens[s]
            if self._gen_rmul(g.mat, s) != self._id_mat:
                raise InvariantViolation("generator matrix is not an involution")

        self._index = {name: i for i, name in enumerate(matrix.names)}
        # Words are joined by spaces unless every name is one character.
        self._sep = "" if all(len(nm) == 1 for nm in matrix.names) else " "
        self._w0_cache: dict[frozenset, Element] = {}
        self._finite_cache: dict[frozenset, bool] = {}
        self._reduced_words: dict[frozenset, tuple[Word, ...]] = {}
        self._weak_orders: dict[frozenset, tuple] = {}
        self._small_roots: frozenset | None = None
        self._chunk_walls: dict[frozenset, tuple] = {}
        self._spherical: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def from_pairs(cls, names, orders: dict) -> "CoxeterSystem":
        """Build a system from {('a','b'): m} pairs; omitted pairs are INF.

        Raises PreconditionError for a pair naming an unknown generator or
        two orders for one pair, which the table cannot show, and for
        whatever `CoxeterSystem` refuses in the table: no names, repeated
        names, a diagonal pair, or an order not an int >= 2 or INF.
        """
        names = tuple(names)
        idx = {nm: i for i, nm in enumerate(names)}
        n = len(names)
        table = [[INF] * n for _ in range(n)]
        for i in range(n):
            table[i][i] = 1
        for (a, b), m in orders.items():
            for nm in (a, b):
                if nm not in idx:
                    raise PreconditionError(f"unknown generator {nm!r}")
            if orders.get((b, a), m) != m:
                raise PreconditionError(
                    f"conflicting orders for pair ({a}, {b}): "
                    f"{m} and {orders[b, a]}")
            i, j = idx[a], idx[b]
            table[i][j] = table[j][i] = m
        return cls(CoxeterMatrix(names, tuple(tuple(r) for r in table)))

    # ----- matrix kernels ----------------------------------------------

    def _gen_rmul(self, mat, s: int):
        """mat @ sigma_s: negate column s and add c_st times it to each
        neighbour column t; the other columns are shared."""
        col = mat[s]
        cols = list(mat)
        cols[s] = tuple(map(neg, col))
        scale = self.field.scale
        for t, c in self._nbrs[s]:
            cols[t] = tuple(map(add, mat[t], scale(c, col)))
        return tuple(cols)

    def _gen_lmul(self, s: int, mat):
        """sigma_s @ mat: block s of each column becomes -block_s plus the
        sum of c_st times the neighbour blocks."""
        d, scale = self.field.degree, self.field.scale
        lo, hi = s * d, s * d + d
        nbrs = [(t * d, c) for t, c in self._nbrs[s]]
        out = []
        for col in mat:
            block = tuple(map(neg, col[lo:hi]))
            for k, c in nbrs:
                block = tuple(map(add, block, scale(c, col[k:k + d])))
            out.append(col[:lo] + block + col[hi:])
        return tuple(out)

    def _mat_mul(self, a, b):
        """a @ b entry by entry: entry (i, j) is block i of column j."""
        n, d = self.n, self.field.degree
        mul, add = self.field.raw_mul, self.field.raw_add
        zero = self.field.zero
        out = []
        for bcol in b:
            col = ()
            for i in range(n):
                acc = zero
                for k in range(n):
                    x = a[k][i * d:i * d + d]
                    if any(x):
                        y = bcol[k * d:k * d + d]
                        if any(y):
                            acc = add(acc, mul(x, y))
                col += acc
            out.append(col)
        return tuple(out)

    def _key_rmul(self, key, s: int):
        """The key of g·s from g's: height s is negated, and c_st times it
        is added to each neighbour height t."""
        d, out = self.field.degree, list(key)
        if d == 1:
            # Over Q a height is one int, so a step needs no scale call.
            height = key[s]
            out[s] = -height
            for t, c in self._nbrs[s]:
                out[t] += c[0] * height
            return tuple(out)
        lo, scale = s * d, self.field.scale
        height = key[lo:lo + d]
        out[lo:lo + d] = map(neg, height)
        for t, c in self._nbrs[s]:
            out[t * d:t * d + d] = map(add, key[t * d:t * d + d],
                                       scale(c, height))
        return tuple(out)

    def _heights(self, mat):
        """The key of the element with this matrix: the height of each
        column, the sum of its n coordinates."""
        d = self.field.degree
        return tuple(sum(col[k::d]) for col in mat for k in range(d))

    def apply(self, mat, vec):
        """mat @ vec for a flat vector: the sum of vec_k times column k."""
        d, scale = self.field.degree, self.field.scale
        out = (0,) * len(vec)
        for k, col in enumerate(mat):
            x = vec[k * d:k * d + d]
            if any(x):
                out = tuple(map(add, out, scale(x, col)))
        return out

    def bform_dot(self, s: int, vec):
        """2B(a_s, vec), twice the bilinear form, as a raw value."""
        d = self.field.degree
        mul, add = self.field.raw_mul, self.field.raw_add
        acc = self.field.zero
        for t, x in enumerate(self._bform[s]):
            v = vec[t * d:t * d + d]
            if any(x) and any(v):
                acc = add(acc, mul(x, v))
        return acc

    def bilinear(self, u, v):
        """2B(u, v), twice the bilinear form, as a raw value."""
        d = self.field.degree
        mul, add = self.field.raw_mul, self.field.raw_add
        acc = self.field.zero
        for i in range(self.n):
            ui = u[i * d:i * d + d]
            if any(ui):
                acc = add(acc, mul(ui, self.bform_dot(i, v)))
        # B rows are symmetric, so folding through bform_dot is exact.
        return acc

    def root_sign(self, vec) -> int:
        """+1 for a positive root, -1 for a negative one, from its flat
        vector; mixed signs or a zero vector are a bug."""
        d, sign = self.field.degree, self.field.raw_sign
        signs = {sign(vec[i:i + d]) for i in range(0, len(vec), d)}
        pos, negative = 1 in signs, -1 in signs
        if pos and negative:
            raise InvariantViolation("root vector has mixed coordinate signs")
        if not (pos or negative):
            raise InvariantViolation("root vector is zero")
        return 1 if pos else -1

    def _descents(self, key) -> frozenset:
        """The t whose height in key is negative, as a frozenset shared by
        every element with these descents."""
        fs = frozenset(t for t in range(self.n) if self._negative(key, t))
        return self._descent_sets.setdefault(fs, fs)

    def _negative(self, key, t: int) -> bool:
        """Whether height t of a key is negative, that is, whether t is a
        right descent of the element with this key."""
        d = self.field.degree
        if d == 1:
            # One int compare in place of a raw_sign call per descent read.
            return key[t] < 0
        return self.field.raw_sign(key[t * d:t * d + d]) < 0

    def _stepped_descents(self, g: "Element", key, s: int) -> frozenset:
        """The right descents of h = g·s, whose key is `key`, from those of
        g: s toggles, and only a neighbour t of s on the other side of it
        can change, which the sign of its height decides."""
        desc = g._rdesc
        s_in = s in desc
        flip = [s]
        for t, _ in self._nbrs[s]:
            t_in = t in desc
            if t_in != s_in and self._negative(key, t) != t_in:
                flip.append(t)
        fs = desc.symmetric_difference(flip)
        return self._descent_sets.setdefault(fs, fs)

    # ----- words ---------------------------------------------------------

    def parse_word(self, text: str) -> Word:
        """Parse a word: space-separated names, or concatenated one-letter
        names.

        "e" is the empty word, as `word_str` prints it, unless a generator
        is named "e".  Raises ParseError on an unknown name.
        """
        text = text.strip()
        if not text or (text == "e" and "e" not in self._index):
            return ()
        if any(ch.isspace() for ch in text):
            parts = text.split()
        elif not self._sep:
            parts = list(text)
        else:
            parts = [text]
        return tuple(map(self.gen_index, parts))

    def word_str(self, word: Word) -> str:
        """A word as text: "e" if empty, letters joined by spaces unless all
        generator names are one character long."""
        if not word:
            return "e"
        names = self.matrix.names
        return self._sep.join([names[s] for s in word])

    def gen_index(self, name: str) -> int:
        if name not in self._index:
            raise ParseError(f"unknown generator {name!r}")
        return self._index[name]

    # ----- elements ------------------------------------------------------

    @property
    def identity(self) -> "Element":
        return self._identity

    def generator(self, s: int) -> "Element":
        return self._gens[s]

    def element(self, word) -> "Element":
        """The element represented by a word (indices or a string)."""
        if isinstance(word, str):
            word = self.parse_word(word)
        return self.mul_word(self._identity, word)

    def _element(self, key, mat=None, slot=None) -> "Element":
        """The one Element with this key, made on first sight.

        A new element is given either its matrix or `slot`, the letter s
        with g = h·s for the element h it was stepped from (see
        `Element.mat`).
        """
        el = self._elements.get(key)
        if el is None:
            el = self._elements[key] = Element(self, key, mat, slot)
        return el

    def mul_word(self, g: "Element", word) -> "Element":
        """g times the element of a word, one generator step per letter."""
        for s in word:
            g = self.mul_gen(g, s)
        return g

    def mul_gen(self, g: "Element", s: int) -> "Element":
        """g * s: one key step, kept on g, and g kept on g·s.  If g's right
        descents are known, those of g·s are stepped from them."""
        if not 0 <= s < self.n:
            raise PreconditionError(f"letter {s} out of range")
        if g.system is not self:
            raise SystemMismatchError("element of a different system")
        h = g._steps[s]
        if h is None:
            key = self._key_rmul(g.key, s)
            h = g._steps[s] = self._element(key, slot=s)
            h._steps[s] = g
            if h._rdesc is None and g._rdesc is not None:
                h._rdesc = self._stepped_descents(g, key, s)
        return h

    def gen_mul(self, s: int, g: "Element") -> "Element":
        """s * g, which is (g⁻¹·s)⁻¹: a right step of the inverse."""
        if g.system is not self:
            raise SystemMismatchError("element of a different system")
        h = self.mul_gen(g._inverse or g.inverse(), s)
        return h._inverse or h.inverse()

    # ----- structure ------------------------------------------------------

    def is_two_dimensional(self) -> bool:
        """True iff no spherical subset has size 3: every triple of
        generators has 1/m_st + 1/m_sr + 1/m_tr <= 1."""
        return not any(len(T) == 3 for T in self.spherical_subsets())

    def is_finite_parabolic(self, T) -> bool:
        """Whether <T> is finite: exactly when B restricted to T is
        positive definite (Humphreys, Reflection Groups and Coxeter
        Groups, 1990, 6.4; Bourbaki, Lie IV-VI, Ch. V 4.8)."""
        T = frozenset(T)
        if T not in self._finite_cache:
            for t in T:
                if not 0 <= t < self.n:
                    raise PreconditionError(f"letter {t} out of range")
            self._finite_cache[T] = self._classify_finite(T)
        return self._finite_cache[T]

    def _classify_finite(self, T: frozenset) -> bool:
        """Positive definiteness of 2B on T, by division-free elimination.

        The pivot a must be positive; with b the rest of its column, the
        remaining block M' becomes a·M' - b·bᵀ, a positive multiple of the
        Schur complement.  So every entry stays in Z[theta] and every
        decision is an exact sign.  Rows with rational entries go first,
        and each step divides out the integer content, which for integer
        entries is Bareiss's exact division; otherwise the coefficients
        double in size at every step.
        """
        field, bform = self.field, self._bform
        mul, sub = field.raw_mul, field.raw_sub
        verts = sorted(T, key=lambda i: (any(any(bform[i][j][1:]) for j in T), i))
        m = [[bform[i][j] for j in verts] for i in verts]
        while m:
            a, b = m[0][0], m[0][1:]
            if field.raw_sign(a) <= 0:
                return False
            m = [[sub(mul(a, x), mul(bi, bj)) for x, bj in zip(row[1:], b)]
                 for row, bi in zip(m[1:], b)]
            g = math.gcd(*(c for row in m for x in row for c in x)) or 1
            m = [[tuple(c // g for c in x) for x in row] for row in m]
        return True

    def spherical_subsets(self) -> tuple[tuple[int, ...], ...]:
        """Every nonempty T with <T> finite, as sorted tuples, ordered by
        size and then lexicographically.

        Finiteness passes to subsets, so each spherical T is a smaller
        spherical T extended by a larger letter, and the work follows the
        output rather than the 2^n subsets.  The output can still double
        with each generator (a path of order-3 edges has 2^n - 1), so past
        MAX_SPHERICAL_SUBSETS the listing raises ResourceLimitError.
        """
        if self._spherical is None:
            out, level = [], [()]
            while level:
                grown = []
                for T in level:
                    start = T[-1] + 1 if T else 0
                    grown += [T + (s,) for s in range(start, self.n)
                              if self.is_finite_parabolic(T + (s,))]
                    if len(out) + len(grown) > MAX_SPHERICAL_SUBSETS:
                        raise ResourceLimitError(
                            f"more than {MAX_SPHERICAL_SUBSETS} spherical "
                            "subsets, over the cap MAX_SPHERICAL_SUBSETS")
                level = grown
                out.extend(level)
            self._spherical = tuple(out)
        return self._spherical

    def _require_finite(self, T: frozenset) -> None:
        if not self.is_finite_parabolic(T):
            raise InfiniteParabolicError(
                f"<{{{', '.join(self.matrix.names[t] for t in sorted(T))}}}> is infinite")

    def longest_element(self, T) -> "Element":
        """Longest element of the standard parabolic <T>, by greedy ascent."""
        T = frozenset(T)
        if T in self._w0_cache:
            return self._w0_cache[T]
        self._require_finite(T)
        cur = self._identity
        ts = sorted(T)
        while True:
            rd = cur.right_descents()
            for t in ts:
                if t not in rd:
                    cur = self.mul_gen(cur, t)
                    break
            else:
                break
        self._w0_cache[T] = cur
        return cur

    def residue_gate(self, g: "Element", T) -> "Element":
        """The unique shortest element of the residue g<T> (greedy strip)."""
        ts = sorted(T)
        cur = g
        while True:
            rd = cur._rdesc or cur.right_descents()
            for t in ts:
                if t in rd:
                    cur = cur._steps[t] or self.mul_gen(cur, t)
                    break
            else:
                return cur

    def in_residue(self, x: "Element", g: "Element", T) -> bool:
        """Whether x lies in the residue g<T>.

        Each coset x·W_T has a unique shortest element, its gate, so x is
        in g<T> exactly when x and g have the same gate.
        """
        return self.residue_gate(x, T) is self.residue_gate(g, T)

    # ----- enumeration ----------------------------------------------------

    def ball(self, radius: int, max_elements: int = DEFAULT_BALL_CAP) -> list["Element"]:
        """All elements of length <= radius, in (length, ShortLex) order."""
        if radius < 0:
            raise PreconditionError("radius must be nonnegative")
        return self._closure(range(self.n), radius, max_elements)

    def parabolic_elements(self, T, max_elements: int = DEFAULT_BALL_CAP) -> list["Element"]:
        """All elements of <T>; raises InfiniteParabolicError, before
        forming any element, if <T> is infinite, and ResourceLimitError if
        the cap trips."""
        T = frozenset(T)
        self._require_finite(T)
        return self._closure(T, None, max_elements)

    def _closure(self, gens, radius, max_elements) -> list["Element"]:
        gens = sorted(set(gens))  # ascending letters, each once
        if max_elements < 1:
            raise ResourceLimitError(
                f"element enumeration exceeded cap {max_elements}")
        out = [self._identity]
        current = [self._identity]
        level = 0
        while current and (radius is None or level < radius):
            level += 1
            # `current` is in ShortLex order and the letters ascend, so the
            # words nf(g) + (s,) arrive in lex order, and the first one to
            # reach an element is its normal form.  An element that has one
            # is taken only on the arrival by the last letter of it, which
            # comes from el·s, whose normal form is the rest.
            nxt = []
            for g in current:
                rd = g.right_descents()
                for s in gens:
                    if s in rd:
                        continue
                    el = self.mul_gen(g, s)
                    if el._nf is None:
                        el._nf = g.nf + (s,)
                    elif el._nf[-1] != s:
                        continue
                    nxt.append(el)
                    out.append(el)
                    if len(out) > max_elements:
                        raise ResourceLimitError(
                            f"element enumeration exceeded cap {max_elements}")
            current = nxt
        return out

    def __repr__(self) -> str:
        return f"CoxeterSystem({', '.join(self.matrix.names)})"


def k_constant(system: CoxeterSystem) -> int:
    """Max chunk length: the longest w0 over finite standard parabolics.
    l(w0(T)) counts the reflections of <T>, so it grows with T, and only
    the maximal spherical T are measured."""
    found = set(system.spherical_subsets())
    return max((system.longest_element(T).length for T in found
                if not any(tuple(sorted(T + (s,))) in found
                           for s in range(system.n))), default=0)


class Element:
    """A group element: its key plus memoised data.

    Made only by `CoxeterSystem._element`.  `_steps[s]` is g·s once
    taken; `_inverse` is g⁻¹ once formed, and g is kept on it in turn;
    `_descent` is (T, w, Pi) and `_canonical` the canonical word (see
    `language`).  `_mat` is g's matrix once formed; until then `_slot` is
    the letter s with g = h·s, for the element h in `_steps[s]`.
    """

    __slots__ = ("system", "key", "_mat", "_slot", "_inverse", "_nf",
                 "_rdesc", "_steps", "_descent", "_canonical")

    def __init__(self, system: CoxeterSystem, key, mat, slot):
        self.system = system
        self.key = key
        self._mat = mat
        self._slot = slot
        self._inverse = None
        self._nf = None
        self._rdesc = None
        self._steps = [None] * system.n
        self._descent = None
        self._canonical = None

    @property
    def mat(self):
        """The matrix of g, formed on first read: the chain g was stepped
        from is walked back to a known matrix (the identity, at worst) and
        replayed by right steps, keeping each matrix on the way."""
        if self._mat is None:
            system, chain, cur = self.system, [], self
            while cur._mat is None:
                chain.append(cur)
                cur = cur._steps[cur._slot]
            mat = cur._mat
            for el in reversed(chain):
                mat = el._mat = system._gen_rmul(mat, el._slot)
        return self._mat

    @property
    def inv(self):
        """The matrix of g⁻¹, read through `inverse()`."""
        return self.inverse().mat

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if other.system is not self.system:
            raise SystemMismatchError("elements of different systems")
        return self.system.mul_word(self, other.nf)

    def inverse(self) -> "Element":
        """g⁻¹, kept on g and g on it.  If g = h·s then g⁻¹ = s·h⁻¹, so the
        chain g was stepped from is walked back to an element whose
        inverse is known (the identity, at worst), and each inverse on the
        way forward is one left step of the last one's matrix."""
        if self._inverse is None:
            system, chain, cur = self.system, [], self
            while cur._inverse is None:
                chain.append(cur)
                cur = cur._steps[cur._slot]
            mat = cur._inverse.mat
            for el in reversed(chain):
                mat = system._gen_lmul(el._slot, mat)
                inv = system._element(system._heights(mat), mat)
                inv._mat, inv._inverse, el._inverse = mat, el, inv
        return self._inverse

    def is_identity(self) -> bool:
        return self is self.system._identity

    def right_descents(self) -> frozenset[int]:
        """{s : l(gs) < l(g)} = {s : g sends a_s to a negative root}, read
        off the signs of g's key."""
        if self._rdesc is None:
            self._rdesc = self.system._descents(self.key)
        return self._rdesc

    def left_descents(self) -> frozenset[int]:
        """{s : l(sg) < l(g)}, the right descents of g⁻¹."""
        return self.inverse().right_descents()

    @property
    def nf(self) -> Word:
        """ShortLex normal form.  Its first letter is the least left
        descent of g, the least right descent of g⁻¹, so g⁻¹ is walked
        down by key steps to an element whose inverse's normal form is
        known."""
        if self._nf is None:
            system, letters, cur = self.system, [], self.inverse()
            while cur._inverse is None or cur._inverse._nf is None:
                desc = cur.right_descents()
                if not desc:
                    raise InvariantViolation("non-identity element with no descent")
                s = min(desc)
                letters.append(s)
                cur = system.mul_gen(cur, s)
            self._nf = tuple(letters) + cur._inverse._nf
        return self._nf

    @property
    def length(self) -> int:
        return len(self.nf)

    def __repr__(self) -> str:
        return f"<{self.system.word_str(self.nf)}>"


# ----- parsing ------------------------------------------------------------


def parse_system(text: str) -> CoxeterSystem:
    """Parse a group definition.

    Format: a `generators s t r` line, then `m <a> <b> <order>` lines where
    the order is an integer >= 2 or `inf`.  `#` starts a comment.  Pairs
    not listed get order infinity.
    """
    names = None
    index: dict[str, int] = {}
    assigned: dict[tuple[int, int], tuple[object, int]] = {}
    for ln, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if names is None:
            if parts[0] != "generators":
                raise ParseError("expected a 'generators ...' line first", ln)
            if len(parts) == 1:
                raise ParseError("no generators declared", ln)
            names = parts[1:]
            for nm in names:
                if nm in index:
                    raise ParseError(f"duplicate generator name {nm!r}", ln)
                index[nm] = len(index)
            continue
        if parts[0] != "m" or len(parts) != 4:
            raise ParseError("expected 'm <a> <b> <order>'", ln)
        a, b, val = parts[1], parts[2], parts[3]
        if a not in index:
            raise ParseError(f"unknown generator {a!r}", ln)
        if b not in index:
            raise ParseError(f"unknown generator {b!r}", ln)
        i, j = index[a], index[b]
        if i == j:
            raise ParseError("diagonal orders are fixed at 1", ln)
        if val == "inf":
            m = INF
        else:
            try:
                m = int(val)
            except ValueError:
                raise ParseError(f"order must be an integer >= 2 or 'inf', got {val!r}", ln)
            if m < 2:
                raise ParseError(f"off-diagonal order must be at least 2, got {m}", ln)
        key = (min(i, j), max(i, j))
        if key in assigned and assigned[key][0] != m:
            raise ParseError(
                f"conflicting orders for pair ({a}, {b}): "
                f"{assigned[key][0]} on line {assigned[key][1]}, now {m}", ln)
        assigned[key] = (m, ln)
    if names is None:
        raise ParseError("empty group definition")
    return CoxeterSystem.from_pairs(
        names, {(names[i], names[j]): m for (i, j), (m, _) in assigned.items()})
