"""Coxeter systems and exact group elements.

The geometric representation acts on the span of the simple roots; each
generator is the B-orthogonal reflection in its simple root, where
B(a_s, a_t) = -cos(pi/m_st).  The system stores the form as 2B, with
2B(a_s, a_s) = 2 and 2B(a_s, a_t) = -2cos(pi/m_st), so that, like every
generator matrix, it has entries in Z[theta] and every library value is an
integer vector.  The representation is faithful, so element equality is
matrix equality over the exact field.  Normal forms are ShortLex: the
first letter of nf(g) is the least left descent of g, and stripping it
recurses.

Layout.  With d the field degree, a vector in the simple-root basis is
one flat tuple of n·d ints: coordinate i is the block [i·d, (i+1)·d).  A
matrix is the tuple of its n columns, and column j of g's matrix is the
root g(a_j); the identity's columns are the unit vectors.  So j is a
right descent of g exactly when column j is a negative root (Björner &
Brenti 2005, 4.2), and `root_sign` reads it off one flat vector.

An element carries its matrix.  The matrix of its inverse, which left
descents read, is formed on first use by replaying the generator steps
that made the element with the opposite-side kernel, so no matrix is ever
inverted, and an element whose inverse is never read costs one step.
Generator matrices differ from the identity only in one row, so one-sided
multiplication by a generator costs O(n^2) instead of O(n^3).  A right
step g·s negates column s and adds c_st = 2cos(pi/m_st) times it to each
neighbour column t, one pass over a flat vector each; every other column
is the same tuple as in g, shared, which is exact because tuples are
immutable.  A left step s·g rewrites block s of each column.  Every
product the library forms is such a generator step: g·u is `mul_word(g,
nf(u))`, and coset questions compare residue gates instead of forming
g⁻¹·x.  The dense `_mat_mul` is their test oracle.

Right descents step with the element.  Column t of g·s is g(a_t) +
c_st·g(a_s) for a neighbour t of s and g(a_t) otherwise, and c_st > 0.  So
s toggles, a non-neighbour keeps its membership, and so does a neighbour
on the same side as s, since a positive combination of two roots of one
sign has that sign.  Only a neighbour on the other side can change.  When
s is an ascent, that neighbour's fate is read off the <s, t> tail of g
through steps already taken (see `_tail_descent`), so a ball makes no
sign test at all; otherwise its column is sign-tested.

Elements are interned: a system hands out one Element per group element,
keyed by its matrix.  So what an element memoises serves every caller:
normal form, descent sets (shared per system), descent data (T, w, Pi),
canonical word, and generator steps.  `mul_gen(g, s)` stores
g·s on g and g on g·s, and `gen_mul` likewise on the left, so a repeated
step is a lookup.  `_element` is the only constructor, so two elements of
one system are equal exactly when they are the same object, and elements
compare and hash by identity.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, neg

from .errors import (InfiniteParabolicError, InvariantViolation, ParseError,
                     PreconditionError, ResourceLimitError,
                     SystemMismatchError)
from .scalar import INF, field_for

Word = tuple[int, ...]

DEFAULT_BALL_CAP = 10**6
DEFAULT_WORD_CAP = 100_000


class CoxeterMatrix:
    """Symmetric order table: 1 on the diagonal, ints >= 2 or INF off it."""

    __slots__ = ("names", "orders")

    def __init__(self, names: tuple[str, ...],
                 orders: tuple[tuple[object, ...], ...]):
        self.names = names
        self.orders = orders
        n = len(names)
        if len(set(names)) != n:
            raise InvariantViolation("generator names must be distinct")
        if len(orders) != n or any(len(row) != n for row in orders):
            raise InvariantViolation("order table has the wrong shape")
        for i in range(n):
            if orders[i][i] != 1:
                raise InvariantViolation("diagonal orders must equal 1")
            for j in range(i + 1, n):
                m = orders[i][j]
                if m != orders[j][i]:
                    raise InvariantViolation("order table must be symmetric")
                if m != INF and (not isinstance(m, int) or m < 2):
                    raise InvariantViolation("off-diagonal orders must be >= 2 or INF")

    def __eq__(self, other):
        if not isinstance(other, CoxeterMatrix):
            return NotImplemented
        return self.names == other.names and self.orders == other.orders

    def __hash__(self):
        return hash((self.names, self.orders))

    def __repr__(self) -> str:
        return f"CoxeterMatrix(names={self.names!r}, orders={self.orders!r})"

    @property
    def n(self) -> int:
        return len(self.names)

    def order(self, i: int, j: int):
        return self.orders[i][j]

    def finite_orders(self) -> list[int]:
        n = self.n
        return [self.orders[i][j] for i in range(n) for j in range(i + 1, n)
                if self.orders[i][j] != INF]


@lru_cache
def _separator(names: tuple[str, ...]) -> str:
    """How words over these names are joined, decided once per names."""
    return "" if all(len(nm) == 1 for nm in names) else " "


def word_str(names, word: Word) -> str:
    """A word as text: "e" if empty, letters joined by spaces unless all
    generator names are one character long."""
    if not word:
        return "e"
    return _separator(names).join([names[s] for s in word])


def parse_word(names, text: str) -> Word:
    """Parse a word: space-separated names, or concatenated one-letter names.

    "e" is the empty word, as word_str prints it, unless a generator is
    named "e".  Raises ParseError on an unknown name.
    """
    index = {nm: i for i, nm in enumerate(names)}
    text = text.strip()
    if not text or (text == "e" and "e" not in index):
        return ()
    if any(ch.isspace() for ch in text):
        parts = text.split()
    elif all(len(nm) == 1 for nm in names):
        parts = list(text)
    else:
        parts = [text]
    for p in parts:
        if p not in index:
            raise ParseError(0, f"unknown generator {p!r}")
    return tuple(index[p] for p in parts)


class CoxeterSystem:
    """A Coxeter matrix together with its exact geometric representation."""

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.n = matrix.n
        self.field = field_for(matrix.finite_orders())
        field = self.field
        n = self.n

        # 2cos(pi/m_st) for every pair; -2 on the diagonal (m = 1).
        minus_two = field.raw_from_rational(-2)
        self._c2 = tuple(
            tuple(minus_two if i == j else field.two_cos_raw(matrix.orders[i][j])
                  for j in range(n))
            for i in range(n))

        # Sparse reflection data: for each s, the neighbours t with c2 != 0.
        self._nbrs = tuple(
            tuple((t, self._c2[s][t]) for t in range(n)
                  if t != s and any(self._c2[s][t]))
            for s in range(n))

        # Rows of the doubled form 2B: 2B[s][t] = -2cos(pi/m_st), 2B[s][s] = 2.
        self._bform = tuple(
            tuple(field.two if i == j else field.raw_neg(self._c2[i][j])
                  for j in range(n))
            for i in range(n))

        # The identity's columns are the unit vectors; it has no descents.
        zero, fone = field.zero, field.one
        self._id_mat = tuple(zero * j + fone + zero * (n - 1 - j)
                             for j in range(n))
        self._elements: dict[tuple, Element] = {}
        self._descent_sets: dict[frozenset, frozenset] = {}
        self._identity = self._element(self._id_mat, self._id_mat)
        self._identity._nf = ()
        empty = self._descent_sets[frozenset()] = frozenset()
        self._identity._rdesc = self._identity._ldesc = empty
        self._gens = tuple(self.mul_gen(self._identity, s) for s in range(n))

        for s in range(n):
            g = self._gens[s]
            if self._gen_rmul(g.mat, s) != self._id_mat:
                raise InvariantViolation("generator matrix is not an involution")

        self._index = {name: i for i, name in enumerate(matrix.names)}
        self._w0_cache: dict[frozenset, Element] = {}
        self._finite_cache: dict[frozenset, bool] = {}
        self._reduced_words: dict[frozenset, tuple[Word, ...]] = {}
        self._small_roots: frozenset | None = None
        self._spherical: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def from_pairs(cls, names, orders: dict) -> "CoxeterSystem":
        """Build a system from {('a','b'): m} pairs; omitted pairs are INF."""
        names = tuple(names)
        idx = {nm: i for i, nm in enumerate(names)}
        n = len(names)
        table = [[INF] * n for _ in range(n)]
        for i in range(n):
            table[i][i] = 1
        for (a, b), m in orders.items():
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
        field = self.field
        d = field.degree
        if d == 1:
            pos, negative = max(vec) > 0, min(vec) < 0
        else:
            sign = field.raw_sign
            signs = {sign(vec[i:i + d]) for i in range(0, len(vec), d)}
            pos, negative = 1 in signs, -1 in signs
        if pos and negative:
            raise InvariantViolation("root vector has mixed coordinate signs")
        if not (pos or negative):
            raise InvariantViolation("root vector is zero")
        return 1 if pos else -1

    def _descents(self, mat) -> frozenset:
        """The s whose column of mat is a negative root, as a frozenset
        shared by every element with these descents."""
        fs = frozenset(s for s, col in enumerate(mat)
                       if self.root_sign(col) < 0)
        return self._descent_sets.setdefault(fs, fs)

    def _stepped_descents(self, g: "Element", mat, s: int) -> frozenset:
        """The right descents of h = g·s, whose matrix is `mat`, from those
        of g: s toggles, and only a neighbour t of s on the other side of
        it can change.  Such a t is read off the dihedral tail of g when
        its steps are known, and otherwise sign-tested."""
        desc = g._rdesc
        s_in = s in desc
        flip = [s]
        for t, _ in self._nbrs[s]:
            t_in = t in desc
            if t_in == s_in:
                continue
            now = self._tail_descent(g, s, t) if t_in else None
            if now is None:
                now = self.root_sign(mat[t]) < 0
            if now != t_in:
                flip.append(t)
        fs = desc.symmetric_difference(flip)
        return self._descent_sets.setdefault(fs, fs)

    def _tail_descent(self, g: "Element", s: int, t: int):
        """For s not in D_R(g) and t in it: whether t is in D_R(g·s), or
        None if a step it needs was never taken.

        Write g = g'·w with g' shortest in g<s, t>.  Then w alternates and
        ends in t, and t is a descent of w·s exactly when w·s is the
        longest element of <s, t>, that is, when w has length m_st - 1.
        So the walk down g·t, g·t·s, ... checks that the tail is that long.
        """
        m = self.matrix.orders[s][t]
        if m == INF:
            return False
        x, u = g, t
        for _ in range(m - 2):
            x = x._steps[u]
            if x is None or x._rdesc is None:
                return None
            u = s if u == t else t
            if u not in x._rdesc:
                return False
        return True

    # ----- words ---------------------------------------------------------

    def parse_word(self, text: str) -> Word:
        """Parse a word over this system's generators (see `parse_word`)."""
        return parse_word(self.matrix.names, text)

    def word_str(self, word: Word) -> str:
        return word_str(self.matrix.names, word)

    def gen_index(self, name: str) -> int:
        if name not in self._index:
            raise ParseError(0, f"unknown generator {name!r}")
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

    def _element(self, mat, inv=None, slot=None) -> "Element":
        """The one Element with this matrix, made on first sight.

        A new element is given either its inverse matrix or `slot`, the
        step slot that holds the element it was stepped from (see
        `Element.inv`).
        """
        el = self._elements.get(mat)
        if el is None:
            el = self._elements[mat] = Element(self, mat, inv, slot)
        return el

    def mul_word(self, g: "Element", word) -> "Element":
        """g times the element of a word, one generator step per letter."""
        for s in word:
            g = self.mul_gen(g, s)
        return g

    def mul_gen(self, g: "Element", s: int) -> "Element":
        """g * s: the O(n^2) kernel once, kept on g, and g kept on g·s.
        If g's right descents are known, those of g·s are stepped from
        them."""
        if not 0 <= s < self.n:
            raise PreconditionError(f"letter {s} out of range")
        h = g._steps[s]
        if h is None:
            mat = self._gen_rmul(g.mat, s)
            h = g._steps[s] = self._element(mat, slot=s)
            h._steps[s] = g
            if h._rdesc is None and g._rdesc is not None:
                h._rdesc = self._stepped_descents(g, mat, s)
        return h

    def gen_mul(self, s: int, g: "Element") -> "Element":
        """s * g, memoised as in mul_gen, in the left-step slots."""
        if not 0 <= s < self.n:
            raise PreconditionError(f"letter {s} out of range")
        k = self.n + s
        h = g._steps[k]
        if h is None:
            h = g._steps[k] = self._element(self._gen_lmul(s, g.mat), slot=k)
            h._steps[k] = g
        return h

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
        output rather than the 2^n subsets.
        """
        if self._spherical is None:
            out, level = [], [()]
            while level:
                level = [T + (s,) for T in level
                         for s in range(T[-1] + 1 if T else 0, self.n)
                         if self.is_finite_parabolic(T + (s,))]
                out.extend(level)
            self._spherical = tuple(out)
        return self._spherical

    def longest_element(self, T) -> "Element":
        """Longest element of the standard parabolic <T>, by greedy ascent."""
        T = frozenset(T)
        if T in self._w0_cache:
            return self._w0_cache[T]
        if not self.is_finite_parabolic(T):
            raise InfiniteParabolicError(
                f"<{{{', '.join(self.matrix.names[t] for t in sorted(T))}}}> is infinite")
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
            rd = cur.right_descents()
            for t in ts:
                if t in rd:
                    cur = self.mul_gen(cur, t)
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
        return self._closure(range(self.n), radius, max_elements)

    def parabolic_elements(self, T, max_elements: int = DEFAULT_BALL_CAP) -> list["Element"]:
        """All elements of <T>; raises ResourceLimitError if the cap trips."""
        return self._closure(sorted(T), None, max_elements)

    def _closure(self, gens, radius, max_elements) -> list["Element"]:
        gens = tuple(gens)
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
    """A group element: its exact matrix plus memoised data.

    Made only by `CoxeterSystem._element`.  `_steps[s]` is g·s and
    `_steps[n + s]` is s·g, once taken; `_descent` is (T, w, Pi) and
    `_canonical` the canonical word (see `language`).  `_inv` is the
    inverse matrix once formed; until then `_slot` names the step slot
    holding the element this one was stepped from.
    """

    __slots__ = ("system", "mat", "_inv", "_slot", "_nf", "_rdesc", "_ldesc",
                 "_steps", "_descent", "_canonical")

    def __init__(self, system: CoxeterSystem, mat, inv, slot):
        self.system = system
        self.mat = mat
        self._inv = inv
        self._slot = slot
        self._nf = None
        self._rdesc = None
        self._ldesc = None
        self._steps = [None] * (2 * system.n)
        self._descent = None
        self._canonical = None

    @property
    def inv(self):
        """The matrix of g⁻¹, formed on first read.

        If g = h·s then g⁻¹ = s·h⁻¹, and if g = s·h then g⁻¹ = h⁻¹·s: one
        opposite-side step from the inverse of the element g was stepped
        from.  The chain of such elements is walked back to one whose
        inverse is known (the identity, at worst), then replayed forward.
        """
        if self._inv is None:
            system, chain, cur = self.system, [], self
            while cur._inv is None:
                chain.append(cur)
                cur = cur._steps[cur._slot]
            inv, n = cur._inv, system.n
            for el in reversed(chain):
                k = el._slot
                inv = el._inv = (system._gen_lmul(k, inv) if k < n
                                 else system._gen_rmul(inv, k - n))
        return self._inv

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if other.system is not self.system:
            raise SystemMismatchError("elements of different systems")
        return self.system.mul_word(self, other.nf)

    def inverse(self) -> "Element":
        return self.system._element(self.inv, self.mat)

    def is_identity(self) -> bool:
        return self is self.system._identity

    def right_descents(self) -> frozenset[int]:
        """{s : l(gs) < l(g)} = {s : g sends a_s to a negative root}."""
        if self._rdesc is None:
            self._rdesc = self.system._descents(self.mat)
        return self._rdesc

    def left_descents(self) -> frozenset[int]:
        if self._ldesc is None:
            self._ldesc = self.system._descents(self.inv)
        return self._ldesc

    @property
    def nf(self) -> Word:
        """ShortLex normal form, by greedy least-left-descent stripping,
        down to an element whose normal form is known."""
        if self._nf is None:
            letters, cur = [], self
            while cur._nf is None:
                desc = cur.left_descents()
                if not desc:
                    raise InvariantViolation("non-identity element with no descent")
                s = min(desc)
                letters.append(s)
                cur = self.system.gen_mul(s, cur)
            self._nf = tuple(letters) + cur._nf
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
                raise ParseError(ln, "expected a 'generators ...' line first")
            if len(parts) == 1:
                raise ParseError(ln, "no generators declared")
            names = parts[1:]
            for nm in names:
                if nm in index:
                    raise ParseError(ln, f"duplicate generator name {nm!r}")
                index[nm] = len(index)
            continue
        if parts[0] != "m" or len(parts) != 4:
            raise ParseError(ln, "expected 'm <a> <b> <order>'")
        a, b, val = parts[1], parts[2], parts[3]
        if a not in index:
            raise ParseError(ln, f"unknown generator {a!r}")
        if b not in index:
            raise ParseError(ln, f"unknown generator {b!r}")
        i, j = index[a], index[b]
        if i == j:
            raise ParseError(ln, "diagonal orders are fixed at 1")
        if val == "inf":
            m = INF
        else:
            try:
                m = int(val)
            except ValueError:
                raise ParseError(ln, f"order must be an integer >= 2 or 'inf', got {val!r}")
            if m < 2:
                raise ParseError(ln, f"off-diagonal order must be at least 2, got {m}")
        key = (min(i, j), max(i, j))
        if key in assigned and assigned[key][0] != m:
            raise ParseError(
                ln, f"conflicting orders for pair ({a}, {b}): "
                    f"{assigned[key][0]} on line {assigned[key][1]}, now {m}")
        assigned[key] = (m, ln)
    if names is None:
        raise ParseError(0, "empty group definition")
    return CoxeterSystem.from_pairs(
        names, {(names[i], names[j]): m for (i, j), (m, _) in assigned.items()})
