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

An element carries both its matrix and the matrix of its inverse, which
keeps left- and right-descent reads cheap and avoids matrix inversion.
Generator matrices differ from the identity only in one row, so one-sided
multiplication by a generator costs O(n^2) instead of O(n^3).  Every
product the library forms is such a generator step: g·u is `mul_word(g,
nf(u))`, and coset questions compare residue gates instead of forming
g⁻¹·x.  The dense `_mat_mul` is their test oracle.

Elements are interned: a system hands out one Element per group element,
keyed by its matrix.  So what an element memoises serves every caller:
normal form, descent sets (shared per system), wall set, descent data
(T, w, Pi), and generator steps.  `mul_gen(g, s)` stores g·s on g and g
on g·s, and `gen_mul` likewise on the left, so a repeated step is a
lookup.  Equality and hashing read the matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InfiniteParabolicError, InvariantViolation, ParseError,
                     PreconditionError, ResourceLimitError,
                     SystemMismatchError)
from .scalar import INF, field_for

Word = tuple[int, ...]

DEFAULT_BALL_CAP = 10**6
DEFAULT_ORACLE_LETTERS = 10
DEFAULT_CLOSURE_CAP = 200_000


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric order table: 1 on the diagonal, ints >= 2 or INF off it."""

    names: tuple[str, ...]
    orders: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        n = len(self.names)
        if len(set(self.names)) != n:
            raise InvariantViolation("generator names must be distinct")
        if len(self.orders) != n or any(len(row) != n for row in self.orders):
            raise InvariantViolation("order table has the wrong shape")
        for i in range(n):
            if self.orders[i][i] != 1:
                raise InvariantViolation("diagonal orders must equal 1")
            for j in range(i + 1, n):
                m = self.orders[i][j]
                if m != self.orders[j][i]:
                    raise InvariantViolation("order table must be symmetric")
                if m != INF and (not isinstance(m, int) or m < 2):
                    raise InvariantViolation("off-diagonal orders must be >= 2 or INF")

    @property
    def n(self) -> int:
        return len(self.names)

    def order(self, i: int, j: int):
        return self.orders[i][j]

    def finite_orders(self) -> list[int]:
        n = self.n
        return [self.orders[i][j] for i in range(n) for j in range(i + 1, n)
                if self.orders[i][j] != INF]


def word_str(names, word: Word) -> str:
    """A word as text: "e" if empty, letters joined by spaces unless all
    generator names are one character long."""
    if not word:
        return "e"
    if all(len(nm) == 1 for nm in names):
        return "".join(names[s] for s in word)
    return " ".join(names[s] for s in word)


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


def _alt(a: int, b: int, length: int) -> Word:
    return tuple(a if k % 2 == 0 else b for k in range(length))


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

        zero, fone = field.zero, field.one
        self._id_mat = tuple(
            tuple(fone if i == j else zero for j in range(n)) for i in range(n))
        self._elements: dict[tuple, Element] = {}
        self._descent_sets: dict[frozenset, frozenset] = {}
        self._identity = self._element(self._id_mat, self._id_mat)
        self._identity._nf = ()
        self._gens = tuple(self.mul_gen(self._identity, s) for s in range(n))

        for s in range(n):
            g = self._gens[s]
            if self._gen_rmul(g.mat, s) != self._id_mat:
                raise InvariantViolation("generator matrix is not an involution")

        self._index = {name: i for i, name in enumerate(matrix.names)}
        self._w0_cache: dict[frozenset, Element] = {}
        self._finite_cache: dict[frozenset, bool] = {}
        self._closure_cache: dict[Word, tuple[Word, ...]] = {}
        self._root_descent_cache: dict[tuple, tuple[Word, int]] = {}
        self._residue_walls_cache: dict[frozenset, frozenset] = {}
        self._two_dim: bool | None = None

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
        """mat @ sigma_s: negate column s, add multiples of it elsewhere."""
        nbrs = self._nbrs[s]
        mul, add = self.field.raw_mul, self.field.raw_add
        rows = []
        for row in mat:
            rs = row[s]
            if any(rs):
                new = list(row)
                new[s] = self.field.raw_neg(rs)
                for t, c in nbrs:
                    new[t] = add(row[t], mul(c, rs))
                rows.append(tuple(new))
            else:
                rows.append(row)
        return tuple(rows)

    def _gen_lmul(self, s: int, mat):
        """sigma_s @ mat: row s becomes -row_s + sum of c2 * neighbour rows."""
        mul, add = self.field.raw_mul, self.field.raw_add
        new_row = [self.field.raw_neg(x) for x in mat[s]]
        for t, c in self._nbrs[s]:
            row_t = mat[t]
            for j in range(self.n):
                if any(row_t[j]):
                    new_row[j] = add(new_row[j], mul(c, row_t[j]))
        return tuple(tuple(new_row) if i == s else mat[i]
                     for i in range(self.n))

    def _mat_mul(self, a, b):
        n = self.n
        mul, add = self.field.raw_mul, self.field.raw_add
        zero = self.field.zero
        out = []
        for i in range(n):
            arow = a[i]
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    x = arow[k]
                    if any(x):
                        y = b[k][j]
                        if any(y):
                            acc = add(acc, mul(x, y))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def apply(self, mat, vec):
        """mat @ vec for a raw coefficient vector."""
        mul, add = self.field.raw_mul, self.field.raw_add
        zero = self.field.zero
        out = []
        for row in mat:
            acc = zero
            for x, v in zip(row, vec):
                if any(x) and any(v):
                    acc = add(acc, mul(x, v))
            out.append(acc)
        return tuple(out)

    def bform_dot(self, s: int, vec):
        """2B(a_s, vec), twice the bilinear form, as a raw value."""
        mul, add = self.field.raw_mul, self.field.raw_add
        acc = self.field.zero
        for x, v in zip(self._bform[s], vec):
            if any(x) and any(v):
                acc = add(acc, mul(x, v))
        return acc

    def bilinear(self, u, v):
        """2B(u, v), twice the bilinear form, as a raw value."""
        mul, add = self.field.raw_mul, self.field.raw_add
        acc = self.field.zero
        for i, ui in enumerate(u):
            if any(ui):
                acc = add(acc, mul(ui, self.bform_dot(i, v)))
        # B rows are symmetric, so folding through bform_dot is exact.
        return acc

    def root_sign(self, vec) -> int:
        """+1 for a positive root, -1 for a negative one; mixed signs are a bug."""
        sign = self.field.raw_sign
        pos = neg = False
        for x in vec:
            s = sign(x)
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
        if pos and neg:
            raise InvariantViolation("root vector has mixed coordinate signs")
        if not (pos or neg):
            raise InvariantViolation("root vector is zero")
        return 1 if pos else -1

    def _descents(self, mat) -> frozenset:
        """The s whose column of mat is a negative root, as a frozenset
        shared by every element with these descents."""
        fs = frozenset(s for s in range(self.n)
                       if self.root_sign(tuple(row[s] for row in mat)) < 0)
        return self._descent_sets.setdefault(fs, fs)

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

    def _element(self, mat, inv) -> "Element":
        """The one Element with this matrix, made on first sight."""
        el = self._elements.get(mat)
        if el is None:
            el = self._elements[mat] = Element(self, mat, inv)
        return el

    def mul_word(self, g: "Element", word) -> "Element":
        """g times the element of a word, one generator step per letter."""
        for s in word:
            g = self.mul_gen(g, s)
        return g

    def mul_gen(self, g: "Element", s: int) -> "Element":
        """g * s: the O(n^2) kernel once, kept on g, and g kept on g·s."""
        if not 0 <= s < self.n:
            raise PreconditionError(f"letter {s} out of range")
        h = g._steps[s]
        if h is None:
            h = g._steps[s] = self._element(self._gen_rmul(g.mat, s),
                                            self._gen_lmul(s, g.inv))
            h._steps[s] = g
        return h

    def gen_mul(self, s: int, g: "Element") -> "Element":
        """s * g, memoised as in mul_gen, in the left-step slots."""
        if not 0 <= s < self.n:
            raise PreconditionError(f"letter {s} out of range")
        k = self.n + s
        h = g._steps[k]
        if h is None:
            h = g._steps[k] = self._element(self._gen_lmul(s, g.mat),
                                            self._gen_rmul(g.inv, s))
            h._steps[k] = g
        return h

    # ----- structure ------------------------------------------------------

    def is_two_dimensional(self) -> bool:
        """True iff every triple of generators spans an infinite parabolic,
        i.e. 1/m_st + 1/m_sr + 1/m_tr <= 1 for all triples."""
        if self._two_dim is None:
            ok = True
            for i, j, k in itertools.combinations(range(self.n), 3):
                total = Fraction(0)
                for a, b in ((i, j), (i, k), (j, k)):
                    m = self.matrix.orders[a][b]
                    if m != INF:
                        total += Fraction(1, m)
                if total > 1:
                    ok = False
                    break
            self._two_dim = ok
        return self._two_dim

    def is_finite_parabolic(self, T) -> bool:
        """Whether <T> is finite, by Coxeter diagram classification."""
        T = frozenset(T)
        if T not in self._finite_cache:
            self._finite_cache[T] = self._classify_finite(T)
        return self._finite_cache[T]

    def _classify_finite(self, T: frozenset) -> bool:
        orders = self.matrix.orders
        verts = sorted(T)
        for a, b in itertools.combinations(verts, 2):
            if orders[a][b] == INF:
                return False
        # connected components of the diagram (edges where m >= 3)
        adj = {v: [u for u in verts if u != v and orders[v][u] >= 3] for v in verts}
        seen = set()
        for v in verts:
            if v in seen:
                continue
            comp = []
            stack = [v]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                comp.append(x)
                stack.extend(adj[x])
            if not _finite_component(comp, adj, orders):
                return False
        return True

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
        return self.residue_gate(x, T) == self.residue_gate(g, T)

    # ----- enumeration ----------------------------------------------------

    def ball(self, radius: int, max_elements: int = DEFAULT_BALL_CAP) -> list["Element"]:
        """All elements of length <= radius, in (length, ShortLex) order."""
        return self._closure(range(self.n), radius, max_elements)

    def parabolic_elements(self, T, max_elements: int = DEFAULT_BALL_CAP) -> list["Element"]:
        """All elements of <T>; raises ResourceLimitError if the cap trips."""
        return self._closure(sorted(T), None, max_elements)

    def _closure(self, gens, radius, max_elements) -> list["Element"]:
        gens = tuple(gens)
        out = [self._identity]
        current = [self._identity]
        level = 0
        while current and (radius is None or level < radius):
            level += 1
            candidates = []
            for g in current:
                rd = g.right_descents()
                for s in gens:
                    if s not in rd:
                        candidates.append((g.nf + (s,), g, s))
            candidates.sort(key=lambda c: c[0])
            nxt = []
            for word, g, s in candidates:
                el = self.mul_gen(g, s)
                # The least of the candidate words for el is its normal
                # form; every other one is a repeat.
                if el._nf is None:
                    el._nf = word
                elif el._nf != word:
                    continue
                nxt.append(el)
                out.append(el)
                if len(out) > max_elements:
                    raise ResourceLimitError(
                        f"element enumeration exceeded cap {max_elements}")
            current = nxt
        return out

    # ----- rewriting oracle -------------------------------------------------

    def braid_closure(self, word, max_words: int = DEFAULT_CLOSURE_CAP) -> frozenset:
        """All words reachable from `word` by braid moves alone."""
        w0 = tuple(word)
        cached = self._closure_cache.get(w0)
        if cached is not None:
            return frozenset(cached)
        orders = self.matrix.orders
        seen = {w0}
        queue = [w0]
        while queue:
            u = queue.pop()
            L = len(u)
            for i in range(L - 1):
                a, b = u[i], u[i + 1]
                if a == b:
                    continue
                m = orders[a][b]
                if m == INF or i + m > L:
                    continue
                if u[i:i + m] == _alt(a, b, m):
                    v = u[:i] + _alt(b, a, m) + u[i + m:]
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
                        if len(seen) > max_words:
                            raise ResourceLimitError("braid closure exceeded cap")
        if len(w0) <= 12:
            self._closure_cache[w0] = tuple(seen)
        return frozenset(seen)

    def tits_reduce(self, word, max_letters: int = DEFAULT_ORACLE_LETTERS) -> Word:
        """A geodesic word for the element of `word`, by exhaustive rewriting.

        Alternates braid-move closure with deletion of adjacent equal
        letters until no deletion applies; returns the lexicographically
        least word of the final closure.  Independent of the geometric
        representation, so it serves as a length oracle in the tests.
        """
        w = tuple(word)
        if len(w) > max_letters:
            raise ResourceLimitError(
                f"oracle word length {len(w)} exceeds cap {max_letters}")
        for s in w:
            if not 0 <= s < self.n:
                raise PreconditionError(f"letter {s} out of range")
        while True:
            i = _first_repeat(w)
            if i is not None:
                w = w[:i] + w[i + 2:]
                continue
            closure = self.braid_closure(w)
            shorter = None
            for u in sorted(closure):
                j = _first_repeat(u)
                if j is not None:
                    shorter = u[:j] + u[j + 2:]
                    break
            if shorter is None:
                return min(closure) if closure else ()
            w = shorter

    def __repr__(self) -> str:
        return f"CoxeterSystem({', '.join(self.matrix.names)})"


def _first_repeat(w: Word):
    for i in range(len(w) - 1):
        if w[i] == w[i + 1]:
            return i
    return None


def _finite_component(comp, adj, orders) -> bool:
    """Classify one connected diagram component against the finite catalog:
    A, B/C, D, E6, E7, E8, F4, H3, H4, and the dihedral I2(m)."""
    r = len(comp)
    if r == 1:
        return True
    if r == 2:
        return True  # any finite label; INF was rejected earlier
    edges = [(a, b) for a, b in itertools.combinations(sorted(comp), 2)
             if orders[a][b] >= 3]
    if len(edges) != r - 1:
        return False  # a cycle: affine or worse
    labels = sorted(orders[a][b] for a, b in edges if orders[a][b] >= 4)
    if labels and labels[-1] >= 6:
        return False
    if len(labels) >= 2:
        return False
    deg = {v: len(adj[v]) for v in comp}
    if max(deg.values()) >= 4:
        return False
    branch = [v for v in comp if deg[v] == 3]
    if not labels:
        if not branch:
            return True  # type A path
        if len(branch) > 1:
            return False
        arms = sorted(_arm_lengths(branch[0], adj))
        if arms[0] == 1 and arms[1] == 1:
            return True  # type D
        return arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4])  # E6, E7, E8
    # exactly one label 4 or 5, which forces a path
    if branch:
        return False
    label = labels[0]
    (a, b), = [(a, b) for a, b in edges if orders[a][b] == label]
    at_end = deg[a] == 1 or deg[b] == 1
    if label == 4:
        if at_end:
            return True  # type B
        return r == 4  # F4 is the only interior-4 path
    # label == 5
    return at_end and r in (3, 4)  # H3, H4


def _arm_lengths(center, adj) -> list[int]:
    arms = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while True:
            nxts = [u for u in adj[cur] if u != prev]
            if not nxts:
                break
            if len(nxts) > 1:
                # second branch point: caller rejects via branch count
                break
            prev, cur = cur, nxts[0]
            length += 1
        arms.append(length)
    return arms


class Element:
    """A group element: exact matrix pair (g, g^-1) plus memoised data.

    Made only by `CoxeterSystem._element`.  `_steps[s]` is g·s and
    `_steps[n + s]` is s·g, once taken; `_descent` is (T, w, Pi).
    """

    __slots__ = ("system", "mat", "inv", "_nf", "_rdesc", "_ldesc",
                 "_wall_set", "_steps", "_descent")

    def __init__(self, system: CoxeterSystem, mat, inv):
        self.system = system
        self.mat = mat
        self.inv = inv
        self._nf = None
        self._rdesc = None
        self._ldesc = None
        self._wall_set = None
        self._steps = [None] * (2 * system.n)
        self._descent = None

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if other.system is not self.system:
            raise SystemMismatchError("elements of different systems")
        return self.system.mul_word(self, other.nf)

    def inverse(self) -> "Element":
        return self.system._element(self.inv, self.mat)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.system is other.system and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def is_identity(self) -> bool:
        return self.mat == self.system._id_mat

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
