"""Exact arithmetic in the real cyclotomic field Q(2cos(pi/N)).

Every structure constant of a Coxeter geometric representation lies in the
field generated by theta = 2cos(pi/N), where N is a common multiple of the
finite Coxeter matrix orders.  Field elements are coefficient vectors over
the rationals, reduced modulo the minimal polynomial psi of theta, so
equality is coefficientwise.

Signs are decided in integers.  Each field of degree >= 2 holds, once, a
table of fixed-point enclosures lo_i <= theta^i * 2^64 <= lo_i + w_i, taken
from a dyadic enclosure of theta narrowed by integer bisection on psi.  For
an integer vector a, S = sum a_i*lo_i is within slack = sum |a_i|*w_i of
a(theta) * 2^64, so S > slack proves a(theta) > 0 and S < -slack proves
a(theta) < 0.  Each w_i is about 1 + i * theta^(i-1) * 2^-64, so at low
degree the filter decides every value with |a(theta)| above about
2^-63 * sum |a_i|.  Only the rest fall back to exact bisection of the
interval for theta, with the value bounded by integer interval
arithmetic; it always terminates, because the bounds close in on a
nonzero value.  The interval for theta is dyadic, held as integers
(lo, hi, k) for [lo/2^k, hi/2^k].  Floating point is used once, to seed
it, and never in a decision.

A field element is a plain tuple of ints (a "raw" vector): every library
value is an integer vector.  A vector over the field, such as a root, is
one flat tuple of blocks of `degree` ints, one block per coordinate (see
core); `scale` multiplies such a vector by a field element in one pass.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from operator import add, mul, neg, sub

from .errors import FieldMismatchError, InvariantViolation, ResourceLimitError

# Coxeter matrix entry m_st = infinity.  A distinguished marker, never a
# large integer; the only arithmetic done with it is equality testing.
INF = math.inf

Raw = tuple  # coefficient vector of ints, length = field degree

# The sign filter holds theta^i * 2^_FILTER_BITS rounded outward to
# integers, from an enclosure of theta of width 2^-_THETA_BITS.  The extra
# bits of theta keep the relative error of theta^i, about
# i * 2^-_THETA_BITS, far below that of the rounding at any degree.
_FILTER_BITS = 64
_THETA_BITS = 128

# field_for refuses a larger field before any arithmetic: degree 960
# (orders 11, 13, 17) ran for minutes, degree 240 (7, 8, 11) takes seconds.
MAX_FIELD_DEGREE = 256


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n) if n % d == 0]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Long division by a monic integer polynomial; remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num[:dd]):
        raise InvariantViolation("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        poly = _poly_div_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _pk_polys(top: int) -> list[tuple[int, ...]]:
    """Polynomials p_k with x^k + x^-k = p_k(x + 1/x), for k = 0..top.

    p_0 = 2, p_1 = y, p_{k+1} = y*p_k - p_{k-1}.
    """
    polys = [(2,), (0, 1)]
    while len(polys) <= top:
        prev, cur = polys[-2], polys[-1]
        nxt = [0] + list(cur)
        for i, c in enumerate(prev):
            nxt[i] -= c
        polys.append(tuple(nxt))
    return polys[: top + 1]


def _psi_sign(psi: tuple[int, ...], num: int, k: int) -> int:
    """Sign of psi(num / 2^k), from the integer psi(num / 2^k) * 2^(k*deg)."""
    acc = psi[-1]
    shift = 0
    for c in reversed(psi[:-1]):
        shift += k
        acc = acc * num + (c << shift)
    return (acc > 0) - (acc < 0)


def _interval_eval(coeffs: Raw, lo: int, hi: int, k: int):
    """Bounds vlo <= a(x) * 2^(k*(deg-1)) <= vhi for all x in
    [lo/2^k, hi/2^k], where 0 < lo and a has integer coefficients.

    Horner with interval arithmetic on integers.  Since x > 0, a lower
    bound is multiplied by the low end when it is nonnegative and by the
    high end otherwise, and an upper bound the other way round.
    """
    vlo = vhi = coeffs[-1]
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += k
        vlo = vlo * (lo if vlo >= 0 else hi) + (c << shift)
        vhi = vhi * (hi if vhi >= 0 else lo) + (c << shift)
    return vlo, vhi


class CycloField:
    """The field Q(theta) with theta = 2cos(pi/n); n == 1 encodes Q itself."""

    __slots__ = ("n", "degree", "psi", "theta", "zero", "one", "two",
                 "_pows", "_iso", "_filter", "_two_cos")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = n
        if n == 1:
            # theta = 2cos(pi) = -2 is rational; scalars are plain rationals.
            psi = (2, 1)
        else:
            phi = _cyclotomic(2 * n)
            d = (len(phi) - 1) // 2
            if phi != phi[::-1]:
                raise InvariantViolation("cyclotomic polynomial not palindromic")
            pk = _pk_polys(d)
            acc = [0] * (d + 1)
            acc[0] = phi[d]
            for k in range(1, d + 1):
                c = phi[d + k]
                if c:
                    for i, pc in enumerate(pk[k]):
                        acc[i] += c * pc
            psi = tuple(acc)
        if psi[-1] != 1:
            raise InvariantViolation("minimal polynomial is not monic")
        self.psi = psi
        d = len(psi) - 1
        self.degree = d

        # theta^k reduced mod psi, for k = 0 .. 2d-2 (what a product needs).
        pows: list[Raw] = []
        for k in range(d):
            pows.append(tuple(1 if i == k else 0 for i in range(d)))
        top = tuple(-c for c in psi[:d])  # theta^d
        cur = top
        pows.append(cur)
        while len(pows) < 2 * d - 1:
            shifted = [0] + list(cur[: d - 1])
            lead = cur[d - 1]
            if lead:
                for i in range(d):
                    shifted[i] += lead * top[i]
            cur = tuple(shifted)
            pows.append(cur)
        self._pows = tuple(pows)

        self.zero = (0,) * d
        self.one = tuple(1 if i == 0 else 0 for i in range(d))
        self.two = tuple(2 if i == 0 else 0 for i in range(d))
        self.theta = pows[1] if d >= 2 else (top[0],)

        # Isolating interval [lo/2^k, hi/2^k] for theta as the largest real
        # root of psi: seeded from a float estimate, then certified by a
        # sign change.
        if n == 1:
            iso = (-3, -1, 0)
        else:
            k = 20
            iso = (math.floor(2 * math.cos(math.pi / n) * 2**k) - 1, 2 << k, k)
        lo, hi, k = iso
        if not (_psi_sign(psi, lo, k) < 0 < _psi_sign(psi, hi, k)):
            raise InvariantViolation("isolating interval failed its sign check")
        self._iso = iso
        self._filter = None

        # p_k(theta) = 2cos(pi/m) for each order m = n/k, kept from the one
        # chain that reaches the sanity anchor p_n(theta) = 2cos(pi) = -2.
        chain = enumerate(islice(self._chebyshev(), n + 1))
        self._two_cos = {n // k: p for k, p in chain if k and n % k == 0}
        if self.raw_add(self._two_cos[1], self.two) != self.zero:
            raise InvariantViolation("p_n(theta) + 2 != 0")

    # ----- raw vector arithmetic -------------------------------------

    def raw_from_rational(self, q) -> Raw:
        return (q,) + (0,) * (self.degree - 1)

    def raw_add(self, a: Raw, b: Raw) -> Raw:
        return tuple(map(add, a, b))

    def raw_sub(self, a: Raw, b: Raw) -> Raw:
        return tuple(map(sub, a, b))

    def raw_neg(self, a: Raw) -> Raw:
        return tuple(map(neg, a))

    def raw_mul(self, a: Raw, b: Raw) -> Raw:
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:d]
        pows = self._pows
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                row = pows[k]
                for i in range(d):
                    ri = row[i]
                    if ri:
                        out[i] += ck * ri
        return tuple(out)

    def scale(self, c: Raw, vec: tuple) -> tuple:
        """c·vec for a flat vector: each block of `degree` ints is one
        coordinate, multiplied by c.  One is the identity."""
        if c == self.one:
            return vec
        d, zero, out = self.degree, self.zero, []
        for i in range(0, len(vec), d):
            block = vec[i:i + d]
            out += self.raw_mul(c, block) if any(block) else zero
        return tuple(out)

    def _chebyshev(self):
        """p_0(theta), p_1(theta), ... by p_{j+1} = theta·p_j - p_{j-1},
        from p_{-1} = p_1 = theta."""
        prev, cur = self.theta, self.two
        while True:
            yield cur
            prev, cur = cur, self.raw_sub(self.raw_mul(self.theta, cur), prev)

    def raw_pk(self, k: int) -> Raw:
        """p_k(theta): the value 2cos(k*pi/n) when k <= n."""
        return next(islice(self._chebyshev(), k, None))

    def _build_filter(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The sign filter's table: (lo_i), (w_i) with
        lo_i <= theta^i * 2^_FILTER_BITS <= lo_i + w_i for i < degree.

        theta > 0 here (degree >= 2 means n >= 4), so L/2^q <= theta <= H/2^q
        gives L^i/2^(qi) <= theta^i <= H^i/2^(qi).  The enclosure starts from
        the certified isolating interval and is narrowed by integer
        bisection on psi; it also replaces that interval, so the exact
        fallback starts from it.
        """
        q, p = _THETA_BITS, _FILTER_BITS
        psi = self.psi
        lo, hi, k = self._iso
        low, high = lo << (q - k), hi << (q - k)
        while high - low > 1:
            mid = (low + high) >> 1
            # psi(mid / 2^q) != 0: psi is irreducible of degree >= 2.
            if _psi_sign(psi, mid, q) > 0:
                high = mid
            else:
                low = mid
        self._iso = (low, high, q)
        los, ws = [], []
        lpow = hpow = 1
        for i in range(self.degree):
            lo_i = (lpow << p) >> (q * i)
            hi_i = -((-hpow << p) >> (q * i))
            los.append(lo_i)
            ws.append(hi_i - lo_i)
            lpow *= low
            hpow *= high
        self._filter = (tuple(los), tuple(ws))
        return self._filter

    def raw_sign(self, a: Raw) -> int:
        """The sign of a(theta): -1, 0 or 1."""
        if not any(a):
            return 0
        if self.degree == 1:
            # The filter table assumes theta > 0; over Q, theta is -2.
            c = a[0]
            return 1 if c > 0 else -1
        los, ws = self._filter or self._build_filter()
        est = sum(map(mul, a, los))
        slack = sum(map(mul, map(abs, a), ws))
        if est > slack:
            return 1
        if est < -slack:
            return -1
        # Exact fallback: bisect the cached interval for theta until the
        # interval value of a excludes 0, and keep the narrower interval.
        lo, hi, k = self._iso
        psi = self.psi
        while True:
            vlo, vhi = _interval_eval(a, lo, hi, k)
            if vlo > 0 or vhi < 0:
                self._iso = (lo, hi, k)
                return 1 if vlo > 0 else -1
            # One more bit: the midpoint is lo + hi over 2^(k+1).
            mid, k = lo + hi, k + 1
            # psi(lo) < 0 < psi(hi) throughout; a positive value at mid
            # puts theta in the left half.  psi(mid) != 0 since psi is
            # irreducible of degree >= 2.
            if _psi_sign(psi, mid, k) > 0:
                lo, hi = lo << 1, mid
            else:
                lo, hi = mid, hi << 1

    def two_cos_raw(self, m) -> Raw:
        """2cos(pi/m) as a raw vector; m = INF gives 2."""
        if m == INF:
            return self.two
        m = int(m)
        if m in self._two_cos:
            return self._two_cos[m]
        if self.n == 1:
            known = {2: 0, 3: 1}
            if m not in known:
                raise FieldMismatchError(
                    f"2cos(pi/{m}) is irrational; the rational field cannot hold it")
            return self.raw_from_rational(known[m])
        raise FieldMismatchError(
            f"order {m} does not divide {self.n}; wrong field")

    def __repr__(self) -> str:
        if self.n == 1:
            return "CycloField(Q)"
        return f"CycloField(Q(2cos(pi/{self.n})), degree {self.degree})"


_FIELDS: dict[int, CycloField] = {}


def _field(n: int) -> CycloField:
    if n not in _FIELDS:
        _FIELDS[n] = CycloField(n)
    return _FIELDS[n]


def field_for(orders) -> CycloField:
    """Smallest-N field of this package holding 2cos(pi/m) for every order.

    `orders` is an iterable of off-diagonal Coxeter matrix entries (ints
    >= 2 or INF).  Orders 2 and 3 have rational cosines, so if nothing
    larger appears the field is Q itself; otherwise N is the lcm of all
    finite orders.
    """
    finite = sorted({int(m) for m in orders if m != INF})
    if any(m < 2 for m in finite):
        raise ValueError("off-diagonal orders must be at least 2")
    if not finite or max(finite) <= 3:
        return _field(1)
    n = math.lcm(*finite)
    # The degree is phi(2n)/2 >= sqrt(n)/2, so a larger n is over the cap
    # without factoring it.
    degree = _totient(2 * n) // 2 if n <= 4 * MAX_FIELD_DEGREE ** 2 else None
    if degree is None or degree > MAX_FIELD_DEGREE:
        raise ResourceLimitError(
            f"field Q(2cos(pi/{n})) has degree "
            f"{degree or f'above {MAX_FIELD_DEGREE}'}, over the cap "
            f"MAX_FIELD_DEGREE = {MAX_FIELD_DEGREE}")
    return _field(n)


def _totient(m: int) -> int:
    out, p = m, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out
