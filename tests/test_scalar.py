"""Exact arithmetic in Q(2cos(pi/N)).

The independent reference for signs is mpmath interval-free evaluation at
100 digits; a nonzero integer combination of theta powers with moderate
coefficients cannot be that small, so a sign disagreement would be a real
bug, not a precision artifact.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxlang import scalar
from coxlang.core import INF
from coxlang.errors import FieldMismatchError, ResourceLimitError
from coxlang.scalar import CycloField, Scalar, _field, field_for, two_cos


def test_minimal_polynomials():
    assert CycloField(1).psi == (2, 1)
    assert CycloField(4).psi == (-2, 0, 1)
    assert CycloField(5).psi == (-1, -1, 1)
    assert CycloField(6).psi == (-3, 0, 1)
    assert CycloField(12).psi == (1, 0, -4, 0, 1)
    assert CycloField(12).degree == 4


def test_field_selection():
    assert field_for([2, 3]).n == 1
    assert field_for([INF]).n == 1
    assert field_for([]).n == 1
    assert field_for([2, 4]).n == 4
    assert field_for([2, 4, 4, INF]).n == 4
    assert field_for([3, 5]).n == 15
    assert field_for([2, 3, 4]).n == 12
    with pytest.raises(ValueError):
        field_for([1, 2])


def test_field_degree_cap():
    # field_for reads the degree as phi(2N)/2 before building the field.
    for n in range(2, 61):
        assert scalar._totient(2 * n) // 2 == _field(n).degree
    assert scalar.MAX_FIELD_DEGREE == 256
    with pytest.raises(ResourceLimitError, match="degree 960"):
        field_for([11, 13, 17])
    with pytest.raises(ResourceLimitError, match="above 256"):
        field_for([2, 10**9 + 7])


def test_two_cos_rational_values():
    q = _field(1)
    assert two_cos(q, 2) == q.scalar(0)
    assert two_cos(q, 3) == q.scalar(1)
    assert two_cos(q, 1) == q.scalar(-2)
    assert two_cos(q, INF) == q.scalar(2)
    with pytest.raises(FieldMismatchError):
        two_cos(q, 4)


def test_two_cos_algebraic_values():
    f4 = _field(4)
    root2 = f4.theta_scalar()
    assert two_cos(f4, 4) == root2
    assert root2 * root2 == f4.scalar(2)
    with pytest.raises(FieldMismatchError):
        two_cos(f4, 3)

    f12 = _field(12)
    # 2cos(pi/6) = sqrt(3), 2cos(pi/4) = sqrt(2), 2cos(pi/3) = 1
    assert two_cos(f12, 6) * two_cos(f12, 6) == f12.scalar(3)
    assert two_cos(f12, 4) * two_cos(f12, 4) == f12.scalar(2)
    assert two_cos(f12, 3) == f12.scalar(1)
    assert two_cos(f12, 2) == f12.scalar(0)


def test_golden_ratio_identity():
    f5 = _field(5)
    phi = two_cos(f5, 5)
    assert phi * phi - phi - f5.scalar(1) == f5.scalar(0)
    assert (phi * phi - phi - f5.scalar(1)).is_zero()


def test_pk_values_match_cosines():
    # p_k(theta) = 2cos(k pi / 12): check against closed forms.
    f12 = _field(12)
    theta = f12.theta
    sq = f12.raw_mul(theta, theta)
    assert f12.raw_pk(2) == f12.raw_sub(sq, f12.two)
    assert f12.raw_pk(12) == f12.raw_from_rational(-2)
    assert f12.raw_pk(6) == f12.raw_from_rational(0)
    assert f12.raw_pk(4) == f12.raw_from_rational(1)


def test_adversarial_near_zero_signs():
    f5 = _field(5)
    phi = two_cos(f5, 5)  # 1.6180...
    assert (phi - f5.scalar(Fraction(8, 5))).sign() == 1
    assert (phi - f5.scalar(Fraction(81, 50))).sign() == -1
    assert (phi - f5.scalar(Fraction(1618033988749894848, 10**18))).sign() == 1
    f12 = _field(12)
    theta = f12.theta_scalar()
    quartic = theta * theta * theta * theta - f12.scalar(4) * theta * theta
    assert (quartic + f12.scalar(1)).sign() == 0
    assert (quartic + f12.scalar(1 + Fraction(1, 10**30))).sign() == 1
    assert (quartic + f12.scalar(1 - Fraction(1, 10**30))).sign() == -1


def _mp_value(field, coeffs):
    """The value of a raw vector at theta, with 100 significant digits."""
    with mpmath.workdps(100):
        theta = 2 * mpmath.cos(mpmath.pi / field.n)
        return sum(mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
                   * theta**i for i, c in enumerate(coeffs))


def _convergents(x, max_q):
    """Continued-fraction convergents p/q of x with q <= max_q."""
    out = []
    h0, h1, k0, k1 = 0, 1, 1, 0
    with mpmath.workdps(100):
        while True:
            a = int(mpmath.floor(x))
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
            if k1 > max_q:
                return out
            out.append((h1, k1))
            x = 1 / (x - a)


def _near_zero_pairs(field):
    """Pairs (x, y) of field elements with an irrational ratio: powers
    theta^k against 1, and p_1(theta) against p_2(theta)."""
    one = field.scalar(1)
    pairs = []
    power = one
    for _ in range(1, field.degree):
        power = power * field.theta_scalar()
        pairs.append((power, one))
    if field.degree > 2:
        pairs.append((Scalar(field, field.raw_pk(1)),
                      Scalar(field, field.raw_pk(2))))
    return pairs


@pytest.mark.parametrize("n", [4, 5, 12, 30, 504])
def test_filter_table_encloses_theta_powers(n):
    field = CycloField(n)
    los, ws = field._build_filter()
    assert len(los) == len(ws) == field.degree
    with mpmath.workdps(150):
        theta = 2 * mpmath.cos(mpmath.pi / n)
        for i, (lo, w) in enumerate(zip(los, ws)):
            scaled = theta**i * 2**64
            assert lo <= scaled <= lo + w
            # Rounding, plus the spread of theta^i over a 2^-128 interval.
            assert w <= 2 + i * theta**i * mpmath.mpf(2) ** -63
        lo, hi = field._iso
        assert hi - lo == Fraction(1, 2**128)
        assert lo.numerator / mpmath.mpf(lo.denominator) < theta
        assert theta < hi.numerator / mpmath.mpf(hi.denominator)


@pytest.mark.parametrize("n", [4, 5, 12, 30])
def test_signs_past_the_filter_match_mpmath(n, monkeypatch):
    """q*x - p*y for convergents p/q of x/y is nonzero and within about
    1/q of 0.  With q > 2^40 its coefficients are so much larger than its
    value that the 64-bit filter cannot decide it, so the exact fallback
    must; with q < 2^20 the filter decides alone.  Fraction multiples of
    the same values take the same path."""
    calls = []
    real = scalar._interval_eval
    monkeypatch.setattr(scalar, "_interval_eval",
                        lambda *args: calls.append(1) or real(*args))
    field = _field(n)
    checked = 0
    for x, y in _near_zero_pairs(field):
        with mpmath.workdps(100):
            ratio = _mp_value(field, x.coeffs) / _mp_value(field, y.coeffs)
        for p, q in _convergents(ratio, 10**30):
            if 2**20 <= q <= 2**40:
                continue
            for value in (q * x - p * y,
                          Fraction(q, 7) * x - Fraction(p, 7) * y,
                          x - Fraction(p, q) * y):
                ref = _mp_value(field, value.coeffs)
                # 100 digits resolve it: its terms are below 10^30.
                assert abs(ref) > mpmath.mpf(10) ** -65
                before = len(calls)
                assert value.sign() == (1 if ref > 0 else -1)
                assert (len(calls) > before) == (q > 2**40)
                checked += 1
    assert checked >= 12


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=97)


@given(rationals, rationals)
def test_rational_embedding_is_a_homomorphism(a, b):
    for field in (_field(1), _field(5)):
        sa, sb = field.scalar(a), field.scalar(b)
        assert sa + sb == field.scalar(a + b)
        assert sa * sb == field.scalar(a * b)
        assert sa - sb == field.scalar(a - b)
        assert sa.sign() == (a > 0) - (a < 0)


coeffs12 = st.tuples(*([st.integers(min_value=-50, max_value=50)] * 4))


@given(coeffs12, coeffs12, coeffs12)
def test_ring_axioms(xc, yc, zc):
    f = _field(12)
    x, y, z = f.from_coeffs(xc), f.from_coeffs(yc), f.from_coeffs(zc)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == f.scalar(0)
    assert (-x).sign() == -x.sign()


@given(coeffs12)
def test_sign_matches_high_precision_float(c):
    f = _field(12)
    x = f.from_coeffs(c)
    with mpmath.workdps(100):
        theta = 2 * mpmath.cos(mpmath.pi / 12)
        val = sum(int(ci) * theta**i for i, ci in enumerate(c))
        float_sign = 0 if abs(val) < mpmath.mpf(10) ** -60 else (1 if val > 0 else -1)
    assert x.sign() == float_sign


def test_chebyshev_recurrence_against_floats():
    f = _field(30)
    with mpmath.workdps(60):
        theta = 2 * mpmath.cos(mpmath.pi / 30)
        for k in range(0, 31):
            got = f.raw_pk(k)
            val = sum(mpmath.mpf(str(Fraction(ci))) * theta**i
                      for i, ci in enumerate(got))
            want = 2 * mpmath.cos(k * mpmath.pi / 30)
            assert abs(val - want) < mpmath.mpf(10) ** -40


def test_field_mismatch_between_fields():
    a = _field(4).theta_scalar()
    b = _field(5).theta_scalar()
    with pytest.raises(FieldMismatchError):
        _ = a + b
    with pytest.raises(FieldMismatchError):
        _field(5).from_coeffs((1, 2, 3))


def test_scalar_hash_consistency():
    f = _field(5)
    phi = two_cos(f, 5)
    same = f.theta_scalar()
    assert phi == same and hash(phi) == hash(same)
    assert f.scalar(2) == two_cos(f, INF)
