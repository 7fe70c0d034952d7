"""Epigraphs of strictly convex univariate polynomials.

These are the closed, convex, unbounded instances whose boundary (the
graph) contains no ray: the reconstruction theorems need them to show the
results reach beyond polytopes. Chord search runs in exact arithmetic and
certifies its bracket: one Taylor shift of f over Q, then integer sign
tests, with the same dyadic result a rational bisection gives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Q, ZERO, _cleared, rational
from .errors import BelowGraphError, InvalidRegionError
from .polyhedra import PointLocation

CHORD_TOLERANCE = Q(1, 2**40)


@dataclass(frozen=True)
class Epigraph1D:
    """The set {(x, y) : y >= f(x)} for a strictly convex polynomial f."""

    kind = "epigraph1d"
    poly_coeffs: tuple  # (c0, c1, c2, ...), f(x) = sum c_k x^k

    def __post_init__(self):
        coeffs = tuple(rational(c) for c in self.poly_coeffs)
        object.__setattr__(self, "poly_coeffs", coeffs)
        # f is strictly convex iff f'' is not identically zero and f'' >= 0
        # on R: a positive leading coefficient and no real root of odd
        # multiplicity, where f'' would change sign.
        f2 = _derivative(_derivative(coeffs))
        if not f2:
            raise InvalidRegionError("second derivative is identically zero")
        if f2[-1] < 0 or _has_odd_multiplicity_root(f2):
            raise InvalidRegionError("second derivative takes negative values")

    def value(self, x):
        acc = ZERO
        for c in reversed(self.poly_coeffs):
            acc = acc * x + c
        return acc

    def locate(self, p):
        x, y = p.coords
        fx = self.value(x)
        if y > fx:
            return PointLocation.INTERIOR
        if y == fx:
            return PointLocation.BOUNDARY
        return PointLocation.EXTERIOR

    def chord_value(self, a, b, x):
        """Height of the graph chord from (a, f(a)) to (b, f(b)) at x."""
        fa, fb = self.value(a), self.value(b)
        if a == b:
            return fa
        return fa + (fb - fa) * (x - a) / (b - a)


def chord_find(epigraph, p):
    """Rationals a <= p.x <= b whose graph chord passes just above p.

    The chord height at p.x is exactly >= p.y and <= p.y + CHORD_TOLERANCE.
    Found by symmetric doubling then bisection on the half-width t (the
    symmetric chord height h(t) is strictly increasing in t for a strictly
    convex f). One Taylor shift of f to p.x gives h(t) - p.y as an even
    polynomial in t; cleared to integers, every comparison of the search is
    the sign of an integer at t = T / 2^k, so the bracket is the same dyadic
    one a rational bisection finds. A boundary point degenerates to
    a = b = p.x.
    """
    px, py = p.coords
    c = list(epigraph.poly_coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += px * c[j + 1]
    # c[i] is the coefficient of s^i in f(px + s); c[0] = f(px).
    if py < c[0]:
        raise BelowGraphError(f"{p!r} lies strictly below the graph")
    if py == c[0]:
        return px, px
    # h(t) - py = sum_j c[2j] t^(2j) - py = sum_j G[j] t^(2j) / scale.
    G, scale = _cleared([c[0] - py] + c[2::2])
    D = len(G) - 1

    def excess(T, k):
        """scale * 4^(kD) * (h(T / 2^k) - py), an integer."""
        u, acc = T * T, 0
        for j in range(D, -1, -1):
            acc = acc * u + (G[j] << 2 * k * (D - j))
        return acc

    T = 1
    for _ in range(128):
        g = excess(T, 0)
        if g >= 0:
            break
        T *= 2
    else:  # pragma: no cover - convexity guarantees growth
        raise ArithmeticError("chord expansion failed to clear the point")
    if g == 0:
        return px - T, px + T
    # Bisect on lo / 2^k < t <= hi / 2^k, g = excess(hi, k), until
    # h(hi / 2^k) - py <= CHORD_TOLERANCE.
    (tol_num,), tol_den = _cleared([CHORD_TOLERANCE])
    lo, hi, k = 0, T, 0
    while g * tol_den > (tol_num * scale) << 2 * k * D:
        k += 1
        mid, lo, hi = lo + hi, 2 * lo, 2 * hi
        g_mid = excess(mid, k)
        if g_mid >= 0:
            hi, g = mid, g_mid
        else:
            lo, g = mid, g << 2 * D
    t = Q(hi, 1 << k)
    return px - t, px + t


# Exact univariate polynomial arithmetic over Q for the convexity decision.
# A polynomial is a list of coefficients, constant term first, with no
# trailing zeros; the zero polynomial is [].


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p):
    return _trim(k * p[k] for k in range(1, len(p)))


def _sub(p, q):
    n = max(len(p), len(q))
    p = list(p) + [ZERO] * (n - len(p))
    q = list(q) + [ZERO] * (n - len(q))
    return _trim(a - b for a, b in zip(p, q))


def _divmod(p, q):
    """(quotient, remainder) of p by a nonzero q."""
    rem = list(p)
    quot = [ZERO] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        k = len(rem) - len(q)
        quot[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = _trim(rem)
    return _trim(quot), rem


def _monic_gcd(p, q):
    while q:
        p, q = q, _divmod(p, q)[1]
    return [c / p[-1] for c in p]


def _has_odd_multiplicity_root(p):
    """Whether p has a real root of odd multiplicity.

    Yun's square-free decomposition: the i-th gcd taken in the loop is the
    product of the factors of multiplicity exactly i.
    """
    dp = _derivative(p)
    g = _monic_gcd(p, dp)
    b = _divmod(p, g)[0]
    d = _sub(_divmod(dp, g)[0], _derivative(b))
    multiplicity = 1
    while len(b) > 1:
        a = _monic_gcd(b, d)
        if multiplicity % 2 and _real_root_count(a):
            return True
        b = _divmod(b, a)[0]
        d = _sub(_divmod(d, a)[0], _derivative(b))
        multiplicity += 1
    return False


def _real_root_count(p):
    """Number of distinct real roots of a nonzero p (Sturm's theorem)."""
    if len(p) < 2:
        return 0
    chain = [p, _derivative(p)]
    while True:
        rem = _divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])

    def sign_changes(signs):
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    # Leading terms decide each sign at +infinity and -infinity.
    at_pos = [q[-1] > 0 for q in chain]
    at_neg = [(q[-1] > 0) == (len(q) % 2 == 1) for q in chain]
    return sign_changes(at_neg) - sign_changes(at_pos)
