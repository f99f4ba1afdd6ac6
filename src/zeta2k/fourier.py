"""Cosine-series coefficients of g_k(x) = (x - pi)^(2k) on [0, pi].

g_k is expanded in a half-range cosine series (the even 2*pi-periodic
extension of g_k), so sine terms vanish by construction.  The mean term
is pi^(2k)/(2k+1) and the n-th cosine coefficient has the closed form

    A(n, 2k) = sum_{j=0}^{k-1} 2*(2k)! * (-1)^j / (2k-2j-1)!
               * pi^(2k-2-2j) / n^(2+2j)

which this module also rebuilds two independent ways: by the recursion

    A(n, 2) = 4/n^2,
    A(n, 2m) = (4m/n^2) * pi^(2m-2) + b_m * A(n, 2m-2),
    b_m = -(2m)(2m-1)/n^2

and by adaptive Gauss-Legendre quadrature of (2/pi) * integral of
g_k(x)*cos(nx) over [0, pi].  Partial sums of the series evaluated at
x = 0 converge to pi^(2k), which is what links these coefficients to
the zeta values handled elsewhere in the package.

Products of consecutive b factors collapse to the closed form

    prod_{i=0}^{j} b_{k-i} = (-1)^(j+1) * (2k)(2k-1)...(2k-2j-1) / n^(2j+2)
                           = (-1)^(j+1) * perm(2k, 2j+2) / n^(2j+2),

a falling factorial of 2j+2 factors; `b_product_closed` implements it and
the test suite checks it against the literal product.  The coefficients
of the closed form of A(n, 2k) are falling factorials too:
2*(2k)!/(2k-2j-1)! = 2*perm(2k, 2j+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from typing import TYPE_CHECKING

from .exact import _int_str, _table_text

if TYPE_CHECKING:
    from .precision import HighPrecReal

__all__ = [
    "CosineTerm",
    "CosineCoeff",
    "PiTerm",
    "QuadratureError",
    "mean_coeff",
    "cosine_coeff_closed",
    "cosine_coeff_recursive",
    "b_factor",
    "b_product_closed",
    "cosine_coeff_quadrature",
    "reconstruct",
    "reconstruction_residual",
]


@dataclass(frozen=True)
class CosineTerm:
    """One term coeff * pi^pi_power / n^inv_n_power, symbolic in n."""

    pi_power: int
    inv_n_power: int
    coeff: Fraction


@dataclass(frozen=True)
class CosineCoeff:
    """A(n, 2k) as a k-term sum, symbolic in n."""

    k: int
    terms: tuple[CosineTerm, ...]

    def substitute(self, n: int) -> dict[int, Fraction]:
        """Map pi_power -> rational coefficient with n plugged in."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return {
            t.pi_power: Fraction(t.coeff.numerator, t.coeff.denominator * n**t.inv_n_power)
            for t in self.terms
        }


@dataclass(frozen=True)
class PiTerm:
    """One monomial coeff * pi^pi_power of a polynomial in pi."""

    pi_power: int
    coeff: Fraction


class QuadratureError(Exception):
    """Panel doubling ran out of budget; carries the best estimate seen."""

    def __init__(self, best_estimate: HighPrecReal, tol: float, panels: int):
        self.best_estimate = best_estimate
        self.tol = tol
        self.panels = panels
        super().__init__(
            f"quadrature did not reach tol={tol} within {panels} panels"
        )


def mean_coeff(k: int) -> Fraction:
    """Mean of (x-pi)^(2k) over [0, pi], as the coefficient of pi^(2k)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return Fraction(1, 2 * k + 1)


def cosine_coeff_closed(k: int) -> CosineCoeff:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = tuple(
        CosineTerm(
            pi_power=2 * k - 2 - 2 * j,
            inv_n_power=2 + 2 * j,
            coeff=Fraction((-1) ** j * 2 * perm(2 * k, 2 * j + 1)),
        )
        for j in range(k)
    )
    return CosineCoeff(k=k, terms=terms)


def cosine_coeff_recursive(k: int, n: int) -> tuple[PiTerm, ...]:
    """A(n, 2k) via the two-term recursion, as a polynomial in pi.

    n is substituted numerically; coefficients stay exact rationals.
    Highest pi power first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # step m adds the lead 4m/n^2 * pi^(2m-2), and every later step m' > m
    # multiplies it by b_m'; so the coefficient of pi^(2m-2) is 4m over
    # n^(2(k-m+1)) times the running product of -(2m')(2m'-1) for m' from
    # m+1 to k, which the loop from m = k down extends by one factor a step
    n2 = n * n
    tail = 1
    den = n2
    terms = []
    for m in range(k, 0, -1):
        terms.append(PiTerm(2 * m - 2, Fraction(4 * m * tail, den)))
        tail *= -(2 * m) * (2 * m - 1)
        den *= n2
    return tuple(terms)


@lru_cache(maxsize=1024, typed=True)
def b_factor(m: int, n: int) -> Fraction:
    """b_m = -(2m)(2m-1)/n^2, the damping factor of the recursion.

    Memoized for the 1024 most recent (m, n): the b-product checks ask for
    each b_m again for every longer product that contains it.  A Fraction
    is immutable, so callers share it safely; a refused (m, n) is not kept
    and raises on every call.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(-(2 * m) * (2 * m - 1), n * n)


def b_product_closed(k: int, j: int, n: int) -> Fraction:
    """Closed form of b_k * b_(k-1) * ... * b_(k-j)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must satisfy 0 <= j <= k-1, got j={j}, k={k}")
    return Fraction((-1) ** (j + 1) * perm(2 * k, 2 * j + 2), n ** (2 * j + 2))


# ---------------------------------------------------------------------------
# numerical oracle, on plain ints in binary fixed point: an int v stands for
# v / 2**bits

_NODES = 24  # Gauss-Legendre points per panel, exact to degree 47
_GUARD_BITS = 40  # working bits past the precision of the result
_HALVINGS = 8  # cos takes its Taylor series at 1/2**_HALVINGS of its argument
_RULES = 64  # node sets kept, one per working precision, about 2 KB each


def _quad_dps(k: int, tol: float) -> int:
    # |A| reaches ~2*(2k)!*pi^(2k-2), far past float64 for larger k, and
    # tol is absolute; size the working precision off both.
    magnitude_digits = len(_int_str(2 * factorial(2 * k))) + k
    tol_digits = max(12, -math.floor(math.log10(tol)))
    return magnitude_digits + tol_digits + 16


def _legendre(x: int, bits: int) -> tuple[int, int]:
    """P_24(x) and P_23(x) by the three-term recurrence."""
    p_prev, p = 1 << bits, x
    for j in range(1, _NODES):
        p_prev, p = p, ((2 * j + 1) * (x * p >> bits) - j * p_prev) // (j + 1)
    return p, p_prev


@lru_cache(maxsize=_RULES)
def _legendre_rule(bits: int) -> tuple[tuple[int, int], ...]:
    """The 24-point Gauss-Legendre rule on [-1, 1]: its 12 positive nodes, x = 1 down.

    Each is a (node, weight) pair; the negative nodes mirror them, with
    the same weights.  Each positive root of P_24 is found by Newton's
    method from its float asymptotic value,
    x -= P_24(x) * (1 - x^2) / (24 * (P_23(x) - x*P_24(x))), until a step
    is below 16 units of the last place; its weight is
    2 * (1 - x^2) / (24 * P_23(x))^2, which is 2 / ((1 - x^2) * P_24'(x)^2)
    at a root.
    """
    one = 1 << bits
    half = []
    for i in range(1, _NODES // 2 + 1):
        guess = math.cos(math.pi * (4 * i - 1) / (4 * _NODES + 2))
        x = int(math.ldexp(guess, 53)) << (bits - 53)
        while True:
            p, q = _legendre(x, bits)
            dx = p * ((one * one - x * x) >> bits) // (_NODES * (q - (x * p >> bits)))
            x -= dx
            if abs(dx) < 16:
                break
        _, q = _legendre(x, bits)
        weight = ((one * one - x * x) << (bits + 1)) // (_NODES * _NODES * q * q)
        half.append((x, weight))
    return tuple(half)


def _fixed_pi(bits: int) -> int:
    """pi * 2**bits within 2, from the package's ``pi_value``."""
    from .precision import PrecisionConfig, pi_value

    # bits/3 digits, with pi_value's 15 guard digits, are more than bits
    _, man, exp, _ = pi_value(PrecisionConfig(digits=bits // 3))._raw
    return (man << bits) >> -exp


def _fixed_pow(u: int, e: int, bits: int) -> int:
    """u**e for e >= 1 by square and multiply, each product cut to bits."""
    result = None
    while True:
        if e & 1:
            result = u if result is None else result * u >> bits
        e >>= 1
        if not e:
            return result
        u = u * u >> bits


def _fixed_cos(v: int, pi: int, bits: int) -> int:
    """cos(v) for v >= 0: reduced into [0, pi], halved, Taylor, doubled back."""
    one = 1 << bits
    v %= 2 * pi
    if v > pi:
        v = 2 * pi - v
    z2 = v * v >> (bits + 2 * _HALVINGS)  # (v / 2**_HALVINGS)**2
    total = term = one
    m = 0
    while term:
        m += 2
        term = (term * z2 >> bits) // ((m - 1) * m)
        total += -term if m & 2 else term
    for _ in range(_HALVINGS):
        total = (total * total >> (bits - 1)) - one  # cos 2a = 2 cos^2 a - 1
    return total


def cosine_coeff_quadrature(
    k: int, n: int, tol: float, max_doublings: int = 20
) -> HighPrecReal:
    """(2/pi) * integral of (x-pi)^(2k) cos(nx) over [0, pi], adaptively.

    Composite 24-point Gauss-Legendre panels, doubling the panel count
    until two successive estimates of the integral differ by less than
    tol/2.  The work runs on plain ints in binary fixed point with W
    fractional bits, W the bit precision of _quad_dps + 10 digits plus 40
    guard bits, so tol is honored even where the coefficient magnitude
    exceeds float range, and results are the same from run to run.  It
    has no lock and needs none: it shares nothing between calls but the
    memos of pi and of the node sets, and it uses no mpmath, so it is safe
    to call from several threads at once.  pi is ``_fixed_pi(W)``: the
    package's ``pi_value``, one Chudnovsky run with a proven error bound,
    cut to W bits.  The value is a raw mpf at the bit precision of
    _quad_dps digits; ``format_real`` prints it without mpmath, which loads
    only when ``.value`` is read.

    Error bound, in units of 2^-W.  At each point t, u = pi - t is off by
    at most 3, so u^(2k), by square and multiply with one cut per product,
    is off by at most (6k + 2*log2(2k)) * pi^(2k).  cos(nu) is off by at
    most 3n from the reduction of nu mod 2*pi and 2T + 3 from its T-term
    Taylor series, which the eight double-angle steps c -> 2c^2 - 1 can
    amplify fourfold each, 2^16 in all.  The nodes and weights are exact
    to 2^16.  Products are summed exactly, and of the up to 24 * 2^21
    points summed, each counts its weight over P, the panel count, with
    weights adding up to 2 in each panel.  So the estimate of the
    coefficient is off by at most about 2^(20-W) * (2T + k + n) * pi^(2k),
    which is about 10^-(dps+17) * (2T + k + n) * 10^k: as dps counts k
    digits past tol's, far below tol.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    from .precision import HighPrecReal, _dps_to_prec, _normalize

    dps = _quad_dps(k, tol)
    digits = max(1, -math.floor(math.log10(tol)))
    prec = _dps_to_prec(dps)
    bits = _dps_to_prec(dps + 10) + _GUARD_BITS
    rule = _legendre_rule(bits)
    pi = _fixed_pi(bits)
    two_k = 2 * k
    tol_num, tol_den = float(tol).as_integer_ratio()

    def estimate(doubling: int) -> int:
        # P = 2**doubling panels; the sum is scaled by 2**(3*bits).  Node x of
        # panel p is t = pi*(2p + 1 + x)/(2P), and node -x of panel P - 1 - p
        # is pi - t; with u = pi - t the pair adds
        # w * ((-1)^n u^(2k) + (pi - u)^(2k)) * cos(nu), one cos for both.
        panels = 1 << doubling
        shift = bits + doubling + 1
        acc = 0
        for p in range(panels):
            base = (2 * (panels - p) - 1) << bits
            for x, w in rule:
                u = pi * (base - x) >> shift
                near = _fixed_pow(u, two_k, bits)
                far = _fixed_pow(pi - u, two_k, bits)
                acc += w * (far - near if n & 1 else far + near) * _fixed_cos(n * u, pi, bits)
        return acc

    def coefficient(acc: int, doubling: int) -> HighPrecReal:
        value = _normalize(int(acc < 0), abs(acc), -3 * bits - doubling, prec)
        return HighPrecReal(digits=digits, value=value)

    doubling = 0
    best = estimate(doubling)
    while doubling < max_doublings:
        doubling += 1
        current = estimate(doubling)
        # the integrals are pi/2 times the coefficients, acc / (P * 2**(3*bits))
        if pi * abs(current - 2 * best) * tol_den < tol_num << (4 * bits + doubling):
            return coefficient(current, doubling)
        best = current
    raise QuadratureError(coefficient(best, doubling), tol, 1 << doubling)


_POLY_GUARD_BITS = 64  # bits past the precision the caller names


def _pi_poly_value(poly: dict[int, Fraction], dps: int) -> tuple:
    """sum of c * pi^p over poly's items (p, c), as a raw mpf.

    poly holds every even p from 0 to its largest, and no odd p.  Horner's
    rule in pi^2 on plain ints in binary fixed point with W fractional
    bits, _POLY_GUARD_BITS past the bit precision of dps digits, and pi
    from ``_fixed_pi``.  In units of 2^-W, pi is off by under 2 and pi^2 by
    under 14; each coefficient's cut and each step's product add under 2,
    so the sum is off by under 2 * (p_max/2 + 1) * pi^p_max plus
    7 * p * |c| * pi^(p-2) summed over the terms.  For ``fourier``'s
    polynomials (p_max <= 78, n <= 200, so c of p_max is 4k/n^2 >= 10^-4)
    that is under 2^-48 of one unit in the last place of the largest term
    at dps digits.  The result is exact: v * 2^-W for the int v that the
    loop ends with.
    """
    from .precision import _dps_to_prec, _normalize

    bits = _dps_to_prec(dps) + _POLY_GUARD_BITS
    pi = _fixed_pi(bits)
    pi2 = pi * pi >> bits
    acc = 0
    for p in range(max(poly), -1, -2):
        c = poly[p]
        acc = (acc * pi2 >> bits) + (c.numerator << bits) // c.denominator
    return _normalize(int(acc < 0), abs(acc), -bits, 0)


# mpmath's to_str(raw, 17) takes 17 + 3 digits at this many working bits
_SIG17_BITS = int(20 * math.log(10, 2)) + 10


def _format_sig17(raw: tuple) -> str:
    """A raw mpf to 17 significant digits, as ``mp.nstr(x, 17, strip_zeros=False)``.

    The text is ``mpmath.libmp.to_str(raw, 17, strip_zeros=False)``, byte
    for byte: 20 digits truncated at _SIG17_BITS working bits, rounded half
    up on the 18th (a carry may reach a new power of ten), in fixed
    notation when the decimal exponent e has -5 < e < 17 and as ``...e+NN``
    or ``...e-NN`` otherwise.  mpmath takes another branch when the leading
    bit's binary exponent passes 3500 in size; such values raise ValueError.
    """
    sign, man, exp, bc = raw
    if not man:
        if exp:  # inf and nan carry a zero mantissa
            raise ValueError(f"cannot format the non-finite value {raw}")
        return "0.0"
    if abs(exp + bc) > 3500:
        raise ValueError(f"the binary exponent {exp + bc} is outside [-3500, 3500]")
    fix_bits = max(_SIG17_BITS - exp - bc, 0)
    fix_digits = int(fix_bits / math.log(10, 2) + 0.5)
    shift = exp + fix_bits
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = _int_str(fixed * 10**fix_digits >> fix_bits)
    e = len(digits) - fix_digits - 1
    kept = int(digits[:17]) + (digits[17:18] >= "5")
    if kept == 10**17:
        kept //= 10
        e += 1
    s = _int_str(kept)
    sign = "-" if sign else ""
    if e <= -5 or e >= 17:
        return f"{sign}{s[0]}.{s[1:]}e{e:+d}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{s}"
    return f"{sign}{s[:e + 1]}.{s[e + 1:]}"


def _fourier_csv(max_k: int, max_n: int) -> str:
    """``zeta2k fourier``'s CSV: A(n, 2k) three ways, 1 <= k <= max_k, 1 <= n <= max_n."""
    rows = []
    for k in range(1, max_k + 1):
        closed = cosine_coeff_closed(k)
        for n in range(1, max_n + 1):
            recursive = {t.pi_power: t.coeff for t in cosine_coeff_recursive(k, n)}
            for source, value in (
                ("closed", _pi_poly_value(closed.substitute(n), 30 + 2 * k)),
                ("recursive", _pi_poly_value(recursive, 30 + 2 * k)),
                ("quadrature", cosine_coeff_quadrature(k, n, 1e-12)._raw),
            ):
                rows.append({"k": k, "n": n, "source": source, "value": _format_sig17(value)})
    return _table_text(("k", "n", "source", "value"), rows, "csv")


# ---------------------------------------------------------------------------
# series reconstruction (double precision by design; the exact layer above
# already guarantees identities, this layer only watches convergence)


def _extraction_sum(series, scratch) -> float:
    """The sum of a float64 array, correctly rounded: what ``math.fsum`` returns.

    series is overwritten, and scratch, an array of the same length, is
    used as work space; nothing else is allocated.  The method is Rump,
    Ogita and Oishi's error-free extraction (SIAM J. Sci. Comput. 31(1),
    2008).  With n values, all below 2^e in magnitude, and
    sigma = 2^(e + ceil(log2(n + 2))) >= (n + 2) * max|x|, each
    q = (sigma + x) - sigma is exact, and so is r = x - q; every q is a
    multiple of 2^-53 * sigma and their sum is below sigma in magnitude, so
    numpy sums the q exactly, in any order.  That leaves
    sum(x) = sum(q) + sum(r) with each |r| <= 2^-53 * sigma.  numpy's sum of
    the r is within 2 * (n-1) * 2^-53 * n * 2^-53 * sigma of the exact one,
    whatever order it adds in.  The candidate is the float nearest to
    sum(q) plus that sum; it is returned when the whole interval that bound
    allows lies strictly between the candidate's midpoints to its two
    neighbours, checked in exact rationals.  Otherwise the r are extracted
    again, at a sigma set by their own maximum.  Every r is zero after
    finitely many rounds, and then the exact sum is rounded once.  So the
    result is the exactly rounded sum, half to even, which is what
    ``math.fsum`` returns, +0.0 for an exact zero included.  Values that are
    not finite, or a sigma that would overflow, go to ``math.fsum`` itself,
    which returns or raises as it does.
    """
    n = len(series)
    if n == 0:
        return 0.0
    grow = (n + 1).bit_length()  # ceil(log2(n + 2))
    top = max(series.max(), -series.min())
    if not top < math.inf or math.frexp(top)[1] + grow > 1023:
        # a memoryview yields plain floats, which fsum reads faster than
        # numpy scalars, and builds no list
        return math.fsum(memoryview(series))
    import numpy as np

    bound_scale = Fraction(2 * (n - 1) * n, 2**106)
    total = Fraction(0)
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + grow)
        q = np.add(series, sigma, out=scratch)
        q -= sigma
        series -= q
        total += Fraction(float(q.sum()))
        near = total + Fraction(float(series.sum()))
        bound = bound_scale * Fraction(sigma)
        candidate = float(near)
        below = (Fraction(candidate) + Fraction(math.nextafter(candidate, -math.inf))) / 2
        above = (Fraction(candidate) + Fraction(math.nextafter(candidate, math.inf))) / 2
        if below < near - bound and near + bound < above:
            return candidate
        top = max(series.max(), -series.min())
    return float(total)


def reconstruct(k: int, x: float, n_terms: int) -> float:
    """Partial sum mean + sum_{n=1}^{n_terms} A(n,2k) cos(nx) at float width.

    Term values come from the closed form.  Their sum is exact, rounded
    once (see ``_extraction_sum``), so it equals ``math.fsum`` of the terms
    and the only real error left is the series tail.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    if not 0 <= x <= math.pi:
        raise ValueError(f"x must be in [0, pi], got {x}")
    import numpy as np

    n = np.arange(1, n_terms + 1, dtype=np.float64)
    series = np.zeros_like(n)
    scratch = np.empty_like(n)
    for term in cosine_coeff_closed(k).terms:
        np.power(n, -float(term.inv_n_power), out=scratch)
        scratch *= float(term.coeff) * math.pi**term.pi_power
        series += scratch
    if x != 0:  # cos(0.0) is exactly 1.0, so x = 0 needs no cos pass
        np.multiply(n, x, out=scratch)
        series *= np.cos(scratch, out=scratch)
    mean = math.pi ** (2 * k) / (2 * k + 1)
    return mean + _extraction_sum(series, scratch)


def reconstruction_residual(k: int, n_terms: int) -> float:
    """|pi^(2k) - reconstruct(k, 0, n_terms)|; shrinks like 1/n_terms."""
    return abs(math.pi ** (2 * k) - reconstruct(k, 0.0, n_terms))
