"""The closed dimension formula and its recurrence cross-checks.

The closed sum runs over strictly decreasing summation vectors v ending in
0: a twist times a product of Schur values divided by a Weyl-type sine
product, all inside Q(zeta_N) with N = r(r+k); the rational prefactor is
applied at the end and the result must come out a nonnegative integer.
The exact backend evaluates it modulo a power of one prime and rebuilds
the integer (`thetadim.modular`); the cyclotomic evaluation in Q(zeta_N) is
kept as its oracle.  The exact backend reads a query only through its one
key, `VerlindeQuery.canonical_key`: genus, degree, rank, level and the sorted
partitions of its points modulo full columns, so a uniform shift of a
point's weights, or a point with one block, changes nothing.  `dimension`
is the exact value, memoized on that key, which the CLI's disk cache also
files records under.  The oracle keeps the whole query, and so does the
float backend, which mirrors the same sum in double precision, bounds its
rounding error and rounds; it serves only as `verify`'s cross-check.

Two-factor recurrences cut a query into a product of smaller ones; the
congruence-filtered variant builds each factor from its weight in W'_k at
degrees 0 and d, which are the Hecke images of the split factors.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

from .cyclotomic import CycNum, root_power
from .modular import EvaluationError, closed_sum, prefactor
from .schur import (alternant_counts, check_v, s_omega, v_vectors,
                    weyl_denominator)
from .weights import (ParabolicData, SplitContext, build_omega_mu,
                      build_split_omegas, congruence_offset, ell,
                      enumerate_Pk, enumerate_Qk, enumerate_Wk_prime,
                      hecke_shift, lambda_of_point, normalize_point,
                      omega_total, split_context, split_degrees)


class VerlindeQuery(namedtuple("VerlindeQuery", "genus degree omega")):
    """An immutable, hashable query: genus, degree and parabolic data."""

    __slots__ = ()

    def __new__(cls, genus: int, degree: int, omega: ParabolicData):
        if genus < 0:
            raise ValueError("genus must be >= 0")
        return super().__new__(cls, genus, degree, omega)

    @property
    def rank(self) -> int:
        return self.omega.rank

    @property
    def level(self) -> int:
        return self.omega.level

    @property
    def ell_integral(self) -> bool:
        """Whether the twisting degree ell is an integer."""
        return ell(self.omega, self.genus, self.degree).denominator == 1

    @property
    def exceptional_case(self) -> bool:
        """The one configuration the closed sum is not certified for."""
        return (self.genus == 0 and self.degree == 0
                and len(self.omega.points) == 3)

    def canonical_key(self) -> tuple:
        """The one key of the query and the exact backend's only input:
        genus, degree, rank, level and the sorted partitions lam - lam_r,
        (a_last - a_i) n_i times, of the points with more than one block.
        The closed sum reads no more (the column lemma of
        `thetadim.modular`), so labels, order and column shifts of points
        and one-block points, whose lam - lam_r is 0, change no key."""
        return (self.genus, self.degree, self.rank, self.level, tuple(sorted(
            lambda_of_point(p, p.weights[-1])
            for p in self.omega.points if len(p.flag) > 1)))


class VerifyReport(namedtuple("VerifyReport",
                              "mode ok lhs rhs residual query detail")):
    """The outcome of one check; each report has its own detail dict."""

    __slots__ = ()

    def __new__(cls, mode: str, ok: bool, lhs: int, rhs: int, residual: float,
                query: VerlindeQuery, detail: dict | None = None):
        return super().__new__(cls, mode, ok, lhs, rhs, residual, query,
                               {} if detail is None else detail)


query = VerlindeQuery


@functools.lru_cache(maxsize=512)
def _weyl_inverse_promoted(v, g: int, r: int, k: int) -> CycNum:
    # the inverse of sines**(g - 1) is sines**(1 - g): invert at order n, if at all
    return weyl_denominator(v, 2 - g, r, k).promote(r * (r + k))


def closed_term(q: VerlindeQuery, v) -> CycNum:
    """One summand of the exact sum, before the rational prefactor."""
    r, k = q.rank, q.level
    v = check_v(v, r, k)
    n = r + k
    N = r * n
    e = ((q.degree * n - omega_total(q.omega)) * sum(v)) % N
    s = s_omega(q.omega, v).promote(N)
    return root_power(N, e) * s * _weyl_inverse_promoted(v, q.genus, r, k)


closed_formula_exact = closed_sum      # the name the memo and tracing call


def closed_formula_cyclotomic(q: VerlindeQuery) -> int:
    """The closed sum in Q(zeta_N): the oracle for the exact backend."""
    r, k = q.rank, q.level
    total = CycNum.zero(r * (r + k))
    for v in v_vectors(r, k):
        total = total + closed_term(q, v)
    val = (total * prefactor((q.genus, q.degree, r, k))).as_rational()
    if val.denominator != 1:
        raise EvaluationError(f"dimension came out non-integral: {val}")
    if val < 0:
        raise EvaluationError(f"dimension came out negative: {val}")
    return int(val)


def _root(m: int, n: int) -> complex:
    # the exponent is reduced exactly, so the angle stays below 2 pi
    return cmath.rect(1.0, 2.0 * math.pi * (m % n) / n)


def _float_error_units(r: int, n: int, g: int, points: int) -> int:
    """m such that the float sum is off by at most gamma_m = m u / (1 - m u)
    times |prefactor| times the sum of its terms with every alternant
    summand in absolute value (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3).  Relative errors per expanded summand, in units of
    u = 2**-53: 32 per root of unity (angle and rect); per Schur value r! for
    the alternant, which is one product by an exact integer count and at
    most min(n, r!) - 1 additions, so 32 + min(n, r!) <= 32 + r! with its
    roots; 16n + 4 per Vandermonde factor (a difference of two roots at
    distance >= 4/n, then a product), 8 for the division and 3 for the
    product into the term; per sine factor 3n + 1 (sin at pi m / n has
    condition number at most n) times the exponent |2g - 2|, plus 2; one per
    term C(n-1, r-1) summed; and g + |g - 1| + 6 for the prefactor and the
    last products."""
    pairs = r * (r - 1) // 2
    schur = 32 + math.factorial(r) + pairs * (16 * n + 4) + 11
    sines = pairs * (2 * abs(g - 1) * (3 * n + 1) + 2)
    terms = math.comb(n - 1, r - 1)
    return 32 + points * schur + sines + terms + g + abs(g - 1) + 6


def closed_formula_float(q: VerlindeQuery) -> tuple[int, float, float]:
    """The closed sum in double precision, rounded, the distance it was
    rounded by, and its running error bound; refuses when that bound
    reaches 0.5, since the rounded value could then be wrong, or when a
    float overflows or underflows to a zero divisor."""
    r, k, g, d = q.rank, q.level, q.genus, q.degree
    n = r + k
    N = r * n
    twist = (d * n - omega_total(q.omega)) % N
    lams = [lambda_of_point(p, k) for p in q.omega.points]
    alternant_size = float(math.factorial(r))
    total = 0j
    size = 0.0
    try:
        for v in v_vectors(r, k):
            term = _root(twist * sum(v), N)
            term_size = 1.0
            if lams:            # one Vandermonde per v serves every point
                z = [_root(vj, n) for vj in v]
                vand = 1 + 0j
                for i in range(r):
                    for j in range(i + 1, r):
                        vand *= z[i] - z[j]
            for lam in lams:    # Schur value: alternant / Vandermonde, the
                # alternant summed from `schur`'s exact signed counts
                term *= sum(c * _root(m, n) for m, c in
                            enumerate(alternant_counts(lam, v, n)) if c) / vand
                term_size *= alternant_size / abs(vand)
            den = 1.0
            for i in range(r):
                for j in range(i + 1, r):
                    den *= (2.0 * math.sin(math.pi * (v[i] - v[j]) / n)) ** (2 * (g - 1))
            total += term / den
            size += term_size / den
        pref = float(prefactor((g, d, r, k)))
        total *= pref
        value = round(total.real)
    except (OverflowError, ZeroDivisionError) as exc:   # out of float range
        raise EvaluationError(f"float backend out of range: {exc}") from exc
    residual = abs(total - value)
    mu = _float_error_units(r, n, g, len(lams)) * 2.0 ** -53
    error = mu / (1.0 - mu) * abs(pref) * size
    if error >= 0.5 or residual >= 0.5:
        raise EvaluationError(f"float backend precision exhausted (error bound "
                              f"{error:.3g}, residual {residual:.3g})")
    return value, residual, error


# -- memoized dimension ----------------------------------------------------


@functools.lru_cache(maxsize=8192)
def _dimension(key) -> int:
    return closed_formula_exact(key)


def dimension(q: VerlindeQuery) -> int:
    """The exact dimension, memoized in a bounded LRU on `canonical_key`."""
    return _dimension(q.canonical_key())


dimension.cache_info = _dimension.cache_info
# bound to the cache itself, so they still work after `dimension` is rewrapped
clear_memo = _dimension.cache_clear
memo_info = _dimension.cache_info


# -- recurrences -----------------------------------------------------------


def genus_recurrence_rhs(q: VerlindeQuery) -> int:
    """Sum of genus-(g-1) dimensions over all two-point weight extensions."""
    if q.genus < 1:
        raise ValueError("genus recurrence needs genus >= 1")
    total = 0
    for mu in enumerate_Pk(q.rank, q.level):
        sub = VerlindeQuery(q.genus - 1, q.degree, build_omega_mu(q.omega, mu))
        total += dimension(sub)
    return total


def _check_ctx(q: VerlindeQuery, ctx: SplitContext):
    if ctx != split_context(q.omega, q.genus, q.degree, ctx.I1, ctx.g1,
                            ctx.c1, ctx.c2):
        raise ValueError("context was built for a different query")


def iter_split_terms(q: VerlindeQuery, ctx: SplitContext):
    _check_ctx(q, ctx)
    for mu in enumerate_Qk(q.rank, q.level, ctx.n1):
        d1, d2 = split_degrees(mu, ctx)
        o1, o2 = build_split_omegas(q.omega, mu, ctx)
        t1 = dimension(VerlindeQuery(ctx.g1, int(d1), o1))
        t2 = dimension(VerlindeQuery(ctx.g2, int(d2), o2))
        yield mu, t1 * t2


def split_recurrence_rhs(q: VerlindeQuery, ctx: SplitContext) -> int:
    """Product factorization over integral-degree weights; an empty index
    set yields 0."""
    return sum(t for _, t in iter_split_terms(q, ctx))


def iter_wprime_terms(q: VerlindeQuery, ctx: SplitContext):
    """The split terms re-indexed by lam = phi(mu) in W'_k; each side is
    built from lam, at degrees 0 and d, as the Hecke image of mu's side.

    A weight whose last entry is 0 is fixed by its cyclic gaps (mu_1 - mu_2,
    ..., mu_{r-1} - mu_r, k - mu_1 + mu_r).  h_step shifts them by one place
    and the flip mu -> mu_1 + mu_r - mu (`build_omega_mu`'s first point)
    reverses them, so flip h = h^-1 flip and h^r = 1; h ignores a uniform
    shift, which is all `normalize_point` does.  With i = d1 mod r, lam =
    h^(r-i)(mu).  The degree has period r, so side 1 reaches degree 0 by i
    Hecke moves at its new point and side 2 reaches d by -i, as d1 + d2 = d:
    the images are h^i(flip(mu)) = flip(h^-i(mu)) = flip(lam) and lam."""
    _check_ctx(q, ctx)
    for lam in enumerate_Wk_prime(q.rank, q.level,
                                  congruence_offset(q.omega, ctx.I1)):
        o1, o2 = build_split_omegas(q.omega, lam, ctx)
        t1 = dimension(VerlindeQuery(ctx.g1, 0, o1))
        t2 = dimension(VerlindeQuery(ctx.g2, q.degree, o2))
        yield lam, t1 * t2


def wprime_recurrence_rhs(q: VerlindeQuery, ctx: SplitContext) -> int:
    """Same product factorization, indexed by the congruence-filtered weight
    set, with the sides at degrees 0 and d."""
    return sum(t for _, t in iter_wprime_terms(q, ctx))


# -- Hecke transport of whole queries --------------------------------------


def hecke_image(q: VerlindeQuery, label: str, m: int) -> VerlindeQuery:
    """The query with m bottom-block entries at one point wrapped to the top
    and the degree lowered by m.  m = n_1 wraps the whole block."""
    n1 = q.omega.point(label).flag[0]
    if not 1 <= m <= n1:
        raise ValueError(f"multiplicity must lie in [1, {n1}]")
    return VerlindeQuery(q.genus, q.degree - m, hecke_shift(q.omega, label, m))


def legal_hecke_multiplicities(q: VerlindeQuery, label: str) -> list[int]:
    """All m for which hecke_image is defined at the point: every m up to
    n_1 while the normalized top weight is below the level, none otherwise
    (a one-block point normalizes to weight 0)."""
    p = normalize_point(q.omega, label).point(label)
    return list(range(1, p.flag[0] + 1)) if p.weights[-1] < q.level else []


# -- verification ----------------------------------------------------------


def verify(q: VerlindeQuery, mode: str, ctx: SplitContext | None = None,
           point: str | None = None,
           multiplicity: int | None = None) -> VerifyReport:
    """Evaluate one side-by-side check; ok means residual zero (exact modes,
    where it is the integer |lhs - rhs|), or in backend mode the exact value,
    the cyclotomic oracle and the float value equal and the float residual
    at most the float's own proven error bound.  When the float backend
    refuses, the report's rhs is the oracle, its residual the integer
    |lhs - oracle|, and its detail says "float": "refused"."""
    if mode not in ("genus", "split", "wprime", "hecke", "backend"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("split", "wprime") and ctx is None:
        raise ValueError(f"{mode} mode needs a context")
    if mode == "hecke" and (point is None or multiplicity is None):
        raise ValueError("hecke mode needs a point label and a multiplicity")
    lhs = dimension(q)
    if mode == "backend":
        oracle = closed_formula_cyclotomic(q)
        try:
            rhs, float_residual, float_bound = closed_formula_float(q)
        except EvaluationError as exc:
            # a refused float value proves nothing either way; the exact
            # value must still equal the oracle
            return VerifyReport("backend", lhs == oracle, lhs, oracle,
                                abs(lhs - oracle), q,
                                {"cyclotomic": oracle, "float": "refused",
                                 "float_refusal": str(exc)})
        residual = abs(lhs - rhs) + float_residual
        ok = lhs == oracle == rhs and residual <= float_bound
        return VerifyReport("backend", ok, lhs, rhs, residual, q,
                            {"cyclotomic": oracle,
                             "float_residual": float_residual,
                             "float_bound": float_bound})
    if mode == "genus":
        rhs = genus_recurrence_rhs(q)
    elif mode == "hecke":
        rhs = dimension(hecke_image(q, point, multiplicity))
    else:
        rhs = (split_recurrence_rhs if mode == "split"
               else wprime_recurrence_rhs)(q, ctx)
    residual = abs(lhs - rhs)
    detail = {}
    if point is not None:
        detail["point"] = point
    if multiplicity is not None:
        detail["multiplicity"] = multiplicity
    return VerifyReport(mode, residual == 0, lhs, rhs, residual, q, detail)
