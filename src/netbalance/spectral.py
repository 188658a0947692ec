"""Speed profiles and the Laplacian spectra behind the convergence bounds.

Speeds are exact rationals, normalized so the slowest processor has speed 1;
floating point enters only when matrices are assembled. The module computes
the algebraic connectivity lambda2 of the plain Laplacian, the second
eigenvalue mu2 of the speed-scaled operator L*S^-1 (via the symmetric
similarity transform S^-1/2 L S^-1/2, which has the same spectrum), and
evaluates the diameter, degree, Cheeger and interlacing inequalities that the
protocol analysis rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, EigensolverError
from .graphs import GraphTopology, isoperimetric_number, ISO_BRUTE_FORCE_CAP
from .rng import keyed_generator, STREAM_SPEEDS

#: Default accuracy demanded from the dense symmetric eigensolver.
EIGEN_TOL = 1e-10


def _as_fraction(value) -> Fraction:
    """Exact conversion; floats are rejected because granularity needs exact input."""
    if isinstance(value, float):
        raise ConfigError(
            f"speed {value!r} given as float; speeds must be exact rationals "
            "(int, Fraction, or 'p/q' string)"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot interpret speed {value!r}: {exc}") from exc
    raise ConfigError(f"cannot interpret speed {value!r} as an exact rational")


def granularity_of(speeds: Iterable) -> tuple[Fraction, tuple[int, ...]]:
    """Greatest common rational divisor eps of the speeds and the multipliers s_i/eps.

    eps is maximal with every s_i an integer multiple of it:
    gcd(p1/q1, ..., pk/qk) = gcd(p1..pk) / lcm(q1..qk).
    """
    fracs = [_as_fraction(s) for s in speeds]
    if not fracs or any(f <= 0 for f in fracs):
        raise ConfigError("granularity needs a nonempty list of positive rationals")
    num = 0
    den = 1
    for f in fracs:
        num = math.gcd(num, f.numerator)
        den = den * f.denominator // math.gcd(den, f.denominator)
    eps = Fraction(num, den)
    multipliers = tuple(int(f / eps) for f in fracs)
    return eps, multipliers


@dataclass(frozen=True)
class SpeedProfile:
    """Per-node speeds, normalized so min(s_i) = 1, with exact aggregates."""

    speeds: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.speeds:
            raise ConfigError("speed profile must not be empty")
        if any(s <= 0 for s in self.speeds):
            raise ConfigError("speeds must be positive")
        if min(self.speeds) != 1:
            raise ConfigError("speeds must be normalized so the minimum is 1")

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.speeds)
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def from_rationals(cls, values: Iterable) -> "SpeedProfile":
        """Build a profile from exact rationals, normalizing by the minimum."""
        fracs = [_as_fraction(v) for v in values]
        if not fracs:
            raise ConfigError("speed profile must not be empty")
        if any(f <= 0 for f in fracs):
            raise ConfigError("speeds must be positive")
        lo = min(fracs)
        return cls(tuple(f / lo for f in fracs))

    @classmethod
    def uniform(cls, n: int) -> "SpeedProfile":
        return cls(tuple([Fraction(1)] * n))

    @classmethod
    def random_integers(cls, n: int, max_speed: int, seed: int) -> "SpeedProfile":
        """Integer speeds drawn uniformly from 1..max_speed, then normalized."""
        if max_speed < 1:
            raise ConfigError(f"max_speed must be >= 1, got {max_speed}")
        gen = keyed_generator(seed, STREAM_SPEEDS)
        vals = gen.integers(1, max_speed + 1, size=n)
        return cls.from_rationals(int(v) for v in vals)

    @property
    def n(self) -> int:
        return len(self.speeds)

    @cached_property
    def total_capacity(self) -> Fraction:
        return sum(self.speeds, Fraction(0))

    @property
    def s_min(self) -> Fraction:
        return min(self.speeds)

    @property
    def s_max(self) -> Fraction:
        return max(self.speeds)

    @cached_property
    def arithmetic_mean(self) -> Fraction:
        return self.total_capacity / self.n

    @cached_property
    def harmonic_mean(self) -> Fraction:
        return Fraction(self.n) / sum((1 / s for s in self.speeds), Fraction(0))

    @cached_property
    def granularity(self) -> Fraction:
        return granularity_of(self.speeds)[0]

    @cached_property
    def multipliers(self) -> tuple[int, ...]:
        """Integers n_i with s_i = n_i * granularity."""
        return granularity_of(self.speeds)[1]

    @cached_property
    def floats(self) -> np.ndarray:
        arr = np.array([float(s) for s in self.speeds])
        arr.setflags(write=False)
        return arr

    @cached_property
    def inv_floats(self) -> np.ndarray:
        arr = np.array([1.0 / float(s) for s in self.speeds])
        arr.setflags(write=False)
        return arr


def laplacian(g: GraphTopology) -> np.ndarray:
    """Dense Laplacian: deg(i) on the diagonal, -1 on edges."""
    n = g.node_count
    mat = np.zeros((n, n))
    for u, v in g.edges:
        mat[u, v] = -1.0
        mat[v, u] = -1.0
    mat[np.diag_indices(n)] = np.array(g.degrees, dtype=float)
    return mat


def eigen_decomposition(mat: np.ndarray, tol: float = EIGEN_TOL):
    """Ascending eigenpairs of a symmetric matrix, residual-checked against tol.

    Deterministic (no RNG); raises EigensolverError carrying the worst residual
    norm if any reported pair misses M v = lambda v by more than tol (scaled by
    the matrix magnitude).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > tol * scale:
        raise ConfigError("matrix is not symmetric within tolerance")
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigen decomposition did not converge: {exc}") from exc
    residual = float(np.abs(mat @ vecs - vecs * vals).max())
    if not np.isfinite(residual) or residual > tol * scale * mat.shape[0]:
        raise EigensolverError(
            f"eigenpair residual {residual:.3e} exceeds tolerance", residual=residual
        )
    return vals, vecs


def second_smallest_eigenvalue(mat: np.ndarray, tol: float = EIGEN_TOL) -> float:
    """Second element of the ascending eigenvalue list of a symmetric matrix."""
    if np.asarray(mat).shape[0] < 2:
        raise ConfigError("need at least a 2x2 matrix")
    vals, _ = eigen_decomposition(mat, tol)
    return float(vals[1])


@lru_cache(maxsize=256)
def lambda2_of(g: GraphTopology) -> float:
    """Algebraic connectivity of the graph's Laplacian."""
    return second_smallest_eigenvalue(laplacian(g))


def scaled_laplacian(g: GraphTopology, sp: SpeedProfile) -> np.ndarray:
    """Symmetric S^-1/2 L S^-1/2; shares its spectrum with L*S^-1."""
    if sp.n != g.node_count:
        raise ConfigError(f"speed profile has {sp.n} entries for a {g.node_count}-node graph")
    root_inv = 1.0 / np.sqrt(sp.floats)
    return laplacian(g) * np.outer(root_inv, root_inv)


def mu2_of(g: GraphTopology, sp: SpeedProfile) -> float:
    """Second-smallest eigenvalue of the generalized Laplacian L*S^-1."""
    return second_smallest_eigenvalue(scaled_laplacian(g, sp))


def generalized_dot(x, y, sp: SpeedProfile) -> float:
    """Speed-weighted inner product sum_i x_i y_i / s_i."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (sp.n,) or y.shape != (sp.n,):
        raise ConfigError(
            f"vector shapes {x.shape}, {y.shape} do not match node count {sp.n}"
        )
    return float(np.sum(x * y * sp.inv_floats))


class BoundCheck(NamedTuple):
    """One inequality instance lhs <= rhs, evaluated with slack tol."""

    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class SpectralSummary:
    lambda2: float
    mu2: float
    eigen_tolerance: float
    bound_report: tuple[BoundCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(b.holds for b in self.bound_report)


def spectral_summary(g: GraphTopology, sp: SpeedProfile, tol: float = 1e-8,
                     iso_cap: int = ISO_BRUTE_FORCE_CAP) -> SpectralSummary:
    """lambda2, mu2 and every spectral inequality the analysis relies on.

    The Cheeger rows appear only when the brute-force isoperimetric number is
    feasible (n <= iso_cap). A failing row signals an implementation bug, not
    a data condition.
    """
    if sp.n != g.node_count:
        raise ConfigError(f"speed profile has {sp.n} entries for a {g.node_count}-node graph")
    lam2 = lambda2_of(g)
    mu2 = mu2_of(g, sp)
    n = g.node_count
    s_max = float(sp.s_max)
    s_min = float(sp.s_min)

    def check(name, lhs, rhs):
        return BoundCheck(name, float(lhs), float(rhs), bool(lhs <= rhs + tol))

    report = [
        check("diameter_lower", 4.0 / (n * lam2), float(g.diameter)),
        check("lambda2_simple_lower", 4.0 / n**2, lam2),
        check("lambda2_min_degree_upper", lam2, n / (n - 1) * min(g.degrees)),
        check("interlacing_lower", lam2 / s_max, mu2),
        check("interlacing_upper", mu2, lam2 / s_min),
    ]
    if n <= iso_cap:
        iso = float(isoperimetric_number(g, cap=iso_cap))
        report.insert(3, check("cheeger_lower", iso**2 / (2 * g.max_degree), lam2))
        report.insert(4, check("cheeger_upper", lam2, 2 * iso))
    return SpectralSummary(lambda2=lam2, mu2=mu2, eigen_tolerance=tol,
                           bound_report=tuple(report))
