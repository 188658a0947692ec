"""Speed profiles and the Laplacian spectra behind the convergence bounds.

Speeds are exact rationals, normalized so the slowest processor has speed 1;
floating point enters only when matrices are assembled. The module gives the
algebraic connectivity lambda2 of the plain Laplacian, the second eigenvalue
mu2 of the speed-scaled operator L*S^-1 (via the symmetric similarity
transform S^-1/2 L S^-1/2, which has the same spectrum), and evaluates the
diameter, degree, Cheeger and interlacing inequalities that the protocol
analysis rests on.

Each quantity takes its cheapest exact route. lambda2 of a family graph is
the closed form recorded by `graphs.make_graph`; with every speed 1, mu2 is
lambda2. Otherwise one dense eigenvalue-only solve gives the value, and two
Cholesky attempts on the deflated matrix certify it by Sylvester's law of
inertia (`second_smallest_eigenvalue`). Dense solves are refused past
DENSE_SOLVE_MAX_NODES nodes with ConfigError.
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

#: Accuracy demanded from the dense symmetric eigensolver.
EIGEN_TOL = 1e-10

#: Slack with which `spectral_summary` checks each inequality in floats.
BOUND_TOL = 1e-8

#: Largest node count for which a dense Laplacian is built and solved: one
#: n x n float64 matrix takes 8 n^2 bytes, 128 MiB at this limit, and the
#: solve costs O(n^3). Family graphs with uniform speeds never need one.
DENSE_SOLVE_MAX_NODES = 4096


def as_fraction(value, what: str = "speed") -> Fraction:
    """Exact conversion of an int, Fraction, or 'p/q' or decimal string ("0.7"
    is 7/10); floats are rejected because exact comparisons need exact input."""
    if isinstance(value, float):
        raise ConfigError(
            f"{what} {value!r} given as float; it must be an exact rational "
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
            raise ConfigError(f"cannot interpret {what} {value!r}: {exc}") from exc
    raise ConfigError(f"cannot interpret {what} {value!r} as an exact rational")


def granularity_of(speeds: Iterable) -> tuple[Fraction, tuple[int, ...]]:
    """Greatest common rational divisor eps of the speeds and the multipliers s_i/eps.

    eps is maximal with every s_i an integer multiple of it:
    gcd(p1/q1, ..., pk/qk) = gcd(p1..pk) / lcm(q1..qk).
    """
    pairs = [(f.numerator, f.denominator) for f in map(as_fraction, speeds)]
    if not pairs or any(p <= 0 for p, _ in pairs):
        raise ConfigError("granularity needs a nonempty list of positive rationals")
    num = math.gcd(*(p for p, _ in pairs))
    den = math.lcm(*(q for _, q in pairs))
    return Fraction(num, den), tuple(p // num * (den // q) for p, q in pairs)


@dataclass(frozen=True)
class SpeedProfile:
    """Per-node speeds, normalized so min(s_i) = 1, with exact aggregates."""

    speeds: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.speeds:
            raise ConfigError("speed profile must not be empty")
        if not all(isinstance(s, Fraction) for s in self.speeds):
            raise ConfigError("speeds must be exact Fractions (see from_rationals)")
        if any(s <= 0 for s in self.speeds):
            raise ConfigError("speeds must be positive")
        if min(self.speeds) != 1:
            raise ConfigError("speeds must be normalized so the minimum is 1")

    @classmethod
    def from_rationals(cls, values: Iterable) -> "SpeedProfile":
        """Build a profile from exact rationals, normalizing by the minimum."""
        fracs = [as_fraction(v) for v in values]
        if not fracs:
            raise ConfigError("speed profile must not be empty")
        if any(f <= 0 for f in fracs):
            raise ConfigError("speeds must be positive")
        lo = min(fracs)
        p, q = lo.numerator, lo.denominator
        return cls(tuple(Fraction(f.numerator * q, f.denominator * p) for f in fracs))

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
        return self.granularity * sum(self.multipliers)

    @cached_property
    def s_min(self) -> Fraction:
        return min(self.speeds)

    @cached_property
    def s_max(self) -> Fraction:
        return self.granularity * self.max_multiplier

    @cached_property
    def arithmetic_mean(self) -> Fraction:
        return self.total_capacity / self.n

    @cached_property
    def harmonic_mean(self) -> Fraction:
        """n / sum(1/s_i) = n*eps*N / sum(N/n_i), with N = lcm(n_i)."""
        top = math.lcm(*self.multipliers)
        return self.granularity * Fraction(self.n * top, sum(top // k for k in self.multipliers))

    @cached_property
    def _granularity_pair(self) -> tuple[Fraction, tuple[int, ...]]:
        return granularity_of(self.speeds)

    @property
    def granularity(self) -> Fraction:
        return self._granularity_pair[0]

    @property
    def multipliers(self) -> tuple[int, ...]:
        """Integers n_i with s_i = n_i * granularity."""
        return self._granularity_pair[1]

    @cached_property
    def max_multiplier(self) -> int:
        return max(self.multipliers)

    @cached_property
    def int_multipliers(self) -> np.ndarray:
        """The multipliers as int64, for exact unit-task load comparisons."""
        if self.max_multiplier >= 1 << 63:
            raise ConfigError("speed multipliers too large for 64-bit integers")
        arr = np.array(self.multipliers, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def floats(self) -> np.ndarray:
        """The speeds as floats, each n_i*eps correctly rounded (int / int), as float() gives."""
        num, den = self.granularity.numerator, self.granularity.denominator
        arr = np.array([k * num / den for k in self.multipliers])
        arr.setflags(write=False)
        return arr

    @cached_property
    def inv_floats(self) -> np.ndarray:
        arr = 1.0 / self.floats
        arr.setflags(write=False)
        return arr


def laplacian(g: GraphTopology) -> np.ndarray:
    """Dense Laplacian: deg(i) on the diagonal, -1 on edges.

    Refuses graphs past DENSE_SOLVE_MAX_NODES with ConfigError before
    allocating anything.
    """
    n = g.node_count
    if n > DENSE_SOLVE_MAX_NODES:
        raise ConfigError(
            f"a dense eigensolve on {n} nodes exceeds the limit of "
            f"{DENSE_SOLVE_MAX_NODES} (lambda2 of an explicit graph, or mu2 with "
            "non-uniform speeds)"
        )
    mat = np.zeros((n, n))
    for u, v in g.edges:
        mat[u, v] = -1.0
        mat[v, u] = -1.0
    mat[np.diag_indices(n)] = np.array(g.degrees, dtype=float)
    return mat


def eigen_decomposition(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (values only, no vectors).

    The one dense solve of the package. Deterministic (no RNG); rejects a
    non-square or asymmetric matrix with ConfigError and raises
    EigensolverError if LAPACK does not converge or returns non-finite values.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {mat.shape}")
    # max|M| without a temporary; M - M^T is antisymmetric, so its max is max|M - M^T|.
    scale = max(1.0, float(mat.max()), -float(mat.min()))
    if float((mat - mat.T).max()) > EIGEN_TOL * scale:
        raise ConfigError("matrix is not symmetric within tolerance")
    try:
        vals = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigen decomposition did not converge: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise EigensolverError("eigen decomposition returned non-finite values")
    return vals


def _is_positive_definite(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def second_smallest_eigenvalue(mat: np.ndarray, null_vector=None) -> float:
    """Certified second-smallest eigenvalue of a positive semidefinite matrix.

    `null_vector` spans the matrix's known simple kernel (default: the constant
    vector, the kernel of a connected graph's Laplacian). The value v taken
    from `eigen_decomposition` is certified by Sylvester's law of inertia on
    the deflated matrix D = M + c*u*u^T, whose null eigenvalue is moved to c,
    above the Gershgorin bound of M, so that min eig(D) is the second
    eigenvalue of M: D - (v - delta)I must factor by Cholesky (every non-null
    eigenvalue exceeds v - delta) and D - (v + delta)I must not (one lies below
    v + delta), with delta = EIGEN_TOL * max(1, max|M|) * n. Either test going
    the wrong way raises EigensolverError.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise ConfigError("need at least a 2x2 matrix")
    n = mat.shape[0]
    value = float(eigen_decomposition(mat)[1])
    u = np.full(n, 1.0) if null_vector is None else np.asarray(null_vector, dtype=float)
    u = u / np.linalg.norm(u)
    deflated = np.abs(mat)             # |M| first, then D in the same array
    delta = EIGEN_TOL * max(1.0, float(deflated.max())) * n
    shift = 2.0 * float(deflated.sum(axis=1).max()) + 1.0
    np.multiply.outer(u, u, out=deflated)
    deflated *= shift
    deflated += mat
    diag = np.diag_indices(n)
    deflated[diag] -= value - delta
    if not _is_positive_definite(deflated):
        raise EigensolverError(
            f"certificate failed: an eigenvalue lies below {value:.17g} - {delta:.3e}")
    deflated[diag] -= 2.0 * delta
    if _is_positive_definite(deflated):
        raise EigensolverError(
            f"certificate failed: no eigenvalue within {delta:.3e} of {value:.17g}")
    return value


def lambda2_of(g: GraphTopology) -> float:
    """Algebraic connectivity of the graph's Laplacian.

    Family graphs carry it in closed form; explicit graphs get one certified
    dense solve (at most DENSE_SOLVE_MAX_NODES nodes), cached per graph.
    """
    if g.lambda2 is not None:
        return g.lambda2
    return _solved_lambda2(g)


@lru_cache(maxsize=256)
def _solved_lambda2(g: GraphTopology) -> float:
    return second_smallest_eigenvalue(laplacian(g))


def scaled_laplacian(g: GraphTopology, sp: SpeedProfile) -> np.ndarray:
    """Symmetric S^-1/2 L S^-1/2; shares its spectrum with L*S^-1."""
    if sp.n != g.node_count:
        raise ConfigError(f"speed profile has {sp.n} entries for a {g.node_count}-node graph")
    root_inv = 1.0 / np.sqrt(sp.floats)
    return laplacian(g) * np.outer(root_inv, root_inv)


def mu2_of(g: GraphTopology, sp: SpeedProfile) -> float:
    """Second-smallest eigenvalue of the generalized Laplacian L*S^-1.

    With every speed 1 this is lambda2 and no solve is made; otherwise one
    certified dense solve of S^-1/2 L S^-1/2, whose kernel is sqrt(s).
    """
    if sp.n != g.node_count:
        raise ConfigError(f"speed profile has {sp.n} entries for a {g.node_count}-node graph")
    if sp.s_max == 1:
        return lambda2_of(g)
    return second_smallest_eigenvalue(scaled_laplacian(g, sp), np.sqrt(sp.floats))


class BoundCheck(NamedTuple):
    """One inequality instance lhs <= rhs, evaluated with slack BOUND_TOL."""

    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class SpectralSummary:
    lambda2: float
    mu2: float
    bound_report: tuple[BoundCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(b.holds for b in self.bound_report)


def spectral_summary(g: GraphTopology, sp: SpeedProfile) -> SpectralSummary:
    """lambda2, mu2 and every spectral inequality the analysis relies on.

    The Cheeger rows appear only when the brute-force isoperimetric number is
    feasible (n <= ISO_BRUTE_FORCE_CAP). A failing row signals an
    implementation bug, not a data condition.
    """
    if sp.n != g.node_count:
        raise ConfigError(f"speed profile has {sp.n} entries for a {g.node_count}-node graph")
    lam2 = lambda2_of(g)
    mu2 = mu2_of(g, sp)
    n = g.node_count
    s_max = float(sp.s_max)
    s_min = float(sp.s_min)

    def check(name, lhs, rhs):
        return BoundCheck(name, float(lhs), float(rhs), bool(lhs <= rhs + BOUND_TOL))

    report = [
        check("diameter_lower", 4.0 / (n * lam2), float(g.diameter)),
        check("lambda2_simple_lower", 4.0 / n**2, lam2),
        check("lambda2_min_degree_upper", lam2, n / (n - 1) * min(g.degrees)),
        check("interlacing_lower", lam2 / s_max, mu2),
        check("interlacing_upper", mu2, lam2 / s_min),
    ]
    if n <= ISO_BRUTE_FORCE_CAP:
        iso = float(isoperimetric_number(g))
        report.insert(3, check("cheeger_lower", iso**2 / (2 * g.max_degree), lam2))
        report.insert(4, check("cheeger_upper", lam2, 2 * iso))
    return SpectralSummary(lambda2=lam2, mu2=mu2, bound_report=tuple(report))
