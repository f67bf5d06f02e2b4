"""The weighted identity tr(f_1(A_1)^a_1 ... f_m(A_m)^a_m) = tr(A_1^b_1 ... A_m^b_m).

With B_i = A_i^b_i it is the plain identity for g_i(B) = f_i(B^(1/b_i))^a_i,
the one evaluation of a weighted factor (`_weighted_image`): `verify_weighted`
checks it on seeded positive definite samples, `weighted_reduction` fits the
linear g_i, and `weighted_canonical_maps` builds the `PowerMap`s that solve it
from a Hermitian canonical form. Here too: powers of positive definite
matrices (`herm_power`). Nothing here reads the recoveries of `decompose`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, PositivityError
from .extend import CheckMode, PreservationReport, _map_list, _residuals, extend_from_subset
from .linmaps import HermEven, HermOdd, LinMap, _require_map, _require_maps, apply_batch, from_canonical
from .spaces import (
    DEFAULT_TOL, POWER_FLOOR, REDUCTION_FLOOR, WEIGHTED_TOL,
    Field,
    SpaceKind,
    SpaceTag,
    random_batch,
    reassemble_batch,
    span_dim,
    span_of,
    _check_tol,
    _count,
    _hermitian_part,
    _is_real,
    _numeric,
    _random_batch,
    _rng,
    _span_coords,
)

_WEIGHTED_BATCH = 256


def _finite(value, what: str) -> float:
    """`value` as a float, refused unless it is a finite real number (`spaces._is_real`)."""
    if not _is_real(value):
        raise InvalidParameterError(f"{what} must be a real number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise InvalidParameterError(f"{what} must be finite, got {x}")
    return x


def _definite_input(A, tol: float) -> np.ndarray:
    """A as a complex (1, n, n) stack, refused with MembershipError unless it
    lies in the Hermitian span within `apply`'s rule: DEFAULT_TOL times
    max(1, largest entry of A), and then with PositivityError unless its
    smallest eigenvalue is above the floor `tol`, whatever power is taken. An
    eigendecomposition reads one triangle only, so an unchecked A would be
    judged by half its entries."""
    # astype copies, so t == 1 never hands back a view of A
    A = _numeric(A, "A").astype(np.complex128)
    if A.ndim != 2:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    _span_coords(SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, A.shape[-1]), A[None], DEFAULT_TOL, "input")
    low = np.linalg.eigvalsh(A)[0]
    if not low > tol:
        raise PositivityError(f"input must be positive definite (min eig {low:.3g})")
    return A[None]


def herm_power(A: np.ndarray, t: float, tol: float = POWER_FLOOR) -> np.ndarray:
    """A**t for Hermitian positive definite A, by products for an integer
    t >= 2 and through its eigendecomposition otherwise. A must be Hermitian
    and positive definite as `_definite_input` judges it, at every t; tol is
    the eigenvalue floor, and t must be a finite real number."""
    _check_tol(tol)
    t = _finite(t, "power t")
    return _herm_power_batch(_definite_input(A, tol), t, tol)[0]


def _herm_power_batch(stack: np.ndarray, t: float, tol: float = POWER_FLOOR) -> np.ndarray:
    """A**t for a stack of positive definite A: the stack itself for t = 1,
    identities for t = 0, products of A (`matrix_power`'s squarings) for an
    integer t >= 2, and otherwise one eigendecomposition. Every A needs its
    smallest eigenvalue above the floor tol. At an integer power a Cholesky
    factorisation of A - tol I shows that; where it fails, the
    eigendecomposition runs and judges, as at every other t, and the refusal
    names the smallest eigenvalue. A matrix with a NaN or infinite entry
    has a NaN power, with no factorisation; each other one gets its own."""
    if t == 1:
        return stack
    if t == 0:
        return np.broadcast_to(np.eye(stack.shape[-1], dtype=np.complex128), stack.shape).copy()
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        out = np.full_like(stack, np.nan)
        if finite.any():
            out[finite] = _herm_power_batch(stack[finite], t, tol)
        return out
    if t >= 2 and float(t).is_integer():
        try:
            np.linalg.cholesky(stack - tol * np.eye(stack.shape[-1]))
        except np.linalg.LinAlgError:
            pass
        else:
            return np.linalg.matrix_power(stack, int(t))
    w, V = np.linalg.eigh(stack)
    if w.min() <= tol:
        raise PositivityError(f"matrix power {t} needs positive definite inputs (min eig {w.min():.3g})")
    return (V * (w**t)[..., None, :]) @ np.conjugate(np.swapaxes(V, -1, -2))


@dataclass(frozen=True, eq=False)
class PowerMap:
    """scale * (core(A^pre))^post on positive definite inputs.

    Its image raised to a power a is evaluated as
    scale^a * H(core(A^pre))^(post * a), with H the Hermitian part, since
    (X^p)^q = X^(pq) for positive definite X: one matrix power on each side
    of `core`, whatever a is. `core` must be a LinMap, and pre, post and
    scale are held as finite floats; a scale <= 0 is refused where a power
    is taken of it (`_weighted_image`).
    """

    core: LinMap
    pre: float = 1.0
    post: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.core, LinMap):
            raise InvalidParameterError(f"core must be a LinMap, got {type(self.core).__name__}")
        for name in ("pre", "post", "scale"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))

    @property
    def domain(self) -> SpaceTag:
        return self.core.domain


MapLike = Union[LinMap, PowerMap]


def power_map_apply(map_: MapLike, A: np.ndarray, tol: float = POWER_FLOOR) -> np.ndarray:
    """Evaluate a LinMap or PowerMap on one positive definite matrix, as
    scale * H(core(A^pre))^post with H the Hermitian part. A must be
    Hermitian and positive definite as `_definite_input` judges it, whatever
    pre is; tol is the eigenvalue floor."""
    _check_tol(tol)
    _require_map(map_, "map_", (LinMap, PowerMap))
    return _weighted_image(map_, _definite_input(A, tol), tol=tol)[0]


def _weighted_image(
    map_: MapLike, batch: np.ndarray, a: float = 1.0, b: float = 1.0, tol: float = POWER_FLOOR
) -> np.ndarray:
    """f(B^(1/b))^a on a stack of positive definite B, as
    scale^a * H(core(B^(pre/b)))^(post * a) with H the Hermitian part; a
    LinMap has pre = post = scale = 1. The one evaluation of a weighted factor."""
    if isinstance(map_, LinMap):
        map_ = PowerMap(map_)
    if map_.scale <= 0 and a not in (0, 1):  # scale * X is not positive definite, so it has no power a
        raise PositivityError(f"matrix power {a} needs positive definite inputs (scale {map_.scale:.3g})")
    out = apply_batch(map_.core, _herm_power_batch(batch, map_.pre / b, tol))
    return map_.scale**a * _herm_power_batch(_hermitian_part(out), map_.post * a, tol)


def _trace_of_product(factors: list[np.ndarray]) -> np.ndarray:
    """tr(X_1...X_m) per stack index, as the entrywise pairing of the two
    half-products: m - 2 batched matmuls for m >= 2."""
    if len(factors) == 1:
        return np.einsum("tii->t", factors[0])
    h = len(factors) // 2
    left = functools.reduce(np.matmul, factors[:h])
    right = functools.reduce(np.matmul, factors[h:])
    return np.einsum("tij,tji->t", left, right)


def _weights(alpha, beta, m: int) -> tuple[list, list]:
    """The exponents as finite floats, one of each per map; a zero beta leaves
    the reduced identity on B_i = A_i^beta_i undefined, and so does one whose
    reciprocal, the power of B_i that gives A_i, overflows."""
    try:
        alpha, beta = list(alpha), list(beta)
    except TypeError as exc:
        raise InvalidParameterError(f"alpha and beta must be real numbers ({exc})") from None
    if not all(map(_is_real, alpha + beta)):
        raise InvalidParameterError(f"alpha and beta must be real numbers, got {alpha!r} and {beta!r}")
    alpha, beta = [float(a) for a in alpha], [float(b) for b in beta]
    if len(alpha) != m or len(beta) != m:
        raise DimensionMismatchError("alpha and beta must have one entry per map")
    if not all(map(math.isfinite, alpha + beta)):
        raise InvalidParameterError(f"alpha and beta must be finite, got {alpha} and {beta}")
    if 0 in beta:
        raise InvalidParameterError(f"beta weights must be nonzero, got {beta}")
    if not all(math.isfinite(1.0 / b) for b in beta):
        raise InvalidParameterError(f"beta weights must have finite reciprocals, got {beta}")
    return alpha, beta


def verify_weighted(
    maps,
    alpha,
    beta,
    trials: int = 1000,
    seed: int = 0,
    tol: float = WEIGHTED_TOL,
) -> PreservationReport:
    """Randomized check of tr(f1(A1)^a1 ... fm(Am)^am) = tr(A1^b1 ... Am^bm)
    over positive definite samples. Maps may be plain LinMaps or PowerMaps.
    Slot i samples the positive definite cone over the field of f_i's
    domain, whose span must be full or that cone's: a diagonal or complex
    symmetric domain does not hold the cone, an InvalidParameterError.

    The check runs on the reduced side B_i = A_i^b_i, so every b_i must be
    nonzero: each of the `trials` tuples holds m independent seeded samples
    B_i, drawn `_WEIGHTED_BATCH` tuples at a time, slot by slot; the factor
    g_i(B_i) = f_i(B_i^(1/b_i))^a_i is `_weighted_image`, the map that
    `weighted_reduction` fits, and the right side is tr(B_1 ... B_m).
    Residuals are `check_preservation`'s, and `worst_tuple` holds the
    complex (n, n) matrices A_i = B_i^(1/b_i).
    """
    _check_tol(tol)
    trials = _count(trials, "trials")
    maps = _map_list(maps)
    m = len(maps)
    alpha, beta = _weights(alpha, beta, m)
    _require_maps(maps, (LinMap, PowerMap))
    n = maps[0].domain.n
    if any(f.domain.n != n for f in maps):
        raise DimensionMismatchError("maps must share one matrix size")
    cones = tuple(SpaceTag(SpaceKind.POSDEF, f.domain.field, n) for f in maps)
    for i, (f, cone) in enumerate(zip(maps, cones)):
        dom = span_of(f.domain)
        if dom.kind is not SpaceKind.FULL and dom != span_of(cone):
            raise InvalidParameterError(
                f"map {i} acts on {dom.kind.value} {dom.field.value} matrices, which do not hold the positive "
                "definite cone its slot samples"
            )

    rng = _rng(seed)
    max_res = -1.0
    # an overflow reads as an infinite residual, so it warns nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, trials, _WEIGHTED_BATCH):
            samples = [_random_batch(cone, min(_WEIGHTED_BATCH, trials - done), rng) for cone in cones]
            lhs = _trace_of_product([_weighted_image(f, B, a, b) for f, B, a, b in zip(maps, samples, alpha, beta)])
            res = _residuals(lhs, _trace_of_product(samples))
            j = int(np.argmax(res))
            if res[j] > max_res:
                max_res = float(res[j])
                worst_B = [B[j] for B in samples]
        worst = tuple(herm_power(B, 1.0 / b) for B, b in zip(worst_B, beta))
    return PreservationReport(
        spaces=cones,
        mode=CheckMode.RANDOMIZED,
        trials=trials,
        max_residual=max_res,
        worst_tuple=worst,
        tol=float(tol),
    )


def _odd_scale(c: float, a: float, i: int) -> float:
    """c^(1/a), refused where it overflows or underflows to 0."""
    try:
        scale = c ** (1.0 / a)
    except OverflowError:
        scale = math.inf
    if not 0 < scale < math.inf:
        raise InvalidParameterError(f"scale c_{i + 1}^(1/alpha_{i + 1}) = {c:.4g}^(1/{a:g}) leaves double range")
    return scale


def weighted_canonical_maps(form, alpha, beta, space: SpaceTag) -> list:
    """PowerMaps solving the weighted identity from a Hermitian canonical form.

    For scaled unitary conjugations (HermOdd) the i-th map is
    c_i^(1/a_i) U* A^(b_i/a_i) U, held as c_i^(1/a_i) (U* A^b_i U)^(1/a_i)
    since (U* X U)^q = U* X^q U; for alternating congruences (HermEven) it is
    (f_i(A^b_i))^(1/a_i) with f_i the unweighted canonical map. Either way a
    factor's power a_i cancels the outer 1/a_i, and `verify_weighted`, which
    samples B_i = A^b_i, finds pre / b_i = 1: a factor takes no matrix power.
    Weights must be nonzero, and scalars positive so the fractional powers
    stay on the definite cone.
    """
    if not isinstance(form, (HermOdd, HermEven)):
        raise InvalidParameterError("weighted maps are built from HermOdd or HermEven forms")
    c = form.c
    m = len(c)
    alpha, beta = _weights(alpha, beta, m)
    if 0 in alpha:
        raise InvalidParameterError(f"alpha weights must be nonzero, got {alpha}")
    if any(x <= 0 for x in c):
        raise InvalidParameterError("scalars must be positive for the weighted family")

    if isinstance(form, HermOdd):
        [core] = from_canonical(HermOdd(form.U, (1.0,)), space)
        return [
            PowerMap(core=core, pre=beta[i], post=1.0 / alpha[i], scale=_odd_scale(c[i], alpha[i], i))
            for i in range(m)
        ]
    base = from_canonical(form, space)
    return [PowerMap(core=base[i], pre=beta[i], post=1.0 / alpha[i], scale=1.0) for i in range(m)]


def weighted_reduction(maps, alpha, beta, tol: float = WEIGHTED_TOL, seed: int = 0) -> list:
    """Strip the weights: returns LinMaps g_i(A) = f_i(A^(1/b_i))^(a_i), which
    satisfy the plain trace-product identity whenever the weighted one holds.

    The g_i are linear on the Hermitian span; they are reconstructed from
    their values on a spanning positive definite sample. Every beta must be
    nonzero.
    """
    _check_tol(tol)
    maps = _map_list(maps)
    m = len(maps)
    alpha, beta = _weights(alpha, beta, m)
    _require_maps(maps, (LinMap, PowerMap))
    out = []
    rng = _rng(seed)
    for i in range(m):
        span = span_of(maps[i].domain)
        n = span.n
        extras = random_batch(SpaceTag(SpaceKind.POSDEF, span.field, n), 3, rng)
        A = np.concatenate([reassemble_batch(span, np.eye(span_dim(span))) + 2 * np.eye(n), extras])
        img = _weighted_image(maps[i], A, alpha[i], beta[i])
        out.append(extend_from_subset(span, span, zip(A, img), tol=max(tol * 10, REDUCTION_FLOOR)))
    return out
