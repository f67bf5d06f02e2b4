"""Seeded generators for canonical map tuples and their parameter matrices.

`GenSpec` names a family, size, length, field, and seed; `generate` returns the
canonical form, its realized maps, and the space they act on. Two calls with
equal specs produce bit-identical output (one PCG64 stream per call).
"""
from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameterError, SingularMatrixError
from .linmaps import (
    DiagChain,
    DiagPair,
    Hadamard,
    HermEven,
    HermOdd,
    MnChain,
    NonextendableTriple,
    PnPair,
    RankOneFrame,
    SymEven,
    SymOdd,
    _first_admitting,
    _inverse,
    _require_map,
    from_canonical,
)
from .spaces import (
    CONDITION_BOUND, NONSCALAR_MARGIN,
    Field,
    SpaceKind,
    SpaceTag,
    _check_seed,
    _count,
    _dtype_of,
    _gaussian,
    _is_real,
    _member,
    _rng,
    base_field,
    random_batch,
    span_dim,
)


@dataclass(frozen=True)
class GenSpec:
    """What to generate: family, matrix size, tuple length, field, seed."""

    family: str
    n: int
    m: int
    field: Field = Field.COMPLEX
    seed: int = 0
    condition_bound: float = CONDITION_BOUND

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if not isinstance(self.field, Field):
            object.__setattr__(self, "field", _member(Field, self.field))
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "m", _count(self.m, "m"))
        if not (_is_real(self.condition_bound) and self.condition_bound >= 1):  # NaN fails too
            raise InvalidParameterError("condition_bound must be at least 1")
        _check_seed(self.seed)
        forms = _FAMILY_TABLE[self.family].forms
        if _first_admitting(forms, self.m, self.field) is None:
            raise InvalidParameterError(f"{self.family} needs {', or '.join(map(_hypothesis, forms))}")
        # two rules that are no form's hypothesis: complex symmetric pairs are
        # not canonical, though decompose takes them as SymEven; and the
        # triple's X can be other than scalar only for n >= 2
        if self.family == "sym_even" and self.m == 2 and self.field is Field.COMPLEX:
            raise InvalidParameterError(
                "sym_even needs even m >= 4, or m = 2 over the reals (complex pairs are not canonical)"
            )
        if self.family == "nonextendable" and self.n < 2:
            raise InvalidParameterError("nonextendable needs n >= 2 (X must not be scalar)")


# what `generate` takes, bound here, since a tracer or a test may wrap the name GenSpec
_SPEC_TYPES = (GenSpec,)


def _hypothesis(form) -> str:
    """What `form.admits` asks, in words."""
    r = form.lengths
    parity = ("even ", "odd ")[r.start % 2] if r.step == 2 else ""
    rule = f"m = {r.start}" if len(r) == 1 else f"{parity}m >= {r.start}"
    return f"the complex field and {rule}" if form.complex_only else rule


@dataclass(frozen=True, eq=False)
class Generated:
    """A generated canonical form, its maps, and the space they act on."""

    form: object
    maps: tuple
    space: SpaceTag


# ---------------------------------------------------------------------------
# parameter samplers
# ---------------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, n: int, field: Field) -> np.ndarray:
    return _gaussian((n, n), field is Field.REAL, rng).astype(np.complex128, copy=False)


def _kept(M: np.ndarray, cond_bound: float) -> bool:
    """Whether a draw is kept: its 2-norm condition number is at most
    `cond_bound`, and `linmaps._inverse` accepts it as a parameter (1-norm
    condition number at most `COND_LIMIT`), so `from_canonical` never
    refuses a draw."""
    c = np.linalg.cond(M)
    if not (np.isfinite(c) and c <= cond_bound):
        return False
    try:
        _inverse(M, "M")
    except SingularMatrixError:
        return False
    return True


def random_invertible(
    rng: np.random.Generator, n: int, field: Field = Field.COMPLEX, cond_bound: float = CONDITION_BOUND
) -> np.ndarray:
    """Gaussian invertible matrix, resampled until `_kept`."""
    for _ in range(100):
        M = _ginibre(rng, n, field)
        if _kept(M, cond_bound):
            return M
    raise SingularMatrixError(f"could not sample a matrix with condition below {cond_bound:g}")


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR."""
    Q, R = np.linalg.qr(_gaussian((n, n), False, rng))
    ph = np.diag(R).copy()
    ph = ph / np.abs(ph)
    return Q * ph[None, :]


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed real orthogonal via sign-corrected QR."""
    Q, R = np.linalg.qr(_gaussian((n, n), True, rng))
    s = np.sign(np.diag(R))
    s[s == 0] = 1.0
    return (Q * s[None, :]).astype(np.complex128)


def complex_orthogonal(
    rng: np.random.Generator, n: int, cond_bound: float = CONDITION_BOUND
) -> np.ndarray:
    """Complex orthogonal matrix (O^t O = I), resampled until `_kept`.

    O is the Cayley transform (I + K/2)(I - K/2)^{-1} of a random complex
    skew-symmetric K. The two factors commute, and K^t = -K gives
    O^t = (I + K/2)^{-1}(I - K/2), so O^t O = I in exact arithmetic.
    """
    I = np.eye(n)
    for _ in range(100):
        G = _ginibre(rng, n, Field.COMPLEX)
        K = 0.4 * (G - G.T)
        O = np.linalg.solve(I - K / 2, I + K / 2)
        if _kept(O, cond_bound):
            return O
    raise SingularMatrixError(f"could not sample a complex orthogonal matrix below condition {cond_bound:g}")


def _closing(m: int, product: Callable):
    """1 / product(), which closes the product of an m-tuple's m - 1 draws to
    1. Magnitudes from [0.5, 2] have a positive mean logarithm, so at an m in
    the thousands the product leaves double range: refused, with no warning."""
    with np.errstate(all="ignore"):
        last = 1.0 / product()
    if not (np.all(np.isfinite(last)) and np.all(last != 0)):
        raise InvalidParameterError(f"the product of the scalars drawn for m = {m} left double range")
    return last


def _scalars(
    rng: np.random.Generator,
    m: int,
    field: Field,
    positive: bool = False,
    complex_phase: bool = False,
) -> tuple:
    """m nonzero scalars with product exactly 1."""
    mags = rng.uniform(0.5, 2.0, size=m - 1)
    if complex_phase and field is Field.COMPLEX:
        cast, vals = complex, list(mags * np.exp(1j * rng.uniform(0, 2 * np.pi, size=m - 1)))
    else:
        signs = np.ones(m - 1) if positive else rng.choice([-1.0, 1.0], size=m - 1)
        cast, vals = float, list(mags * signs)
    vals.append(_closing(m, lambda: np.prod(vals)))
    return tuple(cast(v) for v in vals)


def _diag_scalings(rng: np.random.Generator, n: int, m: int, field: Field) -> tuple:
    """m invertible diagonal matrices with product exactly the identity."""
    ds = []
    for _ in range(m - 1):
        mags = rng.uniform(0.5, 2.0, size=n)
        if field is Field.COMPLEX:
            ds.append(mags * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
        else:
            ds.append(mags * rng.choice([-1.0, 1.0], size=n))
    last = _closing(m, lambda: functools.reduce(np.multiply, ds, np.ones(n, dtype=np.complex128)))
    return tuple(np.diag(d) for d in (*ds, last))


def random_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    perm = rng.permutation(n)
    P = np.zeros((n, n))
    P[np.arange(n), perm] = 1.0
    return P


def gen_space_sample(space: SpaceTag, count: int, seed: int = 0) -> np.ndarray:
    """Seeded random elements of a space, shape (count, n, n)."""
    return random_batch(space, count, seed)


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------


def _hadamard_form(rng, n, m, fd, cb, pos):
    G = _gaussian((n, n), True, rng)
    S = (G + G.T) / 2
    return Hadamard(np.where(S >= 0, 1.0, -1.0) * (0.3 + np.abs(S)))


def _nonextendable_form(rng, n, m, fd, cb, pos):
    X = _ginibre(rng, n, fd)
    while np.linalg.norm(X - (np.trace(X) / n) * np.eye(n)) < NONSCALAR_MARGIN:
        X = _ginibre(rng, n, fd)
    return NonextendableTriple(X)


# one sampler per form class: (rng, n, m, field, condition_bound, pos) -> a
# form of that class, with positive scalars where `pos` (the cone's)
_SAMPLERS = {
    MnChain: lambda rng, n, m, fd, cb, pos: MnChain(tuple(random_invertible(rng, n, fd, cb) for _ in range(m))),
    HermOdd: lambda rng, n, m, fd, cb, pos: HermOdd(haar_unitary(rng, n), _scalars(rng, m, fd, pos)),
    HermEven: lambda rng, n, m, fd, cb, pos: HermEven(random_invertible(rng, n, fd, cb), _scalars(rng, m, fd, pos)),
    PnPair: lambda rng, n, m, fd, cb, pos: PnPair(random_invertible(rng, n, fd, cb), bool(rng.integers(0, 2))),
    SymOdd: lambda rng, n, m, fd, cb, pos: SymOdd(
        complex_orthogonal(rng, n, cb) if fd is Field.COMPLEX else haar_orthogonal(rng, n),
        _scalars(rng, m, fd, pos, complex_phase=True),
    ),
    SymEven: lambda rng, n, m, fd, cb, pos: SymEven(
        random_invertible(rng, n, fd, cb), _scalars(rng, m, fd, pos, complex_phase=True)
    ),
    DiagPair: lambda rng, n, m, fd, cb, pos: DiagPair(random_invertible(rng, n, fd, cb)),
    DiagChain: lambda rng, n, m, fd, cb, pos: DiagChain(random_permutation(rng, n), _diag_scalings(rng, n, m, fd)),
    Hadamard: _hadamard_form,
    RankOneFrame: lambda rng, n, m, fd, cb, pos: RankOneFrame([random_invertible(rng, n, fd, cb) for _ in range(n)]),
    NonextendableTriple: _nonextendable_form,
}


class _Family(NamedTuple):
    """A generator family: the span kind of its maps and its form classes, of
    which `generate` draws the first that admits (m, field)."""

    kind: SpaceKind
    forms: tuple
    positive: bool = False  # the definite cone's chains: their scalars are positive


_FAMILY_TABLE = {
    "mn_chain": _Family(SpaceKind.FULL, (MnChain,)),
    "herm_odd": _Family(SpaceKind.HERMITIAN, (HermOdd,)),
    "herm_even": _Family(SpaceKind.HERMITIAN, (HermEven,)),
    "pn_pair": _Family(SpaceKind.POSDEF, (PnPair,)),
    "pn_chain": _Family(SpaceKind.POSDEF, (PnPair, HermOdd, HermEven, SymOdd, SymEven), positive=True),
    "sym_odd": _Family(SpaceKind.SYMMETRIC, (SymOdd,)),
    "sym_even": _Family(SpaceKind.SYMMETRIC, (SymEven,)),
    "diag_pair": _Family(SpaceKind.DIAGONAL, (DiagPair,)),
    "diag_chain": _Family(SpaceKind.DIAGONAL, (DiagChain,)),
    "hadamard": _Family(SpaceKind.FULL, (Hadamard,)),
    "rank_one_frame": _Family(SpaceKind.FULL, (RankOneFrame,)),
    "nonextendable": _Family(SpaceKind.FULL, (NonextendableTriple,)),
}

FAMILIES = tuple(_FAMILY_TABLE)


def _physical_memory() -> int | None:
    """Bytes of physical memory, where the platform reports them."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


# bytes that every generated map holds beside its transfer's entries: the
# LinMap, its attribute dict and the transfer's array header. Held per map
# after `generate`, by tracemalloc, over every family at n <= 3: 264 to
# 1 060 bytes above the entries.
_MAP_BYTES = 256


def _tuple_bytes(m: int, space: SpaceTag, per_map_parameter: bool = False) -> int:
    """A lower bound on the bytes that a generated tuple of m maps holds, each
    with one complex n x n parameter (MnChain.N, DiagChain.C), its entries and
    its array header, when `per_map_parameter`."""
    itemsize = np.dtype(_dtype_of(base_field(space))).itemsize
    parameter = space.n**2 * 16 + sys.getsizeof(np.empty((0, 0), np.complex128)) if per_map_parameter else 0
    return m * (span_dim(space) ** 2 * itemsize + _MAP_BYTES + parameter)


def _require_fits(m: int, space: SpaceTag, per_map_parameter: bool = False) -> None:
    """Refuse a tuple that needs more bytes than physical memory holds, by
    `_tuple_bytes`, before anything is drawn: each map alone is small at a
    large m, so no single allocation would fail, and sampling would run
    until the machine ran out. An n x n parameter too large for numpy to
    address is left to numpy, which refuses the first draw by arithmetic
    (ValueError)."""
    if space.n * space.n * 16 > np.iinfo(np.intp).max:
        return
    need = _tuple_bytes(m, space, per_map_parameter)
    total = _physical_memory()
    if total is not None and need > total:
        raise InvalidParameterError(
            f"the {m} maps of this tuple need {need / 1e9:.3g} GB, "
            f"more than the {total / 1e9:.3g} GB of physical memory"
        )


def generate(spec: GenSpec) -> Generated:
    """Generate the canonical form and maps named by `spec`, deterministically.
    A tuple whose maps cannot fit in physical memory is refused first
    (InvalidParameterError)."""
    _require_map(spec, "spec", _SPEC_TYPES)
    family = _FAMILY_TABLE[spec.family]
    form_class = _first_admitting(family.forms, spec.m, spec.field)
    space = SpaceTag(family.kind, spec.field, spec.n)
    _require_fits(spec.m, space, form_class in (MnChain, DiagChain))
    sample = _SAMPLERS[form_class]
    form = sample(_rng(spec.seed), spec.n, spec.m, spec.field, spec.condition_bound, family.positive)
    return Generated(form=form, maps=tuple(from_canonical(form, space)), space=space)
