"""Linear maps between matrix spaces, stored as transfer matrices.

A LinMap holds the matrix of the map with respect to the canonical bases of the
domain and codomain spans, over their common base field (real for Hermitian-kind
coordinates). Canonical parametrized families (conjugation chains, scaled
congruences, permutation-scaling chains, diagonal pairs, Hadamard multipliers,
rank-one frames, and the non-extendable corner triple) are realized through
`from_canonical`.

Every canonical form states its validated sides and, for each map of its
tuple, a scalar c_i and the side it scales (`_Realisation`); each side is
realised once and map i is c_i times that side's transfer. One kernel,
`_congruence_transfer`, writes the transfer of A -> L op(A) R straight in
(codomain, domain) order. On M_n in row-major coordinates it is the
Kronecker product L (x) R^t, one broadcast multiply; on diagonals it is
L * R^t read on the diagonal. On Hermitian and symmetric spans it reads the
transfer of the adjoint map, whose images are sums of at most two outer
products, off their coordinates (`spaces._basis_terms`) and rescales it by
the basis norms^2, 1 or 2, exactly. `transpose_map` is the kernel with
identity sides. The change between Hermitian coordinates and matrix entries
(`complexify`) is a row and a column gather of the basis terms and of
`spaces._entry_terms`, with weights 1, +-i and 1/2. No path here reads the
dense basis stack.

Span membership is checked where matrices come from outside, by
`spaces._span_coords`: `linmap_from_images`, `apply` and
`extend.extend_from_subset`. Realised maps
(canonical forms, `transpose_map`) are written straight from their
transfers: a congruence by (M*, M) or (M^t, M) keeps Hermitian and symmetric
matrices so, one by a permutation with diagonal scalings keeps diagonal ones,
and a full codomain holds every image, so those images lie in the span by
construction.
"""
from __future__ import annotations

import functools
import operator
import reprlib
import sys
import warnings
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    SingularMatrixError,
)
from .spaces import (
    CANONICAL_TOL, COND_LIMIT, DEFAULT_TOL, IMAGE_SPAN_TOL, PRODUCT_FLOOR, REAL_PARAM_TOL, REAL_TRANSFER_TOL,
    STRUCTURE_FLOOR,
    Field,
    SpaceKind,
    SpaceTag,
    base_field,
    coords_batch,
    reassemble_batch,
    span_dim,
    span_of,
    _basis_terms,
    _check_space,
    _check_tol,
    _dtype_of,
    _entry_terms,
    _is_real,
    _items,
    _numeric,
    _reassemble,
    _span_coords,
    _span_deviation,
    _stack,
)

# entries of a side's transfer that the rebuild, and the kernel on a Hermitian or
# symmetric span, realise at a time
_BLOCK_ENTRIES = 2**15


def _as_param(M, name: str) -> np.ndarray:
    M = _numeric(M, name, "a square matrix").astype(np.complex128, copy=False)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParameterError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidParameterError(f"{name} has non-finite entries")
    return M


def _inverse(M: np.ndarray, name: str, limit: float = COND_LIMIT) -> np.ndarray:
    """X = inv(M), judged by the 1-norm condition number k1 = |M|_1 |X|_1
    that the one LU of the inverse gives at O(d^2) more work, with no SVD.

    SingularMatrixError naming M as `name` when M is exactly singular (k1 is
    inf), when k1 is not finite (a NaN or inf entry) or when it is above
    `limit`: `COND_LIMIT` for parameters, 1/max(tol, `DUALIZE_TOL_FLOOR`) in
    `extend.dualize`. The 2-norm condition number k2 satisfies
    k2 <= k1 <= d k2 on d x d matrices, and they agree on diagonal ones.
    """
    try:
        with np.errstate(all="ignore"):
            X = np.linalg.inv(M)
            c = np.linalg.norm(M, 1) * np.linalg.norm(X, 1)
    except np.linalg.LinAlgError:  # an exactly singular M
        c = np.inf
    if not c <= limit:  # NaN fails too
        raise SingularMatrixError(
            f"{name} is singular or has condition number above {limit:g} (1-norm condition number {c:.3g})"
        )
    return X


@dataclass(frozen=True, eq=False)
class LinMap:
    """A linear map between matrix spaces in canonical coordinates."""

    domain: SpaceTag
    codomain: SpaceTag
    transfer: np.ndarray

    def __post_init__(self):
        _check_space(self.domain, "domain")
        _check_space(self.codomain, "codomain")
        bf_dom = base_field(self.domain)
        if bf_dom is not base_field(self.codomain):
            raise InvalidParameterError(
                f"domain and codomain must share a base field, got {bf_dom.value} vs "
                f"{base_field(self.codomain).value}"
            )
        T = _numeric(self.transfer, "transfer")
        shape = (span_dim(self.codomain), span_dim(self.domain))
        if T.shape != shape:
            raise DimensionMismatchError(f"transfer must have shape {shape}, got {T.shape}")
        T = _in_field(bf_dom, T)
        if not np.all(np.isfinite(T)):
            raise InvalidParameterError("transfer has non-finite entries")
        T.setflags(write=False)
        object.__setattr__(self, "transfer", T)


def _require_map(value, what: str, kinds: tuple = (LinMap,)) -> None:
    """The one map rule: refuse, naming `what`, anything but an instance of `kinds`."""
    if not isinstance(value, kinds):
        raise InvalidParameterError(f"{what} is not a {' or '.join(k.__name__ for k in kinds)}")


def _require_maps(maps, kinds: tuple = (LinMap,)) -> list:
    """The tuple-of-maps rule: `maps`, a nonempty iterable of instances of `kinds`, as a list (`_items`)."""
    maps = _items(maps, "maps must be an iterable of maps")
    if not maps:
        raise InvalidParameterError("need at least one map")
    for i, f in enumerate(maps):
        _require_map(f, f"maps[{i}]", kinds)
    return maps


def _in_field(field: Field, T: np.ndarray) -> np.ndarray:
    """T as a contiguous float64 (real `field`) or complex128 array, copied
    only when it is neither; a real field refuses imaginary parts above
    `REAL_TRANSFER_TOL` times max(1, largest entry)."""
    if field is Field.REAL:
        if np.iscomplexobj(T):
            if T.size and np.max(np.abs(T.imag)) > REAL_TRANSFER_TOL * max(1.0, np.max(np.abs(T))):
                raise InvalidParameterError("transfer for real-coordinate spaces must be real")
            T = T.real
    return np.ascontiguousarray(T, dtype=_dtype_of(field))


def identity_map(space: SpaceTag) -> LinMap:
    return LinMap(space, space, np.eye(span_dim(space), dtype=_dtype_of(base_field(space))))


def compose(f: LinMap, g: LinMap) -> LinMap:
    """The map f after g."""
    _require_map(f, "f")
    _require_map(g, "g")
    if f.domain != g.codomain:
        raise DimensionMismatchError(f"cannot compose: domain of f is {f.domain}, codomain of g is {g.codomain}")
    return LinMap(g.domain, f.codomain, f.transfer @ g.transfer)


def apply(map_: LinMap, A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the map on A, which must lie in the span of the domain within
    tol times max(1, largest entry of A) (`spaces._span_coords`)."""
    _check_tol(tol)
    _require_map(map_, "map_")
    x = _span_coords(map_.domain, _numeric(A, "A").astype(np.complex128, copy=False)[None], tol, "input")
    return reassemble_batch(map_.codomain, x @ map_.transfer.T)[0]


def apply_batch(map_: LinMap, batch: np.ndarray) -> np.ndarray:
    """Evaluate the map on a (count, n, n) stack without membership checks."""
    _require_map(map_, "map_")
    return _apply_batch(map_, batch, np.complex128)


def _apply_batch(map_: LinMap, batch: np.ndarray, dtype) -> np.ndarray:
    """`apply_batch` with the images built in `dtype`."""
    return _apply_coords(map_, coords_batch(map_.domain, batch), dtype)


def _apply_coords(map_: LinMap, x: np.ndarray, dtype) -> np.ndarray:
    """The images, built in `dtype`, of the domain elements whose span
    coordinates are the rows of x."""
    return _reassemble(map_.codomain, x @ map_.transfer.T, dtype)


def image_stack(map_: LinMap) -> np.ndarray:
    """(d, k, k) images of the domain's canonical basis elements."""
    _require_map(map_, "map_")
    return reassemble_batch(map_.codomain, map_.transfer.T)


def linmap_from_images(domain: SpaceTag, codomain: SpaceTag, images, tol: float = IMAGE_SPAN_TOL) -> LinMap:
    """Build the map sending the k-th canonical basis element to images[k].

    Each image must lie in the span of the codomain within tol (relative to its
    own scale); that is what makes the transfer faithful. This is the checked
    constructor for images from outside. Canonical forms and `transpose_map`
    write their transfers directly, unchecked, as their images lie in the
    span by construction.
    """
    _check_tol(tol)
    _check_space(domain, "domain")
    _check_space(codomain, "codomain")
    d, k = span_dim(domain), codomain.n
    shape = f"images must be {k} x {k}"
    images = _stack(images, "images", shape).astype(np.complex128, copy=False)
    if images.ndim and len(images) != d:
        raise DimensionMismatchError(f"need {d} images, got {len(images)}")
    if images.shape[1:] != (k, k):
        raise DimensionMismatchError(f"{shape}, got shape {images.shape[1:]}")
    return LinMap(domain, codomain, _span_coords(codomain, images, tol, "image").T)


def is_hermitian_preserving(map_: LinMap, tol: float = DEFAULT_TOL) -> bool:
    """Whether the map sends Hermitian matrices to Hermitian matrices: each
    image within tol times max(1, largest entry of any image) of the
    Hermitian span, by `spaces._span_deviation`.

    It checks a Hermitian spanning set of the domain span: the span's own
    basis, or on a full span the Hermitian (over R the symmetric) basis,
    gathered from its terms.
    """
    _check_tol(tol)
    _require_map(map_, "map_")
    dom, x = span_of(map_.domain), map_.transfer.T
    if dom.kind is SpaceKind.FULL:
        x = _gather(_basis_terms(SpaceTag(SpaceKind.HERMITIAN, dom.field, dom.n)), map_.transfer, axis=1).T
    img = reassemble_batch(map_.codomain, x)
    scale = max(1.0, float(np.max(np.abs(img))))
    _, dev = _span_deviation(SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, map_.codomain.n), img)
    return bool(np.max(dev) <= tol * scale)


def _gather(terms: tuple, Y: np.ndarray, axis: int) -> np.ndarray:
    """P @ Y (axis 0) or Y @ P^t (axis 1) for the matrix P whose rows
    `spaces._row_terms` gave as (idx, w): one weighted gather per term."""
    idx, w = terms
    if axis == 0:
        w = w[:, :, None]
    out = np.take(Y, idx[:, 0], axis=axis) * w[:, 0]
    for t in range(1, idx.shape[1]):
        out += np.take(Y, idx[:, t], axis=axis) * w[:, t]
    return out


class _HermChange(NamedTuple):
    """Row terms of the inverse S^-1 = D^-1 S^* of the change S from the
    Hermitian coordinates of M_n to its entries (column k is vec(H_k)), D the
    squared norms of the H_k, and of its transpose. The rows and columns of S
    are `_entry_terms` and `_basis_terms` of the Hermitian span."""

    S_inv_rows: tuple
    S_inv_cols: tuple


@functools.lru_cache(maxsize=None)
def _herm_change(n: int) -> _HermChange:
    """`_HermChange` for M_n: weights 1, +-i and 1/2 and no dense n^2 x n^2
    change of basis kept."""
    herm = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, n)
    (idx, w), (entry_idx, entry_w) = _basis_terms(herm), _entry_terms(herm)
    norms = np.sum(np.abs(w) ** 2, axis=1)
    inv_rows, inv_cols = w.conj() / norms[:, None], entry_w.conj() / norms[entry_idx]
    inv_rows.setflags(write=False)
    inv_cols.setflags(write=False)
    return _HermChange((idx, inv_rows), (entry_idx, inv_cols))


def _row_blocks(space: SpaceTag, rows: int | None = None) -> list[slice]:
    """Slices of about `_BLOCK_ENTRIES` entries each that cover `rows` rows
    (all of them by default) of a transfer on the span of `space`, each a
    whole number of rows of L on M_n: the one block rule of the realisation
    kernel and of `decompose`'s rebuild."""
    n, d = space.n, span_dim(space)
    step = n * max(1, _BLOCK_ENTRIES // (n * d))
    return [slice(start, start + step) for start in range(0, d if rows is None else rows, step)]


def _congruence_transfer(
    space: SpaceTag, L: np.ndarray, R: np.ndarray, transpose: bool = False, rows: slice = slice(None)
) -> np.ndarray:
    """Rows `rows` (all by default) of the transfer of A -> L op(A) R on the
    span of `space`, op(A) = A^t when `transpose`, as a new writeable array
    in the coordinates' dtype. On M_n the row bounds must be multiples of n.
    The sides must keep the span; a real span reads their real parts.

    - M_n, row-major: T[(i, j), (p, q)] = L[i, p] R[q, j], the Kronecker
      product L (x) R^t (op swaps p and q), one broadcast multiply.
    - Diagonals: T[a, k] = L[a, k] R[k, a].
    - Hermitian and symmetric spans: coordinate a of f(B_k) is <B_a, f(B_k)>
      over g_a = <B_a, B_a>, so T[a, k] = X[a, k] g_k / g_a, where row a of X
      holds the coordinates of f*(B_a) = adj(L) B_a adj(R), with adj the
      adjoint (Hermitian) or the transpose (symmetric). Each f*(B_a) is a sum
      of at most two outer products of basis terms, and g is 1 on the
      diagonal units and 2 on the pairs, so the rescaling is exact. On a
      Hermitian span op fixes the diagonal and symmetric elements and
      negates the skew ones; on a symmetric span it is the identity. The
      rows are written into the result in `_row_blocks`, since a whole
      side's (d, n, n) image stack outgrows the cache.
    """
    s = span_of(space)
    n = s.n
    start, stop, _ = rows.indices(span_dim(s))
    if s.field is Field.REAL:
        L, R = L.real, R.real
    dtype = _dtype_of(base_field(s))
    if s.kind is SpaceKind.DIAGONAL:
        return np.multiply(L[start:stop], R.T[start:stop], dtype=dtype)
    if s.kind is SpaceKind.FULL:
        Li, Rt = L[start // n : stop // n], np.ascontiguousarray(R.T)
        T = np.empty((len(Li), n, n, n), dtype=dtype)
        if transpose:
            np.multiply(Li[:, None, None, :], Rt[None, :, :, None], out=T)
        else:
            np.multiply(Li[:, None, :, None], Rt[None, :, None, :], out=T)
        return T.reshape(stop - start, n * n)
    herm = s.kind is SpaceKind.HERMITIAN
    idx, w = (terms[start:stop] for terms in _basis_terms(s))
    i, j = np.divmod(idx, n)
    # (count, t, n): column i of adj(L) is row i of L, conjugated on a Hermitian span, and so for R
    left, right = (L.conj(), R.T.conj()) if herm else (L, R.T)
    T = np.empty((stop - start, span_dim(s)), dtype=dtype)
    for b in _row_blocks(s, stop - start):
        T[b] = coords_batch(s, np.matmul((w[b, :, None] * left[i[b]]).transpose(0, 2, 1), right[j[b]]))
    pairs = max(0, n - start)  # the local row where the pair elements begin
    T[:pairs, n:] *= 2.0
    T[pairs:, :n] *= 0.5
    if herm and transpose:
        T[:, n + 1 :: 2] *= -1.0
    return T


def complexify(map_: LinMap) -> LinMap:
    """Complex-linear extension of a real-linear map on Hermitian matrices.

    A real-linear map on Hermitian n x n matrices extends uniquely to a
    complex-linear map on all of M_n via A+iB -> f(A)+i f(B); the Hermitian
    basis is also a complex basis of M_n, so this is the change of
    coordinates S_cod T S_dom^-1, built as one row and one column gather.
    """
    _require_map(map_, "map_")
    dom = span_of(map_.domain)
    cod = span_of(map_.codomain)
    if dom.kind is not SpaceKind.HERMITIAN or cod.kind is not SpaceKind.HERMITIAN:
        raise InvalidParameterError("complexify expects Hermitian-kind domain and codomain")
    full_dom = SpaceTag(SpaceKind.FULL, Field.COMPLEX, dom.n)
    full_cod = SpaceTag(SpaceKind.FULL, Field.COMPLEX, cod.n)
    rows = _gather(_entry_terms(cod), map_.transfer, axis=0)
    return LinMap(full_dom, full_cod, _gather(_herm_change(dom.n).S_inv_cols, rows, axis=1))


def transpose_map(space: SpaceTag) -> LinMap:
    """A -> A^t on a full matrix space."""
    if span_of(space).kind is not SpaceKind.FULL:
        raise InvalidParameterError("transpose_map expects a full matrix space")
    eye = np.eye(space.n, dtype=_dtype_of(base_field(space)))
    return LinMap(space, space, _congruence_transfer(space, eye, eye, transpose=True))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _tuple_of_matrices(mats, name: str) -> tuple:
    mats = _items(mats, f"{name} must be a sequence of matrices")
    out = tuple(_as_param(M, f"{name}[{i}]") for i, M in enumerate(mats))
    if not out:
        raise InvalidParameterError(f"{name} must be nonempty")
    sizes = {M.shape[0] for M in out}
    if len(sizes) != 1:
        raise DimensionMismatchError(f"{name} entries must share one size, got {sorted(sizes)}")
    return out


def _numbers(kind: type, what: str, values, name: str) -> tuple:
    """`values` as a tuple of `kind` numbers, refused, naming `name`, unless each is a `what` number:
    a real one by `spaces._is_real`, and for a complex `kind` a Python or numpy complex too."""
    values = _items(values, f"{name} must be a sequence of {what} numbers")
    for x in values:
        if not (_is_real(x) or kind is complex and isinstance(x, (complex, np.complexfloating))):
            raise InvalidParameterError(f"{name} must be a sequence of {what} numbers, got {reprlib.repr(x)}")
    return tuple(map(kind, values))


def _flag(value, name: str) -> bool:
    # bool(value) would read the string "false" as True
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be a boolean, got {reprlib.repr(value)}")
    return bool(value)


# How a form parameter is normalised, keyed by its annotation. The JSON codec
# in jsonio reads the same annotations.
_NORMALIZE = {
    "np.ndarray": _as_param,
    "tuple[np.ndarray, ...]": _tuple_of_matrices,
    "tuple[float, ...]": functools.partial(_numbers, float, "real"),
    "tuple[complex, ...]": functools.partial(_numbers, complex, "complex"),
    "bool": _flag,
}


class _Realisation(NamedTuple):
    """A validated form, ready to realise: map i of its tuple is
    `slots[i][0]` times the transfer of side `slots[i][1]`. A side is a
    callable that returns the rows `rows` of its transfer (a slice, all
    rows by default) and is realised once, however many maps scale it.
    Only `decompose`'s rebuild asks for rows, so a form that it never
    rebuilds builds each transfer whole and hands it over by `_given`."""

    codomain: SpaceTag
    sides: tuple
    slots: tuple


@dataclass(frozen=True, eq=False)
class _Form:
    """What every canonical form shares.

    `kinds` are the span kinds the form acts on and `complex_only` says whether
    it exists only over the complex field. `from_canonical` checks those, the
    parameter size and real parameters on a real space; `realisation` checks
    the parameters' structure and states the form's sides and slots, and
    `invariants` states what makes its maps preservers. Each form's `lengths`
    are the tuple lengths m at which the paper's theorem gives it (an open
    range stops at `sys.maxsize`, which no tuple reaches): with
    `complex_only`, they are its hypothesis, which `admits` asks and both
    `generate` and `decompose` route by (`_first_admitting`).
    """

    kinds: ClassVar[frozenset] = frozenset()
    complex_only: ClassVar[bool] = False
    lengths: ClassVar[range]

    @classmethod
    def admits(cls, m: int, field: Field) -> bool:
        """Whether an m-tuple over `field` meets the form's hypothesis. A range
        tests a Python int in O(1), and any other number entry by entry."""
        return operator.index(m) in cls.lengths and (field is Field.COMPLEX or not cls.complex_only)

    def __init_subclass__(cls, **kwargs):
        # each form is, as this base is, a frozen dataclass compared by identity
        super().__init_subclass__(**kwargs)
        dataclass(frozen=True, eq=False)(cls)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _NORMALIZE[f.type](getattr(self, f.name), f.name))

    def invariants(self) -> tuple:
        """(requirement, deviation, floor) for each invariant of the
        parameters: `from_canonical` rejects a deviation above max(tol,
        floor), and `decompose` certifies a rebuild only when each is tiny."""
        return ()


def _adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def _scalar_invariant(c) -> tuple:
    """The invariant of scalars c_i: their product is 1."""
    return "the scalar product must be 1", abs(np.prod(np.asarray(c, dtype=np.complex128)) - 1.0), PRODUCT_FLOOR


def _isometry_invariant(what: str, U: np.ndarray, adjoint) -> tuple:
    """The invariant adjoint(U) U = I of a unitary or orthogonal U."""
    return what, np.max(np.abs(adjoint(U) @ U - np.eye(len(U)))), STRUCTURE_FLOOR


def _congruences(space: SpaceTag, sides, slots, transpose: bool = False) -> _Realisation:
    """The realisation of the congruences A -> L op(A) R, one side per (L, R)."""
    return _Realisation(
        space, tuple(functools.partial(_congruence_transfer, space, L, R, transpose) for L, R in sides), slots
    )


def _scaled(space: SpaceTag, sides, c, transpose: bool = False) -> _Realisation:
    """c_i L op(A) R with (L, R) = sides[i % len(sides)], for finite nonzero
    c_i; a real span reads their real parts."""
    if not all(np.isfinite(x) and x != 0 for x in c):
        raise InvalidParameterError("scalars must be finite and nonzero")
    if base_field(space) is Field.REAL:
        c = [float(np.real(x)) for x in c]
    return _congruences(space, sides, tuple((x, i % len(sides)) for i, x in enumerate(c)), transpose)


def _alternating(space: SpaceTag, M, adjoint, c, transpose: bool = False) -> _Realisation:
    """c_i adjoint(M) op(A) M on odd slots, c_i M^{-1} op(A) adjoint(M^{-1}) on even slots."""
    Minv = _inverse(M, "M")
    return _scaled(space, ((adjoint(M), M), (Minv, adjoint(Minv))), c, transpose)


def _given(T: np.ndarray):
    """The side whose transfer is T."""
    return lambda rows=slice(None): T[rows]


def _unscaled(count: int) -> tuple:
    """The slots of a tuple whose map i is side i."""
    return tuple((1.0, i) for i in range(count))


def _scaled_slot(c, T: np.ndarray) -> np.ndarray:
    """Map transfer c T of a side's transfer T; T itself when c is 1."""
    return T if c == 1 else c * T


class MnChain(_Form):
    """phi_i(A) = N_i A N_{i+1}^{-1}, indices cyclic with N_{m+1} = N_1."""

    N: tuple[np.ndarray, ...]
    kinds = frozenset({SpaceKind.FULL})
    lengths = range(3, sys.maxsize)

    def realisation(self, space, tol):
        invs = [_inverse(N, f"N[{i}]") for i, N in enumerate(self.N)]
        m = len(self.N)
        return _congruences(space, [(N, invs[(i + 1) % m]) for i, N in enumerate(self.N)], _unscaled(m))


class HermOdd(_Form):
    """phi_i(A) = c_i U* A U with U unitary and real nonzero c_i, product 1."""

    U: np.ndarray
    c: tuple[float, ...]
    kinds = frozenset({SpaceKind.HERMITIAN})
    lengths = range(3, sys.maxsize, 2)
    complex_only = True

    def realisation(self, space, tol):
        return _scaled(space, ((_adjoint(self.U), self.U),), self.c)

    def invariants(self):
        return _isometry_invariant("U must be unitary", self.U, _adjoint), _scalar_invariant(self.c)


class HermEven(_Form):
    """Alternating c_i M* A M (odd slots) and c_i M^{-1} A M^{-*} (even slots)."""

    M: np.ndarray
    c: tuple[float, ...]
    kinds = frozenset({SpaceKind.HERMITIAN})
    lengths = range(4, sys.maxsize, 2)
    complex_only = True

    def realisation(self, space, tol):
        return _alternating(space, self.M, _adjoint, self.c)

    def invariants(self):
        return (_scalar_invariant(self.c),)


class PnPair(_Form):
    """phi(A) = M* A M (or M* A^t M) with partner M^{-1} A M^{-*} (resp. with A^t)."""

    M: np.ndarray
    transpose: bool = False
    kinds = frozenset({SpaceKind.HERMITIAN})
    lengths = range(2, 3)
    complex_only = True

    def realisation(self, space, tol):
        return _alternating(space, self.M, _adjoint, (1.0, 1.0), self.transpose)


class SymOdd(_Form):
    """phi_i(A) = c_i O^t A O with O (complex) orthogonal and nonzero c_i, product 1."""

    O: np.ndarray
    c: tuple[complex, ...]
    kinds = frozenset({SpaceKind.SYMMETRIC})
    lengths = range(3, sys.maxsize, 2)

    def realisation(self, space, tol):
        return _scaled(space, ((self.O.T, self.O),), self.c)

    def invariants(self):
        return _isometry_invariant("O must be orthogonal", self.O, np.transpose), _scalar_invariant(self.c)


class SymEven(_Form):
    """Alternating c_i M^t A M (odd slots) and c_i M^{-1} A M^{-t} (even slots)."""

    M: np.ndarray
    c: tuple[complex, ...]
    kinds = frozenset({SpaceKind.SYMMETRIC})
    lengths = range(2, sys.maxsize, 2)

    def realisation(self, space, tol):
        return _alternating(space, self.M, np.transpose, self.c)

    def invariants(self):
        return (_scalar_invariant(self.c),)


class DiagPair(_Form):
    """On diagonals: phi_1 acts as N on the diagonal vector, phi_2 as N^{-t}."""

    N: np.ndarray
    kinds = frozenset({SpaceKind.DIAGONAL})
    lengths = range(2, 3)

    def realisation(self, space, tol):
        field = base_field(space)
        N = _in_field(field, self.N)
        partner = _in_field(field, _inverse(self.N, "N").T)
        return _Realisation(space, (_given(N), _given(partner)), _unscaled(2))


class DiagChain(_Form):
    """phi_i(A) = C_i P^t A P with a shared permutation P and diagonal C_i, product I."""

    P: np.ndarray
    C: tuple[np.ndarray, ...]
    kinds = frozenset({SpaceKind.DIAGONAL})
    lengths = range(3, sys.maxsize)

    def realisation(self, space, tol):
        P = np.round(self.P.real) + 0.0  # + 0.0 turns the -0 of a small negative entry into 0
        if np.max(np.abs(self.P - P)) > max(tol, STRUCTURE_FLOOR) or not _is_permutation(P):
            raise InvalidParameterError("P must be a permutation matrix")
        diags = []
        for i, C in enumerate(self.C):
            d = np.diag(C)  # read once: the diagonality check, k1 and the side share it
            if np.max(np.abs(C - np.diag(d))) > max(tol, STRUCTURE_FLOOR):
                raise InvalidParameterError(f"C[{i}] must be diagonal")
            a = np.abs(d)
            # k1 of a diagonal C_i, at O(n): through `_inverse`, decompose of diag_chain n = 32 took ~1.5x as long
            if np.min(a) == 0 or np.max(a) / np.min(a) > COND_LIMIT:
                raise SingularMatrixError(f"C[{i}] is singular or has condition number above {COND_LIMIT:g}")
            diags.append(d.real if space.field is Field.REAL else d)
        # realised from the structure just validated, the rounded P and the
        # diagonals of the C_i (their real parts on a real span, as the kernel
        # reads it), so the images are diagonal exactly
        return _congruences(space, [(d[:, None] * P.T, P) for d in diags], _unscaled(len(diags)))

    def invariants(self):
        # on the diagonals, which are all that the realised maps use
        prod = np.prod([np.diag(C) for C in self.C], axis=0)
        return (("the product of the C_i must be the identity", np.max(np.abs(prod - 1.0)), PRODUCT_FLOOR),)


class Hadamard(_Form):
    """Entrywise multiplier pair: A -> A o C and A -> A o C^ with C^_ij = 1/C_ij."""

    C: np.ndarray
    kinds = frozenset({SpaceKind.FULL})
    lengths = range(2, 3)

    @property
    def real_family(self) -> bool:
        """True when C is real symmetric, the exactly characterized family."""
        return bool(np.max(np.abs(self.C.imag)) <= REAL_PARAM_TOL)

    def realisation(self, space, tol):
        C = self.C
        if np.max(np.abs(C - C.T)) > max(tol, STRUCTURE_FLOOR):
            raise InvalidParameterError("C must be symmetric")
        if np.min(np.abs(C)) == 0:
            raise InvalidParameterError("C must have no zero entries")
        if not self.real_family:
            if space.field is Field.REAL:
                raise InvalidParameterError("complex C on a real space")
            warnings.warn(
                "complex symmetric Hadamard parameter: outside the exactly characterized "
                "real-symmetric family",
                stacklevel=4,
            )
        flat = C.reshape(-1)
        sides = (_given(_in_field(base_field(space), np.diag(v))) for v in (flat, 1.0 / flat))
        return _Realisation(space, tuple(sides), _unscaled(2))


class RankOneFrame(_Form):
    """phi(E_ij) = E_ij A_i paired with psi(E_ij) = A_j^{-1} E_ij."""

    A: tuple[np.ndarray, ...]
    kinds = frozenset({SpaceKind.FULL})
    lengths = range(2, 3)

    def realisation(self, space, tol):
        n = space.n
        if len(self.A) != n:
            raise DimensionMismatchError(f"RankOneFrame needs n={n} matrices, got {len(self.A)}")
        A = np.stack(self.A)
        Ainv = np.stack([_inverse(Ai, f"A[{i}]") for i, Ai in enumerate(self.A)])
        if space.field is Field.REAL:
            A, Ainv = A.real, Ainv.real
        r = np.arange(n)
        # row-major T[(p, q), (i, j)]: phi(E_ij) = e_i (row j of A_i) fills
        # T[i, :, i, :] with A_i^t, psi(E_ij) = (column i of A_j^{-1}) e_j^t
        # fills T[:, j, :, j] with A_j^{-1}
        phi, psi = (np.zeros((n, n, n, n), dtype=A.dtype) for _ in range(2))
        phi[r, :, r, :] = A.transpose(0, 2, 1)
        psi[:, r, :, r] = Ainv
        sides = (_given(T.reshape(n * n, n * n)) for T in (phi, psi))
        return _Realisation(space, tuple(sides), _unscaled(2))


class NonextendableTriple(_Form):
    """Corner triple A -> A + 0, B -> B + B, C -> C + X C X* into M_{2n}."""

    X: np.ndarray
    kinds = frozenset({SpaceKind.FULL})
    lengths = range(3, 4)
    complex_only = True

    def realisation(self, space, tol):
        n, X = space.n, self.X
        tr_part = (np.trace(X) / n) * np.eye(n)
        if np.linalg.norm(X - tr_part) <= max(tol, STRUCTURE_FLOOR) * max(1.0, np.linalg.norm(X)):
            raise InvalidParameterError("X must not be a scalar matrix")
        big = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2 * n)
        d = n * n

        def corner(bottom) -> np.ndarray:
            # the image of B is B in the top-left block and, with coordinates
            # `bottom` (a transfer on M_n, or none), in the bottom-right one
            T = np.zeros((2 * n, 2 * n, d), dtype=np.complex128)
            T[:n, :n] = np.eye(d).reshape(n, n, d)
            if bottom is not None:
                T[n:, n:] = bottom.reshape(n, n, d)
            return T.reshape(4 * d, d)

        bottoms = (None, np.eye(d), _congruence_transfer(space, X, X.conj().T))
        return _Realisation(big, tuple(_given(corner(b)) for b in bottoms), _unscaled(3))


# Every canonical form; its JSON tag is the class name. A new form is one
# _Form subclass plus its entry here.
FORMS = (
    MnChain,
    HermOdd,
    HermEven,
    PnPair,
    SymOdd,
    SymEven,
    DiagPair,
    DiagChain,
    Hadamard,
    RankOneFrame,
    NonextendableTriple,
)

CanonicalForm = Union[FORMS]


def _first_admitting(forms, m: int, field: Field):
    """The first of `forms` that admits an m-tuple over `field`, or None."""
    return next((form for form in forms if form.admits(m, field)), None)


def _validated(form: CanonicalForm, space: SpaceTag, tol: float) -> _Realisation:
    """`from_canonical`'s checks, in its order, and the form's realisation."""
    name = type(form).__name__
    if type(form) not in FORMS:
        raise InvalidParameterError(f"unknown canonical form {name}")
    if form.complex_only and space.field is not Field.COMPLEX:
        raise InvalidParameterError(f"{name} needs a complex-field space")
    if span_of(space).kind not in form.kinds:
        raise InvalidParameterError(f"{name} does not act on {space.kind.value} spaces")
    for f in fields(form):
        value = np.asarray(getattr(form, f.name))
        if value.ndim >= 2 and value.shape[-1] != space.n:
            raise DimensionMismatchError(
                f"{name} parameters are {value.shape[-1]} x {value.shape[-1]} but the space has n={space.n}"
            )
        if space.field is Field.REAL and value.size and np.max(np.abs(value.imag)) > tol:
            raise InvalidParameterError(f"{name} over a real space needs a real {f.name}")
    plan = form.realisation(space, tol)
    # after the structure checks, whose error classes come first
    for what, dev, floor in form.invariants():
        if dev > max(tol, floor):
            raise InvalidParameterError(f"{name}: {what} (deviation {dev:.3g})")
    return plan


def from_canonical(form: CanonicalForm, space: SpaceTag, tol: float = CANONICAL_TOL) -> list[LinMap]:
    """Realize a canonical form as the tuple of linear maps it denotes.

    Validates the parameters' structure (permutation, diagonal, invertible
    with 1-norm condition number at most `COND_LIMIT`, by `_inverse`)
    and the form's `invariants` (scalar product, unitarity or orthogonality,
    product of the diagonals), each against max(tol, its floor) where a
    tolerance applies; a miss of an invariant is an InvalidParameterError
    that names it. Then each side of the form is realised once, and each map
    is its scalar times its side.
    """
    _check_tol(tol)
    _check_space(space, "space")
    plan = _validated(form, space, tol)
    sides = [side() for side in plan.sides]
    return [LinMap(space, plan.codomain, _scaled_slot(c, sides[k])) for c, k in plan.slots]


def _is_permutation(P: np.ndarray) -> bool:
    if not np.all((P == 0) | (P == 1)):
        return False
    return bool(np.all(P.sum(axis=0) == 1) and np.all(P.sum(axis=1) == 1))
