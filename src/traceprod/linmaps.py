"""Linear maps between matrix spaces, stored as transfer matrices.

A LinMap holds the matrix of the map with respect to the canonical bases of the
domain and codomain spans, over their common base field (real for Hermitian-kind
coordinates). Canonical parametrized families (conjugation chains, scaled
congruences, permutation-scaling chains, diagonal pairs, Hadamard multipliers,
rank-one frames, and the non-extendable corner triple) are realized through
`from_canonical`.

Congruences A -> c L op(A) R are built from the (at most two) nonzero entries
of each basis element, `spaces._basis_terms`, as sums of outer products of
columns of L and rows of R. The change between Hermitian coordinates and
matrix entries (`complexify`) is a row and a column gather of those terms and
of `spaces._entry_terms`, with weights 1, +-i and 1/2. Of the paths here only
`transpose_map` reads the dense basis stack.

Span membership is checked where matrices come from outside:
`linmap_from_images`, `apply` and `extend.extend_from_subset`. Realised maps
(canonical forms, `transpose_map`) are written straight from their images'
coordinates: a congruence by (M*, M) or (M^t, M) keeps Hermitian and symmetric
matrices so, one by a permutation with diagonal scalings keeps diagonal ones,
and a full codomain holds every image, so those images lie in the span by
construction.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    MembershipError,
    SingularMatrixError,
)
from .spaces import (
    DEFAULT_TOL,
    Field,
    SpaceKind,
    SpaceTag,
    base_field,
    coords_batch,
    membership,
    reassemble_batch,
    span_dim,
    span_of,
    _basis_stack,
    _basis_terms,
    _entry_terms,
    _reassemble,
)

# parameter matrices this ill-conditioned are rejected outright
COND_LIMIT = 1e6


def _as_param(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParameterError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidParameterError(f"{name} has non-finite entries")
    return M


def _inverse(M: np.ndarray, name: str) -> np.ndarray:
    """inv(M); SingularMatrixError naming M as `name` when M is singular or
    worse conditioned than COND_LIMIT."""
    c = np.linalg.cond(M)
    if not np.isfinite(c) or c > COND_LIMIT:
        raise SingularMatrixError(f"{name} is singular or has condition number above {COND_LIMIT:g} ({c:.3g})")
    return np.linalg.inv(M)


@dataclass(frozen=True)
class LinMap:
    """A linear map between matrix spaces in canonical coordinates."""

    domain: SpaceTag
    codomain: SpaceTag
    transfer: np.ndarray

    def __post_init__(self):
        bf_dom = base_field(self.domain)
        if bf_dom is not base_field(self.codomain):
            raise InvalidParameterError(
                f"domain and codomain must share a base field, got {bf_dom.value} vs "
                f"{base_field(self.codomain).value}"
            )
        T = np.asarray(self.transfer)
        shape = (span_dim(self.codomain), span_dim(self.domain))
        if T.shape != shape:
            raise DimensionMismatchError(f"transfer must have shape {shape}, got {T.shape}")
        if bf_dom is Field.REAL:
            if np.iscomplexobj(T):
                if T.size and np.max(np.abs(T.imag)) > 1e-12 * max(1.0, np.max(np.abs(T))):
                    raise InvalidParameterError("transfer for real-coordinate spaces must be real")
                T = T.real
            T = np.ascontiguousarray(T, dtype=np.float64)
        else:
            T = np.ascontiguousarray(T, dtype=np.complex128)
        if not np.all(np.isfinite(T)):
            raise InvalidParameterError("transfer has non-finite entries")
        T.setflags(write=False)
        object.__setattr__(self, "transfer", T)


def identity_map(space: SpaceTag) -> LinMap:
    d = span_dim(space)
    dt = np.float64 if base_field(space) is Field.REAL else np.complex128
    return LinMap(space, space, np.eye(d, dtype=dt))


def compose(f: LinMap, g: LinMap) -> LinMap:
    """The map f after g."""
    if f.domain != g.codomain:
        raise DimensionMismatchError(f"cannot compose: domain of f is {f.domain}, codomain of g is {g.codomain}")
    return LinMap(g.domain, f.codomain, f.transfer @ g.transfer)


def apply(map_: LinMap, A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the map on A, checking that A lies in the span of the domain."""
    A = np.asarray(A, dtype=np.complex128)
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    if not membership(span_of(map_.domain), A, tol * scale):
        raise MembershipError(f"input is not in the span of {map_.domain} within tolerance")
    return apply_batch(map_, A[None])[0]


def apply_batch(map_: LinMap, batch: np.ndarray) -> np.ndarray:
    """Evaluate the map on a (count, n, n) stack without membership checks."""
    return _apply_batch(map_, batch, np.complex128)


def _apply_batch(map_: LinMap, batch: np.ndarray, dtype) -> np.ndarray:
    """`apply_batch` with the images built in `dtype`."""
    x = coords_batch(map_.domain, batch)
    return _reassemble(map_.codomain, x @ map_.transfer.T, dtype)


def image_stack(map_: LinMap) -> np.ndarray:
    """(d, k, k) images of the domain's canonical basis elements."""
    return reassemble_batch(map_.codomain, map_.transfer.T)


def _span_coords(space: SpaceTag, stack: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Coordinates of a (count, n, n) stack whose every matrix must lie in the
    span of `space` within tol, relative to its own scale; the MembershipError
    names the first one that does not as `what` and its index."""
    x = coords_batch(space, stack)
    dev = np.max(np.abs(reassemble_batch(space, x) - stack), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    off_span = np.flatnonzero(dev > tol * scale)
    if off_span.size:
        raise MembershipError(f"{what} {off_span[0]} is not in the span of {span_of(space)} within tolerance")
    return x


def linmap_from_images(domain: SpaceTag, codomain: SpaceTag, images, tol: float = 1e-7) -> LinMap:
    """Build the map sending the k-th canonical basis element to images[k].

    Each image must lie in the span of the codomain within tol (relative to its
    own scale); that is what makes the transfer faithful. This is the checked
    constructor for images from outside. Canonical forms and `transpose_map`
    write their images' coordinates directly, unchecked, as their images lie
    in the span by construction.
    """
    d = span_dim(domain)
    if len(images) != d:
        raise DimensionMismatchError(f"need {d} images, got {len(images)}")
    images = np.asarray(images, dtype=np.complex128)
    k = codomain.n
    if images.shape[1:] != (k, k):
        raise DimensionMismatchError(f"images must be {k} x {k}, got shape {images.shape[1:]}")
    return LinMap(domain, codomain, _span_coords(codomain, images, tol, "image").T)


def _realised(domain: SpaceTag, codomain: SpaceTag, images: np.ndarray) -> LinMap:
    """The map sending the k-th basis element of `domain` to images[k], written
    straight from the images' coordinates, for images in the span of `codomain`
    by construction: no membership check."""
    return LinMap(domain, codomain, coords_batch(codomain, images).T)


def is_hermitian_preserving(map_: LinMap, tol: float = DEFAULT_TOL) -> bool:
    """Whether the map sends Hermitian matrices to Hermitian matrices, within
    tol times max(1, largest image entry), as `apply` judges membership.

    It checks a Hermitian spanning set of the domain span: the span's own
    basis, or on a full span the Hermitian (over R the symmetric) basis,
    gathered from its terms.
    """
    dom, x = span_of(map_.domain), map_.transfer.T
    if dom.kind is SpaceKind.FULL:
        x = _gather(_basis_terms(SpaceTag(SpaceKind.HERMITIAN, dom.field, dom.n)), map_.transfer, axis=1).T
    img = reassemble_batch(map_.codomain, x)
    scale = max(1.0, float(np.max(np.abs(img))))
    return bool(np.max(np.abs(img - img.conj().transpose(0, 2, 1))) <= tol * scale)


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


def _congruence_images(space: SpaceTag, L, R, c=1.0, transpose: bool = False) -> np.ndarray:
    """The images c L op(B_k) R of the basis elements B_k of `space`, op(B) =
    B^t when `transpose`; L and R are matrices or stacks with one matrix per
    basis element.

    B_k is the sum over its (at most two) entries w E_ij, so its image is the
    sum of the outer products w L[:, i] R[j, :]: O(d n^2) work, no product
    with the basis stack. Real L, R and c keep the stack real on every span
    but the Hermitian one, whose skew elements carry +-i.
    """
    idx, w = _basis_terms(space)
    rows, cols = np.divmod(idx, space.n)
    if transpose:
        rows, cols = cols, rows
    d, n = w.shape[0], space.n
    k = np.arange(d)[:, None]
    left = np.broadcast_to(L, (d, n, n))[k, :, rows]  # (d, t, n): column i of L
    right = np.broadcast_to(R, (d, n, n))[k, cols]  # (d, t, n): row j of R
    return np.matmul(((c * w)[..., None] * left).transpose(0, 2, 1), right)


def complexify(map_: LinMap) -> LinMap:
    """Complex-linear extension of a real-linear map on Hermitian matrices.

    A real-linear map on Hermitian n x n matrices extends uniquely to a
    complex-linear map on all of M_n via A+iB -> f(A)+i f(B); the Hermitian
    basis is also a complex basis of M_n, so this is the change of
    coordinates S_cod T S_dom^-1, built as one row and one column gather.
    """
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
    return _realised(space, space, _basis_stack(space).transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _tuple_of_matrices(mats, name: str) -> tuple:
    out = tuple(_as_param(M, f"{name}[{i}]") for i, M in enumerate(mats))
    if not out:
        raise InvalidParameterError(f"{name} must be nonempty")
    sizes = {M.shape[0] for M in out}
    if len(sizes) != 1:
        raise DimensionMismatchError(f"{name} entries must share one size, got {sorted(sizes)}")
    return out


def _flag(value, name: str) -> bool:
    # bool(value) would read the string "false" as True
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be a boolean, got {value!r}")
    return bool(value)


# How a form parameter is normalised, keyed by its annotation. The JSON codec
# in jsonio reads the same annotations.
_NORMALIZE = {
    "np.ndarray": _as_param,
    "tuple[np.ndarray, ...]": _tuple_of_matrices,
    "tuple[float, ...]": lambda values, name: tuple(float(x) for x in values),
    "tuple[complex, ...]": lambda values, name: tuple(complex(x) for x in values),
    "bool": _flag,
}


@dataclass(frozen=True)
class _Form:
    """What every canonical form shares.

    `kinds` are the span kinds the form acts on and `complex_only` says whether
    it exists only over the complex field. `from_canonical` checks those, the
    parameter size and real parameters on a real space; `maps` checks the
    parameters' structure and realises the form, and `invariants` states what
    makes its maps preservers.
    """

    kinds: ClassVar[frozenset] = frozenset()
    complex_only: ClassVar[bool] = False

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _NORMALIZE[f.type](getattr(self, f.name), f.name))

    def maps(self, space: SpaceTag, tol: float) -> list[LinMap]:
        raise NotImplementedError

    def invariants(self) -> tuple:
        """(requirement, deviation, floor) for each invariant of the
        parameters: `from_canonical` rejects a deviation above max(tol,
        floor), and `decompose` certifies a rebuild only when each is tiny."""
        return ()


def _adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def _scalar_invariant(c) -> tuple:
    """The invariant of scalars c_i: their product is 1."""
    return "the scalar product must be 1", abs(np.prod(np.asarray(c, dtype=np.complex128)) - 1.0), 1e-6


def _isometry_invariant(what: str, U: np.ndarray, adjoint) -> tuple:
    """The invariant adjoint(U) U = I of a unitary or orthogonal U."""
    return what, np.max(np.abs(adjoint(U) @ U - np.eye(len(U)))), 1e-9


def _congruence(space: SpaceTag, L, R, c=1.0, transpose: bool = False) -> LinMap:
    """The map A -> c L op(A) R on the span of `space`, op(A) = A^t when `transpose`.

    L and R are matrices or stacks with one matrix per basis element. Every
    caller passes sides that keep the span, so the images are not checked.
    """
    return _realised(space, space, _congruence_images(space, L, R, c, transpose))


def _scaled_congruences(space: SpaceTag, sides, c, transpose: bool) -> list[LinMap]:
    """c_i L op(A) R with (L, R) = sides[i % len(sides)], for finite nonzero c_i."""
    if not all(np.isfinite(x) and x != 0 for x in c):
        raise InvalidParameterError("scalars must be finite and nonzero")
    return [_congruence(space, *sides[i % len(sides)], ci, transpose) for i, ci in enumerate(c)]


def _alternating(space: SpaceTag, M, adjoint, c, transpose: bool = False) -> list[LinMap]:
    """c_i adjoint(M) op(A) M on odd slots, c_i M^{-1} op(A) adjoint(M^{-1}) on even slots."""
    Minv = _inverse(M, "M")
    return _scaled_congruences(space, ((adjoint(M), M), (Minv, adjoint(Minv))), c, transpose)


@dataclass(frozen=True)
class MnChain(_Form):
    """phi_i(A) = N_i A N_{i+1}^{-1}, indices cyclic with N_{m+1} = N_1."""

    N: tuple[np.ndarray, ...]
    kinds = frozenset({SpaceKind.FULL})

    def maps(self, space, tol):
        invs = [_inverse(N, f"N[{i}]") for i, N in enumerate(self.N)]
        m = len(self.N)
        return [_congruence(space, N, invs[(i + 1) % m]) for i, N in enumerate(self.N)]


@dataclass(frozen=True)
class HermOdd(_Form):
    """phi_i(A) = c_i U* A U with U unitary and real nonzero c_i, product 1."""

    U: np.ndarray
    c: tuple[float, ...]
    kinds = frozenset({SpaceKind.HERMITIAN})
    complex_only = True

    def maps(self, space, tol):
        return _scaled_congruences(space, ((_adjoint(self.U), self.U),), self.c, False)

    def invariants(self):
        return _isometry_invariant("U must be unitary", self.U, _adjoint), _scalar_invariant(self.c)


@dataclass(frozen=True)
class HermEven(_Form):
    """Alternating c_i M* A M (odd slots) and c_i M^{-1} A M^{-*} (even slots)."""

    M: np.ndarray
    c: tuple[float, ...]
    kinds = frozenset({SpaceKind.HERMITIAN})
    complex_only = True

    def maps(self, space, tol):
        return _alternating(space, self.M, _adjoint, self.c)

    def invariants(self):
        return (_scalar_invariant(self.c),)


@dataclass(frozen=True)
class PnPair(_Form):
    """phi(A) = M* A M (or M* A^t M) with partner M^{-1} A M^{-*} (resp. with A^t)."""

    M: np.ndarray
    transpose: bool = False
    kinds = frozenset({SpaceKind.HERMITIAN})
    complex_only = True

    def maps(self, space, tol):
        return _alternating(space, self.M, _adjoint, (1.0, 1.0), self.transpose)


@dataclass(frozen=True)
class SymOdd(_Form):
    """phi_i(A) = c_i O^t A O with O (complex) orthogonal and nonzero c_i, product 1."""

    O: np.ndarray
    c: tuple[complex, ...]
    kinds = frozenset({SpaceKind.SYMMETRIC})

    def maps(self, space, tol):
        return _scaled_congruences(space, ((self.O.T, self.O),), self.c, False)

    def invariants(self):
        return _isometry_invariant("O must be orthogonal", self.O, np.transpose), _scalar_invariant(self.c)


@dataclass(frozen=True)
class SymEven(_Form):
    """Alternating c_i M^t A M (odd slots) and c_i M^{-1} A M^{-t} (even slots)."""

    M: np.ndarray
    c: tuple[complex, ...]
    kinds = frozenset({SpaceKind.SYMMETRIC})

    def maps(self, space, tol):
        return _alternating(space, self.M, np.transpose, self.c)

    def invariants(self):
        return (_scalar_invariant(self.c),)


@dataclass(frozen=True)
class DiagPair(_Form):
    """On diagonals: phi_1 acts as N on the diagonal vector, phi_2 as N^{-t}."""

    N: np.ndarray
    kinds = frozenset({SpaceKind.DIAGONAL})

    def maps(self, space, tol):
        return [LinMap(space, space, self.N), LinMap(space, space, _inverse(self.N, "N").T)]


@dataclass(frozen=True)
class DiagChain(_Form):
    """phi_i(A) = C_i P^t A P with a shared permutation P and diagonal C_i, product I."""

    P: np.ndarray
    C: tuple[np.ndarray, ...]
    kinds = frozenset({SpaceKind.DIAGONAL})

    def maps(self, space, tol):
        P = np.round(self.P.real)
        if np.max(np.abs(self.P - P)) > max(tol, 1e-9) or not _is_permutation(P):
            raise InvalidParameterError("P must be a permutation matrix")
        for i, C in enumerate(self.C):
            if np.max(np.abs(C - np.diag(np.diag(C)))) > max(tol, 1e-9):
                raise InvalidParameterError(f"C[{i}] must be diagonal")
            d = np.abs(np.diag(C))
            if np.min(d) == 0 or np.max(d) / np.min(d) > COND_LIMIT:
                raise SingularMatrixError(f"C[{i}] is singular or has condition number above {COND_LIMIT:g}")
        # realised from the structure just validated, the rounded P and the
        # diagonals of the C_i, so the images are diagonal exactly
        return [_congruence(space, np.diag(np.diag(C)) @ P.T, P) for C in self.C]

    def invariants(self):
        # on the diagonals, which are all that the realised maps use
        prod = np.prod([np.diag(C) for C in self.C], axis=0)
        return (("the product of the C_i must be the identity", np.max(np.abs(prod - 1.0)), 1e-6),)


@dataclass(frozen=True)
class Hadamard(_Form):
    """Entrywise multiplier pair: A -> A o C and A -> A o C^ with C^_ij = 1/C_ij."""

    C: np.ndarray
    kinds = frozenset({SpaceKind.FULL})

    @property
    def real_family(self) -> bool:
        """True when C is real symmetric, the exactly characterized family."""
        return bool(np.max(np.abs(self.C.imag)) <= 1e-12)

    def maps(self, space, tol):
        C = self.C
        if np.max(np.abs(C - C.T)) > max(tol, 1e-9):
            raise InvalidParameterError("C must be symmetric")
        if np.min(np.abs(C)) == 0:
            raise InvalidParameterError("C must have no zero entries")
        if not self.real_family:
            if space.field is Field.REAL:
                raise InvalidParameterError("complex C on a real space")
            warnings.warn(
                "complex symmetric Hadamard parameter: outside the exactly characterized "
                "real-symmetric family",
                stacklevel=3,
            )
        flat = C.reshape(-1)
        return [LinMap(space, space, np.diag(flat)), LinMap(space, space, np.diag(1.0 / flat))]


@dataclass(frozen=True)
class RankOneFrame(_Form):
    """phi(E_ij) = E_ij A_i paired with psi(E_ij) = A_j^{-1} E_ij."""

    A: tuple[np.ndarray, ...]
    kinds = frozenset({SpaceKind.FULL})

    def maps(self, space, tol):
        n = space.n
        if len(self.A) != n:
            raise DimensionMismatchError(f"RankOneFrame needs n={n} matrices, got {len(self.A)}")
        A = np.stack(self.A)
        Ainv = np.stack([_inverse(Ai, f"A[{i}]") for i, Ai in enumerate(self.A)])
        # basis order is E_ij row-major: element (i, j) sits at index i*n + j
        rows, cols = np.divmod(np.arange(n * n), n)
        eye = np.eye(n)
        return [_congruence(space, eye, A[rows]), _congruence(space, Ainv[cols], eye)]


@dataclass(frozen=True)
class NonextendableTriple(_Form):
    """Corner triple A -> A + 0, B -> B + B, C -> C + X C X* into M_{2n}."""

    X: np.ndarray
    kinds = frozenset({SpaceKind.FULL})
    complex_only = True

    def maps(self, space, tol):
        n, X = space.n, self.X
        tr_part = (np.trace(X) / n) * np.eye(n)
        if np.linalg.norm(X - tr_part) <= max(tol, 1e-9) * max(1.0, np.linalg.norm(X)):
            raise InvalidParameterError("X must not be a scalar matrix")
        big = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2 * n)
        st = reassemble_batch(space, np.eye(n * n))

        def corner(bottom) -> LinMap:
            Z = np.zeros((len(st), 2 * n, 2 * n), dtype=np.complex128)
            Z[:, :n, :n] = st
            Z[:, n:, n:] = bottom
            return _realised(space, big, Z)

        return [corner(0.0), corner(st), corner(_congruence_images(space, X, X.conj().T))]


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


def from_canonical(form: CanonicalForm, space: SpaceTag, tol: float = 1e-6) -> list[LinMap]:
    """Realize a canonical form as the tuple of linear maps it denotes.

    Validates the parameters' structure (permutation, diagonal, invertible
    with condition number at most 1e6) and the form's `invariants` (scalar
    product, unitarity or orthogonality, product of the diagonals), each
    against max(tol, its floor) where a tolerance applies; a miss of an
    invariant is an InvalidParameterError that names it.
    """
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
    maps = form.maps(space, tol)
    # after the structure checks, whose error classes come first
    for what, dev, floor in form.invariants():
        if dev > max(tol, floor):
            raise InvalidParameterError(f"{name}: {what} (deviation {dev:.3g})")
    return maps


def _is_permutation(P: np.ndarray) -> bool:
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        return False
    if not np.all((P == 0) | (P == 1)):
        return False
    return bool(np.all(P.sum(axis=0) == 1) and np.all(P.sum(axis=1) == 1))
