"""Matrix spaces over the reals or complexes.

Space tags name the classical sets: all n x n matrices, Hermitian, symmetric,
positive (semi)definite, diagonal. Each tag carries a canonical ordered basis of
its linear span, coordinates with respect to that basis, one span test, the
trace pairing tr(AB), and seeded random sampling. Everything downstream (linear
maps, preservation checks, decompositions) works in these coordinates.

Each input rule of the package is stated once, here, and each refusal is an
InvalidParameterError that names the argument:
- `_numeric`, the matrix rule: every matrix, stack or coordinate array is
  an array of integers, floats or complex numbers, or a rectangular nesting
  of them; a string, a dict, None, a ragged nesting or an array of bool,
  string or object dtype is none. The shape is each caller's own check.
- `_check_space`, the space rule: a space is a `SpaceTag`.
- `_count`, the positive-integer rule, for every n, m, trials and count.
- `_is_real`, the real-number rule, and `_check_tol`, the tol rule.
`linmaps._require_map` is the map rule beside them.

Coordinates and reassembly are index gathers and scatters on the matrix
entries. `_reassemble` is the one place the basis order is written down:
`_entry_terms` and `_basis_terms`, the at most two weighted entries of each
basis element, are read off one reassembly of coordinate labels in O(n^2),
and every program path works from them. The dense (d, n, n) `_basis_stack`
serves only the public `space_basis` and `gram_matrix` of a tag. All are
cached read-only once per span.
"""
from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, MembershipError

# Thresholds, each set here only, with the quantity it bounds; "rel. max(1, x)" scales it by the larger of 1 and x
DEFAULT_TOL = 1e-9  # default tol: identity residual rel. max(1, |rhs|), span distance rel. max(1, largest entry)
REAL_TRANSFER_TOL = 1e-12  # imaginary part of a real-field transfer, rel. max(1, its largest entry)
IMAGE_SPAN_TOL = 1e-7  # `linmap_from_images`' tol: span distance of an image, rel. max(1, its largest entry)
CANONICAL_TOL = 1e-6  # `from_canonical`'s tol: a parameter's miss of a structure or invariant, vs max(tol, floor)
STRUCTURE_FLOOR = 1e-9  # least tol of a structure check: entry deviation, absolute (non-scalar X: rel. max(1, |X|))
PRODUCT_FLOOR = 1e-6  # least tol of a product invariant: deviation from 1 of a product of scalars or diagonals
COND_LIMIT = 1e6  # largest 1-norm condition number of a parameter matrix that `_inverse` accepts
REAL_PARAM_TOL = 1e-12  # largest imaginary part, absolute, of a parameter read as real (Hadamard's C)
SAMPLE_FIT_TOL = 1e-7  # `extend_from_subset`'s tol: a sample's span distance and fit miss, rel. max(1, largest entry)
DUALIZE_TOL_FLOOR = 1e-15  # least tol in `dualize`'s limit 1/tol on the trace pairing's 1-norm condition number
EXTEND_TOL = 1e-8  # `embed_extend_pair`'s tol and least tol of its input check: identity residual, rel. max(1, |rhs|)
RANK_CUTOFF = 1e-9  # a singular value counts toward a rank when above this times the largest
PRECHECK_TOL = 1e-6  # `decompose`'s identity check: identity residual, rel. max(1, |rhs|)
CERTIFY_TOL = 1e-10  # rebuild miss (relative Frobenius) and invariant deviation (absolute) that certify a tuple
REBUILD_TOL = 1e-7  # `decompose`'s tol: entry miss of a rebuilt transfer, rel. max(1, largest input entry)
REBUILD_PARAM_TOL = 1e-5  # `from_canonical`'s tol on the parameters that `decompose` reads off the maps
CONJUGATOR_TOL = 1e-6  # `recover_conjugator`'s tol: entry miss of the rebuilt images, rel. max(1, largest image)
GAUGE_TIE = 1e-12  # gap, relative to the largest, within which entry magnitudes tie for the gauge entry
POWER_FLOOR = 1e-12  # smallest eigenvalue, absolute, that a matrix power's definite input must exceed
WEIGHTED_TOL = 1e-8  # weighted identity residual, rel. max(1, |rhs|): `verify_weighted`, `weighted_reduction`
REDUCTION_FLOOR = 1e-6  # least tol of `weighted_reduction`'s fit, whose tol is 10 tol above it
CONDITION_BOUND = 1e3  # largest 2-norm condition number of a drawn parameter matrix
NONSCALAR_MARGIN = 1e-3  # smallest Frobenius distance, absolute, of a drawn NonextendableTriple X from its trace part


class Field(str, enum.Enum):
    REAL = "real"
    COMPLEX = "complex"


class SpaceKind(str, enum.Enum):
    FULL = "FullMatrix"
    HERMITIAN = "Hermitian"
    SYMMETRIC = "Symmetric"
    POSDEF = "PosDef"
    POSSEMIDEF = "PosSemiDef"
    DIAGONAL = "Diagonal"


def _member(enum_type, value):
    """`enum_type(value)`; a value that names no member is an InvalidParameterError."""
    try:
        return enum_type(value)
    except ValueError as exc:
        raise InvalidParameterError(str(exc)) from None


@dataclass(frozen=True)
class SpaceTag:
    """A named matrix space: structural kind, scalar field, and size."""

    kind: SpaceKind
    field: Field
    n: int

    def __post_init__(self):
        if not isinstance(self.kind, SpaceKind):
            object.__setattr__(self, "kind", _member(SpaceKind, self.kind))
        if not isinstance(self.field, Field):
            object.__setattr__(self, "field", _member(Field, self.field))
        object.__setattr__(self, "n", _count(self.n, "space size", "n="))


@functools.lru_cache(maxsize=None)
def span_of(space: SpaceTag) -> SpaceTag:
    """The linear space spanned by `space`, which must be a SpaceTag.

    Positive (semi)definite cones span the Hermitian matrices (complex field) or
    the real symmetric matrices (real field). Real Hermitian means real symmetric.
    Cached once per distinct tag: tags with equal spans share one span tag,
    which is its own span, so `span_of(t) is span_of(t)` and
    `span_of(span_of(t)) is span_of(t)`.
    """
    _check_space(space, "space")
    kind, field = space.kind, space.field
    if kind in (SpaceKind.POSDEF, SpaceKind.POSSEMIDEF):
        kind = SpaceKind.HERMITIAN if field is Field.COMPLEX else SpaceKind.SYMMETRIC
    if kind is SpaceKind.HERMITIAN and field is Field.REAL:
        kind = SpaceKind.SYMMETRIC
    return space if kind is space.kind else span_of(SpaceTag(kind, field, space.n))


def base_field(space: SpaceTag) -> Field:
    """Scalar field of the coordinates in the canonical basis.

    Hermitian matrices form a real vector space even though their entries are
    complex, so their coordinates are real.
    """
    s = span_of(space)
    if s.field is Field.REAL or s.kind is SpaceKind.HERMITIAN:
        return Field.REAL
    return Field.COMPLEX


def span_dim(space: SpaceTag) -> int:
    """Dimension of the span over its base field."""
    s = span_of(space)
    n = s.n
    if s.kind in (SpaceKind.FULL, SpaceKind.HERMITIAN):
        return n * n
    if s.kind is SpaceKind.SYMMETRIC:
        return n * (n + 1) // 2
    return n


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered canonical basis of a space's span."""

    space: SpaceTag
    elements: tuple


def space_basis(space: SpaceTag) -> Basis:
    """Canonical ordered basis of the span of `space`.

    Ordering: matrix units row-major for full spaces; diagonal units first for
    Hermitian/symmetric, then for each i<j pair (lexicographic) the symmetric
    element E_ij+E_ji immediately followed, in the Hermitian case, by the
    skew element i(E_ij-E_ji); diagonal units for diagonal spaces.
    """
    return Basis(space=span_of(space), elements=tuple(_basis_stack(space)))


def coords(space: SpaceTag, A: np.ndarray) -> np.ndarray:
    """Coordinates of A in the canonical basis of the span of `space`.

    The canonical basis is orthogonal under tr(X* Y), so each coordinate is the
    inner product with its basis element over that element's squared norm: an
    entry, or the mean of a mirrored pair of entries (see `coords_batch`). No
    membership check; callers validate separately.
    """
    n = span_of(space).n
    A = _numeric(A, "A")
    if A.shape != (n, n):
        raise DimensionMismatchError(f"expected shape {(n, n)}, got {A.shape}")
    return coords_batch(space, A[None])[0]


@functools.lru_cache(maxsize=None)
def _flat_indices(n: int) -> tuple:
    """Flat row-major indices into an n x n matrix of its diagonal, of its
    strict upper triangle (row-major) and of the mirror image of each upper
    entry below the diagonal."""
    iu, ju = np.triu_indices(n, 1)
    flat = (np.arange(n) * (n + 1), iu * n + ju, ju * n + iu)
    for a in flat:
        a.setflags(write=False)
    return flat


def coords_batch(space: SpaceTag, batch: np.ndarray) -> np.ndarray:
    """Coordinates of a (count, n, n) stack; returns (count, d).

    Index gathers in the order of `space_basis`: full spaces read all entries
    row-major, diagonal spaces the diagonal. Symmetric and Hermitian spaces read
    the diagonal, then per i<j pair the mean (A_ij + A_ji)/2, followed in the
    Hermitian case by Im(A_ij - A_ji)/2, each taken as a sum of halves, which
    does not overflow where the entries are finite. Real coordinates keep the
    real part.
    Each gather writes straight into the returned array, which never shares
    memory with the input.
    """
    s = span_of(space)
    n = s.n
    A = _numeric(batch, "batch")
    if A.ndim != 3 or A.shape[1:] != (n, n):
        raise DimensionMismatchError(f"expected a (count, {n}, {n}) stack, got shape {A.shape}")
    field = base_field(space)
    entries = A.reshape(A.shape[0], n * n)
    flat = entries.real if field is Field.REAL else entries
    out = np.empty((A.shape[0], span_dim(s)), dtype=_dtype_of(field))
    if s.kind is SpaceKind.FULL:
        out[...] = flat
        return out
    diag, up, lo = _flat_indices(n)
    out[:, :n] = flat[:, diag]
    if s.kind is SpaceKind.DIAGONAL:
        return out
    # each entry of a mirrored pair is halved before the two are added, so
    # that two entries near the largest double do not overflow
    upper, lower = _halves(entries, up), _halves(entries, lo)
    if s.kind is SpaceKind.HERMITIAN:
        # x + iy = A_ij/2 + conj(A_ji)/2, written through a complex view of
        # the interleaved (x, y) coordinates
        np.add(upper, np.conjugate(lower, out=lower), out=out[:, n:].view(np.complex128))
        return out
    upper += lower
    if np.iscomplexobj(upper):
        # a complex division by 1 adds the zero cross terms that fix the
        # signed zeros of each part as dividing the sum by 2 did
        upper /= 1
    out[:, n:] = upper.real if field is Field.REAL else upper
    return out


def _halves(entries: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns `cols` of `entries` as a new array in their floating precision
    (float64 for integers), each real and imaginary part halved exactly."""
    z = np.take(entries, cols, axis=1)
    if z.dtype.kind in "biu":
        z = z.astype(np.float64)
    parts = z.view(z.real.dtype)
    parts *= 0.5
    return z


def reassemble(space: SpaceTag, x: np.ndarray) -> np.ndarray:
    """Matrix with coordinate vector x in the canonical basis."""
    d = span_dim(space)
    x = _numeric(x, "x")
    if x.shape != (d,):
        raise DimensionMismatchError(f"expected {d} coordinates, got shape {x.shape}")
    return reassemble_batch(space, x[None])[0]


def reassemble_batch(space: SpaceTag, x: np.ndarray) -> np.ndarray:
    """(count, n, n) matrices with coordinate rows x of shape (count, d).

    The index scatter inverse to `coords_batch` on the span: a mirrored pair
    coordinate lands on both triangles, and in the Hermitian case the skew
    coordinate y adds +iy above and -iy below the diagonal.
    """
    return _reassemble(space, x, np.complex128)


def _dtype_of(field: Field) -> type:
    """The one dtype rule: float64 over the reals, complex128 over the complexes."""
    return np.float64 if field is Field.REAL else np.complex128


def _field_dtype(space: SpaceTag) -> type:
    """dtype of the matrices of `space`, Hermitian matrices included."""
    return _dtype_of(space.field)


def _hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X*)/2 over the last two axes, C-ordered, exactly Hermitian where X is so to rounding.
    From 256 KiB on numpy sums into the conjugate's buffer, so that is built C-ordered; numpy
    lays a result out otherwise only when all its operands agree on another order."""
    return (X + np.conjugate(np.swapaxes(X, -1, -2), order="C")) / 2


def _reassemble(space: SpaceTag, x: np.ndarray, dtype) -> np.ndarray:
    """`reassemble_batch` with the matrices built in `dtype`: the scatter
    writes straight into the flat entries of the zeroed output."""
    s = span_of(space)
    n = s.n
    x = _numeric(x, "x")
    d = span_dim(s)
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatchError(f"expected (count, {d}) coordinates, got shape {x.shape}")
    if s.kind is SpaceKind.FULL:
        return x.reshape(-1, n, n).astype(dtype)
    out = np.zeros((x.shape[0], n, n), dtype=dtype)
    flat = out.reshape(x.shape[0], n * n)
    diag, up, lo = _flat_indices(n)
    flat[:, diag] = x[:, :n]
    if s.kind is SpaceKind.SYMMETRIC:
        flat[:, up] = flat[:, lo] = x[:, n:]
    elif s.kind is SpaceKind.HERMITIAN:
        # sym +- i y written part by part; the zero terms give the signed
        # zeros that the complex sums sym +- 1j * y give, which took 1.6 ms
        # against 0.95 on 256 coordinate rows at n = 16 (2-vCPU Xeon)
        sym, y = x[:, n::2], x[:, n + 1 :: 2]
        zero = 0.0 * y
        flat.real[:, up], flat.real[:, lo] = sym + zero, sym - zero
        flat.imag[:, up], flat.imag[:, lo] = 0.0 + y, 0.0 - y
    return out


def _per_span(fn):
    """`fn` of a space, cached once per span: a cone shares its span's entry."""
    cached = functools.lru_cache(maxsize=None)(fn)
    by_span = functools.wraps(fn)(lambda space: cached(span_of(space)))
    by_span.cache_info, by_span.cache_clear = cached.cache_info, cached.cache_clear
    return by_span


@_per_span
def _basis_stack(space: SpaceTag) -> np.ndarray:
    """The canonical basis as one read-only (d, n, n) stack: the reassembly of
    the unit coordinate vectors, so the index kernels alone fix the order."""
    stack = reassemble_batch(space, np.eye(span_dim(space)))
    stack.setflags(write=False)
    return stack


def _row_terms(rows, cols, vals, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, w) with M[r, idx[r, t]] = w[r, t] for the `count`-row matrix M
    whose nonzero entries are the triplets (rows, cols, vals): each row's
    entries in column order, padded with zero weights to the longest row's
    count (two at most for the bases here). w is real when every entry is."""
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    slot = np.arange(r.size) - np.searchsorted(r, r)  # rank of each entry in its row
    idx = np.zeros((count, int(np.max(slot, initial=0)) + 1), dtype=np.intp)
    w = np.zeros(idx.shape, dtype=v.dtype)
    idx[r, slot], w[r, slot] = c, v
    if not np.iscomplex(w).any():
        w = w.real.copy()
    idx.setflags(write=False)
    w.setflags(write=False)
    return idx, w


@_per_span
def _entry_terms(space: SpaceTag) -> tuple:
    """(idx, w): flat row-major entry e of the matrix with coordinates x is
    the sum over t of w[e, t] x[idx[e, t]], read off one reassembly of the
    labels 1..d: an entry holds the label of its unit or mirrored-pair
    coordinate, plus +-i times the label of its skew coordinate."""
    E = reassemble_batch(space, np.arange(1.0, span_dim(space) + 1)[None]).reshape(-1)
    re, im = np.flatnonzero(E.real), np.flatnonzero(E.imag)
    w = np.zeros(re.size + im.size, dtype=np.complex128)
    w.real[: re.size], w.imag[re.size :] = 1.0, np.sign(E.imag[im])
    labels = np.concatenate([E.real[re], np.abs(E.imag[im])]).astype(np.intp) - 1
    return _row_terms(np.concatenate([re, im]), labels, w, E.size)


@_per_span
def _basis_terms(space: SpaceTag) -> tuple:
    """(idx, w): basis element k of the span is the sum over t of w[k, t]
    times the matrix unit at flat row-major entry idx[k, t]; the transpose of
    `_entry_terms`."""
    idx, w = _entry_terms(space)
    e, t = np.nonzero(w)
    return _row_terms(idx[e, t], e, w[e, t], span_dim(space))


def _span_deviation(space: SpaceTag, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, dev): the coordinates x of a (count, n, n) stack in the span of
    `space` and each matrix's largest entry distance from their reassembly,
    its projection onto the span; inf for a matrix with a non-finite entry
    or coordinate. The one measure of how far a matrix lies from a span."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = coords_batch(space, stack)
        dev = np.max(np.abs(reassemble_batch(space, x) - stack), axis=(1, 2))
    dev[~np.isfinite(stack).all(axis=(1, 2))] = np.inf
    return x, dev


def _span_coords(space: SpaceTag, stack: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Coordinates of a (count, n, n) stack whose every matrix must lie at a
    finite `_span_deviation` of at most tol times max(1, its largest entry);
    the MembershipError names the first one that does not as `what` and its
    index."""
    x, dev = _span_deviation(space, stack)
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    with np.errstate(over="ignore", invalid="ignore"):  # tol * scale past the float range, or 0 * inf
        off_span = np.flatnonzero(np.isinf(dev) | (dev > tol * scale))
    if off_span.size:
        raise MembershipError(f"{what} {off_span[0]} is not in the span of {span_of(space)} within tolerance")
    return x


def membership(space: SpaceTag, A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether A lies in the set named by `space`: within absolute distance
    tol of its span (`_span_deviation`) and, on the definite cones, with the
    projection's eigenvalues above tol (PosDef) or at least -tol (PosSemiDef).
    """
    _check_tol(tol)
    n = span_of(space).n
    A = _numeric(A, "A")
    if A.shape != (n, n):
        return False
    x, dev = _span_deviation(space, A.astype(np.complex128, copy=False)[None])
    if dev[0] > tol:
        return False
    if space.kind not in (SpaceKind.POSDEF, SpaceKind.POSSEMIDEF):
        return True
    eigs = np.linalg.eigvalsh(reassemble_batch(space, x)[0])
    if space.kind is SpaceKind.POSDEF:
        return bool(eigs.min() > tol)
    return bool(eigs.min() >= -tol)


def trace_pair(A: np.ndarray, B: np.ndarray) -> complex:
    """tr(AB) for A of shape (p, q) and B of shape (q, p). No conjugation."""
    A, B = _numeric(A, "A"), _numeric(B, "B")
    if A.ndim != 2 or B.ndim != 2 or A.shape != B.shape[::-1]:
        raise DimensionMismatchError(f"trace pairing needs (p,q) x (q,p) shapes, got {A.shape} and {B.shape}")
    return complex(np.sum(A * B.T))


def gram_matrix(left, right=None) -> np.ndarray:
    """Matrix of trace pairings [tr(left_i right_j)].

    Arguments may be sequences of matrices or SpaceTags (standing for their
    canonical bases). With one argument, the Gram matrix of that basis.
    """
    def stack(side, what):
        if isinstance(side, SpaceTag):
            return _basis_stack(side)
        return _complex_stack(side, what, "trace pairing needs one matrix shape per side")

    left = stack(left, "left")
    right = left if right is None else stack(right, "right")
    if left.ndim != 3 or right.ndim != 3 or left.shape[1:] != right.shape[:0:-1]:
        raise DimensionMismatchError(
            f"trace pairing needs (p,q) x (q,p) shapes, got stacks {left.shape} and {right.shape}"
        )
    return np.einsum("aij,bji->ab", left, right)


def random_batch(space: SpaceTag, count: int, rng=0) -> np.ndarray:
    """Seeded random elements of `space`, shape (count, n, n).

    `rng` may be an integer seed or a numpy Generator.

    Distributions by kind: Gaussian entries for full spaces (complex standard
    Gaussian over C), Gaussian-orthogonal/unitary-ensemble style (G+G*)/2 for
    Hermitian and symmetric, G G* + 0.1 I for PosDef (G G* for PosSemiDef),
    Gaussian diagonals for diagonal spaces.
    """
    _check_space(space, "space")
    return _random_batch(space, _count(count, "count"), _rng(rng)).astype(np.complex128, copy=False)


def _rng(seed) -> np.random.Generator:
    """`np.random.default_rng(seed)`, which hands a Generator back as it is.

    Every seeded function of the package draws through here, so a seed numpy
    refuses, such as a negative integer, is an InvalidParameterError.
    """
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"seed must be a nonnegative integer, got {seed!r}") from None


def _check_seed(seed) -> None:
    """Refuse what `_rng` refuses, where nothing is drawn yet. A nonnegative
    int passes without importing numpy.random, which costs a process about
    6 MB of RSS and 12 ms (numpy 2.4 on x86_64)."""
    if not (isinstance(seed, int) and seed >= 0):
        _rng(seed)


def _check_tol(tol) -> None:
    """Refuse a tolerance that is not finite and nonnegative: a test
    `deviation > tol` is never true at a NaN or infinite tol, so the check
    it guards would pass anything, and at a negative tol nothing passes."""
    if not (_is_real(tol) and math.isfinite(tol) and tol >= 0):
        raise InvalidParameterError(f"tol must be finite and nonnegative, got {tol!r}")


def _is_real(value) -> bool:
    """Whether `value` is a real number: an int within double range, a float,
    or a numpy integer or floating scalar. A bool, a complex, a string, None
    or an int beyond double range, on which float() and math.isfinite raise
    OverflowError, is none."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    return not isinstance(value, int) or abs(value) <= sys.float_info.max


def _numeric(value, what: str, noun: str = "an array") -> np.ndarray:
    """The one matrix rule: `value` as an array of integers, floats or complex
    numbers, given as one or as a rectangular nesting of them; an array of a
    numeric dtype passes as it is. A string, a dict, None, a ragged nesting
    or an array of bool, string or object dtype is refused with
    InvalidParameterError("<what> must be <noun> of numbers ..."). The shape
    is the caller's own check."""
    try:
        A = np.asarray(value)
    except (TypeError, ValueError) as exc:  # a ragged nesting, say
        raise InvalidParameterError(f"{what} must be {noun} of numbers ({exc})") from None
    if A.dtype.kind not in "iufc":  # a bool, string or object array
        raise InvalidParameterError(f"{what} must be {noun} of numbers, got dtype {A.dtype}")
    return A


def _complex_stack(mats, what: str, mixed: str) -> np.ndarray:
    """A stack of matrices by the matrix rule, as complex128. A list or tuple
    is read matrix by matrix, as `what[i]`, so that matrices of numbers in
    two shapes are the DimensionMismatchError `mixed`, which names their
    shapes, and not a ragged nesting; anything else is read whole."""
    if isinstance(mats, (list, tuple)):
        mats = [_numeric(M, f"{what}[{i}]") for i, M in enumerate(mats)]
        shapes = sorted({M.shape for M in mats})
        if len(shapes) > 1:
            raise DimensionMismatchError(f"{mixed}: {what} of shapes {shapes}")
    return _numeric(mats, what).astype(np.complex128, copy=False)


def _check_space(space, what: str) -> None:
    """The one space rule: refuse, naming `what`, anything but a SpaceTag."""
    if not isinstance(space, SpaceTag):
        raise InvalidParameterError(f"{what} must be a SpaceTag, got {type(space).__name__}")


def _count(value, what: str, label: str = "") -> int:
    """`value` as a Python int, when it is an int or a numpy integer of at
    least 1. A bool, a float (3.0 too), a string or None is no count."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1:
        return int(value)
    raise InvalidParameterError(f"{what} must be a positive integer, got {label}{value!r}")


def _gaussian(shape: tuple, real: bool, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian draws over the field: float64, or complex128 with
    real and imaginary parts drawn in that order and scaled by 1/sqrt(2)."""
    if real:
        return rng.standard_normal(shape)
    g = np.empty(shape, dtype=np.complex128)
    g.real = rng.standard_normal(shape)
    g.imag = rng.standard_normal(shape)
    g /= np.sqrt(2.0)
    return g


def _random_batch(space: SpaceTag, count: int, rng: np.random.Generator) -> np.ndarray:
    """`random_batch` in the field's dtype (float64 over the reals), from the
    same calls on `rng` and with the same values."""
    n = space.n
    real = space.field is Field.REAL
    kind = span_of(space).kind if space.kind not in (SpaceKind.POSDEF, SpaceKind.POSSEMIDEF) else space.kind
    if kind is SpaceKind.DIAGONAL:
        return _reassemble(space, _gaussian((count, n), real, rng), _field_dtype(space))
    G = _gaussian((count, n, n), real, rng)
    if kind is SpaceKind.FULL:
        return G
    if kind is SpaceKind.HERMITIAN:
        return _hermitian_part(G)
    if kind is SpaceKind.SYMMETRIC:
        return (G + G.transpose(0, 2, 1)) / 2.0
    if real:
        # the complex product: a real one sums in another order in BLAS and
        # would change the samples' last bits
        G = G.astype(np.complex128)
    gram = G @ G.conj().transpose(0, 2, 1)
    if kind is SpaceKind.POSDEF:
        gram = gram + 0.1 * np.eye(n)[None, :, :]
    return np.ascontiguousarray(gram.real if real else _hermitian_part(gram))


def random_element(space: SpaceTag, rng=0) -> np.ndarray:
    return random_batch(space, 1, rng)[0]
