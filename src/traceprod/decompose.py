"""Recover canonical parameters from tuples of maps satisfying the trace identity.

`decompose` routes as `generate` does. A family of the table `_DECOMPOSERS`
names the canonical forms it returns and the spans its maps act on
(`_Family.spans`); the first of its forms that `admits` the tuple (the
theorem's hypothesis on length and field) is recovered by its class's one
recovery in `_RECOVER`. "auto" picks the family by the tuple's span and length
(`_resolve`). The pipeline checks the domain and the tuple length, recovers the
canonical parameters (conjugating matrices, scalars, permutations) with the
family's gauge fixed deterministically, and rebuilds the maps from them. Each
recovery only reads: it solves against f_i(I) unjudged, since the parameters
behind it are judged by `from_canonical` inside the rebuild, and refuses only a
tuple with no usable conjugator column or, on pn_pair, an f_1(I) with no
positive square root. Every other verdict and deviation comes from the rebuild
and the result's `diagnostics`; the gauge note states the gauge fixed. A
conjugator N is read off the n images of one unit column of the maps' own span
(`_read_conjugator`), and the rebuild verifies it on the whole basis. The other
full-transfer reads, f_1(I) ... f_{m-1}(I), are bit for bit `apply_batch`'s
value (`_map_at_identity`): an ulp there moves some tuples across
`CERTIFY_TOL`. Every chain, on M_n, Hermitian or symmetric matrices, reads N
off f_1(I)^{-1} f_1 (`_normalized_conjugator`); Hermitian and symmetric chains
share one recovery. A rebuild within rounding (`CERTIFY_TOL`) of the input,
from a form that meets its own invariants, certifies the tuple, since every
tuple of canonical shape satisfies the identity. Only a tuple the rebuild does
not certify, or whose recovery fails, pays for the randomized identity check
(PreservationError); other failures raise CanonicalStructureError. The check
runs at the first rebuild block whose miss rules out the certificate, so a
tuple that fails it is never rebuilt in full.
Each `decompose_<family>` is `decompose` with that family.

Also here: the rank / best-fit diagnostics used as negative controls. The
weighted identity lives in `weighted`.
"""
from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    CanonicalStructureError,
    DimensionMismatchError,
    InvalidParameterError,
    NotApplicableError,
    PreservationError,
    SingularMatrixError,
)
from .extend import (
    PreservationReport,
    _require_passed,
    check_preservation,
)
from .linmaps import (
    DiagChain,
    DiagPair,
    HermEven,
    HermOdd,
    LinMap,
    MnChain,
    NonextendableTriple,
    PnPair,
    SymEven,
    SymOdd,
    _adjoint,
    _apply_coords,
    _as_param,
    _congruence_transfer,
    _first_admitting,
    _gather,
    _inverse,
    _require_map,
    _require_maps,
    _row_blocks,
    _scaled_slot,
    _validated,
)
from .spaces import (
    CERTIFY_TOL, CONJUGATOR_TOL, DEFAULT_TOL, GAUGE_TIE, PRECHECK_TOL, RANK_CUTOFF, REBUILD_PARAM_TOL, REBUILD_TOL,
    Field,
    SpaceKind,
    SpaceTag,
    coords_batch,
    reassemble_batch,
    span_of,
    _basis_terms,
    _check_tol,
    _count,
    _entry_terms,
    _gaussian,
    _hermitian_part,
    _is_real,
    _per_span,
    _rng,
    _span_coords,
    _stack,
)

PRECHECK_TRIALS = 512


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """A recovered canonical form with its reconstruction quality.

    `diagnostics` holds the certificate's numbers: `rebuild_delta`, the
    largest Frobenius miss of a rebuilt transfer relative to its input;
    `invariant_deviation`, how far the form is from its own invariants;
    `precheck_ran`, whether the randomized identity check ran; and, when it
    did, its `max_residual`.
    """

    form: object
    reconstruction_residual: float
    gauge_note: str
    diagnostics: Mapping = field(default_factory=dict)


def _validate_tuple_on(maps, spec: _Family) -> SpaceTag:
    dom = maps[0].domain
    for f in maps:
        if f.domain != dom or f.codomain != dom:
            raise DimensionMismatchError("all maps must be endomorphisms of one shared space")
    kinds = spec.spans(dom.field)
    if span_of(dom).kind not in kinds:
        over = f" over the {dom.field.value} field" if spec.positive else ""
        raise InvalidParameterError(
            f"maps act on {span_of(dom).kind.value}, expected one of {sorted(k.value for k in kinds)}{over}"
        )
    return dom


@_per_span
def _identity_coords(space: SpaceTag) -> np.ndarray:
    """The coordinates of I in the span of `space`, as one read-only row."""
    x = coords_batch(space, np.eye(space.n)[None])
    x.setflags(write=False)
    return x


def _map_at_identity(map_: LinMap) -> np.ndarray:
    """f(I) from the cached coordinates of I, bit for bit `apply_batch`'s value."""
    return _apply_coords(map_, _identity_coords(map_.domain), np.complex128)[0]


def _gauge_entry(M: np.ndarray) -> complex:
    """The first entry of M, in row-major order, whose magnitude is within a
    relative `GAUGE_TIE` of the largest. Entries of equal magnitude, such as
    those of a 2 x 2 unitary, are told apart by position, not by rounding."""
    flat = M.reshape(-1)
    mag = np.abs(flat)
    return complex(flat[int(np.argmax(mag >= (1 - GAUGE_TIE) * np.max(mag)))])


def _phase_fix(M: np.ndarray) -> complex:
    """Unit scalar u making the gauge entry (`_gauge_entry`) of u*M real positive."""
    z = _gauge_entry(M)
    return np.conj(z) / abs(z)


def _sign_fix(M: np.ndarray) -> float:
    """+-1 making the gauge entry (`_gauge_entry`) of the result lie in the right half plane."""
    z = _gauge_entry(M)
    if z.real < 0 or (z.real == 0 and z.imag < 0):
        return -1.0
    return 1.0


def _realize(M: np.ndarray) -> np.ndarray:
    """The real part of a parameter read off real maps. Whether the dropped
    imaginary part was rounding is the rebuild's verdict."""
    M = np.asarray(M)
    return np.ascontiguousarray(M.real) if np.iscomplexobj(M) else M


def _realize_scalars(c) -> tuple:
    return tuple(float(x) for x in _realize(np.asarray(c, dtype=np.complex128)))


def _block_miss(F: np.ndarray, c, T: np.ndarray) -> tuple:
    """(|D|^2, max |D|, |F|^2, max |F|) for the rows F of an input transfer
    and the same rows T of its side, with D = F - c T the one block written.
    A rebuilt block that is not finite raises as `from_canonical` does."""
    rebuilt = _scaled_slot(c, T)
    D = F - T if rebuilt is T else np.subtract(F, rebuilt, out=rebuilt)
    top = np.abs(D).max()
    if not np.isfinite(top) and not np.all(np.isfinite(_scaled_slot(c, T))):
        raise InvalidParameterError("transfer has non-finite entries")
    return np.vdot(D, D).real, top, np.vdot(F, F).real, np.abs(F).max()


def _rebuild(form, space: SpaceTag, maps, on_miss: Callable | None = None) -> tuple[float, float]:
    """The miss of the maps that `form` rebuilds, measured twice: the
    certificate's largest Frobenius error relative to the input transfer, and
    the `tol` gate's worst entry error relative to max(1, largest entry).

    It runs `from_canonical`'s checks at tol `REBUILD_PARAM_TOL`, then takes
    the miss in one pass with no rebuilt tuple held: one side of the form at
    a time, a block of its transfer at a time (`linmaps._row_blocks`), and
    for each map that scales the side one difference block, which adds to
    that map's squared norms and largest moduli. Blocks that small are
    reused by the allocator, where a fresh full-size array would be mapped
    and faulted in page by page. A difference that overflows reads inf, and
    a NaN stays NaN.

    `on_miss`, when given, is called once, after the first block at which
    some map's miss so far rules out the certificate; the rebuild then runs
    on to its end. A sum of squares only grows, so a miss so far above
    `CERTIFY_TOL` of the whole input transfer's norm is a final miss above
    it. That norm is summed block by block, exactly as the final quotient's
    denominator, and only for a map whose miss so far already exceeds
    `CERTIFY_TOL` of the rows read, whose norm is at most the whole one.
    """
    plan = _validated(form, space, tol=REBUILD_PARAM_TOL)
    slots = [(c, j, f.transfer) for (c, j), f in zip(plan.slots, maps)]
    misses = [(0.0, 0.0, 0.0, 0.0)] * len(slots)
    blocks = _row_blocks(space)
    norms = {}

    def rules_out(i: int) -> bool:
        sq, _, f_sq, _ = misses[i]
        if not np.sqrt(sq) / np.sqrt(f_sq) > CERTIFY_TOL:
            return False
        if i not in norms:
            F = slots[i][2]
            norms[i] = sum((np.vdot(F[rows], F[rows]).real for rows in blocks), 0.0)
        return np.sqrt(sq) / np.sqrt(norms[i]) > CERTIFY_TOL

    for k, side in enumerate(plan.sides):
        mine = [i for i, (_, j, _) in enumerate(slots) if j == k]
        for rows in blocks:
            T = side(rows)
            for i in mine:
                c, _, F = slots[i]
                sq, top, f_sq, f_top = _block_miss(F[rows], c, T)
                a, b, e, g = misses[i]
                misses[i] = (a + sq, np.maximum(b, top), e + f_sq, np.maximum(g, f_top))
            if on_miss is not None and any(rules_out(i) for i in mine):
                on_miss()
                on_miss = None
    delta = [np.sqrt(sq) / np.sqrt(f_sq) for sq, _, f_sq, _ in misses]
    worst = [top / max(1.0, f_top) for _, top, _, f_top in misses]
    return float(np.max(delta)), float(np.max(worst))  # np.max keeps a NaN


def _precheck(maps) -> PreservationReport:
    """The randomized (or exhaustive) identity check; PreservationError when it fails."""
    report = check_preservation(maps, tol=PRECHECK_TOL, mode="auto", trials=PRECHECK_TRIALS, seed=7)
    _require_passed(report, "maps")
    return report


# ---------------------------------------------------------------------------
# conjugation recovery
# ---------------------------------------------------------------------------


def _unit_columns(space: SpaceTag) -> np.ndarray:
    """col[i, j] indexes the basis element B of `space` with B e_j = e_i:
    E_ij on M_n, E_jj and E_ij + E_ji on the Hermitian or symmetric span.
    It is the first entry term of (i, j)."""
    return _entry_terms(space)[0][:, 0].reshape(space.n, space.n)


def _conjugators(space: SpaceTag, images_at: Callable):
    """Candidates (N, N^{-1}), one per usable unit column j, for a map with
    Phi(X) = N X N^{-1} on the span of `space` (full, Hermitian or
    symmetric), whose basis images `images_at(ks)` gives as a (len(ks), n, n)
    stack.

    For column j it asks only for the n images Phi(B) with B e_j = e_i.
    Phi(E_jj) = (N e_j)(e_j^t N^{-1}) has rank one, so its largest column v
    is the j-th column of N up to scale; column i is Phi(B) v. A column
    whose N `_inverse` refuses is skipped. Whether N fits the other images
    is the caller's question.
    """
    col = _unit_columns(space)
    for j in range(space.n):
        images = images_at(col[:, j])
        unit = images[j]  # Phi(E_jj)
        v = unit[:, int(np.argmax(np.linalg.norm(unit, axis=0)))]
        N = (images @ v).T  # column i is Phi(B) v with B e_j = e_i
        try:
            Ninv = _inverse(N, "N")
        except SingularMatrixError:
            continue
        yield N, Ninv


def _read_conjugator(space: SpaceTag, images_at: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The first of `_conjugators`, unchecked: the rebuild is the verdict."""
    for pair in _conjugators(space, images_at):
        return pair
    raise CanonicalStructureError("map is not a conjugation by an invertible matrix")


def recover_conjugator(images: np.ndarray, tol: float = CONJUGATOR_TOL) -> np.ndarray:
    """Given the images Phi(B) of the basis of M_n (n^2 images) or of the
    symmetric matrices (n(n+1)/2 images), in `space_basis` order, of a map
    with Phi(X) = N X N^{-1} on that span, find N up to a scalar.

    Each candidate of `_conjugators`, read off the n images of one unit
    column j through the largest column of Phi(E_jj), is verified on every
    basis element and the first consistent one wins. `decompose` reads only
    the first candidate and leaves the check to its rebuild.
    """
    _check_tol(tol)
    shape = "need n^2 or n(n+1)/2 images of shape (n, n)"
    images = _stack(images, "images", shape).astype(np.complex128, copy=False)
    d, n, cols = images.shape if images.ndim == 3 else (0, 0, None)
    if cols != n or d not in (n * n, n * (n + 1) // 2):
        raise DimensionMismatchError(shape)
    full = SpaceTag(SpaceKind.FULL, Field.COMPLEX, n)
    _span_coords(full, images, DEFAULT_TOL, "image")  # on M_n, refuses only a non-finite image
    kind = SpaceKind.FULL if d == n * n else SpaceKind.SYMMETRIC
    space = SpaceTag(kind, Field.COMPLEX, n)
    scale = max(1.0, float(np.max(np.abs(images))))
    best = math.inf
    for N, Ninv in _conjugators(space, images.__getitem__):
        # N B N^{-1} for each basis element B: columns of the transfer on M_n
        rebuilt = _gather(_basis_terms(space), _congruence_transfer(full, N, Ninv), axis=1).T.reshape(d, n, n)
        residual = float(np.max(np.abs(images - rebuilt))) / scale
        if residual <= tol:
            return N
        best = min(best, residual)
    detail = f" (best residual {best:.3g})" if best < math.inf else ""
    raise CanonicalStructureError(f"map is not a conjugation by an invertible matrix{detail}")


def _column_images(map_: LinMap, ks) -> np.ndarray:
    """The images of the basis elements `ks` of the map's span: one
    reassembly of just those transfer columns."""
    return reassemble_batch(map_.codomain, map_.transfer[:, ks].T)


def _normalized_conjugator(maps, space: SpaceTag) -> tuple[list, np.ndarray, np.ndarray]:
    """f_1(I) ... f_{m-1}(I), and N with f_1(I)^{-1} f_1(A) = N A N^{-1} on
    the span of `space`, with its inverse: read off f_1's images of one unit
    column, solved side by side against one factorisation of f_1(I) (an
    explicit inverse loses digits on ill-conditioned tuples). The last scalar
    or conjugator closes the chain, so f_m(I) is not needed."""
    phiI = [_map_at_identity(f) for f in maps[:-1]]
    n = space.n
    return (phiI, *_read_conjugator(space, lambda ks: np.linalg.solve(
        phiI[0], np.hstack(_column_images(maps[0], ks))).reshape(n, len(ks), n).transpose(1, 0, 2)))


# ---------------------------------------------------------------------------
# full matrix chains
# ---------------------------------------------------------------------------


def _recover_mn_chain(cls, maps, dom: SpaceTag) -> tuple:
    # f_1(I)^{-1} f_1 conjugates by N_2; N_1 = f_1(I) N_2, N_{i+1} = f_i(I)^{-1} N_i
    phiI, N, _ = _normalized_conjugator(maps, dom)
    Ns = [phiI[0] @ N, N]
    for S in phiI[1:]:
        Ns.append(np.linalg.solve(S, Ns[-1]))

    t = _phase_fix(Ns[0]) / np.linalg.norm(Ns[0])
    Ns = [t * N for N in Ns]
    if dom.field is Field.REAL:
        Ns = [_realize(N) for N in Ns]
    note = "common scalar fixed: N_1 has unit Frobenius norm and real positive leading entry"
    return MnChain(tuple(Ns)), note


def decompose_mn_chain(maps, tol: float = REBUILD_TOL) -> DecompositionResult:
    """Recover N_1..N_m with f_i(A) = N_i A N_{i+1}^{-1} from a chain on M_n.

    Needs m >= 3: shorter tuples on full spaces admit entrywise-multiplier and
    rank-one-frame families that are not chains. The common scalar on the N_i
    is fixed by giving N_1 unit Frobenius norm and a real positive leading
    entry.
    """
    return decompose(maps, family="mn_chain", tol=tol)


# ---------------------------------------------------------------------------
# Hermitian and symmetric chains
# ---------------------------------------------------------------------------


def _isometry(W: np.ndarray, adjoint, gauge) -> np.ndarray:
    """Strip the free scalar off W = s V with adjoint(V) V = I: gauge(V) V,
    where `gauge` picks the unit scalar that fixes the remaining phase or
    sign. How far V is from an isometry is the form's invariant, measured by
    the certificate.
    """
    lam = complex(np.trace(adjoint(W) @ W)) / W.shape[0]
    V = W / np.sqrt(lam)
    return gauge(V) * V


def _alternating_params(W: np.ndarray, phiI, adjoint) -> tuple[np.ndarray, list]:
    """M = W up to scale, fixed by unit Frobenius norm and a real positive
    leading entry, and scalars read off f_1(I) ... f_{m-1}(I): c_i adjoint(M) M
    on odd slots, c_i M^{-1} adjoint(M^{-1}) on even slots. The last scalar
    closes the product to 1.
    """
    n = W.shape[0]
    M = (_phase_fix(W) / np.linalg.norm(W)) * W
    Minv = np.linalg.inv(M)
    c = []
    for i, S in enumerate(phiI):
        if i % 2 == 0:
            c.append(complex(np.trace(adjoint(Minv) @ S @ Minv)) / n)
        else:
            c.append(complex(np.trace(M @ S @ adjoint(M))) / n)
    c.append(1.0 / complex(np.prod(c)))
    return M, c


def _recover_chain(cls, maps, dom: SpaceTag) -> tuple:
    # the class picks the adjoint, the gauge and N^{-1}: the isometry (HermOdd,
    # SymOdd) or the congruence M, up to scale
    herm = cls in (HermOdd, HermEven)
    adjoint = _adjoint if herm else np.transpose
    phiI, _, W = _normalized_conjugator(maps, dom)
    if cls in (HermOdd, SymOdd):
        mat = _isometry(W, adjoint, _phase_fix if herm else _sign_fix)
        c = [complex(np.trace(S)) / dom.n for S in phiI]
        c.append(1.0 / complex(np.prod(c)))
        note = "U fixed up to phase by a real positive leading entry" if herm else "O fixed up to sign"
    else:
        mat, c = _alternating_params(W, phiI, adjoint)
        note = "M fixed by unit Frobenius norm and real positive leading entry"
    if dom.field is Field.REAL:
        mat = _realize(mat)
    if dom.field is Field.REAL or herm:
        c = _realize_scalars(c)
    return cls(mat, tuple(c)), note


def decompose_hermitian(maps, tol: float = REBUILD_TOL) -> DecompositionResult:
    """Recover the canonical form of a chain on Hermitian matrices, m >= 3.

    Odd m gives scaled conjugations by one unitary (HermOdd); even m gives
    alternating congruences by one invertible matrix (HermEven). Pairs (m = 2)
    are the positive-definite pair family; use decompose_pn_pair. The
    recovery is `decompose_symmetric`'s: N is read off the images of the
    basis elements E_jj and E_ij + E_ji, which lie in both spans, as on
    every span, full, Hermitian or symmetric.
    """
    return decompose(maps, family="hermitian", tol=tol)


def decompose_symmetric(maps, tol: float = REBUILD_TOL) -> DecompositionResult:
    """Recover the canonical form of a chain on symmetric matrices.

    Odd length: scaled conjugations by one (possibly complex) orthogonal
    matrix (SymOdd). Even length: alternating congruences (SymEven). The
    recovery normalizes f_1 at the identity; the result is a conjugation
    A -> N A N^{-1} on the symmetric matrices. N is read off the images of
    the n basis elements E_ij + E_ji that send e_j to e_i, for one j, as on
    every span, full, Hermitian or symmetric, and the rebuild checks it on
    the whole basis. Guaranteed for length >= 3, and for pairs on the real
    definite cone.
    """
    return decompose(maps, family="symmetric", tol=tol)


# ---------------------------------------------------------------------------
# positive definite pairs and chains
# ---------------------------------------------------------------------------


def _recover_pn_pair(cls, maps, dom: SpaceTag) -> tuple:
    n = dom.n
    # S^{-1/2} on both sides: at cond M = 1e3 it certified 18 of 18 pairs, an explicit S^{-1} on one side 8
    S = _map_at_identity(maps[0])
    w, V = np.linalg.eigh(_hermitian_part(S))
    if not w.min() > 0:  # the square roots need it
        raise CanonicalStructureError("f_1(I) is not positive definite")
    Sneg, Shalf = ((V * w**t) @ _adjoint(V) for t in (-0.5, 0.5))

    def images_at(ks):  # the images of the basis elements ks under S^{-1/2} f_1(.) S^{-1/2}
        return Sneg @ _column_images(maps[0], ks) @ Sneg

    # both branches conjugate the symmetric basis elements that N is read off alike
    N, Ninv = _read_conjugator(dom, images_at)
    if n == 1:
        transpose = False
        sep_note = "n = 1: branches coincide"
    else:
        # K = i(E_01 - E_10), basis element n + 1, has K^t = -K: its image is
        # N K N^{-1} on the direct branch and -N K N^{-1} on the transpose; the
        # nearer branch is taken, and the rebuild judges it
        image, NKN = images_at([n + 1])[0], N @ reassemble_batch(dom, np.eye(1, n * n, n + 1))[0] @ Ninv
        d_mult = float(np.linalg.norm(image - NKN))
        d_anti = float(np.linalg.norm(image + NKN))
        transpose = d_anti < d_mult
        sep_note = f"branch deviations {d_mult:.3g} (direct) vs {d_anti:.3g} (transpose)"

    M = _isometry(_adjoint(N), _adjoint, _phase_fix) @ Shalf
    M = _phase_fix(M) * M
    return PnPair(M, transpose), f"M fixed up to phase; {sep_note}"


def decompose_pn_pair(maps, tol: float = REBUILD_TOL) -> DecompositionResult:
    """Recover (M, transpose flag) for a pair preserving traces of products on
    the positive definite cone: f_1(A) = M*AM or M*A^tM, f_2 its inverse partner.

    f_1(I) must be positive definite. M carries only a phase freedom, fixed by
    a real positive leading entry.
    """
    return decompose(maps, family="pn_pair", tol=tol)


def decompose_pn_chain(maps, tol: float = REBUILD_TOL) -> DecompositionResult:
    """Recover the canonical form of a chain preserving traces of products of
    positive definite matrices: the first of PnPair, HermOdd, HermEven, SymOdd
    and SymEven that admits the tuple, whose scalars must come out positive.
    """
    return decompose(maps, family="pn_chain", tol=tol)


# ---------------------------------------------------------------------------
# diagonal families
# ---------------------------------------------------------------------------


def _recover_diag_pair(cls, maps, dom: SpaceTag) -> tuple:
    return DiagPair(np.array(maps[0].transfer)), "parameters unique: N is the transfer of f_1"


def decompose_diag_pair(maps, tol: float = REBUILD_TOL) -> DecompositionResult:
    """Recover N with f_1 acting as N on diagonal coordinates and f_2 as N^{-t}.

    Every invertible N gives such a pair, so the parameters are unique with no
    gauge freedom: N is literally the transfer of f_1.
    """
    return decompose(maps, family="diag_pair", tol=tol)


def _recover_diag_chain(cls, maps, dom: SpaceTag) -> tuple:
    # f_1's largest entry in column i sits in row sigma[i]; every C_i is read
    # at that pattern, and the rebuild judges whether the pattern holds
    n = dom.n
    sigma = np.argmax(np.abs(maps[0].transfer), axis=0)
    C = np.zeros((len(maps), n), dtype=np.complex128)  # row i is the diagonal of C_i
    C[:, sigma] = [f.transfer[sigma, np.arange(n)] for f in maps]
    C[-1] = 1.0 / np.prod(C[:-1], axis=0)
    if dom.field is Field.REAL:
        C = [_realize(c) for c in C]
    form = DiagChain(np.eye(n)[sigma], tuple(np.diag(c) for c in C))
    return form, "parameters unique: permutation and scalings are pinned"


def decompose_diag_chain(maps, tol: float = REBUILD_TOL) -> DecompositionResult:
    """Recover (P, C_1..C_m) with f_i(A) = C_i P^t A P on diagonal matrices,
    the C_i diagonal with product I. Parameters are unique: no gauge freedom.
    """
    return decompose(maps, family="diag_chain", tol=tol)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    """A decompose family: the form classes it returns, the error for a tuple
    that none of them admits, and whether it is the cone's (`positive`, as in
    `families._Family`), whose chains need positive scalars. Its maps act on
    `spans(field)`, the definite cone's span over `field` for the cone's
    family and else its forms' kinds: every form it returns acts there."""

    forms: tuple
    length_error: str
    positive: bool = False

    def spans(self, field: Field) -> frozenset:
        if self.positive:
            return frozenset({span_of(SpaceTag(SpaceKind.POSDEF, field, 1)).kind})
        return frozenset().union(*(form.kinds for form in self.forms))


_DECOMPOSERS = {
    "mn_chain": _Family((MnChain,), "chains on full matrix spaces need at least 3 maps"),
    "pn_pair": _Family((PnPair,), "this family is a pair; longer chains go to decompose_pn_chain"),
    "hermitian": _Family(
        (HermOdd, HermEven), "Hermitian chains need at least 3 maps; pairs belong to decompose_pn_pair"
    ),
    "pn_chain": _Family((PnPair, HermOdd, HermEven, SymOdd, SymEven), "need at least a pair", positive=True),
    "symmetric": _Family((SymOdd, SymEven), "need at least a pair"),
    "diag_pair": _Family((DiagPair,), "diagonal pairs have exactly 2 maps"),
    "diag_chain": _Family((DiagChain,), "diagonal chains need at least 3 maps; pairs go to decompose_diag_pair"),
}

# one recovery per form class, as `families._SAMPLERS` has one sampler:
# (cls, maps, domain) -> (form, gauge_note). A recovery checks nothing: its
# note states the gauge, plus pn_pair's two branch deviations.
_RECOVER = {
    MnChain: _recover_mn_chain,
    PnPair: _recover_pn_pair,
    **dict.fromkeys((HermOdd, HermEven, SymOdd, SymEven), _recover_chain),
    DiagPair: _recover_diag_pair,
    DiagChain: _recover_diag_chain,
}


def _resolve(dom: SpaceTag, m: int) -> str:
    """The family that "auto" stands for on an m-tuple on `dom`: pn_chain on a
    definite cone, else the first other family on the span of `dom` that
    admits the tuple, or the last, whose length error the caller raises."""
    if dom.kind in (SpaceKind.POSDEF, SpaceKind.POSSEMIDEF):
        return "pn_chain"
    kind = span_of(dom).kind
    names = [name for name, spec in _DECOMPOSERS.items() if not spec.positive and kind in spec.spans(dom.field)]
    return next((name for name in names if _first_admitting(_DECOMPOSERS[name].forms, m, dom.field)), names[-1])


def decompose(maps, family: str = "auto", tol: float = REBUILD_TOL) -> DecompositionResult:
    """Decompose a tuple of maps as `family` ("auto": by its domain and
    length), by the recovery of the family's first form that admits it.

    The checks run in a fixed order: `tol` (finite, nonnegative), the
    family name, the maps (an iterable of LinMaps), the domain (one shared
    space of the family's `spans` over its field, so pn_chain refuses complex
    symmetric maps and names the field) and the length.
    Then the form is recovered and rebuilt once: recovery reads the
    parameters off the maps and leaves every structural verdict to the
    rebuild. When recovery or the rebuild fails, the identity check runs
    first, so a tuple that breaks the identity raises PreservationError. Any
    other tuple raises CanonicalStructureError, also when an f_i(I) is
    singular or `from_canonical` refuses a parameter (singular, too
    ill-conditioned, or off an invariant; the message names it). The tuple
    is certified when each rebuilt transfer is within `CERTIFY_TOL` of its
    input in relative Frobenius norm and the form meets its own `invariants`
    to `CERTIFY_TOL`; otherwise the identity check runs (PreservationError),
    once: inside the rebuild, at the first block whose miss already exceeds
    `CERTIFY_TOL`, or after it. A passing check lets the rebuild run on, so
    the result and its diagnostics do not depend on where the check ran.
    Then the rebuild must be within `tol` (CanonicalStructureError), and
    pn_chain's Hermitian and symmetric chains must have positive scalars.
    The result's `diagnostics` record the certificate and the check.
    """
    _check_tol(tol)
    if not (isinstance(family, str) and (family == "auto" or family in _DECOMPOSERS)):
        raise InvalidParameterError(
            f"unknown family {reprlib.repr(family)}; expected one of {sorted(_DECOMPOSERS)} or 'auto'"
        )
    maps = _require_maps(maps)
    m = len(maps)
    spec = _DECOMPOSERS[_resolve(maps[0].domain, m) if family == "auto" else family]
    dom = _validate_tuple_on(maps, spec)
    cls = _first_admitting(spec.forms, m, dom.field)
    if cls is None:
        raise NotApplicableError(spec.length_error)
    # the one identity check: the rebuild runs it at the first block that
    # rules out the certificate, and a later call reads the same report
    precheck = functools.cache(lambda: _precheck(maps))
    # a tuple far from any preserver may overflow here; its residual reads inf
    with np.errstate(all="ignore"):
        try:
            form, note = _RECOVER[cls](cls, maps, dom)
            delta, worst = _rebuild(form, dom, maps, precheck)
        except PreservationError:
            raise  # from the rebuild's check, which a second call would repeat
        except Exception as exc:
            precheck()
            if isinstance(exc, (InvalidParameterError, SingularMatrixError, np.linalg.LinAlgError)):
                # a refused parameter, or an exactly singular f_i(I): no canonical form fits the tuple
                raise CanonicalStructureError(str(exc)) from exc
            raise
        deviation = float(np.max([0.0, *(dev for _, dev, _ in form.invariants())]))
        report = None
        if not (delta <= CERTIFY_TOL and deviation <= CERTIFY_TOL):
            report = precheck()
    if not worst <= tol:
        raise CanonicalStructureError(
            f"the recovered {type(form).__name__} rebuilds the maps only to {worst:.3g}, above tol {tol:.3g}"
        )
    # PnPair has no scalars; every other cone form realises its scalars (SymOdd
    # and SymEven hold them as complex), so only the sign decides
    if spec.positive and cls is not PnPair and any(x.real <= 0 for x in form.c):
        raise CanonicalStructureError(
            f"the recovered scalars must be positive to preserve the definite cone, got {form.c}"
        )
    diagnostics = {"rebuild_delta": delta, "invariant_deviation": deviation, "precheck_ran": report is not None}
    if report is not None:
        diagnostics["max_residual"] = report.max_residual
    return DecompositionResult(form, worst, note, diagnostics)


# ---------------------------------------------------------------------------
# negative-control diagnostics
# ---------------------------------------------------------------------------


def reshuffled_transfer_rank(map_: LinMap, rtol: float = RANK_CUTOFF) -> int:
    """Rank of the row/column reshuffle of a full-space transfer.

    A map of the two-sided form A -> X A Y reshuffles to a rank-one matrix;
    entrywise multipliers reshuffle to the rank of their multiplier matrix.
    A singular value counts when it is above `rtol` times the largest, so
    `rtol` lies in (0, 1): at 0 or below every one counts, and at 1 or above,
    or NaN, none does.
    """
    if not (_is_real(rtol) and 0 < rtol < 1):
        raise InvalidParameterError(f"rtol must lie in the open interval (0, 1), got {reprlib.repr(rtol)}")
    _require_map(map_, "map_")
    dom = span_of(map_.domain)
    cod = span_of(map_.codomain)
    if dom.kind is not SpaceKind.FULL or cod.kind is not SpaceKind.FULL:
        raise InvalidParameterError("reshuffling needs full-space transfers")
    n, k = dom.n, cod.n
    R = map_.transfer.reshape(k, k, n, n).transpose(0, 2, 1, 3).reshape(k * n, k * n)
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def nonextendable_best_fit_residual(form_or_x, trials: int = 20, seed: int = 0) -> float:
    """Smallest per-pair relative residual of the best single right factor Z in
    B C + B X C X* = (B C + B C) Z over sampled (B, C) (block-diagonal sums).

    A scalar X makes this solvable (residual at rounding level); any other X
    leaves every sampled pair far from solvable, which is the obstruction to
    extending the corner triple to a bijective one. Accepts the triple's form
    or a bare matrix X, finite and square, so scalar controls can be measured
    too.
    """
    trials = _count(trials, "trials")
    if isinstance(form_or_x, NonextendableTriple):
        X = form_or_x.X
    else:
        X = _as_param(form_or_x, "X")
    n = X.shape[0]
    rng = _rng(seed)
    lefts = []
    rights = []
    per_pair = []
    for _ in range(trials):
        B = _gaussian((n, n), False, rng)
        C = _gaussian((n, n), False, rng)
        BC = B @ C
        L = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        L[:n, :n] = BC
        L[n:, n:] = BC
        R = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        R[:n, :n] = BC
        R[n:, n:] = B @ X @ C @ X.conj().T
        lefts.append(L)
        rights.append(R)
    A = np.vstack(lefts)
    Y = np.vstack(rights)
    Z, *_ = np.linalg.lstsq(A, Y, rcond=None)
    for L, R in zip(lefts, rights):
        dev = np.linalg.norm(L @ Z - R) / max(1.0, np.linalg.norm(R))
        per_pair.append(float(dev))
    return min(per_pair)
