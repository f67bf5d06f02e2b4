"""Verification and construction around the identity tr(f1(A1)...fm(Am)) = tr(A1...Am).

`check_preservation` measures how far a tuple of maps is from satisfying the
identity, exhaustively on basis tuples when that is affordable and by seeded
randomized sampling otherwise. `dualize` produces the trace-dual partner of a
bijection, `extend_from_subset` rebuilds a map from sampled input/output pairs,
`embed_extend_pair` extends a corner-supported pair on M_n to a bijective pair
on M_k, and `infeasibility_certificate` certifies by rank counting that no pair
into a smaller matrix algebra can satisfy the identity.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotApplicableError,
    PreservationError,
    RankDeficientError,
    InconsistentSamplesError,
)
from .linmaps import (
    LinMap,
    complexify,
    is_hermitian_preserving,
    _apply_batch,
    _gather,
    _herm_change,
    _inverse,
    _require_map,
    _require_maps,
)
from .spaces import (
    DEFAULT_TOL, DUALIZE_TOL_FLOOR, EXTEND_TOL, RANK_CUTOFF, SAMPLE_FIT_TOL,
    Field,
    SpaceKind,
    SpaceTag,
    base_field,
    span_dim,
    span_of,
    _basis_terms,
    _check_seed,
    _check_space,
    _check_tol,
    _complex_stack,
    _count,
    _dtype_of,
    _field_dtype,
    _gaussian,
    _is_real,
    _member,
    _random_batch,
    _reassemble,
    _rng,
    _span_coords,
)

# beyond this many basis tuples the exhaustive check switches to sampling
EXHAUSTIVE_CAP = 10**6
# a randomized grid block spans at most _BATCH slot-1 samples; a grid block
# of either mode spans at most _GRID_TUPLES tuples, unless one slot-1 matrix does
_BATCH = 512
_GRID_TUPLES = 2**15


class CheckMode(str, enum.Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOMIZED = "randomized"


@dataclass(frozen=True, eq=False)
class PreservationReport:
    """Outcome of a preservation check on a tuple of maps.

    `m` is the number of spaces, and `passed` is `max_residual <= tol`, so a
    NaN residual fails; neither is a constructor argument.
    """

    spaces: tuple
    mode: CheckMode
    trials: int
    max_residual: float
    worst_tuple: tuple
    tol: float
    m: int = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        _check_tol(self.tol)
        object.__setattr__(self, "m", len(self.spaces))
        object.__setattr__(self, "passed", bool(self.max_residual <= self.tol))


def _require_passed(report: PreservationReport, what: str) -> None:
    """Raise PreservationError, carrying the report, when it failed; `what`
    names the tuple in the message ("maps", "inputs")."""
    if not report.passed:
        raise PreservationError(
            f"{what} do not satisfy the trace-product identity (residual {report.max_residual:.3g})",
            report=report,
        )


def _residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """|lhs - rhs| / max(1, |rhs|) entrywise, with a NaN or infinite residual
    made infinite so that it can never pass."""
    res = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    res[~np.isfinite(res)] = np.inf
    return res


def _map_list(maps) -> list:
    """`maps`, any iterable of them, as a list; anything else is an InvalidParameterError."""
    try:
        items = iter(maps)
    except TypeError:
        raise InvalidParameterError(f"maps must be an iterable of maps, got {type(maps).__name__}") from None
    return list(items)


def _validate_tuple(maps) -> tuple[int, int]:
    _require_maps(maps)
    n = maps[0].domain.n
    k = maps[0].codomain.n
    for i, f in enumerate(maps):
        if f.domain.n != n:
            raise DimensionMismatchError(f"maps[{i}] has domain size {f.domain.n}, expected {n}")
        if f.codomain.n != k:
            raise DimensionMismatchError(f"maps[{i}] has codomain size {f.codomain.n}, expected {k}")
    return n, k


def _product_stack(stacks: list[np.ndarray]) -> np.ndarray:
    """All products over one index per stack: (prod d_i, n, n), first index slowest.

    Each step is one matmul (a*n, n) @ (n, b*n) whose (a, i, b, k) entries are
    reordered to (a, b, i, k).
    """
    out = stacks[0]
    n = out.shape[-1]
    for st in stacks[1:]:
        a, b = out.shape[0], st.shape[0]
        flat = out.reshape(a * n, n) @ st.transpose(1, 0, 2).reshape(n, b * n)
        out = flat.reshape(a, n, b, n).transpose(0, 2, 1, 3).reshape(a * b, n, n)
    return out


def check_preservation(
    maps,
    tol: float = DEFAULT_TOL,
    mode: str = "auto",
    trials: int = 10000,
    seed: int = 0,
    sample_space: SpaceTag | None = None,
) -> PreservationReport:
    """Check tr(f1(A1)...fm(Am)) = tr(A1...Am) over the maps' domains.

    mode "auto" runs the exhaustive check when the basis-tuple count
    prod(dim) stays at or below 10**6 and the randomized one otherwise;
    "exhaustive" and "randomized" force the choice. Residuals are
    |lhs - rhs| / max(1, |rhs|), with NaN or inf read as inf. `sample_space`
    redirects randomized sampling (all slots) to a specific space with the
    same span, e.g. a definite cone.

    Both modes check a product grid: every tuple (A1, ..., Am) with Ai taken
    from a stack for slot i. The exhaustive stacks are the domain bases,
    checked in runs of slot-1 basis elements of at most `_GRID_TUPLES` grid
    tuples each (`_basis_blocks`), so memory does not grow with the grid. The
    randomized ones are k = ceil(trials**(1/m)) seeded samples per slot,
    drawn as `random_batch` draws them, slots 2..m first and slot 1 last;
    `trials` counts the grid tuples checked, the first ones in row-major order
    (slot 1 slowest). The identity is multilinear, so any grid tuple of
    independent generic samples detects a non-preserver as a tuple of fresh
    samples would, while each map is applied to at most k samples, not to
    `trials`.
    Products are taken in each matrix's own field (float64 for real ones),
    and `worst_tuple` holds complex (n, n) matrices.
    """
    _check_tol(tol)
    _check_seed(seed)
    trials = _count(trials, "trials")
    maps = _map_list(maps)
    n, _ = _validate_tuple(maps)
    if sample_space is not None:
        _check_space(sample_space, "sample_space")
        if sample_space.n != n:
            raise DimensionMismatchError(f"sample_space has n={sample_space.n}, maps expect {n}")
        for f in maps:
            if span_of(sample_space) != span_of(f.domain):
                raise InvalidParameterError(
                    "sample_space must span the same space as every map's domain"
                )
    dims = [span_dim(f.domain) for f in maps]
    total = math.prod(dims)
    if mode == "auto":
        chosen = CheckMode.EXHAUSTIVE if total <= EXHAUSTIVE_CAP else CheckMode.RANDOMIZED
    else:
        try:
            chosen = CheckMode(mode)
        except ValueError:
            raise InvalidParameterError(f"mode must be auto, exhaustive or randomized, got {mode!r}") from None

    # an overflow in the products reads as an infinite residual, so it warns nothing
    with np.errstate(over="ignore", invalid="ignore"):
        if chosen is CheckMode.EXHAUSTIVE:
            blocks, count = _basis_blocks(maps, dims), total
        else:
            spaces = [sample_space if sample_space is not None else f.domain for f in maps]
            blocks, count = _sample_blocks(maps, spaces, trials, seed), trials
        max_res, worst = _check_grid(blocks, count)
    return PreservationReport(
        spaces=tuple(f.domain for f in maps),
        mode=chosen,
        trials=count,
        max_residual=float(max_res),
        worst_tuple=worst,
        tol=float(tol),
    )


def _pair_traces(stacks: list[np.ndarray], half: int) -> np.ndarray:
    """tr(L_a R_b) for L_a the products over stacks[:half] and R_b those over
    stacks[half:] (the identity when there are none), as a (len L, len R) matrix."""
    left = _product_stack(stacks[:half])
    if len(stacks) > half:
        right = _product_stack(stacks[half:])
    else:
        k = stacks[0].shape[-1]
        right = np.eye(k, dtype=stacks[0].dtype)[None, :, :]
    # tr(L_a R_b) = sum_ij L_a[i, j] R_b[j, i]
    return left.reshape(len(left), -1) @ right.transpose(0, 2, 1).reshape(len(right), -1).T


def _grid_shape(trials: int, m: int) -> tuple[int, int, int]:
    """(k, need, block) of a randomized grid check of `trials` tuples over m
    slots: k = ceil(trials**(1/m)) samples for each of slots 2..m, the `need`
    samples of slot 1 that the first `trials` tuples use, and the slot-1
    samples drawn at a time: at most _BATCH, and at most _GRID_TUPLES tuples'
    worth unless one sample alone spans more."""
    k = max(1, round(trials ** (1.0 / m)))
    while k**m < trials:
        k += 1
    per = k ** (m - 1)  # tuples per slot-1 sample
    need = -(-trials // per)
    return k, need, min(need, _BATCH, max(1, _GRID_TUPLES // per))


def _basis_blocks(maps, dims: list[int]):
    """The blocks of the exhaustive grid over the domain bases, as
    `_check_grid` reads them: runs of slot-1 basis elements, each at most
    `_GRID_TUPLES` tuples' worth unless one element alone spans more. The
    basis and image stacks are built once, so memory does not grow with the
    grid."""
    half = (len(maps) + 1) // 2
    images = [_reassemble(f.codomain, f.transfer.T, _field_dtype(f.codomain)) for f in maps]
    bases = [_reassemble(f.domain, np.eye(d), _field_dtype(f.domain)) for f, d in zip(maps, dims)]
    step = max(1, _GRID_TUPLES // math.prod(dims[1:]))
    for start in range(0, dims[0], step):
        first = bases[0][start : start + step]
        mapped = images[0][start : start + step]
        yield _pair_traces([mapped, *images[1:]], half), _pair_traces([first, *bases[1:]], half), [first, *bases[1:]]


def _sample_blocks(maps, spaces, trials: int, seed: int):
    """The blocks of a seeded sample grid of `trials` tuples, as `_check_grid`
    reads them. Slots 2..m are drawn and mapped once, then slot 1 a block at
    a time, so memory does not grow with `trials`."""
    k, need, block = _grid_shape(trials, len(maps))
    half = (len(maps) + 1) // 2
    rng = _rng(seed)
    rest = [_random_batch(sp, k, rng) for sp in spaces[1:]]
    images = [_apply_batch(f, A, dtype=_field_dtype(f.codomain)) for f, A in zip(maps[1:], rest)]
    for start in range(0, need, block):
        first = _random_batch(spaces[0], min(block, need - start), rng)
        mapped = _apply_batch(maps[0], first, dtype=_field_dtype(maps[0].codomain))
        yield _pair_traces([mapped, *images], half), _pair_traces([first, *rest], half), [first, *rest]


def _check_grid(blocks, count: int) -> tuple[float, tuple]:
    """The largest `_residuals` over the first `count` tuples of a product
    grid, and that tuple as complex (n, n) matrices.

    Each block is (lhs, rhs, stacks): the `_pair_traces` grids of the two
    sides over `stacks`, one stack per slot, where slot 1 holds the block's
    run of the grid's slot-1 matrices; the blocks follow each other in
    row-major order.
    """
    max_res, worst, done = -1.0, (), 0
    for lhs, rhs, stacks in blocks:
        res = _residuals(lhs.reshape(-1)[: count - done], rhs.reshape(-1)[: count - done])
        j = int(np.argmax(res))
        if res[j] > max_res:
            max_res = float(res[j])
            idx = np.unravel_index(j, [len(A) for A in stacks])
            worst = tuple(np.array(A[i], dtype=np.complex128) for A, i in zip(stacks, idx))
        done += lhs.size
    return max_res, worst


def _gram_pairs(space: SpaceTag) -> tuple[np.ndarray, np.ndarray]:
    """(partner, norms): basis element k pairs under the trace only with
    element partner[k] (E_ij with E_ji on a full span, itself otherwise), to
    the squared norm norms[k]. partner is an involution."""
    k = np.arange(span_dim(space))
    partner = k.reshape(space.n, space.n).T.ravel() if space.kind is SpaceKind.FULL else k
    return partner, np.sum(np.abs(_basis_terms(space)[1]) ** 2, axis=1)


def _times_span_gram(X: np.ndarray, space: SpaceTag) -> np.ndarray:
    """X @ G, exactly, for G the trace Gram [tr(B_a B_b)] of the span's basis,
    as one column gather and scaling: column l of the product is
    norms[partner[l]] times column partner[l] of X. The + 0.0 gives a zero the
    sign that the product's sum of zero terms gives it."""
    partner, norms = _gram_pairs(span_of(space))
    out = np.take(X, partner, axis=1)
    out *= norms[partner]
    out += 0.0
    return out


def dualize(map_: LinMap, tol: float = DEFAULT_TOL) -> LinMap:
    """The unique partner psi with tr(f(A) psi(B)) = tr(A B) for all A, B.

    Requires the map to be a bijection onto its codomain span; both sides of
    the defining identity are bilinear, so matching them on basis pairs pins
    psi down: with G[a, l] = tr(f(B_a) C_l), the transfer is G^{-1} times the
    trace Gram matrix [tr(B_a B_b)], by `linmaps._inverse` and one column
    gather. SingularMatrixError when G is singular or its 1-norm condition
    number, taken from that one inverse, is above
    1/max(tol, `DUALIZE_TOL_FLOOR`). Applying dualize twice returns the
    original map.
    """
    _check_tol(tol)
    _require_map(map_, "map_")
    d = span_dim(map_.domain)
    if span_dim(map_.codomain) != d:
        raise InvalidParameterError("dualize needs equal domain and codomain span dimensions")
    G = _times_span_gram(map_.transfer.T, map_.codomain)
    Ginv = _inverse(G, "the map's trace pairing", limit=1.0 / max(tol, DUALIZE_TOL_FLOOR))
    return LinMap(map_.domain, map_.codomain, _times_span_gram(Ginv, map_.domain))


def extend_from_subset(domain: SpaceTag, codomain: SpaceTag, samples, tol: float = SAMPLE_FIT_TOL) -> LinMap:
    """Rebuild a linear map from (input, output) samples spanning the domain.

    Raises RankDeficientError when the inputs do not span, and
    InconsistentSamplesError when no linear map reproduces the outputs within
    tol (relative per-sample deviation); the error carries the worst sample.
    """
    _check_tol(tol)
    _check_space(domain, "domain")
    _check_space(codomain, "codomain")
    try:
        pairs = list(samples)
    except TypeError:
        raise InvalidParameterError(
            f"samples must be an iterable of (input, output) pairs, got {type(samples).__name__}"
        ) from None
    if not pairs:
        raise InvalidParameterError("no samples given")
    mixed = "samples must be (input, output) matrix pairs"
    inputs, outputs = [], []
    for i, pair in enumerate(pairs):
        try:
            a, b = pair
        except (TypeError, ValueError):  # no iterable of two
            raise DimensionMismatchError(f"{mixed}: sample {i} is no pair") from None
        inputs.append(a)
        outputs.append(b)
    A, B = _complex_stack(inputs, "inputs", mixed), _complex_stack(outputs, "outputs", mixed)
    X = _span_coords(domain, A, tol, "input of sample")  # (T, d)
    Y = _span_coords(codomain, B, tol, "output of sample")  # (T, d')
    d = span_dim(domain)
    # lstsq's default cutoff is matrix_rank's, so its rank is the inputs' rank
    sol, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < d:
        raise RankDeficientError(f"inputs span a {rank}-dimensional subspace of a {d}-dimensional space")
    T = sol.T  # (d', d)
    # per-sample consistency relative to the sample's own scale
    pred = X @ sol
    scales = np.maximum(1.0, np.max(np.abs(Y), axis=1, initial=0.0))
    dev = np.max(np.abs(pred - Y), axis=1, initial=0.0) / scales
    worst = int(np.argmax(dev))
    if dev[worst] > tol:
        raise InconsistentSamplesError(
            f"samples are not consistent with any linear map (worst relative deviation {dev[worst]:.3g})",
            worst_index=worst,
            residual=float(dev[worst]),
        )
    return LinMap(domain, codomain, T)


# ---------------------------------------------------------------------------
# corner-embedding extension
# ---------------------------------------------------------------------------


def _corner_index_map(dom_span: SpaceTag, cod_span: SpaceTag) -> np.ndarray:
    """Index of each domain basis element, padded into the top-left corner,
    inside the codomain basis: the codomain elements whose entries all lie in
    the corner. Both basis orders embed unit for unit and keep their order."""
    rows, cols = np.divmod(_basis_terms(cod_span)[0], cod_span.n)
    return np.flatnonzero(np.all(np.maximum(rows, cols) < dom_span.n, axis=1))


def _null_space(R: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of R, as columns.

    Singular values up to max(R.shape) * eps * s_max count as zero. The basis
    comes back row-major: BLAS sums a column-major operand in another order,
    so the layout decides the last bits of every extension built from it.
    """
    _, s, vh = np.linalg.svd(R, full_matrices=True)
    cutoff = np.finfo(s.dtype).eps * max(R.shape) * np.amax(s, initial=0.0)
    rank = int(np.sum(s > cutoff))
    return np.ascontiguousarray(vh[rank:].conj().T)


def _extend_pair_core(phi1: LinMap, phi2: LinMap) -> tuple[LinMap, LinMap]:
    dom = span_of(phi1.domain)
    cod = span_of(phi1.codomain)
    d = span_dim(dom)
    D = span_dim(cod)
    corner = _corner_index_map(dom, cod)
    comp = np.setdiff1d(np.arange(D), corner)

    # X_i = orthogonal complement of Im phi_i under the trace pairing
    R1 = _times_span_gram(phi1.transfer.T, cod)  # rows: pairing of each phi1 image against the basis
    R2 = _times_span_gram(phi2.transfer.T, cod)
    Z1 = _null_space(R1)
    Z2 = _null_space(R2)
    if Z1.shape[1] != D - d or Z2.shape[1] != D - d:
        raise RankDeficientError(
            "the maps are not injective: their trace-pairing annihilators are too large"
        )

    # psi1 sends the complement basis into X2 so it pairs to zero against
    # Im phi2; psi2 sends it into X1. The remaining requirement is the Gram
    # match tr(E_i F_j) = tr(C_i C_j) on complement elements: F = Z1 P^-1 H with
    # P = Z2^t G Z1, G the span Gram and H its complement block. The complement
    # pairs only with itself, so P^-1 H is P^-1, put in the complement columns,
    # times G; `take` keeps it row-major, as BLAS must see it (`_null_space`).
    dt = _dtype_of(base_field(cod))
    Pinv = np.zeros((len(comp), D), dtype=dt)
    Pinv[:, comp] = _inverse(_times_span_gram(Z2.T, cod) @ Z1, "the complement pairing")
    F = Z1 @ np.take(_times_span_gram(Pinv, cod), comp, axis=1)  # coordinates of psi2's complement images

    T1 = np.zeros((D, D), dtype=dt)
    T2 = np.zeros((D, D), dtype=dt)
    T1[:, corner] = phi1.transfer
    T2[:, corner] = phi2.transfer
    T1[:, comp] = Z2
    T2[:, comp] = F
    return LinMap(cod, cod, T1), LinMap(cod, cod, T2)


def _restrict_to_hermitian(map_: LinMap) -> LinMap:
    """Real-linear restriction of a Hermitian-preserving map to Hermitian parts:
    the real part of S_cod^-1 T S_dom, S the Hermitian basis change, built as
    one column and one row gather."""
    hdom = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, map_.domain.n)
    hcod = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, map_.codomain.n)
    on_basis = _gather(_basis_terms(hdom), map_.transfer, axis=1)
    return LinMap(hdom, hcod, _gather(_herm_change(hcod.n).S_inv_rows, on_basis, axis=0).real)


def embed_extend_pair(phi1: LinMap, phi2: LinMap, tol: float = EXTEND_TOL) -> tuple[LinMap, LinMap]:
    """Extend a trace-product pair on M_n, placed in the top-left corner of M_k,
    to a bijective pair on all of M_k.

    The outputs agree with the inputs on corner-supported matrices and satisfy
    tr(psi1(A) psi2(B)) = tr(A B) on all of M_k. When both inputs preserve
    Hermitian matrices the construction runs in real Hermitian coordinates, so
    the outputs preserve them too. Raises NotApplicableError when n > k (no
    such pair exists; see infeasibility_certificate) and PreservationError when
    the inputs do not satisfy the identity on M_n.
    """
    _check_tol(tol)
    for name, f in (("phi1", phi1), ("phi2", phi2)):
        _require_map(f, name)
        if span_of(f.domain).kind is not SpaceKind.FULL or span_of(f.codomain).kind is not SpaceKind.FULL:
            raise InvalidParameterError(f"{name} must map a full matrix space into a full matrix space")
    if phi1.domain != phi2.domain or phi1.codomain != phi2.codomain:
        raise InvalidParameterError("the two maps must share domain and codomain")
    n = phi1.domain.n
    k = phi1.codomain.n
    if n > k:
        raise NotApplicableError(
            f"no trace-product pair M_{n} -> M_{k} exists for n > k; rank counting forbids it"
        )
    _require_passed(check_preservation([phi1, phi2], tol=max(tol, EXTEND_TOL), mode="exhaustive"), "inputs")
    if n == k:
        for name, f in (("phi1", phi1), ("phi2", phi2)):
            _inverse(f.transfer, name)  # the extension must be invertible
        return phi1, phi2

    hermitian_route = (
        phi1.domain.field is Field.COMPLEX
        and is_hermitian_preserving(phi1)
        and is_hermitian_preserving(phi2)
    )
    if hermitian_route:
        psi1h, psi2h = _extend_pair_core(_restrict_to_hermitian(phi1), _restrict_to_hermitian(phi2))
        return complexify(psi1h), complexify(psi2h)
    return _extend_pair_core(phi1, phi2)


# ---------------------------------------------------------------------------
# infeasibility by rank counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InfeasibilityCertificate:
    """Rank evidence that no trace-product pair M_n -> M_k exists.

    The target Gram matrix [tr(B_a B_b)] over the domain basis has full rank
    n^2, while any candidate pair's Gram [tr(f1(B_a) f2(B_b))] factors through
    M_k and so has rank at most k^2. `singular_values` belongs to the
    highest-rank candidate Gram among the sampled pairs.
    """

    n: int
    k: int
    field: Field
    gram_rhs_rank: int
    gram_lhs_rank: int
    rank_bound: int
    singular_values: np.ndarray
    cutoff: float
    certifies_impossibility: bool


def infeasibility_certificate(
    n: int,
    k: int,
    field: Field = Field.COMPLEX,
    trials: int = 20,
    seed: int = 0,
    cutoff_factor: float = RANK_CUTOFF,
) -> InfeasibilityCertificate:
    """Certify that no pair of maps M_n -> M_k satisfies the identity when n > k.

    Ranks the Gram matrices of at most `trials` random map pairs at the cutoff
    `cutoff_factor * sigma_max`, up to the first at rank k^2, the factorization
    bound; matching tr(A B) would need rank n^2, exactly: the trace pairs each
    basis element with one partner, at a positive weight.
    `cutoff_factor` lies in (0, 1): at 0 or below, every singular value
    counts, and at 1 or above, or NaN, none does.
    """
    if not (_is_real(cutoff_factor) and 0 < cutoff_factor < 1):
        raise InvalidParameterError(f"cutoff_factor must lie in the open interval (0, 1), got {cutoff_factor!r}")
    trials = _count(trials, "trials")
    field = _member(Field, field)
    n, k = _count(n, "n"), _count(k, "k")
    if n <= k:
        raise NotApplicableError(
            f"pairs M_{n} -> M_{k} with n <= k exist, so there is nothing to certify"
        )
    dom = SpaceTag(SpaceKind.FULL, field, n)
    cod = SpaceTag(SpaceKind.FULL, field, k)
    d, Dk = span_dim(dom), span_dim(cod)
    real = field is Field.REAL
    # every trial's Gram goes here; numpy refuses a size too large before any draw
    lhs = np.empty((d, d), dtype=_dtype_of(field))
    rng = _rng(seed)

    best_rank, best_sv, cutoff_used = -1, None, 0.0
    for _ in range(trials):
        # transfers of a random pair; its lhs Gram factors as T1^t Q T2 with
        # Q the k^2 x k^2 pairing Gram
        T1 = _gaussian((Dk, d), real, rng)
        T2 = _gaussian((Dk, d), real, rng)
        np.matmul(_times_span_gram(T1.T, cod), T2, out=lhs)
        sv = np.linalg.svd(lhs, compute_uv=False)
        cut = cutoff_factor * sv[0]
        rank = int(np.sum(sv > cut))
        if rank > best_rank:
            best_rank, best_sv, cutoff_used = rank, sv, float(cut)
        if best_rank >= Dk:  # no later pair can rank higher
            break

    return InfeasibilityCertificate(
        n=n,
        k=k,
        field=field,
        gram_rhs_rank=d,  # the trace Gram of M_n is a permutation scaled by positive weights
        gram_lhs_rank=best_rank,
        rank_bound=Dk,
        singular_values=np.asarray(best_sv),
        cutoff=cutoff_used,
        certifies_impossibility=bool(Dk < d and best_rank <= Dk),
    )
