import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceprod import (
    DimensionMismatchError,
    Field,
    GenSpec,
    HermOdd,
    InvalidParameterError,
    LinMap,
    MembershipError,
    SpaceKind,
    SpaceTag,
    apply,
    base_field,
    check_preservation,
    coords,
    decompose,
    dualize,
    embed_extend_pair,
    extend_from_subset,
    from_canonical,
    gen_space_sample,
    generate,
    gram_matrix,
    herm_power,
    identity_map,
    infeasibility_certificate,
    is_hermitian_preserving,
    linmap_from_images,
    membership,
    nonextendable_best_fit_residual,
    power_map_apply,
    random_batch,
    random_element,
    reassemble,
    recover_conjugator,
    space_basis,
    span_dim,
    span_of,
    trace_pair,
    verify_weighted,
    weighted_reduction,
)
from traceprod.linmaps import image_stack
from traceprod.spaces import (
    DEFAULT_TOL,
    _basis_stack,
    _basis_terms,
    _entry_terms,
    _random_batch,
    coords_batch,
    reassemble_batch,
)

C2 = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2)
H2 = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 2)
S2 = SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 2)
D3 = SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 3)

ALL_TAGS = [SpaceTag(kind, field, n) for kind in SpaceKind for field in Field for n in (1, 2, 3, 5)]


def _reference_basis(tag) -> np.ndarray:
    """The canonical basis built element by element, independent of the index
    kernels: matrix units row-major (full); diagonal units, then per i<j pair
    E_ij+E_ji followed, for Hermitian, by i(E_ij-E_ji); diagonal units."""
    s = span_of(tag)
    n = s.n
    mats = []
    if s.kind is SpaceKind.FULL:
        for i in range(n):
            for j in range(n):
                E = np.zeros((n, n), dtype=np.complex128)
                E[i, j] = 1.0
                mats.append(E)
    elif s.kind in (SpaceKind.HERMITIAN, SpaceKind.SYMMETRIC):
        for i in range(n):
            E = np.zeros((n, n), dtype=np.complex128)
            E[i, i] = 1.0
            mats.append(E)
        for i in range(n):
            for j in range(i + 1, n):
                S = np.zeros((n, n), dtype=np.complex128)
                S[i, j] = 1.0
                S[j, i] = 1.0
                mats.append(S)
                if s.kind is SpaceKind.HERMITIAN:
                    K = np.zeros((n, n), dtype=np.complex128)
                    K[i, j] = 1.0j
                    K[j, i] = -1.0j
                    mats.append(K)
    else:
        for i in range(n):
            E = np.zeros((n, n), dtype=np.complex128)
            E[i, i] = 1.0
            mats.append(E)
    return np.stack(mats)


def test_span_dims():
    assert span_dim(C2) == 4
    assert span_dim(SpaceTag(SpaceKind.FULL, Field.COMPLEX, 3)) == 9
    assert span_dim(H2) == 4
    assert span_dim(SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 3)) == 6
    assert span_dim(D3) == 3
    # cones span the matching matrix space
    assert span_dim(SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3)) == 9
    assert span_dim(SpaceTag(SpaceKind.POSDEF, Field.REAL, 3)) == 6


def test_span_of_cones():
    pd = SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3)
    assert span_of(pd).kind is SpaceKind.HERMITIAN
    pd_r = SpaceTag(SpaceKind.POSSEMIDEF, Field.REAL, 3)
    assert span_of(pd_r).kind is SpaceKind.SYMMETRIC


def test_base_field():
    assert base_field(C2) is Field.COMPLEX
    # Hermitian matrices form a real vector space even over C
    assert base_field(H2) is Field.REAL
    assert base_field(S2) is Field.REAL
    assert base_field(SpaceTag(SpaceKind.DIAGONAL, Field.COMPLEX, 2)) is Field.COMPLEX


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind.value}-{t.field.value}-{t.n}")
def test_space_basis_matches_reference(tag):
    els = np.stack(space_basis(tag).elements)
    want = _reference_basis(tag)
    assert els.dtype == want.dtype
    assert np.array_equal(els, want)


def _dense_rows(terms, shape) -> np.ndarray:
    """The matrix of `shape` whose row r holds w[r, t] at column idx[r, t]."""
    idx, w = terms
    M = np.zeros(shape, dtype=np.complex128)
    np.add.at(M, (np.arange(shape[0])[:, None], idx), w)
    return M


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind.value}-{t.field.value}-{t.n}")
def test_entry_and_basis_terms_reproduce_space_basis(tag):
    # the entry view holds the rows of the (n^2, d) matrix whose column k is
    # vec(B_k), the basis view its columns. Each is padded to its longest
    # row's nonzero count, which is 1 wherever no row has two entries (every
    # span at n = 1), and its weights stay real unless a skew element's +-i
    # is among them
    n = tag.n
    S = np.stack(space_basis(tag).elements).reshape(-1, n * n).T
    for (idx, w), M in ((_entry_terms(tag), S), (_basis_terms(tag), S.T)):
        assert np.array_equal(_dense_rows((idx, w), M.shape), M)
        assert idx.shape == w.shape == (len(M), max(1, int(np.count_nonzero(M, axis=1).max())))
        assert idx.dtype == np.intp
        assert w.dtype == (np.complex128 if np.iscomplex(M).any() else np.float64)
        assert not idx.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("kind", [SpaceKind.POSDEF, SpaceKind.POSSEMIDEF])
@pytest.mark.parametrize("field", list(Field))
def test_a_cone_and_its_span_share_each_cached_basis(kind, field):
    cone = SpaceTag(kind, field, 3)
    for cached in (_basis_stack, _entry_terms, _basis_terms):
        assert cached(cone) is cached(span_of(cone))


def test_full_basis_order_row_major():
    els = space_basis(C2).elements
    expect = [np.eye(2)[[i], :].T @ np.eye(2)[[j], :] for i in range(2) for j in range(2)]
    for got, want in zip(els, expect):
        assert np.array_equal(got, want)


def test_hermitian_basis_order():
    # diagonal units first, then the symmetric and antisymmetric combinations
    els = space_basis(H2).elements
    E = [[np.zeros((2, 2), dtype=complex) for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            E[i][j] = np.zeros((2, 2), dtype=complex)
            E[i][j][i, j] = 1.0
    assert np.allclose(els[0], E[0][0])
    assert np.allclose(els[1], E[1][1])
    assert np.allclose(els[2], E[0][1] + E[1][0])
    assert np.allclose(els[3], 1j * (E[0][1] - E[1][0]))


def test_gram_full_c2():
    # tr(E_ij E_kl) = [j == k][l == i], so the Gram matrix is the swap
    want = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=float,
    )
    assert np.allclose(gram_matrix(C2), want)


def test_gram_hermitian_c2():
    assert np.allclose(gram_matrix(H2), np.diag([1.0, 1.0, 2.0, 2.0]))


def test_gram_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatchError):
        gram_matrix(C2, SpaceTag(SpaceKind.FULL, Field.COMPLEX, 3))
    with pytest.raises(DimensionMismatchError):
        gram_matrix([np.ones((2, 3))], [np.ones((2, 3))])
    with pytest.raises(DimensionMismatchError):
        gram_matrix([np.eye(2), np.eye(3)])


def test_trace_pair_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.isclose(trace_pair(A, B), np.trace(A @ B))


def test_trace_pair_rectangular():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 3))
    B = rng.standard_normal((3, 2))
    assert np.isclose(trace_pair(A, B), np.trace(A @ B))
    with pytest.raises(Exception):
        trace_pair(A, A)


@pytest.mark.parametrize(
    "tag",
    [
        C2,
        H2,
        S2,
        D3,
        SpaceTag(SpaceKind.FULL, Field.REAL, 3),
        SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3),
    ],
)
def test_coords_reassemble_round_trip(tag):
    rng = np.random.default_rng(7)
    d = span_dim(tag)
    for _ in range(5):
        if base_field(tag) is Field.REAL:
            x = rng.standard_normal(d)
        else:
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        A = reassemble(tag, x)
        assert membership(span_of(tag), A)
        assert np.allclose(coords(span_of(tag), A), x)


def test_coords_real_dtype_for_real_coordinates():
    A = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]])
    x = coords(H2, A)
    assert x.dtype == np.float64


def test_membership_positive_cases():
    assert membership(H2, np.array([[1.0, 2j], [-2j, 5.0]]))
    assert membership(S2, np.array([[1.0, 2.0], [2.0, 5.0]]))
    assert membership(D3, np.diag([1.0, 2.0, 3.0]))
    assert membership(SpaceTag(SpaceKind.POSDEF, Field.REAL, 2), np.array([[2.0, 0.5], [0.5, 2.0]]))
    # PSD boundary matrix is in the closed cone but not the open one
    P = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert membership(SpaceTag(SpaceKind.POSSEMIDEF, Field.REAL, 2), P)
    assert not membership(SpaceTag(SpaceKind.POSDEF, Field.REAL, 2), P)


_HUGE = 1e308  # twice it overflows


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "tag, A, x",
    [
        (S2, [[0.0, _HUGE], [_HUGE, 0.0]], [0.0, 0.0, _HUGE]),
        (S2, [[-_HUGE, -_HUGE], [-_HUGE, _HUGE]], [-_HUGE, _HUGE, -_HUGE]),
        (SpaceTag(SpaceKind.SYMMETRIC, Field.COMPLEX, 2), [[0, _HUGE * (1 - 1j)], [_HUGE * (1 - 1j), 0]], [0, 0, _HUGE * (1 - 1j)]),
        (H2, [[0, _HUGE], [_HUGE, 0]], [0.0, 0.0, _HUGE, 0.0]),
        (H2, [[0, _HUGE * (1 + 1j)], [_HUGE * (1 - 1j), 0]], [0.0, 0.0, _HUGE, _HUGE]),
    ],
    ids=["real-symmetric", "real-symmetric-negative", "complex-symmetric", "hermitian", "hermitian-skew"],
)
def test_mirrored_pairs_near_the_largest_double_do_not_overflow(tag, A, x):
    # (A_ij + A_ji)/2 overflowed to inf, so these matrices read as off their span
    A = np.array(A)
    got = coords(tag, A)
    assert np.array_equal(got, np.array(x, dtype=got.dtype))
    assert membership(tag, A)
    assert np.array_equal(reassemble(tag, got), A)


@pytest.mark.parametrize("tag", [S2, H2, SpaceTag(SpaceKind.SYMMETRIC, Field.COMPLEX, 2)], ids=str)
def test_mirrored_pair_mean_keeps_each_signed_zero(tag):
    # every pair of entries from {+-0, +-1, 2.5} in both parts, against the
    # mean of the sum in the input's dtype, as `_pair_index_coords` takes it
    values = [0.0, -0.0, 1.0, -1.0, 2.5]
    parts = [complex(a, b) for a in values for b in values]
    pairs = np.array(list(itertools.product(parts, parts)))
    A = np.zeros((len(pairs), 2, 2), dtype=np.complex128)
    A[:, 0, 1], A[:, 1, 0] = pairs[:, 0], pairs[:, 1]
    for stack in (A, A.real):
        got, ref = coords_batch(tag, stack), _pair_index_coords(tag, stack)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_membership_negative_cases():
    assert not membership(H2, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not membership(S2, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not membership(SpaceTag(SpaceKind.POSDEF, Field.REAL, 2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not membership(SpaceTag(SpaceKind.FULL, Field.REAL, 2), np.ones((2, 2)) * 1j)
    assert not membership(D3, np.array([[1.0, 2.0], [3.0, 4.0]]))  # wrong size too
    assert not membership(S2, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_membership_wrong_shape():
    assert not membership(C2, np.ones((2, 3)))


@pytest.mark.parametrize(
    "tag",
    [
        C2,
        H2,
        S2,
        D3,
        SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3),
        SpaceTag(SpaceKind.POSSEMIDEF, Field.REAL, 2),
        SpaceTag(SpaceKind.FULL, Field.REAL, 4),
    ],
)
def test_random_batch_members(tag):
    batch = random_batch(tag, 16, 3)
    assert batch.shape == (16, tag.n, tag.n)
    for A in batch:
        assert membership(tag, A)


def _reference_random_batch(tag, count, rng) -> np.ndarray:
    """The sampler in complex arithmetic throughout: (a + ib)/sqrt(2) Gaussians
    over C, every real draw cast to complex before any arithmetic."""
    n = tag.n

    def gaussian(shape):
        if tag.field is Field.REAL:
            return rng.standard_normal(shape).astype(np.complex128)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    kind = tag.kind if tag.kind in (SpaceKind.POSDEF, SpaceKind.POSSEMIDEF) else span_of(tag).kind
    if kind is SpaceKind.DIAGONAL:
        out = np.zeros((count, n, n), dtype=np.complex128)
        out[:, range(n), range(n)] = gaussian((count, n))
        return out
    G = gaussian((count, n, n))
    if kind is SpaceKind.FULL:
        return G
    if kind is SpaceKind.HERMITIAN:
        return (G + G.conj().transpose(0, 2, 1)) / 2.0
    if kind is SpaceKind.SYMMETRIC:
        return (G + G.transpose(0, 2, 1)) / 2.0
    gram = G @ G.conj().transpose(0, 2, 1)
    gram = gram + 0.1 * np.eye(n) if kind is SpaceKind.POSDEF else gram
    # a complex sample is the mean with its conjugate transpose, which is exactly Hermitian
    return gram if tag.field is Field.REAL else (gram + gram.conj().transpose(0, 2, 1)) / 2.0


# n = 33 reaches BLAS blocking where a real Gram product sums in another
# order than a complex one
SAMPLER_TAGS = ALL_TAGS + [SpaceTag(kind, Field.REAL, 33) for kind in (SpaceKind.POSDEF, SpaceKind.POSSEMIDEF)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tag", SAMPLER_TAGS, ids=lambda t: f"{t.kind.value}-{t.field.value}-{t.n}")
def test_field_sampler_matches_public_sampler_bitwise(tag, seed):
    want = _reference_random_batch(tag, 7, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    got = _random_batch(tag, 7, rng)
    assert got.dtype == (np.float64 if tag.field is Field.REAL else np.complex128)
    assert np.array_equal(got, want)
    public = random_batch(tag, 7, seed)
    assert public.dtype == np.complex128 and np.array_equal(public, want)
    # the same draws, so the generator ends in the same state
    ref_rng = np.random.default_rng(seed)
    _reference_random_batch(tag, 7, ref_rng)
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_random_element_seeded():
    a = random_element(C2, 5)
    b = random_element(C2, 5)
    assert np.array_equal(a, b)


def test_gram_is_trace_table():
    for tag in (C2, H2, S2, D3):
        els = space_basis(tag).elements
        G = gram_matrix(tag)
        for i, A in enumerate(els):
            for j, B in enumerate(els):
                assert np.isclose(G[i, j], np.trace(A @ B))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_trace_pair_from_coords(seed):
    # tr(AB) expands over the basis as x^T G y for real-coordinate spaces
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    A = reassemble(H2, x)
    B = reassemble(H2, y)
    assert np.isclose(trace_pair(A, B), x @ gram_matrix(H2) @ y)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(list(SpaceKind)),
    st.sampled_from(list(Field)),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_index_kernels_match_basis_inner_products(kind, field, n, seed):
    # the definition: coordinates are inner products with the orthogonal
    # canonical basis over its squared norms, reassembly the basis combination
    tag = SpaceTag(kind, field, n)
    rng = np.random.default_rng(seed)
    els = _reference_basis(tag)
    norms2 = np.einsum("kij,kij->k", els.conj(), els).real
    real = base_field(tag) is Field.REAL

    def gaussian(shape):
        g = rng.standard_normal(shape)
        return g if real else g + 1j * rng.standard_normal(shape)

    A = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    x_ref = np.einsum("kij,tij->tk", els.conj(), A) / norms2
    if real:
        x_ref = x_ref.real
    x = gaussian((4, len(els)))
    T = gaussian((len(els), len(els)))
    pairs = [
        (coords_batch(tag, A), x_ref),
        (np.stack([coords(tag, M) for M in A]), x_ref),
        (reassemble_batch(tag, x), np.einsum("tk,kij->tij", x, els)),
        (np.stack([reassemble(tag, v) for v in x]), np.einsum("tk,kij->tij", x, els)),
        (image_stack(LinMap(tag, tag, T)), np.einsum("lk,lij->kij", T, els)),
    ]
    tol = 0.0 if span_of(tag).kind in (SpaceKind.FULL, SpaceKind.DIAGONAL) else 1e-15
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= tol


def test_coordinate_shapes_are_checked():
    with pytest.raises(DimensionMismatchError):
        coords(S2, np.eye(3))
    with pytest.raises(DimensionMismatchError):
        coords_batch(S2, np.zeros((2, 3, 3)))
    with pytest.raises(DimensionMismatchError):
        reassemble(S2, np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        reassemble_batch(S2, np.zeros((2, 4)))


def _pn_pair():
    return generate(GenSpec(family="pn_chain", n=2, m=2, seed=0)).maps


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: check_preservation(
                generate(GenSpec(family="mn_chain", n=2, m=3)).maps, mode="randomized", seed=-1
            ),
            id="check_preservation",
        ),
        pytest.param(lambda: verify_weighted(_pn_pair(), [1, 1], [1, 1], seed=-1), id="verify_weighted"),
        pytest.param(lambda: generate(GenSpec(family="mn_chain", n=2, m=3, seed=-1)), id="generate"),
        pytest.param(lambda: GenSpec(family="mn_chain", n=2, m=3, seed=-1), id="GenSpec"),
        pytest.param(
            lambda: check_preservation(generate(GenSpec(family="mn_chain", n=2, m=3)).maps, seed=-1),
            id="check_preservation-exhaustive",
        ),
        pytest.param(lambda: infeasibility_certificate(3, 2, seed=-1), id="infeasibility_certificate"),
        pytest.param(lambda: weighted_reduction(_pn_pair(), [1, 1], [1, 1], seed=-1), id="weighted_reduction"),
        pytest.param(lambda: gen_space_sample(C2, 2, seed=-1), id="gen_space_sample"),
        pytest.param(lambda: random_batch(C2, 2, -1), id="random_batch"),
        pytest.param(lambda: nonextendable_best_fit_residual(np.eye(2), seed=-1), id="best_fit-seed"),
        pytest.param(lambda: nonextendable_best_fit_residual(np.eye(2), trials=0), id="best_fit-trials"),
    ],
)
def test_negative_seed_or_no_trials_is_an_input_error(call):
    # numpy's ValueError before: "expected non-negative integer", "need at least one array"
    with pytest.raises(InvalidParameterError):
        call()


def _gaussian_pairs(count):
    rng = np.random.default_rng(0)
    G = rng.standard_normal((count, 2, 2, 2)) + 1j * rng.standard_normal((count, 2, 2, 2))
    return list(zip(G[:, 0], G[:, 1]))


_TOL_CALLS = {
    "membership": lambda tol: membership(C2, np.eye(2), tol),
    "apply": lambda tol: apply(identity_map(C2), np.eye(2), tol),
    "linmap_from_images": lambda tol: linmap_from_images(H2, H2, np.tile(np.triu(np.ones((2, 2)), 1), (4, 1, 1)), tol),
    "is_hermitian_preserving": lambda tol: is_hermitian_preserving(identity_map(C2), tol),
    "from_canonical": lambda tol: from_canonical(HermOdd(np.diag([2.0, 1.0]), (1.0, 1.0, 1.0)), H2, tol),
    "check_preservation": lambda tol: check_preservation([identity_map(C2)] * 2, tol),
    "dualize": lambda tol: dualize(identity_map(C2), tol),
    "extend_from_subset": lambda tol: extend_from_subset(C2, C2, _gaussian_pairs(6), tol),
    "embed_extend_pair": lambda tol: embed_extend_pair(identity_map(C2), identity_map(C2), tol),
    "decompose": lambda tol: decompose(generate(GenSpec(family="mn_chain", n=2, m=3)).maps, tol=tol),
    "recover_conjugator": lambda tol: recover_conjugator(space_basis(C2), tol),
    "herm_power": lambda tol: herm_power(2.0 * np.eye(2), 0.5, tol),
    "power_map_apply": lambda tol: power_map_apply(identity_map(H2), 2.0 * np.eye(2), tol),
    "verify_weighted": lambda tol: verify_weighted(_pn_pair(), [1, 1], [1, 1], tol=tol),
    "weighted_reduction": lambda tol: weighted_reduction([identity_map(H2)] * 2, [1, 1], [2, 2], tol=tol),
}


@pytest.mark.parametrize(
    "tol",
    [float("nan"), float("inf"), -1.0, "1e-9", True, None, 10**400],
    ids=["nan", "inf", "negative", "string", "bool", "None", "huge-int"],
)
@pytest.mark.parametrize("call", list(_TOL_CALLS.values()), ids=list(_TOL_CALLS))
def test_tolerance_not_finite_and_nonnegative_is_an_input_error(call, tol):
    # a NaN tol turned off the check it sets: every `deviation > tol` read false,
    # so off-span images, inconsistent samples and a non-unitary U all passed;
    # a string or None escaped as a bare TypeError, True was read as 1, and an
    # int beyond double range escaped as a bare OverflowError
    with pytest.raises(InvalidParameterError, match="tol must be finite and nonnegative"):
        call(tol)


def _unit(n, i, j):
    E = np.zeros((n, n))
    E[i, j] = 1.0
    return E


# each kind of deviation from a span, as a direction of largest entry 1
_DEVIATIONS = {
    "asymmetry": lambda n: _unit(n, 0, 1),
    "imaginary-diagonal": lambda n: 1j * _unit(n, n - 1, n - 1),
    "off-diagonal-mass": lambda n: _unit(n, 0, 1) + _unit(n, 1, 0),
    "imaginary-part": lambda n: 1j * np.ones((n, n)),
}
_SPAN_CASES = [
    pytest.param(SpaceTag(kind, field, n), deviation, id=f"{kind.value}-{field.value}-{n}-{deviation}")
    for kind in (SpaceKind.FULL, SpaceKind.HERMITIAN, SpaceKind.SYMMETRIC, SpaceKind.DIAGONAL)
    for field in Field
    for n in (1, 2, 3)
    for deviation in _DEVIATIONS
    if n > 1 or deviation not in ("asymmetry", "off-diagonal-mass")
]


def _span_distance(tag, D):
    """Largest entry of D minus its orthogonal projection onto the span of
    `tag`, written densely: the real part over the reals, then the diagonal,
    the Hermitian part or the symmetric part."""
    s = span_of(tag)
    P = D.real + 0j if s.field is Field.REAL else D + 0j
    if s.kind is SpaceKind.DIAGONAL:
        P = np.diag(np.diag(P))
    elif s.kind is SpaceKind.HERMITIAN:
        P = (P + P.conj().T) / 2
    elif s.kind is SpaceKind.SYMMETRIC:
        P = (P + P.T) / 2
    return float(np.max(np.abs(D - P)))


def _accepts(call) -> bool:
    try:
        call()
    except MembershipError:
        return False
    return True


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("factor", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("tag, deviation", _SPAN_CASES)
def test_every_span_test_gives_one_verdict(tag, deviation, factor, scale):
    # membership and apply measured the entrywise asymmetry, twice the distance
    # the checked constructors measure, and refused at 1.5 what they accepted
    n, tol = tag.n, DEFAULT_TOL
    D = _DEVIATIONS[deviation](n)
    A = scale * np.eye(n) + factor * tol * scale * D
    P = reassemble_batch(tag, coords_batch(tag, A[None]))[0]
    basis = list(space_basis(tag).elements)
    verdicts = {
        "membership": membership(tag, A, tol * scale),
        "apply": _accepts(lambda: apply(identity_map(tag), A, tol)),
        "linmap_from_images": _accepts(lambda: linmap_from_images(tag, tag, [A] + basis[1:], tol)),
        "extend_from_subset-input": _accepts(lambda: extend_from_subset(tag, tag, [*zip(basis, basis), (A, P)], tol)),
        "extend_from_subset-output": _accepts(lambda: extend_from_subset(tag, tag, [*zip(basis, basis), (P, A)], tol)),
    }
    if span_of(tag) == span_of(SpaceTag(SpaceKind.HERMITIAN, tag.field, n)) and (
        tag.field is Field.COMPLEX or np.isrealobj(D)
    ):
        # the map sends E_00, the first Hermitian basis element, to A and the others to 0
        full = SpaceTag(SpaceKind.FULL, tag.field, n)
        T = np.zeros((n * n, n * n), dtype=A.dtype)
        T[:, 0] = A.reshape(-1)
        verdicts["is_hermitian_preserving"] = is_hermitian_preserving(LinMap(full, full, T), tol)
    want = _span_distance(tag, D) * factor <= 1.0
    assert verdicts == dict.fromkeys(verdicts, want)


def _with_entry(M, value, index):
    M = np.array(M, dtype=np.complex128)
    M[index] = value
    return M


def _sample_with_entry(side, value):
    pairs = _gaussian_pairs(6)
    pair = list(pairs[2])
    pair[side] = _with_entry(pair[side], value, (0, 1))
    pairs[2] = tuple(pair)
    return pairs


_NON_FINITE_CALLS = {
    "extend_from_subset-input": lambda v: extend_from_subset(C2, C2, _sample_with_entry(0, v)),
    "extend_from_subset-output": lambda v: extend_from_subset(C2, C2, _sample_with_entry(1, v)),
    "linmap_from_images": lambda v: linmap_from_images(
        C2, C2, _with_entry(space_basis(C2).elements, v, (1, 0, 0))
    ),
    "herm_power": lambda v: herm_power(np.diag([v, 1.0]), 0.5),
    "power_map_apply": lambda v: power_map_apply(identity_map(H2), np.diag([v, 1.0])),
    "recover_conjugator": lambda v: recover_conjugator(_with_entry(space_basis(C2).elements, v, (1, 0, 0))),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("call", list(_NON_FINITE_CALLS.values()), ids=list(_NON_FINITE_CALLS))
def test_non_finite_input_lies_off_every_span(call, value):
    # a NaN distance never exceeded tol: numpy's LinAlgError, an InvalidParameterError
    # from the transfer, or NaN results with RuntimeWarnings
    with pytest.raises(MembershipError):
        call(value)


def test_herm_power_and_power_map_apply_check_the_whole_matrix():
    # herm_power read the lower triangle only and returned the identity
    with pytest.raises(MembershipError):
        herm_power([[1.0, 5.0], [0.0, 1.0]], 0.5)
    with pytest.raises(MembershipError):
        power_map_apply(identity_map(H2), [[1.0, 5.0], [0.0, 1.0]])


def test_apply_refuses_a_wrong_shape_as_coords_does():
    for A in (np.eye(3), np.ones(4), 1.0):
        with pytest.raises(DimensionMismatchError):
            apply(identity_map(H2), A)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 2.0, 1.0, 0.0, -1.0])
def test_certificate_cutoff_factor_outside_the_unit_interval_is_an_input_error(factor):
    # nan, inf and 2.0 ranked every Gram at 0 and certified with no rank evidence;
    # -1 counted every singular value and refused to certify a theorem
    with pytest.raises(InvalidParameterError, match="cutoff_factor"):
        infeasibility_certificate(3, 2, cutoff_factor=factor)


def _pair_index_coords(space, A):
    """`coords_batch` as fancy indexing with (iu, ju) pairs and a concatenate,
    the reference for the flat-index gathers."""
    s = span_of(space)
    n = s.n
    if s.kind is SpaceKind.FULL:
        x = A.reshape(A.shape[0], n * n)
    else:
        x = np.diagonal(A, axis1=1, axis2=2)
        if s.kind is not SpaceKind.DIAGONAL:
            iu, ju = np.triu_indices(n, 1)
            upper, lower = A[:, iu, ju], A[:, ju, iu]
            if s.kind is SpaceKind.SYMMETRIC:
                off = (upper + lower) / 2
            else:
                off = np.stack([(upper + lower).real / 2, (upper - lower).imag / 2], axis=2)
                off = off.reshape(A.shape[0], -1)
            x = np.concatenate([x, off], axis=1)
    if base_field(space) is Field.REAL:
        return np.array(x.real, dtype=np.float64, order="C")
    return np.array(x, dtype=np.complex128, order="C")


def _pair_index_reassemble(space, x):
    """`reassemble_batch` as a scatter through (iu, ju) pairs."""
    s = span_of(space)
    n = s.n
    if s.kind is SpaceKind.FULL:
        return x.reshape(-1, n, n).astype(np.complex128)
    out = np.zeros((x.shape[0], n, n), dtype=np.complex128)
    r = np.arange(n)
    out[:, r, r] = x[:, :n]
    if s.kind is not SpaceKind.DIAGONAL:
        iu, ju = np.triu_indices(n, 1)
        if s.kind is SpaceKind.SYMMETRIC:
            out[:, iu, ju] = out[:, ju, iu] = x[:, n:]
        else:
            sym, skew = x[:, n::2], 1j * x[:, n + 1 :: 2]
            out[:, iu, ju] = sym + skew
            out[:, ju, iu] = sym - skew
    return out


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_flat_index_kernels_match_pair_index_kernels_bitwise(tag):
    rng = np.random.default_rng(tag.n)
    n, d = tag.n, span_dim(tag)
    A = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
    A[0] = 0.0
    A[1] = -0.0  # signed zeros must come out as the reference writes them
    A[2, ::2] = -A[2, ::2].conj()
    x = rng.standard_normal((7, d))
    if base_field(tag) is Field.COMPLEX:
        x = x + 1j * rng.standard_normal((7, d))
    x[0], x[1, ::2] = 0.0, -0.0
    for stack in (A, A.real, A.transpose(0, 2, 1)):
        got, ref = coords_batch(tag, stack), _pair_index_coords(tag, stack)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    got, ref = reassemble_batch(tag, x), _pair_index_reassemble(tag, x)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_span_of_is_one_cached_tag_per_distinct_tag(tag):
    s = span_of(tag)
    assert span_of(tag) is s
    assert span_of(SpaceTag(tag.kind.value, tag.field.value, tag.n)) is s
    assert span_of(s) is s


def test_string_and_member_tags_are_equal_hash_equal_and_share_cache_entries():
    from traceprod.decompose import _identity_coords

    by_value = SpaceTag("PosDef", "complex", 4)
    by_member = SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 4)
    assert by_value == by_member and hash(by_value) == hash(by_member)
    assert len({by_value, by_member}) == 1
    for cached in (_basis_stack, _entry_terms, _basis_terms, _identity_coords):
        cached.cache_clear()
        for tag in (by_value, by_member, span_of(by_member), SpaceTag("Hermitian", "complex", 4)):
            cached(tag)
        assert cached.cache_info().currsize == 1


@pytest.mark.parametrize(
    "kind, field, message",
    [("bogus", "real", "'bogus' is not a valid SpaceKind"), ("Hermitian", "bogus", "'bogus' is not a valid Field")],
)
def test_space_tag_refuses_an_unknown_kind_or_field_name(kind, field, message):
    with pytest.raises(InvalidParameterError) as exc:
        SpaceTag(kind, field, 3)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", [SpaceKind.POSDEF, SpaceKind.POSSEMIDEF])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_complex_definite_samples_are_exactly_hermitian(kind, n):
    # G G* alone leaves imaginary diagonals of about 1e-17
    S = random_batch(SpaceTag(kind, Field.COMPLEX, n), 64, 0)
    assert np.array_equal(S, S.conj().transpose(0, 2, 1))
    assert np.linalg.eigvalsh(S).min() > (0.0 if kind is SpaceKind.POSDEF else -1e-12)


_COUNTS = {
    "SpaceTag-n": (lambda v: SpaceTag(SpaceKind.HERMITIAN, Field.REAL, v), "space size must be a positive integer, got n="),
    "GenSpec-n": (lambda v: GenSpec(family="mn_chain", n=v, m=3), "n must be a positive integer, got "),
    "GenSpec-m": (lambda v: GenSpec(family="mn_chain", n=2, m=v), "m must be a positive integer, got "),
    "gen_space_sample": (lambda v: gen_space_sample(C2, v), "count must be a positive integer, got "),
    "random_batch": (lambda v: random_batch(C2, v), "count must be a positive integer, got "),
    "certificate-n": (lambda v: infeasibility_certificate(v, 1), "n must be a positive integer, got "),
    "certificate-k": (lambda v: infeasibility_certificate(3, v), "k must be a positive integer, got "),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "abc", None, True, 3.0, 2.5, 0, -1])
@pytest.mark.parametrize("call, prefix", list(_COUNTS.values()), ids=list(_COUNTS))
def test_a_count_is_an_integer_of_at_least_one(call, prefix, value):
    # NaN, inf, "abc" and None escaped as a bare ValueError, OverflowError or
    # TypeError; True read as 1 and 3.0 as 3; the certificate answered about M_inf;
    # random_batch drew an empty stack at 0
    with pytest.raises(InvalidParameterError) as exc:
        call(value)
    assert str(exc.value) == prefix + repr(value)


def test_a_numpy_integer_count_is_read_as_a_python_int():
    three, two = np.int64(3), np.int64(2)
    tag = SpaceTag(SpaceKind.HERMITIAN, Field.REAL, three)
    spec = GenSpec(family="mn_chain", n=three, m=three)
    cert = infeasibility_certificate(three, two, trials=1)
    assert [type(x) for x in (tag.n, spec.n, spec.m, cert.n, cert.k)] == [int] * 5
    assert (tag.n, spec.n, spec.m, cert.n, cert.k) == (3, 3, 3, 3, 2)
    assert np.array_equal(gen_space_sample(C2, two), gen_space_sample(C2, 2))


@pytest.mark.parametrize("tag", [C2, H2, S2, D3], ids=lambda t: f"{t.kind.value}-{t.field.value}")
def test_coords_batch_of_an_integer_stack_is_that_of_its_float_copy(tag):
    stack = reassemble_batch(tag, np.arange(2 * span_dim(tag)).reshape(2, -1)).real.astype(np.int64)
    got = coords_batch(tag, stack)
    assert np.array_equal(got, coords_batch(tag, stack.astype(np.float64)))
    assert got.dtype == coords_batch(tag, stack.astype(np.float64)).dtype
