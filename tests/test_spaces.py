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
    return gram + 0.1 * np.eye(n) if kind is SpaceKind.POSDEF else gram


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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("call", list(_TOL_CALLS.values()), ids=list(_TOL_CALLS))
def test_tolerance_not_finite_and_nonnegative_is_an_input_error(call, tol):
    # a NaN tol turned off the check it sets: every `deviation > tol` read false,
    # so off-span images, inconsistent samples and a non-unitary U all passed
    with pytest.raises(InvalidParameterError, match="tol must be finite and nonnegative"):
        call(tol)


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
