import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceprod import (
    DiagChain,
    DimensionMismatchError,
    DiagPair,
    Field,
    Hadamard,
    HermOdd,
    InvalidParameterError,
    LinMap,
    MembershipError,
    MnChain,
    NonextendableTriple,
    PnPair,
    SingularMatrixError,
    SpaceKind,
    SpaceTag,
    apply,
    apply_batch,
    complexify,
    compose,
    dualize,
    from_canonical,
    identity_map,
    image_stack,
    is_hermitian_preserving,
    linmap_from_images,
    nonextendable_best_fit_residual,
    space_basis,
    transpose_map,
)
from traceprod import linmaps
from traceprod.extend import _restrict_to_hermitian
from traceprod.families import (
    FAMILIES,
    _FAMILY_TABLE,
    GenSpec,
    _diag_scalings,
    complex_orthogonal,
    generate,
    haar_orthogonal,
    haar_unitary,
    random_invertible,
    random_permutation,
)
from traceprod.linmaps import (
    FORMS,
    HermEven,
    RankOneFrame,
    SymEven,
    SymOdd,
    _scaled_slot,
)
from traceprod.spaces import coords_batch
from conftest import basis_stack, map_from_action

C2 = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2)
C3 = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 3)
H2 = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 2)
H3 = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)
R2 = SpaceTag(SpaceKind.FULL, Field.REAL, 2)
D2 = SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 2)
D3r = SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 3)


def test_identity_map():
    f = identity_map(C2)
    assert np.array_equal(f.transfer, np.eye(4))
    A = np.array([[1.0, 2j], [0.0, -1.0]])
    assert np.allclose(apply(f, A), A)


def test_transfer_shape_validated():
    with pytest.raises(Exception):
        LinMap(C2, C2, np.eye(3))


def test_real_base_transfer_is_real():
    f = identity_map(H2)
    assert f.transfer.dtype == np.float64
    with pytest.raises(InvalidParameterError):
        LinMap(H2, H2, np.eye(4) * (1 + 0.5j))


def test_apply_checks_membership():
    f = identity_map(H2)
    with pytest.raises(Exception):
        apply(f, np.array([[1.0, 1.0], [0.0, 1.0]]))  # not Hermitian


@pytest.mark.parametrize("tol", [1e-9, 0.0, 1e10])
def test_apply_scales_its_tolerance_without_leaving_the_finite_range(tol):
    # tol * max|A| read inf or NaN for an infinite entry, or past 1.8e308, and
    # membership refused it as a tolerance rather than A as off the span
    f = identity_map(C2)
    with pytest.raises(MembershipError):
        apply(f, np.array([[np.inf, 0.0], [0.0, 1.0]]), tol)
    A = np.array([[1e300, 0.0], [0.0, 1.0]])
    assert np.array_equal(apply(f, A, tol), A)


def test_compose_matches_sequential_apply():
    rng = np.random.default_rng(0)
    f = LinMap(C2, C2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    g = LinMap(C2, C2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(apply(compose(f, g), A), apply(f, apply(g, A)))


def test_linmap_from_images_round_trip():
    rng = np.random.default_rng(1)
    N = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + np.eye(3)
    f = map_from_action(C3, C3, lambda A: N @ A @ np.linalg.inv(N))
    st_ = image_stack(f)
    for B, A in zip(st_, space_basis(C3).elements):
        assert np.allclose(B, N @ A @ np.linalg.inv(N))


def test_linmap_from_images_rejects_off_space_output():
    # image with an off-diagonal part cannot live in the diagonal space
    bad = [np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    with pytest.raises(Exception):
        linmap_from_images(D2, D2, bad)


def test_transpose_map():
    f = transpose_map(C2)
    A = np.array([[1.0, 2.0], [3j, 4.0]])
    assert np.allclose(apply(f, A), A.T)


@pytest.mark.parametrize("form", FORMS, ids=lambda form: form.__name__)
def test_each_form_is_a_frozen_record_of_its_own_parameters(form):
    # the base makes each subclass a dataclass; its fields are the annotated
    # parameters, the class variables kinds and complex_only are not among them
    assert [f.name for f in dataclasses.fields(form)] == list(form.__annotations__)
    assert form.__dataclass_params__.frozen and not form.__dataclass_params__.eq


def test_mn_chain_realization():
    rng = np.random.default_rng(2)
    Ns = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + np.eye(3) for _ in range(3)]
    maps = from_canonical(MnChain(tuple(Ns)), C3)
    assert len(maps) == 3
    for i, f in enumerate(maps):
        Nn = Ns[(i + 1) % 3]
        want = map_from_action(C3, C3, lambda A, Ni=Ns[i], Nj=Nn: Ni @ A @ np.linalg.inv(Nj))
        assert np.allclose(f.transfer, want.transfer)


def test_herm_odd_scalars_multiply_to_one():
    U = np.eye(2, dtype=complex)
    maps = from_canonical(HermOdd(U, (2.0, 3.0, 1.0 / 6.0)), H2)
    A = np.array([[1.0, 1j], [-1j, 0.5]])
    assert np.allclose(apply(maps[0], A), 2.0 * A)
    assert np.allclose(apply(maps[2], A), A / 6.0)
    with pytest.raises(InvalidParameterError):
        from_canonical(HermOdd(U, (2.0, 3.0, 1.0)), H2)


def test_herm_odd_requires_unitary():
    with pytest.raises(InvalidParameterError):
        from_canonical(HermOdd(np.diag([2.0, 1.0]), (1.0, 1.0, 1.0)), H2)


def test_herm_odd_wrong_kind_rejected():
    with pytest.raises(Exception):
        from_canonical(HermOdd(np.eye(2, dtype=complex), (1.0, 1.0, 1.0)), C2)


def test_hadamard_transfer_is_diagonal_scaling():
    C = np.array([[1.0, 2.0], [2.0, 1.0]])
    maps = from_canonical(Hadamard(C), R2)
    assert np.allclose(maps[0].transfer, np.diag([1.0, 2.0, 2.0, 1.0]))
    assert np.allclose(maps[1].transfer, np.diag([1.0, 0.5, 0.5, 1.0]))


def test_hadamard_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        from_canonical(Hadamard(np.array([[1.0, 2.0], [3.0, 1.0]])), R2)  # not symmetric
    with pytest.raises(InvalidParameterError):
        from_canonical(Hadamard(np.array([[1.0, 0.0], [0.0, 1.0]])), R2)  # zero entries


def test_hadamard_complex_parameter_warns():
    C = np.array([[1.0, 1j], [1j, 1.0]])
    with pytest.warns(UserWarning):
        from_canonical(Hadamard(C), C2)


def test_diag_pair_oracle():
    N = np.array([[1.0, 1.0], [0.0, 1.0]])
    maps = from_canonical(DiagPair(N), D2)
    assert np.allclose(maps[0].transfer, N)
    assert np.allclose(maps[1].transfer, np.array([[1.0, 0.0], [-1.0, 1.0]]))


def test_diag_chain_action():
    # P realizes the cycle 0 -> 1 -> 2 -> 0 on diagonal entries
    P = np.zeros((3, 3))
    P[0, 1] = P[1, 2] = P[2, 0] = 1.0
    Cs = (np.diag([2.0, 1.0, 1.0]), np.diag([0.5, 1.0, 1.0]), np.eye(3))
    maps = from_canonical(DiagChain(P, Cs), D3r)
    A = np.diag([1.0, 2.0, 3.0])
    for f, Ci in zip(maps, Cs):
        assert np.allclose(apply(f, A), Ci @ P.T @ A @ P)


def test_diag_chain_rejects_non_permutation():
    Cs = (np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(InvalidParameterError):
        from_canonical(DiagChain(np.array([[1.0, 1.0], [0.0, 1.0]]), Cs), D2)


@pytest.mark.parametrize(
    "diagonal, refused",
    [([1.0, 1e7], True), ([1.0, 0.0], True), ([1.0, 5e5], False)],
    ids=["k1-1e7", "zero-entry", "k1-5e5"],
)
def test_diag_chain_refuses_the_c_i_that_inverse_refuses(diagonal, refused):
    # DiagChain reads k1 off each C_i's diagonal, not through `_inverse`'s LU;
    # on diagonal C_i the two verdicts agree
    C = np.diag(diagonal)
    try:
        linmaps._inverse(C, "C")
    except SingularMatrixError:
        assert refused
    else:
        assert not refused
    form = DiagChain(np.eye(2), (C, np.diag([1.0 / x if x else 1.0 for x in diagonal])))
    if refused:
        with pytest.raises(SingularMatrixError, match=r"C\[0\] is singular"):
            from_canonical(form, D2)
    else:
        assert len(from_canonical(form, D2)) == 2


def test_pn_pair_congruence_action():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + np.eye(2)
    maps = from_canonical(PnPair(M), H2)
    A = np.array([[2.0, 1j], [-1j, 3.0]])
    Minv = np.linalg.inv(M)
    assert np.allclose(apply(maps[0], A), M.conj().T @ A @ M)
    assert np.allclose(apply(maps[1], A), Minv @ A @ Minv.conj().T)


def test_pn_pair_transpose_action():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + np.eye(2)
    maps = from_canonical(PnPair(M, transpose=True), H2)
    A = np.array([[2.0, 1j], [-1j, 3.0]])
    assert np.allclose(apply(maps[0], A), M.conj().T @ A.T @ M)


@pytest.mark.parametrize("value", ["false", 0, None])
def test_pn_pair_rejects_non_boolean_transpose(value):
    # bool("false") is True, so only real booleans may set the flag
    with pytest.raises(InvalidParameterError):
        PnPair(np.eye(2), transpose=value)


def test_pn_pair_keeps_numpy_booleans():
    assert PnPair(np.eye(2), transpose=np.bool_(True)).transpose is True


def test_nonextendable_triple_rejects_scalar_x():
    with pytest.raises(InvalidParameterError):
        from_canonical(NonextendableTriple(1.5 * np.eye(2, dtype=complex)), C2)


def test_nonextendable_triple_maps_into_double_size():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    maps = from_canonical(NonextendableTriple(X), C2)
    assert maps[0].codomain.n == 4
    A = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = apply(maps[0], A)
    assert np.allclose(out[:2, :2], A)
    assert np.allclose(out[2:, 2:], 0.0)


def test_is_hermitian_preserving_oracle():
    # A -> N A N with N = diag(i, 1) sends E12 + E21 to i(E12 + E21)
    N = np.diag([1j, 1.0])
    f = map_from_action(C2, C2, lambda A: N @ A @ N)
    assert not is_hermitian_preserving(f)
    U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    g = map_from_action(C2, C2, lambda A: U @ A @ U.conj().T)
    assert is_hermitian_preserving(g)


def test_complexify_agrees_on_hermitian_inputs():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + np.eye(3)
    f = map_from_action(H3, H3, lambda A: M.conj().T @ A @ M)
    F = complexify(f)
    assert F.domain.kind is SpaceKind.FULL
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = (A + A.conj().T) / 2
    assert np.allclose(apply(F, A), apply(f, A))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_is_linear(seed):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    f = LinMap(C2, C2, T)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a, b = rng.standard_normal(2)
    lhs = apply(f, a * A + b * B)
    rhs = a * apply(f, A) + b * apply(f, B)
    assert np.allclose(lhs, rhs)


def _gaussian_matrices(rng, shape, real):
    G = rng.standard_normal(shape)
    return G if real else G + 1j * rng.standard_normal(shape)


CONGRUENCE_SPACES = [
    SpaceTag(kind, field, n)
    for kind in (SpaceKind.FULL, SpaceKind.HERMITIAN, SpaceKind.SYMMETRIC, SpaceKind.DIAGONAL)
    for field in Field
    for n in (1, 2, 3, 5, 8)
    if not (kind is SpaceKind.HERMITIAN and field is Field.REAL)
]


def _span_preserving_sides(rng, space):
    """L and R such that L op(B) R stays in the span: independent on M_n,
    diagonal on diagonal spans, each the adjoint (Hermitian) or transpose
    (symmetric) of the other otherwise."""
    n, real = space.n, space.field is Field.REAL
    if space.kind in (SpaceKind.FULL, SpaceKind.DIAGONAL):
        mask = 1.0 if space.kind is SpaceKind.FULL else np.eye(n)
        return (_gaussian_matrices(rng, (n, n), real) * mask for _ in "LR")
    adjoint = np.conj if space.kind is SpaceKind.HERMITIAN else np.asarray
    X = _gaussian_matrices(rng, (n, n), real)
    return X, adjoint(X.T)


def _assert_transfer_near(got, images, space):
    # the reference reads the coordinates of the basis-stack products c L op(B_k) R
    want = linmap_from_images(space, space, images).transfer
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("space", CONGRUENCE_SPACES, ids=str)
def test_congruence_transfer_matches_basis_products(space, transpose):
    L, R = _span_preserving_sides(np.random.default_rng(space.n), space)
    c = 1.5 if space.field is Field.REAL else 0.5 - 2.0j
    if space.kind is SpaceKind.HERMITIAN:
        c = -0.75  # a real scalar keeps the images Hermitian
    st = basis_stack(space)
    ref = c * (L @ (st.transpose(0, 2, 1) if transpose else st) @ R)
    T = linmaps._congruence_transfer(space, L, R, transpose)
    assert T.flags.c_contiguous and T.flags.writeable
    _assert_transfer_near(_scaled_slot(c, T), ref, space)
    # c = 1 hands the side's transfer itself to its maps
    assert _scaled_slot(1.0, T) is T
    # the rebuild's row blocks, whole rows of L on M_n, are those rows bit for bit
    for rows in (slice(0, space.n), slice(space.n, 3 * space.n), slice(2 * space.n, None)):
        assert linmaps._congruence_transfer(space, L, R, transpose, rows).tobytes() == T[rows].tobytes()


@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_rank_one_frame_blocks_match_stacked_side_products(field, n):
    # RankOneFrame's sides are stacks, one matrix per basis element E_ij:
    # phi(E_ij) = I E_ij A_i and psi(E_ij) = A_j^{-1} E_ij I
    space = SpaceTag(SpaceKind.FULL, field, n)
    form = _valid_form(RankOneFrame, field, n, np.random.default_rng(n))
    A = np.stack(form.A)
    Ainv = np.linalg.inv(A)
    rows, cols = np.divmod(np.arange(n * n), n)
    st = basis_stack(space)
    phi, psi = from_canonical(form, space)
    _assert_transfer_near(phi.transfer, st @ A[rows], space)
    _assert_transfer_near(psi.transfer, Ainv[cols] @ st, space)


@pytest.mark.parametrize("kind", [SpaceKind.FULL, SpaceKind.SYMMETRIC, SpaceKind.DIAGONAL])
def test_congruence_transfer_stays_real_on_real_spans(kind):
    # in the coordinates' dtype: a real span reads the real parts of its
    # sides, which from_canonical has checked, and a complex one is complex
    space = SpaceTag(kind, Field.REAL, 3)
    rng = np.random.default_rng(0)
    L, R = rng.standard_normal((2, 3, 3))
    assert linmaps._congruence_transfer(space, L, R).dtype == np.float64
    assert linmaps._congruence_transfer(space, L, R.astype(complex)).dtype == np.float64
    complex_space = SpaceTag(kind, Field.COMPLEX, 3)
    assert linmaps._congruence_transfer(complex_space, L, R).dtype == np.complex128
    hermitian = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)
    assert linmaps._congruence_transfer(hermitian, L.astype(complex), L.T.astype(complex)).dtype == np.float64


@pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (3, 3), (2, 4), (4, 3)])
def test_complexify_matches_dense_change_of_basis(n, k):
    # the reference is S_cod T S_dom^-1 with S the dense Hermitian basis
    # change, column j of S being vec(H_j)
    rng = np.random.default_rng(10 * n + k)
    hdom = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, n)
    hcod = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, k)
    f = LinMap(hdom, hcod, rng.standard_normal((k * k, n * n)))
    S_dom = basis_stack(hdom).reshape(n * n, n * n).T
    S_cod = basis_stack(hcod).reshape(k * k, k * k).T
    np.testing.assert_array_equal(complexify(f).transfer, S_cod @ f.transfer @ np.linalg.inv(S_dom))


@pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (3, 3), (4, 5)])
def test_restrict_to_hermitian_matches_basis_images(n, k):
    # the reference applies the map to the Hermitian basis and reads the
    # Hermitian coordinates of the images
    rng = np.random.default_rng(n + k)
    f = LinMap(
        SpaceTag(SpaceKind.FULL, Field.COMPLEX, n),
        SpaceTag(SpaceKind.FULL, Field.COMPLEX, k),
        _gaussian_matrices(rng, (k * k, n * n), False),
    )
    hdom = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, n)
    hcod = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, k)
    ref = coords_batch(hcod, apply_batch(f, basis_stack(hdom))).T
    np.testing.assert_array_equal(_restrict_to_hermitian(f).transfer, ref)


def _valid_form(cls, field, n, rng):
    """A valid instance of the canonical form `cls` over `field` at size n."""
    inv = lambda: random_invertible(rng, n, field)  # noqa: E731
    real = field is Field.REAL
    if cls is HermOdd:
        return HermOdd(haar_unitary(rng, n), (2.0, 0.5, 1.0))
    if cls is SymOdd:
        return SymOdd(haar_orthogonal(rng, n) if real else complex_orthogonal(rng, n), (2.0, 0.5, 1.0))
    if cls in (HermEven, SymEven):
        return cls(inv(), (2.0, 0.5, 4.0, 0.25))
    if cls is PnPair:
        return PnPair(inv(), transpose=bool(n % 2))
    if cls is DiagChain:
        return DiagChain(random_permutation(rng, n), _diag_scalings(rng, n, 3, field))
    if cls is Hadamard:
        G = rng.standard_normal((n, n))
        return Hadamard(1.0 + np.abs(G + G.T))
    if cls is MnChain:
        return MnChain((inv(), inv(), inv()))
    if cls is RankOneFrame:  # its sides are stacks, one matrix per basis element
        return RankOneFrame(tuple(inv() for _ in range(n)))
    return cls(inv())  # DiagPair, NonextendableTriple


# every form on every span kind it accepts; a 1 x 1 X is scalar, so the
# non-extendable triple needs n >= 2
REALISATION_CASES = [
    (cls, SpaceTag(kind, field, n))
    for cls in FORMS
    for field in Field
    for kind in SpaceKind
    for n in (1, 2, 3, 5)
    if not (cls.complex_only and field is Field.REAL)
    and linmaps.span_of(SpaceTag(kind, field, n)).kind in cls.kinds
    and not (cls is NonextendableTriple and n == 1)
]


def _spy_kernel(monkeypatch) -> list:
    """Record each (space, L, R, transpose, transfer) that the congruence
    kernel writes."""
    seen, kernel = [], linmaps._congruence_transfer

    def spy(space, L, R, transpose=False):
        out = kernel(space, L, R, transpose)
        seen.append((space, L, R, transpose, out))
        return out

    monkeypatch.setattr(linmaps, "_congruence_transfer", spy)
    return seen


def _assert_round_trips(maps) -> None:
    # the reference is the checked constructor: it accepts the reassembled
    # images of every realised transfer and gives the transfer back bit for bit
    for f in maps:
        want = linmap_from_images(f.domain, f.codomain, image_stack(f)).transfer
        assert f.transfer.dtype == want.dtype
        assert f.transfer.tobytes() == want.tobytes()


def _kernel_sides(form) -> int:
    """How many sides `form` realises through the kernel, each once."""
    if isinstance(form, MnChain):
        return len(form.N)
    if isinstance(form, DiagChain):
        return len(form.C)
    if isinstance(form, (HermOdd, SymOdd, NonextendableTriple)):
        return 1
    if isinstance(form, (HermEven, SymEven, PnPair)):
        return 2
    return 0  # DiagPair, Hadamard and RankOneFrame write their transfers directly


def _case_id(v) -> str:
    return v.__name__ if isinstance(v, type) else f"{v.kind.value}-{v.field.value}-{v.n}"


@pytest.mark.parametrize("cls, space", REALISATION_CASES, ids=_case_id)
def test_realised_transfers_round_trip_through_the_checked_constructor(cls, space, monkeypatch):
    form = _valid_form(cls, space.field, space.n, np.random.default_rng(space.n))
    seen = _spy_kernel(monkeypatch)
    maps = from_canonical(form, space)
    assert len(seen) == _kernel_sides(form)
    if seen and cls is not NonextendableTriple:
        # map i is c_i times side i mod the side count, realised once
        sides = [out for *_, out in seen]
        real = linmaps.base_field(space) is Field.REAL
        for i, f in enumerate(maps):
            c = getattr(form, "c", (1.0,) * len(maps))[i]
            want = _scaled_slot(float(np.real(c)) if real else c, sides[i % len(sides)])
            assert f.transfer.tobytes() == want.tobytes()
    _assert_round_trips(maps)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("field", list(Field))
def test_transpose_map_is_the_kernel_with_identity_sides(field, n, monkeypatch):
    space = SpaceTag(SpaceKind.FULL, field, n)
    seen = _spy_kernel(monkeypatch)
    f = transpose_map(space)
    [(_, L, R, transpose, out)] = seen
    assert transpose and np.array_equal(L, np.eye(n)) and np.array_equal(R, np.eye(n))
    assert np.shares_memory(f.transfer, out)  # written straight, not copied
    want = linmap_from_images(space, space, basis_stack(space).transpose(0, 2, 1)).transfer
    assert f.transfer.tobytes() == want.tobytes()
    _assert_round_trips([f])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("field", list(Field))
def test_diag_chain_off_structure_realises_its_exact_structure(field, n, monkeypatch):
    # P and the C_i up to tol off a permutation and diagonals: the maps are
    # those of the exact form, realised from the rounded P and the diagonals
    space = SpaceTag(SpaceKind.DIAGONAL, field, n)
    rng = np.random.default_rng(n)
    exact = _valid_form(DiagChain, field, n, rng)
    real = field is Field.REAL
    tol, off = 1e-6, 1.0 - np.eye(n)

    def move():  # entries of magnitude below 1
        X = rng.uniform(-1, 1, (n, n))
        return X if real else (X + 1j * rng.uniform(-1, 1, (n, n))) / np.sqrt(2)

    P = exact.P + 0.9 * tol * move()
    Cs = tuple(C + 1e-7 * off * move() for C in exact.C)
    assert np.max(np.abs(P - exact.P)) > 0
    seen = _spy_kernel(monkeypatch)
    maps = from_canonical(DiagChain(P, Cs), space, tol=tol)
    # each side is a scaled copy of the exact permutation and the permutation itself
    assert len(seen) == len(Cs)
    for _, L, R, _, _ in seen:
        assert np.array_equal(R, exact.P)
        assert not np.any(L[exact.P.T == 0])
    for f, g in zip(maps, from_canonical(exact, space)):
        assert f.transfer.tobytes() == g.transfer.tobytes()
    _assert_round_trips(maps)


def _shortest_spec(family: str, field: Field, n: int):
    """The GenSpec of the shortest tuple, m <= 4, that `family` generates at
    size n over `field`, or None."""
    for m in range(1, 5):
        try:
            return GenSpec(family=family, n=n, m=m, field=field, seed=0)
        except InvalidParameterError:
            pass
    return None


BLOCK_SPECS = [
    spec
    for family in FAMILIES
    for field in Field
    for n in (1, 2, 3, 8, 16, 33)
    # only Hermitian and symmetric sides are blocked; a full side at n = 33 costs a tenth of a second
    if n < 33 or _FAMILY_TABLE[family].kind in (SpaceKind.HERMITIAN, SpaceKind.SYMMETRIC)
    if (spec := _shortest_spec(family, field, n)) is not None
]


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda s: f"{s.family}-{s.field.value}-n{s.n}-m{s.m}")
def test_generate_in_row_blocks_matches_one_whole_block(monkeypatch, spec):
    # a Hermitian or symmetric side is filled in row blocks: by default 2 at
    # n = 16 and 33 at n = 33, and below n = 16, where the default is one
    # block, a block per n rows; one block of every row is the whole
    # realisation, and both must give the same bits on every family
    if spec.n < 16:
        monkeypatch.setattr(linmaps, "_BLOCK_ENTRIES", 1)
    blocked = generate(spec).maps
    monkeypatch.setattr(linmaps, "_BLOCK_ENTRIES", 2**62)
    whole = generate(spec).maps
    for f, g in zip(blocked, whole, strict=True):
        assert f.transfer.dtype == g.transfer.dtype
        assert f.transfer.tobytes() == g.transfer.tobytes()


def test_inverse_refuses_an_exactly_singular_matrix_as_singular():
    # numpy's LU raises LinAlgError at an exact zero pivot; the one
    # conditioned inverse reports it as its own error, at condition inf
    with pytest.raises(SingularMatrixError, match=r"1-norm condition number inf"):
        linmaps._inverse(np.diag([1.0, 0.0]), "M")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inverse_refuses_non_finite_entries_without_warnings(bad):
    M = np.eye(3, dtype=np.complex128)
    M[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match=r"M is singular or has condition number above 1e\+06 \(1-norm"):
            linmaps._inverse(M, "M")


@pytest.mark.parametrize(
    "call, limit",
    [
        pytest.param(lambda M: linmaps._inverse(M, "M"), linmaps.COND_LIMIT, id="parameters"),
        pytest.param(lambda M: dualize(LinMap(D2, D2, M)), 1 / 1e-9, id="dualize-default-tol"),
        pytest.param(lambda M: dualize(LinMap(D2, D2, M), 1e-6), 1 / 1e-6, id="dualize-tol-1e-6"),
    ],
)
def test_inverse_limit_on_a_diagonal_matrix(call, limit):
    # on diag(1, k) both condition numbers are k exactly, so the limit is
    # met at k = limit and passed at the next double above it; dualize of a
    # map on diagonals inverts the transfer itself (its trace Gram is I), at
    # the limit 1/tol as computed
    for k in (np.nextafter(limit, 0.0), limit):
        call(np.diag([1.0, k]))
    with pytest.raises(SingularMatrixError, match=re.escape(f"above {limit:g} (1-norm condition number")):
        call(np.diag([1.0, np.nextafter(limit, np.inf)]))


def test_inverse_judges_the_one_norm_condition_number():
    # a 2 x 2 rotation-scaling-rotation with 2-norm condition number 8e5,
    # below the limit, and 1-norm condition number 1.17e6, above it
    def rotation(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    M = rotation(1.17) @ np.diag([1.0, 1 / 8e5]) @ rotation(1.19)
    assert np.linalg.cond(M) < linmaps.COND_LIMIT < np.linalg.cond(M, 1)
    with pytest.raises(SingularMatrixError, match=r"1-norm condition number 1\.17e\+06"):
        linmaps._inverse(M, "M")


def test_inverse_is_numpys_inverse():
    M = np.random.default_rng(0).standard_normal((5, 5))
    assert np.array_equal(linmaps._inverse(M, "M"), np.linalg.inv(M))


@pytest.mark.parametrize("c", [(np.nan, 1.0, 1.0), (0.0, 1.0, 1.0)], ids=["nan", "zero"])
def test_scaled_forms_refuse_a_scalar_that_is_not_finite_and_nonzero(c):
    # a NaN scalar would pass the product invariant, since NaN > bound is false
    space = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 2)
    U = haar_unitary(np.random.default_rng(0), 2)
    with pytest.raises(InvalidParameterError, match="scalars must be finite and nonzero"):
        from_canonical(HermOdd(U, c), space)


@pytest.mark.parametrize(
    "form, space, error, message",
    [
        pytest.param(object(), SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2), InvalidParameterError,
                     "unknown canonical form object", id="not-a-form"),
        pytest.param(NonextendableTriple(np.diag([1.0, 2.0])), SpaceTag(SpaceKind.FULL, Field.REAL, 2),
                     InvalidParameterError, "NonextendableTriple needs a complex-field space", id="real-triple"),
        pytest.param(MnChain((np.eye(3),) * 3), SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2), DimensionMismatchError,
                     "MnChain parameters are 3 x 3 but the space has n=2", id="wrong-size"),
        pytest.param(MnChain((np.eye(2) * 1j, np.eye(2), np.eye(2))), SpaceTag(SpaceKind.FULL, Field.REAL, 2),
                     InvalidParameterError, "MnChain over a real space needs a real N", id="complex-on-real"),
        pytest.param(DiagChain(np.eye(2), (np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))), D2,
                     InvalidParameterError, "C[0] must be diagonal", id="non-diagonal-c"),
        pytest.param(DiagChain(2 * np.eye(2), (np.eye(2), np.eye(2))), D2,
                     InvalidParameterError, "P must be a permutation matrix", id="p-entry-not-0-or-1"),
        # an imaginary part of 1e-9 is within the real-parameter check's tol, outside the real family's
        pytest.param(Hadamard(np.ones((2, 2)) * (1 + 1e-9j)), R2,
                     InvalidParameterError, "complex C on a real space", id="complex-hadamard-on-real"),
        pytest.param(RankOneFrame((np.eye(2),) * 3), C2,
                     DimensionMismatchError, "RankOneFrame needs n=2 matrices, got 3", id="frame-count"),
    ],
)
def test_from_canonical_refuses_what_is_no_form_on_the_space(form, space, error, message):
    with pytest.raises(error, match=re.escape(message)):
        from_canonical(form, space)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: LinMap(H2, C2, np.zeros((4, 4))), InvalidParameterError,
                     "domain and codomain must share a base field, got real vs complex", id="LinMap-fields"),
        pytest.param(lambda: compose(identity_map(C2), identity_map(C3)), DimensionMismatchError,
                     f"cannot compose: domain of f is {C2}, codomain of g is {C3}", id="compose"),
        pytest.param(lambda: linmap_from_images(C2, C2, np.zeros((3, 2, 2))), DimensionMismatchError,
                     "need 4 images, got 3", id="image-count"),
        pytest.param(lambda: linmap_from_images(C2, C2, np.zeros((4, 3, 3))), DimensionMismatchError,
                     "images must be 2 x 2, got shape (3, 3)", id="image-shape"),
        pytest.param(lambda: complexify(identity_map(C2)), InvalidParameterError,
                     "complexify expects Hermitian-kind domain and codomain", id="complexify"),
        pytest.param(lambda: transpose_map(H2), InvalidParameterError,
                     "transpose_map expects a full matrix space", id="transpose_map"),
        pytest.param(lambda: MnChain(()), InvalidParameterError, "N must be nonempty", id="no-matrices"),
        pytest.param(lambda: MnChain((np.eye(2), np.eye(3), np.eye(2))), DimensionMismatchError,
                     "N entries must share one size, got [2, 3]", id="matrices-of-two-sizes"),
    ],
)
def test_maps_and_forms_refuse_parts_that_do_not_fit(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: HermOdd(np.eye(2), (1 + 1j, 1, 1)), "c must be a sequence of real numbers",
                     id="complex-real-scalar"),
        pytest.param(lambda: HermOdd(np.eye(2), (None, 1, 1)), "c must be a sequence of real numbers",
                     id="none-real-scalar"),
        pytest.param(lambda: HermOdd(np.eye(2), 5), "c must be a sequence of real numbers",
                     id="scalars-not-a-sequence"),
        pytest.param(lambda: HermOdd(np.eye(2), ("abc", 1, 1)), "c must be a sequence of real numbers",
                     id="string-real-scalar"),
        pytest.param(lambda: SymOdd(np.eye(2), ("abc", 1, 1)), "c must be a sequence of complex numbers",
                     id="string-complex-scalar"),
        pytest.param(lambda: MnChain(("x",)), "N[0] must be a square matrix of numbers", id="string-matrix"),
        # each of these was read as a number: the imaginary part dropped with
        # only a ComplexWarning, True as 1, a numeric string by its value
        pytest.param(lambda: HermOdd(np.eye(2), np.array([1 + 1j, 1, 1])), "c must be a sequence of real numbers",
                     id="numpy-complex-real-scalar"),
        pytest.param(lambda: HermOdd(np.eye(2), (True, 1, 1)), "c must be a sequence of real numbers",
                     id="bool-real-scalar"),
        pytest.param(lambda: HermOdd(np.eye(2), ("2", "0.5", 1)), "c must be a sequence of real numbers",
                     id="numeric-string-real-scalar"),
        pytest.param(lambda: SymOdd(np.eye(2), (True, 1, 1)), "c must be a sequence of complex numbers",
                     id="bool-complex-scalar"),
        pytest.param(lambda: SymOdd(np.eye(2), ("2", "0.5", 1)), "c must be a sequence of complex numbers",
                     id="numeric-string-complex-scalar"),
        pytest.param(lambda: MnChain(([["1", "0"], ["0", "1"]],)), "N[0] must be a square matrix of numbers",
                     id="numeric-string-matrix"),
        pytest.param(lambda: MnChain((np.eye(2, dtype=bool),)), "N[0] must be a square matrix of numbers",
                     id="bool-matrix"),
        pytest.param(lambda: MnChain(([[1, 2], [3]],)), "N[0] must be a square matrix of numbers",
                     id="ragged-matrix"),
        pytest.param(lambda: MnChain(5), "N must be a sequence of matrices", id="matrices-not-a-sequence"),
        pytest.param(lambda: nonextendable_best_fit_residual("abc"), "X must be a square matrix of numbers",
                     id="best-fit-string"),
    ],
)
def test_form_parameters_that_are_not_numbers_are_invalid_parameters(call, message):
    # each escaped as a bare TypeError or ValueError of float(), complex() or np.asarray; the
    # match is on the prefix, since Python's own text in the parentheses differs between versions
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        call()
