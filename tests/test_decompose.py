import dataclasses
import functools
import importlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import traceprod
from traceprod import (
    CanonicalStructureError,
    apply,
    DiagChain,
    DimensionMismatchError,
    DiagPair,
    FAMILIES,
    Field,
    GenSpec,
    Hadamard,
    HermEven,
    HermOdd,
    InvalidParameterError,
    LinMap,
    MnChain,
    NotApplicableError,
    PnPair,
    PositivityError,
    PowerMap,
    PreservationError,
    SpaceKind,
    SpaceTag,
    SymEven,
    SymOdd,
    check_preservation,
    decompose,
    decompose_diag_chain,
    decompose_diag_pair,
    decompose_mn_chain,
    decompose_pn_chain,
    decompose_pn_pair,
    dualize,
    from_canonical,
    generate,
    herm_power,
    identity_map,
    linmap_from_images,
    nonextendable_best_fit_residual,
    power_map_apply,
    recover_conjugator,
    reshuffled_transfer_rank,
    space_basis,
    span_of,
    verify_weighted,
    weighted_canonical_maps,
    weighted_reduction,
)
from traceprod.decompose import (
    CERTIFY_TOL,
    PRECHECK_TOL,
    PRECHECK_TRIALS,
    DecompositionResult,
    _read_conjugator,
    _unit_columns,
)
from traceprod.families import haar_orthogonal, haar_unitary
from traceprod.linmaps import _first_admitting
from conftest import basis_stack, ill_conditioned_diag_preservers, move_first_transfer

C2 = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2)
C3 = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 3)
H3 = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)
R2 = SpaceTag(SpaceKind.FULL, Field.REAL, 2)
D3 = SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 3)


def _rand_inv(rng, n, real=False):
    while True:
        M = rng.standard_normal((n, n))
        if not real:
            M = M + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(M) < 50:
            return M


def test_recover_conjugator():
    rng = np.random.default_rng(0)
    N = _rand_inv(rng, 3)
    Ninv = np.linalg.inv(N)
    images = [N @ E @ Ninv for E in basis_stack(C3)]
    got = recover_conjugator(images)
    # recovery is up to a scalar: N_rec N^{-1} must be scalar
    Q = got @ Ninv
    lam = np.trace(Q) / 3
    assert np.max(np.abs(Q - lam * np.eye(3))) <= 1e-8 * abs(lam)


def test_recover_conjugator_rejects_non_automorphism():
    rng = np.random.default_rng(1)
    images = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(9)]
    with pytest.raises(CanonicalStructureError):
        recover_conjugator(images)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", [SpaceKind.FULL, SpaceKind.SYMMETRIC], ids=["full", "symmetric"])
def test_unit_columns_map_e_j_to_e_i(kind, n):
    # the basis element at col[i, j] is E_ij on M_n and E_ij + E_ji on the
    # symmetric span: both send e_j to e_i
    space = SpaceTag(kind, Field.COMPLEX, n)
    basis, col, e = basis_stack(space), _unit_columns(space), np.eye(n)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(basis[col[i, j]] @ e[j], e[i])


@pytest.mark.parametrize("n", [2, 4])
def test_recover_conjugator_on_symmetric_span(n):
    dom = SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, n)
    O, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    N = recover_conjugator(O @ basis_stack(dom) @ O.T)
    N = N / np.sqrt(np.trace(N.T @ N) / n)
    assert min(np.max(np.abs(N - O)), np.max(np.abs(N + O))) <= 1e-10


def test_recover_conjugator_complex_on_symmetric_span():
    dom = SpaceTag(SpaceKind.SYMMETRIC, Field.COMPLEX, 3)
    W = _rand_inv(np.random.default_rng(5), 3)
    Winv = np.linalg.inv(W)
    Q = recover_conjugator(W @ basis_stack(dom) @ Winv) @ Winv
    lam = np.trace(Q) / 3
    assert np.max(np.abs(Q - lam * np.eye(3))) <= 1e-8 * abs(lam)


def test_recover_conjugator_rejects_random_symmetric_images():
    G = np.random.default_rng(0).standard_normal((6, 3, 3))
    images = ((G + G.transpose(0, 2, 1)) / 2).astype(complex)
    with pytest.raises(CanonicalStructureError, match="not a conjugation"):
        recover_conjugator(images)


@pytest.mark.parametrize("kind", [SpaceKind.FULL, SpaceKind.SYMMETRIC], ids=["full", "symmetric"])
def test_recover_conjugator_checks_every_basis_image(kind):
    # the image of the element at col[1, 2] is not used to build N from
    # column 0, so only the check over the whole basis can reject it
    space = SpaceTag(kind, Field.COMPLEX, 3)
    W = _rand_inv(np.random.default_rng(6), 3)
    images = W @ basis_stack(space) @ np.linalg.inv(W)
    recover_conjugator(images)
    images[_unit_columns(space)[1, 2]] += 1e-3
    with pytest.raises(CanonicalStructureError, match="not a conjugation"):
        recover_conjugator(images)


def test_recover_conjugator_reports_smallest_residual():
    # every candidate column misses the images by about 1e-3, the last one
    # by more than the best; the reference loop checks each candidate with
    # the product N B N^{-1} over the whole basis
    rng = np.random.default_rng(4)
    W = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    basis = basis_stack(C3)
    images = W @ basis @ np.linalg.inv(W) + 1e-3 * rng.standard_normal((9, 3, 3))
    col = _unit_columns(C3)
    scale = max(1.0, np.max(np.abs(images)))
    residuals = []
    for j in range(3):
        w, V = np.linalg.eig(images[col[j, j]])
        pick = int(np.argmin(np.abs(w - 1.0)))
        N = (images[col[:, j]] @ V[:, pick]).T
        if abs(w[pick] - 1.0) <= 0.1 and np.linalg.cond(N) <= 1e6:
            residuals.append(np.max(np.abs(images - N @ basis @ np.linalg.inv(N))) / scale)
    assert len(residuals) == 3 and min(residuals) < residuals[-1]
    with pytest.raises(CanonicalStructureError) as info:
        recover_conjugator(images)
    assert f"(best residual {min(residuals):.3g})" in str(info.value)


def test_recover_conjugator_rejects_image_count():
    with pytest.raises(DimensionMismatchError):
        recover_conjugator(np.zeros((5, 3, 3)))


def _conjugation_cases() -> dict:
    """The conjugated basis images that the `test_recover_conjugator*` cases
    above accept, on full and symmetric spans."""
    def conjugated(space, W, Winv):
        return space, W @ basis_stack(space) @ Winv

    N = _rand_inv(np.random.default_rng(0), 3)
    cases = {"full": conjugated(C3, N, np.linalg.inv(N))}
    for n in (2, 4):
        O, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
        cases[f"orthogonal-n{n}"] = conjugated(SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, n), O, O.T)
    W = _rand_inv(np.random.default_rng(5), 3)
    cases["complex-symmetric"] = conjugated(SpaceTag(SpaceKind.SYMMETRIC, Field.COMPLEX, 3), W, np.linalg.inv(W))
    W = _rand_inv(np.random.default_rng(6), 3)
    for kind in (SpaceKind.FULL, SpaceKind.SYMMETRIC):
        cases[f"every-image-{kind.value}"] = conjugated(SpaceTag(kind, Field.COMPLEX, 3), W, np.linalg.inv(W))
    return cases


@pytest.mark.parametrize("space, images", _conjugation_cases().values(), ids=_conjugation_cases().keys())
def test_read_conjugator_is_recover_conjugators_first_candidate(space, images):
    # decompose reads N off the images of unit column 0 alone and leaves
    # the check over the whole basis to its rebuild
    images = images.astype(np.complex128)
    space = SpaceTag(space.kind, Field.COMPLEX, space.n)
    asked = []

    def images_at(ks):
        asked.append(ks)
        return images[ks]

    N, Ninv = _read_conjugator(space, images_at)
    assert np.array_equal(N, recover_conjugator(images))
    assert np.array_equal(Ninv, np.linalg.inv(N))
    assert len(asked) == 1 and np.array_equal(asked[0], _unit_columns(space)[:, 0])


@pytest.mark.parametrize("field", [Field.COMPLEX, Field.REAL])
def test_mn_chain_round_trip(field):
    gen = generate(GenSpec(family="mn_chain", n=3, m=4, field=field, seed=21))
    res = decompose(gen.maps)
    assert isinstance(res.form, MnChain)
    assert res.reconstruction_residual <= 1e-7
    # recovered chain matches the original up to one shared scalar
    t = None
    for got, want in zip(res.form.N, gen.form.N):
        lam = np.trace(np.linalg.solve(want, got)) / 3
        assert np.max(np.abs(got - lam * want)) <= 1e-7 * max(1.0, abs(lam) * np.max(np.abs(want)))
        if t is None:
            t = lam
        assert np.isclose(lam, t, atol=1e-7)


def test_mn_chain_needs_three():
    gen = generate(GenSpec(family="mn_chain", n=3, m=3, seed=2))
    with pytest.raises(NotApplicableError):
        decompose_mn_chain(gen.maps[:2])


def test_herm_odd_round_trip_scalars_exact():
    gen = generate(GenSpec(family="herm_odd", n=3, m=5, seed=3))
    res = decompose(gen.maps)
    assert isinstance(res.form, HermOdd)
    assert res.reconstruction_residual <= 1e-7
    c = np.array(res.form.c)
    assert abs(np.prod(c) - 1.0) <= 1e-9
    assert np.allclose(np.abs(c), np.abs(np.array(gen.form.c)), atol=1e-7)
    U = res.form.U
    assert np.max(np.abs(U.conj().T @ U - np.eye(3))) <= 1e-8


def test_herm_even_round_trip():
    gen = generate(GenSpec(family="herm_even", n=3, m=4, seed=4))
    res = decompose(gen.maps)
    assert isinstance(res.form, HermEven)
    assert res.reconstruction_residual <= 1e-7
    assert abs(np.prod(np.array(res.form.c)) - 1.0) <= 1e-9


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 16])
def test_pn_pair_round_trip_and_branch(n, transpose):
    rng = np.random.default_rng(100 * n + transpose)
    tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, n)
    M = _rand_inv(rng, n)
    maps = from_canonical(PnPair(M, transpose=transpose), tag)
    res = decompose_pn_pair(maps)
    assert res.form.transpose is transpose
    assert res.reconstruction_residual <= 1e-7


def test_pn_pair_rejects_triples():
    gen = generate(GenSpec(family="herm_odd", n=3, m=3, seed=5))
    with pytest.raises(NotApplicableError):
        decompose_pn_pair(gen.maps)


@pytest.mark.parametrize(
    "field,m,expect",
    [
        (Field.COMPLEX, 2, PnPair),
        (Field.COMPLEX, 3, HermOdd),
        (Field.COMPLEX, 4, HermEven),
        (Field.REAL, 2, SymEven),
        (Field.REAL, 3, SymOdd),
    ],
)
def test_pn_chain_round_trip(field, m, expect):
    gen = generate(GenSpec(family="pn_chain", n=3, m=m, field=field, seed=6))
    res = decompose(gen.maps)
    assert isinstance(res.form, expect)
    assert res.reconstruction_residual <= 1e-7


@pytest.mark.parametrize("field", [Field.COMPLEX, Field.REAL])
def test_sym_odd_round_trip(field):
    gen = generate(GenSpec(family="sym_odd", n=3, m=3, field=field, seed=7))
    res = decompose(gen.maps)
    assert isinstance(res.form, SymOdd)
    assert res.reconstruction_residual <= 1e-7
    O = res.form.O
    assert np.max(np.abs(O.T @ O - np.eye(3))) <= 1e-8
    assert abs(np.prod(np.array(res.form.c)) - 1.0) <= 1e-9
    if field is Field.REAL:
        assert np.max(np.abs(np.imag(np.array(res.form.c)))) <= 1e-10


@pytest.mark.parametrize("n", [3, 8])
def test_complex_sym_odd_round_trip_is_tight(n):
    gen = generate(GenSpec(family="sym_odd", n=n, m=3, field=Field.COMPLEX, seed=7))
    res = decompose(gen.maps)
    assert isinstance(res.form, SymOdd)
    assert res.reconstruction_residual <= 1e-11
    O = res.form.O
    assert np.max(np.abs(O.T @ O - np.eye(n))) <= 1e-11


def test_sym_even_round_trip():
    gen = generate(GenSpec(family="sym_even", n=3, m=4, seed=8))
    res = decompose(gen.maps)
    assert isinstance(res.form, SymEven)
    assert res.reconstruction_residual <= 1e-7


def test_diag_pair_oracle_exact():
    N = np.array([[1.0, 1.0], [0.0, 1.0]])
    tag = SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 2)
    maps = from_canonical(DiagPair(N), tag)
    res = decompose_diag_pair(maps)
    assert np.array_equal(res.form.N, N)
    assert res.reconstruction_residual == 0.0


def test_diag_chain_oracle():
    P = np.zeros((3, 3))
    P[0, 1] = P[1, 2] = P[2, 0] = 1.0
    Cs = (np.diag([2.0, 1.0, 1.0]), np.diag([0.5, 1.0, 1.0]), np.eye(3))
    maps = from_canonical(DiagChain(P, Cs), D3)
    res = decompose_diag_chain(maps)
    assert np.array_equal(res.form.P, P)
    prod = np.eye(3)
    for got, want in zip(res.form.C, Cs):
        assert np.allclose(got, want)
        prod = prod @ got
    assert np.max(np.abs(prod - np.eye(3))) <= 1e-9


def test_diag_chain_round_trip():
    gen = generate(GenSpec(family="diag_chain", n=4, m=4, field=Field.REAL, seed=9))
    res = decompose(gen.maps)
    assert isinstance(res.form, DiagChain)
    assert res.reconstruction_residual <= 1e-7
    prod = np.eye(4)
    for Ci in res.form.C:
        prod = prod @ Ci
    assert np.max(np.abs(prod - np.eye(4))) <= 1e-9


def test_decompose_dispatcher_family_override():
    gen = generate(GenSpec(family="diag_pair", n=3, m=2, seed=10))
    res = decompose(gen.maps, family="diag_pair")
    assert isinstance(res.form, DiagPair)
    with pytest.raises(Exception):
        decompose(gen.maps, family="no_such_family")


@pytest.mark.parametrize("family", [["x"], {"mn_chain": 1}, ("mn_chain",), None, 3])
def test_decompose_refuses_a_family_that_is_no_name(family):
    # an unhashable family raised a bare TypeError from the table lookup
    maps = generate(GenSpec(family="diag_pair", n=2, m=2, seed=0)).maps
    with pytest.raises(InvalidParameterError, match=f"^unknown family {re.escape(repr(family))}; expected one of"):
        decompose(maps, family=family)


def test_decompose_precheck_rejects_broken_tuple():
    f = LinMap(C2, C2, 2.0 * np.eye(4))
    maps = [f, identity_map(C2), identity_map(C2)]
    with pytest.raises(PreservationError):
        decompose(maps)


@pytest.mark.parametrize(
    "gen_family, field, n, m, seed, rel",
    [
        ("sym_odd", Field.REAL, 4, 3, 0, 1e-7),
        ("diag_pair", Field.COMPLEX, 2, 2, 1, 1e-6),
        ("diag_chain", Field.REAL, 5, 3, 0, 1e-6),
        ("herm_odd", Field.COMPLEX, 8, 3, 0, 1e-6),
        ("diag_chain", Field.REAL, 3, 3, 0, None),
    ],
)
def test_decompose_rejects_rebuild_beyond_tol(gen_family, field, n, m, seed, rel):
    # the rebuild is the one structural verdict: no recovery re-checks a
    # partner, a permutation pattern, a product or a unitary on its own
    gen = generate(GenSpec(family=gen_family, n=n, m=m, field=field, seed=seed))
    if rel is None:  # f_2 on another permutation than f_1 and f_3
        f = gen.maps[1]
        maps = [gen.maps[0], LinMap(f.domain, f.codomain, np.roll(f.transfer, 1, axis=0)), *gen.maps[2:]]
        error, match = PreservationError, None
    else:  # f_1 moved by rel
        maps, error, match = move_first_transfer(gen.maps, rel), CanonicalStructureError, "rebuilds the maps only to"
    precheck = check_preservation(maps, tol=PRECHECK_TOL, trials=PRECHECK_TRIALS, seed=7)
    # only the rebuild gate stands between a moved tuple and its form
    assert precheck.passed is (error is CanonicalStructureError)
    with pytest.raises(error, match=match):
        decompose(maps)


@pytest.mark.parametrize("family", ["diag_chain", "diag_pair"])
def test_decompose_refuses_ill_conditioned_preserver(family):
    # a preserver whose parameters from_canonical refuses is a structure
    # error; the chain raised SingularMatrixError out of the rebuild
    maps = ill_conditioned_diag_preservers()[family]
    assert check_preservation(maps).passed
    with pytest.raises(CanonicalStructureError, match="is singular or has condition number above 1e"):
        decompose(maps)


def test_decompose_precheck_rejects_rebuild_within_tol():
    # The rebuild of this tuple misses by 4.1e-9, inside tol = 1e-7, though
    # the identity fails by 1.1e-5: a rebuild within tol is no certificate yet.
    gen = generate(GenSpec(family="mn_chain", n=16, m=3, field=Field.COMPLEX, seed=0))
    with pytest.raises(PreservationError):
        decompose(move_first_transfer(gen.maps, 1e-8))


# per decompose family: (generator family, field, m) of a tuple it decomposes,
# a tuple length its length rule refuses, and the start of that refusal
_FAMILY_CASES = {
    "mn_chain": ("mn_chain", Field.COMPLEX, 3, 2, "chains on full matrix spaces need at least 3"),
    "hermitian": ("herm_odd", Field.COMPLEX, 3, 2, "Hermitian chains need at least 3"),
    "pn_pair": ("pn_pair", Field.COMPLEX, 2, 3, "this family is a pair"),
    "pn_chain": ("pn_chain", Field.COMPLEX, 3, 1, "need at least a pair"),
    "symmetric": ("sym_even", Field.REAL, 4, 1, "need at least a pair"),
    "diag_pair": ("diag_pair", Field.COMPLEX, 2, 3, "diagonal pairs have exactly 2"),
    "diag_chain": ("diag_chain", Field.REAL, 3, 2, "diagonal chains need at least 3"),
}


@pytest.mark.parametrize("family", sorted(_FAMILY_CASES))
def test_decompose_family_is_its_decomposer_and_checks_length_before_identity(family):
    gen_family, field, m, wrong_m, length_error = _FAMILY_CASES[family]
    maps = generate(GenSpec(family=gen_family, n=3, m=m, field=field, seed=1)).maps
    via_table = decompose(maps, family=family)
    direct = getattr(traceprod, f"decompose_{family}")(maps)
    assert type(via_table.form) is type(direct.form)
    for param in dataclasses.fields(direct.form):
        np.testing.assert_array_equal(
            np.asarray(getattr(via_table.form, param.name)), np.asarray(getattr(direct.form, param.name))
        )
    assert via_table.reconstruction_residual == direct.reconstruction_residual
    assert via_table.gauge_note == direct.gauge_note

    # doubled maps of the wrong length: the length error wins over the identity's
    broken = [LinMap(f.domain, f.codomain, 2.0 * f.transfer) for f in (list(maps) * 2)[:wrong_m]]
    assert not check_preservation(broken, mode="randomized", trials=16).passed
    with pytest.raises(NotApplicableError, match=length_error):
        decompose(broken, family=family)


# `traceprod.decompose` is the function; the pipeline's globals live in the module
_DECOMPOSE = importlib.import_module("traceprod.decompose")
_WEIGHTED = importlib.import_module("traceprod.weighted")

_FULL_SHORT = "chains on full matrix spaces need at least 3 maps"
_SYM_ROUTE = ("need at least a pair", SymEven, SymOdd, SymEven)
_CONE_ROUTE = ("need at least a pair", PnPair, HermOdd, HermEven)
_DIAG_ROUTE = ("diagonal chains need at least 3 maps; pairs go to decompose_diag_pair", DiagPair, DiagChain, DiagChain)
# what "auto" makes of m = 1, 2, 3, 4 identity maps at n = 2: the form class
# it returns, or the message of the NotApplicableError it raises
_AUTO_ROUTES = {
    (SpaceKind.FULL, Field.REAL): (_FULL_SHORT, _FULL_SHORT, MnChain, MnChain),
    (SpaceKind.FULL, Field.COMPLEX): (_FULL_SHORT, _FULL_SHORT, MnChain, MnChain),
    (SpaceKind.HERMITIAN, Field.REAL): _SYM_ROUTE,
    (SpaceKind.HERMITIAN, Field.COMPLEX): (
        "Hermitian chains need at least 3 maps; pairs belong to decompose_pn_pair", PnPair, HermOdd, HermEven
    ),
    (SpaceKind.SYMMETRIC, Field.REAL): _SYM_ROUTE,
    (SpaceKind.SYMMETRIC, Field.COMPLEX): _SYM_ROUTE,
    (SpaceKind.POSDEF, Field.REAL): _SYM_ROUTE,
    (SpaceKind.POSDEF, Field.COMPLEX): _CONE_ROUTE,
    (SpaceKind.POSSEMIDEF, Field.REAL): _SYM_ROUTE,
    (SpaceKind.POSSEMIDEF, Field.COMPLEX): _CONE_ROUTE,
    (SpaceKind.DIAGONAL, Field.REAL): _DIAG_ROUTE,
    (SpaceKind.DIAGONAL, Field.COMPLEX): _DIAG_ROUTE,
}


def test_auto_routes_cover_every_space_kind_and_field():
    assert set(_AUTO_ROUTES) == {(kind, fd) for kind in SpaceKind for fd in Field}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kind, fd", list(_AUTO_ROUTES), ids=lambda v: v.value)
def test_auto_routes_identity_maps_by_span_field_and_length(kind, fd, m):
    _assert_route([identity_map(SpaceTag(kind, fd, 2))] * m, "auto", _AUTO_ROUTES[kind, fd][m - 1])


def _assert_route(maps, family: str, expected) -> None:
    """decompose(maps, family) returns a form of the class `expected`, or
    raises the error `expected`; a message alone is a NotApplicableError's."""
    if isinstance(expected, type):
        assert type(decompose(maps, family=family).form) is expected
        return
    if isinstance(expected, str):
        expected = NotApplicableError(expected)
    with pytest.raises(type(expected)) as err:
        decompose(maps, family=family)
    assert type(err.value) is type(expected) and str(err.value) == str(expected)


_PAIR_ONLY = "this family is a pair; longer chains go to decompose_pn_chain"
_HERM_SHORT = "Hermitian chains need at least 3 maps; pairs belong to decompose_pn_pair"
_DIAG_PAIR_ONLY = "diagonal pairs have exactly 2 maps"
_DIAG_SHORT = "diagonal chains need at least 3 maps; pairs go to decompose_diag_pair"
_COMPLEX_HERM = (SpaceKind.HERMITIAN, Field.COMPLEX)
# the span kinds that each named family's refusal of another span lists; the
# cone family's are the definite cone's span over the maps' field
_NAMED_KINDS = {
    "mn_chain": "['FullMatrix']",
    "pn_pair": "['Hermitian']",
    "hermitian": "['Hermitian']",
    "pn_chain": {Field.COMPLEX: "['Hermitian']", Field.REAL: "['Symmetric']"},
    "symmetric": "['Symmetric']",
    "diag_pair": "['Diagonal']",
    "diag_chain": "['Diagonal']",
}


def _span_refusal(family: str, span: SpaceTag) -> InvalidParameterError:
    """The refusal of maps on `span` by a family that does not take it: "maps
    act on <span kind>, expected one of <_NAMED_KINDS[family]>", and for the
    cone family " over the <field> field"."""
    kinds = _NAMED_KINDS[family]
    if isinstance(kinds, dict):
        return InvalidParameterError(
            f"maps act on {span.kind.value}, expected one of {kinds[span.field]} over the {span.field.value} field"
        )
    return InvalidParameterError(f"maps act on {span.kind.value}, expected one of {kinds}")


# what each named family makes of m = 1, 2, 3, 4 identity maps at n = 2 on
# each span it takes, keyed by the span's kind and field (`span_of`), as in
# `_AUTO_ROUTES`. On any other span it raises `_span_refusal` at every m.
_NAMED_ROUTES = {
    "mn_chain": {(SpaceKind.FULL, fd): (_FULL_SHORT, _FULL_SHORT, MnChain, MnChain) for fd in Field},
    "pn_pair": {_COMPLEX_HERM: (_PAIR_ONLY, PnPair, _PAIR_ONLY, _PAIR_ONLY)},
    "hermitian": {_COMPLEX_HERM: (_HERM_SHORT, _HERM_SHORT, HermOdd, HermEven)},
    "pn_chain": {_COMPLEX_HERM: _CONE_ROUTE, (SpaceKind.SYMMETRIC, Field.REAL): _SYM_ROUTE},
    "symmetric": {(SpaceKind.SYMMETRIC, fd): _SYM_ROUTE for fd in Field},
    "diag_pair": {(SpaceKind.DIAGONAL, fd): (_DIAG_PAIR_ONLY, DiagPair, _DIAG_PAIR_ONLY, _DIAG_PAIR_ONLY) for fd in Field},
    "diag_chain": {(SpaceKind.DIAGONAL, fd): (_DIAG_SHORT, _DIAG_SHORT, DiagChain, DiagChain) for fd in Field},
}


def test_named_routes_cover_every_decompose_family():
    assert set(_NAMED_ROUTES) == set(_NAMED_KINDS) == set(_DECOMPOSE._DECOMPOSERS)


@pytest.mark.parametrize("kind, fd", list(_AUTO_ROUTES), ids=lambda v: v.value)
@pytest.mark.parametrize("family", sorted(_NAMED_ROUTES))
def test_named_family_routes_identity_maps_by_span_field_and_length(family, kind, fd):
    space = SpaceTag(kind, fd, 2)
    span = span_of(space)
    routes = _NAMED_ROUTES[family].get((span.kind, span.field), [_span_refusal(family, span)] * 4)
    for m, expected in enumerate(routes, 1):
        _assert_route([identity_map(space)] * m, family, expected)


def test_every_form_a_family_returns_has_one_recovery():
    served = {form for spec in _DECOMPOSE._DECOMPOSERS.values() for form in spec.forms}
    assert set(_DECOMPOSE._RECOVER) == served


_CONE = SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 2)
# each function that takes a tuple of maps, called on the tuple `maps`
_MAP_READERS = {
    "decompose": decompose,
    **{f"decompose_{name}": getattr(traceprod, f"decompose_{name}") for name in sorted(_DECOMPOSE._DECOMPOSERS)},
    "check_preservation": lambda maps: check_preservation(maps, trials=8),
    "verify_weighted": lambda maps: verify_weighted(maps, (1.0, 1.0), (1.0, 1.0), trials=8),
    "weighted_reduction": lambda maps: weighted_reduction(maps, (1.0, 1.0), (1.0, 1.0)),
}
# a tuple of identity maps that each of them takes: a pair on the complex cone unless named here
_READER_TUPLES = {
    "decompose_mn_chain": [identity_map(C2)] * 3,
    "decompose_hermitian": [identity_map(_CONE)] * 3,
    "decompose_symmetric": [identity_map(SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 2))] * 2,
    "decompose_diag_pair": [identity_map(SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 2))] * 2,
    "decompose_diag_chain": [identity_map(SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 2))] * 3,
}


@pytest.mark.parametrize("name", sorted(_MAP_READERS))
def test_every_map_reader_takes_an_iterator_and_refuses_a_non_iterable(name):
    # decompose and its families called len() on an iterator, and all four
    # functions raised a bare TypeError on a number
    call = _MAP_READERS[name]
    maps = _READER_TUPLES.get(name, [identity_map(_CONE)] * 2)
    listed, streamed = call(list(maps)), call(iter(maps))
    assert type(streamed) is type(listed)
    if isinstance(listed, DecompositionResult):
        assert type(streamed.form) is type(listed.form) and streamed.diagnostics == listed.diagnostics
    with pytest.raises(InvalidParameterError, match="^maps must be an iterable of maps, got int$"):
        call(5)


@pytest.mark.parametrize("name", ["verify_weighted", "weighted_reduction"])
def test_weighted_readers_check_their_maps_before_their_weights(name):
    # the tuple-of-maps rule reads the maps first, as in decompose and
    # check_preservation; the weights' length error came first before
    call = {"verify_weighted": verify_weighted, "weighted_reduction": weighted_reduction}[name]
    with pytest.raises(InvalidParameterError, match=r"^maps\[1\] is not a LinMap or PowerMap$"):
        call([identity_map(_CONE), "x"], (1.0,), (1.0,))
    with pytest.raises(InvalidParameterError, match="^need at least one map$"):
        call([], (1.0,), (1.0,))


# the generator families that no decompose family serves, and what "auto"
# raises on them: full-space pairs break mn_chain's length rule, and the
# non-extendable triple's maps are not endomorphisms of one space
_UNSERVED = {
    "hadamard": NotApplicableError,
    "rank_one_frame": NotApplicableError,
    "nonextendable": DimensionMismatchError,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_auto_returns_the_generated_form_class(family):
    served = {form for spec in _DECOMPOSE._DECOMPOSERS.values() for form in spec.forms}
    cases = 0
    for fd in Field:
        for m in range(1, 6):
            try:
                gen = generate(GenSpec(family=family, n=3, m=m, field=fd, seed=0))
            except InvalidParameterError:
                continue
            cases += 1
            assert (type(gen.form) in served) is (family not in _UNSERVED)
            if family in _UNSERVED:
                with pytest.raises(_UNSERVED[family]):
                    decompose(gen.maps)
            else:
                assert type(decompose(gen.maps).form) is type(gen.form)
    assert cases > 0


def _count_prechecks(monkeypatch) -> list:
    """Route decompose's precheck through a counter; returns its list of reports."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(check_preservation(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(_DECOMPOSE, "check_preservation", counted)
    return calls


def _no_precheck(*args, **kwargs):
    raise AssertionError("a certified tuple must not run the precheck")


@pytest.mark.parametrize(
    "family, gen_family, field, n, m, seed",
    [(family, gen, field, 3, m, 1) for family, (gen, field, m, _, _) in sorted(_FAMILY_CASES.items())]
    + [("auto", "sym_even", Field.REAL, 24, 6, 0)],
)
def test_decompose_certifies_clean_tuples_without_precheck(monkeypatch, family, gen_family, field, n, m, seed):
    # sym_even real n = 24, m = 6 is the worst rebuild known: about 2e-11
    maps = generate(GenSpec(family=gen_family, n=n, m=m, field=field, seed=seed)).maps
    monkeypatch.setattr(_DECOMPOSE, "check_preservation", _no_precheck)
    diagnostics = decompose(maps, family=family).diagnostics
    assert diagnostics["precheck_ran"] is False and "max_residual" not in diagnostics
    assert diagnostics["rebuild_delta"] <= CERTIFY_TOL
    assert diagnostics["invariant_deviation"] <= CERTIFY_TOL


def test_decompose_certifies_valid_tuple_the_precheck_fails():
    # Generated and so valid, but the 512-trial precheck reads 1.92e-6 here,
    # above PRECHECK_TOL, from rounding the chain amplifies. Its rebuild
    # misses by 2.2e-11, so the certificate decides and the precheck never runs.
    gen = generate(GenSpec(family="sym_even", n=24, m=8, field=Field.REAL, seed=0))
    res = decompose(gen.maps)
    assert isinstance(res.form, SymEven) and res.diagnostics["precheck_ran"] is False


def _recovery_reproducers() -> dict:
    """Tuples that `from_canonical` realises from parameters it accepts,
    whose f_i(I) the recoveries used to judge: its condition number is the
    square (HermEven, SymEven: f_1(I) = M*M with cond M = k) or the product
    (MnChain: f_2(I) = N_2 N_3^{-1}, 1e8) of the parameters', and pn_pair's
    f_1(I) = s^2 I fell below an absolute eigenvalue floor of 1e-12. At
    k = 1e3, cond f_1(I) is 1e6 up to rounding; seed 5 draws a Q and an O
    that put it above COND_LIMIT."""
    rng = np.random.default_rng(5)
    Q, O, U = haar_unitary(rng, 4), haar_orthogonal(rng, 4), haar_unitary(rng, 3)
    cases = {"mn_chain": (MnChain((np.eye(3), np.diag([1, 1, 1e4]), np.diag([1e4, 1, 1]))), C3)}
    for k in (1e3, 2e3, 1e4, 1e5):
        D = np.diag([1, 1, 1, k])
        cases[f"herm_even-{k:g}"] = (HermEven(Q @ D, (1.0,) * 4), SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 4))
        cases[f"sym_even-{k:g}"] = (SymEven(O @ D, (1.0,) * 4), SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 4))
    for s in (1e-6, 1e-7, 1e-8):
        cases[f"pn_pair-{s:g}"] = (PnPair(s * U, False), SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3))
    return cases


_RECOVERY_REPRODUCERS = _recovery_reproducers()


@pytest.mark.parametrize("form, space", _RECOVERY_REPRODUCERS.values(), ids=list(_RECOVERY_REPRODUCERS))
def test_recoveries_refuse_nothing_from_canonical_accepts(monkeypatch, form, space):
    # each recovery refused these as "f_i(I) is singular or has condition
    # number above 1e+06" or "f_1(I) is not positive definite"; the rebuild,
    # which judges the parameters themselves, certifies every one
    maps = from_canonical(form, space)
    monkeypatch.setattr(_DECOMPOSE, "check_preservation", _no_precheck)
    result = decompose(maps)
    assert type(result.form) is type(form)
    assert result.diagnostics["precheck_ran"] is False
    assert result.diagnostics["rebuild_delta"] <= CERTIFY_TOL


@pytest.mark.parametrize("gen_family, slot", [("mn_chain", 1), ("herm_odd", 0)], ids=["mn_chain-f_2", "herm_odd-f_1"])
def test_exactly_singular_f_at_identity_breaks_the_identity_not_the_program(gen_family, slot):
    # f(A) = P A P with P = diag(1, 1, 0) in the slot the recovery inverts at
    # the identity: numpy's inv raises LinAlgError there, the precheck runs
    # first, and the tuple breaks the identity
    maps = list(generate(GenSpec(family=gen_family, n=3, m=3, seed=1)).maps)
    space = maps[0].domain
    P = np.diag([1.0, 1.0, 0.0])
    maps[slot] = linmap_from_images(space, space, [P @ B @ P for B in space_basis(space).elements])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(apply(maps[slot], np.eye(3)))
    with pytest.raises(PreservationError):
        decompose(maps)


@pytest.mark.parametrize(
    "gen_family, field, n, m",
    [
        ("mn_chain", Field.COMPLEX, 16, 3),
        ("sym_even", Field.REAL, 16, 4),
        ("herm_odd", Field.COMPLEX, 16, 3),
        ("herm_even", Field.COMPLEX, 16, 4),
        ("sym_odd", Field.REAL, 16, 3),
        ("pn_pair", Field.COMPLEX, 16, 2),
    ],
)
def test_decompose_perturbed_tuple_falls_back_to_one_precheck(monkeypatch, gen_family, field, n, m):
    # each recovers a form, whose rebuild misses by 1e-6 (mn_chain) to 3e-3
    # (herm_even); the one precheck then refuses the tuple
    maps = move_first_transfer(generate(GenSpec(family=gen_family, n=n, m=m, field=field, seed=0)).maps, 1e-6)
    calls = _count_prechecks(monkeypatch)
    with pytest.raises(PreservationError):
        decompose(maps)
    assert len(calls) == 1 and not calls[0].passed


_LINMAPS = importlib.import_module("traceprod.linmaps")


@pytest.mark.parametrize(
    "gen_family, field, m, extra",
    [
        ("mn_chain", Field.COMPLEX, 3, 0),
        ("herm_odd", Field.COMPLEX, 3, 0),
        ("herm_even", Field.COMPLEX, 4, 0),
        # no tuple length adds reads of its own, length 3 included
        ("sym_odd", Field.REAL, 3, 0),
        ("sym_odd", Field.REAL, 5, 0),
        ("sym_even", Field.REAL, 4, 0),
        # pn_pair also reads the skew basis element of its branch test
        ("pn_pair", Field.COMPLEX, 2, 1),
    ],
)
def test_decompose_reads_one_unit_column_and_checks_only_in_the_rebuild(monkeypatch, gen_family, field, m, extra):
    n = 6
    maps = generate(GenSpec(family=gen_family, n=n, m=m, field=field, seed=0)).maps
    rebuilding, congruences, rows, herm_changes = [], [], [], []
    rebuild, congruence_transfer, reassemble, herm_change = (
        _DECOMPOSE._rebuild, _LINMAPS._congruence_transfer, _LINMAPS._reassemble, _LINMAPS._herm_change
    )

    def rebuild_spy(*args, **kwargs):
        rebuilding.append(True)
        try:
            return rebuild(*args, **kwargs)
        finally:
            rebuilding.pop()

    def congruence_spy(*args, **kwargs):
        congruences.append(bool(rebuilding))
        return congruence_transfer(*args, **kwargs)

    def reassemble_spy(space, x, dtype):
        rows.append(len(x))
        return reassemble(space, x, dtype)

    def herm_change_spy(n):
        herm_changes.append(n)
        return herm_change(n)

    monkeypatch.setattr(_DECOMPOSE, "_rebuild", rebuild_spy)
    for module in (_DECOMPOSE, _LINMAPS):
        monkeypatch.setattr(module, "_congruence_transfer", congruence_spy)
    for module in ("spaces", "linmaps", "extend"):  # every caller of the reassembly kernel
        monkeypatch.setattr(importlib.import_module(f"traceprod.{module}"), "_reassemble", reassemble_spy)
    for module in ("linmaps", "extend"):  # every holder of the Hermitian change of coordinates
        monkeypatch.setattr(importlib.import_module(f"traceprod.{module}"), "_herm_change", herm_change_spy)
    assert decompose(maps).diagnostics["precheck_ran"] is False
    # a Hermitian span is read in its own coordinates, never through complexify
    assert herm_changes == []
    assert congruences and all(congruences)
    # at most one image of I per map, and the n images of one unit column
    assert sum(rows) <= m + n + extra


def _off_unitary_tuple():
    """A HermOdd form whose U is off unitary by 2e-9, and its maps."""
    U = generate(GenSpec(family="herm_odd", n=4, m=3, seed=3)).form.U
    form = HermOdd(U * (1 + 1e-9), (2.0, 0.5, 1.0))
    return form, from_canonical(form, SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 4))


def test_decompose_rebuild_beyond_certify_tol_runs_precheck(monkeypatch):
    # the recovered scalars absorb (1 + 1e-9)^2 each, and forcing their
    # product to 1 misses f_3's rebuild by about 6e-9
    _, maps = _off_unitary_tuple()
    calls = _count_prechecks(monkeypatch)
    res = decompose(maps)
    assert isinstance(res.form, HermOdd) and len(calls) == 1
    assert res.diagnostics["rebuild_delta"] > CERTIFY_TOL
    assert res.diagnostics["precheck_ran"] is True
    assert res.diagnostics["max_residual"] == calls[0].max_residual <= PRECHECK_TOL


def test_decompose_form_off_its_invariants_runs_precheck(monkeypatch):
    # a recovery returning the very form the maps came from rebuilds them
    # exactly, but that U is not unitary, so the rebuild certifies nothing
    form, maps = _off_unitary_tuple()
    monkeypatch.setitem(_DECOMPOSE._RECOVER, HermOdd, lambda cls, maps, dom: (form, "given"))
    calls = _count_prechecks(monkeypatch)
    res = decompose(maps)
    assert res.diagnostics["rebuild_delta"] == 0.0
    assert res.diagnostics["invariant_deviation"] == pytest.approx(2e-9, rel=1e-3)
    assert res.diagnostics["precheck_ran"] is True and len(calls) == 1


def _recovered(maps):
    """The form that decompose, with family "auto", recovers from `maps`."""
    dom, m = maps[0].domain, len(maps)
    cls = _first_admitting(_DECOMPOSE._DECOMPOSERS[_DECOMPOSE._resolve(dom, m)].forms, m, dom.field)
    return _DECOMPOSE._RECOVER[cls](cls, maps, dom)[0]


def _blocks_before_precheck(monkeypatch) -> tuple[list, list]:
    """Count decompose's rebuild blocks, and record at each precheck how many
    had been read and whether the check passed."""
    blocks, prechecks = [], []
    block_miss = _DECOMPOSE._block_miss

    def counted_block(*args):
        blocks.append(True)
        return block_miss(*args)

    def counted_check(*args, **kwargs):
        report = check_preservation(*args, **kwargs)
        prechecks.append((len(blocks), report.passed))
        return report

    monkeypatch.setattr(_DECOMPOSE, "_block_miss", counted_block)
    monkeypatch.setattr(_DECOMPOSE, "check_preservation", counted_check)
    return blocks, prechecks


@pytest.mark.parametrize(
    "gen_family, m, before, full",
    [("mn_chain", 3, 1, 6), ("herm_even", 4, 2, 8), ("pn_pair", 2, 1, 4)],
)
def test_perturbed_tuple_runs_precheck_at_the_first_block_beyond_certify_tol(monkeypatch, gen_family, m, before, full):
    # n = 16 spans two blocks a side. A 1e-6 move of map 0 misses by far
    # more than CERTIFY_TOL in its first block, where the one precheck runs
    # and refuses the tuple; the rest of the rebuild (`full` blocks in all,
    # each map's block of each side) is never realised
    maps = move_first_transfer(generate(GenSpec(family=gen_family, n=16, m=m, seed=0)).maps, 1e-6)
    blocks, prechecks = _blocks_before_precheck(monkeypatch)
    with pytest.raises(PreservationError):
        decompose(maps)
    assert prechecks == [(before, False)] and len(blocks) == before
    blocks.clear()
    _DECOMPOSE._rebuild(_recovered(maps), maps[0].domain, maps)
    assert len(blocks) == full


_MOVED_ERRORS = {("diag_chain", 2, 2): CanonicalStructureError}


@pytest.mark.parametrize("rel", [1e-10, 1e-6])
@pytest.mark.parametrize("last", [False, True], ids=["first-map", "last-map"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "gen_family, field, m",
    [
        ("mn_chain", Field.COMPLEX, 3),
        ("herm_odd", Field.COMPLEX, 3),
        ("herm_even", Field.COMPLEX, 4),
        ("pn_pair", Field.COMPLEX, 2),
        ("pn_chain", Field.REAL, 3),
        ("sym_odd", Field.REAL, 3),
        ("sym_even", Field.REAL, 4),
        ("sym_even", Field.COMPLEX, 4),
        ("diag_pair", Field.REAL, 2),
        ("diag_chain", Field.COMPLEX, 3),
    ],
    ids=lambda v: getattr(v, "value", v),
)
def test_moved_small_tuple_runs_the_one_precheck_its_full_rebuild_calls_for(monkeypatch, gen_family, field, m, n, last, rel):
    # a 1e-10 move sits at CERTIFY_TOL, and some of these tuples still certify.
    # The precheck runs exactly when the full rebuild (`_rebuild` without a
    # callback) or the invariants miss CERTIFY_TOL, and runs once
    i = m - 1 if last else 0
    maps = list(generate(GenSpec(family=gen_family, n=n, m=m, field=field, seed=0)).maps)
    maps[i] = move_first_transfer([maps[i]], rel)[0]
    form = _recovered(maps)
    delta, _ = _DECOMPOSE._rebuild(form, maps[0].domain, maps)
    deviation = max([0.0, *(dev for _, dev, _ in form.invariants())])
    certified = delta <= CERTIFY_TOL and deviation <= CERTIFY_TOL
    calls = _count_prechecks(monkeypatch)
    if rel == 1e-10:
        res = decompose(maps)
        assert res.diagnostics["precheck_ran"] is (not certified) and len(calls) == (not certified)
        assert res.diagnostics["rebuild_delta"] == delta
    else:
        error = _MOVED_ERRORS.get((gen_family, n, i), PreservationError)
        with pytest.raises(error):
            decompose(maps)
        assert not certified and len(calls) == 1 and calls[0].passed is (error is CanonicalStructureError)


def test_precheck_that_passes_inside_the_rebuild_lets_it_finish(monkeypatch):
    # f_2 of a diag_pair with one entry moved by 1e-6 is no longer f_1's
    # partner, yet the identity check at this size passes: the rebuild runs
    # on to its end, and the tol gate reads the full miss
    maps = list(generate(GenSpec(family="diag_pair", n=4, m=2, seed=0)).maps)
    moved = maps[1].transfer.copy()
    moved[0, 0] += 1e-6
    maps[1] = LinMap(maps[1].domain, maps[1].codomain, moved)
    delta, worst = _DECOMPOSE._rebuild(_recovered(maps), maps[0].domain, maps)
    blocks, prechecks = _blocks_before_precheck(monkeypatch)
    with pytest.raises(CanonicalStructureError, match=f"rebuilds the maps only to {worst:.3g}, above tol 1e-07"):
        decompose(maps)
    assert f"{worst:.3g}" == "4.08e-07" and delta > CERTIFY_TOL
    # the one check ran inside the rebuild, at f_2's block, and passed
    assert prechecks == [(2, True)] and len(blocks) == 2


def test_rebuild_delta_after_an_early_precheck_is_the_full_rebuilds(monkeypatch):
    # one-row-group blocks split the one side into four: the check passes at
    # the first, and the rebuild reads the other three before it reports
    monkeypatch.setattr(_LINMAPS, "_BLOCK_ENTRIES", 1)
    _, maps = _off_unitary_tuple()
    full_delta, full_worst = _DECOMPOSE._rebuild(_recovered(maps), maps[0].domain, maps)
    blocks, prechecks = _blocks_before_precheck(monkeypatch)
    res = decompose(maps)
    assert prechecks == [(3, True)] and len(blocks) == 12
    assert res.diagnostics["rebuild_delta"] == full_delta > CERTIFY_TOL
    assert res.reconstruction_residual == full_worst


def test_invariant_deviation_of_each_invariant():
    def deviation(form):
        return max((dev for _, dev, _ in form.invariants()), default=0.0)

    U = generate(GenSpec(family="herm_odd", n=4, m=3, seed=3)).form.U
    O = generate(GenSpec(family="sym_odd", n=4, m=3, field=Field.REAL, seed=3)).form.O
    assert deviation(HermOdd(U, (2.0, 0.5, 1.0))) <= 1e-14
    assert deviation(HermOdd(U, (2.0, 0.5, 1.0 + 1e-9))) == pytest.approx(1e-9, rel=1e-6)
    assert deviation(SymOdd(O, (1.0, 1.0, 1.0))) <= 1e-14
    assert deviation(SymOdd(O * (1 + 1e-9), (1.0, 1.0, 1.0))) == pytest.approx(2e-9, rel=1e-3)
    assert deviation(SymEven(np.eye(2), (2.0, 0.5 * (1 + 1e-9)))) == pytest.approx(1e-9, rel=1e-6)
    C = (np.diag([2.0, 3.0]), np.diag([0.5, 1 / 3 + 1e-9]))
    assert deviation(DiagChain(np.eye(2), C)) == pytest.approx(3e-9, rel=1e-6)
    assert deviation(MnChain((np.eye(2), 2 * np.eye(2), np.eye(2)))) == 0.0


def test_decompose_overflowing_tuple_warns_nothing():
    # recovery runs before the precheck rejects this tuple; neither may
    # print numpy's RuntimeWarnings
    gen = generate(GenSpec(family="mn_chain", n=2, m=3, seed=0))
    maps = [LinMap(f.domain, f.codomain, 1e200 * f.transfer) for f in gen.maps]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PreservationError):
            decompose(maps)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_decomposition_result_diagnostics_default_to_empty():
    res = DecompositionResult(MnChain((np.eye(2),) * 3), 0.0, "note")
    assert res.diagnostics == {}


@pytest.mark.parametrize("gen_family", ["mn_chain", "sym_odd"])
def test_decompose_pn_chain_checks_the_cone_span_over_the_maps_field(gen_family):
    # over C the cone spans only the Hermitian matrices, and the one refusal names the field
    maps = generate(GenSpec(family=gen_family, n=3, m=3, field=Field.COMPLEX, seed=0)).maps
    kind = span_of(maps[0].domain).kind.value
    with pytest.raises(InvalidParameterError) as err:
        decompose_pn_chain(maps)
    assert str(err.value) == f"maps act on {kind}, expected one of ['Hermitian'] over the complex field"


_OFF_CONE = [(SpaceKind.SYMMETRIC, Field.COMPLEX), *((kind, fd) for kind in (SpaceKind.FULL, SpaceKind.DIAGONAL) for fd in Field)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pn_chain_refuses_off_cone_spans_by_field_at_every_length(m):
    # complex symmetric maps at m = 1 were a NotApplicableError, and at m >= 2
    # a refusal by the admitting form's span that named no field
    for kind, fd in _OFF_CONE:
        with pytest.raises(InvalidParameterError, match=f", expected one of .* over the {fd.value} field$"):
            decompose_pn_chain([identity_map(SpaceTag(kind, fd, 2))] * m)
    _assert_route([identity_map(SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 2))] * m, "pn_chain", _SYM_ROUTE[m - 1])
    _assert_route([identity_map(_CONE)] * m, "pn_chain", _CONE_ROUTE[m - 1])


def test_every_form_a_family_returns_acts_on_the_family_span():
    # why decompose checks the span once, before the length
    for family, spec in _DECOMPOSE._DECOMPOSERS.items():
        for fd in Field:
            for m in range(1, 9):
                cls = _first_admitting(spec.forms, m, fd)
                assert cls is None or spec.spans(fd) <= cls.kinds, (family, fd, m)


def test_decompose_pn_chain_needs_positive_scalars():
    U = generate(GenSpec(family="herm_odd", n=3, m=3, seed=2)).form.U
    maps = from_canonical(HermOdd(U, (-1.0, -1.0, 1.0)), SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3))
    assert isinstance(decompose(maps, family="hermitian").form, HermOdd)
    with pytest.raises(CanonicalStructureError, match="must be positive to preserve the definite cone"):
        decompose_pn_chain(maps)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_pn_chain_scalars_come_out_exactly_real(field, seed):
    # every route of pn_chain realises its scalars, so the positivity test
    # needs no threshold on their imaginary parts; a pair carries none
    for n in (2, 3, 5):
        for m in range(2, 6):
            form = decompose_pn_chain(generate(GenSpec(family="pn_chain", n=n, m=m, field=field, seed=seed)).maps).form
            if isinstance(form, PnPair):
                continue
            assert all(complex(x).imag == 0 for x in form.c), (n, m, form.c)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_diag_chain_recovery_matches_loop_reference(field):
    # the recovery reads the pattern and the product with array ops; the
    # reference reads them entry by entry and multiplies diagonal matrices
    gen = generate(GenSpec(family="diag_chain", n=8, m=4, field=field, seed=2))
    form = decompose_diag_chain(gen.maps).form
    n = 8
    transfers = [np.asarray(f.transfer) for f in gen.maps]
    sigma = [int(np.argmax(np.abs(transfers[0][:, i]))) for i in range(n)]
    P = np.zeros((n, n))
    Cs = [np.zeros((n, n), dtype=np.complex128) for _ in transfers]
    for i in range(n):
        P[i, sigma[i]] = 1.0
        for C, T in zip(Cs, transfers):
            C[sigma[i], sigma[i]] = T[sigma[i], i]
    last = np.eye(n, dtype=np.complex128)
    for C in Cs[:-1]:
        last = last @ C
    Cs[-1] = np.diag(1.0 / np.diag(last))
    np.testing.assert_array_equal(form.P, P)
    for got, want in zip(form.C, Cs):
        np.testing.assert_allclose(got, want, rtol=8 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize(
    "family, field",
    [("herm_odd", Field.COMPLEX), ("pn_chain", Field.COMPLEX), ("sym_odd", Field.REAL)],
)
@pytest.mark.parametrize("seed", range(4))
def test_n2_gauge_is_stable_under_rounding(family, field, seed):
    # every 2 x 2 unitary or orthogonal matrix has two entries of equal
    # magnitude; picking the largest one by argmax let rounding choose the
    # gauge, and ulp-level nudges of the transfers moved U or O by up to 2
    gen = generate(GenSpec(family=family, n=2, m=3, field=field, seed=seed))
    name = "U" if isinstance(gen.form, HermOdd) else "O"
    base = getattr(decompose(gen.maps).form, name)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        nudged = [
            LinMap(f.domain, f.codomain, f.transfer * (1 + 4e-16 * rng.standard_normal(f.transfer.shape)))
            for f in gen.maps
        ]
        got = getattr(decompose(nudged).form, name)
        assert np.linalg.norm(got - base) <= 1e-13 * np.linalg.norm(base)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_decompose_rejects_negative_or_non_finite_tol(tol):
    # -1 used to fail the rebuild gate, nan the conjugator and inf skipped the gate
    maps = generate(GenSpec(family="mn_chain", n=2, m=3, seed=0)).maps
    with pytest.raises(InvalidParameterError, match="tol must be finite and nonnegative"):
        decompose(maps, tol=tol)


def test_herm_power():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = G @ G.conj().T + 0.3 * np.eye(3)
    assert np.allclose(herm_power(A, 0.5) @ herm_power(A, 0.5), A)
    assert np.allclose(herm_power(A, -1.0), np.linalg.inv(A))
    assert np.allclose(herm_power(A, 2.0), A @ A)
    assert np.allclose(herm_power(A, 1.0), A)
    with pytest.raises(PositivityError):
        herm_power(np.diag([1.0, -1.0, 2.0]).astype(complex), 0.5)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_herm_power_refuses_a_power_that_is_not_finite(t):
    # a NaN power returned a NaN matrix, and an infinite one NaN with a numpy RuntimeWarning
    with pytest.raises(InvalidParameterError, match="power t must be finite"):
        herm_power(2.0 * np.eye(2), t)


@pytest.mark.parametrize("t", ["2", True, None, 2j])
def test_herm_power_refuses_a_power_that_is_not_a_real_number(t):
    # "2" passed the check and then failed `t >= 2` with a bare TypeError
    with pytest.raises(InvalidParameterError, match="power t must be a real number"):
        herm_power(2.0 * np.eye(2), t)


def test_herm_power_one_returns_a_copy():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    B = herm_power(A, 1.0)
    B[0, 0] = 7.0
    assert np.array_equal(A, np.diag([1.0, 2.0, 3.0]))


def _definite_stack(n: int, seed: int, count: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return G @ np.conj(np.swapaxes(G, -1, -2)) + 0.1 * np.eye(n)


def _eigh_power(stack: np.ndarray, t: float) -> np.ndarray:
    w, V = np.linalg.eigh(stack)
    return (V * (w**t)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def _counted_eigh(monkeypatch) -> list:
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
    return calls


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("t", [2.0, 3.0])
def test_an_integer_power_takes_products_and_no_eigendecomposition(monkeypatch, t, n):
    stack = _definite_stack(n, seed=70 + n)
    want = _eigh_power(stack, t)
    calls = _counted_eigh(monkeypatch)
    got = _WEIGHTED._herm_power_batch(stack, t)
    assert calls == []
    # in ulps of the largest entry: the eigendecomposition's own error grows
    # with n (up to 36 at n = 8 over 20 seeds), the products' stays within 2
    # of the products taken in extended precision
    ulp = np.spacing(np.abs(want).max())
    assert np.abs(got - want).max() <= 8 * n * ulp
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        wide = stack.astype(np.clongdouble)
        exact = functools.reduce(lambda X, Y: np.einsum("kij,kjl->kil", X, Y), [wide] * int(t))
        assert np.abs(got - exact).max() <= 2 * ulp


@pytest.mark.parametrize("t", [2.0, 3.0])
@pytest.mark.parametrize("low", [-2.5, "floor"])
def test_an_integer_power_refuses_as_the_eigenvalues_did(t, low):
    # one matrix of the stack indefinite, or with its smallest eigenvalue at
    # the floor itself; the message names the stack's smallest eigenvalue
    low = _WEIGHTED.POWER_FLOOR if low == "floor" else low
    stack = _definite_stack(3, seed=7)
    stack[2] = np.diag([low, 1.0, 2.0])
    message = f"matrix power {t} needs positive definite inputs (min eig {np.linalg.eigh(stack)[0].min():.3g})"
    with pytest.raises(PositivityError) as info:
        _WEIGHTED._herm_power_batch(stack, t)
    assert str(info.value) == message


@pytest.mark.parametrize("t", [2.5, 0.5, -1.0, -2.0])
def test_other_powers_still_take_one_eigendecomposition(monkeypatch, t):
    stack = _definite_stack(4, seed=9)
    want = _eigh_power(stack, t)
    calls = _counted_eigh(monkeypatch)
    got = _WEIGHTED._herm_power_batch(stack, t)
    assert calls == [stack.shape]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("t", [2.5, 0.5, -1.0, 2.0])
def test_a_non_finite_matrix_has_a_nan_power_and_leaves_the_others_alone(monkeypatch, t):
    # numpy's eigh does not converge on a matrix with an infinite entry; the
    # stack's other matrices get the bits they get alone
    stack = _definite_stack(3, seed=12)
    stack[1, 0, 0] = np.inf
    stack[3, 2, 1] = np.nan
    alone = [_WEIGHTED._herm_power_batch(stack[i : i + 1], t)[0] for i in (0, 2, 4)]
    factored = []
    for name in ("eigh", "cholesky"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda A, real=real: factored.append(A) or real(A))
    got = _WEIGHTED._herm_power_batch(stack, t)
    assert factored and all(np.isfinite(A).all() for A in factored)
    assert np.isnan(got[[1, 3]]).all()
    assert all(np.array_equal(got[i], want) for i, want in zip((0, 2, 4), alone))


def test_verify_weighted_reads_a_non_finite_image_as_an_infinite_residual():
    gen = generate(GenSpec(family="pn_chain", n=3, m=3, seed=0))
    maps = [LinMap(gen.maps[0].domain, gen.maps[0].codomain, 1.7e308 * gen.maps[0].transfer), *gen.maps[1:]]
    report = verify_weighted(maps, alpha=[2.5, 2, 2], beta=[1, 1, 1], trials=20)
    assert not report.passed and report.max_residual == np.inf


def test_power_map_apply():
    gen = generate(GenSpec(family="pn_chain", n=3, m=3, seed=12))
    base = gen.maps[0]
    pm = PowerMap(core=base, pre=2.0, post=1.0, scale=3.0)
    rng = np.random.default_rng(13)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = G @ G.conj().T + 0.2 * np.eye(3)
    want = 3.0 * apply(base, herm_power(A, 2.0))
    assert np.allclose(power_map_apply(pm, A), want)


@pytest.mark.parametrize("core", [None, np.eye(4)], ids=["None", "array"])
def test_power_map_refuses_a_core_that_is_not_a_linmap(core):
    # PowerMap(core=None) was built, and failed later with AttributeError
    with pytest.raises(InvalidParameterError, match="core must be a LinMap"):
        PowerMap(core=core)


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), -float("inf"), "x", None, "2", True, np.complex128(2),
     pytest.param(10**400, id="huge-int")],
)
@pytest.mark.parametrize("name", ["pre", "post", "scale"])
def test_power_map_refuses_parameters_that_are_not_finite_reals(name, bad):
    # post = NaN or scale = NaN made power_map_apply return an all-NaN matrix;
    # "2" and True were read as 2.0 and 1.0, a numpy complex lost its
    # imaginary part with only a ComplexWarning, and an int beyond double
    # range escaped as a bare OverflowError
    with pytest.raises(InvalidParameterError, match=f"{name} must be"):
        PowerMap(identity_map(_HERM2), **{name: bad})


def test_power_map_holds_its_parameters_as_floats():
    pm = PowerMap(identity_map(_HERM2), pre=2, post=np.float32(0.5), scale=-1)
    assert [type(x) for x in (pm.pre, pm.post, pm.scale)] == [float] * 3
    assert (pm.pre, pm.post, pm.scale) == (2.0, 0.5, -1.0)


@pytest.mark.parametrize("scale", [-2.0, 0.0])
def test_weighted_power_of_non_positive_scale_raises(scale):
    # a scale <= 0 leaves the cone, so no power other than 0 and 1 is defined
    gen = generate(GenSpec(family="pn_chain", n=3, m=2, seed=12))
    pm = PowerMap(core=gen.maps[0], pre=2.0, post=0.5, scale=scale)
    with pytest.raises(PositivityError):
        verify_weighted([pm, gen.maps[1]], (2.0, 1.0), (1.0, 1.0), trials=20)


def test_verify_weighted_trivial_weights_reduce_to_plain_check():
    gen = generate(GenSpec(family="pn_chain", n=3, m=3, seed=14))
    report = verify_weighted(list(gen.maps), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), trials=200, seed=0)
    assert report.passed


def test_verify_weighted_control_fails():
    tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)
    ident = [identity_map(tag), identity_map(tag)]
    report = verify_weighted(ident, (1.0, 1.0), (2.0, 2.0), trials=200, seed=0)
    assert not report.passed
    assert report.max_residual >= 1e-2


_HERM2 = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 2)
_HERM3 = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)
_SYM3_REAL = SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 3)


@pytest.mark.parametrize("tags", [(_HERM3, _SYM3_REAL), (_SYM3_REAL, _HERM3)], ids=["complex-first", "real-first"])
def test_verify_weighted_samples_each_slot_from_its_own_cone(tags):
    # every slot drew from the first map's cone: the real symmetric identity
    # took the real parts of complex samples and failed at 1.22
    report = verify_weighted([identity_map(t) for t in tags], (1.0, 1.0), (1.0, 1.0))
    assert report.passed
    assert report.spaces == tuple(SpaceTag(SpaceKind.POSDEF, t.field, 3) for t in tags)


@pytest.mark.parametrize(
    "kind, field",
    [(SpaceKind.DIAGONAL, Field.COMPLEX), (SpaceKind.DIAGONAL, Field.REAL), (SpaceKind.SYMMETRIC, Field.COMPLEX)],
)
def test_verify_weighted_refuses_a_domain_that_does_not_hold_its_cone(kind, field):
    # the complex diagonal identity projected the Hermitian samples and failed at 1.78
    maps = [identity_map(_HERM3), identity_map(SpaceTag(kind, field, 3))]
    with pytest.raises(InvalidParameterError, match="map 1 acts on"):
        verify_weighted(maps, (1.0, 1.0), (1.0, 1.0))


def test_verify_weighted_rejects_zero_trials():
    tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 2)
    with pytest.raises(InvalidParameterError):
        verify_weighted([identity_map(tag)] * 2, (1.0, 1.0), (1.0, 1.0), trials=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_weighted_functions_reject_non_finite_exponents(which, bad):
    # a NaN exponent ran the check and failed it with max residual inf
    gen = generate(GenSpec(family="pn_chain", n=2, m=3, seed=0))
    weights = {"alpha": [2.0, 2.0, 2.0], "beta": [2.0, 2.0, 2.0]}
    weights[which][0] = bad
    calls = [
        lambda: verify_weighted(gen.maps, weights["alpha"], weights["beta"], trials=10),
        lambda: weighted_canonical_maps(gen.form, weights["alpha"], weights["beta"], gen.space),
        lambda: weighted_reduction(gen.maps, weights["alpha"], weights["beta"]),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="alpha and beta must be finite"):
            call()


@pytest.mark.parametrize(
    "which, bad, match",
    [
        *(
            pytest.param(which, bad, "alpha and beta must be real numbers", id=f"{which}-{bad!r}")
            for which in ("alpha", "beta")
            for bad in ("x", None, 1j, "1", True)
        ),
        pytest.param("beta", 1e-320, "beta weights must have finite reciprocals", id="beta-1e-320"),
    ],
)
def test_weighted_functions_refuse_exponents_they_cannot_take(which, bad, match):
    # float()'s bare ValueError ("x") or TypeError (None, 1j) escaped, and "1"
    # and True were read as 1.0; beta =
    # 1e-320 took B^(1/beta) = B^inf, so every tuple read as failing with max
    # residual inf, even where alpha = beta makes both sides equal
    gen = generate(GenSpec(family="pn_chain", n=2, m=3, seed=0))
    weights = {"alpha": [2.0, 2.0, 2.0], "beta": [2.0, 2.0, 2.0]}
    weights[which][0] = bad
    calls = [
        lambda: verify_weighted(gen.maps, weights["alpha"], weights["beta"], trials=10),
        lambda: weighted_canonical_maps(gen.form, weights["alpha"], weights["beta"], gen.space),
        lambda: weighted_reduction(gen.maps, weights["alpha"], weights["beta"]),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match=match):
            call()


@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_weighted_functions_refuse_exponents_that_are_no_sequence(which):
    gen = generate(GenSpec(family="pn_chain", n=2, m=3, seed=0))
    weights = {"alpha": [2.0, 2.0, 2.0], "beta": [2.0, 2.0, 2.0], which: 2.0}
    calls = [
        lambda: verify_weighted(gen.maps, weights["alpha"], weights["beta"], trials=10),
        lambda: weighted_canonical_maps(gen.form, weights["alpha"], weights["beta"], gen.space),
        lambda: weighted_reduction(gen.maps, weights["alpha"], weights["beta"]),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="alpha and beta must be real numbers"):
            call()


@pytest.mark.parametrize(
    "alpha, match",
    [
        # 1.315^(1/1e-4) let Python's bare OverflowError escape
        pytest.param([1e-4, 1, 1], r"c_1\^\(1/alpha_1\) = 1\.315\^\(1/0\.0001\)", id="overflow"),
        # 0.3996^(1/1e-4) was a silent scale of 0.0, refused only later by
        # verify_weighted with PositivityError
        pytest.param([1, 1, 1e-4], r"c_3\^\(1/alpha_3\) = 0\.3996\^\(1/0\.0001\)", id="underflow-to-zero"),
    ],
)
def test_weighted_canonical_maps_refuses_a_scale_out_of_double_range(alpha, match):
    gen = generate(GenSpec(family="pn_chain", n=2, m=3, seed=0))  # HermOdd, c = (1.315, 1.903, 0.3996)
    with pytest.raises(InvalidParameterError, match=match):
        weighted_canonical_maps(gen.form, alpha, [1, 1, 1], gen.space)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: herm_power(np.ones(3), 1.0), DimensionMismatchError,
                     "expected a square matrix, got shape (3,)", id="herm_power-vector"),
        pytest.param(lambda: verify_weighted([identity_map(_HERM2), identity_map(_HERM3)], [1, 1], [1, 1]),
                     DimensionMismatchError, "maps must share one matrix size", id="verify_weighted-sizes"),
        pytest.param(lambda: weighted_canonical_maps(MnChain((np.eye(2),) * 3), [1] * 3, [1] * 3, C2),
                     InvalidParameterError, "weighted maps are built from HermOdd or HermEven forms", id="not-hermitian"),
        pytest.param(lambda: weighted_canonical_maps(HermOdd(np.eye(2), (-1.0, -1.0, 1.0)), [1] * 3, [1] * 3, _HERM2),
                     InvalidParameterError, "scalars must be positive for the weighted family", id="negative-scalars"),
    ],
)
def test_weighted_functions_refuse_what_they_cannot_weigh(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_herm_power_zero_is_the_identity():
    A = np.array([[2.0, 1j], [-1j, 3.0]])
    assert np.array_equal(herm_power(A, 0), np.eye(2))


def test_verify_weighted_of_one_map_compares_single_traces():
    # tr(A^2) = tr(A^2) holds, tr(A^2) = tr(A) does not
    maps = [identity_map(_HERM2)]
    assert verify_weighted(maps, [2.0], [2.0], trials=20).max_residual < 1e-14
    assert not verify_weighted(maps, [2.0], [1.0], trials=20).passed


def test_weighted_canonical_maps_keeps_a_large_scale_within_double_range():
    gen = generate(GenSpec(family="pn_chain", n=2, m=3, seed=0))
    wmaps = weighted_canonical_maps(gen.form, [1e-3, 1, 1], [1, 1, 1], gen.space)
    assert wmaps[0].scale == pytest.approx(1.1754771131705874e119, rel=1e-12)


@pytest.mark.parametrize(
    "alpha,beta",
    [((2.0, 0.5), (1.0, 1.0)), ((-1.0, 1.0), (0.5, 2.0)), ((0.5, 0.5), (-1.0, -1.0)), ((0.5, 2.0), (2.0, -1.0))],
)
def test_weighted_canonical_pairs(alpha, beta):
    rng = np.random.default_rng(15)
    tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    M = U @ np.diag(rng.uniform(0.6, 1.6, 3)).astype(complex)
    form = HermEven(M, (1.8, 1.0 / 1.8))
    wmaps = weighted_canonical_maps(form, alpha, beta, tag)
    report = verify_weighted(wmaps, alpha, beta, trials=300, seed=1, tol=1e-8)
    assert report.passed
    # f_i(A^b)^(1/a) raised to a is f_i(A^b) itself, evaluated with no outer power
    assert report.max_residual <= 1e-13


def test_weighted_herm_odd_takes_one_power():
    # criterion 8's worst HermOdd triple, a = 0.5 and b = 2: held as
    # c^(1/a) (U* A^b U)^(1/a), each factor raised to a is c U* A^b U with one
    # matrix power, so the residual sits with the HermEven grid's 1.1e-14
    # (2.5e-14 measured) where the core used to see A^(b/a) = A^4 (1.1e-11)
    gen = generate(GenSpec(family="pn_chain", n=4, m=3, seed=1063))
    alpha, beta = (0.5,) * 3, (2.0,) * 3
    wmaps = weighted_canonical_maps(gen.form, alpha, beta, gen.space)
    assert [(f.pre, f.post) for f in wmaps] == [(2.0, 2.0)] * 3
    report = verify_weighted(wmaps, alpha, beta, trials=1000, seed=263, tol=1e-8)
    assert report.passed
    assert report.max_residual <= 1e-13


def test_weighted_odd_scaled_conjugations():
    gen = generate(GenSpec(family="pn_chain", n=3, m=3, seed=16))
    alpha = (1.0, 2.0, 0.5)
    beta = (2.0, 1.0, 1.0)
    wmaps = weighted_canonical_maps(gen.form, alpha, beta, gen.space)
    report = verify_weighted(wmaps, alpha, beta, trials=300, seed=2, tol=1e-8)
    assert report.passed


def test_weighted_reduction_produces_linear_preserver():
    gen = generate(GenSpec(family="pn_chain", n=3, m=3, seed=17))
    alpha = (1.0, 2.0, 1.0)
    beta = (2.0, 1.0, 1.0)
    wmaps = weighted_canonical_maps(gen.form, alpha, beta, gen.space)
    lin = weighted_reduction(wmaps, alpha, beta, seed=3)
    assert all(isinstance(f, LinMap) for f in lin)
    assert check_preservation(lin, tol=1e-8).passed


def test_weighted_reduction_identity_weights_is_identity_on_maps():
    gen = generate(GenSpec(family="pn_chain", n=3, m=2, seed=18))
    ones = (1.0, 1.0)
    lin = weighted_reduction(list(gen.maps), ones, ones, seed=4)
    for got, want in zip(lin, gen.maps):
        assert np.max(np.abs(got.transfer - want.transfer)) <= 1e-6


def test_reshuffled_rank_separates_two_sided_from_hadamard():
    gen = generate(GenSpec(family="mn_chain", n=3, m=3, seed=19))
    assert reshuffled_transfer_rank(gen.maps[0]) == 1
    C = np.array([[1.0, 2.0], [2.0, 1.0]])
    had = from_canonical(Hadamard(C), R2)
    assert reshuffled_transfer_rank(had[0]) == np.linalg.matrix_rank(C)
    frame = generate(GenSpec(family="rank_one_frame", n=3, m=2, seed=20))
    assert reshuffled_transfer_rank(frame.maps[0]) > 1


def test_hadamard_triple_fails_with_explicit_witness():
    C = np.array([[1.0, 2.0], [2.0, 1.0]])
    maps = from_canonical(Hadamard(C), R2)
    assert check_preservation(maps, tol=1e-9).passed
    triple = [maps[0], maps[1], identity_map(R2)]
    report = check_preservation(triple, tol=1e-9)
    assert not report.passed
    # hand witness: (E12, E22, E21) gives lhs 2 and rhs 1
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    E22 = np.diag([0.0, 1.0])
    E21 = E12.T
    lhs = np.trace((E12 * C) @ (E22 / C) @ E21)
    rhs = np.trace(E12 @ E22 @ E21)
    assert np.isclose(lhs, 2.0) and np.isclose(rhs, 1.0)
    assert report.max_residual >= 1.0 - 1e-12


def test_rank_one_frame_pair_passes_but_triple_fails():
    gen = generate(GenSpec(family="rank_one_frame", n=3, m=2, seed=21))
    assert check_preservation(gen.maps, tol=1e-9).passed
    triple = [gen.maps[0], gen.maps[1], identity_map(gen.maps[0].domain)]
    report = check_preservation(triple, tol=1e-9)
    assert not report.passed


def test_nonextendable_triple_passes_corner_identity():
    gen = generate(GenSpec(family="nonextendable", n=2, m=3, seed=22))
    report = check_preservation(gen.maps, tol=1e-10)
    assert report.passed
    assert report.trials == 64


def test_nonextendable_best_fit_gap():
    gen = generate(GenSpec(family="nonextendable", n=2, m=3, seed=23))
    assert nonextendable_best_fit_residual(gen.form, trials=16, seed=0) > 1e-3
    # scalar X admits the trivial extension, so the best fit is essentially exact
    assert nonextendable_best_fit_residual(1.7 * np.eye(2, dtype=complex), trials=16, seed=0) < 1e-10


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: herm_power(-np.eye(2), 1.0), id="herm_power-t1"),
        pytest.param(lambda: herm_power(-np.eye(2), 0.0), id="herm_power-t0"),
        pytest.param(lambda: herm_power(-np.eye(2), 0.5), id="herm_power-t0.5"),
        pytest.param(lambda: herm_power(np.diag([1.0, 1e-13]), 1.0), id="herm_power-below-floor"),
        pytest.param(lambda: power_map_apply(identity_map(_HERM2), -np.eye(2)), id="power_map_apply-linmap"),
        pytest.param(
            lambda: power_map_apply(PowerMap(identity_map(_HERM2), pre=2.0), -np.eye(2)), id="power_map_apply-pre2"
        ),
    ],
)
def test_matrix_powers_refuse_an_indefinite_input_at_every_power(call):
    # at t = 1 and t = 0 the power took no eigendecomposition: herm_power
    # returned -I and I, and power_map_apply of a LinMap returned -I
    with pytest.raises(PositivityError, match="input must be positive definite"):
        call()


_NOT_A_LINMAP = r"maps\[0\] is not a LinMap"


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: decompose([1, 2, 3]), _NOT_A_LINMAP, id="decompose-ints"),
        pytest.param(lambda: decompose([PowerMap(identity_map(_HERM2))] * 3), _NOT_A_LINMAP, id="decompose-powermaps"),
        pytest.param(lambda: verify_weighted([1], [1], [1]), _NOT_A_LINMAP + " or PowerMap", id="verify_weighted"),
        pytest.param(lambda: weighted_reduction([], [], []), "need at least one map", id="weighted_reduction-empty"),
        pytest.param(
            lambda: weighted_reduction([1], [1], [1]), _NOT_A_LINMAP + " or PowerMap", id="weighted_reduction-int"
        ),
    ],
)
def test_tuple_functions_refuse_what_is_not_a_map(call, match):
    # decompose and verify_weighted raised AttributeError, and the empty
    # weighted_reduction returned []
    with pytest.raises(InvalidParameterError, match=match):
        call()


@pytest.mark.parametrize("rtol", [float("nan"), -1.0, 0.0, 1.0, 2.0, "0.5", None])
def test_reshuffled_rank_refuses_rtol_outside_the_open_unit_interval(rtol):
    # NaN read rank 0 and -1 read rank 4: no or every singular value counted;
    # a string or None escaped as a bare TypeError
    with pytest.raises(InvalidParameterError, match=r"rtol must lie in the open interval \(0, 1\)"):
        reshuffled_transfer_rank(identity_map(C2), rtol=rtol)


@pytest.mark.parametrize(
    "X, match",
    [(np.full((2, 2), np.nan), "X has non-finite entries"), (np.ones((2, 3)), "X must be a square matrix")],
    ids=["nan", "non-square"],
)
def test_best_fit_residual_refuses_a_bad_bare_matrix(X, match):
    # a NaN X returned a NaN residual
    with pytest.raises(InvalidParameterError, match=match):
        nonextendable_best_fit_residual(X, trials=4)


def test_reshuffled_rank_refuses_a_map_off_the_full_spaces():
    with pytest.raises(InvalidParameterError) as exc:
        reshuffled_transfer_rank(identity_map(_HERM2))
    assert str(exc.value) == "reshuffling needs full-space transfers"


def test_the_zero_map_reshuffles_to_rank_zero():
    assert reshuffled_transfer_rank(LinMap(C2, C2, np.zeros((4, 4)))) == 0


def test_negated_pn_pair_preserves_and_has_no_definite_f1_at_the_identity():
    # (-f_1)(A)(-f_2)(B) = f_1(A) f_2(B), so the pair still preserves the trace;
    # the recovery takes square roots of f_1(I), which is now negative definite
    maps = [LinMap(f.domain, f.codomain, -f.transfer) for f in generate(GenSpec(family="pn_pair", n=3, m=2)).maps]
    assert check_preservation(maps).passed
    with pytest.raises(CanonicalStructureError) as exc:
        decompose(maps)
    assert str(exc.value) == "f_1(I) is not positive definite"


@pytest.mark.parametrize("field", [Field.COMPLEX, Field.REAL])
def test_a_trace_map_as_f1_gives_no_conjugator_column(field):
    # f_1(A) = tr(A) I / n sends every off-diagonal unit to 0, so each column's N
    # is singular; with no conjugator the identity check names the fault
    maps = generate(GenSpec(family="mn_chain", n=3, m=3, field=field)).maps
    dom = maps[0].domain
    trace_map = linmap_from_images(dom, dom, [np.trace(B) * np.eye(3) / 3 for B in space_basis(dom).elements])
    with pytest.raises(PreservationError, match="maps do not satisfy the trace-product identity"):
        decompose([trace_map, *maps[1:]])


def test_decomposition_result_reports_gauge():
    gen = generate(GenSpec(family="mn_chain", n=3, m=3, seed=24))
    res = decompose(gen.maps)
    assert isinstance(res.gauge_note, str) and res.gauge_note


# ---------------------------------------------------------------------------
# the streamed rebuild
# ---------------------------------------------------------------------------


def _dense_rebuild(form, space, maps) -> tuple[float, float]:
    """The reference: the whole rebuilt tuple from `from_canonical`, then
    each miss read off one whole difference."""
    delta, worst = [], []
    for f, g in zip(maps, from_canonical(form, space, tol=1e-5)):
        diff = f.transfer - g.transfer
        delta.append(np.linalg.norm(diff) / np.linalg.norm(f.transfer))
        worst.append(np.max(np.abs(diff)) / max(1.0, np.max(np.abs(f.transfer))))
    return max(delta), max(worst)


def _generates(family, field, n, m) -> bool:
    try:
        GenSpec(family=family, n=n, m=m, field=field, seed=0)
    except InvalidParameterError:
        return False
    return True


# every decompose family and field, at sizes that take one block and two
REBUILD_CASES = [
    (family, field, n, m)
    for family in ("mn_chain", "herm_odd", "herm_even", "pn_pair", "pn_chain", "sym_odd", "sym_even", "diag_pair", "diag_chain")
    for field in Field
    for n in (2, 5, 16)
    for m in (2, 3, 4)
    if _generates(family, field, n, m)
]


@pytest.mark.parametrize("block_entries", [None, 1], ids=["default-blocks", "one-row-group-blocks"])
@pytest.mark.parametrize("family, field, n, m", REBUILD_CASES, ids=lambda v: getattr(v, "value", v))
def test_streamed_rebuild_matches_the_whole_rebuilt_tuple(monkeypatch, family, field, n, m, block_entries):
    gen = generate(GenSpec(family=family, n=n, m=m, field=field, seed=0))
    if block_entries is not None:
        monkeypatch.setattr(_LINMAPS, "_BLOCK_ENTRIES", block_entries)
    for rel in (0.0, 1e-10, 1e-6):
        maps = move_first_transfer(gen.maps, rel) if rel else list(gen.maps)
        delta, worst = _DECOMPOSE._rebuild(gen.form, gen.space, maps)
        want_delta, want_worst = _dense_rebuild(gen.form, gen.space, maps)
        assert abs(delta - want_delta) <= 1e-14 and abs(worst - want_worst) <= 1e-14
        if rel:
            assert delta == pytest.approx(rel, rel=0.5)


def _scaled_sym_even(scale: float):
    """A SymEven form on real symmetric 3 x 3 matrices whose M is `scale`
    times an orthogonal matrix, and the identity tuple it is compared to."""
    tag = SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 3)
    O = generate(GenSpec(family="sym_odd", n=3, m=3, field=Field.REAL, seed=0)).form.O
    return SymEven(scale * O, (1.0, 1.0)), tag, [identity_map(tag), identity_map(tag)]


def test_rebuild_that_overflows_raises_as_from_canonical():
    # M^t A M with |M| = 1e160 overflows to inf: from_canonical refuses the
    # transfer, and the streamed rebuild refuses it with the same error
    form, tag, maps = _scaled_sym_even(1e160)
    with np.errstate(all="ignore"):
        with pytest.raises(InvalidParameterError, match="transfer has non-finite entries"):
            from_canonical(form, tag, tol=1e-5)
        with pytest.raises(InvalidParameterError, match="transfer has non-finite entries"):
            _DECOMPOSE._rebuild(form, tag, maps)


def test_rebuild_whose_difference_overflows_never_certifies(monkeypatch):
    # both transfers are finite, but the input -N minus the rebuilt N
    # overflows: the miss reads inf, so decompose runs the identity check
    tag = SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 3)
    N = 1e308 * np.eye(3)
    form, maps = DiagPair(N), [LinMap(tag, tag, -N), LinMap(tag, tag, np.linalg.inv(N))]
    with np.errstate(all="ignore"):
        delta, worst = _DECOMPOSE._rebuild(form, tag, maps)
    # |F|_F overflows too, and inf / inf is NaN, as np.linalg.norm reads it
    assert np.isnan(delta) and worst == np.inf
    monkeypatch.setitem(_DECOMPOSE._RECOVER, DiagPair, lambda cls, maps, dom: (form, "given"))
    calls = _count_prechecks(monkeypatch)
    with pytest.raises(PreservationError):
        decompose(maps)
    assert len(calls) == 1


def test_rebuild_of_a_nan_difference_never_certifies(monkeypatch):
    # np.max keeps a NaN: a miss that reads NaN is not a miss within any bound
    form, tag, maps = _scaled_sym_even(1.0)
    monkeypatch.setattr(_DECOMPOSE, "_block_miss", lambda F, c, T: (np.nan, np.nan, 1.0, 1.0))
    delta, worst = _DECOMPOSE._rebuild(form, tag, maps)
    assert np.isnan(delta) and np.isnan(worst)


def test_decompose_peak_memory_stays_below_its_input():
    # the rebuild holds no second tuple: the tracemalloc peak of decompose on
    # a 3 x 8 MB input stays below the input's own transfer bytes
    maps = generate(GenSpec(family="mn_chain", n=32, m=3, field=Field.REAL, seed=0)).maps
    decompose(maps)  # warm the basis caches
    tracemalloc.start()
    try:
        res = decompose(maps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.diagnostics["precheck_ran"] is False
    assert peak <= sum(f.transfer.nbytes for f in maps)


def test_verify_weighted_checks_the_reduced_identity_through_weighted_image():
    # the seeded draws stand for B_i = A_i^beta_i: each factor is
    # f_i(B_i^(1/b_i))^a_i and the right side is tr(B_1 ... B_m), bit for bit
    gen = generate(GenSpec(family="pn_chain", n=3, m=3, seed=20))
    maps = [PowerMap(core=gen.maps[0], pre=2.0, post=0.5), gen.maps[1], PowerMap(core=gen.maps[2], scale=1.5)]
    alpha, beta = (1.0, 2.0, 0.5), (3.0, 2.0, -1.0)
    batch = _WEIGHTED._WEIGHTED_BATCH
    report = verify_weighted(maps, alpha, beta, trials=batch + 44, seed=3)
    rng, pd = _WEIGHTED._rng(3), SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3)
    res = []
    for size in (batch, 44):
        samples = [_WEIGHTED._random_batch(pd, size, rng) for _ in maps]
        images = [_WEIGHTED._weighted_image(f, B, a, b) for f, B, a, b in zip(maps, samples, alpha, beta)]
        res.append(_WEIGHTED._residuals(_WEIGHTED._trace_of_product(images), _WEIGHTED._trace_of_product(samples)))
    assert report.max_residual == float(np.max(np.concatenate(res)))


def _batched_eigh_calls(monkeypatch, batch):
    eigh, calls = np.linalg.eigh, []

    def counted(A):
        if A.ndim == 3 and A.shape[0] == batch:
            calls.append(A.shape)
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("m", [3, 4], ids=["HermOdd", "HermEven"])
@pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
def test_canonical_weighted_factors_take_no_batched_eigh(monkeypatch, m, a):
    # the canonical PowerMaps have pre = beta and post * alpha = 1, so on the
    # reduced side neither power around the core is taken
    gen = generate(GenSpec(family="pn_chain", n=3, m=m, seed=21))
    alpha, beta = (a,) * m, (2.0, -1.0, 0.5, 2.0)[:m]
    wmaps = weighted_canonical_maps(gen.form, alpha, beta, gen.space)
    batch = _WEIGHTED._WEIGHTED_BATCH
    calls = _batched_eigh_calls(monkeypatch, batch)
    report = verify_weighted(wmaps, alpha, beta, trials=batch, seed=3)
    assert report.passed
    assert calls == []


def test_weighted_factor_takes_one_batched_eigh_per_power_it_needs(monkeypatch):
    # pre / b = 2/3 and 2/2 = 1, post * a = 0.5 on both: 1 + 0 inner, 2 outer
    tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)
    maps = [PowerMap(core=identity_map(tag), pre=2.0, post=0.5)] * 2
    batch = _WEIGHTED._WEIGHTED_BATCH
    calls = _batched_eigh_calls(monkeypatch, batch)
    verify_weighted(maps, (1.0, 1.0), (3.0, 2.0), trials=batch, seed=3)
    assert len(calls) == 3


def _weighted_residual(maps, alpha, beta, As):
    """The weighted identity's residual at one tuple (A_1, ..., A_m), through
    the public single-matrix functions."""
    lhs = np.trace(np.linalg.multi_dot([herm_power(power_map_apply(f, A), a) for f, A, a in zip(maps, As, alpha)]))
    rhs = np.trace(np.linalg.multi_dot([herm_power(A, b) for A, b in zip(As, beta)]))
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def test_worst_tuple_reproduces_the_max_residual():
    # worst_tuple holds A_i = B_i^(1/b_i), so the identity evaluated there gives
    # max_residual back to rounding, for a failing and a passing tuple of maps
    gen = generate(GenSpec(family="pn_chain", n=3, m=3, seed=22))
    weights = ((0.5, 2.0, -1.0), (2.0, -1.0, 0.5))
    cases = [
        ([identity_map(H3)] * 2, (1.0, 1.0), (2.0, 2.0)),
        (weighted_canonical_maps(gen.form, *weights, gen.space), *weights),
    ]
    for maps, alpha, beta in cases:
        report = verify_weighted(maps, alpha, beta, trials=300, seed=5)
        assert [A.dtype for A in report.worst_tuple] == [np.complex128] * len(maps)
        again = _weighted_residual(maps, alpha, beta, report.worst_tuple)
        assert again == pytest.approx(report.max_residual, rel=1e-9, abs=1e-13)
    assert report.passed and report.max_residual <= 1e-13


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda maps, form, space: verify_weighted(maps, (2, 2, 2), (0, 2, 2)), id="verify_weighted"),
        pytest.param(lambda maps, form, space: weighted_reduction(maps, (2, 2, 2), (2, 0, 2)), id="weighted_reduction"),
        pytest.param(
            lambda maps, form, space: weighted_canonical_maps(form, (2, 2, 2), (2, 2, 0), space),
            id="weighted_canonical_maps",
        ),
    ],
)
def test_zero_beta_is_refused(call):
    # B = A^0 is the identity for every A, so the reduced identity is undefined;
    # verify_weighted ran it and failed with max residual in the hundreds
    gen = generate(GenSpec(family="pn_chain", n=2, m=3, seed=0))
    with pytest.raises(InvalidParameterError, match="beta weights must be nonzero"):
        call(gen.maps, gen.form, gen.space)


def test_weighted_canonical_maps_refuses_zero_alpha():
    gen = generate(GenSpec(family="pn_chain", n=2, m=3, seed=0))
    with pytest.raises(InvalidParameterError, match="alpha weights must be nonzero"):
        weighted_canonical_maps(gen.form, (2, 0, 2), (2, 2, 2), gen.space)


# the families, fields and lengths of the decompose benchmark, at n = 4
_BENCHMARK_TUPLES = [
    ("sym_even", Field.REAL, 4),
    ("sym_odd", Field.REAL, 3),
    ("mn_chain", Field.COMPLEX, 3),
    ("herm_odd", Field.COMPLEX, 3),
    ("herm_even", Field.COMPLEX, 4),
    ("pn_pair", Field.COMPLEX, 2),
    ("diag_chain", Field.COMPLEX, 4),
]


def test_decompose_and_dualize_take_no_svd(monkeypatch):
    # the one conditioned inverse judges the 1-norm condition number from
    # its own LU; only the samplers' draw rule still takes np.linalg.cond
    gens = [generate(GenSpec(family=f, n=4, m=m, field=fd, seed=1)) for f, fd, m in _BENCHMARK_TUPLES]

    def refused(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", refused)
    monkeypatch.setattr(np.linalg, "cond", refused)
    for gen in gens:
        result = decompose(list(gen.maps))
        assert type(result.form) is type(gen.form)
        assert result.diagnostics["rebuild_delta"] <= CERTIFY_TOL
    pair = gens[5].maps
    assert np.max(np.abs(dualize(pair[0]).transfer - pair[1].transfer)) <= 1e-9


def test_decompose_takes_no_eigensolver(monkeypatch):
    # a conjugator is read off the largest column of the rank-one Phi(E_jj),
    # with no eigenvector and no eigenvalue window
    gens = [generate(GenSpec(family=f, n=4, m=m, field=fd, seed=1)) for f, fd, m in _BENCHMARK_TUPLES]

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eig was called")

    monkeypatch.setattr(np.linalg, "eig", refused)
    for gen in gens:
        result = decompose(list(gen.maps))
        assert type(result.form) is type(gen.form)
        assert result.diagnostics["precheck_ran"] is False
        assert result.diagnostics["rebuild_delta"] <= CERTIFY_TOL


@pytest.mark.parametrize(
    "gen_family, field, m",
    [
        ("mn_chain", Field.COMPLEX, 3),
        ("mn_chain", Field.COMPLEX, 4),
        ("herm_odd", Field.COMPLEX, 3),
        ("herm_even", Field.COMPLEX, 4),
        ("sym_odd", Field.REAL, 3),
        ("sym_even", Field.REAL, 4),
    ],
)
def test_chains_evaluate_only_the_first_m_minus_1_maps_at_identity(monkeypatch, gen_family, field, m):
    # the last scalar or conjugator closes the chain, so f_m(I) is never needed
    maps = list(generate(GenSpec(family=gen_family, n=3, m=m, field=field, seed=1)).maps)
    evaluated = []
    at_identity = _DECOMPOSE._map_at_identity

    def spied(map_):
        evaluated.append(map_)
        return at_identity(map_)

    monkeypatch.setattr(_DECOMPOSE, "_map_at_identity", spied)
    monkeypatch.setattr(_DECOMPOSE, "check_preservation", _no_precheck)
    decompose(maps)
    assert len(evaluated) == m - 1 and all(got is f for got, f in zip(evaluated, maps))


def _conditioned(rng, n: int, kappa: float, real: bool = False) -> np.ndarray:
    """Q_1 diag(logspace(0, log10 kappa, n)) Q_2 with Q_1, Q_2 the Q factors
    of Gaussian matrices, complex unless `real`: 2-norm condition number kappa."""
    def q():
        G = rng.standard_normal((n, n))
        return np.linalg.qr(G if real else G + 1j * rng.standard_normal((n, n)))[0]

    Q1, Q2 = q(), q()
    return Q1 @ np.diag(np.logspace(0, np.log10(kappa), n)) @ Q2


@pytest.mark.parametrize("transpose", [False, True], ids=["direct", "transpose"])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_pn_pair_square_root_normalisation_certifies_ill_conditioned_pairs(monkeypatch, n, transpose):
    # pn_pair normalises f_1 by f_1(I)^(-1/2) on both sides; an explicit
    # inverse f_1(I)^{-1} on one side left 10 of these 18 pairs to the precheck
    rng = np.random.default_rng(n)
    space = SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, n)
    monkeypatch.setattr(_DECOMPOSE, "check_preservation", _no_precheck)
    for _ in range(3):
        result = decompose(from_canonical(PnPair(_conditioned(rng, n, 1e3), transpose), space))
        assert isinstance(result.form, PnPair) and result.form.transpose is transpose
        assert result.diagnostics["rebuild_delta"] <= CERTIFY_TOL


_CONDITIONED_CHAINS = {
    "mn_chain-real": (lambda N: MnChain((N(), N(), N())), SpaceKind.FULL, Field.REAL),
    "mn_chain-complex": (lambda N: MnChain((N(), N(), N())), SpaceKind.FULL, Field.COMPLEX),
    "herm_even": (lambda N: HermEven(N(), (1.0,) * 4), SpaceKind.HERMITIAN, Field.COMPLEX),
    "sym_even-real": (lambda N: SymEven(N(), (1.0,) * 4), SpaceKind.SYMMETRIC, Field.REAL),
    "definite_pair-real": (lambda N: SymEven(N(), (1.0, 1.0)), SpaceKind.POSDEF, Field.REAL),
}


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("case", list(_CONDITIONED_CHAINS))
def test_chains_certify_parameters_of_condition_number_1e3(monkeypatch, case, n):
    # every chain reads its conjugator off f_1(I)^{-1} f_1, solved against
    # f_1(I); an explicit inverse there left most of these to the precheck
    make, kind, field = _CONDITIONED_CHAINS[case]
    rng = np.random.default_rng(n)
    monkeypatch.setattr(_DECOMPOSE, "check_preservation", _no_precheck)
    for _ in range(3):
        form = make(lambda: _conditioned(rng, n, 1e3, real=field is Field.REAL))
        result = decompose(from_canonical(form, SpaceTag(kind, field, n)))
        assert type(result.form) is type(form)
        assert result.diagnostics["rebuild_delta"] <= CERTIFY_TOL
