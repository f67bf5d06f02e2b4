import functools

import numpy as np
import pytest

from traceprod import (
    CheckMode,
    DiagPair,
    Field,
    GenSpec,
    Hadamard,
    InconsistentSamplesError,
    InvalidParameterError,
    LinMap,
    MembershipError,
    NotApplicableError,
    PreservationError,
    PreservationReport,
    RankDeficientError,
    SingularMatrixError,
    SpaceKind,
    SpaceTag,
    apply,
    check_preservation,
    dualize,
    embed_extend_pair,
    extend_from_subset,
    from_canonical,
    generate,
    identity_map,
    infeasibility_certificate,
    is_hermitian_preserving,
    linmap_from_images,
    space_basis,
    span_dim,
    transpose_map,
    verify_weighted,
)
from traceprod.extend import _BATCH, _exhaustive_rhs, _null_space, _span_gram
from traceprod.linmaps import apply_batch
from traceprod.spaces import random_batch
from conftest import basis_stack, map_from_action, move_first_transfer

C2 = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2)
R2 = SpaceTag(SpaceKind.FULL, Field.REAL, 2)
H2 = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 2)
D2 = SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 2)


def _full_tag(n, field=Field.COMPLEX):
    return SpaceTag(SpaceKind.FULL, field, n)


def test_check_hadamard_pair_matches_hand_loop():
    C = np.array([[1.0, 2.0], [2.0, 1.0]])
    maps = from_canonical(Hadamard(C), R2)
    report = check_preservation(maps, tol=1e-9)
    assert report.mode == "exhaustive"
    assert report.trials == 16
    # independent oracle: run all 16 basis pairs by hand
    worst = 0.0
    for A in basis_stack(R2):
        for B in basis_stack(R2):
            lhs = np.trace((A * C) @ (B / C))
            rhs = np.trace(A @ B)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert report.passed
    assert np.isclose(report.max_residual, worst)


def test_check_scaling_pair_residual_exactly_one():
    f = LinMap(C2, C2, 2.0 * np.eye(4))
    g = identity_map(C2)
    report = check_preservation([f, g], tol=1e-9)
    assert not report.passed
    # worst pair is any (E_ij, E_ji): lhs 2, rhs 1
    assert np.isclose(report.max_residual, 1.0)
    A, B = report.worst_tuple
    assert np.isclose(np.trace((2.0 * A) @ B), 2.0 * np.trace(A @ B))


def test_check_single_map_trace_preservation():
    assert check_preservation([transpose_map(C2)], tol=1e-12).passed
    bad = LinMap(C2, C2, 2.0 * np.eye(4))
    report = check_preservation([bad], tol=1e-9)
    assert not report.passed


def test_check_randomized_mode():
    f = LinMap(C2, C2, 2.0 * np.eye(4))
    report = check_preservation([f, identity_map(C2)], mode="randomized", trials=200, seed=1)
    assert report.mode == "randomized"
    assert not report.passed
    good = from_canonical(Hadamard(np.array([[1.0, 2.0], [2.0, 1.0]])), R2)
    assert check_preservation(good, mode="randomized", trials=200, seed=1).passed


def test_check_randomized_rejects_zero_trials():
    f = identity_map(C2)
    with pytest.raises(InvalidParameterError):
        check_preservation([f, f], mode="randomized", trials=0)


def test_check_randomized_fails_on_overflowing_residuals():
    # images of size 1e450 overflow to inf, and inf - inf is NaN
    gen = generate(GenSpec(family="mn_chain", n=3, m=3, seed=0))
    huge = [LinMap(f.domain, f.codomain, 1e150 * f.transfer) for f in gen.maps]
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_preservation(huge, mode="randomized", trials=64, seed=0)
    assert not report.passed
    assert report.max_residual == np.inf
    assert len(report.worst_tuple) == 3


def test_check_exhaustive_fails_on_overflowing_residuals():
    # as in the randomized check, a NaN residual counts as infinite
    gen = generate(GenSpec(family="mn_chain", n=2, m=3, seed=0))
    huge = [LinMap(f.domain, f.codomain, 1e200 * f.transfer) for f in gen.maps]
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_preservation(huge, mode="exhaustive")
    assert report.passed is False
    assert report.max_residual == np.inf


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_check_rejects_non_finite_tol(tol):
    # with tol = inf an overflowing tuple, whose residual is inf, would pass
    gen = generate(GenSpec(family="mn_chain", n=2, m=3, seed=0))
    with pytest.raises(InvalidParameterError):
        check_preservation(gen.maps, tol=tol)
    with pytest.raises(InvalidParameterError):
        verify_weighted(gen.maps[:2], [1, 1], [1, 1], trials=8, tol=tol)


@pytest.mark.parametrize(
    "residual,passed", [(1e-9, True), (2e-9, False), (np.inf, False), (np.nan, False)]
)
def test_report_derives_m_and_passed_from_its_fields(residual, passed):
    report = PreservationReport(
        spaces=(C2, C2, C2),
        mode=CheckMode.RANDOMIZED,
        trials=1,
        max_residual=residual,
        worst_tuple=(),
        tol=1e-9,
    )
    assert report.m == 3
    assert report.passed is passed


def test_check_rejects_unknown_mode():
    # CheckMode("bogus") raised a bare ValueError before
    f = identity_map(C2)
    with pytest.raises(InvalidParameterError, match="auto, exhaustive or randomized"):
        check_preservation([f, f], mode="bogus")


@pytest.mark.parametrize("tol", [-1.0, -1e-300])
def test_check_rejects_negative_tol(tol):
    # no residual is below a negative tol, so every tuple would fail
    gen = generate(GenSpec(family="mn_chain", n=2, m=3, seed=0))
    with pytest.raises(InvalidParameterError):
        check_preservation(gen.maps, tol=tol)
    with pytest.raises(InvalidParameterError):
        verify_weighted(gen.maps[:2], [1, 1], [1, 1], trials=8, tol=tol)


def _reference_randomized(maps, trials, seed, sample_space=None):
    """The randomized check as a plain loop over the same `random_batch`
    samples: full complex products of the images, then their traces."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for done in range(0, trials, _BATCH):
        t = min(_BATCH, trials - done)
        samples = [random_batch(sample_space or f.domain, t, rng) for f in maps]
        images = [apply_batch(f, A) for f, A in zip(maps, samples)]
        lhs = np.trace(functools.reduce(np.matmul, images), axis1=1, axis2=2)
        rhs = np.trace(functools.reduce(np.matmul, samples), axis1=1, axis2=2)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
    return worst


def _identity_tuple(kind, n):
    return [identity_map(SpaceTag(kind, Field.REAL, n))]


_FIELD_CASES = {
    "sym_even-real-m4": lambda: generate(GenSpec(family="sym_even", n=5, m=4, field=Field.REAL, seed=2)).maps,
    "sym_even-real-m2": lambda: generate(GenSpec(family="sym_even", n=4, m=2, field=Field.REAL, seed=2)).maps,
    "symmetric-real-m1": lambda: _identity_tuple(SpaceKind.SYMMETRIC, 4),
    "diag_chain-m3": lambda: generate(GenSpec(family="diag_chain", n=6, m=3, seed=2)).maps,
    "diag_chain-real-m4": lambda: generate(GenSpec(family="diag_chain", n=6, m=4, field=Field.REAL, seed=2)).maps,
    "diag_pair-m2": lambda: generate(GenSpec(family="diag_pair", n=5, m=2, seed=2)).maps,
    "diagonal-real-m1": lambda: _identity_tuple(SpaceKind.DIAGONAL, 5),
}


@pytest.mark.parametrize("perturb", [0.0, 1e-6])
@pytest.mark.parametrize("case", sorted(_FIELD_CASES))
def test_field_randomized_check_matches_complex_reference(case, perturb):
    maps = list(_FIELD_CASES[case]())
    if perturb:
        maps = move_first_transfer(maps, perturb)
    # two batches, the second partial
    report = check_preservation(maps, mode="randomized", trials=_BATCH + 88, seed=3)
    want = _reference_randomized(maps, _BATCH + 88, seed=3)
    assert report.passed == (want <= 1e-9) == (perturb == 0.0)
    assert np.isclose(report.max_residual, want, rtol=1e-9, atol=1e-12)
    n = maps[0].domain.n
    assert len(report.worst_tuple) == len(maps)
    for A in report.worst_tuple:
        assert A.dtype == np.complex128 and A.shape == (n, n)


def test_field_randomized_check_with_sample_space_matches_reference():
    maps = move_first_transfer(generate(GenSpec(family="sym_even", n=4, m=4, field=Field.REAL, seed=1)).maps, 1e-6)
    cone = SpaceTag(SpaceKind.POSDEF, Field.REAL, 4)
    report = check_preservation(maps, mode="randomized", trials=100, seed=5, sample_space=cone)
    assert np.isclose(report.max_residual, _reference_randomized(maps, 100, 5, cone), rtol=1e-9, atol=1e-12)
    assert all(A.dtype == np.complex128 for A in report.worst_tuple)


def test_exhaustive_rhs_cached_read_only_and_reports_repeat():
    maps = move_first_transfer(generate(GenSpec(family="sym_odd", n=3, m=3, field=Field.REAL, seed=1)).maps, 1e-6)
    first = check_preservation(maps, mode="exhaustive")
    rhs = _exhaustive_rhs(tuple(f.domain for f in maps))
    assert not rhs.flags.writeable
    with pytest.raises(ValueError):
        rhs[0, 0] = 1.0
    again = check_preservation(maps, mode="exhaustive")
    assert _exhaustive_rhs(tuple(f.domain for f in maps)) is rhs
    assert (again.mode, again.trials, again.passed) == (first.mode, first.trials, first.passed) == ("exhaustive", 6**3, False)
    assert again.max_residual == first.max_residual > 0
    for A, B in zip(again.worst_tuple, first.worst_tuple):
        assert A.dtype == np.complex128 and A.shape == (3, 3)
        assert np.array_equal(A, B)


def test_check_rejects_mismatched_sample_space():
    f = identity_map(H2)
    with pytest.raises(InvalidParameterError):
        check_preservation([f, f], sample_space=C2)


def test_check_domain_codomain_sizes_must_chain():
    f = identity_map(C2)
    g = identity_map(_full_tag(3))
    with pytest.raises(Exception):
        check_preservation([f, g])


def test_dualize_diag_pair_oracle():
    N = np.array([[1.0, 1.0], [0.0, 1.0]])
    maps = from_canonical(DiagPair(N), D2)
    psi = dualize(maps[0])
    assert np.allclose(psi.transfer, np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert np.allclose(psi.transfer, maps[1].transfer)


def test_dualize_hadamard_gives_reciprocal_mask():
    C = np.array([[1.0, 2.0], [2.0, 1.0]])
    maps = from_canonical(Hadamard(C), R2)
    psi = dualize(maps[0])
    assert np.allclose(psi.transfer, maps[1].transfer)


def test_dualize_unitary_conjugation_is_self_dual():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U, _ = np.linalg.qr(G)
    tag = _full_tag(3)
    f = map_from_action(tag, tag, lambda A: U @ A @ U.conj().T)
    psi = dualize(f)
    assert np.allclose(psi.transfer, f.transfer)


def test_dualize_transpose_is_self_dual():
    f = transpose_map(C2)
    assert np.allclose(dualize(f).transfer, f.transfer)


@pytest.mark.parametrize(
    "tag",
    [
        _full_tag(3),
        SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3),
        SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 3),
        SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 4),
    ],
)
def test_dualize_pair_and_involution(tag):
    rng = np.random.default_rng(3)
    d = span_dim(tag)
    T = rng.standard_normal((d, d)) + 0.5 * np.eye(d)
    f = LinMap(tag, tag, T)
    psi = dualize(f)
    assert check_preservation([f, psi], tol=1e-8).passed
    back = dualize(psi)
    assert np.max(np.abs(back.transfer - f.transfer)) <= 1e-8 * max(1.0, np.max(np.abs(f.transfer)))


def test_dualize_singular_map_rejected():
    T = np.zeros((4, 4))
    T[0, 0] = 1.0
    with pytest.raises(SingularMatrixError):
        dualize(LinMap(C2, C2, T))


def test_extend_from_subset_recovers_map():
    rng = np.random.default_rng(4)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + np.eye(4)
    f = LinMap(C2, C2, T)
    samples = []
    for _ in range(6):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        samples.append((A, apply(f, A)))
    g = extend_from_subset(C2, C2, samples)
    assert np.allclose(g.transfer, f.transfer)


def test_extend_from_subset_inconsistent():
    A = np.diag([1.0, 0.0])
    B = np.diag([0.0, 1.0])
    samples = [(A, A), (B, B), (A + B, 3.0 * (A + B))]
    with pytest.raises(InconsistentSamplesError) as exc:
        extend_from_subset(D2, D2, samples)
    assert exc.value.residual is not None
    assert exc.value.residual > 1e-7


def test_extend_from_subset_needs_spanning_inputs():
    A = np.diag([1.0, 0.0])
    with pytest.raises(RankDeficientError):
        extend_from_subset(D2, D2, [(A, A), (2.0 * A, 2.0 * A)])


@pytest.mark.parametrize("side", ["input", "output"])
def test_extend_from_subset_rejects_off_span_samples(side):
    samples = [(np.diag([1.0, 0.0]),) * 2, (np.diag([0.0, 1.0]),) * 2, (np.eye(2),) * 2]
    off_span = np.array([[1.0, 1.0], [0.0, 1.0]])
    samples[2] = (off_span, np.eye(2)) if side == "input" else (np.eye(2), off_span)
    with pytest.raises(MembershipError, match=f"{side} of sample 2 "):
        extend_from_subset(D2, D2, samples)


def _corner_pair(n, k, seed, hermitian=True):
    """Pair supported on the top-left n x n corner of M_k that preserves
    traces of products there: A -> S (A + 0) T, B -> T^{-1} (B + 0) S^{-1}."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) + 0.4 * np.eye(k)
    T = S.conj().T if hermitian else rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) + 0.4 * np.eye(k)
    Tinv = np.linalg.inv(T)
    Sinv = np.linalg.inv(S)
    dom = _full_tag(n)
    cod = _full_tag(k)
    pad = np.zeros((n * n, k, k), dtype=np.complex128)
    pad[:, :n, :n] = basis_stack(dom)
    f1 = linmap_from_images(dom, cod, list(S @ pad @ T))
    f2 = linmap_from_images(dom, cod, list(Tinv @ pad @ Sinv))
    return f1, f2


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "shape,singular_values",
    [
        ((4, 16), None),
        ((16, 36), None),
        ((36, 64), None),
        ((9, 16), [3.0, 1.0, 0.5]),
        # 1e-14 is above the cutoff 16 * eps * s_max, 1e-16 below it
        ((4, 16), [1.0, 0.5, 1e-14, 1e-16]),
        ((3, 5), [0.0, 0.0, 0.0]),
    ],
    ids=["4x16", "16x36", "36x64", "rank-3", "near-cutoff", "zero"],
)
def test_null_space_matches_scipy(shape, singular_values, complex_entries):
    import scipy.linalg  # the reference; the package itself needs numpy alone

    rng = np.random.default_rng(sum(shape))

    def gaussian(*dims):
        X = rng.standard_normal(dims)
        return X + 1j * rng.standard_normal(dims) if complex_entries else X

    R = gaussian(*shape)
    if singular_values is not None:
        U, _ = np.linalg.qr(gaussian(shape[0], shape[0]))
        V, _ = np.linalg.qr(gaussian(shape[1], shape[1]))
        s = np.zeros(shape[0])
        s[: len(singular_values)] = singular_values
        R = (U * s) @ V[:, : shape[0]].conj().T
    Z = _null_space(R)
    want = scipy.linalg.null_space(R)
    assert Z.shape == want.shape
    assert np.allclose(Z @ Z.conj().T, want @ want.conj().T, rtol=0, atol=1e-12)
    assert np.allclose(Z.conj().T @ Z, np.eye(Z.shape[1]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (2, 4)])
@pytest.mark.parametrize("hermitian", [True, False])
def test_embed_extend_pair(n, k, hermitian):
    f1, f2 = _corner_pair(n, k, seed=10 * n + k, hermitian=hermitian)
    if hermitian:
        assert is_hermitian_preserving(f1) and is_hermitian_preserving(f2)
    psi1, psi2 = embed_extend_pair(f1, f2, tol=1e-8)
    # corner agreement
    for A in basis_stack(_full_tag(n)):
        P = np.zeros((k, k), dtype=complex)
        P[:n, :n] = A
        assert np.max(np.abs(apply(psi1, P) - apply(f1, A))) <= 1e-10
        assert np.max(np.abs(apply(psi2, P) - apply(f2, A))) <= 1e-10
    report = check_preservation([psi1, psi2], tol=1e-8)
    assert report.passed
    if hermitian:
        assert is_hermitian_preserving(psi1) and is_hermitian_preserving(psi2)


def test_embed_extend_square_case_returns_bijection():
    rng = np.random.default_rng(8)
    N = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + np.eye(3)
    tag = _full_tag(3)
    f1 = map_from_action(tag, tag, lambda A: N @ A)
    f2 = map_from_action(tag, tag, lambda A: A @ np.linalg.inv(N))
    psi1, psi2 = embed_extend_pair(f1, f2)
    assert np.allclose(psi1.transfer, f1.transfer)
    assert np.allclose(psi2.transfer, f2.transfer)


def test_embed_extend_rejects_shrinking():
    f = identity_map(_full_tag(3))
    g = identity_map(_full_tag(3))
    # pretend target is smaller by handing maps into M_2: cannot even be built
    with pytest.raises(NotApplicableError):
        embed_extend_pair(
            LinMap(_full_tag(3), _full_tag(2), np.zeros((4, 9))),
            LinMap(_full_tag(3), _full_tag(2), np.zeros((4, 9))),
        )
    del f, g


def test_embed_extend_rejects_non_preserving_pair():
    f1, f2 = _corner_pair(2, 3, seed=9)
    broken = LinMap(f1.domain, f1.codomain, 2.0 * f1.transfer)
    with pytest.raises(PreservationError):
        embed_extend_pair(broken, f2)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3)])
def test_infeasibility_certificate(n, k):
    cert = infeasibility_certificate(n, k, trials=5, seed=0)
    assert cert.certifies_impossibility
    assert cert.gram_lhs_rank <= k * k
    assert cert.rank_bound == k * k
    assert cert.gram_rhs_rank == n * n
    assert cert.cutoff > 0


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_certificate_draws_the_inline_gaussian_formula(field):
    rng = np.random.default_rng(4)
    d, Dk = 9, 4
    if field is Field.REAL:
        T1 = rng.standard_normal((Dk, d))
        T2 = rng.standard_normal((Dk, d))
    else:
        T1 = (rng.standard_normal((Dk, d)) + 1j * rng.standard_normal((Dk, d))) / np.sqrt(2)
        T2 = (rng.standard_normal((Dk, d)) + 1j * rng.standard_normal((Dk, d))) / np.sqrt(2)
    lhs = T1.T @ np.asarray(_span_gram(_full_tag(2, field))) @ T2
    ref = np.linalg.svd(lhs, compute_uv=False)
    got = infeasibility_certificate(3, 2, field=field, trials=1, seed=4).singular_values
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_infeasibility_needs_strict_shrinking():
    with pytest.raises(NotApplicableError):
        infeasibility_certificate(2, 2)
    with pytest.raises(NotApplicableError):
        infeasibility_certificate(2, 3)


def test_certificate_real_field():
    cert = infeasibility_certificate(3, 2, field=Field.REAL, trials=5, seed=1)
    assert cert.certifies_impossibility
