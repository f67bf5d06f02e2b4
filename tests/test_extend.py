import contextlib
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from traceprod import (
    FAMILIES,
    CheckMode,
    DiagPair,
    DimensionMismatchError,
    Field,
    GenSpec,
    Hadamard,
    InconsistentSamplesError,
    InvalidParameterError,
    LinMap,
    MembershipError,
    MnChain,
    NotApplicableError,
    PreservationError,
    PreservationReport,
    RankDeficientError,
    SingularMatrixError,
    SpaceKind,
    SpaceTag,
    TraceProdError,
    apply,
    base_field,
    check_preservation,
    decompose,
    dualize,
    embed_extend_pair,
    extend_from_subset,
    from_canonical,
    generate,
    gram_matrix,
    identity_map,
    infeasibility_certificate,
    is_hermitian_preserving,
    linmap_from_images,
    nonextendable_best_fit_residual,
    space_basis,
    span_dim,
    span_of,
    transpose_map,
    verify_weighted,
    weighted_reduction,
)
from traceprod import extend, spaces
from traceprod.extend import _corner_index_map, _grid_shape, _null_space, _times_span_gram
from traceprod.linmaps import apply_batch
from traceprod.spaces import coords_batch, random_batch
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
    """The randomized check as a plain loop over the same grid tuples: the
    `random_batch` samples drawn as the check draws them (slots 2..m, then
    slot 1 block by block), and for each of the first `trials` tuples in
    row-major order the traces of the full complex products. Returns the
    largest residual and its tuple."""
    m = len(maps)
    k, need, block = _grid_shape(trials, m)
    rng = np.random.default_rng(seed)
    spaces = [sample_space or f.domain for f in maps]
    rest = [random_batch(sp, k, rng) for sp in spaces[1:]]
    first = np.concatenate([random_batch(spaces[0], min(block, need - s), rng) for s in range(0, need, block)])
    samples = [first, *rest]
    images = [apply_batch(f, A) for f, A in zip(maps, samples)]
    worst, worst_tuple = -1.0, ()
    grid = itertools.product(*(range(len(A)) for A in samples))
    for idx in itertools.islice(grid, trials):
        lhs = np.trace(functools.reduce(np.matmul, [F[i] for F, i in zip(images, idx)]))
        rhs = np.trace(functools.reduce(np.matmul, [A[i] for A, i in zip(samples, idx)]))
        res = abs(lhs - rhs) / max(1.0, abs(rhs))
        if res > worst:
            worst, worst_tuple = res, tuple(A[i] for A, i in zip(samples, idx))
    return worst, worst_tuple


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
    # a grid that 600 tuples do not fill
    report = check_preservation(maps, mode="randomized", trials=600, seed=3)
    want, want_tuple = _reference_randomized(maps, 600, seed=3)
    assert report.passed == (want <= 1e-9) == (perturb == 0.0)
    assert np.isclose(report.max_residual, want, rtol=1e-9, atol=1e-12)
    n = maps[0].domain.n
    assert len(report.worst_tuple) == len(maps)
    for A in report.worst_tuple:
        assert A.dtype == np.complex128 and A.shape == (n, n)
    if perturb:  # a clean tuple's residuals are rounding, so its argmax is arbitrary
        for A, B in zip(report.worst_tuple, want_tuple):
            assert np.array_equal(A, B)


def test_field_randomized_check_with_sample_space_matches_reference():
    maps = move_first_transfer(generate(GenSpec(family="sym_even", n=4, m=4, field=Field.REAL, seed=1)).maps, 1e-6)
    cone = SpaceTag(SpaceKind.POSDEF, Field.REAL, 4)
    report = check_preservation(maps, mode="randomized", trials=100, seed=5, sample_space=cone)
    assert np.isclose(report.max_residual, _reference_randomized(maps, 100, 5, cone)[0], rtol=1e-9, atol=1e-12)
    assert all(A.dtype == np.complex128 for A in report.worst_tuple)


def _spy_on_residuals(monkeypatch) -> list:
    """The number of tuples each `_residuals` call of the check sees, as a
    list that fills while the check runs."""
    seen = []
    residuals = extend._residuals

    def spy(lhs, rhs):
        seen.append(len(lhs))
        return residuals(lhs, rhs)

    monkeypatch.setattr(extend, "_residuals", spy)
    return seen


@pytest.mark.parametrize("case", ["diag_chain-m3", "sym_even-real-m4"])
def test_randomized_check_in_several_slot_one_blocks_matches_reference(case, monkeypatch):
    # slot 1 drawn 3 samples at a time: 600 tuples need 8 of k = 9 samples
    # at m = 3 (blocks 3, 3, 2) and 5 of k = 5 at m = 4 (blocks 3, 2)
    monkeypatch.setattr(extend, "_BATCH", 3)
    maps = move_first_transfer(list(_FIELD_CASES[case]()), 1e-6)
    k, need, block = _grid_shape(600, len(maps))
    assert block == 3
    seen = _spy_on_residuals(monkeypatch)
    report = check_preservation(maps, mode="randomized", trials=600, seed=3)
    # whole blocks of 3 samples, then the rest of the 600 tuples
    per = k ** (len(maps) - 1)
    assert seen[:-1] == [3 * per] * (len(seen) - 1) and sum(seen) == 600
    want, want_tuple = _reference_randomized(maps, 600, seed=3)
    assert not report.passed
    assert np.isclose(report.max_residual, want, rtol=1e-9, atol=1e-12)
    for A, B in zip(report.worst_tuple, want_tuple):
        assert np.array_equal(A, B)


@pytest.mark.parametrize(
    "trials,m,shape",
    [(1, 1, (1, 1, 1)), (10**6, 1, (10**6, 10**6, 512)), (5, 3, (2, 2, 2)), (8, 3, (2, 2, 2)),
     (9, 3, (3, 1, 1)), (10_000, 3, (22, 21, 21)), (512, 6, (3, 3, 3)), (10**6, 2, (1000, 1000, 32))],
)
def test_grid_shape(trials, m, shape):
    # k = ceil(trials**(1/m)) in integers; slot 1 draws only what the first
    # `trials` tuples use, at most 512 samples and 2**15 tuples a block
    assert _grid_shape(trials, m) == shape


def test_grid_shape_takes_the_least_k_whose_grid_covers_trials():
    # k starts at round(trials**(1/m)) <= trials**(1/m) + 1/2 and only steps
    # up, so k - 1 never covers trials
    for m in range(1, 7):
        for trials in range(1, 4097):
            k = _grid_shape(trials, m)[0]
            assert k**m >= trials > (k - 1) ** m, (trials, m)


def test_randomized_check_evaluates_exactly_trials_tuples(monkeypatch):
    # trials = 5 at m = 3: a 2 x 2 x 2 grid, of which the first 5 tuples count
    seen = _spy_on_residuals(monkeypatch)
    maps = move_first_transfer(generate(GenSpec(family="mn_chain", n=3, m=3, seed=0)).maps, 1e-6)
    report = check_preservation(maps, mode="randomized", trials=5, seed=0)
    assert seen == [5]
    assert report.trials == 5
    assert np.isclose(report.max_residual, _reference_randomized(maps, 5, seed=0)[0], rtol=1e-9, atol=1e-12)


def test_randomized_check_maps_each_sample_once(monkeypatch):
    rows = []
    apply_rows = extend._apply_batch

    def spy(map_, batch, dtype):
        rows.append(len(batch))
        return apply_rows(map_, batch, dtype=dtype)

    monkeypatch.setattr(extend, "_apply_batch", spy)
    gen = generate(GenSpec(family="mn_chain", n=4, m=3, seed=0))
    report = check_preservation(gen.maps, mode="randomized", trials=10_000, seed=0)
    # k = 22 samples for slots 2 and 3, each mapped once; slot 1 needs only
    # ceil(10 000 / 22**2) = 21 of its 22, against 3 * 10 000 rows before
    assert rows == [22, 22, 21]
    assert report.trials == 10_000 and report.passed


@pytest.mark.parametrize(
    "maps,trials",
    [
        # slot 1 unblocked would hold 20 000 complex 8 x 8 samples, 20 MB
        pytest.param(lambda: [transpose_map(_full_tag(8))], 20_000, id="m1"),
        pytest.param(lambda: generate(GenSpec(family="pn_pair", n=8, m=2, seed=0)).maps, 10**6, id="m2"),
        pytest.param(lambda: generate(GenSpec(family="mn_chain", n=8, m=3, seed=0)).maps, 10**6, id="m3"),
    ],
)
def test_randomized_check_memory_does_not_grow_with_trials(maps, trials):
    maps = maps()
    tracemalloc.start()
    try:
        report = check_preservation(maps, mode="randomized", trials=trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.trials == trials
    assert peak < 16 * 2**20


def test_exhaustive_check_memory_does_not_grow_with_the_grid():
    # 100**3 basis tuples, the cap: the grid as one block peaked at 56.5 MB
    # of tracemalloc; runs of slot-1 basis elements peak at 3.8 MB
    maps = generate(GenSpec(family="mn_chain", n=10, m=3, seed=0)).maps
    check_preservation(maps)  # warm the basis caches
    tracemalloc.start()
    try:
        report = check_preservation(maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mode.value == "exhaustive" and report.trials == 10**6 and report.passed
    assert peak < 16 * 2**20


@pytest.mark.parametrize("run", [2, 3, 5])
def test_exhaustive_runs_report_what_the_whole_grid_reports(monkeypatch, run):
    # the worst tuple and its residual do not depend on how the grid is cut
    # into runs of two or more slot-1 basis elements
    for family, m in (("mn_chain", 3), ("herm_even", 4), ("pn_pair", 2), ("diag_chain", 3)):
        maps = move_first_transfer(generate(GenSpec(family=family, n=2, m=m, seed=0)).maps, 1e-6)
        per = math.prod(span_dim(f.domain) for f in maps[1:])
        monkeypatch.setattr(extend, "_GRID_TUPLES", run * per)
        report = check_preservation(maps, mode="exhaustive")
        monkeypatch.setattr(extend, "_GRID_TUPLES", 10**9)
        reference = check_preservation(maps, mode="exhaustive")
        assert report.max_residual == reference.max_residual > 0
        assert all(np.array_equal(a, b) for a, b in zip(report.worst_tuple, reference.worst_tuple, strict=True))


_DETECTION_FAMILIES = [
    ("mn_chain", Field.COMPLEX),
    ("herm_odd", Field.COMPLEX),
    ("herm_even", Field.COMPLEX),
    ("sym_even", Field.REAL),
    ("sym_odd", Field.REAL),
    ("diag_chain", Field.COMPLEX),
    ("pn_pair", Field.COMPLEX),
]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("family,field", _DETECTION_FAMILIES)
def test_randomized_grid_passes_preservers_and_fails_moved_maps(family, field, n):
    # every grid tuple of generic samples tells a preserver from a tuple whose
    # f1 moved, as a tuple of fresh samples does: the identity is multilinear
    lengths = []
    for m in range(2, 7):
        try:
            spec = GenSpec(family=family, n=n, m=m, field=field, seed=0)
        except InvalidParameterError:
            continue
        lengths.append(m)
        maps = generate(spec).maps
        for rel in (0.0, 1e-6, 1e-8):
            moved = move_first_transfer(maps, rel) if rel else maps
            report = check_preservation(moved, tol=1e-9, mode="randomized", trials=512, seed=0)
            assert report.passed == (rel == 0.0), (m, rel, report.max_residual)
    assert lengths


@pytest.mark.parametrize("trials", [2.5, "8", True, 0, -3])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda t: check_preservation([identity_map(C2)] * 2, mode="randomized", trials=t), id="check_preservation"
        ),
        pytest.param(
            lambda t: check_preservation([identity_map(C2)] * 2, mode="exhaustive", trials=t), id="check-exhaustive"
        ),
        pytest.param(lambda t: verify_weighted([identity_map(H2)] * 2, [1, 1], [1, 1], trials=t), id="verify_weighted"),
        pytest.param(lambda t: infeasibility_certificate(3, 2, trials=t), id="infeasibility_certificate"),
        pytest.param(lambda t: nonextendable_best_fit_residual(np.eye(2), trials=t), id="best_fit"),
    ],
)
def test_trials_must_be_a_positive_int(call, trials):
    # 2.5 and "8" raised a bare TypeError, and True ran one trial reported as `trials: True`
    with pytest.raises(InvalidParameterError, match="trials must be a positive integer"):
        call(trials)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t: check_preservation([identity_map(C2)] * 2, mode="randomized", trials=t), id="check"),
        pytest.param(lambda t: verify_weighted([identity_map(H2)] * 2, [1, 1], [1, 1], trials=t), id="verify_weighted"),
    ],
)
def test_a_numpy_integer_trial_count_is_reported_as_a_python_int(call):
    # np.int64(8) was refused as no count
    report = call(np.int64(8))
    assert type(report.trials) is int and report.trials == 8
    assert report.max_residual == call(8).max_residual


_C3 = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: check_preservation([identity_map(C2), LinMap(C2, _C3, np.zeros((9, 4)))]),
            DimensionMismatchError, "maps[1] has codomain size 3, expected 2", id="codomain-size",
        ),
        pytest.param(
            lambda: check_preservation([identity_map(C2)] * 2, sample_space=_C3),
            DimensionMismatchError, "sample_space has n=3, maps expect 2", id="sample-space-size",
        ),
        pytest.param(lambda: extend_from_subset(C2, C2, []), InvalidParameterError, "no samples given", id="no-samples"),
        pytest.param(
            lambda: extend_from_subset(C2, C2, [(np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))]),
            DimensionMismatchError, "samples must be (input, output) matrix pairs: ", id="samples-of-two-shapes",
        ),
        pytest.param(
            lambda: embed_extend_pair(identity_map(H2), identity_map(H2)),
            InvalidParameterError, "phi1 must map a full matrix space into a full matrix space", id="not-full",
        ),
        pytest.param(
            lambda: embed_extend_pair(identity_map(C2), identity_map(R2)),
            InvalidParameterError, "the two maps must share domain and codomain", id="unshared-spaces",
        ),
    ],
)
def test_extend_functions_refuse_inputs_of_the_wrong_shape_or_space(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value).startswith(message)


def test_exhaustive_check_repeats_bit_identically():
    maps = move_first_transfer(generate(GenSpec(family="sym_odd", n=3, m=3, field=Field.REAL, seed=1)).maps, 1e-6)
    first = check_preservation(maps, mode="exhaustive")
    again = check_preservation(maps, mode="exhaustive")
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


@pytest.mark.parametrize("tol, limit", [(None, r"1e\+09"), (1e-6, r"1e\+06"), (0.0, r"1e\+15")])
def test_dualize_refusal_names_its_limit(tol, limit):
    # dualize's condition test is `_inverse`'s at the limit 1/max(tol, 1e-15)
    T = np.zeros((4, 4))
    T[0, 0] = 1.0
    with pytest.raises(SingularMatrixError, match=f"condition number above {limit} "):
        dualize(LinMap(C2, C2, T), *([] if tol is None else [tol]))


def _dense_gram(tag: SpaceTag) -> np.ndarray:
    """The trace Gram matrix [tr(B_a B_b)] of the span's basis, real over a real base field."""
    G = gram_matrix(space_basis(tag).elements)
    return G.real if base_field(tag) is Field.REAL else G


@pytest.mark.parametrize("tag", [SpaceTag(kind, field, 3) for kind in SpaceKind for field in Field], ids=str)
def test_dualize_is_the_solve_against_the_span_gram(tag):
    # G^{-1} gathered and scaled is the solve of G against the trace Gram
    # matrix, entry for entry
    rng = np.random.default_rng(3)
    d, real = span_dim(tag), base_field(tag) is Field.REAL
    T = rng.standard_normal((d, d)) + 2 * d * np.eye(d)
    if not real:
        T = T + 1j * rng.standard_normal((d, d))
    f = LinMap(tag, tag, T)
    want = np.linalg.solve(_times_span_gram(f.transfer.T, tag), _dense_gram(tag))
    assert np.array_equal(dualize(f).transfer, want)


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


def _scaled_conjugation_pair(n, seed):
    """A -> M* A M on M_n with M = 1e-3 (G + iG'), G and G' drawn from
    default_rng(seed), and its dual partner B -> M^-1 B M^-*, whose entries
    reach 1e6-1e7."""
    rng = np.random.default_rng(seed)
    M = 1e-3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    [f] = from_canonical(MnChain((M.conj().T, np.linalg.inv(M))), _full_tag(n))[:1]
    return f, dualize(f)


def _in_corner(f, k):
    """f with its images padded into the top-left corner of M_k."""
    n = f.domain.n
    T = np.zeros((k * k, n * n), dtype=f.transfer.dtype)
    rows, cols = np.divmod(np.arange(n * n), n)
    T[rows * k + cols] = f.transfer
    return LinMap(f.domain, _full_tag(k, f.domain.field), T)


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (4, 0), (4, 1), (4, 2)])
def test_large_scale_hermitian_preserving_pair_takes_the_hermitian_route(n, seed, monkeypatch):
    # the partner's Hermitian images deviate from Hermitian by rounding, about
    # 1e-8 at their scale of 1e6-1e7: an absolute deviation against tol read
    # that as not Hermitian preserving, and the extension left its route
    f, g = _scaled_conjugation_pair(n, seed)
    assert check_preservation([f, g]).passed
    assert is_hermitian_preserving(f) and is_hermitian_preserving(g)
    # the deviation is judged relative to that scale, not forgiven: i times
    # the partner maps Hermitian matrices to skew-Hermitian ones
    assert not is_hermitian_preserving(LinMap(g.domain, g.codomain, 1j * g.transfer))
    restricted = []
    restrict = extend._restrict_to_hermitian
    monkeypatch.setattr(extend, "_restrict_to_hermitian", lambda f: restricted.append(f) or restrict(f))
    psi1, psi2 = embed_extend_pair(_in_corner(f, n + 1), _in_corner(g, n + 1))
    assert len(restricted) == 2
    assert is_hermitian_preserving(psi1) and is_hermitian_preserving(psi2)


@pytest.mark.parametrize("kind", [SpaceKind.FULL, SpaceKind.HERMITIAN, SpaceKind.SYMMETRIC, SpaceKind.DIAGONAL])
@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("n, k", [(n, k) for k in range(1, 5) for n in range(1, k + 1)])
def test_corner_index_map_matches_padded_coordinates(kind, field, n, k):
    # the reference pads each domain basis element into the top-left corner
    # of the codomain and reads the one coordinate it lands on
    dom, cod = SpaceTag(kind, field, n), SpaceTag(kind, field, k)
    pad = np.zeros((span_dim(dom), k, k), dtype=np.complex128)
    pad[:, :n, :n] = basis_stack(dom)
    x = coords_batch(cod, pad)
    want = np.argmax(np.abs(x), axis=1)
    assert np.array_equal(x, np.eye(span_dim(cod))[want])
    assert np.array_equal(_corner_index_map(span_of(dom), span_of(cod)), want)


@pytest.mark.parametrize(
    "tag", [SpaceTag(kind, field, n) for kind in SpaceKind for field in Field for n in (1, 2, 3, 5)], ids=str
)
def test_times_span_gram_is_the_dense_product_bit_for_bit(tag):
    # dualize's G = T^t Gram as a gather, against the dense product on a
    # Gaussian transfer, on its negation and, over the reals, on it with its
    # negative entries made -0, which the product sums to +0
    rng = np.random.default_rng(tag.n)
    d, real = span_dim(tag), base_field(tag) is Field.REAL
    T = rng.standard_normal((d, d)) if real else rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for X in (T, -T, np.where(T < 0, -0.0, T)) if real else (T, -T):
        f = LinMap(tag, tag, X)
        want = f.transfer.T @ _dense_gram(tag)
        got = _times_span_gram(f.transfer.T, tag)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(1, n)])
def test_certificate_target_rank_is_the_rank_of_the_trace_gram(n, k, field):
    # the target rank is read off the pairing's structure, not measured, and
    # is the rank of the dense trace Gram matrix of M_n
    cert = infeasibility_certificate(n, k, field=field, trials=1)
    assert cert.gram_rhs_rank == np.linalg.matrix_rank(gram_matrix(space_basis(_full_tag(n, field)).elements))


@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian-route", "full-route"])
def test_extension_takes_the_route_of_its_inputs(monkeypatch, hermitian):
    f1, f2 = _corner_pair(2, 4, seed=3, hermitian=hermitian)
    restricted = []
    restrict = extend._restrict_to_hermitian
    monkeypatch.setattr(extend, "_restrict_to_hermitian", lambda f: restricted.append(f) or restrict(f))
    embed_extend_pair(f1, f2, tol=1e-8)
    assert len(restricted) == (2 if hermitian else 0)


def test_program_paths_build_no_basis_stack():
    # every path below reads the index terms of `spaces`; the dense basis
    # stack serves only space_basis and gram_matrix of a tag
    def stack_calls():
        info = spaces._basis_stack.cache_info()
        return info.hits + info.misses

    corner_pairs = [_corner_pair(2, 3, seed=0, hermitian=hermitian) for hermitian in (True, False)]
    before = stack_calls()
    for family, field, m in itertools.product(FAMILIES, Field, (2, 3, 4)):
        try:
            maps = generate(GenSpec(family=family, n=3, m=m, field=field, seed=1)).maps
        except TraceProdError:
            continue
        check_preservation(maps, mode="exhaustive")
        check_preservation(maps, mode="randomized", trials=16)
        with contextlib.suppress(TraceProdError):
            decompose(maps)
        if maps[0].codomain == maps[0].domain:
            dualize(maps[0])
        if family == "nonextendable":
            embed_extend_pair(*maps[:2])
    for pair in corner_pairs:
        embed_extend_pair(*pair)
    for field in Field:
        infeasibility_certificate(3, 2, field=field, trials=2)
        transpose_map(SpaceTag(SpaceKind.FULL, field, 3))
    pn_chain = generate(GenSpec(family="pn_chain", n=2, m=2, seed=0)).maps
    weighted_reduction(pn_chain, [1.0, 1.0], [1.0, 1.0], seed=0)
    assert stack_calls() == before


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


def _square_pair(N):
    """A -> N A and A -> A N^-1 on M_3: a preserving pair with n = k."""
    tag = _full_tag(3)
    return map_from_action(tag, tag, lambda A: N @ A), map_from_action(tag, tag, lambda A: A @ np.linalg.inv(N))


@pytest.mark.parametrize("case", ["random", "cond-1e4"])
def test_embed_extend_square_case_returns_bijection(case):
    if case == "random":
        rng = np.random.default_rng(8)
        N = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + np.eye(3)
    else:
        N = np.diag([1.0, 1.0, 1e4])
    f1, f2 = _square_pair(N)
    psi1, psi2 = embed_extend_pair(f1, f2)
    assert psi1 is f1 and psi2 is f2


def test_embed_extend_square_case_refuses_ill_conditioned_pair():
    # the pair preserves the identity, but phi1's condition number 1e7 is above COND_LIMIT
    f1, f2 = _square_pair(np.diag([1.0, 1.0, 1e7]))
    assert check_preservation([f1, f2], mode="exhaustive").passed
    with pytest.raises(SingularMatrixError, match=r"phi1 is singular or has condition number above 1e\+06"):
        embed_extend_pair(f1, f2)


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
    lhs = T1.T @ _dense_gram(_full_tag(2, field)) @ T2
    ref = np.linalg.svd(lhs, compute_uv=False)
    got = infeasibility_certificate(3, 2, field=field, trials=1, seed=4).singular_values
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_infeasibility_needs_strict_shrinking():
    with pytest.raises(NotApplicableError):
        infeasibility_certificate(2, 2)
    with pytest.raises(NotApplicableError):
        infeasibility_certificate(2, 3)


@pytest.mark.parametrize("field", [Field.COMPLEX, Field.REAL])
def test_certificate_stops_at_the_first_pair_of_rank_k_squared(monkeypatch, field):
    # every one of the 20 default trials took an SVD, though the first already
    # reached k^2 and no rank can exceed it
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
    cert = infeasibility_certificate(12, 11, field=field)
    assert len(calls) == 1
    assert cert.gram_lhs_rank == cert.rank_bound == 121
    first = infeasibility_certificate(12, 11, field=field, trials=1)
    assert cert.singular_values.tobytes() == first.singular_values.tobytes() and cert.cutoff == first.cutoff


def test_certificate_real_field():
    cert = infeasibility_certificate(3, 2, field=Field.REAL, trials=5, seed=1)
    assert cert.certifies_impossibility


@pytest.mark.parametrize("cutoff_factor", [float("nan"), -1.0, 0.0, 1.0, "0.5", None])
def test_infeasibility_certificate_refuses_a_cutoff_outside_the_open_unit_interval(cutoff_factor):
    # a string or None escaped as a bare TypeError
    with pytest.raises(InvalidParameterError, match=r"cutoff_factor must lie in the open interval \(0, 1\)"):
        infeasibility_certificate(3, 2, cutoff_factor=cutoff_factor)


def test_infeasibility_certificate_refuses_an_unknown_field_name():
    with pytest.raises(InvalidParameterError, match="'bogus' is not a valid Field"):
        infeasibility_certificate(3, 2, field="bogus")
