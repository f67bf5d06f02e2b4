import time
import tracemalloc
import warnings

import numpy as np
import pytest

from traceprod import (
    FAMILIES,
    Field,
    GenSpec,
    InvalidParameterError,
    SpaceTag,
    check_preservation,
    gen_space_sample,
    generate,
    membership,
    span_of,
)
from traceprod import families
from traceprod.families import _tuple_bytes, complex_orthogonal, haar_unitary, random_invertible

ALL_CASES = [
    ("mn_chain", 3, 3, Field.COMPLEX),
    ("mn_chain", 3, 4, Field.REAL),
    ("herm_odd", 3, 5, Field.COMPLEX),
    ("herm_even", 3, 4, Field.COMPLEX),
    ("pn_pair", 3, 2, Field.COMPLEX),
    ("pn_chain", 3, 2, Field.COMPLEX),
    ("pn_chain", 3, 3, Field.REAL),
    ("sym_odd", 3, 3, Field.REAL),
    ("sym_even", 3, 4, Field.COMPLEX),
    ("sym_even", 3, 2, Field.REAL),
    ("diag_pair", 4, 2, Field.REAL),
    ("diag_chain", 3, 4, Field.COMPLEX),
    ("hadamard", 3, 2, Field.REAL),
    ("rank_one_frame", 2, 2, Field.COMPLEX),
    ("nonextendable", 3, 3, Field.COMPLEX),
]


def test_families_constant_lists_every_generator():
    assert set(f for f, *_ in ALL_CASES) == set(FAMILIES)


@pytest.mark.parametrize("family,n,m,field", ALL_CASES)
def test_generate_is_deterministic(family, n, m, field):
    spec = GenSpec(family=family, n=n, m=m, field=field, seed=42)
    a = generate(spec)
    b = generate(spec)
    for f, g in zip(a.maps, b.maps):
        assert np.array_equal(f.transfer, g.transfer)


@pytest.mark.parametrize("family,n,m,field", ALL_CASES)
def test_generate_seed_changes_output(family, n, m, field):
    a = generate(GenSpec(family=family, n=n, m=m, field=field, seed=0))
    b = generate(GenSpec(family=family, n=n, m=m, field=field, seed=1))
    assert any(not np.array_equal(f.transfer, g.transfer) for f, g in zip(a.maps, b.maps))


@pytest.mark.parametrize("family,n,m,field", ALL_CASES)
def test_generated_tuple_preserves(family, n, m, field):
    gen = generate(GenSpec(family=family, n=n, m=m, field=field, seed=5))
    assert len(gen.maps) == m
    report = check_preservation(gen.maps, tol=1e-9)
    assert report.passed, report.max_residual


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="mn_chain", n=3, m=2),
        dict(family="herm_odd", n=3, m=4),
        dict(family="herm_odd", n=3, m=3, field=Field.REAL),
        dict(family="herm_even", n=3, m=3),
        dict(family="herm_even", n=3, m=2),
        dict(family="pn_pair", n=3, m=3),
        dict(family="pn_pair", n=3, m=2, field=Field.REAL),
        dict(family="sym_odd", n=3, m=4),
        dict(family="sym_even", n=3, m=3),
        dict(family="sym_even", n=3, m=2, field=Field.COMPLEX),
        dict(family="diag_pair", n=3, m=3),
        dict(family="diag_chain", n=3, m=2),
        dict(family="hadamard", n=3, m=3),
        dict(family="rank_one_frame", n=3, m=3),
        dict(family="nonextendable", n=3, m=2),
        dict(family="nonextendable", n=1, m=3),
        dict(family="nonextendable", n=2, m=3, field=Field.REAL),
        dict(family="unknown", n=3, m=3),
        dict(family="mn_chain", n=0, m=3),
        dict(family="mn_chain", n=3, m=3, condition_bound=0.5),
        # NaN passed the old `condition_bound < 1` test and spent 100 resamples
        dict(family="herm_odd", n=2, m=3, condition_bound=float("nan")),
        # a string or None escaped as a bare TypeError, and True was read as 1
        dict(family="mn_chain", n=3, m=3, condition_bound="x"),
        dict(family="mn_chain", n=3, m=3, condition_bound=None),
        dict(family="mn_chain", n=3, m=3, condition_bound=True),
        # an int beyond double range escaped as a bare OverflowError
        dict(family="mn_chain", n=3, m=3, condition_bound=10**400),
    ],
)
def test_genspec_rejects_invalid(kwargs):
    with pytest.raises(InvalidParameterError):
        GenSpec(**kwargs)


def test_condition_bound_respected():
    gen = generate(GenSpec(family="mn_chain", n=4, m=3, seed=7, condition_bound=100.0))
    for N in gen.form.N:
        assert np.linalg.cond(N) <= 100.0


def test_condition_bound_may_be_infinite():
    gen = generate(GenSpec(family="mn_chain", n=3, m=3, seed=7, condition_bound=np.inf))
    assert len(gen.maps) == 3


@pytest.mark.parametrize("family, m", [("mn_chain", 3), ("diag_pair", 2)])
def test_a_draw_that_from_canonical_would_refuse_is_resampled(monkeypatch, family, m):
    # the first draw has 2-norm condition number 8e5, within the bound, and
    # 1-norm condition number 1.17e6, above COND_LIMIT: it is drawn again
    # rather than handed to from_canonical, which would refuse it
    def rotation(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    bad = (rotation(1.17) @ np.diag([1.0, 1 / 8e5]) @ rotation(1.19)).astype(np.complex128)
    draws = [bad]
    real_ginibre = families._ginibre
    monkeypatch.setattr(families, "_ginibre", lambda *a: draws.pop() if draws else real_ginibre(*a))
    gen = generate(GenSpec(family=family, n=2, m=m, condition_bound=1e6))
    assert not draws
    params = gen.form.N if family == "mn_chain" else (gen.form.N,)
    assert all(np.linalg.cond(N, 1) <= 1e6 for N in params)


def _old_ginibre(rng, n, real):
    # the draw each sampler wrote inline before they shared `spaces._gaussian`
    if real:
        return rng.standard_normal((n, n)).astype(np.complex128)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [1, 4])
def test_samplers_draw_the_inline_gaussian_formula(seed, n):
    # an infinite bound keeps the first draw, so each sampler draws once
    for field in (Field.REAL, Field.COMPLEX):
        ref = _old_ginibre(np.random.default_rng(seed), n, field is Field.REAL)
        got = random_invertible(np.random.default_rng(seed), n, field, cond_bound=np.inf)
        assert _same_bits(got, ref), field

    Q, R = np.linalg.qr(_old_ginibre(np.random.default_rng(seed), n, False))
    ph = np.diag(R).copy()
    ref = Q * (ph / np.abs(ph))[None, :]
    assert _same_bits(haar_unitary(np.random.default_rng(seed), n), ref)

    G = _old_ginibre(np.random.default_rng(seed), n, False)
    K = 0.4 * (G - G.T)
    ref = np.linalg.solve(np.eye(n) - K / 2, np.eye(n) + K / 2)
    assert _same_bits(complex_orthogonal(np.random.default_rng(seed), n, cond_bound=np.inf), ref)


@pytest.mark.parametrize("n", [2, 8, 16, 32])
def test_complex_orthogonal_is_orthogonal_and_conditioned(n):
    for seed in range(5):
        O = complex_orthogonal(np.random.default_rng(seed), n, cond_bound=1e3)
        assert np.iscomplexobj(O) and np.max(np.abs(O.imag)) > 0
        assert np.max(np.abs(O.T @ O - np.eye(n))) <= 1e-12
        assert np.linalg.cond(O) <= 1e3


def test_generated_scalar_products_exact():
    gen = generate(GenSpec(family="herm_odd", n=3, m=5, seed=8))
    assert np.prod(np.array(gen.form.c)) == pytest.approx(1.0, abs=1e-15)
    genc = generate(GenSpec(family="diag_chain", n=3, m=3, seed=9))
    prod = np.eye(3)
    for Ci in genc.form.C:
        prod = prod @ Ci
    assert np.max(np.abs(prod - np.eye(3))) <= 1e-12


def test_gen_space_sample_members():
    gen = generate(GenSpec(family="pn_pair", n=3, m=2, seed=10))
    batch = gen_space_sample(gen.space, 8, seed=11)
    for A in batch:
        assert membership(span_of(gen.space), A)


def test_hadamard_generator_symmetric_nonscalar():
    gen = generate(GenSpec(family="hadamard", n=4, m=2, seed=12))
    C = gen.form.C
    assert np.allclose(C, C.T)
    assert np.min(np.abs(C)) > 0
    assert gen.form.real_family


def test_generate_refuses_a_tuple_larger_than_physical_memory_before_sampling():
    # 10**12 maps of 9 x 9 complex transfers need 1.3e6 GB; without the
    # refusal, m = 10**8 sampled for minutes and grew past 3 GB
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InvalidParameterError, match="more than the .* GB of physical memory"):
            generate(GenSpec(family="mn_chain", n=3, m=10**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1e6


@pytest.mark.parametrize(
    "family, kind, n, m", [("diag_chain", "Diagonal", 1, 10**8), ("mn_chain", "FullMatrix", 3, 6 * 10**6)]
)
def test_the_size_refusal_counts_what_each_map_holds_beside_its_entries(monkeypatch, family, kind, n, m):
    # the transfers' entries alone (1.6 and 7.8 GB) fit in 8.42 GB, but each
    # map holds hundreds of bytes more; judged by the entries, the diagonal
    # chain passed and its sampler ran through 10**8 draws (asserted first,
    # so a regression fails here instead of sampling)
    assert _tuple_bytes(m, SpaceTag(kind, "complex", n)) > 8_420_000_000
    monkeypatch.setattr("traceprod.families._physical_memory", lambda: 8_420_000_000)
    start = time.perf_counter()
    with pytest.raises(InvalidParameterError, match="physical memory"):
        generate(GenSpec(family=family, n=n, m=m))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "family, kind, n, m, memory",
    [("mn_chain", "FullMatrix", 3, 10**6, 1_700_000_000), ("diag_chain", "Diagonal", 1, 10**7, 3_500_000_000)],
)
def test_the_size_refusal_counts_one_parameter_per_map_of_a_chain(monkeypatch, family, kind, n, m, memory):
    # each map's entries plus 256 bytes fit, but MnChain.N and DiagChain.C hold
    # one n x n parameter per map, which pushes the tuple past the memory
    space = SpaceTag(kind, "complex", n)
    assert _tuple_bytes(m, space) < memory < _tuple_bytes(m, space, True)
    monkeypatch.setattr("traceprod.families._physical_memory", lambda: memory)

    def no_sampling(seed):
        raise AssertionError("sampling started")

    monkeypatch.setattr("traceprod.families._rng", no_sampling)
    with pytest.raises(InvalidParameterError, match="physical memory"):
        generate(GenSpec(family=family, n=n, m=m))


@pytest.mark.parametrize(
    "family, field, m",
    [
        ("herm_even", Field.COMPLEX, 20000),
        ("herm_odd", Field.COMPLEX, 20001),
        ("sym_odd", Field.REAL, 20001),
        ("sym_even", Field.COMPLEX, 20000),
        ("pn_chain", Field.COMPLEX, 20000),
        ("pn_chain", Field.REAL, 20001),
        ("diag_chain", Field.REAL, 10000),
    ],
)
def test_a_product_of_drawn_scalars_out_of_double_range_is_refused_with_no_warning(family, field, m):
    # the closing scalar is 1 / the product of m - 1 magnitudes from [0.5, 2],
    # which overflowed with a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=f"drawn for m = {m} left double range"):
            generate(GenSpec(family=family, n=1, m=m, field=field))


def _longest_small_spec(family, field, n):
    for m in (65, 64, 3, 2):
        try:
            return GenSpec(family=family, n=n, m=m, field=field)
        except InvalidParameterError:
            pass
    return None


SMALL_SPECS = [
    spec
    for family in FAMILIES
    for field in Field
    for n in (1, 2, 3)
    if (spec := _longest_small_spec(family, field, n)) is not None
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: f"{s.family}-{s.field.value}-n{s.n}-m{s.m}")
def test_the_size_estimate_is_a_lower_bound_on_what_a_tuple_holds(spec):
    # so the refusal never turns away a tuple that fits
    tracemalloc.start()
    try:
        gen = generate(spec)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held >= _tuple_bytes(spec.m, gen.space)


@pytest.mark.parametrize(
    "spec",
    [spec for spec in SMALL_SPECS if spec.family in ("mn_chain", "diag_chain")],
    ids=lambda s: f"{s.family}-{s.field.value}-n{s.n}-m{s.m}",
)
def test_the_size_estimate_with_one_parameter_per_map_is_a_lower_bound(spec):
    tracemalloc.start()
    try:
        gen = generate(spec)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held >= _tuple_bytes(spec.m, gen.space, True)


def test_genspec_takes_a_field_by_its_name():
    # the command line passes --field as given, a string
    spec = GenSpec(family="sym_odd", n=3, m=3, field="real")
    assert spec.field is Field.REAL
    assert spec == GenSpec(family="sym_odd", n=3, m=3, field=Field.REAL)
    gen = generate(spec)
    assert gen.space.field is Field.REAL
    assert all(f.transfer.dtype == np.float64 for f in gen.maps)


def test_genspec_refuses_an_unknown_field_name():
    with pytest.raises(InvalidParameterError, match="'bogus' is not a valid Field"):
        GenSpec(family="sym_odd", n=3, m=3, field="bogus")


def test_a_scalar_first_draw_of_a_nonextendable_triple_is_drawn_again(monkeypatch):
    # a scalar X extends to a bijective triple, so it is drawn again; the
    # patched draw takes nothing from the generator, so the tuple is the
    # one that an unpatched spec draws
    spec = GenSpec(family="nonextendable", n=3, m=3, seed=4)
    expected = generate(spec)
    draws = [2.0 * np.eye(3, dtype=np.complex128)]
    real_ginibre = families._ginibre
    monkeypatch.setattr(families, "_ginibre", lambda *a: draws.pop() if draws else real_ginibre(*a))
    gen = generate(spec)
    assert not draws
    assert np.array_equal(gen.form.X, expected.form.X)
    assert all(np.array_equal(f.transfer, g.transfer) for f, g in zip(gen.maps, expected.maps))


def test_a_platform_that_reports_no_memory_size_sets_no_bound(monkeypatch):
    def unsupported(name):
        raise OSError(f"sysconf {name} is not supported")

    expected = generate(GenSpec(family="mn_chain", n=3, m=3))
    monkeypatch.setattr(families.os, "sysconf", unsupported)
    assert families._physical_memory() is None
    gen = generate(GenSpec(family="mn_chain", n=3, m=3))
    assert all(np.array_equal(f.transfer, g.transfer) for f, g in zip(gen.maps, expected.maps))
    assert check_preservation(gen.maps).passed
