import numpy as np
import pytest

from traceprod import (
    FAMILIES,
    Field,
    GenSpec,
    InvalidParameterError,
    check_preservation,
    gen_space_sample,
    generate,
    membership,
    span_of,
)
from traceprod.families import complex_orthogonal, haar_unitary, random_invertible

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
