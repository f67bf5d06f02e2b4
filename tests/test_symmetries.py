"""Four symmetries of the trace identity, as a standing test of `decompose`.

The trace is cyclic, so a preserver (f_1, ..., f_m) rotates to the preserver
(f_2, ..., f_m, f_1); and tr(X_1 ... X_m) = tr(X_m^t ... X_1^t), so it also
reverses to (T f_m T, ..., T f_1 T) with T the transpose. Both keep every
family that `decompose` serves in its own form class, but move a different
map into slot 1, the slot the conjugator is read from. The trace is linear in
each factor, so it also rescales to (t_1 f_1, ..., t_m f_m) with t_1 ... t_m
= 1; positive t_i keep a cone preserver on its cone. A real preserver's
transfers, read on the complex span of the same kind, are a complex preserver:
the identity is multilinear, and the real basis is the complex one.
"""
import numpy as np
import pytest

from traceprod import (
    Field, GenSpec, InvalidParameterError, LinMap, SpaceTag, check_preservation, decompose, generate, space_basis,
    span_of,
)
from traceprod.decompose import CERTIFY_TOL
from traceprod.spaces import coords_batch

# every family that decompose serves, with the lengths drawn for it
_LENGTHS = {
    "mn_chain": (3, 4),
    "herm_odd": (3,),
    "herm_even": (4,),
    "pn_pair": (2,),
    "pn_chain": (2, 3, 4),
    "sym_odd": (3,),
    "sym_even": (2, 4),
    "diag_pair": (2,),
    "diag_chain": (3, 4),
}


def _specs():
    for family, lengths in _LENGTHS.items():
        for field in Field:
            for m in lengths:
                for n in (3, 4):
                    for seed in (0, 1):
                        try:
                            spec = GenSpec(family=family, n=n, m=m, field=field, seed=seed)
                        except InvalidParameterError:  # the family does not admit this field or length
                            continue
                        yield pytest.param(spec, id=f"{family}-{field.value}-n{n}-m{m}-s{seed}")


def _rotated(maps) -> list:
    return [*maps[1:], maps[0]]


def _reversed_transposed(maps) -> list:
    space = maps[0].domain
    basis = np.stack(space_basis(space).elements)
    T = coords_batch(space, np.swapaxes(basis, 1, 2)).T  # column k: coordinates of B_k^t
    return [LinMap(space, space, T @ f.transfer @ T) for f in reversed(maps)]


def _rescaled(maps) -> list:
    # t_1 ... t_{m-1} drawn from [0.5, 2], and t_m closes the product to 1
    t = np.random.default_rng(len(maps)).uniform(0.5, 2.0, len(maps) - 1)
    t = [*t, 1.0 / np.prod(t)]
    return [LinMap(f.domain, f.codomain, c * f.transfer) for c, f in zip(t, maps)]


def _certifies_as(maps, form) -> None:
    """The maps pass the check, and decompose puts them in `form`'s class
    without its precheck, within CERTIFY_TOL."""
    assert check_preservation(maps).passed
    result = decompose(maps)
    assert type(result.form) is type(form)
    assert result.diagnostics["precheck_ran"] is False
    assert result.diagnostics["rebuild_delta"] <= CERTIFY_TOL
    assert result.diagnostics["invariant_deviation"] <= CERTIFY_TOL


@pytest.mark.parametrize(
    "transform", [_rotated, _reversed_transposed, _rescaled], ids=["rotated", "reversed", "rescaled"]
)
@pytest.mark.parametrize("spec", _specs())
def test_transformed_preserver_certifies_in_its_form_class(spec, transform):
    gen = generate(spec)
    _certifies_as(transform(list(gen.maps)), gen.form)


@pytest.mark.parametrize("spec", [p for p in _specs() if p.values[0].field is Field.REAL])
def test_real_preserver_on_the_complex_span_certifies_in_its_form_class(spec):
    gen = generate(spec)
    space = SpaceTag(span_of(gen.space).kind, Field.COMPLEX, spec.n)
    _certifies_as([LinMap(space, space, f.transfer.astype(np.complex128)) for f in gen.maps], gen.form)
