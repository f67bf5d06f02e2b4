"""Trace-of-products preservers on matrix spaces.

Tools for checking the identity tr(f1(A1) ... fm(Am)) = tr(A1 ... Am), for
building map tuples that satisfy it, for recovering their canonical
parameters, and for certifying when no such tuple into smaller matrices can
exist.

Every public name is exported lazily (PEP 562): `import traceprod` loads no
submodule, and a name's submodule is imported the first time the name is
read.
"""
import sys
import types

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "decompose": (
            "DecompositionResult", "decompose", "decompose_diag_chain", "decompose_diag_pair",
            "decompose_hermitian", "decompose_mn_chain", "decompose_pn_chain", "decompose_pn_pair",
            "decompose_symmetric", "nonextendable_best_fit_residual", "recover_conjugator",
            "reshuffled_transfer_rank",
        ),
        "errors": (
            "CanonicalStructureError", "DimensionMismatchError", "InconsistentSamplesError",
            "InvalidParameterError", "MembershipError", "NotApplicableError", "PositivityError",
            "PreservationError", "RankDeficientError", "SingularMatrixError", "TraceProdError",
        ),
        "extend": (
            "CheckMode", "InfeasibilityCertificate", "PreservationReport", "check_preservation", "dualize",
            "embed_extend_pair", "extend_from_subset", "infeasibility_certificate",
        ),
        "families": ("FAMILIES", "Generated", "GenSpec", "gen_space_sample", "generate"),
        "linmaps": (
            "FORMS", "CanonicalForm", "DiagChain", "DiagPair", "Hadamard", "HermEven", "HermOdd", "LinMap",
            "MnChain", "NonextendableTriple", "PnPair", "RankOneFrame", "SymEven", "SymOdd", "apply",
            "apply_batch", "complexify", "compose", "from_canonical", "identity_map", "image_stack",
            "is_hermitian_preserving", "linmap_from_images", "transpose_map",
        ),
        "spaces": (
            "DEFAULT_TOL", "Basis", "Field", "SpaceKind", "SpaceTag", "base_field", "coords", "gram_matrix",
            "membership", "random_batch", "random_element", "reassemble", "space_basis", "span_dim",
            "span_of", "trace_pair",
        ),
        "weighted": (
            "PowerMap", "herm_power", "power_map_apply", "verify_weighted", "weighted_canonical_maps",
            "weighted_reduction",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """A public name, imported from its submodule on first use and kept here;
    a submodule of `_EXPORTS` by its own name, as the package once imported
    them all."""
    module = _EXPORTS.get(name, name)
    if module not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which `-X importtime` reports and
    # `importlib.import_module` bypasses
    submodule = __import__(module, globals(), level=1)
    if name not in _EXPORTS:
        return submodule
    value = globals()[name] = getattr(submodule, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _script():
    """The `traceprod` script: `traceprod.cli` run as `__main__`, as `python -m
    traceprod.cli` runs it, so that the collector stays paused from the
    module's first import to `main()`'s freeze. Between an import of `cli`
    and a call of `main()`, one collection would walk numpy's import-time
    objects."""
    import runpy

    runpy.run_module("traceprod.cli", run_name="__main__", alter_sys=True)


class _Package(types.ModuleType):
    """The package module. `traceprod.decompose` is the public function in
    every import order: importing the submodule of that name sets the
    package attribute to the module, which is rebound to its function."""

    def __setattr__(self, name, value):
        if name == "decompose" and isinstance(value, types.ModuleType):
            value = value.decompose
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
