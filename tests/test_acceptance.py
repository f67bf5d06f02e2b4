"""End-to-end acceptance checks.

Each test covers one numbered criterion, runs at the stated tolerances, and
emits exactly one "criterion N ...: PASS/FAIL" line (echoed again in the
terminal summary via conftest).
"""
import dataclasses
import time
import zlib

import numpy as np

from traceprod import (
    FAMILIES,
    DiagChain,
    Field,
    GenSpec,
    HermEven,
    HermOdd,
    InvalidParameterError,
    LinMap,
    PnPair,
    SpaceKind,
    SpaceTag,
    SymOdd,
    apply,
    check_preservation,
    decompose,
    decompose_pn_pair,
    dualize,
    embed_extend_pair,
    from_canonical,
    generate,
    identity_map,
    infeasibility_certificate,
    is_hermitian_preserving,
    linmap_from_images,
    nonextendable_best_fit_residual,
    span_dim,
    verify_weighted,
    weighted_canonical_maps,
)
from conftest import ACCEPTANCE_LINES, basis_stack


def _record(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _cond_bounded(rng, shape, complex_entries, bound=1e3):
    while True:
        M = rng.standard_normal(shape)
        if complex_entries:
            M = M + 1j * rng.standard_normal(shape)
        if np.linalg.cond(M) <= bound:
            return M


def test_criterion_1_forward_all_families():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    seed = 0
    for family in FAMILIES:
        for field in (Field.COMPLEX, Field.REAL):
            for n in range(2, 6):
                for m in range(2, 6):
                    try:
                        spec = GenSpec(family=family, n=n, m=m, field=field, seed=seed)
                    except InvalidParameterError:
                        continue
                    seed += 1
                    gen = generate(spec)
                    report = check_preservation(gen.maps, tol=1e-9, trials=10**4, seed=seed)
                    worst = max(worst, report.max_residual)
                    assert report.passed, (family, field, n, m, report.max_residual)
                    cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0 and cases > 100
    _record(1, "forward direction, all families", ok, f"{cases} cases, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_duality():
    spaces = [
        SpaceTag(SpaceKind.FULL, Field.COMPLEX, 1),
        SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 1),
        SpaceTag(SpaceKind.SYMMETRIC, Field.REAL, 1),
        SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 1),
    ]
    worst_pair = 0.0
    worst_inv = 0.0
    count = 0
    for proto in spaces:
        rng = np.random.default_rng(zlib.crc32(proto.kind.value.encode()))
        for t in range(100):
            n = 1 + t % 4
            tag = SpaceTag(proto.kind, proto.field, n)
            d = span_dim(tag)
            complex_entries = proto.field is Field.COMPLEX and proto.kind is not SpaceKind.HERMITIAN
            T = _cond_bounded(rng, (d, d), complex_entries)
            f = LinMap(tag, tag, T)
            psi = dualize(f)
            report = check_preservation([f, psi], tol=1e-8, mode="exhaustive")
            worst_pair = max(worst_pair, report.max_residual)
            back = dualize(psi)
            err = np.max(np.abs(back.transfer - f.transfer)) / max(1.0, np.max(np.abs(f.transfer)))
            worst_inv = max(worst_inv, err)
            count += 1
    ok = worst_pair <= 1e-8 and worst_inv <= 1e-8 and count == 400
    _record(2, "duality", ok, f"{count} bijections, pair residual {worst_pair:.2e}, involution {worst_inv:.2e}")


ROUND_TRIP_FAMILIES = [
    "mn_chain",
    "herm_odd",
    "herm_even",
    "pn_pair",
    "pn_chain",
    "sym_odd",
    "sym_even",
    "diag_pair",
    "diag_chain",
]


def _round_trip_spec(family: str, i: int) -> GenSpec:
    n = 2 + i % 3
    both_fields = family in ("mn_chain", "pn_chain", "sym_odd", "sym_even", "diag_pair", "diag_chain")
    field = Field.REAL if both_fields and i % 2 else Field.COMPLEX
    if family in ("pn_pair", "diag_pair"):
        m = 2
    elif family in ("herm_odd", "sym_odd"):
        m = 3 + 2 * (i % 2)
    elif family == "herm_even":
        m = 4
    elif family == "sym_even":
        m = 2 if field is Field.REAL else 4
    elif family == "pn_chain":
        m = 2 + i % 4
    else:
        m = 3 + i % 3
    if family == "sym_even" and field is Field.COMPLEX:
        m = 4
    return GenSpec(family=family, n=n, m=m, field=field, seed=1000 + i)


def test_criterion_3_round_trips():
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_scalar = 0.0
    worst_unitary = 0.0
    count = 0
    for family in ROUND_TRIP_FAMILIES:
        for i in range(50):
            spec = _round_trip_spec(family, i)
            gen = generate(spec)
            res = decompose(gen.maps, tol=1e-7)
            worst_resid = max(worst_resid, res.reconstruction_residual)
            assert res.reconstruction_residual <= 1e-7, (family, i, res.reconstruction_residual)
            form = res.form
            if hasattr(form, "c"):
                worst_scalar = max(worst_scalar, abs(np.prod(np.asarray(form.c)) - 1.0))
            if isinstance(form, DiagChain):
                prod = np.eye(spec.n)
                for Ci in form.C:
                    prod = prod @ Ci
                worst_scalar = max(worst_scalar, np.max(np.abs(prod - np.eye(spec.n))))
            if isinstance(form, HermOdd):
                U = form.U
                worst_unitary = max(worst_unitary, np.max(np.abs(U.conj().T @ U - np.eye(spec.n))))
            if isinstance(form, SymOdd):
                O = form.O
                worst_unitary = max(worst_unitary, np.max(np.abs(O.T @ O - np.eye(spec.n))))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = (
        count == 50 * len(ROUND_TRIP_FAMILIES)
        and worst_resid <= 1e-7
        and worst_scalar <= 1e-9
        and worst_unitary <= 1e-8
        and elapsed <= 120.0
    )
    _record(
        3,
        "decomposition round trips",
        ok,
        f"{count} instances, residual {worst_resid:.2e}, scalar {worst_scalar:.2e}, "
        f"unitary {worst_unitary:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_branch_detection():
    rng = np.random.default_rng(4)
    correct = 0
    total = 100
    for t in range(total):
        n = 2 + t % 3
        branch = bool(t % 2)
        tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, n)
        M = _cond_bounded(rng, (n, n), complex_entries=True)
        maps = from_canonical(PnPair(M, transpose=branch), tag)
        res = decompose_pn_pair(maps)
        correct += res.form.transpose is branch
    ok = correct == total
    _record(4, "branch detection", ok, f"{correct}/{total} correct at n in 2..4")


def _witness_violates(maps, tup, tol=1e-3) -> bool:
    prod = np.eye(maps[0].codomain.n, dtype=complex)
    ref = np.eye(tup[0].shape[0], dtype=complex)
    for f, A in zip(maps, tup):
        prod = prod @ apply(f, A)
        ref = ref @ A
    lhs = np.trace(prod)
    rhs = np.trace(ref)
    return abs(lhs - rhs) / max(1.0, abs(rhs)) > tol


def test_criterion_5_negative_controls():
    had = generate(GenSpec(family="hadamard", n=2, m=2, seed=50))
    C = had.form.C
    assert np.ptp(np.abs(C)) > 1e-3  # nonscalar mask
    assert check_preservation(had.maps, tol=1e-9).passed
    triple = [had.maps[0], had.maps[1], identity_map(had.maps[0].domain)]
    rep_h = check_preservation(triple, tol=1e-9)
    had_fails = (not rep_h.passed) and _witness_violates(triple, rep_h.worst_tuple)

    frame = generate(GenSpec(family="rank_one_frame", n=2, m=2, seed=51))
    As = frame.form.A
    assert any(np.max(np.abs(As[0] - A)) > 1e-6 for A in As[1:])  # non-equal frame
    assert check_preservation(frame.maps, tol=1e-9).passed
    triple_f = [frame.maps[0], frame.maps[1], identity_map(frame.maps[0].domain)]
    rep_f = check_preservation(triple_f, tol=1e-9)
    frame_fails = (not rep_f.passed) and _witness_violates(triple_f, rep_f.worst_tuple)

    nx = generate(GenSpec(family="nonextendable", n=2, m=3, seed=52))
    rep_nx = check_preservation(nx.maps, tol=1e-10)
    corner_ok = rep_nx.passed and rep_nx.trials == 64 and rep_nx.max_residual <= 1e-10
    best_fit = nonextendable_best_fit_residual(nx.form, trials=20, seed=0)
    gap_ok = best_fit > 1e-3

    ok = had_fails and frame_fails and corner_ok and gap_ok
    _record(
        5,
        "negative controls",
        ok,
        f"hadamard m=3 residual {rep_h.max_residual:.2e}, frame m=3 residual {rep_f.max_residual:.2e}, "
        f"corner residual {rep_nx.max_residual:.2e} over {rep_nx.trials} tuples, best fit {best_fit:.2e}",
    )


def test_criterion_6_infeasibility():
    ok = True
    details = []
    for n, k in ((2, 1), (3, 2), (4, 3)):
        cert = infeasibility_certificate(n, k, trials=20, seed=6, cutoff_factor=1e-9)
        good = (
            cert.certifies_impossibility
            and cert.gram_lhs_rank <= k * k
            and cert.rank_bound == k * k
            and cert.gram_rhs_rank == n * n
        )
        ok = ok and good
        details.append(f"({n},{k}): lhs {cert.gram_lhs_rank} <= {k * k} < {n * n}")
    _record(6, "infeasibility certificates", ok, "; ".join(details))


def _hermitian_corner_pair(n: int, k: int, seed: int):
    rng = np.random.default_rng(seed)
    S = _cond_bounded(rng, (k, k), complex_entries=True, bound=50.0)
    Sinv = np.linalg.inv(S)
    dom = SpaceTag(SpaceKind.FULL, Field.COMPLEX, n)
    cod = SpaceTag(SpaceKind.FULL, Field.COMPLEX, k)
    pad = np.zeros((n * n, k, k), dtype=np.complex128)
    pad[:, :n, :n] = basis_stack(dom)
    f1 = linmap_from_images(dom, cod, list(S @ pad @ S.conj().T))
    f2 = linmap_from_images(dom, cod, list(Sinv.conj().T @ pad @ Sinv))
    return f1, f2


def test_criterion_7_extension():
    worst_corner = 0.0
    worst_full = 0.0
    herm_ok = True
    count = 0
    for n, k in ((1, 2), (2, 3), (2, 4)):
        for i in range(20):
            f1, f2 = _hermitian_corner_pair(n, k, seed=700 + 37 * i + n + k)
            psi1, psi2 = embed_extend_pair(f1, f2, tol=1e-8)
            for A in basis_stack(f1.domain):
                P = np.zeros((k, k), dtype=complex)
                P[:n, :n] = A
                worst_corner = max(worst_corner, np.max(np.abs(apply(psi1, P) - apply(f1, A))))
                worst_corner = max(worst_corner, np.max(np.abs(apply(psi2, P) - apply(f2, A))))
            report = check_preservation([psi1, psi2], tol=1e-8, mode="exhaustive")
            worst_full = max(worst_full, report.max_residual)
            herm_ok = herm_ok and is_hermitian_preserving(psi1) and is_hermitian_preserving(psi2)
            count += 1
    ok = worst_corner <= 1e-10 and worst_full <= 1e-8 and herm_ok and count == 60
    _record(
        7,
        "extension",
        ok,
        f"{count} pairs, corner {worst_corner:.2e}, full {worst_full:.2e}, hermitian preserved {herm_ok}",
    )


WEIGHTS = (-1.0, 0.5, 1.0, 2.0)


def test_criterion_8_weighted_powers():
    rng = np.random.default_rng(8)
    worst = 0.0
    combos = 0
    # every (alpha, beta) combination on pairs
    for a1 in WEIGHTS:
        for a2 in WEIGHTS:
            for b1 in WEIGHTS:
                for b2 in WEIGHTS:
                    n = 2 + combos % 3
                    tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, n)
                    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                    V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                    M = U @ np.diag(rng.uniform(0.6, 1.6, n)).astype(complex) @ V
                    c1 = rng.uniform(0.5, 2.0)
                    form = HermEven(M, (c1, 1.0 / c1))
                    alpha = (a1, a2)
                    beta = (b1, b2)
                    maps = weighted_canonical_maps(form, alpha, beta, tag)
                    report = verify_weighted(maps, alpha, beta, trials=1000, seed=combos, tol=1e-8)
                    worst = max(worst, report.max_residual)
                    assert report.passed, (alpha, beta, report.max_residual)
                    combos += 1
    # uniform-weight triples on scaled unitary conjugations
    for a in WEIGHTS:
        for b in WEIGHTS:
            n = 2 + combos % 3
            gen = generate(GenSpec(family="pn_chain", n=n, m=3, seed=800 + combos))
            alpha = (a, a, a)
            beta = (b, b, b)
            maps = weighted_canonical_maps(gen.form, alpha, beta, gen.space)
            report = verify_weighted(maps, alpha, beta, trials=1000, seed=combos, tol=1e-8)
            worst = max(worst, report.max_residual)
            assert report.passed, (alpha, beta, report.max_residual)
            combos += 1
    # mismatched control: identity pair cannot relate power 1 to power 2
    tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)
    control = verify_weighted(
        [identity_map(tag), identity_map(tag)], (1.0, 1.0), (2.0, 2.0), trials=1000, seed=0
    )
    control_ok = (not control.passed) and control.max_residual >= 1e-2
    ok = worst <= 1e-8 and control_ok and combos == 256 + 16
    _record(
        8,
        "weighted powers",
        ok,
        f"{combos} weight combinations, max residual {worst:.2e}, control residual {control.max_residual:.2e}",
    )


REAL_FAMILIES = ["mn_chain", "pn_chain", "sym_odd", "sym_even", "diag_pair", "diag_chain"]


def _max_imag(form) -> float:
    worst = 0.0
    for param in dataclasses.fields(form):
        value = getattr(form, param.name)
        items = value if isinstance(value, tuple) else [value]
        for item in items:
            arr = np.asarray(item)
            if np.iscomplexobj(arr):
                worst = max(worst, float(np.max(np.abs(arr.imag))))
    return worst


def test_criterion_9_field_discipline():
    worst = 0.0
    count = 0
    for family in REAL_FAMILIES:
        for i in range(10):
            spec = _round_trip_spec(family, 2 * i + 1)  # odd index forces the real field
            assert spec.field is Field.REAL
            gen = generate(spec)
            res = decompose(gen.maps, tol=1e-7)
            worst = max(worst, _max_imag(res.form))
            count += 1
    ok = worst <= 1e-10 and count == 10 * len(REAL_FAMILIES)
    _record(9, "real field discipline", ok, f"{count} decompositions, max imaginary part {worst:.2e}")
