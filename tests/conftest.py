"""Shared test helpers.

Acceptance tests append one "criterion N ... PASS/FAIL" line each to
ACCEPTANCE_LINES; the terminal-summary hook prints them at the end of the run
so the verdicts survive pytest's output capture.
"""
from __future__ import annotations

import numpy as np

from traceprod import Field, LinMap, SpaceKind, SpaceTag, linmap_from_images, space_basis

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def map_from_action(dom, cod, fn):
    """LinMap realizing A -> fn(A) on the span of dom."""
    els = space_basis(dom).elements
    return linmap_from_images(dom, cod, [fn(A) for A in els])


def basis_stack(tag) -> np.ndarray:
    return np.stack(space_basis(tag).elements)


def move_first_transfer(maps, rel: float) -> list:
    """Copy of `maps` whose first transfer T moves by `rel` of its Frobenius
    norm: T + G * (rel * |T| / |G|), with G Gaussian from default_rng(0)."""
    f = maps[0]
    T = f.transfer
    rng = np.random.default_rng(0)
    G = rng.standard_normal(T.shape)
    if np.iscomplexobj(T):
        G = G + 1j * rng.standard_normal(T.shape)
    moved = T + G * (rel * np.linalg.norm(T) / np.linalg.norm(G))
    return [LinMap(f.domain, f.codomain, moved), *maps[1:]]


def ill_conditioned_diag_preservers() -> dict:
    """Preservers on real diagonal 3 x 3 matrices, built by hand, whose
    parameters are worse conditioned than `from_canonical` accepts: a
    diag_chain with permutation [1, 2, 0], C_1 = diag(1e-4, 1, 1e3),
    C_2 = diag(2, 0.5, 1) and C_3 closing the product, and a diag_pair with
    N = diag(1e-4, 1, 1e3)."""
    tag = SpaceTag(SpaceKind.DIAGONAL, Field.REAL, 3)
    P = np.eye(3)[[1, 2, 0]]  # on diagonal vectors, A -> P^t A P acts as P^t
    c1, c2 = np.array([1e-4, 1.0, 1e3]), np.array([2.0, 0.5, 1.0])
    N = np.diag(c1)
    return {
        "diag_chain": [LinMap(tag, tag, np.diag(c) @ P.T) for c in (c1, c2, 1 / (c1 * c2))],
        "diag_pair": [LinMap(tag, tag, N), LinMap(tag, tag, np.linalg.inv(N).T)],
    }
