"""Shared test helpers.

Acceptance tests append one "criterion N ... PASS/FAIL" line each to
ACCEPTANCE_LINES; the terminal-summary hook prints them at the end of the run
so the verdicts survive pytest's output capture.
"""
from __future__ import annotations

import numpy as np

from traceprod import LinMap, linmap_from_images, space_basis

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
