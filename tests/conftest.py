"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import backend
from repro.graphs import generators as gen
from repro.graphs.builder import from_edges


def pytest_addoption(parser):
    parser.addoption(
        "--kernel-backend",
        metavar="NAME",
        help="process-default kernel backend for the whole session "
        "(set_default_backend); pool workers forked later inherit it",
    )


def pytest_configure(config):
    name = config.getoption("--kernel-backend")
    if name:
        try:
            backend.set_default_backend(name)
        except ValueError as exc:
            raise pytest.UsageError(str(exc)) from None


@pytest.fixture
def restore_default_backend(monkeypatch):
    """Put back the session's default backend, not ``auto``, afterwards."""
    monkeypatch.setattr(backend, "_default_override", backend._default_override)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def triangle():
    """K3 with distinct weights."""
    return from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)], name="triangle")


@pytest.fixture
def small_grid():
    return gen.grid(4, 4)


@pytest.fixture
def small_torus():
    return gen.torus(4, 4)


@pytest.fixture
def small_hypercube():
    return gen.hypercube(4)


@pytest.fixture
def ba_graph():
    return gen.barabasi_albert(300, 3, seed=7)


@pytest.fixture
def figure3_gp():
    """The paper's Figure 3 processor graph: a 6-cycle.

    Figure 3 shows a hexagonal Gp with two convex cuts drawn; C6 is the
    canonical 2-dimensional partial cube with 3 Djokovic classes, we use
    it as the running example.
    """
    return gen.cycle(6)
