import itertools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from coxlang import CoxeterSystem, parse_system

settings.register_profile(
    "exact", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("exact")

GROUPS = Path(__file__).resolve().parent.parent / "groups"


def _system(fname):
    return parse_system((GROUPS / fname).read_text())


@pytest.fixture(scope="session")
def fig1():
    return _system("fig1.cox")


@pytest.fixture(scope="session")
def a3tilde():
    return _system("a3tilde.cox")


@pytest.fixture(scope="session")
def triangle():
    return _system("triangle_333.cox")


@pytest.fixture(scope="session")
def h237():
    return _system("triangle_237.cox")


@pytest.fixture(scope="session")
def dinf():
    return _system("dihedral_inf.cox")


@pytest.fixture(scope="session")
def single():
    return _system("single.cox")


def diagram(rank, edges):
    """A system from a Coxeter diagram: edges {(i, j): m}, other pairs
    commute (order 2)."""
    names = tuple(f"g{i}" for i in range(rank))
    return CoxeterSystem.from_pairs(
        names, {(names[i], names[j]): edges.get((i, j), 2)
                for i, j in itertools.combinations(range(rank), 2)})


def path_edges(labels):
    """Edges of a path whose k-th edge has order labels[k]."""
    return {(k, k + 1): m for k, m in enumerate(labels)}


_BALLS: dict = {}


@pytest.fixture(scope="session")
def ball():
    """Memoized ball enumeration shared across the whole session."""
    def get(system, radius):
        key = (id(system), radius)
        if key not in _BALLS:
            _BALLS[key] = system.ball(radius)
        return _BALLS[key]
    return get
