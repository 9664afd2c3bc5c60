from __future__ import annotations

import random
from pathlib import Path

import pytest

from dislat import dsl
from dislat.lattice import relabel
from tests.reference import adjunct, chain_lattice, covered_by, enumerate_lower_dismantlable, lt

DATA = Path(__file__).parent / "data"


def load(name: str):
    return dsl.elaborate(dsl.parse_file(str(DATA / name)))


@pytest.fixture(scope="session")
def ex2():
    """10-element worked example: adjunct elements a5, a6, a8; top join-irreducible."""
    return load("ex2.adl")


@pytest.fixture(scope="session")
def fig2():
    """18-element reduction example whose basic block has 9 elements."""
    return load("fig2.adl")


@pytest.fixture(scope="session")
def m2():
    return load("m2.adl")


@pytest.fixture(scope="session")
def m3():
    return load("m3.adl")


@pytest.fixture(scope="session")
def k22():
    return load("k22.adl")


@pytest.fixture(scope="session")
def negssc():
    """0 < p < q < 1 with an extra atom r: fails SSC."""
    return load("negssc.adl")


@pytest.fixture(scope="session")
def chain4():
    return load("chain4.adl")


def random_dismantlable(rng):
    """A general dismantlable lattice: a chain with chains adjoined at random
    pairs a < b that are not covers."""
    lat = chain_lattice([f"b{i}" for i in range(rng.randrange(3, 6))])
    for k in range(rng.randrange(4)):
        pairs = sorted(
            (a, b) for a in lat.labels for b in lat.labels if lt(lat, a, b) and not covered_by(lat, a, b)
        )
        a, b = rng.choice(pairs)
        lat = adjunct(lat, chain_lattice([f"c{k}_{j}" for j in range(rng.randrange(1, 3))]), a, b)
    return lat


@pytest.fixture(scope="session")
def sample_lattices():
    """Every lower dismantlable lattice of at most 10 elements and 300 random
    general dismantlable ones."""
    rng = random.Random(5)
    return [*enumerate_lower_dismantlable(10), *(random_dismantlable(rng) for _ in range(300))]


def leq_meet(lat, x, y):
    """The meet of x and y found from `leq` alone: the common lower bound
    above every other one."""
    lower = [z for z in lat.labels if lat.leq(z, x) and lat.leq(z, y)]
    return next(z for z in lower if all(lat.leq(w, z) for w in lower))


def shuffled_copy(lat, rng):
    """`lat` with its nonzero labels shuffled among themselves; the bottom
    keeps its label, so the copy still has an `.adl` form."""
    nonzero = [x for x in lat.labels if x != lat.bottom_label]
    image = nonzero[:]
    rng.shuffle(image)
    return relabel(lat, {lat.bottom_label: lat.bottom_label, **dict(zip(nonzero, image))})
