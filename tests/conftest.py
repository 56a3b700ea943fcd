"""Shared fixtures: ring zoos, seeded generators and property settings."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import settings

from spectop import construction, rings
from spectop import spectrum as sp

F2 = rings.prime_field(2)
F3 = rings.prime_field(3)
F2X = rings.poly_ring(2)
AXES_F2 = rings.symbolic_supplement(F2)
AXES_Q = rings.symbolic_supplement(rings.QQ)
SUPP3 = construction.build_supplement(F2, 3)

# Property tests replay the same examples on every run and keep no database.
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def enumerable_zoo():
    """Enumerable rings with small spectra, mixed kinds."""
    return [
        rings.zmod(12),
        rings.zmod(8),
        rings.zmod(30),
        rings.zmod(210),
        rings.prime_field(5),
        rings.QQ,
        construction.build_supplement(F2, 1),
        construction.build_supplement(F2, 2),
        construction.build_supplement(F3, 3),
        construction.build_supplement(F2, 4),
        construction.build_supplement(rings.QQ, 5),
        rings.product(rings.zmod(4), rings.zmod(9)),
        rings.product(rings.zmod(6), rings.zmod(35)),
        rings.product(rings.zmod(4), rings.zmod(9), rings.zmod(25)),
        rings.product(construction.build_supplement(F2, 2), rings.zmod(4)),
        rings.product(rings.zmod(30), rings.prime_field(3)),
    ]


def symbolic_zoo():
    return [rings.ZZ, F2X, AXES_F2]


def random_symbolic_subset(R, rng):
    """A seeded subset of the symbolic spectrum R: empty, whole, finite or
    cofinite."""
    roll = rng.random()
    if roll < 0.1:
        return sp.empty_set(R)
    if roll < 0.2:
        return sp.whole(R)
    if roll < 0.5:
        return sp.explicit(R, sp.sample_points(R, rng, rng.randint(1, 4)))
    return random_infinite_subset(R, rng, 3)


def random_infinite_subset(R, rng, most=4):
    """A seeded cofinite subset of R leaving out at most `most` sampled
    points; a sampled limit point is left to the flag."""
    excl = sp.sample_points(R, rng, rng.randint(0, most))
    return sp.cofinite(R, set(excl) - {R.limit}, rng.random() < 0.5)


@pytest.fixture
def rng():
    return Random(20260811)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name, for the test, by a
    wrapper that counts its calls by their (hashable) positional
    arguments, and returns the Counter it fills."""

    def install(module, name):
        calls = Counter()
        real = getattr(module, name)

        def counted(*args):
            calls[args] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


def profiled(on_call, fn, *args):
    """fn(*args), with on_call(frame) run for each Python function it
    enters; the profiler in place before comes back afterwards."""

    def profile(frame, event, arg):
        if event == "call":
            on_call(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        return fn(*args)
    finally:
        sys.setprofile(previous)


def bench_queries():
    """bench/queries.py, the query-mix catalog, imported by path and only read."""
    path = Path(__file__).resolve().parents[1] / "bench" / "queries.py"
    spec = importlib.util.spec_from_file_location("bench_queries", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module
