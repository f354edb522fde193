import os
from fractions import Fraction
from pathlib import Path

import pytest

import stablefrac as sf

DATA = Path(__file__).parent / "data"

# 30 random markets within (<=4 firms, <=6 workers, q<=3): a dense half picked
# for stable-set structure (multiple stable matchings, multi-rotation reduced
# profiles) and a sparse half for edge cases (thin lists, unmatched agents).
DENSE_SPECS = [
    (912, 4, 4, 1), (940, 4, 6, 2), (16, 4, 4, 1), (20, 4, 6, 2),
    (56, 4, 4, 1), (77, 3, 6, 2), (99, 4, 5, 2), (136, 4, 4, 1),
    (233, 4, 5, 1), (7, 3, 5, 2), (12, 4, 6, 2), (28, 4, 6, 2),
    (40, 4, 4, 1), (41, 4, 5, 1), (42, 4, 6, 1), (94, 4, 6, 3),
    (132, 4, 6, 2), (1, 4, 4, 1),
]
SPARSE_SIZES = [(2, 4, 2), (3, 5, 2), (4, 6, 3), (3, 6, 2), (4, 5, 3), (2, 6, 3)]


def load_market(name: str) -> sf.Market:
    return sf.parse_market((DATA / name).read_text())


def load_fractional(market: sf.Market, name: str) -> sf.FractionalMatching:
    return sf.parse_fractional(market, (DATA / name).read_text())


@pytest.fixture(scope="session")
def market() -> sf.Market:
    return load_market("example.market")


@pytest.fixture(scope="session")
def mu_f(market):
    return sf.deferred_acceptance(market, sf.Side.FIRMS)


@pytest.fixture(scope="session")
def mu_w(market):
    return sf.deferred_acceptance(market, sf.Side.WORKERS)


@pytest.fixture(scope="session")
def x_firm(market, mu_f):
    return sf.incidence_vector(market, mu_f)


@pytest.fixture(scope="session")
def x_worker(market, mu_w):
    return sf.incidence_vector(market, mu_w)


@pytest.fixture(scope="session")
def x_vertex(market):
    return load_fractional(market, "vertex.frac")


@pytest.fixture(scope="session")
def x_mid(x_firm, x_worker):
    return sf.FractionalMatching.linear_combination(
        [(x_firm, Fraction(1, 2)), (x_worker, Fraction(1, 2))])


@pytest.fixture(scope="session")
def fleet() -> list[sf.Market]:
    markets = [sf.gen_random_market(s, nf, nw, q, density=1.0)
               for s, nf, nw, q in DENSE_SPECS]
    for i in range(12):
        nf, nw, q = SPARSE_SIZES[i % len(SPARSE_SIZES)]
        markets.append(sf.gen_random_market(101 + i, nf, nw, q))
    return markets


@pytest.fixture(scope="session")
def fleet_stable(fleet) -> list[list[sf.Matching]]:
    return [sorted(sf.enumerate_stable_bruteforce(m), key=lambda mu: mu.assignment)
            for m in fleet]


@pytest.fixture(scope="session")
def block_market() -> sf.Market:
    """Three worker swaps and one 3-cycle: four rotations at the firm-optimal
    profile, a 16-matching connected set and 24 stable matchings.  f1 has
    quota 2 and keeps w10, which it ranks between the two swapped workers."""
    return load_market("block.market")


def _cyclic_blocks(sizes: list[int]) -> sf.Market:
    """Independent cyclic latin-square blocks, quota 1 everywhere.

    In a block of size m, firm i ranks worker i+k at k and worker j ranks
    firm j+1+k at k (indices mod m).  Its stable matchings are the m shifts
    (firm i employs worker i+s), linked by a chain of m-1 rotations, so the
    market has prod(sizes) stable matchings and sum(m-1) rotations.
    """
    firms, workers, fpref, wpref = [], [], {}, {}
    for b, m in enumerate(sizes):
        fs = [f"f{b}_{i}" for i in range(m)]
        ws = [f"w{b}_{i}" for i in range(m)]
        for i in range(m):
            fpref[fs[i]] = [ws[(i + k) % m] for k in range(m)]
            wpref[ws[i]] = [fs[(i + 1 + k) % m] for k in range(m)]
        firms += fs
        workers += ws
    return sf.Market(firms, workers, {f: 1 for f in firms}, fpref, wpref)


@pytest.fixture(scope="session")
def cyclic_blocks():
    """Factory of cyclic block markets; see ``_cyclic_blocks``."""
    return _cyclic_blocks


@pytest.fixture()
def src_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this checkout's package."""
    return {**os.environ, "PYTHONPATH": str(Path(sf.__file__).resolve().parents[1])}


@pytest.fixture(scope="session")
def twin_cycle_market() -> sf.Market:
    """Two independent worker swaps, so the firm-optimal profile has two rotations."""
    return sf.parse_market("""
firms: f1 f2 f3 f4
workers: w1 w2 w3 w4
quota: f1=1 f2=1 f3=1 f4=1
firm f1: w1 w2
firm f2: w2 w1
firm f3: w3 w4
firm f4: w4 w3
worker w1: f2 f1
worker w2: f1 f2
worker w3: f4 f3
worker w4: f3 f4
""")
