import time
from functools import lru_cache

import pytest

import orliczkit as ok
from orliczkit.orlicz import ExponentCouple

SESSION_START = time.perf_counter()


def session_elapsed() -> float:
    return time.perf_counter() - SESSION_START


def rho_values(rho):
    """The value function of a generator rho, the first row of its jet."""
    return lambda t: rho(t)[0]


@lru_cache(maxsize=None)
def cached_generator_phi(p: float, q: float, family: str, params: tuple = ()):
    """Generator builds, shared across tests."""
    rho = {
        "powerlog": lambda: ok.power_log_rho(*params),
        "power": lambda: ok.power_rho(*params),
        "min_one": ok.min_one_rho,
        "max_one": ok.max_one_rho,
    }[family]()
    return ok.build_from_generator(ExponentCouple(p, q), rho)


@pytest.fixture(scope="session")
def space3():
    return ok.uniform_space(3)


@pytest.fixture(scope="session")
def space8():
    return ok.uniform_space(8)
