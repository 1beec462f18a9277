"""Every enumeration cap: an input one past it is refused before enumeration.

Each case builds the smallest input beyond one ``stocomb.caps`` constant,
with the oracles the enumeration would call replaced by ``forbidden``, and
expects :class:`CapExceeded`.
"""

import itertools
import re
from pathlib import Path

import pytest

from stocomb import caps, gap, model, setfun
from stocomb.boosting import (
    BoostPolicyBuilder,
    IndBoostPolicyBuilder,
    evaluate_policy,
    exact_two_stage_opt,
)
from stocomb.errors import CapExceeded
from stocomb.gap import GapInstance, SplitMap, check_split_invariants
from stocomb.model import (
    Explicit,
    IndependentBernoulli,
    ProblemInstance,
    ScenarioDistribution,
    check_monotone_feasibility,
    check_subadditive,
    exact_opt,
)
from stocomb.saa import GridSpec, Polytope, base_grid, extended_grid, unit_box
from stocomb.sharing import (
    check_fairness,
    check_scheme,
    check_support,
    marginal_scheme,
    measure_strictness,
    zero_shares,
)
from stocomb.solvers import empirical_alpha


def forbidden(*args, **kwargs):
    raise AssertionError("enumerated past the cap")


class ForbiddenDistribution(ScenarioDistribution):
    sample = staticmethod(forbidden)
    support = forbidden


class ForbiddenOutcomes(Explicit):
    support = forbidden


class ForbiddenValues(dict):
    values = items = forbidden


def problem(n_clients, n_elements, sigma=1.0):
    clients = tuple(f"c{i}" for i in range(n_clients))
    elements = tuple(f"e{i}" for i in range(n_elements))
    return ProblemInstance(clients, elements, {e: 1.0 for e in elements}, sigma,
                           forbidden)


def items(n):
    return tuple(f"i{k}" for k in range(n))


def opt_elements(monkeypatch):
    big = problem(1, caps.OPT_ELEMENTS + 1)
    yield lambda: exact_opt(big, frozenset(big.clients))


def support_clients(monkeypatch):
    monkeypatch.setattr(model, "bernoulli_weights", forbidden)
    monkeypatch.setattr(gap, "bernoulli_weights", forbidden)
    ground = items(caps.SUPPORT_CLIENTS + 1)
    yield lambda: IndependentBernoulli(tuple((j, 0.5) for j in ground)).support()
    yield lambda: gap.independent_expectation(
        GapInstance(ground, forbidden, {j: 0.5 for j in ground}))
    # The builtin set functions are tables: refused before reading their
    # entries, so before allocating one.
    yield lambda: setfun.weighted_rank(ForbiddenValues.fromkeys(ground, 1.0), 1.0)
    yield lambda: setfun.coverage(ForbiddenValues.fromkeys(ground, {0}), {0: 1.0})
    # A split past the cap is refused before reading the original table.
    small = items(caps.SUPPORT_CLIENTS)
    yield lambda: gap.split(GapInstance(small, forbidden, {j: 0.5 for j in small}),
                            SplitMap({small[0]: 2}))


def sweeps(big):
    yield lambda: check_subadditive(big)
    yield lambda: check_monotone_feasibility(big)
    yield lambda: check_fairness(forbidden, big)
    yield lambda: check_support(forbidden, big)
    yield lambda: measure_strictness(zero_shares(), None, big)
    yield lambda: empirical_alpha(big)


def subadd_clients(monkeypatch):
    yield from sweeps(problem(caps.SUBADD_CLIENTS + 1, 1))


def subadd_elements(monkeypatch):
    yield from sweeps(problem(1, caps.SUBADD_ELEMENTS + 1))


def draws(monkeypatch):
    two = ForbiddenOutcomes(((frozenset(), 0.5), (frozenset({"c0"}), 0.5)))

    def builder(sigma):
        return BoostPolicyBuilder(problem(1, 1, sigma), None)

    # Two outcomes over one client: the union law costs 2 + 4 (rounds - 1),
    # refused in exact evaluation before the scenario support is listed.
    yield lambda: evaluate_policy(builder(caps.DRAWS // 4 + 1.0), two, "exact")
    yield lambda: builder(caps.DRAWS + 1.0).draw_law(ForbiddenDistribution())
    # Monte-Carlo evaluation: runs x floor(sigma) draws.
    for sigma, runs in ((1.0, caps.DRAWS + 1), (2.0, caps.DRAWS // 2 + 1)):
        yield lambda sigma=sigma, runs=runs: evaluate_policy(
            builder(sigma), ForbiddenDistribution(), "monte_carlo", forbidden, runs)
    monkeypatch.setattr(model, "bernoulli_weights", forbidden)
    # One round of a product law costs its 2^n outcomes.
    marginals = tuple((j, 0.5) for j in items(caps.DRAWS.bit_length()))
    yield lambda: evaluate_policy(IndBoostPolicyBuilder(problem(1, 1), None, marginals),
                                  ForbiddenDistribution(), "exact")


def two_stage(monkeypatch):
    n = caps.TWO_STAGE.bit_length()  # 2^n * 1 outcome exceeds the cap
    big = problem(1, n)
    yield lambda: exact_two_stage_opt(big, Explicit(((frozenset(), 1.0),)))


def scheme_clients(monkeypatch):
    yield lambda: check_scheme(forbidden, forbidden, items(caps.SCHEME_CLIENTS + 1))


def marginal_scheme_cap(monkeypatch):
    yield lambda: marginal_scheme(forbidden, items(caps.MARGINAL_SCHEME + 1))


def gap_clients(monkeypatch):
    ground = items(caps.GAP_CLIENTS + 1)
    yield lambda: gap.worst_case_expectation(
        GapInstance(ground, forbidden, {j: 0.5 for j in ground}))
    small = items(caps.GAP_CLIENTS)
    yield lambda: check_split_invariants(
        GapInstance(small, forbidden, {j: 0.5 for j in small}),
        SplitMap({small[0]: 2}))


def grid_dim(monkeypatch):
    spec = GridSpec(epsilon=0.5, gamma=1.0, lipschitz=1.0, radius=1.0)
    yield lambda: base_grid(spec, unit_box(caps.GRID_DIM + 1))


def grid_points(monkeypatch):
    # One level and unit spacing: n base points extend to n + 2 n^2 points.
    spec = GridSpec(epsilon=1.0, gamma=1.0, lipschitz=1.0, radius=0.5)
    assert (spec.levels, spec.spacing(1)) == (1, 1.0)
    n = next(n for n in itertools.count(1) if n + 2 * n * n > caps.GRID_POINTS)
    yield lambda: extended_grid(spec, Polytope([0.0], [n - 1.0]))


CASES = {
    "OPT_ELEMENTS": opt_elements,
    "SUPPORT_CLIENTS": support_clients,
    "SUBADD_CLIENTS": subadd_clients,
    "SUBADD_ELEMENTS": subadd_elements,
    "DRAWS": draws,
    "TWO_STAGE": two_stage,
    "SCHEME_CLIENTS": scheme_clients,
    "MARGINAL_SCHEME": marginal_scheme_cap,
    "GAP_CLIENTS": gap_clients,
    "GRID_DIM": grid_dim,
    "GRID_POINTS": grid_points,
}


README = Path(__file__).resolve().parent.parent / "README.md"


def cap_constants() -> dict:
    return {name: value for name, value in vars(caps).items()
            if name.isupper() and isinstance(value, int)}


def test_every_cap_has_a_case():
    assert set(cap_constants()) == set(CASES)


def test_the_readme_cap_table_lists_every_cap_and_its_value():
    # Rows read "| `NAME` | 24 |" or "| `NAME` | 10^6 |".
    text = README.read_text(encoding="utf-8")
    table = text.split("### Enumeration caps", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d+)(?:\^(\d+))? \|", table, re.M)
    listed = {name: int(base) ** int(power or 1) for name, base, power in rows}
    assert len(listed) == len(rows)
    assert listed == cap_constants()


@pytest.mark.parametrize("name", list(CASES))
def test_one_past_the_cap_is_refused(name, monkeypatch):
    calls = list(CASES[name](monkeypatch))
    assert calls
    for call in calls:
        with pytest.raises(CapExceeded):
            call()
