"""The alpha-fair dual against an independent primal oracle.

``oracles.alpha_fair_oracle`` solves the primal programme with SLSQP and
shares no code with ``repro.scale.solver``.  Pinned examples: 200 seeded
small problems (exactly parallel rows, zero-capacity rows, capped flows,
alpha in {1, 2, 4} and per-flow alpha) and every distinct congested
elastic problem of the ``elastic_web_mix`` catalogue timeline at 2,000
clients, solved cold and from the prices the timeline offered.
"""

import numpy as np
import pytest

import repro.scale.solver as solver
from oracles import alpha_fair_oracle
from repro.exceptions import WorkloadError
from repro.scale import build_scenario
from repro.scale.solver import (
    CapacityProblem,
    alpha_fair_allocation,
    verify_alpha_fair,
    verify_max_min,
)

#: Per-flow relative agreement the dual must reach with the oracle.
RTOL = 1e-5
RANDOM_EXAMPLES = 200


def random_problem(seed):
    """A congested elastic problem of at most 12 flows x 6 resources."""
    rng = np.random.default_rng(seed)
    flows = int(rng.integers(2, 13))
    resources = int(rng.integers(1, 7))
    usage = rng.uniform(0.2, 2.0, (resources, flows)) * (rng.random((resources, flows)) < 0.6)
    demands = rng.uniform(0.2, 6.0, flows)
    # Every row overloaded at peak, some far more than others, so some
    # flows end capped at their demand and others are squeezed.
    capacities = rng.uniform(0.2, 0.9, resources) * np.maximum(usage @ demands, 1.0)
    if seed % 4 == 0 and resources > 1:
        # The same constraint in other units, binding or not.
        scale = float(rng.uniform(0.5, 3.0))
        usage[1] = usage[0] * scale
        capacities[1] = capacities[0] * scale * float(rng.uniform(0.8, 1.25))
    if seed % 4 == 1:
        capacities[int(rng.integers(resources))] = 0.0
    if seed % 5 == 0:
        alpha = rng.choice([1.0, 2.0, 4.0], flows)
    else:
        alpha = (1.0, 2.0, 4.0)[seed % 3]
    return CapacityProblem(demands=demands, usage=usage, capacities=capacities,
                           elastic=np.ones(flows, dtype=bool),
                           weights=rng.uniform(0.5, 5.0, flows), alpha=alpha)


def relative_error(rates, reference):
    """Worst per-flow relative error; pinned flows must both be zero."""
    live = reference > 0
    assert (rates[~live] == 0).all()
    return float(np.max(np.abs(rates[live] - reference[live]) / reference[live], initial=0.0))


def oracle(problem, start=None):
    return alpha_fair_oracle(problem.demands, problem.usage, problem.capacities,
                             problem.flow_weights(), problem.alpha, start=start)


@pytest.mark.parametrize("seed", range(RANDOM_EXAMPLES))
def test_random_problem_matches_the_primal_oracle(seed):
    problem = random_problem(seed)
    allocation = alpha_fair_allocation(problem)
    assert relative_error(allocation.rates, oracle(problem)) <= RTOL


def megascale_problem(seed):
    """``random_problem``'s draws with demands (and so capacities) a million
    times larger, no parallel or zero-capacity row, and per-flow alpha on
    every seed."""
    rng = np.random.default_rng(seed)
    flows = int(rng.integers(2, 13))
    resources = int(rng.integers(1, 7))
    usage = rng.uniform(0.2, 2.0, (resources, flows)) * (rng.random((resources, flows)) < 0.6)
    demands = rng.uniform(0.2, 6.0, flows) * 1e6
    capacities = rng.uniform(0.2, 0.9, resources) * np.maximum(usage @ demands, 1.0)
    alpha = rng.choice([1.0, 2.0, 4.0], flows)
    return CapacityProblem(demands=demands, usage=usage, capacities=capacities,
                           elastic=np.ones(flows, dtype=bool),
                           weights=rng.uniform(0.5, 5.0, flows), alpha=alpha)


@pytest.mark.xfail(strict=True, raises=WorkloadError, reason=(
    "at 10^6x demands the alpha-fair dual runs out of its 500-pass budget on "
    "12 of the first 2,000 seeds (seed 120 exits at residual 0.267, seed 313 "
    "at 1.17), where the same draws at 1x demand fail on none"))
@pytest.mark.parametrize("seed", [120, 313])
def test_megascale_problem_converges_within_the_pass_budget(seed):
    problem = megascale_problem(seed)
    allocation = alpha_fair_allocation(problem)
    assert verify_alpha_fair(problem, allocation.rates, allocation.prices) is not None


@pytest.fixture(scope="module")
def web_mix_problems():
    """Every distinct elastic problem of the timeline that reaches the dual,
    in epoch order, with the prices the timeline offered it."""
    seen = {}
    offer = solver.alpha_fair_allocation

    def record(problem, **hints):
        congested = verify_max_min(problem, problem.demands)
        if congested is None or (congested >= 0).any():
            key = b"".join(a.tobytes() for a in (problem.demands, problem.usage,
                                                 problem.capacities))
            seen.setdefault(key, (problem, hints.get("warm_prices")))
        return offer(problem, **hints)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "alpha_fair_allocation", record)
        build_scenario("elastic_web_mix", clients=2000, seed=7).run()
    return list(seen.values())


def test_web_mix_reaches_the_dual_on_distinct_problems(web_mix_problems):
    # The diurnal ramp climbs through four demand levels and back down.
    assert len(web_mix_problems) == 4


def test_web_mix_problems_match_the_primal_oracle(web_mix_problems):
    start = None
    for problem, warm_prices in web_mix_problems:
        # Consecutive epochs are close: the oracle starts from its own
        # previous answer, never from the dual's.
        start = oracle(problem, start)
        cold = alpha_fair_allocation(problem)
        assert cold.iterations > 0
        assert relative_error(cold.rates, start) <= RTOL
        if warm_prices is not None:
            warm = alpha_fair_allocation(problem, warm_prices=warm_prices)
            assert relative_error(warm.rates, start) <= RTOL


def test_the_oracle_reproduces_the_closed_form_chain():
    # Proportional fairness on the two-link chain: 3 rA^2 - 32 rA + 60 = 0.
    a = (32 - np.sqrt(32 ** 2 - 4 * 3 * 60)) / 6
    rates = alpha_fair_oracle(np.full(3, 100.0), np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
                              np.array([10.0, 6.0]), 1.0, 1.0)
    assert rates == pytest.approx([a, 10 - a, 6 - a], rel=1e-7)
