"""Solver tests: max-min and alpha-fair allocations, invariants, warm starts."""

import math

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.scale.solver import (
    _TOL,
    CapacityProblem,
    alpha_fair_allocation,
    max_min_allocation,
    solve_allocation,
    verify_alpha_fair,
    verify_max_min,
)


def single_bottleneck(demands, capacity, unit=1.0):
    demands = np.asarray(demands, dtype=float)
    return CapacityProblem(
        demands=demands,
        usage=np.full((1, demands.size), unit),
        capacities=np.array([capacity], dtype=float),
    )


class TestMaxMin:
    def test_equal_demands_split_evenly(self):
        allocation = max_min_allocation(single_bottleneck([10, 10, 10, 10], 20.0))
        assert np.allclose(allocation.rates, 5.0)
        assert (allocation.bottleneck == 0).all()

    def test_small_demand_is_met_and_rest_shared(self):
        # The textbook max-min example: demands 2, 10, 10 on capacity 10
        # give 2 to the small flow and split the remaining 8 fairly.
        allocation = max_min_allocation(single_bottleneck([2, 10, 10], 10.0))
        assert np.allclose(allocation.rates, [2.0, 4.0, 4.0])
        assert allocation.bottleneck[0] == -1  # demand-limited
        assert allocation.bottleneck[1] == 0 and allocation.bottleneck[2] == 0

    def test_uncongested_everyone_gets_demand(self):
        allocation = max_min_allocation(single_bottleneck([3, 4, 5], 100.0))
        assert np.allclose(allocation.rates, [3, 4, 5])
        assert (allocation.bottleneck == -1).all()

    def test_heterogeneous_usage_coefficients(self):
        # Flow 1's packets are twice as big: at the fair point both flows get
        # the same *rate* r with r + 2r = 12 → r = 4.
        problem = CapacityProblem(
            demands=np.array([100.0, 100.0]),
            usage=np.array([[1.0, 2.0]]),
            capacities=np.array([12.0]),
        )
        allocation = max_min_allocation(problem)
        assert np.allclose(allocation.rates, [4.0, 4.0])

    def test_two_resource_chain(self):
        # Flow A crosses both resources, B only the first, C only the second.
        # Capacities 10 and 6: the second resource is tighter, so A and C
        # settle at 3 there, then B fills the first resource's remainder.
        problem = CapacityProblem(
            demands=np.array([100.0, 100.0, 100.0]),
            usage=np.array([
                [1.0, 1.0, 0.0],
                [1.0, 0.0, 1.0],
            ]),
            capacities=np.array([10.0, 6.0]),
        )
        allocation = max_min_allocation(problem)
        assert np.allclose(allocation.rates, [3.0, 7.0, 3.0])
        assert allocation.bottleneck[0] == 1 and allocation.bottleneck[1] == 0

    def test_feasibility_and_utilization(self):
        rng = np.random.default_rng(5)
        problem = CapacityProblem(
            demands=rng.uniform(0.5, 5.0, size=30),
            usage=rng.uniform(0.0, 2.0, size=(6, 30)),
            capacities=rng.uniform(5.0, 30.0, size=6),
        )
        allocation = max_min_allocation(problem)
        used = problem.usage @ allocation.rates
        assert (used <= problem.capacities * (1 + 1e-6)).all()
        assert (allocation.rates <= problem.demands * (1 + 1e-6)).all()
        assert (allocation.utilization(problem) <= 1 + 1e-6).all()
        # Max-min property: every flow is demand-limited or crosses a
        # saturated resource.
        saturated = used >= problem.capacities * (1 - 1e-6)
        demand_limited = allocation.rates >= problem.demands * (1 - 1e-6)
        crosses_saturated = (problem.usage[saturated] > 1e-12).any(axis=0)
        assert (demand_limited | crosses_saturated).all()

    def test_zero_demand_flows_stay_zero(self):
        allocation = max_min_allocation(single_bottleneck([0.0, 5.0], 4.0))
        assert allocation.rates[0] == 0.0 and allocation.rates[1] == pytest.approx(4.0)

    def test_zero_capacity_resource_kills_crossing_flows(self):
        problem = CapacityProblem(
            demands=np.array([5.0, 5.0]),
            usage=np.array([[1.0, 0.0], [0.0, 1.0]]),
            capacities=np.array([0.0, 10.0]),
        )
        allocation = max_min_allocation(problem)
        assert allocation.rates[0] == 0.0
        assert allocation.rates[1] == pytest.approx(5.0)
        assert allocation.bottleneck[0] == 0

    def test_tiny_usage_coefficients_still_constrain(self):
        # Regression: membership tests must be exact-zero, not epsilon — the
        # scenario's cpu-seconds-per-bit coefficients are ~1e-10 and were once
        # invisible to the solver, letting it return infeasible rates.
        problem = CapacityProblem(
            demands=np.array([1e12]),
            usage=np.array([[1e-10]]),
            capacities=np.array([50.0]),
        )
        allocation = max_min_allocation(problem)
        used = (problem.usage @ allocation.rates).item()
        assert used <= 50.0 * (1 + 1e-6)
        assert allocation.rates[0] == pytest.approx(50.0 / 1e-10)
        assert allocation.bottleneck[0] == 0

    def test_determinism(self):
        problem = single_bottleneck([1, 2, 3, 4, 5], 7.5)
        first = max_min_allocation(problem)
        second = max_min_allocation(problem)
        assert np.array_equal(first.rates, second.rates)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            CapacityProblem(
                demands=np.array([1.0, 2.0]),
                usage=np.ones((1, 3)),
                capacities=np.array([1.0]),
            )

    def test_negative_inputs_rejected(self):
        with pytest.raises(WorkloadError):
            CapacityProblem(
                demands=np.array([-1.0]),
                usage=np.ones((1, 1)),
                capacities=np.array([1.0]),
            )


def max_min_fill_loop(problem):
    """The cold progressive fill of :func:`max_min_allocation` with the
    per-resource attribution loops it replaced.  Returns ``(rates,
    bottleneck, contested)``: ``contested`` counts the flows frozen at a pass
    while crossing more than one saturated (or dead) resource, where the
    attribution order decides the answer."""
    demands, usage = problem.demands, problem.usage
    capacities = problem.capacities.astype(np.float64).copy()
    rates = np.zeros(problem.n_flows)
    bottleneck = np.full(problem.n_flows, -1, dtype=np.int64)
    active = demands > 0
    contested = 0
    dead = (usage[capacities <= 0] > 0).any(axis=0) if (capacities <= 0).any() else None
    if dead is not None and dead.any():
        contested += int(((usage[capacities <= 0] > 0).sum(axis=0)[active] > 1).sum())
        for resource in np.flatnonzero(capacities <= 0):
            hit = active & (usage[resource] > 0) & (bottleneck == -1)
            bottleneck[hit] = resource
        active &= ~dead
    while active.any():
        used = usage @ rates
        slack = capacities - used
        active_usage = usage @ active.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            headroom = np.where(active_usage > 0, slack / active_usage, np.inf)
        headroom = np.maximum(headroom, 0.0)
        remaining = demands[active] - rates[active]
        increment = min(headroom.min(initial=np.inf), remaining.min())
        rates[active] += increment
        met = active & (rates >= demands - np.maximum(demands, 1.0) * _TOL)
        active &= ~met
        saturated = np.flatnonzero(
            (active_usage > 0)
            & (headroom <= increment + np.maximum(capacities, 1.0) * _TOL)
        )
        if saturated.size:
            crossing = active & (usage[saturated] > 0).any(axis=0)
            if crossing.any():
                contested += int(((usage[saturated] > 0).sum(axis=0)[crossing] > 1).sum())
                for resource in saturated:
                    hit = crossing & (usage[resource] > 0) & (bottleneck == -1)
                    bottleneck[hit] = resource
                active &= ~crossing
    return rates, bottleneck, contested


def tied_problem(rng):
    """A random problem built to saturate several resources in one pass:
    small integer usage and capacities, some resource rows repeated with
    their capacity (parallel constraints that bind together), and now and
    then a zero-capacity resource."""
    flows = int(rng.integers(2, 30))
    base = int(rng.integers(1, 6))
    usage = rng.integers(0, 3, size=(base, flows)).astype(float)
    usage[rng.integers(0, base, flows), np.arange(flows)] += 1.0  # no free flow
    capacities = rng.integers(0 if rng.random() < 0.2 else 1, 8, size=base).astype(float)
    copies = rng.integers(0, base, int(rng.integers(0, 2 * base + 1)))
    usage = np.concatenate([usage, usage[copies]])
    capacities = np.concatenate([capacities, capacities[copies]])
    order = rng.permutation(usage.shape[0])
    demands = rng.choice([0.0, 1.0, 2.0, 100.0], size=flows, p=[0.1, 0.2, 0.2, 0.5])
    return CapacityProblem(demands=demands, usage=usage[order],
                           capacities=capacities[order])


class TestBottleneckAttribution:
    def test_equals_the_per_resource_loop_on_tied_problems(self):
        rng = np.random.default_rng(2006)
        filled = contested = dead = 0
        for _ in range(600):
            problem = tied_problem(rng)
            allocation = max_min_allocation(problem)
            if allocation.iterations == 0:
                continue  # the demand certificate answered: no fill ran
            rates, bottleneck, ties = max_min_fill_loop(problem)
            assert np.array_equal(allocation.rates, rates)
            assert np.array_equal(allocation.bottleneck, bottleneck)
            filled += 1
            contested += ties
            dead += bool((problem.capacities <= 0).any())
        assert filled > 500 and contested > 2_000 and dead > 10


class TestVerifyMaxMin:
    """The optimality certificate gating the warm-start fast path."""

    def test_accepts_the_fair_split_with_attribution(self):
        problem = single_bottleneck([10, 10], 10.0)
        bottleneck = verify_max_min(problem, np.array([5.0, 5.0]))
        assert bottleneck is not None and (bottleneck == 0).all()

    def test_accepts_met_demands_as_demand_limited(self):
        problem = single_bottleneck([3, 4], 100.0)
        bottleneck = verify_max_min(problem, np.array([3.0, 4.0]))
        assert bottleneck is not None and (bottleneck == -1).all()
        assert bottleneck.dtype == np.int64
        # Met demands that exactly fill the link are still demand-limited.
        saturated = single_bottleneck([5, 5], 10.0)
        assert verify_max_min(saturated, np.array([5.0, 5.0])).tolist() == [-1, -1]

    def test_rejects_feasible_but_unfair(self):
        # [3, 7] saturates the link but is not max-min: flow 0 could be
        # raised by lowering the better-off flow 1.
        problem = single_bottleneck([10, 10], 10.0)
        assert verify_max_min(problem, np.array([3.0, 7.0])) is None

    def test_rejects_underfull(self):
        problem = single_bottleneck([10, 10], 10.0)
        assert verify_max_min(problem, np.array([4.0, 4.0])) is None

    def test_rejects_infeasible_and_overdemand(self):
        problem = single_bottleneck([10, 10], 10.0)
        assert verify_max_min(problem, np.array([6.0, 6.0])) is None
        problem2 = single_bottleneck([2, 2], 10.0)
        assert verify_max_min(problem2, np.array([3.0, 3.0])) is None

    def test_rejects_wrong_shape(self):
        problem = single_bottleneck([10, 10], 10.0)
        assert verify_max_min(problem, np.array([5.0, 5.0, 5.0])) is None

    def test_certifies_every_cold_solution_on_random_problems(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            flows = int(rng.integers(2, 30))
            resources = int(rng.integers(1, 8))
            problem = CapacityProblem(
                demands=rng.uniform(0.1, 5.0, flows),
                usage=rng.uniform(0, 2.0, (resources, flows))
                * (rng.random((resources, flows)) < 0.6),
                capacities=rng.uniform(1.0, 30.0, resources),
            )
            allocation = max_min_allocation(problem)
            assert verify_max_min(problem, allocation.rates) is not None, trial
            # And a perturbed copy must not certify when congested.
            if (allocation.rates < problem.demands * 0.99).any():
                skewed = allocation.rates * rng.uniform(0.5, 0.95, flows)
                assert verify_max_min(problem, skewed) is None


def chain_problem(alpha, elastic=None, demands=100.0):
    """Flow A crosses both links, B only the first, C only the second."""
    return CapacityProblem(
        demands=np.full(3, demands),
        usage=np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
        capacities=np.array([10.0, 6.0]),
        elastic=np.ones(3, dtype=bool) if elastic is None else elastic,
        alpha=alpha,
    )


class TestElastic:
    def test_proportional_fairness_on_the_chain(self):
        # Closed form: 1/rA = 1/(10-rA) + 1/(6-rA) → 3rA^2 - 32rA + 60 = 0.
        expected_a = (32 - math.sqrt(32 ** 2 - 4 * 3 * 60)) / 6
        allocation = alpha_fair_allocation(chain_problem(1.0))
        assert allocation.rates[0] == pytest.approx(expected_a, rel=1e-3)
        assert allocation.rates[1] == pytest.approx(10 - expected_a, rel=1e-3)
        assert allocation.rates[2] == pytest.approx(6 - expected_a, rel=1e-3)

    def test_alpha_inf_recovers_max_min_exactly(self):
        elastic = alpha_fair_allocation(chain_problem(math.inf))
        inelastic = max_min_allocation(CapacityProblem(
            demands=np.full(3, 100.0),
            usage=np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
            capacities=np.array([10.0, 6.0]),
        ))
        assert np.array_equal(elastic.rates, inelastic.rates)
        assert elastic.iterations == inelastic.iterations
        assert elastic.prices is not None and (elastic.prices == 0).all()

    def test_growing_alpha_approaches_max_min(self):
        # Mo & Walrand: the alpha-fair family converges to max-min ([3,7,3]).
        target = np.array([3.0, 7.0, 3.0])
        deviations = []
        for alpha in (1.0, 2.0, 8.0, 16.0):
            rates = alpha_fair_allocation(chain_problem(alpha)).rates
            deviations.append(np.abs(rates - target).max())
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] < 0.01

    def test_demand_caps_respected_and_certificate_fires(self):
        allocation = alpha_fair_allocation(chain_problem(2.0, demands=2.0))
        assert allocation.iterations == 0  # demands feasible: peak for all
        assert np.allclose(allocation.rates, 2.0)
        assert (allocation.bottleneck == -1).all()

    def test_feasibility_on_random_problems(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            flows = int(rng.integers(2, 40))
            resources = int(rng.integers(1, 10))
            problem = CapacityProblem(
                demands=rng.uniform(0.1, 5.0, flows),
                usage=rng.uniform(0, 2.0, (resources, flows))
                * (rng.random((resources, flows)) < 0.6),
                capacities=rng.uniform(1.0, 30.0, resources),
                elastic=rng.random(flows) < 0.7,
                weights=rng.uniform(0.5, 10.0, flows),
                alpha=float(rng.uniform(0.8, 4.0)),
            )
            allocation = solve_allocation(problem)
            used = problem.usage @ allocation.rates
            assert (used <= problem.capacities * (1 + 1e-6)).all(), trial
            assert (allocation.rates <= problem.demands * (1 + 1e-6)).all(), trial
            assert (allocation.rates >= 0).all(), trial

    def test_weights_buy_per_client_fairness(self):
        # A 9-client aggregate with weight 9 and usage 9x must end up with
        # the same per-client rate as a single client on the same link.
        problem = CapacityProblem(
            demands=np.array([100.0, 100.0]),
            usage=np.array([[9.0, 1.0]]),
            capacities=np.array([10.0]),
            elastic=np.ones(2, dtype=bool),
            weights=np.array([9.0, 1.0]),
            alpha=2.0,
        )
        rates = alpha_fair_allocation(problem).rates
        assert rates[0] == pytest.approx(rates[1], rel=1e-3)

    def test_mixed_inelastic_priority(self):
        # CBR voip (demand 4) does not back off; TCP-like flows share what
        # is left of the 10-unit link.
        problem = CapacityProblem(
            demands=np.array([4.0, 100.0, 100.0]),
            usage=np.ones((1, 3)),
            capacities=np.array([10.0]),
            elastic=np.array([False, True, True]),
            alpha=2.0,
        )
        allocation = solve_allocation(problem)
        assert allocation.rates[0] == pytest.approx(4.0)
        assert allocation.rates[1] == pytest.approx(3.0, rel=1e-3)
        assert allocation.rates[2] == pytest.approx(3.0, rel=1e-3)
        assert allocation.bottleneck[0] == -1  # demand-limited

    def test_zero_capacity_pins_elastic_flows(self):
        problem = CapacityProblem(
            demands=np.array([5.0, 5.0]),
            usage=np.array([[1.0, 0.0], [0.0, 1.0]]),
            capacities=np.array([0.0, 10.0]),
            elastic=np.ones(2, dtype=bool),
        )
        allocation = alpha_fair_allocation(problem)
        assert allocation.rates[0] == 0.0
        assert allocation.rates[1] == pytest.approx(5.0)

    def test_mixed_finite_and_infinite_alpha_rejected(self):
        with pytest.raises(WorkloadError, match="alpha"):
            CapacityProblem(
                demands=np.array([1.0, 1.0]),
                usage=np.ones((1, 2)),
                capacities=np.array([1.0]),
                elastic=np.ones(2, dtype=bool),
                alpha=np.array([2.0, math.inf]),
            )

    def test_an_exhausted_pass_budget_raises_instead_of_answering(self):
        # One pass cannot settle the congested chain.  The dual used to
        # project its unconverged iterate and return [3, 5, 3] with no
        # signal; it must name the budget and the residual instead.
        with pytest.raises(WorkloadError, match=r"did not converge in 1 passes \(residual"):
            alpha_fair_allocation(chain_problem(2.0), max_iterations=1)

    def test_residual_reports_the_converged_load_error(self):
        allocation = alpha_fair_allocation(chain_problem(2.0))
        assert allocation.rates == pytest.approx([2.87, 7.13, 3.13], abs=5e-3)
        assert 0.0 <= allocation.residual <= 1e-5
        certified = alpha_fair_allocation(chain_problem(2.0, demands=2.0))
        assert certified.iterations == 0 and certified.residual == 0.0

    def test_parallel_rows_price_only_the_binding_one(self):
        # Rows 0 and 1 are one constraint in two units (row 1 is row 0
        # times 1e9, capacity too): one price, not two arbitrary shares,
        # and the bottleneck attribution names the row that carries it.
        problem = CapacityProblem(
            demands=np.array([100.0, 100.0, 100.0]),
            usage=np.array([[1.0, 2.0, 0.0], [1e9, 2e9, 0.0], [0.0, 1.0, 1.0]]),
            capacities=np.array([10.0, 1e10, 8.0]),
            elastic=np.ones(3, dtype=bool),
            alpha=2.0,
        )
        allocation = alpha_fair_allocation(problem)
        assert allocation.prices[0] > 0 and allocation.prices[1] == 0.0
        assert allocation.bottleneck[0] == 0
        assert verify_alpha_fair(problem, allocation.rates, allocation.prices) is not None

    def test_invalid_elastic_inputs_rejected(self):
        with pytest.raises(WorkloadError):
            CapacityProblem(demands=np.array([1.0]), usage=np.ones((1, 1)),
                            capacities=np.array([1.0]),
                            elastic=np.array([True, False]))
        with pytest.raises(WorkloadError):
            CapacityProblem(demands=np.array([1.0]), usage=np.ones((1, 1)),
                            capacities=np.array([1.0]),
                            weights=np.array([0.0]))
        with pytest.raises(WorkloadError):
            CapacityProblem(demands=np.array([1.0]), usage=np.ones((1, 1)),
                            capacities=np.array([1.0]), alpha=0.0)


class TestElasticWarmStart:
    def test_kkt_certificate_accepts_a_solution(self):
        problem = chain_problem(2.0)
        cold = alpha_fair_allocation(problem)
        attribution = verify_alpha_fair(problem, cold.rates, cold.prices)
        assert attribution is not None
        assert (attribution >= 0).all()  # every flow congested somewhere

    def test_certificate_delegates_at_alpha_inf(self):
        # The max-min limit is solved by delegation; its certificate must
        # delegate too (the KKT closed form is meaningless at 1/alpha = 0).
        problem = chain_problem(math.inf)
        allocation = alpha_fair_allocation(problem)
        attribution = verify_alpha_fair(problem, allocation.rates,
                                        allocation.prices)
        assert attribution is not None
        assert np.array_equal(attribution, allocation.bottleneck)

    def test_warm_start_returns_the_same_answer(self):
        problem = chain_problem(2.0)
        cold = alpha_fair_allocation(problem)
        warm = alpha_fair_allocation(problem, warm_start=cold.rates,
                                     warm_prices=cold.prices)
        assert warm.warm_started and warm.iterations == 0
        assert np.array_equal(warm.rates, cold.rates)

    def test_bad_hints_fall_back_to_the_dual(self):
        problem = chain_problem(2.0)
        cold = alpha_fair_allocation(problem)
        skewed = alpha_fair_allocation(
            problem,
            warm_start=cold.rates * 0.2,
            warm_prices=cold.prices * 50.0,
        )
        assert not skewed.warm_started
        assert np.allclose(skewed.rates, cold.rates, rtol=5e-3)

    def test_stale_hint_rejected_at_bps_scales(self):
        # Regression: the KKT certificate's "priced" threshold must be
        # problem-scaled — at bps-sized demands the equilibrium prices sit
        # near 1e-13, and an absolute floor skipped complementary
        # slackness, certifying a stale warm start after a capacity
        # restoration and leaving an elastic flow 33% under-served.
        def problem(capacity):
            return CapacityProblem(
                demands=np.array([2e5, 3e6]),
                usage=np.array([[1000.0, 0.0], [0.0, 1000.0]]),
                capacities=np.array([2e8, capacity]),
                elastic=np.ones(2, dtype=bool),
                weights=np.array([1000.0, 1000.0]),
                alpha=2.0,
            )
        congested = alpha_fair_allocation(problem(2e9))
        assert congested.rates[1] < 3e6  # genuinely congested
        restored = alpha_fair_allocation(problem(4e9),
                                         warm_start=congested.rates,
                                         warm_prices=congested.prices)
        assert restored.rates[1] == pytest.approx(3e6, rel=1e-3)

    def test_mixed_solve_warm_start_round_trip(self):
        rng = np.random.default_rng(7)
        flows, resources = 30, 6
        problem = CapacityProblem(
            demands=rng.uniform(0.5, 5.0, flows),
            usage=rng.uniform(0, 2.0, (resources, flows)),
            capacities=rng.uniform(5.0, 20.0, resources),
            elastic=rng.random(flows) < 0.5,
            alpha=2.0,
        )
        cold = solve_allocation(problem)
        warm = solve_allocation(problem, warm_start=cold.rates,
                                warm_prices=cold.prices)
        assert warm.warm_started and warm.iterations == 0
        assert np.array_equal(warm.rates, cold.rates)


class TestWarmStart:
    def test_demand_certificate_fires_without_a_hint(self):
        allocation = max_min_allocation(single_bottleneck([3, 4, 5], 100.0))
        assert allocation.iterations == 0
        assert not allocation.warm_started
        assert np.allclose(allocation.rates, [3, 4, 5])

    def test_hint_reuse_returns_the_exact_optimum(self):
        problem = single_bottleneck([2, 10, 10], 10.0)
        cold = max_min_allocation(problem)
        warm = max_min_allocation(problem, warm_start=cold.rates)
        assert warm.warm_started and warm.iterations == 0
        assert np.array_equal(warm.rates, cold.rates)
        assert np.array_equal(warm.bottleneck, cold.bottleneck)

    def test_bad_hints_fall_back_to_the_cold_fill(self):
        problem = single_bottleneck([2, 10, 10], 10.0)
        for hint in (np.array([9.0, 9.0, 9.0]),       # infeasible
                     np.array([1.0, 1.0, 1.0]),        # underfull
                     np.array([1.0, 2.0])):            # wrong shape
            allocation = max_min_allocation(problem, warm_start=hint)
            assert not allocation.warm_started
            assert np.allclose(allocation.rates, [2.0, 4.0, 4.0])
