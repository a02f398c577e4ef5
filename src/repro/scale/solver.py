"""Fair capacity allocation, vectorized over flows × resources.

This is the fairness model under the paper's claim that the neutral domain
serves everyone alike: when demand exceeds a neutralizer fleet's capacity,
load is shed max-min fairly per client rather than by the access ISP's
preferences.  The fluid model reduces a deployment to a small linear
structure: each *flow*
is an aggregate of identical clients (one (region, class, site) group) with a
demand rate, and each *resource* is a shared capacity (a regional uplink in
bits/s, a site uplink in bits/s, a site CPU in core-seconds/s).  The usage
matrix says how much of each resource one unit of flow rate consumes, so
feasibility is ``usage @ rates <= capacities``.

Two demand families share the problem structure:

*Inelastic* flows (CBR media, the default) offer a fixed rate and do not
back off; congestion means the domain sheds their excess max-min fairly.
:func:`max_min_allocation` computes that point by progressive filling
expressed as a fixed-point iteration on numpy arrays: all unfrozen flows are
raised by the largest common increment any resource allows, flows that hit
their demand or cross a newly saturated resource freeze, and the loop
repeats until every flow is frozen.  Each pass is O(R×F) vectorized work and
at least one flow freezes per pass, so the iteration count is bounded by the
number of flows — a few hundred groups even for a million-client population.

*Elastic* flows (TCP-like transfers) adapt their rate to congestion:
:func:`alpha_fair_allocation` computes the weighted alpha-fair operating
point (Mo & Walrand's family — alpha 1 is proportional fairness, alpha ~2 is
TCP-like, and the alpha → ∞ limit *is* max-min) on the dual: each resource
carries a congestion price, each flow's rate is the closed-form utility
inverse of its path price capped at its peak demand, and the prices solve a
convex minimisation.  A presolve keeps one row per group of exactly parallel
resource rows (a site's uplink and CPU), then a safeguarded projected Newton
method — Hessian ``A diag(r / (alpha q)) A^T`` over the uncapped flows,
backtracking on the dual objective — converges in a handful of passes, each
O(R×F) work plus one small R×R solve.  A solve that does not converge
within its pass budget raises rather than return an unconverged point.
Mixed populations are
composed by :func:`solve_allocation`: inelastic flows are served first
(CBR sources do not yield), elastic flows share the residual alpha-fairly —
the same priority a FIFO bottleneck gives non-responsive traffic over
congestion-controlled flows.

Time-stepped callers (:mod:`repro.scale.timeline`) solve a long sequence of
nearby problems, so the solver also supports *warm starts*: a candidate
allocation (the previous epoch's rates clipped to the new demands, or the
demands themselves) is accepted without any filling if it satisfies the
relevant optimality certificate — the Bertsekas & Gallager bottleneck
condition for max-min (:func:`verify_max_min`), the KKT conditions
(stationarity + complementary slackness) for alpha fairness
(:func:`verify_alpha_fair`).  Each check is a constant number of O(R×F)
passes versus several for a solve, and it either certifies exactly the
fair point or falls back to the cold solve, so warm starts can never change
the answer, only the time to reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import WorkloadError
from .telemetry import NULL, Telemetry

#: Relative slack used to call a resource saturated / a demand met.
#: Membership tests (does a flow use a resource at all) are exact-zero
#: comparisons instead: usage coefficients can be legitimately tiny.
_TOL = 1e-9
#: Congestion prices below this floor count as zero (resource unpriced)
#: when the problem offers no scale of its own (see ``_kkt_price_floor``):
#: the floor is where "positive" ends and complementary slackness starts
#: being enforced.
_PRICE_FLOOR = 1e-12
#: Relative tolerance of the alpha-fair dual's exit: overshoot within it,
#: priced undershoot within ten times it.
_ALPHA_TOL = 1e-6
#: Pass budget of one alpha-fair dual solve; running out raises.
_DUAL_PASSES = 500
#: Step halvings one pass's line search may try.
_BACKTRACKS = 30
#: Iteration budget of a row's balance-price search (safeguarded Newton).
_BALANCE_ITERATIONS = 60
#: Relative stationarity slack of the KKT warm-start certificate: a
#: neighbouring epoch's answer is accepted within it.
_KKT_RTOL = 1e-2
#: Relative load deficit a priced resource may show in the KKT certificate
#: and still count as saturated.
_KKT_SLACK = 6e-3


@dataclass
class CapacityProblem:
    """Flows with demands, resources with capacities, and the usage coupling."""

    #: Demand rate per flow (units/s; units are whatever the caller chose,
    #: e.g. "client-equivalents" so fairness is per client).  For elastic
    #: flows this is the *peak* rate — what the flow takes when uncongested.
    demands: np.ndarray
    #: ``usage[r, f]``: resource-r units consumed by one unit of flow f.
    usage: np.ndarray
    #: Capacity per resource (resource units/s).
    capacities: np.ndarray
    flow_labels: List[str] = field(default_factory=list)
    resource_labels: List[str] = field(default_factory=list)
    #: Per-flow elasticity mask: ``True`` flows adapt their rate alpha-fairly
    #: to congestion (TCP-like), ``False`` flows are served max-min from a
    #: fixed offered rate.  ``None`` means every flow is inelastic.
    elastic: Optional[np.ndarray] = None
    #: Per-flow alpha-fair utility weight (e.g. the client count behind an
    #: aggregate flow, so fairness stays per client).  ``None`` means 1.0.
    weights: Optional[np.ndarray] = None
    #: Fairness parameter for elastic flows: scalar or per-flow array.
    #: 1 = proportional fairness, ~2 = TCP-like, ``math.inf`` = max-min.
    alpha: float = 2.0

    def __post_init__(self) -> None:
        self.demands = np.asarray(self.demands, dtype=np.float64)
        self.usage = np.atleast_2d(np.asarray(self.usage, dtype=np.float64))
        self.capacities = np.asarray(self.capacities, dtype=np.float64)
        resources, flows = self.usage.shape
        if self.demands.shape != (flows,) or self.capacities.shape != (resources,):
            raise WorkloadError(
                f"inconsistent problem: usage {self.usage.shape}, "
                f"demands {self.demands.shape}, capacities {self.capacities.shape}"
            )
        if (self.demands < 0).any() or (self.usage < 0).any() or (self.capacities < 0).any():
            raise WorkloadError("demands, usage and capacities must be non-negative")
        if self.elastic is not None:
            self.elastic = np.asarray(self.elastic, dtype=bool)
            if self.elastic.shape != (flows,):
                raise WorkloadError("elastic mask must cover every flow")
            if not self.elastic.any():
                self.elastic = None
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (flows,):
                raise WorkloadError("weights must cover every flow")
            if (self.weights <= 0).any():
                raise WorkloadError("alpha-fair weights must be positive")
        self.alpha = np.broadcast_to(
            np.asarray(self.alpha, dtype=np.float64), (flows,)
        )
        if (self.alpha <= 0).any():
            raise WorkloadError("alpha must be positive")
        if self.elastic is not None:
            infinite = np.isinf(self.alpha[self.elastic])
            if infinite.any() and not infinite.all():
                raise WorkloadError(
                    "mixing finite and infinite alpha among elastic flows is "
                    "not supported; mark the max-min flows inelastic instead"
                )

    @property
    def n_flows(self) -> int:
        """Number of flows."""
        return self.usage.shape[1]

    @property
    def n_resources(self) -> int:
        """Number of resources."""
        return self.usage.shape[0]

    @property
    def has_elastic(self) -> bool:
        """Whether any flow adapts its rate to congestion."""
        return self.elastic is not None

    def flow_weights(self) -> np.ndarray:
        """The per-flow utility weights with the default of 1.0 applied."""
        if self.weights is None:
            return np.ones(self.n_flows)
        return self.weights


@dataclass
class Allocation:
    """The fair operating point of a :class:`CapacityProblem`."""

    rates: np.ndarray
    #: Index of the resource that froze each flow (-1: demand-limited).
    bottleneck: np.ndarray
    #: Fixed-point passes used until every flow froze (0: warm start accepted).
    iterations: int
    #: Whether a warm-start candidate was verified optimal, skipping the fill.
    warm_started: bool = False
    #: Per-resource congestion prices of the elastic solve (``None`` for
    #: purely inelastic problems).  Offered back to :func:`solve_allocation`
    #: as the warm start of the next nearby problem.
    prices: Optional[np.ndarray] = None
    #: Exit residual of the elastic dual, ``max(overshoot, undershoot)`` of
    #: the relative resource loads (0.0 when no dual ran).  A dual that
    #: does not converge raises instead of returning.
    residual: float = 0.0

    def utilization(self, problem: CapacityProblem) -> np.ndarray:
        """Per-resource load fraction under this allocation."""
        used = problem.usage @ self.rates
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(problem.capacities > 0, used / problem.capacities, 0.0)
        return out

    def satisfaction(self, problem: CapacityProblem) -> np.ndarray:
        """Per-flow allocated/demanded ratio (1.0 when demand is met)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(problem.demands > 0, self.rates / problem.demands, 1.0)


def verify_max_min(problem: CapacityProblem, rates: np.ndarray) -> Optional[np.ndarray]:
    """Check the bottleneck condition; return the attribution if ``rates`` is optimal.

    A feasible allocation is *the* max-min fair point iff every flow either
    receives its demand or crosses a saturated resource on which its rate is
    at least as large as that of every other flow using the resource.  The
    check is two O(R×F) vectorized passes.  Returns the per-flow bottleneck
    attribution (-1 for demand-limited flows) when the condition holds, or
    ``None`` when ``rates`` is not the max-min allocation.
    """
    demands = problem.demands
    usage = problem.usage
    capacities = problem.capacities
    if rates.shape != demands.shape:
        return None
    if (rates < -_TOL).any() or (rates > demands + np.maximum(demands, 1.0) * _TOL).any():
        return None
    used = usage @ rates
    if (used > capacities + np.maximum(capacities, 1.0) * _TOL).any():
        return None

    demand_limited = rates >= demands - np.maximum(demands, 1.0) * _TOL
    if demand_limited.all():
        # Every flow meets its demand: nothing needs a bottleneck, so the
        # three resources x flows passes below have nothing to certify.
        return np.full(problem.n_flows, -1, dtype=np.int64)
    saturated = used >= capacities - np.maximum(capacities, 1.0) * _TOL
    crosses = usage > 0
    # Highest rate among each resource's users (0 where nobody crosses).
    peak = np.where(crosses, rates[np.newaxis, :], 0.0).max(axis=1)
    # Flow f is bottlenecked at r: r saturated, f crosses r, f's rate maximal.
    at_peak = crosses & (rates[np.newaxis, :] >= peak[:, np.newaxis]
                         - np.maximum(peak[:, np.newaxis], 1.0) * _TOL)
    bottlenecked = saturated[:, np.newaxis] & at_peak
    ok = demand_limited | bottlenecked.any(axis=0)
    if not ok.all():
        return None

    bottleneck = np.full(problem.n_flows, -1, dtype=np.int64)
    needs = ~demand_limited
    if needs.any():
        # First saturated resource that certifies each non-demand-limited flow.
        bottleneck[needs] = bottlenecked[:, needs].argmax(axis=0)
    return bottleneck


def _attribute(bottleneck: np.ndarray, resources: np.ndarray,
               crosses: np.ndarray, frozen: np.ndarray) -> None:
    """Charge each ``frozen`` flow to the first resource it crosses.

    ``resources`` is ascending and ``crosses[i]`` marks the flows crossing
    ``resources[i]``.  Frozen flows were active, and a flow leaves the
    active set when it is charged, so none of them has a bottleneck yet.
    """
    if resources.size == 1:
        bottleneck[frozen] = resources[0]   # the common pass: one resource
    else:
        hit = np.flatnonzero(frozen)
        bottleneck[hit] = resources[crosses[:, hit].argmax(axis=0)]


def max_min_allocation(problem: CapacityProblem,
                       max_iterations: Optional[int] = None,
                       warm_start: Optional[np.ndarray] = None,
                       telemetry: Optional[Telemetry] = None) -> Allocation:
    """Progressive-filling fixed point: the max-min fair rate vector.

    Every pass raises all unfrozen flows by one common rate increment — the
    largest any resource can still accommodate, capped by the smallest
    remaining demand — then freezes the flows that met their demand and the
    flows crossing resources the increment saturated.  The returned rates are
    feasible and max-min fair: no flow can be raised without lowering a flow
    that is already no better off.

    Two verification fast paths short-circuit the fill, both returning with
    ``iterations == 0``:

    * the *demand certificate*, tried on every call: if the demands vector
      itself is feasible, nothing is congested and the answer is immediate
      (two O(R×F) passes instead of a fill pass per distinct freeze level);
    * the *warm start*: ``min(warm_start, demands)`` — a previous solution
      of a nearby problem — is accepted with ``warm_started=True`` if
      :func:`verify_max_min` certifies it.

    Otherwise the cold progressive fill runs, so the result is always the
    max-min point regardless of the hint's quality.  ``telemetry`` records
    which path was taken (certificate / warm hit / warm miss / fill passes)
    as counters — observation only, never part of the answer.
    """
    telemetry = telemetry if telemetry is not None else NULL
    bottleneck = verify_max_min(problem, problem.demands)
    if bottleneck is not None:
        telemetry.inc("solver.demand_certificates")
        return Allocation(rates=problem.demands.astype(np.float64).copy(),
                          bottleneck=bottleneck, iterations=0)
    if warm_start is not None:
        hint = np.asarray(warm_start, dtype=np.float64)
        # A hint from a differently-shaped problem is useless, not fatal.
        if hint.shape == problem.demands.shape:
            candidate = np.minimum(np.maximum(hint, 0.0), problem.demands)
            bottleneck = verify_max_min(problem, candidate)
            if bottleneck is not None:
                telemetry.inc("solver.warm_start_hits")
                return Allocation(rates=candidate, bottleneck=bottleneck,
                                  iterations=0, warm_started=True)
        telemetry.inc("solver.warm_start_misses")
    demands = problem.demands
    usage = problem.usage
    capacities = problem.capacities.astype(np.float64).copy()
    n_flows = problem.n_flows

    rates = np.zeros(n_flows)
    bottleneck = np.full(n_flows, -1, dtype=np.int64)
    active = demands > 0
    # Flows that use a zero-capacity resource can never move: freeze at zero.
    zero = np.flatnonzero(capacities <= 0)
    if zero.size:
        crosses = usage[zero] > 0
        dead = crosses.any(axis=0)
        _attribute(bottleneck, zero, crosses, active & dead)
        active &= ~dead

    limit = max_iterations if max_iterations is not None else n_flows + problem.n_resources + 1
    iterations = 0
    while active.any():
        iterations += 1
        if iterations > limit:
            raise WorkloadError(f"max-min fill did not converge in {limit} passes")
        used = usage @ rates
        slack = capacities - used
        active_usage = usage @ active.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            headroom = np.where(active_usage > 0, slack / active_usage, np.inf)
        headroom = np.maximum(headroom, 0.0)
        remaining = demands[active] - rates[active]
        increment = min(headroom.min(initial=np.inf), remaining.min())

        rates[active] += increment

        # Demand-limited flows freeze with no bottleneck resource.
        met = active & (rates >= demands - np.maximum(demands, 1.0) * _TOL)
        active &= ~met

        # Flows crossing a resource the increment saturated freeze there.
        saturated = np.flatnonzero(
            (active_usage > 0)
            & (headroom <= increment + np.maximum(capacities, 1.0) * _TOL)
        )
        if saturated.size:
            crosses = usage[saturated] > 0
            crossing = active & crosses.any(axis=0)
            if crossing.any():
                _attribute(bottleneck, saturated, crosses, crossing)
                active &= ~crossing

    telemetry.inc("solver.fill_passes", iterations)
    return Allocation(rates=rates, bottleneck=bottleneck, iterations=iterations)


# ---------------------------------------------------------------------------
# Elastic (alpha-fair) flows
# ---------------------------------------------------------------------------


def _alpha_rates(demands: np.ndarray, weights: np.ndarray,
                 inv_alpha: np.ndarray, path_prices: np.ndarray) -> np.ndarray:
    """The KKT-stationary rates for given path prices.

    Each flow solves ``max w U_alpha(r) - q r`` over ``0 <= r <= d`` where
    ``q`` is its path price (``usage.T @ prices``): the closed form is
    ``min(d, (w / q) ** (1 / alpha))``, and an unpriced path takes the peak.
    """
    q = path_prices
    with np.errstate(divide="ignore", over="ignore"):
        unconstrained = np.where(q > 0.0, (weights / np.maximum(q, 1e-300)) ** inv_alpha,
                                 np.inf)
    return np.minimum(demands, unconstrained)


def _kkt_price_floor(demands: np.ndarray, usage: np.ndarray,
                     weights: np.ndarray, inv_alpha: np.ndarray) -> float:
    """The problem-scaled price below which a path counts as unpriced.

    The price at which flow f would sit exactly at its cap is
    ``w_f d_f^(-alpha_f)``; anything orders of magnitude below the smallest
    of those is indistinguishable from zero.  Equilibrium prices scale the
    same way — an absolute constant would misclassify them at large alpha
    or bps-sized demands (and complementary slackness would silently stop
    being checked).  Flows with infinite alpha (max-min limit) contribute
    no scale; with none left the conventional floor stands in.
    """
    finite = (inv_alpha > 0) & (demands > 0)
    if not finite.any():
        return _PRICE_FLOOR
    with np.errstate(over="ignore", under="ignore"):
        q_cap = weights[finite] * np.maximum(demands[finite], 1e-300) ** (
            -1.0 / inv_alpha[finite]
        )
    return max(float(q_cap.min()) * 1e-9 / max(float(usage.max()), 1.0), 1e-290)


def _unusable_resources(demands: np.ndarray, usage: np.ndarray,
                        capacities: np.ndarray) -> np.ndarray:
    """Resources whose capacity the elastic flows cannot use at all.

    Zero capacities, and capacities within rounding of zero next to the
    load their crossing flows offer at peak: the residual a saturated
    inelastic fill leaves in a mixed problem (``capacities - usage @
    rates``, ~1e-16 relative).  Such a price would have to climb dozens of
    decades to hold its flows at a rounding-sized rate; zero is the answer
    to within that rounding.
    """
    return capacities <= 1e-12 * (usage @ demands)


def _collapse_parallel_rows(usage: np.ndarray, capacities: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group exactly parallel resource rows and pick each group's binding row.

    A site's uplink and CPU rows are crossed by the same flows in a constant
    ratio, so their constraints are parallel: only the one with the least
    capacity per unit of the (max-normalised) row can bind, and keeping both
    splits one price arbitrarily between them and makes the dual's Hessian
    singular.  Rows normalised to a maximum of 1 are projected onto one
    fixed direction and sorted by that projection; neighbours whose
    projections tie are merged once their whole normalised rows agree —
    O(R×F) work in a handful of numpy calls.  Returns ``(binding, scale,
    group)``: the binding row of each group, every row's normalising
    maximum, and every row's group index.
    """
    resources, flows = usage.shape
    scale = usage.max(axis=1)
    # A fixed, non-repeating direction: distinct rows project apart.
    direction = 0.5 + np.modf(np.arange(1, flows + 1) * 0.6180339887498949)[0]
    projection = (usage @ direction) / scale
    order = np.argsort(projection, kind="stable")
    tie = np.flatnonzero(np.diff(projection[order]) <= 1e-12 * flows)
    upper, lower = order[tie], order[tie + 1]
    same = np.zeros(max(resources - 1, 0), dtype=bool)
    same[tie] = (np.abs(usage[upper] / scale[upper, np.newaxis]
                        - usage[lower] / scale[lower, np.newaxis]).max(axis=1, initial=0.0)
                 <= 1e-12)
    group = np.empty(resources, dtype=np.int64)
    group[order] = np.concatenate(([0], np.cumsum(~same)))
    # Within a group, the least capacity per unit of normalised row binds.
    by_capacity = np.lexsort((capacities / scale, group))
    first = np.concatenate(([True], np.diff(group[by_capacity]) != 0))
    return by_capacity[first], scale, group


def _dual_change(q: np.ndarray, dq: np.ndarray, q_cap: np.ndarray,
                 demands: np.ndarray, inv_alpha: np.ndarray) -> np.ndarray:
    """``phi_f(q + dq) - phi_f(q)`` per flow, accurate to the size of the change.

    ``phi_f(q) = max_{0 <= r <= d} w U_alpha(r) - q r`` is linear with slope
    ``-d`` below the cap price ``q_cap = w d^-alpha`` and curved above it,
    where ``phi(c) - phi(a) = alpha a r_a (e^x - 1) / (1 - alpha)`` with
    ``x = (1 - alpha) log(r_c / r_a)`` (``a r_a log(r_c / r_a)`` at alpha
    1).  Both parts are computed from the price *step* (``log1p`` and
    ``expm1``), never as a difference of two large values, so backtracking
    resolves decreases far below the size of the terms.
    """
    moved = q + dq
    below = (q <= q_cap) & (moved <= q_cap)
    above = (q >= q_cap) & (moved >= q_cap)
    step_below = np.where(below, dq, np.minimum(moved, q_cap) - np.minimum(q, q_cap))
    step_above = np.where(above, dq, np.maximum(moved, q_cap) - np.maximum(q, q_cap))
    start = np.maximum(np.maximum(q, q_cap), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rate = demands * (q_cap / start) ** inv_alpha
        log_rate = -inv_alpha * np.log1p(step_above / start)
        exponent = 1.0 - 1.0 / inv_alpha
        scaled = np.where(exponent == 0.0, log_rate,
                          np.expm1(exponent * log_rate)
                          / np.where(exponent == 0.0, 1.0, exponent))
    return -demands * step_below + start * rate / inv_alpha * scaled


class _ReducedDual:
    """The presolved dual of one alpha-fair problem and its sparsity pattern.

    ``usage`` here has one row per group of parallel rows, each scaled to a
    maximum coefficient of 1 (without that scaling the problem-scaled price
    floor misreads a CPU row's price), over the live flows only.  The
    nonzeros are listed once per solve, row-major, so the Hessian, the
    balance search and the row shares below are sums over them.
    """

    def __init__(self, usage: np.ndarray, capacities: np.ndarray,
                 demands: np.ndarray, weights: np.ndarray,
                 inv_alpha: np.ndarray) -> None:
        self.usage = usage
        self.capacities = capacities
        self.d = demands
        self.w = weights
        self.ia = inv_alpha
        with np.errstate(over="ignore", under="ignore"):
            #: The path price at which each flow leaves its cap.
            self.q_cap = weights * demands ** (-1.0 / inv_alpha)
        # Problem-scaled floor: at large alpha or bps-sized demands the
        # equilibrium prices are far below any fixed constant.
        self.floor = _kkt_price_floor(demands, usage, weights, inv_alpha)
        self.priced_floor = self.floor * 1e3
        self.row, self.flow = np.nonzero(usage > 0)
        self.coef = usage[self.row, self.flow]
        self.row_starts = np.flatnonzero(np.concatenate(([True], np.diff(self.row) != 0)))
        # Every pair of nonzeros sharing a flow, so that
        # H[i, j] = sum_f usage[i, f] usage[j, f] h_f is one bincount.
        resources, flows = usage.shape
        by_flow = np.argsort(self.flow, kind="stable")
        row, flow, coef = self.row[by_flow], self.flow[by_flow], self.coef[by_flow]
        counts = np.bincount(flow, minlength=flows)
        first = np.cumsum(counts) - counts
        repeat = counts[flow]
        left = np.repeat(np.arange(flow.size), repeat)
        right = first[flow[left]] + (np.arange(left.size)
                                     - np.repeat(np.cumsum(repeat) - repeat, repeat))
        self.pair_index = row[left] * resources + row[right]
        self.pair_flow = flow[left]
        self.pair_value = coef[left] * coef[right]

    def rates(self, q: np.ndarray) -> np.ndarray:
        """The stationary rates at path prices ``q``."""
        return _alpha_rates(self.d, self.w, self.ia, q)

    def direction(self, q: np.ndarray, r: np.ndarray, prices: np.ndarray,
                  gradient: np.ndarray) -> Optional[np.ndarray]:
        """The projected-Newton move of one pass, or ``None`` if it is unusable.

        A slack row whose price is a negligible share of every crossing
        path price goes to zero.  An overloaded row whose crossing flows
        are all capped sees a flat dual, and an unpriced one may uncap
        flows at any tiny price: either moves to its balance price
        (:meth:`balance`), past its first cap-release breakpoint.  The
        remaining rows take the Newton step of their Hessian block,
        assembled from the pattern with one ``np.bincount`` and solved with
        one small ``np.linalg.solve``.
        """
        size = prices.size
        with np.errstate(divide="ignore", invalid="ignore"):
            curvature = np.where((q > 0.0) & (q >= self.q_cap), self.ia * r / q, 0.0)
            hessian = np.bincount(self.pair_index,
                                  weights=self.pair_value * curvature[self.pair_flow],
                                  minlength=size * size).reshape(size, size)
            # A row whose price is a negligible share of every crossing
            # path price is unpriced, however far above zero it sits.
            path = q[self.flow]
            share = prices * np.maximum.reduceat(
                np.where(path > 0.0, self.coef / path, 0.0), self.row_starts)
        curved = hessian.diagonal() > 0.0
        unpriced = share <= 1e-9
        balance = (gradient < 0.0) & (~curved | unpriced)
        newton = curved & ~balance & ~(unpriced & (gradient > 0.0))

        delta = -prices  # every row not moved below heads for zero
        # A row the Newton step would drive below zero leaves the system —
        # an overloaded one holds its price, a slack one seeks its balance
        # price — and the step is re-solved, so every row left moves freely
        # at t = 1 and the step is a descent direction.
        while newton.any():
            free = np.flatnonzero(newton)
            block = hessian[np.ix_(free, free)]
            try:
                delta[free] = np.linalg.solve(block, -gradient[free])
            except np.linalg.LinAlgError:
                # Rows sharing one set of uncapped flows: the minimum-norm
                # step of the singular system is still a descent direction.
                delta[free] = np.linalg.lstsq(block, -gradient[free], rcond=None)[0]
            blocked = newton & (prices + delta <= 0.0)
            if not blocked.any():
                break
            newton &= ~blocked
            delta[blocked] = 0.0
            balance |= blocked & (gradient > 0.0)
        if balance.any():
            delta[balance] = self.balance(balance, prices, q, gradient) - prices[balance]
        # A step that moves no price (the gradient lies in the Hessian's
        # null space, where the dual is flat) is as unusable as a
        # non-finite one.
        if not np.isfinite(delta).all() or (np.abs(delta) <= 1e-12 * prices.max()).all():
            return None
        return delta

    def balance(self, chosen: np.ndarray, prices: np.ndarray, q: np.ndarray,
                gradient: np.ndarray) -> np.ndarray:
        """Per chosen row, the price that alone brings its load to capacity.

        Other prices held, a row's load falls monotonically as its own
        price rises.  An overloaded row's balance price lies above its
        current price (and above its first cap-release breakpoint when
        every crossing flow is capped) and below the price at which every
        crossing flow's rate is at most ``capacity / sum(row)``; a slack
        row's lies below its current price, and is zero when the row stays
        slack even unpriced.  A safeguarded Newton iteration on ``log
        load`` against ``log price`` — bisection whenever Newton leaves the
        bracket — crosses any number of price decades in a few passes over
        the rows' nonzeros.
        """
        entries = chosen[self.row]
        row = (np.cumsum(chosen) - 1)[self.row[entries]]
        flow = self.flow[entries]
        coef = self.coef[entries]
        count = int(chosen.sum())
        starts = np.flatnonzero(np.concatenate(([True], np.diff(row) != 0)))
        d, w, ia, q_cap = self.d[flow], self.w[flow], self.ia[flow], self.q_cap[flow]
        own = prices[chosen]
        capacity = self.capacities[chosen]
        over = gradient[chosen] < 0.0
        other = np.maximum(q[flow] - coef * own[row], 0.0)
        log_capacity = np.log(capacity)

        def log_load(log_price):
            price = np.exp(log_price)[row]
            path = other + coef * price
            rate = _alpha_rates(d, w, ia, path)
            load = np.bincount(row, weights=coef * rate, minlength=count)
            # d log(load) / d log(price), from the uncapped crossing flows.
            slope = -np.bincount(row, weights=np.where(path >= q_cap, coef * coef * ia * rate
                                                        * price / path, 0.0),
                                 minlength=count) / load
            return np.log(load), slope

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = np.log(np.maximum.reduceat(
                w * (np.bincount(row, weights=coef, minlength=count)
                     / capacity)[row] ** (1.0 / ia) / coef, starts))
            # Nothing moves below the first breakpoint of an all-capped row.
            capped = other + coef * own[row] < q_cap
            release = np.where(np.minimum.reduceat(capped, starts),
                               np.minimum.reduceat((q_cap - other) / coef, starts), own)
            floor = np.where(over, np.log(np.maximum(own, release)), np.log(own) - 92.0)
            low = np.where(np.isfinite(floor), floor, bound - 92.0)
            high = np.where(over, bound, np.log(own))
            # A slack row still slack near zero price balances at zero.
            zero = ~over
            if zero.any():
                zero &= log_load(low)[0] <= log_capacity
            guess = np.where(over, low, high)
            for _ in range(_BALANCE_ITERATIONS):
                value, slope = log_load(guess)
                error = value - log_capacity
                if (zero | (np.abs(error) <= _ALPHA_TOL) | (high - low <= 1e-12)).all():
                    break
                above = error > 0.0
                low = np.where(above, guess, low)
                high = np.where(above, high, guess)
                step = guess - error / slope
                inside = np.isfinite(step) & (step > low) & (step < high)
                guess = np.where(inside, step, 0.5 * (low + high))
        return np.where(zero, 0.0, np.exp(guess))

    def backtrack(self, q: np.ndarray, prices: np.ndarray, gradient: np.ndarray,
                  delta: np.ndarray) -> Optional[np.ndarray]:
        """Armijo backtracking on the dual objective along ``max(prices + t delta, 0)``.

        Returns the first halving's prices that decrease the dual by at
        least ``1e-4`` of the linear prediction (within rounding of the
        terms), or ``None`` when none of ``_BACKTRACKS`` halvings does.
        """
        t = 1.0
        for _ in range(_BACKTRACKS):
            moved = np.maximum(t * delta, -prices)
            change = _dual_change(q, self.usage.T @ moved, self.q_cap, self.d, self.ia)
            decrease = change.sum() + self.capacities @ moved
            slope = gradient @ moved
            noise = 1e-12 * (np.abs(change).sum() + np.abs(self.capacities * moved).sum())
            if slope < 0.0 and decrease <= 1e-4 * slope + noise:
                return prices + moved
            t *= 0.5
        return None


def _alpha_fair_dual(demands: np.ndarray, usage: np.ndarray,
                     capacities: np.ndarray, weights: np.ndarray,
                     inv_alpha: np.ndarray, *,
                     prices0: Optional[np.ndarray] = None,
                     max_iterations: int = _DUAL_PASSES,
                     ) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """Safeguarded projected Newton on the dual of the capped alpha-fair problem.

    The dual minimises ``D(p) = sum_f phi_f(A^T p) + c . p`` over prices
    ``p >= 0``; its gradient is ``c - A r(p)`` and its Hessian
    ``A diag(r / (alpha q)) A^T`` over the flows below their caps.  A
    presolve keeps one binding row per group of parallel rows and scales
    rows to a maximum of 1.  Each pass then recomputes the stationary rates
    (one O(R×F) pass) and takes :meth:`_ReducedDual.direction` — the free
    rows' Newton step, slack unpriced rows to zero, overloaded rows the
    Newton model cannot see to their balance price — backtracked on the
    dual objective.  A pass whose Newton step is unusable takes a
    sign-adaptive multiplicative step instead.
    Converged means overshoot within ``_ALPHA_TOL`` and priced undershoot
    within ``10 * _ALPHA_TOL``; an exhausted pass budget raises.  A final
    per-flow projection makes the returned rates exactly feasible.  Returns
    ``(rates, prices, passes, residual)``.
    """
    resources, flows = usage.shape
    rates = np.zeros(flows)
    prices_full = np.zeros(resources)

    # Flows crossing a resource without capacity can never move: pin at zero.
    # (Usage is non-negative, so "crosses any of these" is a mat-vec.)
    dead_r = _unusable_resources(demands, usage, capacities)
    live = (dead_r @ usage == 0) & (demands > 0)
    if not live.any():
        return rates, prices_full, 0, 0.0

    live_idx = np.flatnonzero(live)
    rows = np.flatnonzero(~dead_r & (usage @ live > 0))
    if not rows.size:
        rates[live_idx] = demands[live_idx]
        return rates, prices_full, 1, 0.0
    A = usage[rows][:, live_idx]
    d = demands[live_idx]
    w = weights[live_idx]
    ia = inv_alpha[live_idx]

    binding, scale, group = _collapse_parallel_rows(A, capacities[rows])
    dual = _ReducedDual(A[binding] / scale[binding, np.newaxis],
                        capacities[rows[binding]] / scale[binding], d, w, ia)
    B, b, floor = dual.usage, dual.capacities, dual.floor

    prices = np.zeros(binding.size)
    if prices0 is not None and prices0.shape == (resources,):
        # A group's price acts through its shared normalised row.
        prices = np.bincount(group, weights=prices0[rows] * scale,
                             minlength=binding.size)[group[binding]]

    # Sign-adaptive fallback state (per-row log-price step, last direction).
    step = np.full(binding.size, 0.5)
    last_sign = np.zeros(binding.size)
    residual = math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iterations in range(1, max_iterations + 1):
            q = B.T @ prices
            r = dual.rates(q)
            load = B @ r
            ratio = load / b
            priced = prices > dual.priced_floor
            overshoot = ratio.max(initial=0.0) - 1.0
            undershoot = 1.0 - np.where(priced, ratio, np.inf).min(initial=np.inf)
            residual = max(overshoot, undershoot, 0.0)
            if overshoot <= _ALPHA_TOL and undershoot <= 10 * _ALPHA_TOL:
                break
            gradient = b - load
            delta = dual.direction(q, r, prices, gradient)
            trial = None if delta is None else dual.backtrack(q, prices, gradient, delta)
            if trial is None:
                # The Newton step is unusable here: a sign-adaptive step in
                # log-price space, still backtracked on the dual objective.
                sign = np.where(ratio > 1.0, 1.0, -1.0)
                # An unpriced resource sitting slack is already where it belongs.
                sign[~priced & (ratio <= 1.0)] = 0.0
                step = np.where(sign == last_sign, step * 1.6, step * 0.5)
                # Deeply slack resources may decay faster than anything rises.
                ceiling = np.where((sign < 0) & (ratio < 0.5), 16.0, 2.0)
                step = np.minimum(np.maximum(step, 1e-7), ceiling)
                move = np.where(sign == 0.0, 0.0,
                                np.maximum(prices, floor) * np.exp(sign * step) - prices)
                trial = dual.backtrack(q, prices, gradient, move)
                if trial is None:
                    trial = prices + move
                last_sign = sign
            prices = trial
        else:
            raise WorkloadError(
                f"alpha-fair dual did not converge in {max_iterations} passes "
                f"(residual {residual:.3g})"
            )
    # Exact feasibility on every original row: shave each flow by its worst
    # crossing overshoot.
    ratio = (A @ r) / capacities[rows]
    over = ratio > 1.0
    if over.any():
        r = r / np.where(A[over] > 0, ratio[over, np.newaxis], 1.0).max(axis=0)

    rates[live_idx] = r
    prices_full[rows[binding]] = np.where(prices > dual.priced_floor,
                                          prices / scale[binding], 0.0)
    return rates, prices_full, iterations, residual


def _verify_kkt(demands: np.ndarray, usage: np.ndarray, capacities: np.ndarray,
                weights: np.ndarray, inv_alpha: np.ndarray,
                rates: np.ndarray, prices: np.ndarray) -> bool:
    """Whether ``(rates, prices)`` satisfy the capped-alpha-fair KKT system.

    Three O(R×F) passes: primal feasibility, stationarity of every rate
    against its path price, and complementary slackness (priced resources
    are saturated).  Pinned flows (crossing a zero-capacity resource) must
    sit at zero.
    """
    if rates.shape != demands.shape or prices.shape != (capacities.shape[0],):
        return False
    if (rates < -_TOL).any():
        return False
    if (rates > demands + np.maximum(demands, 1.0) * _ALPHA_TOL).any():
        return False
    load = usage @ rates
    if (load > capacities + np.maximum(capacities, 1.0) * _ALPHA_TOL).any():
        return False

    dead_r = _unusable_resources(demands, usage, capacities)
    if dead_r.any():
        dead = (usage[dead_r] > 0).any(axis=0)
        if (rates[dead] > np.maximum(demands[dead], 1.0) * _ALPHA_TOL).any():
            return False
    else:
        dead = np.zeros(rates.shape, dtype=bool)

    live = ~dead
    target = _alpha_rates(demands[live], weights[live], inv_alpha[live],
                          usage[:, live][~dead_r].T @ prices[~dead_r])
    scale = np.maximum(np.maximum(target, rates[live]), 1e-12)
    if (np.abs(rates[live] - target) > scale * _KKT_RTOL).any():
        return False

    # "Priced" must use the same problem-scaled threshold as the dual:
    # equilibrium prices at bps magnitudes sit far below any constant, and
    # an absolute cutoff would silently stop checking complementary
    # slackness — certifying stale warm starts that under-serve flows.
    floor = _kkt_price_floor(demands, usage, weights, inv_alpha)
    priced = (prices > floor * 1e3) & ~dead_r
    if priced.any():
        slack = load[priced] < capacities[priced] * (1.0 - _KKT_SLACK)
        if slack.any():
            return False
    return True


def _elastic_bottlenecks(demands: np.ndarray, usage: np.ndarray,
                         rates: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Attribute each elastic flow to its most expensive crossing resource.

    Demand-limited flows get -1; congested flows get the crossing resource
    with the highest congestion price — the binding constraint of their KKT
    stationarity condition.
    """
    flows = rates.shape[0]
    bottleneck = np.full(flows, -1, dtype=np.int64)
    limited = rates >= demands - np.maximum(demands, 1.0) * 10 * _ALPHA_TOL
    needs = ~limited
    if needs.any():
        priced = np.where(usage[:, needs] > 0, prices[:, np.newaxis], -1.0)
        bottleneck[needs] = priced.argmax(axis=0)
    return bottleneck


def verify_alpha_fair(problem: CapacityProblem, rates: np.ndarray,
                      prices: np.ndarray) -> Optional[np.ndarray]:
    """Certify an all-elastic candidate; return the attribution if optimal.

    The elastic analogue of :func:`verify_max_min`: a feasible ``rates``
    vector together with resource ``prices`` is *the* capped alpha-fair
    point iff the KKT conditions hold — every rate is the closed-form
    best response to its path price, and every priced resource is
    saturated.  ``alpha = inf`` problems (the max-min limit, which
    :func:`alpha_fair_allocation` solves by delegation) are certified by
    the max-min bottleneck condition, mirroring that delegation.  Returns
    the per-flow bottleneck attribution (-1 for demand-limited flows) when
    the certificate holds, else ``None``.
    """
    if np.isinf(problem.alpha).all():
        return verify_max_min(problem, rates)
    if np.isinf(problem.alpha).any():
        raise WorkloadError(
            "mixing finite and infinite alpha among elastic flows is not "
            "supported; mark the max-min flows inelastic instead"
        )
    inv_alpha = 1.0 / problem.alpha
    if not _verify_kkt(problem.demands, problem.usage, problem.capacities,
                       problem.flow_weights(), inv_alpha, rates, prices):
        return None
    return _elastic_bottlenecks(problem.demands, problem.usage, rates, prices)


def alpha_fair_allocation(problem: CapacityProblem,
                          *,
                          warm_start: Optional[np.ndarray] = None,
                          warm_prices: Optional[np.ndarray] = None,
                          max_iterations: Optional[int] = None,
                          telemetry: Optional[Telemetry] = None) -> Allocation:
    """The capped alpha-fair rate vector, treating every flow as elastic.

    ``problem.alpha`` selects the fairness family (per flow): 1 is
    proportional fairness, ~2 is TCP-like, and ``math.inf`` delegates to
    :func:`max_min_allocation` exactly (the Mo–Walrand limit).  Like the
    max-min solver, two fast paths return with ``iterations == 0``: the
    demand certificate (the demands vector itself is feasible, so every
    flow takes its peak) and the verified warm start (``warm_start`` rates
    plus ``warm_prices`` satisfy the KKT certificate).
    """
    telemetry = telemetry if telemetry is not None else NULL
    if np.isinf(problem.alpha).all():
        allocation = max_min_allocation(problem, warm_start=warm_start,
                                        max_iterations=max_iterations,
                                        telemetry=telemetry)
        allocation.prices = np.zeros(problem.n_resources)
        return allocation
    if np.isinf(problem.alpha).any():
        raise WorkloadError(
            "mixing finite and infinite alpha among elastic flows is not "
            "supported; mark the max-min flows inelastic instead"
        )
    demands = problem.demands
    bottleneck = verify_max_min(problem, demands)
    if bottleneck is not None and (bottleneck == -1).all():
        telemetry.inc("solver.demand_certificates")
        return Allocation(rates=demands.astype(np.float64).copy(),
                          bottleneck=bottleneck, iterations=0,
                          prices=np.zeros(problem.n_resources))
    weights = problem.flow_weights()
    inv_alpha = 1.0 / problem.alpha
    if warm_start is not None and warm_prices is not None:
        hint = np.asarray(warm_start, dtype=np.float64)
        prices_hint = np.asarray(warm_prices, dtype=np.float64)
        if hint.shape == demands.shape and prices_hint.shape == (problem.n_resources,):
            candidate = np.minimum(np.maximum(hint, 0.0), demands)
            attribution = verify_alpha_fair(problem, candidate, prices_hint)
            if attribution is not None:
                telemetry.inc("solver.warm_start_hits")
                return Allocation(rates=candidate, bottleneck=attribution,
                                  iterations=0, warm_started=True,
                                  prices=prices_hint.copy())
        # A KKT certificate was offered and rejected: the dual re-solves
        # from the hinted prices.
        telemetry.inc("solver.warm_start_misses")
        telemetry.inc("solver.kkt_retries")
    prices0 = None
    if warm_prices is not None:
        prices_hint = np.asarray(warm_prices, dtype=np.float64)
        if prices_hint.shape == (problem.n_resources,):
            prices0 = prices_hint
    rates, prices, iterations, residual = _alpha_fair_dual(
        demands, problem.usage, problem.capacities, weights, inv_alpha,
        prices0=prices0,
        max_iterations=max_iterations if max_iterations is not None else _DUAL_PASSES,
    )
    telemetry.inc("solver.alpha_fair_iterations", iterations)
    return Allocation(
        rates=rates,
        bottleneck=_elastic_bottlenecks(demands, problem.usage, rates, prices),
        iterations=iterations,
        prices=prices,
        residual=residual,
    )


def _column_subproblem(problem: CapacityProblem, mask: np.ndarray,
                       capacities: np.ndarray) -> CapacityProblem:
    """The restriction of ``problem`` to the flows in ``mask``."""
    return CapacityProblem(
        demands=problem.demands[mask],
        usage=problem.usage[:, mask],
        capacities=capacities,
        weights=None if problem.weights is None else problem.weights[mask],
        alpha=problem.alpha[mask],
    )


def solve_allocation(problem: CapacityProblem,
                     *,
                     warm_start: Optional[np.ndarray] = None,
                     warm_prices: Optional[np.ndarray] = None,
                     telemetry: Optional[Telemetry] = None) -> Allocation:
    """Solve a problem whose flows may mix inelastic and elastic classes.

    Dispatch: a purely inelastic problem is the classic max-min fill; a
    purely elastic one is the alpha-fair dual.  A *mixed* problem is
    composed in two stages that mirror what a FIFO bottleneck does to
    non-responsive vs congestion-controlled traffic: the inelastic flows
    are served max-min against the full capacities first (CBR sources do
    not back off), then the elastic flows share the *residual* capacity
    alpha-fairly, capped at their peak demands.  ``warm_start`` rates and
    ``warm_prices`` come from a previous nearby solve (an
    :class:`Allocation`'s ``rates`` and ``prices``); both fast paths are
    certificate-checked, so hints never change the answer.
    """
    telemetry = telemetry if telemetry is not None else NULL
    if not problem.has_elastic:
        return max_min_allocation(problem, warm_start=warm_start,
                                  telemetry=telemetry)
    elastic = problem.elastic
    if elastic.all():
        return alpha_fair_allocation(problem, warm_start=warm_start,
                                     warm_prices=warm_prices,
                                     telemetry=telemetry)

    demands = problem.demands
    # Demand certificate for the whole mixed problem: nothing is congested,
    # both families take their peaks, and no composition is needed.
    bottleneck = verify_max_min(problem, demands)
    if bottleneck is not None and (bottleneck == -1).all():
        telemetry.inc("solver.demand_certificates")
        return Allocation(rates=demands.astype(np.float64).copy(),
                          bottleneck=bottleneck, iterations=0,
                          prices=np.zeros(problem.n_resources))

    inelastic = ~elastic
    hint = None
    if warm_start is not None:
        candidate = np.asarray(warm_start, dtype=np.float64)
        if candidate.shape == demands.shape:
            hint = candidate

    sub_inelastic = _column_subproblem(problem, inelastic, problem.capacities)
    inelastic_allocation = max_min_allocation(
        sub_inelastic,
        warm_start=hint[inelastic] if hint is not None else None,
        telemetry=telemetry,
    )

    residual = problem.capacities - problem.usage[:, inelastic] @ inelastic_allocation.rates
    residual = np.maximum(residual, 0.0)
    sub_elastic = _column_subproblem(problem, elastic, residual)
    elastic_allocation = alpha_fair_allocation(
        sub_elastic,
        warm_start=hint[elastic] if hint is not None else None,
        warm_prices=warm_prices,
        telemetry=telemetry,
    )

    rates = np.empty(problem.n_flows)
    rates[inelastic] = inelastic_allocation.rates
    rates[elastic] = elastic_allocation.rates
    bottleneck = np.empty(problem.n_flows, dtype=np.int64)
    bottleneck[inelastic] = inelastic_allocation.bottleneck
    bottleneck[elastic] = elastic_allocation.bottleneck
    return Allocation(
        rates=rates,
        bottleneck=bottleneck,
        iterations=inelastic_allocation.iterations + elastic_allocation.iterations,
        warm_started=(inelastic_allocation.iterations == 0
                      and elastic_allocation.iterations == 0
                      and (inelastic_allocation.warm_started
                           or elastic_allocation.warm_started)),
        prices=elastic_allocation.prices,
    )
