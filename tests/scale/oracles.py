"""Independent reference solutions for the fluid solver's allocations.

The alpha-fair point is the solution of a convex programme; this module
solves that programme in its *primal* form with a general-purpose SQP
method (``scipy.optimize.minimize(method="SLSQP")``) and shares no code with
``repro.scale.solver``, which works on the dual.  Agreement between the two
is evidence about the answer, not about one implementation agreeing with
itself.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize, nnls

#: Relative KKT residual (stationarity, complementary slackness) every
#: reference answer must meet before it is returned.
KKT_RTOL = 1e-5
#: SLSQP precision goals of the successive rounds; each round restarts
#: from the last answer with the variables rescaled around it.
COLD_ROUNDS = (1e-10, 1e-14, 1e-16)
WARM_ROUNDS = (1e-16,)
#: Lower bound of the demand-normalised rates (the log utility is -inf at 0).
_LOWER = 1e-12


def alpha_fair_oracle(demands, usage, capacities, weights, alpha, start=None) -> np.ndarray:
    """The weighted alpha-fair rates, capped at ``demands``.

    Maximises ``sum_f w_f U_{alpha_f}(r_f)`` subject to ``usage @ r <=
    capacities`` and ``0 <= r <= demands``, where ``U_1 = log`` and
    ``U_a(r) = r^(1-a) / (1-a)``.  A flow crossing a zero-capacity resource,
    or with zero demand, is pinned at zero.  Variables are demand-normalised
    rates ``x = r / d`` and resource rows are normalised by their
    capacities.  Each round rescales the variables by the previous round's
    answer and measures every utility term from there, so the objective
    stays O(1) and resolves small moves; ``start`` (rates of a nearby
    problem) replaces the first, coarse round.  The answer is returned only
    if it passes a KKT check whose multipliers are fitted independently of
    SLSQP's.
    """
    demands = np.asarray(demands, dtype=np.float64)
    usage = np.atleast_2d(np.asarray(usage, dtype=np.float64))
    capacities = np.asarray(capacities, dtype=np.float64)
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), demands.shape)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64), demands.shape)

    crossed = usage > 0
    pinned = (crossed & (capacities <= 0)[:, None]).any(axis=0) | (demands <= 0)
    rates = np.zeros(demands.shape)
    free = np.flatnonzero(~pinned)
    if free.size == 0:
        return rates
    d = demands[free]
    w = weights[free]
    a = alpha[free]
    rows = (capacities > 0) & crossed[:, free].any(axis=1)
    # Constraint i: 1 - sum_f G[i, f] x_f >= 0.
    G = usage[np.ix_(rows, free)] * d / capacities[rows, None]

    if start is None:
        loads = G.sum(axis=1)
        x = np.full(free.size, min(1.0, 0.5 / float(loads.max())) if loads.size else 1.0)
        rounds = COLD_ROUNDS
    else:
        x = np.clip(np.asarray(start, dtype=np.float64)[free] / d, _LOWER, 1.0)
        loads = G @ x
        if loads.size and loads.max() > 1.0:
            x = x * (0.999 / float(loads.max()))
        rounds = WARM_ROUNDS
    coef = w * d ** (1.0 - a)
    for ftol in rounds:
        x = _slsqp_round(x, G, coef, a, ftol)
    _kkt_check(x, G, coef * x ** (-a))
    rates[free] = x * d
    return rates


def _slsqp_round(x, G, coef, a, ftol):
    """One SLSQP solve in ``y = x / x0`` around the current point ``x0``."""
    scale = x.copy()
    Gs = G * scale
    log_flow = a == 1.0
    power = np.where(log_flow, 1.0, 1.0 - a)
    # U(x0 y) - U(x0) = x0^(1-a) (y^(1-a) - 1) / (1-a), or log(y) at a = 1.
    c = coef * scale ** (1.0 - a)
    norm = 1.0 / float(c.max())

    def objective(y):
        logs = np.log(y)
        terms = np.where(log_flow, logs, np.expm1(power * logs) / power)
        return -norm * float(np.sum(c * terms))

    def gradient(y):
        return -norm * c * y ** (-a)

    result = minimize(
        objective,
        np.ones(x.size),
        jac=gradient,
        method="SLSQP",
        bounds=list(zip(_LOWER / scale, 1.0 / scale)),
        constraints=[{"type": "ineq",
                      "fun": lambda y: 1.0 - Gs @ y,
                      "jac": lambda y: -Gs}],
        options={"ftol": ftol, "maxiter": 3000},
    )
    # SLSQP reports a failed line search once the objective stops moving at
    # machine precision; such an answer is judged by the KKT check alone.
    if result.status not in (0, 8):
        raise RuntimeError(f"SLSQP reference failed: {result.message}")
    return np.clip(scale * result.x, _LOWER, 1.0)


def _kkt_check(x, G, marginal):
    """Raise unless ``x`` is feasible and KKT-stationary to ``KKT_RTOL``.

    Multipliers are fitted by non-negative least squares on the rows within
    ``KKT_RTOL`` of saturation, to the relative stationarity equations of
    the uncapped flows; capped flows must value their cap at least at
    their path price.
    """
    slack = 1.0 - G @ x
    if (slack < -1e-9).any():
        raise RuntimeError(f"SLSQP reference is infeasible by {-slack.min():.2e}")
    tight = np.flatnonzero(slack <= KKT_RTOL)
    interior = x < 1.0 - 1e-9
    prices = np.zeros(G.shape[0])
    if tight.size and interior.any():
        system = (G[tight][:, interior] / marginal[interior]).T
        prices[tight] = nnls(system, np.ones(int(interior.sum())),
                             maxiter=50 * tight.size)[0]
    path = G.T @ prices
    stationarity = np.abs(path[interior] - marginal[interior]) / marginal[interior]
    if (stationarity > KKT_RTOL).any() or (path[~interior] > marginal[~interior]
                                           * (1.0 + KKT_RTOL)).any():
        raise RuntimeError("SLSQP reference fails its KKT check: stationarity "
                           f"{stationarity.max(initial=0.0):.2e}")
