import numpy as np
import pytest

import episteer as ep
from episteer import control
from _support import random_covered_instance


def _belief_for(g, o, xhat, x_obs):
    xhat = np.asarray(xhat, dtype=float).copy()
    xhat[o.mask] = x_obs[o.mask]
    return ep.BeliefState(xhat=xhat, observers=o, obs_cur=x_obs)


def _random_setup(seed, n=6, p=0.4):
    g, o = random_covered_instance(seed, n, p)
    rng = ep.RngStream((seed, 77))
    x = (rng.uniforms(n) < 0.4).astype(np.uint8)
    belief = _belief_for(g, o, rng.uniforms(n), x)
    return g, o, x, belief, rng


# -- back transform -----------------------------------------------------------

def test_back_transform_extremes_and_examples():
    g = ep.SpreadingGraph(2, ((0, 1),))
    spec = ep.ControlSpec(r=0.5, w=2.0)
    params = ep.back_transform(np.zeros(2), np.ones(1), spec, g)
    assert np.array_equal(params.delta, np.ones(2))
    assert np.array_equal(params.beta, np.zeros(1))
    params = ep.back_transform(np.full(2, 0.25), np.array([0.25]), spec, g)
    assert params.beta[0] == pytest.approx(0.5)


def test_back_transform_round_trip_interior_points():
    g = ep.SpreadingGraph(2, ((0, 1), (1, 0)))
    rng = ep.RngStream(5)
    for w in (2.5, 3.0, 7.0):
        spec = ep.ControlSpec(r=0.5, w=w)
        delta = 0.01 + 0.98 * rng.uniforms(2)
        beta = 0.01 + 0.98 * rng.uniforms(2)
        params = ep.back_transform(1.0 - delta, (1.0 - beta) ** w, spec, g)
        assert np.all(np.abs(params.delta - delta) <= 1e-14)
        assert np.all(np.abs(params.beta - beta) <= 1e-14)


# -- transformed infection probability ----------------------------------------

def test_infection_term_zero_when_survival_certain():
    g = ep.SpreadingGraph(3, ((0, 2), (1, 2)))
    o = ep.ObserverSet.from_members(3, [1, 2])
    x = np.array([0, 1, 0], dtype=np.uint8)
    belief = _belief_for(g, o, np.array([0.0, 0.0, 0.0]), x)
    spec = ep.ControlSpec(r=0.5, w=3.0)
    gamma = np.ones(2)
    for i in range(3):
        assert ep.transformed_infection_prob(i, x, belief, gamma, spec, g, o) == 0.0


def test_infection_term_single_attacker():
    g = ep.SpreadingGraph(2, ((1, 0),))
    o = ep.ObserverSet.from_members(2, [1])
    x = np.array([0, 1], dtype=np.uint8)
    belief = _belief_for(g, o, np.zeros(2), x)
    spec = ep.ControlSpec(r=0.5, w=2.0)
    got = ep.transformed_infection_prob(0, x, belief, np.array([0.5]), spec, g, o)
    assert got == pytest.approx(1.0 - 0.5 ** 0.5, abs=1e-12)


def test_infection_term_matches_expectation_expansion():
    for seed in range(12):
        g, o, x, belief, rng = _random_setup(seed)
        m = len(g.edges)
        if m == 0:
            continue
        w = g.d_max + 1.0 + 2.0 * rng.uniforms(1)[0]
        spec = ep.ControlSpec(r=0.5, w=w)
        gamma = 0.05 + 0.95 * rng.uniforms(m)
        beta = 1.0 - gamma ** (1.0 / w)
        for i in range(g.node_count):
            got = ep.transformed_infection_prob(i, x, belief, gamma, spec, g, o)
            # direct expectation of the infection indicator given the
            # information set, expanded over the one unknown in-neighbor
            jp = ep.unobserved_in_neighbor(g, o, i) if i in o else None
            surv = 1.0
            for j, eid in zip(g.in_neighbors[i], g.in_edge_ids[i]):
                if o.mask[j]:
                    surv *= 1.0 - beta[eid] * x[j]
            if jp is None:
                want = 1.0 - surv
            else:
                xj = belief.xhat[jp]
                b = beta[g.edges.index((jp, i))]
                want = xj * (1.0 - surv * (1.0 - b)) + (1.0 - xj) * (1.0 - surv)
            assert got == pytest.approx(want, abs=1e-12)


# -- constraint value ----------------------------------------------------------

def test_constraint_zero_for_healthy_certainty():
    g = ep.SpreadingGraph(3, ((0, 1), (1, 2)))
    o = ep.ObserverSet.from_members(3, [0, 1, 2])
    x = np.zeros(3, dtype=np.uint8)
    belief = _belief_for(g, o, np.zeros(3), x)
    spec = ep.ControlSpec(r=0.5, w=3.0)
    val = ep.constraint_value(x, belief, np.full(3, 0.7), np.ones(2), spec, g, o)
    assert val == 0.0


def test_constraint_single_infected_node_reduces_to_scalar():
    g = ep.SpreadingGraph(1, ())
    o = ep.ObserverSet.from_members(1, [0])
    x = np.ones(1, dtype=np.uint8)
    belief = _belief_for(g, o, np.ones(1), x)
    spec = ep.ControlSpec(r=0.4, w=1.0)
    for dc in (0.0, 0.25, 0.4, 0.9):
        got = ep.constraint_value(x, belief, np.array([dc]), np.empty(0), spec, g, o)
        assert got == pytest.approx(dc - 0.4)


def test_constraint_matches_predictor_gap():
    for seed in range(25):
        g, o, x, belief, rng = _random_setup(seed, n=7, p=0.35)
        n, m = g.node_count, len(g.edges)
        w = g.d_max + 1.0 + rng.uniforms(1)[0]
        spec = ep.ControlSpec(r=0.3 + 0.5 * rng.uniforms(1)[0], w=w)
        dc = rng.uniforms(n)
        gamma = 0.02 + 0.98 * rng.uniforms(m)
        got = ep.constraint_value(x, belief, dc, gamma, spec, g, o)
        params = ep.back_transform(dc, gamma, spec, g)
        want = (float(ep.predict_all(belief, g, params, x).sum())
                - spec.r * float(belief.xhat.sum()))
        assert got == pytest.approx(want, abs=1e-10)


def test_constraint_jensen_convexity():
    for seed in range(25):
        g, o, x, belief, rng = _random_setup(seed, n=7, p=0.35)
        n, m = g.node_count, len(g.edges)
        spec = ep.ControlSpec(r=0.5, w=g.d_max + 1.0)
        dc1, dc2 = rng.uniforms(n), rng.uniforms(n)
        gm1 = 0.02 + 0.98 * rng.uniforms(m)
        gm2 = 0.02 + 0.98 * rng.uniforms(m)
        lam = float(rng.uniforms(1)[0])
        mid = ep.constraint_value(x, belief, lam * dc1 + (1 - lam) * dc2,
                                  lam * gm1 + (1 - lam) * gm2, spec, g, o)
        ends = (lam * ep.constraint_value(x, belief, dc1, gm1, spec, g, o)
                + (1 - lam) * ep.constraint_value(x, belief, dc2, gm2, spec, g, o))
        assert mid <= ends + 1e-10


# -- cost descriptors -----------------------------------------------------------

def test_cost_descriptor_shapes():
    aff = ep.AffineCost(-1.0, 1.0)
    assert aff.value(0.25) == 0.75 and aff.slope(0.5) == -1.0
    assert aff.box_argmin(0.1, 0.9) == 0.9

    pw = ep.PowerCost(0.5, 2.0)
    assert pw.value(0.25) == pytest.approx(1.0)
    assert pw.box_argmin(0.1, 0.9) == 0.1
    with pytest.raises(ValueError):
        ep.PowerCost(0.0)

    pwl = ep.PiecewiseLinearCost((0.0, 0.5, 1.0), (1.0, 0.2, 0.6))
    assert pwl.value(0.25) == pytest.approx(0.6)
    assert pwl.slope(0.25) == pytest.approx(-1.6)
    assert pwl.box_argmin(0.0, 1.0) == 0.5
    with pytest.raises(ValueError):
        ep.PiecewiseLinearCost((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        # concave corner
        ep.PiecewiseLinearCost((0.0, 0.5, 1.0), (0.0, 0.6, 0.7))


def test_control_spec_validation():
    with pytest.raises(ValueError):
        ep.ControlSpec(r=0.0)
    with pytest.raises(ValueError):
        ep.ControlSpec(r=1.0)
    g = ep.SpreadingGraph(3, ((0, 2), (1, 2)))
    with pytest.raises(ValueError):
        ep.ControlSpec(r=0.5, w=2.0).effective_w(g)  # w must exceed d_max
    assert ep.ControlSpec(r=0.5).effective_w(g) == 3.0


# -- solve ----------------------------------------------------------------------

def test_solve_scalar_analytic_optimum():
    g = ep.SpreadingGraph(1, ())
    o = ep.ObserverSet.from_members(1, [0])
    x = np.ones(1, dtype=np.uint8)
    belief = _belief_for(g, o, np.ones(1), x)
    dec = ep.solve(x, belief, ep.ControlSpec(r=0.4, w=2.0), g, o)
    assert abs(dec.delta_star[0] - 0.6) <= 1e-6
    assert dec.constraint_slack >= -1e-6
    assert abs(dec.objective_value - 0.6) <= 1e-6


def test_solve_healthy_certainty_takes_cheap_corner():
    g = ep.SpreadingGraph(3, ((0, 1), (1, 2)))
    o = ep.ObserverSet.from_members(3, [0, 1, 2])
    x = np.zeros(3, dtype=np.uint8)
    belief = _belief_for(g, o, np.zeros(3), x)
    dec = ep.solve(x, belief, ep.ControlSpec(r=0.5), g, o)
    assert dec.constraint_slack == pytest.approx(0.0, abs=1e-12)
    # nothing to control: no healing spend, no suppression spend
    assert np.array_equal(dec.delta_star, np.zeros(3))
    assert np.array_equal(dec.gamma, np.full(2, 1e-9))
    fallback_cost = 3 * 1.0 + 2 * 1.0
    assert dec.objective_value <= fallback_cost


def test_solve_infeasible_reports_minimal_lhs():
    g = ep.SpreadingGraph(1, ())
    o = ep.ObserverSet.from_members(1, [0])
    x = np.ones(1, dtype=np.uint8)
    belief = _belief_for(g, o, np.ones(1), x)
    spec = ep.ControlSpec(r=0.4, w=2.0, delta_c_bounds=(0.5, 1.0))
    with pytest.raises(ep.Infeasible) as err:
        ep.solve(x, belief, spec, g, o)
    assert err.value.min_lhs == pytest.approx(0.5)


def test_solve_rejects_observers_that_are_not_a_cover():
    # unobserved node 1 has the unobserved in-neighbor 0
    g = ep.SpreadingGraph(3, ((0, 1), (2, 0)))
    o = ep.ObserverSet.from_members(3, [2])
    x = np.zeros(3, dtype=np.uint8)
    belief = _belief_for(g, o, np.full(3, 0.5), x)
    spec = ep.ControlSpec(r=0.8)
    with pytest.raises(ep.CoverViolation) as err:
        ep.solve(x, belief, spec, g, o)
    assert err.value.node == 1
    with pytest.raises(ep.CoverViolation):
        ep.transformed_infection_prob(1, x, belief, np.ones(2), spec, g, o)


def test_solve_pinned_bounds_full_suppression():
    g, o = random_covered_instance(3, 6, 0.4)
    x = np.ones(6, dtype=np.uint8)
    belief = _belief_for(g, o, np.ones(6), x)
    spec = ep.ControlSpec(r=0.5, delta_c_bounds=(0.0, 0.0), gamma_bounds=(1.0, 1.0))
    dec = ep.solve(x, belief, spec, g, o)
    assert np.array_equal(dec.delta_star, np.ones(6))
    assert np.array_equal(dec.beta_star, np.zeros(len(g.edges)))
    assert dec.constraint_slack >= -1e-6


def test_solve_deterministic():
    g, o, x, belief, _ = _random_setup(9, n=8, p=0.3)
    spec = ep.ControlSpec(r=0.7)
    d1 = ep.solve(x, belief, spec, g, o)
    d2 = ep.solve(x, belief, spec, g, o)
    assert np.array_equal(d1.delta_star, d2.delta_star)
    assert np.array_equal(d1.beta_star, d2.beta_star)
    assert d1.objective_value == d2.objective_value


def test_solve_random_instances_feasible_and_certified():
    for seed in range(10):
        g, o, x, belief, _ = _random_setup(seed, n=8, p=0.3)
        spec = ep.ControlSpec(r=0.6)
        dec = ep.solve(x, belief, spec, g, o)
        assert dec.constraint_slack >= -1e-6
        # decision variables within their boxes
        assert np.all(dec.delta_c >= 0.0) and np.all(dec.delta_c <= 1.0)
        if len(g.edges):
            assert np.all(dec.gamma >= 1e-9) and np.all(dec.gamma <= 1.0)
        # re-derive the slack independently through the predictors
        params = ep.SISParams(dec.delta_star, dec.beta_star)
        lhs = float(ep.predict_all(belief, g, params, x).sum())
        assert lhs <= spec.r * float(belief.xhat.sum()) + 1e-6


def test_solve_supports_piecewise_linear_costs():
    g = ep.SpreadingGraph(1, ())
    o = ep.ObserverSet.from_members(1, [0])
    x = np.ones(1, dtype=np.uint8)
    belief = _belief_for(g, o, np.ones(1), x)
    # kinked healing cost, still minimized at the constraint boundary 0.4
    cost = ep.PiecewiseLinearCost((0.0, 0.5, 1.0), (1.0, 0.4, 0.0))
    spec = ep.ControlSpec(r=0.4, w=2.0, node_cost=cost)
    dec = ep.solve(x, belief, spec, g, o)
    assert abs(dec.delta_c[0] - 0.4) <= 1e-5
    assert dec.constraint_slack >= -1e-6


def test_solve_feasible_throughout_reference_closed_loop():
    # the 30-node reference configuration, driven for 100 steps: a feasible
    # decision (predictor-certified within 1e-6) must come back every step
    g = ep.generate_er_graph(30, 0.2, 82)
    o = ep.approx_min_cover(ep.moralize(g))
    spec = ep.ControlSpec(r=0.8)
    rng = ep.RngStream((82, 100))
    state = ep.ProcessState(np.ones(30, dtype=np.uint8))
    belief = ep.initial_belief(g, o, np.ones(30), state.x)
    converged = []
    for _ in range(100):
        dec = ep.solve(state.x, belief, spec, g, o)
        assert dec.constraint_slack >= -1e-6
        diag = dec.solver_diagnostics
        if diag.mode == "corner":
            assert (diag.iterations, diag.final_tolerance, diag.converged) == (0, 0.0, True)
        else:
            # the reported tolerance is the last stage's own Newton decrement:
            # it passed the final test exactly when the stage converged
            assert diag.converged == (diag.final_tolerance <= 1e-11)
            converged.append(diag.converged)
        params = ep.SISParams(dec.delta_star, dec.beta_star)
        state = ep.step(g, params, state, rng)
        belief = ep.filter_step(belief, g, params, state.x)
    # both outcomes occur along this trajectory
    assert any(converged) and not all(converged)


def test_solve_affine_edge_costs_reach_analytic_optimum():
    # minimize (1-dc_0) + (1-dc_1) + gamma  s.t.  dc_0 + (1 - sqrt(gamma)) <= 0.5:
    # eliminating the active constraint gives gamma* = 0.25, dc_0* = 0,
    # dc_1* = 1 (unconstrained), optimal value 1.25
    g = ep.SpreadingGraph(2, ((0, 1),))
    o = ep.ObserverSet.from_members(2, [0, 1])
    x = np.array([1, 0], dtype=np.uint8)
    belief = _belief_for(g, o, np.zeros(2), x)
    spec = ep.ControlSpec(r=0.5, w=2.0, edge_cost=ep.AffineCost(1.0, 0.0))
    dec = ep.solve(x, belief, spec, g, o)
    lhs = dec.delta_c[0] + (1.0 - dec.gamma[0] ** 0.5)
    assert lhs == pytest.approx(0.5, abs=1e-6)
    assert dec.objective_value == pytest.approx(1.25, abs=1e-6)
    assert dec.delta_c[1] == 1.0


# -- structured Newton step -----------------------------------------------------

NEWTON_COSTS = [None, ep.PowerCost(2.0),
                ep.PiecewiseLinearCost((0.0, 0.5, 1.0), (0.0, 0.2, 1.0))]


def _model_at_interior_point(seed, edge_cost):
    """Compiled constraint, costs and a strictly feasible interior point."""
    g, o, x, belief, rng = _random_setup(seed, n=9, p=0.35)
    spec = ep.ControlSpec(r=0.6, edge_cost=edge_cost)
    n, m = g.node_count, len(g.edges)
    dlo, dhi = control._resolve_bounds(spec.delta_c_bounds, n, "delta_c")
    glo, ghi = control._resolve_bounds(spec.gamma_bounds, m, "gamma", positive_lo=True)
    model = control._ConstraintModel(x, belief, spec, g, o, dlo, dhi, glo, ghi)
    lo = np.concatenate([dlo[model.coupled_delta], glo[model.coupled_gamma]])
    hi = np.concatenate([dhi[model.coupled_delta], ghi[model.coupled_gamma]])
    corner = np.concatenate([dlo[model.coupled_delta], ghi[model.coupled_gamma]])
    if model.coupled_gamma.size == 0 or model.value(corner) >= -1e-3:
        return None
    z = lo + (hi - lo) * (0.1 + 0.8 * rng.uniforms(model.dim))
    while model.value(z) >= -1e-4:
        z = corner + 0.5 * (z - corner)
    z = np.clip(z, lo + 1e-3, hi - 1e-3)
    if model.value(z) >= 0.0:
        return None
    costs = control._CostArray(
        [spec.resolved_node_costs(g)[i] for i in model.coupled_delta]
        + [spec.resolved_edge_costs(g)[e] for e in model.coupled_gamma])
    return model, costs, z, lo, hi, rng


def _dense_constraint_hessian(model, z):
    """Expand the model's per-target-node blocks into a dense matrix."""
    dense = np.zeros((model.dim, model.dim))
    flat = model.hess(z)
    for size, var, span in model._groups:
        for k, block in enumerate(flat[span].reshape(-1, size, size)):
            first = var.start + k * size
            dense[first:first + size, first:first + size] = block
    return dense


@pytest.mark.parametrize("edge_cost", NEWTON_COSTS)
def test_block_hessian_matches_gradient_differences(edge_cost):
    checked = 0
    for seed in range(30):
        inst = _model_at_interior_point(seed, edge_cost)
        if inst is None:
            continue
        model, _, z, _, _, rng = inst
        v = rng.uniforms(model.dim) - 0.5
        h = 1e-5
        want = (model.grad(z + h * v) - model.grad(z - h * v)) / (2.0 * h)
        got = _dense_constraint_hessian(model, z) @ v
        assert np.abs(got - want).max() <= 1e-6 * max(1.0, np.abs(want).max())
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("edge_cost", NEWTON_COSTS)
def test_structured_newton_step_matches_dense_solve(edge_cost):
    checked = 0
    for seed in range(30):
        inst = _model_at_interior_point(seed, edge_cost)
        if inst is None:
            continue
        model, costs, z, lo, hi, _ = inst
        t = 10.0
        c = model.value(z)
        cg = model.grad(z)
        g0 = t * costs.slope(z) - 1.0 / (z - lo) + 1.0 / (hi - z)
        diag = (t * np.maximum(costs.curvature(z), 0.0)
                + 1.0 / (z - lo) ** 2 + 1.0 / (hi - z) ** 2)
        dense = (_dense_constraint_hessian(model, z) / (-c)
                 + np.outer(cg, cg) / (c * c) + np.diag(diag))
        want = np.linalg.solve(dense, -(g0 + cg / (-c)))
        got = model.newton_step(z, c, cg, diag, g0)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        checked += 1
    assert checked >= 10


# -- optimality on small convex instances ------------------------------------------

def _grid_minimum(x, belief, spec, g, o, node, edges, points=21, rounds=14):
    """Least objective over feasible points of a zooming grid on ``gamma[edges]``.

    ``node``'s retention variable is the only other variable the constraint
    touches.  The constraint is affine in it, so for each grid point it takes
    its cost-minimal value among those that keep the constraint satisfied;
    every other variable takes its cost-minimal box value.
    """
    n, m = g.node_count, len(g.edges)
    dlo, dhi = control._resolve_bounds(spec.delta_c_bounds, n, "delta_c")
    glo, ghi = control._resolve_bounds(spec.gamma_bounds, m, "gamma")
    node_costs, edge_costs = spec.resolved_node_costs(g), spec.resolved_edge_costs(g)
    dc = np.array([c.box_argmin(a, b) for c, a, b in zip(node_costs, dlo, dhi)])
    gamma = np.array([c.box_argmin(a, b) for c, a, b in zip(edge_costs, glo, ghi)])
    slope = belief.xhat[node]
    box_lo, box_hi = glo[edges], ghi[edges]
    best, best_point = np.inf, None
    for _ in range(rounds):
        axes = [np.linspace(a, b, points) for a, b in zip(box_lo, box_hi)]
        for point in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(edges)):
            gamma[edges] = point
            dc[node] = dlo[node]
            gap = ep.constraint_value(x, belief, dc, gamma, spec, g, o)
            top = dlo[node] - gap / slope
            if top < dlo[node]:
                continue
            dc[node] = node_costs[node].box_argmin(dlo[node], min(dhi[node], top))
            value = (sum(c.value(v) for c, v in zip(node_costs, dc))
                     + sum(c.value(v) for c, v in zip(edge_costs, gamma)))
            if value < best:
                best, best_point = value, point.copy()
        width = 2.0 * (box_hi - box_lo) / (points - 1)
        box_lo = np.maximum(glo[edges], best_point - width)
        box_hi = np.minimum(ghi[edges], best_point + width)
    return best


def _optimality_instances():
    """Covered instances with one coupled retention and at most two survival variables."""
    out = []
    g = ep.SpreadingGraph(2, ((0, 1),))
    out.append((g, ep.ObserverSet.from_members(2, [0, 1]), [1, 0], [1.0, 0.0], None, 0, [0]))
    g = ep.SpreadingGraph(3, ((0, 1), (0, 2)))
    out.append((g, ep.ObserverSet.from_members(3, [0, 1, 2]), [1, 0, 0], [1.0, 0.0, 0.0],
                None, 0, [0, 1]))
    # two infected sources into one target: one 2 x 2 Hessian block
    g = ep.SpreadingGraph(3, ((0, 2), (1, 2)))
    pin = ((0.0, 1.0), (0.3, 0.3), (0.0, 1.0))
    out.append((g, ep.ObserverSet.from_members(3, [0, 1, 2]), [1, 1, 0], [1.0, 1.0, 0.0],
                pin, 0, [0, 1]))
    # the target's second in-neighbor is unobserved: a belief-weighted term
    out.append((g, ep.ObserverSet.from_members(3, [0, 2]), [1, 0, 0], [1.0, 0.4, 0.0],
                pin, 0, [0, 1]))
    return out


@pytest.mark.parametrize("edge_cost", [ep.PowerCost(2.0), ep.PowerCost(1.5, 2.0),
                                       ep.AffineCost(1.0, 0.0)])
@pytest.mark.parametrize("case", range(4))
def test_solve_matches_grid_minimum_for_convex_costs(edge_cost, case):
    g, o, x, xhat, pin, node, edges = _optimality_instances()[case]
    x = np.array(x, dtype=np.uint8)
    belief = _belief_for(g, o, np.array(xhat), x)
    bounds = pin if pin is not None else (0.0, 1.0)
    spec = ep.ControlSpec(r=0.5, w=g.d_max + 1.0, delta_c_bounds=bounds,
                          edge_cost=edge_cost)
    dec = ep.solve(x, belief, spec, g, o)
    assert dec.solver_diagnostics.mode == "barrier"
    assert dec.constraint_slack >= -1e-6
    best = _grid_minimum(x, belief, spec, g, o, node, edges)
    assert abs(dec.objective_value - best) <= 1e-6


def test_solve_sparse_2000_heavy_state_certified():
    # a heavy decision on a sparse 2000-node graph: one step after an
    # all-infected start, most nodes carry survival-product terms
    n = 2000
    g = ep.generate_er_graph(n, 3.0 / (n - 1), 7)
    o = ep.approx_min_cover(ep.moralize(g))
    spec = ep.ControlSpec(r=0.8)
    rng = ep.RngStream((7, 1))
    state = ep.ProcessState(np.ones(n, dtype=np.uint8))
    belief = ep.initial_belief(g, o, np.ones(n), state.x)
    dec = ep.solve(state.x, belief, spec, g, o)
    params = ep.SISParams(dec.delta_star, dec.beta_star)
    state = ep.step(g, params, state, rng)
    belief = ep.filter_step(belief, g, params, state.x)
    dec = ep.solve(state.x, belief, spec, g, o)
    assert dec.solver_diagnostics.mode == "barrier"
    assert dec.constraint_slack >= -1e-6


def test_solve_ends_a_stage_whose_gap_is_at_rounding_level():
    # a valid cover one observer smaller than the auto cover: in replication
    # 192 the last barrier stage meets a constraint gap of about -1e-11, where
    # the Newton step is too inaccurate to descend; the stage must end stalled
    from episteer import harness
    cfg = harness.config_from_dict({
        "graph": {"kind": "er", "n": 30, "p": 0.2, "seed": 82},
        "observers": {"kind": "explicit", "members": list(range(24)) + [29]},
        "control": {"r": 0.8},
        "run": {"horizon": 2, "replications": 193, "seed": 20260809}})
    records = harness._run_replication(cfg, 192)
    assert [r.t for r in records] == [0, 1, 2]
    assert min(r.slack for r in records) >= -1e-6
