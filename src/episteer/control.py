"""One-step receding-horizon control of the partially observed SIS process.

Each step the controller picks healing and transmission probabilities that
minimize a resource cost subject to the expected infected count contracting
by a chosen decay rate.  In the raw parameters the decay constraint involves
products of decision variables; substituting the retention probability
``delta_c = 1 - delta`` per node and the powered edge-survival variable
``gamma = (1 - beta)**w`` per edge (with the exponent ``w`` above the
maximum in-degree) makes the constraint a single smooth convex inequality
over a box, which we solve with a logarithmic-barrier interior-point method.

Generic modeling layers reject the product terms, so the barrier solver is
coded directly: damped Newton with backtracking per stage, barrier weight
increased tenfold per stage, terminating once the duality measure drops
below 1e-8.  Each survival product involves in-edges of one target node
only, so the Newton matrix is block-diagonal by target node plus a diagonal
and one rank-one term.  A Newton step assembles it in O(sum of squared
in-degrees), solves the blocks in O(sum of cubed in-degrees) and needs
O(n + m + sum of squared in-degrees) memory, never a dense matrix.  The
Newton model drops negative cost curvature (the default edge cost is
concave), so every Newton system is positive definite.  Variables that the
constraint does not touch are split off and minimized in closed form.  Every
returned decision is re-certified through the one-step predictors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import Infeasible, SolverFailure
from .filtering import BeliefState, predict_all
from .graphs import (ObserverSet, SpreadingGraph, _frozen, observation_plan,
                     require_cover)
from .simulate import SISParams

DUALITY_TARGET = 1e-8
SLACK_TOLERANCE = 1e-6
_GAP_ROUNDING = 1e4 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# cost descriptors

class CostTerm:
    """One-dimensional cost of a single transformed decision variable.

    The formulas live in :class:`_CostArray`; a scalar method evaluates a
    one-entry table.
    """

    def value(self, z: float) -> float:
        return float(_CostArray([self]).values(np.array([z], float))[0])

    def slope(self, z: float) -> float:
        return float(_CostArray([self]).slope(np.array([z], float))[0])

    def curvature(self, z: float) -> float:
        return float(_CostArray([self]).curvature(np.array([z], float))[0])

    def box_argmin(self, lo: float, hi: float) -> float:
        return float(_CostArray([self]).box_argmin(np.array([lo], float),
                                                   np.array([hi], float))[0])


@dataclass(frozen=True)
class AffineCost(CostTerm):
    """``slope_coef * z + intercept``."""

    slope_coef: float
    intercept: float = 0.0


@dataclass(frozen=True)
class PowerCost(CostTerm):
    """``scale * z**exponent`` with a positive exponent; monotone on [0, 1]."""

    exponent: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.exponent > 0.0:
            raise ValueError("power cost exponent must be positive")


@dataclass(frozen=True)
class PiecewiseLinearCost(CostTerm):
    """Convex piecewise-linear cost tabulated as breakpoints."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        ys = tuple(float(v) for v in self.ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need at least two (x, y) breakpoints")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        slopes = [(yb - ya) / (xb - xa)
                  for (xa, xb, ya, yb) in zip(xs, xs[1:], ys, ys[1:])]
        if any(s2 < s1 - 1e-12 for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("piecewise-linear cost must be convex")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


class _CostArray:
    """Value, slope, curvature and box minimizer over a vector of variables.

    The one home of every cost formula.  ``terms`` are distinct descriptors
    and variable k's cost is ``terms[code[k]]``.  Affine and power costs are
    rows ``scale * z**exponent + intercept`` of one table; a piecewise-linear
    cost interpolates its breakpoints.
    """

    def __init__(self, costs, code=None):
        if code is None:                 # one descriptor per variable
            ids = np.fromiter(map(id, costs), np.int64, len(costs))
            _, first, code = np.unique(ids, return_index=True, return_inverse=True)
            costs = [costs[k] for k in first]
        self.terms, self.code = costs, code
        rows = np.zeros((len(costs), 3))
        for t, c in enumerate(costs):
            if isinstance(c, AffineCost):
                rows[t] = (c.slope_coef, 1.0, c.intercept)
            elif isinstance(c, PowerCost):
                rows[t] = (c.scale, c.exponent, 0.0)
            elif not isinstance(c, PiecewiseLinearCost):
                raise TypeError(f"unsupported cost descriptor {c!r}")
        pieces = np.array([isinstance(c, PiecewiseLinearCost) for c in costs], bool)
        self.idx = np.flatnonzero(~pieces[code])
        self.scale, self.exp, self.intercept = rows[code[self.idx]].T
        self.pieces = [(np.array(c.xs), np.array(c.ys), sel) for t, c in enumerate(costs)
                       if pieces[t] and (sel := np.flatnonzero(code == t)).size]

    def values(self, z) -> np.ndarray:
        out = np.empty(z.size)
        out[self.idx] = self.scale * z[self.idx] ** self.exp + self.intercept
        for xs, ys, sel in self.pieces:
            out[sel] = np.interp(z[sel], xs, ys)
        return out

    def value(self, z) -> float:
        return float(self.values(z).sum())

    def running_total(self, z) -> float:
        """The sum of the costs taken left to right, with a scalar loop's rounding."""
        return float(np.cumsum(self.values(z))[-1]) if z.size else 0.0

    def slope(self, z) -> np.ndarray:
        out = np.empty(z.size)
        out[self.idx] = self.scale * self.exp * z[self.idx] ** (self.exp - 1.0)
        for xs, ys, sel in self.pieces:
            k = np.clip(np.searchsorted(xs, z[sel], "right") - 1, 0, xs.size - 2)
            out[sel] = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
        return out

    def curvature(self, z) -> np.ndarray:
        out = np.zeros(z.size)
        out[self.idx] = (self.scale * self.exp * (self.exp - 1.0)
                         * z[self.idx] ** (self.exp - 2.0))
        return out

    def box_argmin(self, lo, hi) -> np.ndarray:
        """Per variable, its cost-minimal value in ``[lo, hi]``: the first on ties."""
        out = np.empty(lo.size)
        out[self.idx] = np.where(self.scale >= 0.0, lo[self.idx], hi[self.idx])
        for xs, ys, sel in self.pieces:
            a, b = lo[sel, None], hi[sel, None]
            # candidates lo, the breakpoints inside (lo, hi), hi; others repeat lo
            cand = np.hstack([a, np.where((a < xs) & (xs < b), xs, a), b])
            out[sel] = cand[np.arange(sel.size), np.interp(cand, xs, ys).argmin(axis=1)]
        return out

    def spans(self, lo, hi) -> bool:
        """Whether every piecewise-linear cost's breakpoints span its variables' boxes."""
        return all(xs[0] <= lo[sel].min() + 1e-12 and xs[-1] >= hi[sel].max() - 1e-12
                   for xs, _, sel in self.pieces)


def default_node_cost() -> CostTerm:
    """Cost of a node's healing probability, written over the retention variable."""
    return AffineCost(-1.0, 1.0)


def default_edge_cost(g: SpreadingGraph, w: float) -> CostTerm:
    """Suppression cost of an edge, written over the powered survival variable."""
    exponent = (g.d_max - 1.0) / w
    if exponent <= 0.0:
        return AffineCost(0.0, 1.0)
    return PowerCost(exponent)


# ---------------------------------------------------------------------------
# problem specification and decision records

@dataclass(frozen=True)
class ControlSpec:
    """Decay target, transform exponent, box bounds, and cost descriptors.

    ``w`` defaults to one above the graph's maximum in-degree when left
    unset.  ``gamma`` lower bounds must stay strictly positive so the
    transform and the barrier remain differentiable (this also keeps
    transmission probabilities strictly below one, protecting the filter
    from zero-probability evidence).
    """

    r: float
    w: Optional[float] = None
    delta_c_bounds: tuple = (0.0, 1.0)
    gamma_bounds: tuple = (1e-9, 1.0)
    node_cost: Union[CostTerm, Sequence[CostTerm], None] = None
    edge_cost: Union[CostTerm, Sequence[CostTerm], None] = None

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError("decay rate r must lie strictly inside (0, 1)")
        if self.w is not None and not self.w > 0.0:
            raise ValueError("transform exponent must be positive")

    def effective_w(self, g: SpreadingGraph) -> float:
        w = float(self.w) if self.w is not None else g.d_max + 1.0
        if not w > g.d_max:
            raise ValueError(
                f"transform exponent {w} must exceed the maximum in-degree {g.d_max}")
        return w

    def resolved_node_costs(self, g: SpreadingGraph) -> list:
        return _spread_costs(self.node_cost, g.node_count, default_node_cost())

    def resolved_edge_costs(self, g: SpreadingGraph) -> list:
        default = default_edge_cost(g, self.effective_w(g))
        return _spread_costs(self.edge_cost, len(g.edges), default)


def _spread_costs(spec_value, count, default):
    if spec_value is None:
        return [default] * count
    if isinstance(spec_value, CostTerm):
        return [spec_value] * count
    costs = list(spec_value)
    if len(costs) != count:
        raise ValueError(f"expected {count} cost descriptors, got {len(costs)}")
    return costs


@dataclass(frozen=True)
class SolveDiagnostics:
    """How a decision was reached: ``mode`` is corner, barrier or fallback.

    ``final_tolerance`` is the Newton decrement at the last barrier stage's
    final iterate; ``converged`` says whether it passed that stage's test.
    """

    iterations: int
    final_tolerance: float
    stages: int
    mode: str
    converged: bool


@dataclass(frozen=True, eq=False)
class ControlDecision:
    """Selected parameters with the certified constraint slack.

    ``delta_star``/``beta_star`` are the back-transformed process parameters;
    ``delta_c``/``gamma`` keep the solver-space solution.  ``constraint_slack``
    is re-derived through the one-step predictors, never from the solver's own
    arithmetic; nonnegative means the decay constraint holds.
    """

    delta_star: np.ndarray
    beta_star: np.ndarray
    objective_value: float
    constraint_slack: float
    solver_diagnostics: SolveDiagnostics
    delta_c: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("delta_star", "beta_star", "delta_c", "gamma"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            object.__setattr__(self, name, _frozen(arr))


# ---------------------------------------------------------------------------
# transformed constraint pieces (public operations)

def back_transform(delta_c, gamma, spec: ControlSpec,
                   g: SpreadingGraph) -> SISParams:
    """Recover process parameters from the transformed decision variables."""
    w = spec.effective_w(g)
    delta = 1.0 - np.asarray(delta_c, dtype=np.float64)
    beta = 1.0 - np.asarray(gamma, dtype=np.float64) ** (1.0 / w)
    return SISParams(np.clip(delta, 0.0, 1.0), np.clip(beta, 0.0, 1.0))


def transformed_infection_prob(i: int, X_obs, belief: BeliefState, gamma,
                               spec: ControlSpec, g: SpreadingGraph,
                               o: ObserverSet) -> float:
    """Next-step infection probability of susceptible node i in transformed variables.

    Convex in ``gamma`` whenever the transform exponent exceeds the maximum
    in-degree; agrees with the one-step predictors once the variables are
    back-transformed.  Node i's entry of the constraint's ψ.
    """
    n = g.node_count
    con = _Constraint(X_obs, belief, spec, g, o, np.zeros(n), np.ones(n), keep_all=True)
    return float(con.psi(_checked_gamma(gamma, g))[int(i)])


def constraint_value(X_obs, belief: BeliefState, delta_c, gamma,
                     spec: ControlSpec, g: SpreadingGraph,
                     o: ObserverSet) -> float:
    """Decay-constraint gap: expected next infected count minus its budget.

    Negative values mean the candidate parameters are strictly feasible.
    """
    n = g.node_count
    con = _Constraint(X_obs, belief, spec, g, o, np.zeros(n), np.ones(n))
    delta_c = np.asarray(delta_c, dtype=np.float64)
    return con.gap(delta_c[con.coupled_delta], _checked_gamma(gamma, g))


def _checked_gamma(gamma, g: SpreadingGraph) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.size != len(g.edges):
        raise ValueError("gamma length does not match the edge set")
    if gamma.size and (gamma.min() <= 0.0 or gamma.max() > 1.0):
        raise ValueError("gamma entries must lie in (0, 1]")
    return gamma


# ---------------------------------------------------------------------------
# the compiled constraint, and its model for the barrier solver

class _Constraint:
    """The decay constraint's value, compiled from the observation plan.

    The constraint is affine in the retention variables plus the sum of
    b_i ψ_i, where b_i is the probability that node i is susceptible and ψ_i
    its next-step infection probability, computed in a cancellation-free
    form so that it stays meaningful when beliefs are tiny.  Nodes whose
    term cannot move the constraint are left out unless ``keep_all``, which
    indexes ``psi`` by node.
    """

    def __init__(self, X_obs, belief, spec, g, o, dlo, dhi, keep_all=False):
        n = g.node_count
        self.w = spec.effective_w(g)
        plan = observation_plan(g, o)
        require_cover(g, o, plan.violators)
        xhat = belief.xhat
        X = np.asarray(X_obs, dtype=np.float64)
        a = np.where(o.mask, X, xhat)
        b = np.where(o.mask, 1.0 - X, 1.0 - xhat)
        self.r_total = spec.r * float(xhat.sum())
        # contributions this far below the constraint scale cannot move the
        # certified slack; dropping them keeps term products out of subnormals
        self._floor = -np.inf if keep_all else max(1e-280, self.r_total * 1e-30)

        # per kept node in node order: its weight b, the belief a of its
        # unobserved in-neighbor and that in-edge (-1 without one), and the
        # in-edges of its infected observed in-neighbors in source order
        hidden = plan.hidden_eid >= 0
        a_in = np.zeros(n)
        a_in[hidden] = xhat[g.sources[plan.hidden_eid[hidden]]]
        a_in[b * a_in <= self._floor] = 0.0
        keep = ~(b <= self._floor)
        kept = np.flatnonzero(keep)
        self.psi_s_concat = plan.seen_eid[keep[g.targets[plan.seen_eid]]
                                          & (X[plan.seen_src] == 1.0)]
        counts = np.bincount(g.targets[self.psi_s_concat], minlength=n)[kept]
        self.psi_b = b[kept]
        self.psi_a = a_in[kept]
        self.psi_ep = np.where(hidden & (a_in > 0.0), plan.hidden_eid, -1)[kept]
        self.psi_ends = np.cumsum(counts)
        self.psi_starts = self.psi_ends - counts
        self._has_ep = self.psi_a > 0.0

        d_pinned = (dhi - dlo) <= 0.0
        self.coupled_delta = np.flatnonzero((a > 0.0) & ~d_pinned)
        self.n_cd = self.coupled_delta.size
        self.a_coupled = a[self.coupled_delta].astype(np.float64)
        self.const = float((a[d_pinned] * dlo[d_pinned]).sum())

    def psi(self, gamma) -> np.ndarray:
        """ψ per kept node at survival variables ``gamma`` (all edges)."""
        logs = np.log(gamma)
        seg = np.concatenate(([0.0], np.cumsum(logs[self.psi_s_concat])))
        slog = (seg[self.psi_ends] - seg[self.psi_starts]) / self.w
        vals = -np.expm1(slog)
        if self._has_ep.any():
            sel = self._has_ep
            lq = logs[self.psi_ep[sel]] / self.w
            vals[sel] += np.exp(slog[sel]) * self.psi_a[sel] * (-np.expm1(lq))
        return vals

    def gap(self, delta_c, gamma) -> float:
        """The constraint at the coupled retention variables and all survival variables."""
        total = self.const - self.r_total
        if self.n_cd:
            total += float(self.a_coupled @ delta_c)
        if self.psi_b.size:
            total += float(self.psi_b @ self.psi(gamma))
        return total


class _ConstraintModel(_Constraint):
    """The constraint over the coupled decision variables, with derivatives.

    Its variables are the coupled retention variables, then the coupled
    survival variables.  Gradients and Hessians come from the raw monomial
    terms ``b (1 - a) prod(gamma ** (1/w))`` and ``b a prod(gamma ** (1/w))``.
    """

    def __init__(self, X_obs, belief, spec, g, o, dlo, dhi, glo, ghi):
        super().__init__(X_obs, belief, spec, g, o, dlo, dhi)
        m, w = len(g.edges), self.w
        g_pinned = (ghi - glo) <= 0.0
        counts = self.psi_ends - self.psi_starts

        # monomial terms, per kept node: ``b (1 - a)`` over its segment, then
        # ``b a`` over its segment and its unobserved in-edge
        coefs = np.stack((self.psi_b * (1.0 - self.psi_a), self.psi_b * self.psi_a), axis=1)
        present = np.stack(((coefs[:, 0] > self._floor) & (counts > 0), coefs[:, 1] > 0.0),
                           axis=1)
        node, with_ep = present.nonzero()
        self.term_coefs = coefs[present]
        t_counts = counts[node] + with_ep
        self.term_ends = np.cumsum(t_counts)
        self.term_starts = self.term_ends - t_counts
        t_of = np.repeat(np.arange(t_counts.size), t_counts)
        # each segment, then its unobserved in-edge
        ext = np.insert(self.psi_s_concat, self.psi_ends, self.psi_ep)
        ext_start = (self.psi_starts + np.arange(counts.size))[node]
        self.term_members = ext[ext_start[t_of] + np.arange(t_of.size) - self.term_starts[t_of]]

        # Every term multiplies in-edges of one target node, so the constraint
        # Hessian is block-diagonal by target node; survival variables go
        # block by block, blocks sorted by size (one batch each).
        free = np.flatnonzero(np.isin(np.arange(m), self.term_members) & ~g_pinned)
        target = g.targets[free]
        _, block_of, sizes = np.unique(target, return_inverse=True, return_counts=True)
        order = np.lexsort((target, sizes[block_of]))
        self.coupled_gamma = free[order]
        self.dim = self.n_cd + self.coupled_gamma.size

        gamma_pos = np.full(m, -1, dtype=np.int64)
        gamma_pos[self.coupled_gamma] = self.n_cd + np.arange(self.coupled_gamma.size)

        # gamma work vector: pinned edges fixed, unreferenced edges irrelevant
        self._gamma_work = np.where(g_pinned, glo, 1.0)

        # each coupled member's term, edge and variable position
        coupled = gamma_pos[self.term_members] >= 0
        self._m_term = t_of[coupled]
        self._m_edge = self.term_members[coupled]
        self._m_pos = gamma_pos[self._m_edge]

        # The Hessian blocks sit back to back in one flat buffer, row by row
        # in layout order: a variable's row starts where the previous ends.
        size = sizes[block_of][order]       # block size of each survival variable
        row = np.cumsum(size) - size
        slot = (np.arange(size.size) - np.searchsorted(size, size)) % size
        self._diag_flat = row + slot
        self._flat_size = int(size.sum())
        self._groups = []                   # (block size, z slice, flat slice)
        values, firsts = np.unique(size, return_index=True)
        for s, i, j in zip(values.tolist(), firsts.tolist(), firsts[1:].tolist() + [size.size]):
            self._groups.append((s, slice(self.n_cd + i, self.n_cd + j),
                                 slice(int(row[i]), int(row[i]) + (j - i) * s)))

        # every ordered pair of a term's coupled members adds to one block entry
        cc = np.bincount(self._m_term, minlength=t_counts.size)
        sq = cc ** 2
        self._pair_term = pair_term = np.repeat(np.arange(cc.size), sq)
        within = np.arange(int(sq.sum())) - np.repeat(np.cumsum(sq) - sq, sq)
        start = (np.cumsum(cc) - cc)[pair_term]
        ia = start + within // cc[pair_term]
        ib = start + within % cc[pair_term]
        self._pair_a, self._pair_b = self._m_edge[ia], self._m_edge[ib]
        self._pair_sign = np.where(ia == ib, w - 1.0, -1.0)
        self._pair_flat = row[self._m_pos[ia] - self.n_cd] + slot[self._m_pos[ib] - self.n_cd]

    # -- evaluation ---------------------------------------------------------

    def _fill(self, z):
        gw = self._gamma_work
        gw[self.coupled_gamma] = z[self.n_cd:]
        return gw

    def value(self, z) -> float:
        return self.gap(z[:self.n_cd], self._fill(z))

    def _term_products(self, gw):
        logs = np.log(gw)
        seg = np.concatenate(([0.0], np.cumsum(logs[self.term_members])))
        tsum = (seg[self.term_ends] - seg[self.term_starts]) / self.w
        return self.term_coefs * np.exp(tsum)

    def grad(self, z) -> np.ndarray:
        gw = self._fill(z)
        grad = np.zeros(self.dim)
        grad[:self.n_cd] = self.a_coupled
        weights = self._term_products(gw)[self._m_term] / (self.w * gw[self._m_edge])
        return grad - np.bincount(self._m_pos, weights=weights, minlength=self.dim)

    def hess(self, z) -> np.ndarray:
        """Constraint Hessian as the flat buffer of its per-target-node blocks.

        A term ``P = coef * prod(g ** (1/w))`` adds ``P (w [e == f] - 1) /
        (w**2 g_e g_f)`` to entry (e, f); retention variables enter linearly.
        """
        gw = self._fill(z)
        inv = 1.0 / (self.w * gw)
        weights = (self._term_products(gw)[self._pair_term] * inv[self._pair_a]
                   * inv[self._pair_b] * self._pair_sign)
        return np.bincount(self._pair_flat, weights=weights, minlength=self._flat_size)

    def newton_step(self, z, c, cg, diag, g0) -> np.ndarray:
        """Newton step of the barrier objective ``f0 - log(-c)`` at ``z``.

        Solves ``(H / (-c) + outer(cg, cg) / c**2 + diag(diag)) step =
        -(g0 + cg / (-c))`` with ``H = hess(z)`` and ``g0`` the gradient of
        ``f0``: one batched solve per block size, division on the retention
        variables, Sherman–Morrison for the rank-one term.
        """
        blocks = self.hess(z) / (-c)
        blocks[self._diag_flat] += diag[self.n_cd:]
        rhs = np.stack((-g0, cg), axis=1)
        sol = rhs / diag[:, None]
        for s, var, flat in self._groups:
            sol[var] = np.linalg.solve(blocks[flat].reshape(-1, s, s),
                                       rhs[var].reshape(-1, s, 2)).reshape(-1, 2)
        x, y = sol[:, 0], sol[:, 1]
        cy = float(cg @ y)
        nu = (float(cg @ x) - c) / (c * c + cy)
        step = x - nu * y
        # near the boundary, cancellation in x - nu * y blurs the component
        # along cg that descent hinges on: restore cg @ step = c * c * nu + c
        return step + y * ((c * c * nu + c - float(cg @ step)) / cy)


# ---------------------------------------------------------------------------
# barrier solver

def _newton_stage(model, cost_arr, z, lo, hi, t, dec_tol=1e-11, max_iter=60):
    """Damped Newton on one barrier stage: (z, steps, decrement at z, converged).

    The model keeps only the nonnegative part of the cost curvature, so every
    Newton matrix is positive definite and every step a descent direction.
    """
    def feval(zz):
        if np.any(zz <= lo) or np.any(zz >= hi):
            return np.inf
        c = model.value(zz)
        if c >= 0.0:
            return np.inf
        return (t * cost_arr.value(zz) - math.log(-c)
                - float(np.log(zz - lo).sum()) - float(np.log(hi - zz).sum()))

    f_cur = feval(z)
    iters = 0
    stalled = False
    while True:
        c = model.value(z)
        cg = model.grad(z)
        inv_lo = 1.0 / (z - lo)
        inv_hi = 1.0 / (hi - z)
        g0 = t * cost_arr.slope(z) - inv_lo + inv_hi
        grad = g0 + cg / (-c)
        diag = t * np.maximum(cost_arr.curvature(z), 0.0) + inv_lo ** 2 + inv_hi ** 2
        try:
            step = model.newton_step(z, c, cg, diag, g0)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"singular Newton system: {exc}") from exc
        gs = float(grad @ step)
        if gs > 0.0 and -c <= _GAP_ROUNDING * model.r_total:
            # the step divides by c and c**2, and c is at the rounding level
            # of the constraint's value (10**4 machine epsilons of its scale
            # r * sum(xhat)), so its sign is noise: the stage cannot move on,
            # and the decrement at z is unknown
            return z, iters, math.inf, False
        if not gs <= 0.0:
            raise SolverFailure(
                f"Newton step is not a descent direction (slope {gs:.3e})")
        decrement = -gs / 2.0
        if decrement <= dec_tol:
            return z, iters, decrement, True
        if stalled or iters == max_iter:
            return z, iters, decrement, False
        # fraction-to-boundary: do not waste line-search trials outside the box
        with np.errstate(divide="ignore"):
            room = np.where(step > 0.0, (hi - z) / step,
                            np.where(step < 0.0, (lo - z) / step, np.inf))
        alpha = min(1.0, 0.99 * float(room.min()))
        accepted = False
        while alpha > 1e-18:
            z_new = z + alpha * step
            f_new = feval(z_new)
            if f_new <= f_cur + 1e-4 * alpha * gs:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return z, iters, decrement, False
        iters += 1
        moved = float(np.abs(alpha * step).max())
        z, f_cur = z_new, f_new
        stalled = moved <= 1e-15 * (1.0 + float(np.abs(z).max()))


def _feasible_start(model, lo, hi, corner, c_min):
    center = 0.5 * (lo + hi)
    c_center = model.value(center)
    denom = max(c_center - c_min, 0.0)
    eps = 1e-7 if denom == 0.0 else min(1e-7, 0.5 * (-c_min) / denom)
    inner = corner + eps * (center - corner)
    c_inner = model.value(inner)
    z = center
    for _ in range(200):
        if model.value(z) <= 0.5 * c_inner:
            return z
        z = 0.5 * (z + inner)
    return inner


def _barrier_solve(model, cost_arr, lo, hi, corner, c_min):
    z = _feasible_start(model, lo, hi, corner, c_min)
    m_log = 1 + 2 * z.size
    t = 1.0
    total_iters = stages = 0
    while True:
        final = m_log / t <= DUALITY_TARGET
        # intermediate stages only track the central path; solve them loosely
        z, it, decrement, converged = _newton_stage(
            model, cost_arr, z, lo, hi, t, dec_tol=1e-11 if final else 1e-6,
            max_iter=80 if final else 40)
        total_iters += it
        stages += 1
        if final:
            return z, SolveDiagnostics(total_iters, decrement, stages, "barrier",
                                       converged)
        t *= 10.0


# ---------------------------------------------------------------------------
# main entry point

def _resolve_bounds(bounds, count, name, positive_lo=False):
    arr = np.asarray(bounds, dtype=np.float64)
    if arr.shape == (2,):
        lo = np.full(count, arr[0])
        hi = np.full(count, arr[1])
    elif arr.shape == (count, 2):
        lo = arr[:, 0].copy()
        hi = arr[:, 1].copy()
    else:
        raise ValueError(f"{name} bounds must be a (lo, hi) pair or a ({count}, 2) array")
    if count and (lo.min() < 0.0 or hi.max() > 1.0 or (lo > hi).any()):
        raise ValueError(f"{name} bounds must satisfy 0 <= lo <= hi <= 1")
    if positive_lo and count and lo.min() <= 0.0:
        raise ValueError(f"{name} lower bounds must be strictly positive")
    return lo, hi


def solve(X_obs, belief: BeliefState, spec: ControlSpec, g: SpreadingGraph,
          o: ObserverSet) -> ControlDecision:
    """Pick feasible cost-minimizing parameters for the current step.

    Raises :class:`Infeasible` when even the most aggressive corner of the
    box (maximal healing, minimal transmission) cannot meet the decay
    constraint.
    """
    X_obs = np.asarray(X_obs)
    if X_obs.size != g.node_count:
        raise ValueError("observation length does not match the graph")
    if not np.array_equal(o.mask, belief.observers.mask):
        raise ValueError("observer set does not match the belief state")
    if not np.array_equal(X_obs[o.mask].astype(np.float64), belief.xhat[o.mask]):
        raise ValueError("observed entries disagree with the belief state")
    n, m = g.node_count, len(g.edges)
    dlo, dhi = _resolve_bounds(spec.delta_c_bounds, n, "delta_c")
    glo, ghi = _resolve_bounds(spec.gamma_bounds, m, "gamma", positive_lo=True)
    node_costs = _CostArray(spec.resolved_node_costs(g))
    edge_costs = _CostArray(spec.resolved_edge_costs(g))
    if not (node_costs.spans(dlo, dhi) and edge_costs.spans(glo, ghi)):
        raise ValueError("piecewise-linear cost breakpoints must span the box")

    model = _ConstraintModel(X_obs, belief, spec, g, o, dlo, dhi, glo, ghi)

    # variables outside the constraint take their cost-minimal box value,
    # pinned ones their only value
    delta_c = node_costs.box_argmin(dlo, dhi)
    gamma = edge_costs.box_argmin(glo, ghi)

    lo = np.concatenate([dlo[model.coupled_delta], glo[model.coupled_gamma]])
    hi = np.concatenate([dhi[model.coupled_delta], ghi[model.coupled_gamma]])
    corner = np.concatenate([dlo[model.coupled_delta], ghi[model.coupled_gamma]])

    c_min = model.value(corner)
    if c_min > SLACK_TOLERANCE:
        raise Infeasible(
            f"decay constraint unreachable: minimal gap {c_min:.6e} over the "
            f"given boxes", min_lhs=c_min + model.r_total)

    if model.dim == 0 or c_min > -1e-9:
        z = corner
        diagnostics = SolveDiagnostics(0, 0.0, 0, "corner", True)
    else:
        cost_arr = _CostArray(node_costs.terms + edge_costs.terms, np.concatenate(
            [node_costs.code[model.coupled_delta],
             len(node_costs.terms) + edge_costs.code[model.coupled_gamma]]))
        z, diagnostics = _barrier_solve(model, cost_arr, lo, hi, corner, c_min)

    delta_c[model.coupled_delta] = z[:model.n_cd]
    gamma[model.coupled_gamma] = z[model.n_cd:]

    def build_decision(dc, gm, diag):
        params = back_transform(dc, gm, spec, g)
        slack = model.r_total - float(predict_all(belief, g, params, X_obs).sum())
        return ControlDecision(
            delta_star=params.delta, beta_star=params.beta,
            objective_value=node_costs.running_total(dc) + edge_costs.running_total(gm),
            constraint_slack=float(slack), solver_diagnostics=diag, delta_c=dc, gamma=gm)

    decision = build_decision(delta_c, gamma, diagnostics)

    # with a nonconvex objective the barrier can settle on a stationary point
    # costlier than the always-feasible aggressive corner; never return it
    fallback_obj = node_costs.running_total(dlo) + edge_costs.running_total(ghi)
    if decision.objective_value > fallback_obj + 1e-9:
        decision = build_decision(dlo.copy(), ghi.copy(),
                                  replace(diagnostics, mode="fallback"))

    if decision.constraint_slack < -SLACK_TOLERANCE:
        raise SolverFailure(
            f"solver returned a decision whose certified slack "
            f"{decision.constraint_slack:.3e} violates the tolerance")
    return decision
