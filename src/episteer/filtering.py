"""Exact conditional inference and one-step prediction for partially observed SIS.

Valid whenever the observer set covers the moralized spreading graph.  Under
that condition every unobserved node has only observed in-neighbors and every
observed node has at most one unobserved in-neighbor, which is what lets the
per-node Bayes update below stay exact with a handful of products instead of
a joint distribution over all nodes.

The update for an unobserved node i combines three ingredients computed from
the previous estimates, the parameters applied at the previous step, and the
two most recent observation slices:

* the prior belief ``p`` carried from the previous step,
* the infection pressure on i from its (observed) in-neighbors, and
* likelihoods of the transitions of i's observed out-neighbors that were
  susceptible at the previous step, evaluated under both hypotheses about
  i's previous compartment.

Out-neighbors that were infected at the previous step transition on their
own healing draw and therefore carry no evidence about i; they are excluded
from the evidence sets by construction.

Updates and forecasts are whole-graph kernels: segmented products over the
edge layouts of the (graph, observers) plan, each multiplied in the order
the per-node formula states, so every entry has the rounding of that
formula.  The plan also holds the cover check, done once.  Node i's update
touches at most d_in(i) + d_out(i)·d_max edges; a whole update is O(n + m)
plus one stable sort of the evidence edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateEvidence
from .graphs import (ObservationPlan, ObserverSet, SpreadingGraph, _frozen,
                     _offsets, observation_plan, require_cover, segment_products)
from .simulate import SISParams


@dataclass
class TouchCounter:
    """Counts per-edge arithmetic touches of node updates (see ``_touches``)."""

    touches: int = 0
    calls: int = 0
    max_per_call: int = 0

    def note_calls(self, touches_per_call) -> None:
        """Record one node update per entry, each touching that many edges."""
        per_call = np.asarray(touches_per_call, dtype=np.int64)
        self.touches += int(per_call.sum())
        self.calls += per_call.size
        self.max_per_call = max(self.max_per_call, int(per_call.max(initial=0)))


@dataclass(frozen=True, eq=False)
class BeliefState:
    """Per-node conditional infection probabilities at a fixed time.

    Sufficient statistic carried between steps: the estimates themselves
    and the most recent observation slice (a full-length vector; only
    observed entries are meaningful).  The next update also needs the
    parameters applied in between and the new slice, which it is given.
    """

    xhat: np.ndarray
    observers: ObserverSet
    time_index: int = 0
    obs_cur: Optional[np.ndarray] = None

    def __post_init__(self):
        xhat = np.asarray(self.xhat, dtype=np.float64).copy()
        if xhat.ndim != 1 or xhat.size != self.observers.node_count:
            raise ValueError("belief length does not match the observer mask")
        if xhat.min() < 0.0 or xhat.max() > 1.0:
            raise ValueError("belief entries must lie in [0, 1]")
        mask = self.observers.mask
        if self.obs_cur is not None and not (xhat[mask] == np.asarray(self.obs_cur)[mask]).all():
            raise ValueError("observed entries of the belief must equal the observation")
        object.__setattr__(self, "xhat", _frozen(xhat))


def initial_belief(g: SpreadingGraph, observers: ObserverSet, prior,
                   obs0) -> BeliefState:
    """Bootstrap at time 0: observed entries from the observation, rest from the prior."""
    xhat = np.asarray(prior, dtype=np.float64).copy()
    if xhat.ndim == 0:
        xhat = np.full(g.node_count, float(xhat))
    if xhat.size != g.node_count:
        raise ValueError("prior length does not match the graph")
    obs0 = np.asarray(obs0)
    xhat[observers.mask] = obs0[observers.mask]
    return BeliefState(xhat=xhat, observers=observers, time_index=0,
                       obs_cur=obs0.copy())


def _evidence_edges(g: SpreadingGraph, plan: ObservationPlan, prev_obs) -> np.ndarray:
    """Ids of edges (i, k): i unobserved, k observed and susceptible last step."""
    return plan.hidden_out[prev_obs[g.targets[plan.hidden_out]] == 0]


def _touches(g: SpreadingGraph, plan: ObservationPlan, prev_obs) -> np.ndarray:
    """Per node: in-edges touched by its pressure and its evidence nodes' likelihoods."""
    ev = _evidence_edges(g, plan, prev_obs)
    d_in = np.diff(g.in_ptr)
    return d_in + np.bincount(g.sources[ev], d_in[g.targets[ev]], g.node_count).astype(np.int64)


def _evidence(g: SpreadingGraph, o: ObserverSet, beta, prev_obs, cur_obs, log=False):
    """Whole-graph evidence kernel: per node ``(survival, L1, L0)``.

    ``survival`` multiplies a node's observed in-edges in source order: the
    infection pressure complement of an unobserved node, and ``p_k`` of an
    evidence node k, which leaves out its one unobserved in-neighbor.  Per
    unobserved node, L1/L0 multiply over its ``healthy_again`` group and
    then its ``newly_infected`` group, each in target order; nodes without
    evidence get (1, 1).  With ``log``, L1/L0 are sums of the factors' logs.
    """
    n, mask = g.node_count, o.mask
    plan = observation_plan(g, o)
    # evidence nodes (observed, susceptible last step) allow one unobserved
    # in-neighbor, other observed nodes any number, unobserved nodes none
    bad = plan.violators
    require_cover(g, o, bad[~mask[bad] | (prev_obs[bad] == 0)])
    survival = segment_products(1.0 - beta[plan.seen_eid] * prev_obs[plan.seen_src],
                                plan.seen_ptr)
    ev = _evidence_edges(g, plan, prev_obs)
    src, k = g.sources[ev], g.targets[ev]
    newly = cur_obs[k] != 0
    order = (2 * src + newly).argsort(kind="stable")
    ev, k, newly, src = ev[order], k[order], newly[order], src[order]
    p_k = survival[k]
    kept = (1.0 - beta[ev]) * p_k
    f1, f0 = np.where(newly, 1.0 - kept, kept), np.where(newly, 1.0 - p_k, p_k)
    if log:
        with np.errstate(divide="ignore"):
            return survival, np.bincount(src, np.log(f1), n), np.bincount(src, np.log(f0), n)
    ptr = _offsets(src, n)
    return survival, segment_products(f1, ptr), segment_products(f0, ptr)


def predict_all(belief: BeliefState, g: SpreadingGraph, params: SISParams,
                cur_obs) -> np.ndarray:
    """Vector of next-step infection probabilities for every node.

    An observed node stands at its observation and an unobserved node at its
    belief.  Survival multiplies a node's in-edges in source order, except
    that an observed node's one unobserved in-edge multiplies first.
    """
    o = belief.observers
    plan = observation_plan(g, o)
    require_cover(g, o, plan.violators)
    v = np.where(o.mask, np.asarray(cur_obs), belief.xhat)
    survival = segment_products(1.0 - params.beta[plan.fore_eid] * v[plan.fore_src],
                                g.in_ptr)
    return v * (1.0 - params.delta) + (1.0 - survival) * (1.0 - v)


def filter_step(belief_prev: BeliefState, g: SpreadingGraph,
                prev_params: SISParams, new_obs,
                counter: Optional[TouchCounter] = None) -> BeliefState:
    """Advance the belief one step given the new observation slice.

    Uses only the previous estimates and parameters plus the observations of
    the previous and current steps.  An unobserved node's prior belief is
    pushed through healing and infection pressure and reweighted by the
    evidence likelihoods; an observed node takes its observation.  A node
    whose two weighted likelihoods both round to 0 is redone in log space.
    Raises :class:`DegenerateEvidence` at the first unobserved node whose
    evidence has probability 0 under both hypotheses (its update is 0/0).
    """
    new_obs = np.asarray(new_obs)
    if new_obs.size != g.node_count:
        raise ValueError("observation length does not match the graph")
    if belief_prev.obs_cur is None:
        raise ValueError("previous belief carries no observation slice")
    prev_params.validate_for(g)
    o = belief_prev.observers
    prev_obs = np.asarray(belief_prev.obs_cur)
    survival, l1, l0 = _evidence(g, o, prev_params.beta, prev_obs, new_obs)
    p = belief_prev.xhat
    # observed nodes have no evidence, so their denominator is p + (1 - p)
    denominator = l1 * p + l0 * (1.0 - p)
    numerator = (1.0 - prev_params.delta) * l1 * p + (1.0 - survival) * l0 * (1.0 - p)
    with np.errstate(invalid="ignore"):
        xhat = np.where(o.mask, new_obs, numerator / denominator)
    rounded = ((denominator == 0.0) & ~o.mask).nonzero()[0]
    if rounded.size:
        # a hub's L1 multiplies one factor per out-neighbor and can underflow
        # on possible evidence (0.5**1075 is 0): redo these weights from the
        # sums of the same factors' logs, scaled so the larger one is 1
        _, log1, log0 = _evidence(g, o, prev_params.beta, prev_obs, new_obs, log=True)
        q = p[rounded]
        with np.errstate(divide="ignore"):
            log1, log0 = log1[rounded] + np.log(q), log0[rounded] + np.log(1.0 - q)
        top = np.maximum(log1, log0)
        impossible = rounded[top == -np.inf]
        if impossible.size:
            raise DegenerateEvidence(
                f"observed outcome has probability 0 under the model while "
                f"updating node {impossible[0]}", node=int(impossible[0]))
        w1, w0 = np.exp(log1 - top), np.exp(log0 - top)
        xhat[rounded] = ((1.0 - prev_params.delta[rounded]) * w1
                         + (1.0 - survival[rounded]) * w0) / (w1 + w0)
    if counter is not None:
        counter.note_calls(_touches(g, observation_plan(g, o), prev_obs)[~o.mask])
    return BeliefState(xhat=xhat, observers=o,
                       time_index=belief_prev.time_index + 1,
                       obs_cur=new_obs.copy())
