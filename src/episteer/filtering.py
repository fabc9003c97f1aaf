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
graph's CSR layout, each multiplied in the order the per-node formula
states, so every entry has the rounding of that formula.  Node i's update
touches at most d_in(i) + d_out(i)·d_max edges; a whole update is O(n + m)
plus one stable sort of the evidence edges.  The per-node functions index
the kernels' results, so they raise if the observer set fails the cover
anywhere the kernel reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateEvidence
from .graphs import (ObserverSet, SpreadingGraph, _frozen, _offsets,
                     segment_products, unobserved_in_neighbor)
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

    Sufficient statistic carried between steps: the estimates themselves,
    the parameters applied on the way here, and the two most recent
    observation slices (full-length vectors; only observed entries are
    meaningful).
    """

    xhat: np.ndarray
    observers: ObserverSet
    time_index: int = 0
    last_params: Optional[SISParams] = None
    obs_prev: Optional[np.ndarray] = None
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


@dataclass(frozen=True, eq=False)
class EvidenceSets:
    """Observed out-neighbors of an unobserved node that were susceptible last step.

    Split by what they did next: ``healthy_again`` stayed susceptible,
    ``newly_infected`` transitioned to infected.
    """

    healthy_again: np.ndarray
    newly_infected: np.ndarray

    @property
    def all_members(self) -> np.ndarray:
        return np.concatenate([self.healthy_again, self.newly_infected])


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
                       last_params=None, obs_prev=None, obs_cur=obs0.copy())


def evidence_sets(g: SpreadingGraph, o: ObserverSet, i: int, prev_obs,
                  cur_obs) -> EvidenceSets:
    k = g.out_neighbors[int(i)]
    k = k[o.mask[k] & (np.asarray(prev_obs)[k] == 0)]
    newly = np.asarray(cur_obs)[k] != 0
    return EvidenceSets(k[~newly], k[newly])


def infer_observed(i: int, obs) -> float:
    """An observed node's estimate is its observation."""
    return float(obs)


def _check_cover(g: SpreadingGraph, o: ObserverSet, allowed) -> None:
    """Raise at the first node with more unobserved in-neighbors than ``allowed``."""
    hidden_in = np.bincount(g.targets[~o.mask[g.sources]], minlength=g.node_count)
    bad = (hidden_in > allowed).nonzero()[0]
    if bad.size:
        unobserved_in_neighbor(g, o, bad[0])   # raises: bad[0] breaks the cover


def _evidence_edges(g: SpreadingGraph, mask, prev_obs) -> np.ndarray:
    """Ids of edges (i, k): i unobserved, k observed and susceptible last step."""
    k = g.targets
    return (~mask[g.sources] & mask[k] & (prev_obs[k] == 0)).nonzero()[0]


def _touches(g: SpreadingGraph, mask, prev_obs) -> np.ndarray:
    """Per node: in-edges touched by its pressure and its evidence nodes' likelihoods."""
    ev = _evidence_edges(g, mask, prev_obs)
    d_in = np.diff(g.in_ptr)
    return d_in + np.bincount(g.sources[ev], d_in[g.targets[ev]], g.node_count).astype(np.int64)


def _evidence(g: SpreadingGraph, o: ObserverSet, beta, prev_obs, cur_obs):
    """Whole-graph evidence kernel: per node ``(survival, L1, L0)``.

    ``survival`` multiplies a node's observed in-edges in source order: the
    infection pressure complement of an unobserved node, and ``p_k`` of an
    evidence node k, whose one unobserved in-neighbor enters as exactly 1.0.
    Per unobserved node, L1/L0 multiply over its ``healthy_again`` group and
    then its ``newly_infected`` group, each in target order; nodes without
    evidence get (1, 1).
    """
    n, mask = g.node_count, o.mask
    # evidence nodes (observed, susceptible last step) allow one unobserved
    # in-neighbor, other observed nodes any number, unobserved nodes none
    _check_cover(g, o, mask * (1 + n * (prev_obs != 0)))
    survival = segment_products(
        np.where(mask[g.in_src], 1.0 - beta[g.in_eid] * prev_obs[g.in_src], 1.0),
        g.in_ptr)
    ev = _evidence_edges(g, mask, prev_obs)
    src, k = g.sources[ev], g.targets[ev]
    newly = cur_obs[k] != 0
    order = (2 * src + newly).argsort(kind="stable")
    ev, k, newly = ev[order], k[order], newly[order]
    p_k = survival[k]
    kept = (1.0 - beta[ev]) * p_k
    ptr = _offsets(src, n)
    l1 = segment_products(np.where(newly, 1.0 - kept, kept), ptr)
    l0 = segment_products(np.where(newly, 1.0 - p_k, p_k), ptr)
    return survival, l1, l0


def likelihoods(g: SpreadingGraph, o: ObserverSet, prev_params: SISParams,
                prev_obs, cur_obs, i: int,
                counter: Optional[TouchCounter] = None):
    """Evidence likelihoods under both hypotheses about unobserved node i's last compartment.

    Returns ``(L1, L0)``: the probability of the observed transitions of the
    evidence set given that i was infected (L1) or susceptible (L0) at the
    previous step.  Empty evidence gives (1, 1).
    """
    i = int(i)
    if o.mask[i]:
        raise ValueError(f"node {i} is observed; evidence concerns unobserved nodes")
    prev_obs, cur_obs = np.asarray(prev_obs), np.asarray(cur_obs)
    _, l1, l0 = _evidence(g, o, prev_params.beta, prev_obs, cur_obs)
    if counter is not None:
        counter.touches += int(_touches(g, o.mask, prev_obs)[i] - len(g.in_neighbors[i]))
    return float(l1[i]), float(l0[i])


def _posterior(belief_prev: BeliefState, g: SpreadingGraph, params: SISParams,
               prev_obs, cur_obs, checked) -> np.ndarray:
    """Whole-graph Bayes update: the next belief vector.

    Raises at the first ``checked`` node whose evidence has probability 0
    under both hypotheses (its update is 0/0).
    """
    o = belief_prev.observers
    survival, l1, l0 = _evidence(g, o, params.beta, prev_obs, cur_obs)
    p = belief_prev.xhat
    # observed nodes have no evidence, so their denominator is p + (1 - p)
    denominator = l1 * p + l0 * (1.0 - p)
    numerator = (1.0 - params.delta) * l1 * p + (1.0 - survival) * l0 * (1.0 - p)
    impossible = ((denominator == 0.0) & checked).nonzero()[0]
    if impossible.size:
        raise DegenerateEvidence(
            f"observed outcome has probability 0 under the model while "
            f"updating node {impossible[0]}", node=int(impossible[0]))
    with np.errstate(invalid="ignore"):
        return np.where(o.mask, cur_obs, numerator / denominator)


def infer_unobserved(i: int, belief_prev: BeliefState, g: SpreadingGraph,
                     prev_params: SISParams, prev_obs, cur_obs,
                     counter: Optional[TouchCounter] = None) -> float:
    """Bayes update of an unobserved node's infection probability.

    The prior belief is pushed through healing and infection pressure and
    reweighted by the evidence likelihoods.  Returns node i's entry of the
    whole-graph update; ``counter`` is charged node i's touches only.
    """
    i = int(i)
    o = belief_prev.observers
    if o.mask[i]:
        raise ValueError(f"node {i} is observed; use infer_observed")
    prev_obs, cur_obs = np.asarray(prev_obs), np.asarray(cur_obs)
    xhat = _posterior(belief_prev, g, prev_params, prev_obs, cur_obs,
                      np.arange(g.node_count) == i)
    if counter is not None:
        counter.note_calls(_touches(g, o.mask, prev_obs)[[i]])
    return float(xhat[i])


def predict_all(belief: BeliefState, g: SpreadingGraph, params: SISParams,
                cur_obs) -> np.ndarray:
    """Vector of next-step infection probabilities for every node.

    An observed node stands at its observation and an unobserved node at its
    belief.  Survival multiplies a node's in-edges in source order, except
    that an observed node's one unobserved in-edge multiplies first.
    """
    mask = belief.observers.mask
    _check_cover(g, belief.observers, mask)
    v = np.where(mask, np.asarray(cur_obs), belief.xhat)
    factors = 1.0 - params.beta[g.in_eid] * v[g.in_src]
    # an observed node's one unobserved in-edge multiplies first: take it out
    # of its place and fold it into the first factor of the node's segment
    hidden = (~mask[g.in_src]).nonzero()[0]
    lead = factors[hidden]
    factors[hidden] = 1.0
    first = g.in_ptr[g.targets[g.in_eid[hidden]]]
    factors[first] = lead * factors[first]
    survival = segment_products(factors, g.in_ptr)
    return v * (1.0 - params.delta) + (1.0 - survival) * (1.0 - v)


def predict_observed(i: int, belief: BeliefState, g: SpreadingGraph,
                     params: SISParams, cur_obs) -> float:
    """Next-step infection probability of an observed node under chosen params."""
    i = int(i)
    if not belief.observers.mask[i]:
        raise ValueError(f"node {i} is unobserved; use predict_unobserved")
    return float(predict_all(belief, g, params, cur_obs)[i])


def predict_unobserved(i: int, belief: BeliefState, g: SpreadingGraph,
                       params: SISParams, cur_obs) -> float:
    """Next-step infection probability of an unobserved node under chosen params."""
    i = int(i)
    if belief.observers.mask[i]:
        raise ValueError(f"node {i} is observed; use predict_observed")
    return float(predict_all(belief, g, params, cur_obs)[i])


def filter_step(belief_prev: BeliefState, g: SpreadingGraph,
                prev_params: SISParams, new_obs,
                counter: Optional[TouchCounter] = None) -> BeliefState:
    """Advance the belief one step given the new observation slice.

    Uses only the previous estimates and parameters plus the observations of
    the previous and current steps.
    """
    new_obs = np.asarray(new_obs)
    if new_obs.size != g.node_count:
        raise ValueError("observation length does not match the graph")
    if belief_prev.obs_cur is None:
        raise ValueError("previous belief carries no observation slice")
    prev_params.validate_for(g)
    o = belief_prev.observers
    prev_obs = np.asarray(belief_prev.obs_cur)
    xhat = _posterior(belief_prev, g, prev_params, prev_obs, new_obs, ~o.mask)
    if counter is not None:
        counter.note_calls(_touches(g, o.mask, prev_obs)[~o.mask])
    return BeliefState(xhat=xhat, observers=o,
                       time_index=belief_prev.time_index + 1,
                       last_params=prev_params, obs_prev=prev_obs,
                       obs_cur=new_obs.copy())
