"""Exact simulation, Bayesian estimation, and feedback control of networked SIS epidemics."""

__version__ = "0.1.0"

from .control import (AffineCost, ControlDecision, ControlSpec, CostTerm,
                      PiecewiseLinearCost, PowerCost, back_transform,
                      constraint_value, default_edge_cost, default_node_cost,
                      solve, transformed_infection_prob)
from .errors import (ConfigError, CoverViolation, DegenerateEvidence,
                     Infeasible, ModelError, SolverFailure,
                     ZeroProbabilityEvidence)
from .filtering import (BeliefState, TouchCounter, filter_step, initial_belief,
                        predict_all)
from .graphs import (MoralGraph, ObserverSet, SpreadingGraph, approx_min_cover,
                     is_vertex_cover, moralize, unobserved_in_neighbor)
from .harness import (ExperimentConfig, RunRecord, config_from_dict, emit,
                      generate_er_graph, load_config, read_graph_file,
                      read_records, run_closed_loop, with_seed)
from .oracle import (JointBelief, bits_matrix, condition_on_observation,
                     from_marginal_probs, joint_pushforward, marginals,
                     point_mass, product_of_marginals_distance, state_index)
from .simulate import ProcessState, RngStream, SISParams, sample_trajectory, step

__all__ = [name for name in dir() if not name.startswith("_")]
