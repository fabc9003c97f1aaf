"""Command-line interface: run experiments, compute covers, sanity-check the filter."""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, ModelError
from .filtering import filter_step, initial_belief
from .graphs import ObserverSet, approx_min_cover, is_vertex_cover, moralize
from .harness import (emit, generate_er_graph, load_config, read_graph_file,
                      run_closed_loop, with_seed)
from .oracle import condition_on_observation, from_marginal_probs, joint_pushforward, marginals
from .simulate import ProcessState, RngStream, SISParams, step

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    t0 = time.perf_counter()
    records = run_closed_loop(cfg)
    elapsed = time.perf_counter() - t0
    emit(records, args.format, args.out)
    last = [rec.infected for rec in records if rec.t == cfg.horizon]
    print(f"wrote {len(records)} records to {args.out} "
          f"({cfg.replications} replications x horizon {cfg.horizon}, "
          f"{elapsed:.1f}s)")
    if last:
        print(f"mean infected at final step: {sum(last) / len(last):.3f}")
    return EXIT_OK


def _cmd_cover(args) -> int:
    g = read_graph_file(args.graph)
    m = moralize(g)
    print(f"graph: {g.node_count} nodes, {len(g.edges)} directed edges, "
          f"max in-degree {g.d_max}")
    print(f"moralized graph: {m.u.size} undirected edges")
    auto = approx_min_cover(m)
    print(f"auto observer set ({auto.size} nodes): {' '.join(map(str, auto.members))}")
    if args.check is not None:
        members = [int(tok) for tok in args.check.replace(",", " ").split()]
        try:
            o = ObserverSet.from_members(g.node_count, members)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if is_vertex_cover(m, o):
            print(f"checked observer set ({o.size} nodes): valid cover")
            return EXIT_OK
        print(f"checked observer set ({o.size} nodes): NOT a cover")
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    rng_graph = RngStream((args.seed, 0))
    g = generate_er_graph(args.nodes, args.density, (args.seed, 1))
    o = approx_min_cover(moralize(g))
    prior = 0.2 + 0.6 * rng_graph.uniforms(g.node_count)
    rng = RngStream((args.seed, 2))
    x0 = (rng.uniforms(g.node_count) < prior).astype(np.uint8)
    state = ProcessState(x0, 0)
    belief = initial_belief(g, o, prior, x0)
    jb = condition_on_observation(from_marginal_probs(prior), o, x0)
    max_err = float(np.abs(marginals(jb) - belief.xhat).max())
    for _ in range(args.steps):
        u = rng_graph.uniforms(g.node_count + len(g.edges))
        params = SISParams(0.05 + 0.9 * u[:g.node_count],
                           0.05 + 0.9 * u[g.node_count:])
        jb = joint_pushforward(jb, g, params)
        state = step(g, params, state, rng)
        belief = filter_step(belief, g, params, state.x)
        jb = condition_on_observation(jb, o, state.x)
        max_err = max(max_err, float(np.abs(marginals(jb) - belief.xhat).max()))
    print(f"nodes={g.node_count} edges={len(g.edges)} observers={o.size} "
          f"steps={args.steps}")
    print(f"max |filter - oracle| over all nodes and steps: {max_err:.3e}")
    if max_err > args.tol:
        print(f"exceeds tolerance {args.tol:.1e}")
        return EXIT_MODEL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episteer",
        description="Simulation, estimation, and feedback control of networked "
                    "SIS epidemics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a closed-loop experiment from a config file")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
    p_run.add_argument("--out", default="run_records.csv", help="output path")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_cover = sub.add_parser("cover", help="compute/validate observer sets for a graph file")
    p_cover.add_argument("graph", help="path to the JSON graph file")
    p_cover.add_argument("--check", default=None,
                         help="comma-separated node ids to validate as a cover")
    p_cover.set_defaults(func=_cmd_cover)

    p_oc = sub.add_parser("oracle-check",
                          help="compare the filter against the exact joint oracle")
    p_oc.add_argument("--nodes", type=int, default=6)
    p_oc.add_argument("--steps", type=int, default=15)
    p_oc.add_argument("--density", type=float, default=0.35)
    p_oc.add_argument("--seed", type=int, default=1)
    p_oc.add_argument("--tol", type=float, default=1e-9)
    p_oc.set_defaults(func=_cmd_oracle_check)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=lambda args: (print(__version__), EXIT_OK)[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
