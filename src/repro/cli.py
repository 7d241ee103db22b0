"""Command-line interface for the ClouDiA reproduction.

The CLI exposes the advisor on the simulated cloud so the full pipeline can
be exercised without writing Python:

* ``python -m repro advise --template mesh --rows 4 --cols 5`` — allocate,
  measure, search and print the recommended deployment plan;
* ``python -m repro make-problem --template mesh --out problem.json`` —
  allocate and measure, then serialize the resulting
  :class:`~repro.core.problem.DeploymentProblem` to JSON;
* ``python -m repro solve --problem problem.json --out response.json`` —
  solve a serialized problem and write the response;
* ``python -m repro solve-batch --requests batch.json`` — run a batch of
  serialized requests through one advisor session (shared compilations);
* ``python -m repro make-trace --problem problem.json --out trace.json`` —
  generate a replayable stream of drifted cost-matrix windows;
* ``python -m repro watch --problem problem.json --trace trace.json`` —
  replay a trace through the live re-deployment pipeline and print the
  re-deployment log (in-place cost refreshes, warm re-solves, persistent
  result-cache hits);
* ``python -m repro solvers`` — list the registered solvers;
* ``python -m repro measure --instances 20`` — run a pairwise latency
  measurement and print per-link statistics;
* ``python -m repro providers`` — compare latency heterogeneity of the
  built-in provider profiles;
* ``python -m repro templates`` — list the communication-graph templates.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .analysis import empirical_cdf, format_table
from .api import AdvisorSession, SolveRequest, SolverResponse, WatchPolicy
from .cloud import ProviderProfile, SimulatedCloud
from .core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    LatencyMetric,
    Objective,
    PROBLEM_SCHEMA_VERSION,
)
from .core.advisor import AdvisorConfig, ClouDiA, MeasurementConfig
from .core.errors import ClouDiAError
from .solvers import SearchBudget
from .solvers.registry import default_registry
from .store import SQLiteResultCache

#: Graph templates the CLI can build, mapping name -> builder description.
TEMPLATE_DESCRIPTIONS = {
    "mesh": "2-D mesh (behavioral simulations); use --rows and --cols",
    "mesh3d": "3-D mesh; use --rows, --cols and --depth",
    "tree": "aggregation tree (search / web services); use --branching and --depth",
    "bipartite": "front-end / storage bipartite graph (key-value stores); "
                 "use --frontends and --storage",
    "ring": "bidirectional ring; use --nodes",
    "hypercube": "boolean hypercube; use --dimension",
}

#: Historical ``advise --solver`` names that map to a different registry
#: key.  Applied only by the legacy ``advise`` command: ``solve`` and
#: ``solve-batch`` take registry keys verbatim, so the registered
#: ``random`` solver stays reachable there.
ADVISE_SOLVER_ALIASES = {"random": "r2"}


def build_graph(args: argparse.Namespace) -> CommunicationGraph:
    """Construct the communication graph selected by the CLI arguments."""
    template = args.template
    if template == "mesh":
        return CommunicationGraph.mesh_2d(args.rows, args.cols)
    if template == "mesh3d":
        return CommunicationGraph.mesh_3d(args.rows, args.cols, args.depth)
    if template == "tree":
        return CommunicationGraph.aggregation_tree(args.branching, args.depth)
    if template == "bipartite":
        return CommunicationGraph.bipartite(args.frontends, args.storage)
    if template == "ring":
        return CommunicationGraph.ring(args.nodes)
    if template == "hypercube":
        return CommunicationGraph.hypercube(args.dimension)
    raise SystemExit(f"unknown template {template!r}; see 'templates' command")


def solver_choices(aliases: bool = False) -> List[str]:
    """Solver names accepted on the command line."""
    names = set(default_registry.available())
    if aliases:
        names |= set(ADVISE_SOLVER_ALIASES)
    return ["auto"] + sorted(names)


def build_solver(name: str) -> Optional[str]:
    """The registry key of the solver selected on the command line.

    ``None`` stands for ``auto`` (the paper default of the objective).
    Historical ``advise`` names are translated first (``random`` ->
    ``r2``).  The key is not instantiated here: :class:`AdvisorConfig`
    resolves it against the measured problem, which refuses a problem
    above the solver's size ceiling, and routes the seed into every
    solver that accepts one.
    """
    if name == "auto":
        return None
    key = ADVISE_SOLVER_ALIASES.get(name, name)
    if key not in default_registry:
        raise SystemExit(f"unknown solver {name!r}; available: "
                         f"{', '.join(solver_choices(aliases=True))}")
    return key


def command_advise(args: argparse.Namespace) -> int:
    """Run the full advisor pipeline and print the recommended plan."""
    graph = build_graph(args)
    objective = Objective(args.objective)
    cloud = SimulatedCloud(profile=ProviderProfile.by_name(args.provider),
                           seed=args.seed)
    config = AdvisorConfig(
        objective=objective,
        over_allocation_ratio=args.over_allocation,
        metric=LatencyMetric(args.metric),
        solver=build_solver(args.solver),
        solver_time_limit_s=args.time_limit,
        measurement=MeasurementConfig(scheme=args.measurement,
                                      target_samples_per_link=args.samples),
        seed=args.seed,
    )
    advisor = ClouDiA(cloud, config)
    report = advisor.recommend(graph)

    print(format_table(
        ["quantity", "value"],
        [
            ("application nodes", graph.num_nodes),
            ("communication edges", graph.num_edges),
            ("instances allocated", len(report.allocated_instances)),
            ("instances terminated", len(report.terminated_instances)),
            ("measurement time [simulated ms]", report.measurement_time_ms),
            ("search time [s]", report.search_time_s),
            ("solver", report.solver_result.solver_name),
            (f"default {objective.value} cost [ms]", report.default_predicted_cost),
            (f"optimised {objective.value} cost [ms]", report.predicted_cost),
            ("predicted improvement", f"{report.predicted_improvement:.1%}"),
        ],
        title="ClouDiA recommendation",
    ))
    if args.show_plan:
        print()
        print(format_table(
            ["node", "instance", "private ip"],
            [
                (node, report.plan.instance_for(node),
                 cloud.private_ip(report.plan.instance_for(node)))
                for node in graph.nodes
            ],
            title="deployment plan",
        ))
    return 0


def _write_json(path: str, payload: Dict[str, Any]) -> None:
    # allow_nan=False: every artifact the CLI emits must be strict RFC 8259
    # JSON (jq and non-Python consumers reject the bare Infinity/NaN tokens
    # Python would otherwise write).  Payload builders map non-finite
    # floats to null themselves; a regression fails loudly here instead of
    # producing an unparseable file.
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def command_make_problem(args: argparse.Namespace) -> int:
    """Allocate, measure, and serialize a DeploymentProblem to JSON.

    Reuses the advisor's allocation and measurement stages (stages 1-2 of
    Fig. 3), so sizing and measurement policy cannot drift from ``advise``.
    """
    graph = build_graph(args)
    objective = Objective(args.objective)
    cloud = SimulatedCloud(profile=ProviderProfile.by_name(args.provider),
                           seed=args.seed)
    advisor = ClouDiA(cloud, AdvisorConfig(
        objective=objective,
        over_allocation_ratio=args.over_allocation,
        metric=LatencyMetric(args.metric),
        measurement=MeasurementConfig(scheme=args.measurement,
                                      target_samples_per_link=args.samples),
        seed=args.seed,
    ))
    ids = advisor.allocate(graph)
    measurement = advisor.measure(ids)
    costs = measurement.to_cost_matrix(metric=advisor.config.metric)
    problem = DeploymentProblem(
        graph, costs, objective=objective,
        metadata={
            "template": args.template,
            "provider": args.provider,
            "measurement_scheme": args.measurement,
            "metric": args.metric,
            "seed": args.seed,
        },
    )
    _write_json(args.out, problem.to_dict())
    print(format_table(
        ["quantity", "value"],
        [
            ("application nodes", graph.num_nodes),
            ("communication edges", graph.num_edges),
            ("instances allocated", len(ids)),
            ("objective", objective.value),
            ("measurement time [simulated ms]", measurement.elapsed_ms),
            ("problem written to", args.out),
        ],
        title="serialized deployment problem",
    ))
    return 0


def _print_response(response: SolverResponse,
                    problem: DeploymentProblem) -> None:
    rows = [
        ("request id", response.request_id),
        ("solver", response.solver),
        ("status", response.status),
    ]
    if response.ok:
        result = response.result
        baseline = problem.evaluate(problem.default_plan())
        rows.extend([
            (f"{result.objective.value} cost [ms]", result.cost),
            ("default deployment cost [ms]", baseline),
            ("optimality proven", result.optimal),
            ("iterations", result.iterations),
            ("solve time [s]", f"{result.solve_time_s:.3f}"),
        ])
    else:
        rows.append(("error", response.error))
    if response.telemetry is not None:
        rows.append(("compile cache hit",
                     response.telemetry.compile_cache_hit))
    print(format_table(["quantity", "value"], rows,
                       title="solver response"))


def _budget_from_flag(time_limit: float) -> Optional[SearchBudget]:
    """``--time-limit`` semantics: positive seconds, or 0 for no limit."""
    if time_limit <= 0:
        return None
    return SearchBudget.seconds(time_limit)


def command_solve(args: argparse.Namespace) -> int:
    """Solve a serialized problem JSON and optionally write the response."""
    problem = DeploymentProblem.from_dict(_read_json(args.problem))
    extra = json.loads(args.solver_config) if args.solver_config else None
    request = SolveRequest(
        problem=problem,
        solver=args.solver,
        config=default_registry.seeded_config(args.solver, args.seed, extra),
        budget=_budget_from_flag(args.time_limit),
    )
    session = AdvisorSession()
    try:
        response = session.solve(request)
    except (ClouDiAError, ValueError, TypeError) as exc:
        # Solver / problem failures exit 1 — the same error classes
        # solve-batch captures per request; usage and IO errors exit 2
        # via main().
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_response(response, problem)
    if args.out:
        _write_json(args.out, response.to_dict())
        print(f"response written to {args.out}")
    return 0


def command_solve_batch(args: argparse.Namespace) -> int:
    """Run a batch of serialized requests through one advisor session."""
    requests: List[SolveRequest] = []
    if args.requests:
        payload = _read_json(args.requests)
        if isinstance(payload, dict):
            entries = payload.get("requests")
            if entries is None:
                raise ClouDiAError(
                    f"{args.requests} must contain a top-level 'requests' "
                    f"list (or be a bare JSON list of requests)"
                )
        else:
            entries = payload
        if not isinstance(entries, list):
            raise ClouDiAError(
                f"'requests' in {args.requests} must be a list, got "
                f"{type(entries).__name__}"
            )
        requests.extend(SolveRequest.from_dict(entry) for entry in entries)
    for path in args.problem or []:
        problem = DeploymentProblem.from_dict(_read_json(path))
        requests.append(SolveRequest(
            problem=problem, solver=args.solver,
            config=default_registry.seeded_config(args.solver, args.seed),
            budget=_budget_from_flag(args.time_limit),
        ))
    if not requests:
        print("error: solve-batch needs --requests and/or --problem",
              file=sys.stderr)
        return 2

    session = AdvisorSession()
    responses = session.solve_many(requests)

    rows = []
    for response in responses:
        telemetry = response.telemetry
        rows.append((
            response.request_id,
            response.solver,
            response.status,
            "-" if response.cost is None else f"{response.cost:.4f}",
            "-" if telemetry is None else
            ("hit" if telemetry.compile_cache_hit else "miss"),
            "-" if telemetry is None else f"{telemetry.total_time_s:.3f}",
        ))
    print(format_table(
        ["request", "solver", "status", "cost [ms]", "compile cache", "time [s]"],
        rows, title=f"solve-batch ({len(responses)} requests)",
    ))
    stats = session.stats
    print(f"compilations: {stats.compilations}, "
          f"cache hits: {stats.compile_cache_hits} "
          f"(hit rate {stats.hit_rate:.0%})")
    if args.out:
        _write_json(args.out, {
            "responses": [response.to_dict() for response in responses],
        })
        print(f"responses written to {args.out}")
    return 0 if all(response.ok for response in responses) else 1


def command_make_trace(args: argparse.Namespace) -> int:
    """Generate a replayable trace of drifted cost-matrix windows.

    Each window applies per-link lognormal jitter (relative scale
    ``--jitter``) to the problem's measured costs — the measurement noise a
    periodic re-measurement would see — and, from ``--spike-window`` on,
    multiplies ``--spike-links`` randomly chosen links by
    ``--spike-factor``, modelling a persistent latency shift that should
    trigger a re-deployment.
    """
    problem = DeploymentProblem.from_dict(_read_json(args.problem))
    base = problem.costs.as_array()
    ids = list(problem.costs.instance_ids)
    m = len(ids)
    rng = np.random.default_rng(args.seed)
    off_diagonal = ~np.eye(m, dtype=bool)
    spiked: List[Any] = []
    if args.spike_links > 0 and 0 <= args.spike_window < args.windows:
        pairs = np.argwhere(off_diagonal)
        chosen = pairs[rng.choice(len(pairs),
                                  size=min(args.spike_links, len(pairs)),
                                  replace=False)]
        spiked = [(int(a), int(b)) for a, b in chosen]
    windows = []
    for window in range(args.windows):
        matrix = base.copy()
        if args.jitter > 0:
            jitter = rng.lognormal(mean=0.0, sigma=args.jitter, size=(m, m))
            matrix[off_diagonal] *= jitter[off_diagonal]
        if spiked and window >= args.spike_window:
            for a, b in spiked:
                matrix[a, b] *= args.spike_factor
        windows.append(CostMatrix(ids, matrix).to_dict())
    # Windows are cost matrices in the problem schema's encoding, so a
    # trace shares the problem schema's version.
    _write_json(args.out, {"version": PROBLEM_SCHEMA_VERSION,
                           "windows": windows})
    print(format_table(
        ["quantity", "value"],
        [
            ("instances", m),
            ("windows", args.windows),
            ("jitter (lognormal sigma)", args.jitter),
            ("spiked links", len(spiked)),
            ("spike factor", args.spike_factor if spiked else "-"),
            ("spike from window", args.spike_window if spiked else "-"),
            ("trace written to", args.out),
        ],
        title="re-deployment trace",
    ))
    return 0


def command_watch(args: argparse.Namespace) -> int:
    """Replay a trace through the live pipeline; print the re-deploy log."""
    problem = DeploymentProblem.from_dict(_read_json(args.problem))
    payload = _read_json(args.trace)
    if isinstance(payload, dict):
        version = payload.get("version", PROBLEM_SCHEMA_VERSION)
        if version != PROBLEM_SCHEMA_VERSION:
            raise ClouDiAError(
                f"unsupported trace version {version!r} in {args.trace} "
                f"(this library reads version {PROBLEM_SCHEMA_VERSION}; "
                f"regenerate it with make-trace)"
            )
        entries = payload.get("windows")
        if entries is None:
            raise ClouDiAError(
                f"{args.trace} must contain a top-level 'windows' list "
                f"(or be a bare JSON list of cost matrices)"
            )
    else:
        entries = payload
    if not isinstance(entries, list):
        raise ClouDiAError(
            f"'windows' in {args.trace} must be a list, got "
            f"{type(entries).__name__}"
        )
    matrices = [CostMatrix.from_dict(entry) for entry in entries]
    policy = WatchPolicy(
        solver=args.solver,
        config=default_registry.seeded_config(args.solver, args.seed),
        budget=_budget_from_flag(args.time_limit),
        drift_threshold=args.drift_threshold,
        degradation_threshold=args.degradation_threshold,
        warm_start=not args.cold,
    )
    result_cache = SQLiteResultCache(args.store) if args.store else None
    session = AdvisorSession(result_cache=result_cache)
    report = session.watch(problem, matrices, policy)

    rows = []
    for event in report.events:
        if not event.resolved:
            action = "hold"
        elif event.cache_hit:
            action = f"{event.reason} (cached)"
        else:
            action = event.reason
        rows.append((
            event.revision,
            action,
            f"{event.drift:.1%}",
            "-" if event.incumbent_cost == float("inf")
            else f"{event.incumbent_cost:.4f}",
            f"{event.cost:.4f}",
            "refresh" if event.engine_refreshed else "compile",
            "warm" if event.warm_start else
            ("-" if not event.resolved or event.cache_hit else "cold"),
            f"{event.solve_time_s:.3f}",
            "yes" if event.redeployed else "no",
        ))
    print(format_table(
        ["rev", "action", "drift", "incumbent", "cost", "engine", "start",
         "solve [s]", "redeployed"],
        rows, title=f"re-deployment log ({report.problem.objective.value}, "
                    f"solver {report.events[0].solver})",
    ))
    stats = session.stats
    print(f"revisions: {len(report.events) - 1}, "
          f"re-solves: {report.resolves}, "
          f"result-cache hits: {report.cache_hits}, "
          f"holds: {report.holds}, "
          f"redeployments: {report.redeployments}; "
          f"engine refreshes: {stats.cost_refreshes}, "
          f"recompiles: {stats.cost_recompiles}")
    if args.store:
        runs = len(session.result_cache.history.runs())
        print(f"durable store {args.store}: "
              f"{len(session.result_cache)} results, "
              f"{runs} recorded watch runs")
        session.result_cache.close()
    if args.out:
        _write_json(args.out, report.to_dict())
        print(f"re-deployment log written to {args.out}")
    return 0


def command_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant HTTP advisor service until SIGTERM/SIGINT."""
    from .serve import ServeConfig, create_app, serve_until_signal

    weights: Dict[str, float] = {}
    for entry in args.tenant_weight or []:
        tenant, separator, raw = entry.partition("=")
        if not separator or not tenant:
            raise ClouDiAError(
                f"--tenant-weight expects TENANT=WEIGHT, got {entry!r}")
        try:
            weights[tenant] = float(raw)
        except ValueError:
            raise ClouDiAError(
                f"--tenant-weight weight must be a number, got {raw!r}"
            ) from None
    config = ServeConfig(
        workers=args.workers,
        max_queue=args.queue_size,
        request_timeout_s=args.request_timeout,
        tenant_header=args.tenant_header,
        tenant_weights=weights,
    )
    app = create_app(store=args.store, config=config, start_workers=False)
    return serve_until_signal(
        app, args.host, args.port, quiet=not args.verbose,
        ready_message=(
            f"advisor service listening on http://{args.host}:{args.port} "
            f"({args.workers} workers, queue {args.queue_size}, "
            f"store {args.store or 'none'})"
        ),
    )


def command_solvers(args: argparse.Namespace) -> int:
    """List the solvers registered in the default registry."""
    if getattr(args, "json", False):
        # The machine-readable discovery path: the same payload the
        # service's GET /v1/solvers route serves, so scripts never have
        # to parse the human-readable table.
        print(json.dumps(
            {"solvers": [spec.describe()
                         for spec in default_registry.specs()]},
            indent=2, allow_nan=False,
        ))
        return 0
    rows = []
    for spec in default_registry.specs():
        objectives = ", ".join(obj.value for obj in spec.objectives)
        size = "-" if spec.max_nodes is None else f"<= {spec.max_nodes} nodes"
        warm = "yes" if spec.supports_warm_start else "no"
        rows.append((spec.key, objectives, size, warm, spec.summary))
    print(format_table(
        ["key", "objectives", "practical size", "warm start", "description"],
        rows, title="registered solvers",
    ))
    return 0


def command_measure(args: argparse.Namespace) -> int:
    """Measure pairwise latencies on a fresh allocation and print statistics."""
    cloud = SimulatedCloud(profile=ProviderProfile.by_name(args.provider),
                           seed=args.seed)
    ids = [instance.instance_id for instance in cloud.allocate(args.instances)]
    scheme = MeasurementConfig(scheme=args.measurement,
                               target_samples_per_link=args.samples
                               ).build_scheme(seed=args.seed)
    result = scheme.measure(cloud, ids, target_samples_per_link=args.samples)
    matrix = result.to_cost_matrix()
    cdf = empirical_cdf(matrix.link_costs())
    print(format_table(
        ["quantity", "value"],
        [
            ("instances", len(ids)),
            ("probes sent", result.num_probes),
            ("simulated measurement time [ms]", result.elapsed_ms),
            ("min link latency [ms]", matrix.min_cost()),
            ("median link latency [ms]", cdf.quantile(0.5)),
            ("p90 link latency [ms]", cdf.quantile(0.9)),
            ("max link latency [ms]", matrix.max_cost()),
            ("p90 / p10 spread", cdf.spread(0.1, 0.9)),
        ],
        title=f"pairwise latency measurement ({scheme.name})",
    ))
    return 0


def command_providers(args: argparse.Namespace) -> int:
    """Compare latency heterogeneity across the built-in provider profiles."""
    rows = []
    for name in ("ec2", "gce", "rackspace"):
        cloud = SimulatedCloud(profile=ProviderProfile.by_name(name), seed=args.seed)
        ids = [instance.instance_id for instance in cloud.allocate(args.instances)]
        cdf = empirical_cdf(cloud.true_cost_matrix(ids).link_costs())
        rows.append((name, cdf.quantile(0.1), cdf.quantile(0.5), cdf.quantile(0.9),
                     cdf.spread(0.1, 0.9)))
    print(format_table(
        ["provider", "p10 [ms]", "median [ms]", "p90 [ms]", "p90/p10 spread"],
        rows, title=f"latency heterogeneity ({args.instances} instances per provider)",
    ))
    return 0


def command_templates(_args: argparse.Namespace) -> int:
    """List the communication-graph templates the CLI can build."""
    print(format_table(
        ["template", "description"],
        sorted(TEMPLATE_DESCRIPTIONS.items()),
        title="communication graph templates",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ClouDiA deployment advisor (reproduction) command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--provider", default="ec2",
                         choices=["ec2", "gce", "rackspace"],
                         help="latency profile of the simulated cloud")
        sub.add_argument("--seed", type=int, default=0, help="random seed")
        sub.add_argument("--measurement", default="staged",
                         choices=["staged", "uncoordinated", "token-passing"],
                         help="pairwise latency measurement scheme")
        sub.add_argument("--samples", type=int, default=10,
                         help="target RTT samples per directed link")

    def add_instance(sub: argparse.ArgumentParser) -> None:
        """The graph template, its size, the objective and the allocation."""
        sub.add_argument("--template", default="mesh",
                         choices=sorted(TEMPLATE_DESCRIPTIONS),
                         help="communication graph template")
        sub.add_argument("--rows", type=int, default=4)
        sub.add_argument("--cols", type=int, default=5)
        sub.add_argument("--depth", type=int, default=2)
        sub.add_argument("--branching", type=int, default=3)
        sub.add_argument("--frontends", type=int, default=4)
        sub.add_argument("--storage", type=int, default=12)
        sub.add_argument("--nodes", type=int, default=8)
        sub.add_argument("--dimension", type=int, default=3)
        sub.add_argument("--objective", default=Objective.LONGEST_LINK.value,
                         choices=[objective.value for objective in Objective])
        sub.add_argument("--metric", default=LatencyMetric.MEAN.value,
                         choices=[metric.value for metric in LatencyMetric])
        sub.add_argument("--over-allocation", type=float, default=0.10,
                         help="fraction of extra instances to allocate")

    advise = subparsers.add_parser("advise", help="run the full advisor pipeline")
    add_common(advise)
    add_instance(advise)
    advise.add_argument("--solver", default="auto",
                        choices=solver_choices(aliases=True),
                        help="solver registry key ('random' is a legacy "
                             "alias for 'r2' here)")
    advise.add_argument("--time-limit", type=float, default=5.0,
                        help="solver time limit in seconds")
    advise.add_argument("--show-plan", action="store_true",
                        help="print the full node-to-instance mapping")
    advise.set_defaults(handler=command_advise)

    make_problem = subparsers.add_parser(
        "make-problem",
        help="allocate + measure, then write a DeploymentProblem JSON")
    add_common(make_problem)
    add_instance(make_problem)
    make_problem.add_argument("--out", required=True,
                              help="path of the problem JSON to write")
    make_problem.set_defaults(handler=command_make_problem)

    solve = subparsers.add_parser(
        "solve", help="solve a serialized DeploymentProblem JSON")
    solve.add_argument("--problem", required=True,
                       help="path of the problem JSON to solve")
    solve.add_argument("--solver", default="auto", choices=solver_choices())
    solve.add_argument("--seed", type=int, default=None, help="random seed")
    solve.add_argument("--time-limit", type=float, default=5.0,
                       help="solver time limit in seconds "
                            "(0 = solver default budget)")
    solve.add_argument("--solver-config", default=None,
                       help="extra solver config as a JSON object")
    solve.add_argument("--out", default=None,
                       help="path of the response JSON to write")
    solve.set_defaults(handler=command_solve)

    solve_batch = subparsers.add_parser(
        "solve-batch",
        help="run a batch of serialized solve requests in one session")
    solve_batch.add_argument("--requests", default=None,
                             help="JSON file with a list of solve requests "
                                  "(or {'requests': [...]})")
    solve_batch.add_argument("--problem", action="append", default=None,
                             help="problem JSON to solve with the shared "
                                  "--solver/--seed (repeatable)")
    solve_batch.add_argument("--solver", default="auto",
                             choices=solver_choices())
    solve_batch.add_argument("--seed", type=int, default=None)
    solve_batch.add_argument("--time-limit", type=float, default=5.0,
                             help="solver time limit for requests built "
                                  "from --problem flags, in seconds "
                                  "(0 = solver default budget); --requests "
                                  "entries keep their own budgets")
    solve_batch.add_argument("--out", default=None,
                             help="path of the responses JSON to write")
    solve_batch.set_defaults(handler=command_solve_batch)

    make_trace = subparsers.add_parser(
        "make-trace",
        help="generate a replayable trace of drifted cost windows")
    make_trace.add_argument("--problem", required=True,
                            help="problem JSON whose costs the trace drifts")
    make_trace.add_argument("--out", required=True,
                            help="path of the trace JSON to write")
    make_trace.add_argument("--windows", type=int, default=6,
                            help="number of measurement windows")
    make_trace.add_argument("--jitter", type=float, default=0.01,
                            help="per-link lognormal jitter sigma "
                                 "(relative measurement noise)")
    make_trace.add_argument("--spike-window", type=int, default=3,
                            help="window from which spiked links stay "
                                 "elevated (-1 disables spikes)")
    make_trace.add_argument("--spike-links", type=int, default=5,
                            help="number of links to spike")
    make_trace.add_argument("--spike-factor", type=float, default=2.5,
                            help="multiplicative latency shift on spiked links")
    make_trace.add_argument("--seed", type=int, default=0, help="random seed")
    make_trace.set_defaults(handler=command_make_trace)

    watch = subparsers.add_parser(
        "watch",
        help="replay a cost trace through the live re-deployment pipeline")
    watch.add_argument("--problem", required=True,
                       help="problem JSON the deployment was solved against")
    watch.add_argument("--trace", required=True,
                       help="trace JSON with a 'windows' list of cost matrices")
    watch.add_argument("--solver", default="auto", choices=solver_choices())
    watch.add_argument("--seed", type=int, default=None, help="random seed")
    watch.add_argument("--time-limit", type=float, default=5.0,
                       help="solver time limit per (re-)solve in seconds "
                            "(0 = solver default budget)")
    watch.add_argument("--drift-threshold", type=float, default=0.05,
                       help="re-solve when a window's largest per-link "
                            "relative drift reaches this fraction")
    watch.add_argument("--degradation-threshold", type=float, default=0.02,
                       help="re-solve when the incumbent plan's cost "
                            "degrades by this fraction")
    watch.add_argument("--cold", action="store_true",
                       help="disable warm-starting re-solves from the "
                            "incumbent plan")
    watch.add_argument("--store", default=None,
                       help="path of the durable SQLite result + history "
                            "store (WAL mode, shared across processes; "
                            "also records the re-deployment history; "
                            "default: no store)")
    watch.add_argument("--out", default=None,
                       help="path of the re-deployment log JSON to write")
    watch.set_defaults(handler=command_watch)

    solvers = subparsers.add_parser("solvers",
                                    help="list the registered solvers")
    solvers.add_argument("--json", action="store_true",
                         help="emit the machine-readable catalog (the "
                              "same payload as GET /v1/solvers)")
    solvers.set_defaults(handler=command_solvers)

    serve = subparsers.add_parser(
        "serve",
        help="run the multi-tenant HTTP advisor service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind (default: loopback)")
    serve.add_argument("--port", type=int, default=8477,
                       help="TCP port to listen on")
    serve.add_argument("--store", default=None,
                       help="path of the shared durable SQLite result + "
                            "history store; omitting it serves without "
                            "persistence (history endpoints answer 503)")
    serve.add_argument("--workers", type=int, default=2,
                       help="solver worker threads draining the shared "
                            "priority queue")
    serve.add_argument("--queue-size", type=int, default=256,
                       help="bound on queued jobs; submissions beyond it "
                            "are rejected with HTTP 429")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="seconds a synchronous solve waits before "
                            "returning 504 (the job stays pollable)")
    serve.add_argument("--tenant-header", default="x-tenant",
                       help="HTTP header resolved into the tenant name")
    serve.add_argument("--tenant-weight", action="append", default=None,
                       metavar="TENANT=WEIGHT",
                       help="fair-share weight for one tenant "
                            "(repeatable; default weight is 1)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.set_defaults(handler=command_serve)

    measure = subparsers.add_parser("measure",
                                    help="measure pairwise latencies on a fresh allocation")
    add_common(measure)
    measure.add_argument("--instances", type=int, default=20)
    measure.set_defaults(handler=command_measure)

    providers = subparsers.add_parser("providers",
                                      help="compare latency heterogeneity across providers")
    providers.add_argument("--instances", type=int, default=30)
    providers.add_argument("--seed", type=int, default=0)
    providers.set_defaults(handler=command_providers)

    templates = subparsers.add_parser("templates",
                                      help="list communication graph templates")
    templates.set_defaults(handler=command_templates)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except (ClouDiAError, ValueError, TypeError, OSError) as exc:
        # The library's own failures plus the boundary errors the JSON
        # commands can hit (malformed --solver-config, missing files,
        # mistyped config values) all exit cleanly instead of tracebacking.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
