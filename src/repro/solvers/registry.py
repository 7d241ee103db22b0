"""String-keyed registry of deployment solvers with typed configuration.

Every solver in the library registers here under a stable string key
together with a factory and its capabilities (supported objectives, an
optional practical size ceiling).  Consumers — the CLI, the advisor, the
portfolio and the batch advisor session — resolve solvers through the
registry instead of hand-rolled ``if``/``elif`` factories::

    from repro.solvers.registry import default_registry

    solver = default_registry.make("cp", seed=7)
    default_registry.available()
    default_registry.supporting(Objective.LONGEST_PATH)

Configuration is *typed* in the sense that :meth:`SolverRegistry.make`
validates every config field against the factory's signature before
instantiation, so a typo (``make("cp", sead=7)``) or an unsupported field
(``make("greedy", seed=7)``) fails fast with the list of accepted fields
instead of an opaque ``TypeError`` deep inside a constructor.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..core.errors import SolverError
from ..core.objectives import Objective
from ..core.problem import DeploymentProblem
from .base import DeploymentSolver
from .cp.llndp_cp import CPLongestLinkSolver
from .greedy import GreedyG1, GreedyG2
from .local_search import SimulatedAnnealing, SwapLocalSearch
from .mip.llndp_mip import MIPLongestLinkSolver
from .mip.lpndp_mip import MIPLongestPathSolver
from .portfolio import PortfolioSolver
from .random_search import RandomSearch


class UnknownSolverError(SolverError):
    """Raised when a solver key is not present in the registry."""


class SolverConfigError(SolverError):
    """Raised when a solver config contains fields the factory rejects."""


@dataclass(frozen=True)
class SolverSpec:
    """One registered solver: key, factory and capabilities."""

    key: str
    factory: Callable[..., DeploymentSolver]
    summary: str
    objectives: Tuple[Objective, ...]
    #: Practical ceiling on the number of application nodes (``None`` = no
    #: ceiling): :meth:`SolverRegistry.resolve` refuses a larger problem
    #: and capability filtering leaves the solver out.  The MIP encodings
    #: grow as ``|E| * |S|^2`` and stop being practical long before the
    #: lightweight solvers do.
    max_nodes: Optional[int] = None
    #: Whether the solver makes productive use of an ``initial_plan`` warm
    #: start (search solvers start from it, CP seeds its incumbent with it,
    #: the MIP and constructive solvers bound their result by it).
    #: The live re-deployment watch loop filters on this so drift
    #: re-solves are only warm-started where that actually helps.
    supports_warm_start: bool = False
    _parameters: Tuple[str, ...] = field(init=False, repr=False, default=())
    _has_kwargs: bool = field(init=False, repr=False, default=False)

    def __post_init__(self) -> None:
        signature = inspect.signature(self.factory)
        names = []
        has_kwargs = False
        for parameter in signature.parameters.values():
            if parameter.kind is inspect.Parameter.VAR_KEYWORD:
                has_kwargs = True
            elif parameter.kind is not inspect.Parameter.VAR_POSITIONAL:
                names.append(parameter.name)
        object.__setattr__(self, "_parameters", tuple(names))
        object.__setattr__(self, "_has_kwargs", has_kwargs)

    @property
    def config_fields(self) -> Tuple[str, ...]:
        """Names of the configuration fields the factory accepts."""
        return self._parameters

    def accepts(self, name: str) -> bool:
        """Whether the factory accepts a config field called ``name``."""
        return self._has_kwargs or name in self._parameters

    def supports(self, objective: Objective,
                 num_nodes: Optional[int] = None,
                 warm_start: Optional[bool] = None) -> bool:
        """Capability check: objective, size, warm starts.

        ``warm_start=True`` filters to solvers that make productive use of
        an ``initial_plan``; ``None`` (the default) does not filter on it.
        """
        if objective not in self.objectives:
            return False
        if warm_start and not self.supports_warm_start:
            return False
        if num_nodes is not None and self.max_nodes is not None:
            return num_nodes <= self.max_nodes
        return True

    def describe(self) -> Dict[str, Any]:
        """Machine-readable description of the spec (JSON-serializable).

        The single discovery payload shared by the CLI's ``solvers
        --json`` output and the service's ``GET /v1/solvers`` route, so
        scripts never have to parse the human-readable table.
        """
        return {
            "key": self.key,
            "summary": self.summary,
            "objectives": [objective.value for objective in self.objectives],
            "max_nodes": self.max_nodes,
            "supports_warm_start": self.supports_warm_start,
            "config_fields": list(self.config_fields),
        }

    def make(self, **config: Any) -> DeploymentSolver:
        """Instantiate the solver after validating the config fields."""
        unknown = sorted(name for name in config if not self.accepts(name))
        if unknown:
            raise SolverConfigError(
                f"solver {self.key!r} does not accept config field(s) "
                f"{', '.join(unknown)}; accepted fields: "
                f"{', '.join(self._parameters) or '(none)'}"
            )
        return self.factory(**config)


class SolverRegistry:
    """Mutable mapping from string keys to :class:`SolverSpec` entries."""

    def __init__(self) -> None:
        self._specs: Dict[str, SolverSpec] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(self, key: str, factory: Callable[..., DeploymentSolver],
                 *, summary: str,
                 objectives: Optional[Tuple[Objective, ...]] = None,
                 max_nodes: Optional[int] = None,
                 supports_warm_start: Optional[bool] = None,
                 replace: bool = False) -> SolverSpec:
        """Register a solver factory under ``key``.

        Args:
            key: the string key solvers are resolved by.
            factory: class or callable returning a configured solver.
            summary: one-line human description (shown by the CLI).
            objectives: supported objectives; defaults to the factory's
                ``supported_objectives`` attribute when it is a solver
                class.
            max_nodes: optional practical size ceiling.
            supports_warm_start: whether the solver makes productive use
                of an ``initial_plan``; defaults to the factory's
                ``supports_warm_start`` attribute (``False`` when the
                factory carries none, e.g. a bare function).
            replace: allow overwriting an existing key (default refuses).
        """
        if key in self._specs and not replace:
            raise SolverError(f"solver key {key!r} is already registered")
        if objectives is None:
            objectives = tuple(getattr(factory, "supported_objectives", ()))
            if not objectives:
                raise SolverError(
                    f"cannot infer objectives for solver {key!r}; pass "
                    f"objectives= explicitly"
                )
        if supports_warm_start is None:
            supports_warm_start = bool(
                getattr(factory, "supports_warm_start", False))
        spec = SolverSpec(key=key, factory=factory, summary=summary,
                          objectives=tuple(objectives), max_nodes=max_nodes,
                          supports_warm_start=supports_warm_start)
        self._specs[key] = spec
        return spec

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #

    def spec(self, key: str) -> SolverSpec:
        """The :class:`SolverSpec` registered under ``key``."""
        try:
            return self._specs[key]
        except KeyError:
            raise UnknownSolverError(
                f"unknown solver {key!r}; available: "
                f"{', '.join(self.available())}"
            ) from None

    def __contains__(self, key: str) -> bool:
        return key in self._specs

    def make(self, key: str, **config: Any) -> DeploymentSolver:
        """Instantiate the solver registered under ``key``.

        Config fields are validated against the factory signature;
        unsupported fields raise :class:`SolverConfigError` naming the
        accepted ones.
        """
        return self.spec(key).make(**config)

    def accepts(self, key: str, name: str) -> bool:
        """Whether solver ``key`` accepts a config field called ``name``."""
        return self.spec(key).accepts(name)

    # ------------------------------------------------------------------ #
    # Discovery and capability filtering
    # ------------------------------------------------------------------ #

    def available(self) -> Tuple[str, ...]:
        """All registered keys, sorted."""
        return tuple(sorted(self._specs))

    def specs(self) -> Tuple[SolverSpec, ...]:
        """All registered specs, sorted by key."""
        return tuple(self._specs[key] for key in self.available())

    def supporting(self, objective: Objective,
                   num_nodes: Optional[int] = None,
                   warm_start: Optional[bool] = None) -> Tuple[str, ...]:
        """Keys of the solvers able to optimise ``objective``.

        When ``num_nodes`` is given, solvers whose practical size ceiling
        is below it are filtered out as well; ``warm_start=True``
        additionally keeps only solvers that make productive use of an
        ``initial_plan``.
        """
        return tuple(
            key for key in self.available()
            if self._specs[key].supports(objective, num_nodes, warm_start)
        )

    def for_problem(self, problem: DeploymentProblem,
                    warm_start: Optional[bool] = None) -> Tuple[str, ...]:
        """Keys of the solvers able to handle ``problem``.

        Every registered solver enforces placement constraints inside its
        search, so constraints do not narrow the list.  Pass
        ``warm_start=True`` when the solve will be warm-started from an
        incumbent (as the live re-deployment watch loop does), to keep only
        solvers where that actually helps.
        """
        return self.supporting(problem.objective, problem.num_nodes,
                               warm_start=warm_start)

    def default_key(self, objective: Objective) -> str:
        """The paper's default solver for an objective.

        CP for the longest link, the MIP for the longest path (Sect. 4).
        """
        if objective is Objective.LONGEST_PATH:
            return "mip"
        return "cp"

    def seeded_config(self, key: Optional[str], seed: Optional[int],
                      extra: Optional[Mapping[str, Any]] = None
                      ) -> Dict[str, Any]:
        """Caller config overrides plus the seed, when the solver takes one.

        The single implementation of the seed-routing policy shared by the
        CLI and the advisor config: the seed is added unless the overrides
        already set it or the factory does not accept a ``seed`` field.
        ``"auto"`` / ``None`` keys pass the seed along unguarded — both
        paper-default solvers (CP and MIP) accept it.
        """
        config: Dict[str, Any] = dict(extra or {})
        if seed is not None and "seed" not in config and (
                key is None or key == "auto" or self.accepts(key, "seed")):
            config["seed"] = seed
        return config

    def resolve(self, key: Optional[str], problem: DeploymentProblem) -> str:
        """Resolve a solver selection for ``problem`` to a concrete key.

        ``None`` and ``"auto"`` pick the paper default for the problem's
        objective; anything else must be a registered key.  This is the
        single place the ``auto`` convention and the size ceilings are
        enforced — the CLI, the advisor config, the request schema and the
        watch loop all route through it.

        Raises:
            UnknownSolverError: ``key`` is not registered.
            SolverError: the problem has more nodes than the solver's
                ``max_nodes``; the message names the ceiling and lists the
                solvers that fit.
        """
        resolved = self.default_key(problem.objective) \
            if key is None or key == "auto" else key
        spec = self.spec(resolved)  # raises UnknownSolverError
        if spec.max_nodes is not None and problem.num_nodes > spec.max_nodes:
            chosen = resolved if resolved == key else \
                f"{resolved} (the default for {problem.objective.value})"
            raise SolverError(
                f"solver {chosen} handles at most {spec.max_nodes} nodes; "
                f"this problem has {problem.num_nodes}; solvers that fit: "
                f"{', '.join(self.for_problem(problem))}"
            )
        return resolved


#: The process-wide registry all built-in solvers register into.
default_registry = SolverRegistry()

#: Practical node ceiling for the MIP encodings, whose constraint count
#: grows as ``|E| * |S|^2`` (about 308k rows at 63 nodes on 71 instances).
_MIP_MAX_NODES = 64

default_registry.register(
    "cp", CPLongestLinkSolver,
    summary="threshold-lowering CP search over the subgraph-isomorphism "
            "formulation (paper default for longest link)",
)
default_registry.register(
    "mip", MIPLongestPathSolver,
    summary="longest-path MIP solved by HiGHS (paper default for longest "
            "path)",
    max_nodes=_MIP_MAX_NODES,
)
default_registry.register(
    "mip-ll", MIPLongestLinkSolver,
    summary="longest-link MIP encoding (Sect. 4.1), mostly for "
            "cross-checking CP",
    max_nodes=_MIP_MAX_NODES,
)
default_registry.register(
    "greedy", GreedyG2,
    summary="greedy G2: cheapest explicit + implicit link expansion",
)
default_registry.register(
    "g1", GreedyG1,
    summary="greedy G1: cheapest explicit link expansion",
)
default_registry.register(
    "random", RandomSearch,
    summary="uniform random plans; num_samples=None searches until the "
            "time budget runs out",
)
default_registry.register(
    "r1", RandomSearch.r1,
    summary="paper's R1: best of a fixed number of random plans",
    objectives=RandomSearch.supported_objectives,
    supports_warm_start=RandomSearch.supports_warm_start,
)
default_registry.register(
    "r2", RandomSearch.r2,
    summary="paper's R2: random search bounded by wall-clock time",
    objectives=RandomSearch.supported_objectives,
    supports_warm_start=RandomSearch.supports_warm_start,
)
default_registry.register(
    "local-search", SwapLocalSearch,
    summary="first-improvement hill climbing over swap/relocate moves",
)
default_registry.register(
    "annealing", SimulatedAnnealing,
    summary="simulated annealing over swap/relocate moves",
)
default_registry.register(
    "portfolio", PortfolioSolver,
    summary="greedy + random warm start, exact solver with the remaining "
            "budget",
)
