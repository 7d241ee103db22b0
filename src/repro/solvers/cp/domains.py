"""Finite domains with a backtrackable trail, used by the CP solver.

Variables are application nodes; values are instance indices.  The store
supports marking a checkpoint before a tentative assignment, pruning values
during propagation, and restoring the checkpoint on backtrack.

The store once carried an opt-in incremental bound cache for bound-driven
searches.  It was removed: the satisfaction search of
:mod:`repro.solvers.cp.subgraph` is the store's only production caller, and
every value surviving its root filters — the degree-based compatibility
labeling *and*, on constrained problems, the placement allowed-mask — is
already below the active threshold, so a live completion bound can never
prune a branch there (the CP solver applies the constraint-tightened
degree bound once, globally, to cut its threshold loop instead).  Keeping
the cache cost ~20% in the removal hot loop for nothing.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

from ...core.errors import SolverError

Variable = Hashable
Value = int


class DomainStore:
    """Mutable variable domains with trail-based backtracking."""

    def __init__(self, domains: Dict[Variable, Iterable[Value]]):
        if not domains:
            raise SolverError("domain store needs at least one variable")
        self._domains: Dict[Variable, Set[Value]] = {
            var: set(values) for var, values in domains.items()
        }
        for var, values in self._domains.items():
            if not values:
                raise SolverError(f"variable {var!r} starts with an empty domain")
        #: Trail of (variable, removed value) entries, in removal order.
        self._trail: List[Tuple[Variable, Value]] = []

    # ------------------------------------------------------------------ #

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables in the store."""
        return tuple(self._domains.keys())

    @property
    def domains(self) -> Mapping[Variable, Set[Value]]:
        """Every variable's live domain (live sets; do not mutate directly)."""
        return self._domains

    def domain(self, var: Variable) -> Set[Value]:
        """Current domain of a variable (live set; do not mutate directly)."""
        return self._domains[var]

    def size(self, var: Variable) -> int:
        """Number of values left in a variable's domain."""
        return len(self._domains[var])

    def is_assigned(self, var: Variable) -> bool:
        """A variable is assigned once its domain is a singleton."""
        return len(self._domains[var]) == 1

    def value(self, var: Variable) -> Value:
        """The value of an assigned variable."""
        domain = self._domains[var]
        if len(domain) != 1:
            raise SolverError(f"variable {var!r} is not assigned")
        return next(iter(domain))

    def unassigned(self) -> List[Variable]:
        """Variables whose domain still has more than one value."""
        return [v for v, d in self._domains.items() if len(d) > 1]

    def all_assigned(self) -> bool:
        """Whether every variable has a singleton domain."""
        return all(len(d) == 1 for d in self._domains.values())

    # ------------------------------------------------------------------ #
    # Trail management
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> int:
        """Mark the current trail position; pass it to :meth:`restore` later."""
        return len(self._trail)

    def restore(self, mark: int) -> None:
        """Undo all removals recorded after ``mark``."""
        while len(self._trail) > mark:
            var, value = self._trail.pop()
            self._domains[var].add(value)

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #

    def remove(self, var: Variable, value: Value) -> bool:
        """Remove ``value`` from ``var``'s domain.

        Returns:
            ``False`` if the removal wiped out the domain (a dead end),
            ``True`` otherwise.  Removing a value not in the domain is a
            no-op returning ``True``.
        """
        domain = self._domains[var]
        if value not in domain:
            return True
        domain.discard(value)
        self._trail.append((var, value))
        return bool(domain)

    def eliminate(self, value: Value, keep: Variable) -> bool:
        """Remove ``value`` from every domain except ``keep``'s.

        Walks the domains in variable order and stops at the first wipeout.

        Returns:
            ``False`` if some domain was wiped out, ``True`` otherwise.
        """
        trail = self._trail
        for var, domain in self._domains.items():
            if value in domain and var != keep:
                domain.discard(value)
                trail.append((var, value))
                if not domain:
                    return False
        return True

    def assign(self, var: Variable, value: Value) -> bool:
        """Reduce ``var``'s domain to ``{value}``.

        Returns ``False`` if ``value`` was not in the domain.
        """
        domain = self._domains[var]
        if value not in domain:
            return False
        for other in list(domain):
            if other != value:
                domain.discard(other)
                self._trail.append((var, other))
        return True

    def restrict(self, var: Variable, allowed: Set[Value]) -> bool:
        """Intersect ``var``'s domain with ``allowed``.

        Returns ``False`` on wipeout.
        """
        return self.remove_all(var, [
            value for value in self._domains[var] if value not in allowed])

    def remove_all(self, var: Variable, values: Iterable[Value]) -> bool:
        """Remove ``values``, each currently in ``var``'s domain, in order.

        Returns ``False`` on wipeout.
        """
        domain, trail = self._domains[var], self._trail
        for value in values:
            domain.discard(value)
            trail.append((var, value))
        return bool(domain)
