"""``alldifferent`` reasoning for the CP deployment solver.

The CP encoding of Sect. 4.2 keeps one integer variable per application
node whose value is the hosting instance, with an ``alldifferent``
constraint over all of them.  Two levels of propagation are provided:

* *value elimination* — once a variable is assigned, its value is removed
  from every other domain (arc consistency on the pairwise decomposition);
* *matching feasibility* — the matching step of Régin's ``alldifferent``
  filtering (AAAI 1994): the remaining domains can be completed to an
  injective assignment iff the variable/value bipartite graph has a
  matching that covers every variable.  This detects dead ends earlier
  than value elimination can.

A satisfaction search checks matching feasibility every few assignments,
and consecutive checks see nearly the same domains.  A
:class:`ValueMatching` therefore keeps its matching from one check to the
next: a check drops the pairs whose variable was assigned or whose value
left the domain since, and re-augments only the variables left unmatched.
Each augmentation is an iterative depth-first search for an
alternating path that first looks for a free value in every domain it
reaches (the look-ahead of Duff's MC21), so chains as long as the variable
count need no recursion.  :func:`matching_feasible` on a plain mapping is
a cold call of the same code: it starts from an empty matching.
"""

from __future__ import annotations

from typing import Collection, Dict, Hashable, Iterable, Iterator, Mapping, Sequence, Set

from .domains import DomainStore

Variable = Hashable


def propagate_assignment(store: DomainStore, assigned_var: Variable,
                         value: int) -> bool:
    """Remove ``value`` from the domain of every other variable.

    Returns ``False`` if this wipes out some domain.
    """
    return store.eliminate(value, keep=assigned_var)


class ValueMatching(Mapping):
    """The live domains of the unassigned variables, with a kept matching.

    As a mapping it holds every variable of ``domains`` that is not in
    ``assigned``, each to its live domain; a search passes its domain
    store's sets and its assignment, so the view follows the search without
    being rebuilt.  Between checks it keeps the variable/value matching the
    last check found.

    Args:
        domains: every variable's live domain.
        assigned: the variables of ``domains`` to leave out, read live
            like the domains.
    """

    def __init__(self, domains: Mapping[Variable, Iterable[int]],
                 assigned: Collection[Variable] = ()):
        self._domains = domains
        self._assigned = assigned
        self._value_of: Dict[Variable, int] = {}
        self._var_of: Dict[int, Variable] = {}

    def __getitem__(self, var: Variable) -> Iterable[int]:
        if var in self._assigned:
            raise KeyError(var)
        return self._domains[var]

    def __iter__(self) -> Iterator[Variable]:
        assigned = self._assigned
        return (var for var in self._domains if var not in assigned)

    def __len__(self) -> int:
        return len(self._domains) - len(self._assigned)

    def rematch(self) -> bool:
        """Bring the matching up to date; ``True`` when it covers every variable.

        Pairs that no longer hold are dropped first, then every unmatched
        variable is augmented.  A variable with no augmenting path proves
        that no covering matching exists, so the check stops there and
        keeps the partial matching for the next call.
        """
        domains, assigned = self._domains, self._assigned
        value_of, var_of = self._value_of, self._var_of
        for var, value in list(value_of.items()):
            if var in assigned or value not in domains[var]:
                del value_of[var]
                del var_of[value]
        for var in domains:
            if var not in value_of and var not in assigned:
                if not self._augment(var):
                    return False
        return True

    def _free_value(self, var: Variable) -> int | None:
        var_of = self._var_of
        for value in self._domains[var]:
            if value not in var_of:
                return value
        return None

    def _augment(self, root: Variable) -> bool:
        """Match ``root`` through an alternating path; ``False`` if none exists."""
        domains, value_of, var_of = self._domains, self._value_of, self._var_of
        free = self._free_value(root)
        if free is not None:
            value_of[root] = free
            var_of[free] = root
            return True
        # path[i] is the matched value that leads from chain[i] to chain[i + 1].
        chain = [root]
        path = []
        pending = [iter(domains[root])]
        visited: Set[int] = set()
        while pending:
            for value in pending[-1]:
                if value in visited:
                    continue
                visited.add(value)
                owner = var_of[value]
                chain.append(owner)
                path.append(value)
                free = self._free_value(owner)
                if free is not None:
                    # Each chain variable takes the value its successor
                    # held; the last one takes the free value.
                    path.append(free)
                    for var, new_value in zip(chain, path):
                        value_of[var] = new_value
                        var_of[new_value] = var
                    return True
                pending.append(iter(domains[owner]))
                break
            else:
                pending.pop()
                chain.pop()
                if path:
                    path.pop()
        return False


def matching_feasible(domains: Mapping[Variable, Iterable[int]]) -> bool:
    """Check whether an injective assignment consistent with the domains exists.

    A :class:`ValueMatching` re-augments only what changed since its last
    check; any other mapping is checked from an empty matching.
    """
    if not isinstance(domains, ValueMatching):
        domains = ValueMatching(domains)
    return domains.rematch()


def prune_singletons(store: DomainStore, variables: Sequence[Variable] | None = None) -> bool:
    """Repeatedly apply value elimination for every assigned variable.

    Returns ``False`` on wipeout.  This restores arc consistency after bulk
    domain restrictions (e.g. the initial compatibility filtering).
    """
    work = list(variables if variables is not None else store.variables)
    processed: Set[Variable] = set()
    while work:
        var = work.pop()
        if var in processed or not store.is_assigned(var):
            continue
        processed.add(var)
        value = store.value(var)
        for other in store.variables:
            if other == var:
                continue
            before = store.size(other)
            if not store.remove(other, value):
                return False
            if store.size(other) == 1 and before > 1:
                work.append(other)
    return True
