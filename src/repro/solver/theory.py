"""Theory reasoning for conjunctions of atoms.

The theory solver decides conjunctions of:

* domain atoms — comparisons between one variable and a constant;
* equality atoms — ``x == y + c`` (weighted union-find);
* difference atoms — ``x - y <= c`` and friends (difference-bound matrix);
* disequality atoms — ``x != c`` and ``x != y + c``.

The first kind arrives already decided: a :class:`PathCondition` classified
every atom and narrowed the per-variable domains when it was asserted
(:mod:`repro.solver.form`); what is decided here is those domains together
with the form's residual difference atoms.

It is sound for both "sat" and "unsat" answers within this fragment.  Atoms
outside the fragment (e.g. ``x + y == z``) make the result "unknown"; the
SEFL models shipped with the library never generate such atoms.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.solver.ast import Atom, Or, Var
from repro.solver.form import ClassifiedAtom, PathCondition
from repro.solver.intervals import IntervalSet


class _UnionFind:
    """Weighted union-find tracking ``var = root + offset`` relations."""

    def __init__(self) -> None:
        self._parent: Dict[Var, Var] = {}
        self._offset: Dict[Var, int] = {}

    def add(self, var: Var) -> None:
        if var not in self._parent:
            self._parent[var] = var
            self._offset[var] = 0

    def find(self, var: Var) -> Tuple[Var, int]:
        """Return ``(root, offset)`` such that ``var == root + offset``."""
        self.add(var)
        root = var
        offset = 0
        while self._parent[root] != root:
            offset += self._offset[root]
            root = self._parent[root]
        # path compression
        node = var
        acc = offset
        while self._parent[node] != node:
            parent = self._parent[node]
            step = self._offset[node]
            self._parent[node] = root
            self._offset[node] = acc
            acc -= step
            node = parent
        return root, offset

    def union(self, a: Var, b: Var, diff: int) -> bool:
        """Record ``a == b + diff``.  Returns False on contradiction."""
        root_a, off_a = self.find(a)
        root_b, off_b = self.find(b)
        if root_a == root_b:
            return off_a == off_b + diff
        # a = root_a + off_a ; b = root_b + off_b ; a = b + diff
        # => root_a = root_b + (off_b + diff - off_a)
        self._parent[root_a] = root_b
        self._offset[root_a] = off_b + diff - off_a
        return True

    def variables(self) -> Iterable[Var]:
        return self._parent.keys()


class TheorySolver:
    """Decide conjunctions of classified atoms and produce models."""

    def __init__(self, model_search_budget: int = 256) -> None:
        self._budget = model_search_budget

    # -- public API -----------------------------------------------------------

    def check(
        self,
        atoms: Iterable[Atom],
        extra_domains: Optional[Dict[Var, IntervalSet]] = None,
        want_model: bool = False,
    ) -> Tuple[str, Optional[Dict[Var, int]]]:
        """Return ``(verdict, model)`` for the conjunction of ``atoms``,
        each variable of ``extra_domains`` confined to its domain."""
        form = PathCondition()
        for var, allowed in (extra_domains or {}).items():
            form.narrow(var, allowed)
        for atom in atoms:
            form.assume(atom)
        return self.decide(form, want_model)

    def decide(
        self, form: PathCondition, want_model: bool = False
    ) -> Tuple[str, Optional[Dict[Var, int]]]:
        """``(verdict, model)`` for the conjunctive part of ``form``: its
        domains and residual atoms.  Disjunctions in the residual are the
        caller's to split (``Solver`` does, one scope per branch)."""
        if form.unsat:
            return "unsat", None
        union = _UnionFind()
        domains = form.domains
        diff_upper: Dict[Tuple[Var, Var], int] = {}
        diseqs: List[Tuple[Var, Var, int]] = []
        has_unsupported = False

        for var in domains:
            union.add(var)
        # Most recent first — the order conjuncts have always been taken in,
        # which fixes the union-find roots and with them the model found.
        for item in reversed(form.residual):
            if isinstance(item, Or):
                continue
            if not isinstance(item, ClassifiedAtom):
                has_unsupported = True
                continue
            # difference atom: left - right op constant
            left, right, c, op = item.left, item.right, item.constant, item.op
            union.add(left)
            union.add(right)
            if op == "==":
                if not union.union(left, right, c):
                    return "unsat", None
            elif op == "!=":
                diseqs.append((left, right, c))
            elif op == "<=":
                self._add_diff(diff_upper, left, right, c)
            elif op == "<":
                self._add_diff(diff_upper, left, right, c - 1)
            elif op == ">=":
                self._add_diff(diff_upper, right, left, -c)
            elif op == ">":
                self._add_diff(diff_upper, right, left, -c - 1)

        # Collapse everything onto union-find representatives.
        rep_domains: Dict[Var, IntervalSet] = {}
        for var in list(union.variables()):
            root, offset = union.find(var)
            base = rep_domains.get(root, IntervalSet.full(root.width))
            # var = root + offset; domain(var) constrains root to domain(var) - offset
            own = domains.get(var, IntervalSet.full(var.width))
            shifted = own.shift(-offset) if offset else own
            base = base.intersection(shifted)
            rep_domains[root] = base
            if base.is_empty():
                return "unsat", None

        # Difference bounds between representatives.
        rep_diff: Dict[Tuple[Var, Var], int] = {}
        for (left, right), bound in diff_upper.items():
            root_l, off_l = union.find(left)
            root_r, off_r = union.find(right)
            # (root_l + off_l) - (root_r + off_r) <= bound
            adjusted = bound - off_l + off_r
            if root_l == root_r:
                if adjusted < 0:
                    return "unsat", None
                continue
            self._add_diff(rep_diff, root_l, root_r, adjusted)

        # Disequalities between representatives.
        rep_diseqs: List[Tuple[Var, Var, int]] = []
        for left, right, c in diseqs:
            root_l, off_l = union.find(left)
            root_r, off_r = union.find(right)
            # (root_l + off_l) != (root_r + off_r) + c
            adjusted = c + off_r - off_l
            if root_l == root_r:
                if adjusted == 0:
                    return "unsat", None
                continue
            rep_diseqs.append((root_l, root_r, adjusted))

        verdict, assignment = self._solve_core(rep_domains, rep_diff, rep_diseqs)
        if verdict != "sat":
            return verdict, None
        if has_unsupported:
            # We found a model of the supported part only.
            return "unknown", None
        if not want_model:
            return "sat", None
        assert assignment is not None
        model: Dict[Var, int] = {}
        for var in union.variables():
            root, offset = union.find(var)
            model[var] = assignment[root] + offset
        for var, value in assignment.items():
            model.setdefault(var, value)
        return "sat", model

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _add_diff(
        table: Dict[Tuple[Var, Var], int], left: Var, right: Var, bound: int
    ) -> None:
        key = (left, right)
        if key not in table or bound < table[key]:
            table[key] = bound

    def _solve_core(
        self,
        domains: Dict[Var, IntervalSet],
        diff_upper: Dict[Tuple[Var, Var], int],
        diseqs: List[Tuple[Var, Var, int]],
    ) -> Tuple[str, Optional[Dict[Var, int]]]:
        """Decide the representative-level problem and build an assignment."""
        variables: Set[Var] = set(domains)
        for left, right in diff_upper:
            variables.add(left)
            variables.add(right)
        for left, right, _ in diseqs:
            variables.add(left)
            variables.add(right)
        for var in variables:
            domains.setdefault(var, IntervalSet.full(var.width))

        # Tighten domains using difference bounds (Bellman-Ford style passes).
        if diff_upper:
            changed = True
            passes = 0
            limit = len(variables) + 2
            while changed and passes <= limit:
                changed = False
                passes += 1
                for (left, right), bound in diff_upper.items():
                    dom_l, dom_r = domains[left], domains[right]
                    if dom_l.is_empty() or dom_r.is_empty():
                        return "unsat", None
                    # left <= right + bound  => left_max <= right_max + bound
                    new_l = dom_l.intersection(
                        IntervalSet.at_most(dom_r.max() + bound)
                    )
                    # right >= left - bound
                    new_r = dom_r.intersection(
                        IntervalSet.at_least(dom_l.min() - bound, right.width)
                    )
                    if new_l != dom_l:
                        domains[left] = new_l
                        changed = True
                    if new_r != dom_r:
                        domains[right] = new_r
                        changed = True
                    if new_l.is_empty() or new_r.is_empty():
                        return "unsat", None
            if passes > limit and changed:
                # Negative-cycle style divergence: bounds keep shrinking.
                return "unsat", None

        # Prune constant disequalities into domains.
        remaining_diseqs: List[Tuple[Var, Var, int]] = []
        for left, right, c in diseqs:
            dom_r = domains[right]
            if dom_r.is_singleton():
                value = dom_r.singleton_value() + c
                domains[left] = domains[left].remove_point(value)
                if domains[left].is_empty():
                    return "unsat", None
                continue
            dom_l = domains[left]
            if dom_l.is_singleton():
                value = dom_l.singleton_value() - c
                domains[right] = domains[right].remove_point(value)
                if domains[right].is_empty():
                    return "unsat", None
                continue
            remaining_diseqs.append((left, right, c))

        for dom in domains.values():
            if dom.is_empty():
                return "unsat", None

        assignment = self._find_assignment(domains, diff_upper, remaining_diseqs)
        if assignment is None:
            return "unknown", None
        return "sat", assignment

    def _find_assignment(
        self,
        domains: Dict[Var, IntervalSet],
        diff_upper: Dict[Tuple[Var, Var], int],
        diseqs: List[Tuple[Var, Var, int]],
    ) -> Optional[Dict[Var, int]]:
        """Search for a concrete assignment satisfying all constraints."""
        order = sorted(domains, key=lambda v: (domains[v].size(), v.name))
        assignment: Dict[Var, int] = {}

        def consistent(var: Var, value: int) -> bool:
            for (left, right), bound in diff_upper.items():
                if left == var and right in assignment:
                    if value - assignment[right] > bound:
                        return False
                if right == var and left in assignment:
                    if assignment[left] - value > bound:
                        return False
            for left, right, c in diseqs:
                if left == var and right in assignment:
                    if value == assignment[right] + c:
                        return False
                if right == var and left in assignment:
                    if assignment[left] == value + c:
                        return False
            return True

        budget = [self._budget * max(1, len(order))]

        def backtrack(index: int) -> bool:
            if index == len(order):
                return True
            var = order[index]
            candidates = domains[var].iter_values(limit=self._budget)
            for value in candidates:
                if budget[0] <= 0:
                    return False
                budget[0] -= 1
                if consistent(var, value):
                    assignment[var] = value
                    if backtrack(index + 1):
                        return True
                    del assignment[var]
            return False

        if backtrack(0):
            return assignment
        return None
