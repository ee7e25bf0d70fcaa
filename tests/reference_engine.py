"""The per-row join operators: the test oracle of the block kernels.

The engine runs every planned basic graph pattern on the block kernels
(:mod:`repro.sparql.kernels`).  This module keeps the scalar operators
the kernels replaced, so tests and benchmarks can hold the kernels to
them:

* :class:`PerRowOperators` runs the planner's steps one solution at a
  time: ``scan`` / ``nested`` as per-solution index lookups
  (``_join_pattern``), ``merge`` as a sort-merge semi-join, ``hash`` as
  a hash join built on the pattern side.  Its rows come in the order the
  kernels must keep: seed order, then index order within each seed row.
* :class:`NaiveOperators` skips the planner: patterns ordered by their
  number of constants and joined by nested index lookups.  It is the
  planner's multiset oracle.

Both replace ``_run_plan`` and turn the columnar finish off
(``_columnar_plan`` returns ``None``), either on one evaluator — and a
sharded evaluator's shard-local ones — (:func:`per_row`, :func:`naive`)
or on every evaluator a run builds (:func:`patch_per_row`).  Worker
processes are never switched: a process-backend evaluator runs the
kernels.

No pytest import: ``benchmarks/record_scale.py`` times the per-row
operators through :func:`per_row_evaluator`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.sparql.ast import TriplePatternNode
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.plan import HASH, MERGE, NESTED, BGPPlan, PlanStep

#: Sentinel for "constant term unknown to the store's dictionary": the
#: pattern can never match, which is distinct from ``None`` (wildcard).
_MISS = object()


class PerRowOperators:
    """Mixin: the planner's steps run by the per-row operators."""

    def _run_plan(
        self, plan: BGPPlan, solutions: Iterable[IdBinding], root_call: bool
    ) -> Iterable[IdBinding]:
        for step in plan.steps:
            if step.operator == MERGE:
                solutions = self._merge_join(
                    solutions, step.pattern, step.merge_variable
                )
            elif step.operator == HASH:
                solutions = self._hash_join(
                    solutions, step.pattern, step.join_variables
                )
            else:  # scan / nested: per-solution index lookups
                solutions = self._join_pattern(solutions, step.pattern)
        return solutions

    def _columnar_plan(self, query):
        return None

    def _join_pattern(
        self, solutions: Iterable[IdBinding], pattern: TriplePatternNode
    ) -> Iterator[IdBinding]:
        for solution in solutions:
            yield from self._match_pattern(pattern, solution)

    def _match_pattern(
        self, pattern: TriplePatternNode, solution: IdBinding
    ) -> Iterator[IdBinding]:
        def resolve(term):
            if isinstance(term, Variable):
                value = solution.get(term)
                if value is None:
                    return None  # unbound -> wildcard
                if type(value) is int:
                    return value
                return _MISS  # bound to an out-of-dictionary term
            tid = self._dict.id_for(term)
            return tid if tid is not None else _MISS

        subject = resolve(pattern.subject)
        predicate = resolve(pattern.predicate)
        obj = resolve(pattern.object)
        if subject is _MISS or predicate is _MISS or obj is _MISS:
            return

        for sid, pid, oid in self.store.match_ids(subject, predicate, obj):
            extended: Optional[IdBinding] = solution
            for position, value in (
                (pattern.subject, sid),
                (pattern.predicate, pid),
                (pattern.object, oid),
            ):
                if isinstance(position, Variable):
                    extended = extended.extend(position, value)  # type: ignore[union-attr]
                    if extended is None:
                        break
            if extended is not None:
                yield extended

    def _merge_join(
        self,
        solutions: Iterable[IdBinding],
        pattern: TriplePatternNode,
        variable: Variable,
    ) -> Iterator[IdBinding]:
        """Sort-merge semi-join against a two-constant pattern's sorted run.

        Precondition (guaranteed by the planner): the solution stream is
        nondecreasing on ``variable``, and ``pattern`` has exactly two
        constant positions with ``variable`` in the third.  The pattern
        binds no new variables, so matching solutions pass through
        unchanged; both sides are walked once.
        """
        consts = self._resolve_constants(pattern)
        if consts is None:
            return
        run = iter(self.store.sorted_run_ids(*consts))
        current = next(run, None)
        if current is None:
            return
        for solution in solutions:
            value = solution.get(variable)
            if type(value) is not int:
                continue  # out-of-dictionary term can never match
            while current is not None and current < value:
                current = next(run, None)
            if current is None:
                break  # left keys only grow; nothing further can match
            if current == value:
                yield solution

    def _hash_join(
        self,
        solutions: Iterable[IdBinding],
        pattern: TriplePatternNode,
        join_variables: Tuple[Variable, ...],
    ) -> Iterator[IdBinding]:
        """Hash join: build on the pattern side once, probe per solution.

        The build side is the pattern's full match set keyed on the shared
        variables (the planner picks this operator only when that side is
        the smaller one, or when there are no shared variables and
        rescanning per solution would be worse).  Building happens lazily
        on the first streamed solution, so an empty left side costs
        nothing.
        """
        table: Optional[dict] = None
        for solution in solutions:
            if table is None:
                table = self._build_join_table(pattern, join_variables)
                if not table:
                    return
            if join_variables:
                key = []
                valid = True
                for variable in join_variables:
                    value = solution.get(variable)
                    if type(value) is not int:
                        valid = False  # out-of-dictionary term: no match
                        break
                    key.append(value)
                if not valid:
                    continue
                bucket = table.get(tuple(key))
            else:
                bucket = table.get(())
            if not bucket:
                continue
            for assignment in bucket:
                extended: Optional[IdBinding] = solution
                for variable, value in assignment:
                    extended = extended.extend(variable, value)  # type: ignore[union-attr]
                    if extended is None:
                        break
                if extended is not None:
                    yield extended

    def _build_join_table(
        self, pattern: TriplePatternNode, join_variables: Tuple[Variable, ...]
    ) -> dict:
        """Scan ``pattern`` once into ``join-key -> [variable assignments]``."""
        consts = self._resolve_constants(pattern)
        if consts is None:
            return {}
        positions = (pattern.subject, pattern.predicate, pattern.object)
        table: dict = {}
        for ids in self.store.match_ids(*consts):
            assignment: dict = {}
            consistent = True
            for term, value in zip(positions, ids):
                if isinstance(term, Variable):
                    previous = assignment.get(term)
                    if previous is None:
                        assignment[term] = value
                    elif previous != value:
                        consistent = False  # repeated variable, unequal values
                        break
            if not consistent:
                continue
            key = tuple(assignment[v] for v in join_variables)
            bucket = table.get(key)
            if bucket is None:
                bucket = table[key] = []
            bucket.append(tuple(assignment.items()))
        return table


class NaiveOperators(PerRowOperators):
    """Mixin: no planner — the constant-count ordering with nested joins."""

    def _plan_for(self, group, patterns, bound, single_input) -> BGPPlan:
        return BGPPlan(
            tuple(
                PlanStep(pattern, NESTED, 0.0)
                for pattern in self._order_by_constants(patterns)
            )
        )

    @staticmethod
    def _order_by_constants(patterns: List[TriplePatternNode]) -> List[TriplePatternNode]:
        """The pre-planner ordering: most constant positions first."""

        def constants(pattern: TriplePatternNode) -> int:
            return sum(
                0 if isinstance(t, Variable) else 1
                for t in (pattern.subject, pattern.predicate, pattern.object)
            )

        return sorted(patterns, key=constants, reverse=True)


_SWITCHED: dict = {}


def _switch(evaluator: QueryEvaluator, operators: type) -> QueryEvaluator:
    for target in (evaluator, *getattr(evaluator, "_locals", ())):
        base = type(target)
        switched = _SWITCHED.get((operators, base))
        if switched is None:
            name = operators.__name__.replace("Operators", "") + base.__name__
            switched = _SWITCHED[(operators, base)] = type(name, (operators, base), {})
        target.__class__ = switched
    return evaluator


def per_row(evaluator: QueryEvaluator) -> QueryEvaluator:
    """Switch ``evaluator`` (and its shard-local evaluators) to the
    per-row operators; returns it."""
    return _switch(evaluator, PerRowOperators)


def naive(evaluator: QueryEvaluator) -> QueryEvaluator:
    """Switch ``evaluator`` (and its shard-local evaluators) to the naive
    nested evaluator; returns it."""
    return _switch(evaluator, NaiveOperators)


def per_row_evaluator(store) -> QueryEvaluator:
    """A :class:`QueryEvaluator` over ``store`` on the per-row operators."""
    return per_row(QueryEvaluator(store))


def naive_evaluator(store) -> QueryEvaluator:
    """A :class:`QueryEvaluator` over ``store`` without the planner."""
    return naive(QueryEvaluator(store))


def patch_per_row(monkeypatch) -> None:
    """Run every evaluator on the per-row operators until ``monkeypatch``
    (pytest's fixture, or any object with its ``setattr``) is undone:
    the members of :class:`PerRowOperators` are set on
    :class:`QueryEvaluator`, which every evaluator a run builds derives
    from."""
    for name, member in vars(PerRowOperators).items():
        if not name.startswith("__"):
            monkeypatch.setattr(QueryEvaluator, name, member, raising=False)
