"""PSQL query execution.

The paper preprocesses PSQL into SQL plus callable spatial operators; we
execute the AST directly against a :class:`~repro.relational.catalog.Database`,
but the moving parts are the same ones the paper names:

- the at-clause drives **direct spatial search** through the picture's
  packed R-tree (window queries, Section 3.1);
- two loc operands trigger **juxtaposition** via a synchronized R-tree
  join (:mod:`repro.rtree.join`);
- a nested ``select`` as an at-operand is a **nested mapping**: the inner
  query binds a set of locations that direct the outer search;
- the where-clause runs conventional predicate evaluation with pictorial
  functions available as "system defined procedures".

MBR semantics: spatial operators compare minimal bounding rectangles, as
R-tree leaf entries do in the paper; when an operand's actual geometry is
a polygon :func:`_refine` additionally applies the exact region test.
"""

from __future__ import annotations

import copy
import operator
import time
from collections import OrderedDict
from itertools import product
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from repro import obs
from repro.geometry.point import Point
from repro.geometry.predicates import OPERATORS
from repro.geometry.rect import Rect
from repro.geometry.region import Region
from repro.geometry.segment import Segment
from repro.psql import ast
from repro.psql.errors import PsqlError, PsqlSemanticError
from repro.psql.functions import AggregateFunction, FunctionRegistry
from repro.psql.parser import parse, parse_statement
from repro.psql.planner import Plan, PlanNode, plan_query
from repro.psql.prepare import PreparedStatement
from repro.psql.result import PictorialObject, QueryResult
from repro.relational.catalog import Database, mbr_of_value
from repro.relational.relation import Column, Relation, RowId
from repro.rtree.join import JoinStats, nested_window_join, spatial_join
from repro.rtree.search import SearchStats

#: One heap row, keyed by column name.
Row = dict[str, Any]
#: One candidate combination of rows: a row of each from-clause relation,
#: in from-clause order.
Binding = tuple[Row, ...]

_FLIP = {"covering": "covered-by", "covered-by": "covering"}
#: The operators :func:`_refine` can sharpen beyond the MBR test.
_REFINED_OPS = frozenset(_FLIP)
_GEOMETRY = (Point, Segment, Region, Rect)
_COMPARISONS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "<>": operator.ne, ">": operator.gt,
    "<": operator.lt, ">=": operator.ge, "<=": operator.le,
}


class Session:
    """A query session against one database.

    Keeps a :class:`FunctionRegistry` so applications can install their
    own pictorial functions once and use them across queries::

        session = Session(db)
        session.functions.register("runway-heading", my_fn)
        result = session.execute("select city from cities ...")

    Every query is planned before it runs (:mod:`repro.psql.planner`);
    plans are cached per ``(query AST, data generation)`` so repeated
    queries skip path enumeration until the data changes.  Prefix a
    query with ``explain`` (or ``explain analyze``) to get the plan
    itself back as a one-column result.
    """

    #: plans kept per session before the oldest is dropped
    PLAN_CACHE_SIZE = 64

    def __init__(self, db: Database):
        self.db = db
        self.functions = FunctionRegistry()
        self._plans: OrderedDict[tuple[ast.Query, int], Plan] = \
            OrderedDict()
        #: Optional :class:`repro.advisor.QueryLog`.  When set (and
        #: enabled) every query run through :meth:`execute` is recorded
        #: with its estimated vs. actual cost; ``None`` (the default)
        #: costs a single attribute test per statement.
        self.query_log: Optional[Any] = None
        #: Prepared statements by id (:meth:`prepare`).
        self._prepared: dict[int, PreparedStatement] = {}
        self._next_statement_id = 1

    def execute(self, text: str) -> QueryResult:
        """Parse and run one PSQL statement (a query or an EXPLAIN)."""
        statement = parse_statement(text)
        if isinstance(statement, ast.Explain):
            return self.explain(statement)
        log = self.query_log
        if log is not None and log.enabled:
            return self._run_logged(text, statement, log)
        return self.run(statement)

    def _run_logged(self, text: str, query: ast.Query,
                    log: Any) -> QueryResult:
        """Run *query* in measure mode and record it in the workload log.

        Measure mode accumulates actual index-node accesses in execution
        locals (never on the shared cached plan, which concurrent
        executions may be reading), so capture piggybacks on the
        EXPLAIN ANALYZE machinery without copying the plan.
        """
        start = time.perf_counter()
        execution = _Execution(self, query, measure=True)
        result = execution.run()
        root = execution.plan.root
        log.record(text,
                   rows=len(result.rows),
                   est_cost=root.est_cost,
                   est_rows=root.est_rows,
                   accesses=execution.accesses,
                   seconds=time.perf_counter() - start)
        return result

    def run(self, query: ast.Query) -> QueryResult:
        """Run an already parsed query."""
        return _Execution(self, query).run()

    def prepare(self, text: str) -> PreparedStatement:
        """Register a ``?``-placeholder template for later execution.

        The template is split (not parsed — a bare ``?`` is not valid
        PSQL) now; each :meth:`execute_prepared` splices parameters in,
        parses once per distinct parameter set, and rides the session's
        ordinary plan cache keyed on the parsed AST.
        """
        statement = PreparedStatement(text, self._next_statement_id)
        self._next_statement_id += 1
        self._prepared[statement.statement_id] = statement
        return statement

    def prepared(self, statement_id: int) -> PreparedStatement:
        """Look up a prepared statement by id.

        Raises:
            PsqlError: for an unknown id.
        """
        try:
            return self._prepared[statement_id]
        except KeyError:
            raise PsqlError(
                f"unknown prepared statement {statement_id}") from None

    def execute_prepared(self, statement_id: int,
                         params: Sequence[str]) -> QueryResult:
        """Bind *params* into a prepared statement and run it.

        Equivalent to ``execute(template with params spliced in)`` —
        same results, same workload-log capture — minus the per-call
        lexer/parser cost once a parameter set has been seen.
        """
        stmt = self.prepared(statement_id)
        statement, text = stmt.bind(tuple(params))
        if isinstance(statement, ast.Explain):
            return self.explain(statement)
        log = self.query_log
        if log is not None and log.enabled:
            return self._run_logged(text, statement, log)
        return self.run(statement)

    def plan(self, query: ast.Query) -> Plan:
        """The (cached) plan for *query* at the current data generation."""
        key = (query, self.db.generation)
        cached = self._plans.get(key)
        if cached is not None:
            self._plans.move_to_end(key)
            if obs.ENABLED:
                obs.active().bump("psql.plan.cache_hits")
            return cached
        plan = plan_query(self.db, query)
        if obs.ENABLED:
            obs.active().bump("psql.plan.cache_misses")
        self._plans[key] = plan
        while len(self._plans) > self.PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return plan

    def explain(self, statement: ast.Explain) -> QueryResult:
        """Render (and for ANALYZE also run) the plan of a statement.

        The result has a single ``plan`` column with one row per plan
        line, so EXPLAIN output travels through every existing result
        channel — the REPL, the wire protocol, the server cache —
        unchanged.
        """
        plan = self.plan(statement.query)
        if statement.analyze:
            # Annotate a private copy: the cached plan must stay clean
            # for concurrent executions of the same query.
            plan = copy.deepcopy(plan)
            _Execution(self, statement.query, plan=plan,
                       annotate=True).run()
        result = QueryResult(columns=("plan",))
        result.rows = [(line,)
                       for line in plan.format(analyze=statement.analyze)]
        return result

    def explain_stats(self, text: str,
                      trace_tail: int = 12) -> tuple[QueryResult, str]:
        """Run one query under an isolated observability scope.

        Returns the :class:`QueryResult` plus a formatted report of every
        counter, timer and trace event the query produced — the payload
        behind the REPL's ``EXPLAIN STATS`` prefix.  Instrumentation is
        force-enabled for the duration of the query only; records still
        forward to any enclosing registry, so global totals (when the
        application keeps them) stay consistent.
        """
        query = parse(text)
        with obs.scope(enable=True) as registry:
            result = self.run(query)
        return result, registry.report(trace_tail=trace_tail)


def execute(db: Database, text: str) -> QueryResult:
    """One-shot convenience: ``Session(db).execute(text)``."""
    return Session(db).execute(text)


class _SelectItem(NamedTuple):
    """One select-list item, resolved against the from-clause schemas."""

    label: str
    #: the item's value for a binding (an aggregate's: its argument's)
    get: Callable[[Binding], Any]
    #: the set-valued function folding a group's values, or None
    aggregate: Optional[AggregateFunction]
    #: ``(binding slot, column name)`` when the item is a plain column
    #: reference, which projects through ``operator.itemgetter``
    column: Optional[tuple[int, str]]
    #: False when the schema proves the item never yields a geometry (an
    #: alphanumeric column, a constant); True for a pictorial column and
    #: for function results, whose type is only known at runtime
    pictorial: bool


class _Execution:
    """State for executing a single query along its plan.

    The plan (built by :mod:`repro.psql.planner`, usually via the
    session's plan cache) decides every access path; execution dispatches
    on plan-node kinds instead of re-deriving the decisions.  With
    ``annotate=True`` each executed node additionally records its actual
    row count and index-node accesses — the ``EXPLAIN ANALYZE`` payload.

    Column references, function names and comparison operators are
    resolved against the from-clause schemas once, here, into closures
    over a :data:`Binding`; the per-row work of :meth:`run` is calling
    them.  A query naming an unknown or ambiguous column therefore fails
    whether or not any row qualifies.
    """

    def __init__(self, session: Session, query: ast.Query,
                 plan: Optional[Plan] = None, annotate: bool = False,
                 measure: bool = False):
        self.session = session
        self.db = session.db
        self.query = query
        self.annotate = annotate
        # annotate implies measure: ANALYZE wants the same actual-access
        # numbers, it just also writes them onto its private plan copy.
        self.measure = annotate or measure
        #: Actual access-path node/page touches, accumulated in measure
        #: mode only — never written to (shared, cached) plan nodes.
        self.accesses = 0
        self.relations: dict[str, Relation] = {}
        for name in query.relations:
            if not self.db.has_relation(name):
                raise PsqlSemanticError(f"unknown relation {name!r}")
            self.relations[name] = self.db.relation(name)
        for pic in query.pictures:
            if not self.db.has_picture(pic):
                raise PsqlSemanticError(f"unknown picture {pic!r}")
        self.plan = plan if plan is not None else session.plan(query)
        self.window: Optional[Rect] = None
        #: where each relation's row sits in a binding
        self._slots = {name: i for i, name in enumerate(query.relations)}
        self._select = self._resolve_select()
        self._where = (None if query.where is None
                       else self._predicate(query.where))

    # -- top level ------------------------------------------------------------

    def run(self) -> QueryResult:
        with obs.timer("psql.execute"):
            bindings = self._bindings_from_indexes()
            if bindings is None:
                bindings = self._bindings_from_at()
            if self._where is not None:
                candidates = len(bindings)
                bindings = list(filter(self._where, bindings))
                if obs.ENABLED:
                    reg = obs.active()
                    reg.bump("psql.where.rows_in", candidates)
                    reg.bump("psql.where.rows_out", len(bindings))
                if self.annotate and self.plan.filter is not None:
                    self.plan.filter.actual_rows = len(bindings)
            result = self._project(bindings)
            if self.annotate:
                self.plan.root.actual_rows = len(result.rows)
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.queries")
            reg.bump("psql.rows_returned", len(result.rows))
        return result

    def _bindings_from_indexes(self) -> Optional[list[Binding]]:
        """Execute a B-tree access path, when the plan chose one.

        The paper indexes alphanumeric columns "the usual way" (B-trees);
        when a single-relation query has no at-clause but its where
        contains a sargable conjunct on an indexed column, the planner
        seeds the bindings from the index instead of a full scan.  The
        full where is re-checked afterwards, so this is purely an
        access-path optimisation.
        """
        node = self.plan.access
        if node.kind == "seq-scan":
            if obs.ENABLED:
                obs.active().bump("psql.plan.relation_scan")
                obs.trace("psql.plan", path="scan",
                          relation=node.props["relation"],
                          reason="no sargable indexed conjunct")
            return None
        if node.kind != "index-scan":
            return None
        relation = self.relations[node.props["relation"]]
        column = node.props["column"]
        op = node.props["op"]
        value = node.props["value"]
        index = relation.index_on(column)
        assert index is not None
        if op == "=":
            rows = relation.lookup(column, value)
        elif op in (">", ">="):
            rows = [(rid, relation.get(rid))
                    for _key, rid in index.range(value, None)]
        else:  # < or <=
            rows = [(rid, relation.get(rid))
                    for _key, rid in index.range(None, value)]
        # Half-open index ranges over- or under-approximate the strict
        # operators; the re-checked where-clause makes the result exact,
        # but a '<=' scan must include the boundary key itself.
        if op == "<=":
            rows += relation.lookup(column, value)
        # (the two '<=' probes can meet a row twice: one binding per rid)
        bindings: list[Binding] = [(row,) for row in dict(rows).values()]
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.index_scan")
            reg.bump("psql.index.rows_seeded", len(bindings))
            reg.trace("psql.plan", path="index", relation=relation.name,
                      column=column, op=op, rows=len(bindings))
        if self.measure:
            self.accesses += len(rows)
        if self.annotate:
            node.actual_rows = len(bindings)
            node.actual_accesses = len(rows)
        return bindings

    # -- at-clause evaluation ------------------------------------------------------

    def _bindings_from_at(self) -> list[Binding]:
        node = self.plan.access
        if node.kind in ("cross-product", "seq-scan"):
            bindings = self._cross_product(self.query.relations)
            if obs.ENABLED:
                obs.active().bump("psql.plan.cross_product")
                obs.active().bump("psql.at.rows_out", len(bindings))
                obs.trace("psql.plan", path="cross-product",
                          relations=list(self.query.relations),
                          rows=len(bindings))
            if self.measure:
                self.accesses += len(bindings)
            if self.annotate:
                node.actual_rows = len(bindings)
                node.actual_accesses = len(bindings)
            return bindings

        extend = None
        if node.kind == "extend-cross":
            extend = node
            node = node.children[0]
        if node.kind == "spatial-join":
            names = tuple(node.props["relations"])
            bindings = self._juxtaposition(node)
        else:
            names = (node.props["relation"],)
            if node.kind == "rtree-window":
                rows = self._window_search(node)
            elif node.kind == "spatial-filter-scan":
                rows = self._spatial_filter_scan(node)
            else:
                assert node.kind == "nested-mapping", node.kind
                rows = self._nested_mapping(node)
            bindings = [(row,) for row in rows]
        if extend is not None:
            others = extend.props["relations"]
            names += tuple(others)
            extra = self._cross_product(others)
            bindings = [b + e for b in bindings for e in extra]
            if self.annotate:
                extend.actual_rows = len(bindings)
        # The access path put the at-clause's relations first; bindings
        # are addressed in from-clause order.
        order = [names.index(name) for name in self.query.relations]
        if order != sorted(order):
            bindings = list(map(operator.itemgetter(*order), bindings))
        return bindings

    # -- case 1: direct spatial search against a window ------------------------------

    def _window_search(self, node: PlanNode) -> list[Row]:
        relation = self.relations[node.props["relation"]]
        column = node.props["column"]
        op = node.props["op"]
        window: Rect = node.props["window"]
        self.window = window
        tree = self.db.picture(node.props["picture"]).index(relation.name,
                                                            column)
        stats = SearchStats() if self.measure else None
        rids = self._search_op(tree, op, window, relation, column,
                               stats=stats)
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.direct_spatial_search")
            reg.bump("psql.at.rows_out", len(rids))
            reg.trace("psql.plan", path="direct-spatial-search",
                      relation=relation.name, op=op, rows=len(rids))
        if stats is not None and stats.nodes_visited:
            # The disjoined complement also enumerates every heap
            # rid, so those reads count against the access path.
            extra = len(relation) if op == "disjoined" else 0
            self.accesses += stats.nodes_visited + extra
            if self.annotate:
                node.actual_accesses = stats.nodes_visited + extra
        if self.annotate:
            node.actual_rows = len(rids)
        return [relation.get(rid) for rid in rids]

    def _spatial_filter_scan(self, node: PlanNode) -> list[Row]:
        """MBR-test every tuple of the relation — no index involved.

        The planner only picks this when reading the whole heap beats
        the R-tree (essentially: ``disjoined`` with a large window,
        where the complement search touches most nodes *and* most rows).
        """
        relation = self.relations[node.props["relation"]]
        column = node.props["column"]
        op = node.props["op"]
        window: Rect = node.props["window"]
        self.window = window
        rows = [row for _rid, row in relation.rows()
                if _window_op(op, mbr_of_value(row[column]), window)]
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.spatial_filter_scan")
            reg.bump("psql.at.rows_out", len(rows))
            reg.trace("psql.plan", path="spatial-filter-scan",
                      relation=relation.name, op=op, rows=len(rows))
        if self.measure:
            self.accesses += len(relation)
        if self.annotate:
            node.actual_rows = len(rows)
            node.actual_accesses = len(relation)
        return rows

    def _search_op(self, tree: Any, op: str, window: Rect,
                   relation: Relation, column: str,
                   stats: Optional[SearchStats] = None) -> list[RowId]:
        """Translate a spatial operator into R-tree searches + refinement."""
        # Both tree forms accept the stats recorder; disk trees report
        # page touches through it.
        kwargs = {"stats": stats} if stats is not None else {}
        if op == "covered-by":
            rids = tree.search_within(window, **kwargs)
        elif op == "intersecting":
            rids = tree.search(window, **kwargs)
        elif op == "overlapping":
            rids = [rid for rid in tree.search(window, **kwargs)
                    if mbr_of_value(relation.get(rid)[column])
                    .overlaps_interior(window)]
        elif op == "covering":
            rids = [rid for rid in tree.search(window, **kwargs)
                    if mbr_of_value(relation.get(rid)[column])
                    .contains(window)]
        elif op == "disjoined":
            hit = set(tree.search(window, **kwargs))
            rids = [rid for rid, _row in relation.rows() if rid not in hit]
        else:  # pragma: no cover - the parser validates operator names
            raise PsqlSemanticError(f"unknown spatial operator {op!r}")
        return rids

    # -- case 2: juxtaposition ("geographic join") --------------------------------------

    def _juxtaposition(self, node: PlanNode) -> list[Binding]:
        """Qualifying (left row, right row) pairs, at-clause order."""
        name_l, name_r = node.props["relations"]
        col_l, col_r = node.props["columns"]
        pic_l, pic_r = node.props["pictures"]
        op = node.props["op"]
        rel_l = self.relations[name_l]
        rel_r = self.relations[name_r]
        tree_l = self.db.picture(pic_l).index(name_l, col_l)
        tree_r = self.db.picture(pic_r).index(name_r, col_r)
        stats = JoinStats() if self.measure else None

        if node.props["strategy"] == "lockstep-complement":
            # Complement of the intersecting join: no lockstep pruning is
            # possible, so qualify every non-intersecting pair.
            intersecting = set(spatial_join(tree_l, tree_r, Rect.intersects,
                                            stats=stats))
            bindings = [(row_l, row_r)
                        for ra, row_l in rel_l.rows()
                        for rb, row_r in rel_r.rows()
                        if (ra, rb) not in intersecting]
        else:
            if node.props.get("outer") == "right":
                pairs = nested_window_join(tree_r, tree_l,
                                           OPERATORS[_FLIP.get(op, op)],
                                           stats=stats)
                rids_r, rids_l = zip(*pairs) if pairs else ((), ())
            else:
                join = (nested_window_join
                        if node.props["strategy"] == "nested"
                        else spatial_join)
                pairs = join(tree_l, tree_r, OPERATORS[op], stats=stats)
                rids_l, rids_r = zip(*pairs) if pairs else ((), ())
            # One heap fetch per distinct row, however many pairs it is in.
            ids_l, ids_r = set(rids_l), set(rids_r)
            rows_l = dict(zip(ids_l, rel_l.get_many(ids_l)))
            rows_r = dict(zip(ids_r, rel_r.get_many(ids_r)))
            bindings = list(zip(map(rows_l.__getitem__, rids_l),
                                map(rows_r.__getitem__, rids_r)))
            if op in _REFINED_OPS:
                bindings = [b for b in bindings
                            if _refine(op, b[0][col_l], b[1][col_r])]
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.juxtaposition")
            reg.bump("psql.at.rows_out", len(bindings))
            reg.trace("psql.plan", path="juxtaposition",
                      relations=[name_l, name_r], op=op,
                      strategy=node.props["strategy"], pairs=len(bindings))
        if stats is not None:
            self.accesses += stats.nodes_accessed
        if self.annotate:
            node.actual_rows = len(bindings)
            if stats is not None:
                node.actual_accesses = stats.nodes_accessed
        return bindings

    # -- case 3: nested mapping -------------------------------------------------------

    def _nested_mapping(self, node: PlanNode) -> list[Row]:
        inner_plan: Plan = node.props["_inner_plan"]
        inner_exec = _Execution(self.session, inner_plan.query,
                                plan=inner_plan, annotate=self.annotate,
                                measure=self.measure)
        inner = inner_exec.run()
        if self.measure:
            self.accesses += inner_exec.accesses
        inner_locs = _location_column(inner_exec._select, inner)
        relation = self.relations[node.props["relation"]]
        column = node.props["column"]
        op = node.props["op"]
        tree = self.db.picture(node.props["picture"]).index(relation.name,
                                                            column)
        stats = SearchStats() if self.measure else None
        refined = op in _REFINED_OPS
        found: dict[RowId, Row] = {}
        for value in inner_locs:
            window = mbr_of_value(value)
            for rid in self._search_op(tree, op, window, relation, column,
                                       stats=stats):
                if rid not in found:
                    row = relation.get(rid)
                    if not refined or _refine(op, row[column], value):
                        found[rid] = row
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.nested_mapping")
            reg.bump("psql.at.rows_out", len(found))
            reg.trace("psql.plan", path="nested-mapping",
                      relation=relation.name, op=op,
                      inner_locations=len(inner_locs), rows=len(found))
        if stats is not None and stats.nodes_visited:
            self.accesses += stats.nodes_visited
        if self.annotate:
            node.actual_rows = len(found)
            if stats is not None and stats.nodes_visited:
                node.actual_accesses = stats.nodes_visited
        return [found[rid] for rid in sorted(found)]

    # -- helpers ------------------------------------------------------------------------

    def _cross_product(self, names: Iterable[str]) -> list[Binding]:
        """Every combination of the named relations' rows, first name
        outermost."""
        return list(product(*([row for _rid, row
                               in self.relations[name].rows()]
                              for name in names)))

    # -- resolving names, once per execution -------------------------------------------

    def _resolve_column(self, ref: ast.ColumnRef) -> tuple[int, Column]:
        """The binding slot and schema column *ref* addresses."""
        if ref.relation is not None:
            relation = self.relations.get(ref.relation)
            if relation is None:
                raise PsqlSemanticError(
                    f"{ref.relation!r} is not in the from-clause")
            if not relation.has_column(ref.column):
                raise PsqlSemanticError(
                    f"{ref.relation!r} has no column {ref.column!r}")
        else:
            holders = [rel for rel in self.relations.values()
                       if rel.has_column(ref.column)]
            if not holders:
                raise PsqlSemanticError(f"unknown column {ref.column!r}")
            if len(holders) > 1:
                names = sorted(rel.name for rel in holders)
                raise PsqlSemanticError(
                    f"column {ref.column!r} is ambiguous between "
                    f"{' and '.join(names)}")
            relation = holders[0]
        return self._slots[relation.name], relation.column(ref.column)

    def _getter(self, expr: ast.Expression) -> Callable[[Binding], Any]:
        """*expr* as a function of one binding."""
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda _binding: value
        if isinstance(expr, ast.ColumnRef):
            slot, column = self._resolve_column(expr)
            name = column.name
            return lambda binding: binding[slot][name]
        if isinstance(expr, ast.FunctionCall):
            fn = self.session.functions.lookup(expr.name)
            args = [self._getter(a) for a in expr.args]
            return lambda binding: fn(*[arg(binding) for arg in args])
        raise PsqlSemanticError(f"cannot evaluate {expr!r}")

    def _predicate(self, cond: ast.Condition) -> Callable[[Binding], bool]:
        """*cond* as a truth function of one binding."""
        if isinstance(cond, ast.Not):
            operand = self._predicate(cond.operand)
            return lambda binding: not operand(binding)
        if isinstance(cond, (ast.And, ast.Or)):
            first = self._predicate(cond.left)
            second = self._predicate(cond.right)
            if isinstance(cond, ast.And):
                return lambda binding: first(binding) and second(binding)
            return lambda binding: first(binding) or second(binding)
        assert isinstance(cond, ast.Comparison)
        op = cond.op
        compare = _COMPARISONS.get(op)
        if compare is None:
            raise PsqlSemanticError(f"unknown comparison operator {op!r}")
        left = self._getter(cond.left)
        right = self._getter(cond.right)

        def holds(binding: Binding) -> bool:
            a, b = left(binding), right(binding)
            try:
                return bool(compare(a, b))
            except TypeError as exc:
                raise PsqlSemanticError(
                    f"cannot compare {type(a).__name__} with "
                    f"{type(b).__name__} using {op!r}") from exc

        return holds

    def _resolve_select(self) -> list[_SelectItem]:
        """The select list, ``*`` expanded, every name resolved.

        When the list contains aggregates (Section 2.1's set-valued
        functions) the plain columns act as grouping keys and each
        aggregate is evaluated over its argument's values across the
        group — e.g. ``select hwy-name, northest(loc) from highways``
        yields the northernmost coordinate of each whole highway.
        """
        functions = self.session.functions

        def is_aggregate(expr: ast.Expression) -> bool:
            return (isinstance(expr, ast.FunctionCall)
                    and functions.is_aggregate(expr.name))

        expanded = self._expand_select()
        grouped = any(is_aggregate(expr) for _label, expr in expanded)
        items = []
        for label, expr in expanded:
            aggregate = column = None
            pictorial = True     # a function's result: known at runtime
            if is_aggregate(expr):
                if len(expr.args) != 1:
                    raise PsqlSemanticError(
                        f"aggregate {expr.name}() takes exactly one "
                        f"argument")
                aggregate = functions.lookup_aggregate(expr.name)
                (expr,) = expr.args
            elif isinstance(expr, ast.ColumnRef):
                slot, col = self._resolve_column(expr)
                pictorial = col.is_pictorial
                column = (slot, col.name)
            elif grouped:
                raise PsqlSemanticError(
                    f"select item {label!r} must be a plain column when "
                    f"aggregates are present (it becomes the group key)")
            elif not isinstance(expr, ast.FunctionCall):
                pictorial = False
            items.append(_SelectItem(label, self._getter(expr), aggregate,
                                     column, pictorial))
        return items

    def _expand_select(self) -> list[tuple[str, ast.Expression]]:
        multi = len(self.query.relations) > 1
        items: list[tuple[str, ast.Expression]] = []
        for sel in self.query.select:
            if isinstance(sel, ast.Star):
                for name in self.query.relations:
                    for col in self.relations[name].columns:
                        label = f"{name}.{col.name}" if multi else col.name
                        items.append((label,
                                      ast.ColumnRef(column=col.name,
                                                    relation=name)))
            else:
                items.append((str(sel), sel))
        return items

    # -- projection -------------------------------------------------------------------

    def _project(self, bindings: list[Binding]) -> QueryResult:
        items = self._select
        result = QueryResult(columns=tuple(item.label for item in items),
                             window=self.window)
        if any(item.aggregate for item in items):
            result.rows = self._grouped_rows(bindings)
        else:
            # Column at a time; a plain column at C level.
            result.rows = list(zip(*[
                list(map(operator.itemgetter(item.column[1]),
                         map(operator.itemgetter(item.column[0]), bindings)))
                if item.column else list(map(item.get, bindings))
                for item in items]))
        # Send selected geometries to the graphical output channel.
        pictorial = [i for i, item in enumerate(items) if item.pictorial]
        if pictorial:
            for row in result.rows:
                label = _row_label(row)
                for i in pictorial:
                    if isinstance(row[i], _GEOMETRY):
                        result.pictorial.append(
                            PictorialObject(label=label, geometry=row[i]))
        return result

    def _grouped_rows(self, bindings: list[Binding]) -> list[tuple]:
        """One row per distinct group key, in first-seen order."""
        items = self._select
        keys = [item.get for item in items if item.aggregate is None]
        groups: dict[tuple, list[Binding]] = {}
        for binding in bindings:
            groups.setdefault(tuple([get(binding) for get in keys]),
                              []).append(binding)
        rows = []
        for key, members in groups.items():
            key_values = iter(key)
            rows.append(tuple([
                next(key_values) if item.aggregate is None
                else item.aggregate([item.get(b) for b in members])
                for item in items]))
        return rows


def _refine(op: str, left_value: Any, right_value: Any) -> bool:
    """Exact region tests where geometry allows; MBR semantics otherwise.

    Only the :data:`_REFINED_OPS` can be refined; callers skip the call
    for every other operator.
    """
    if op == "covered-by" and isinstance(right_value, Region):
        if isinstance(left_value, Point):
            return right_value.contains_point(left_value)
        return right_value.contains_rect(mbr_of_value(left_value))
    if op == "covering" and isinstance(left_value, Region):
        if isinstance(right_value, Point):
            return left_value.contains_point(right_value)
        return left_value.contains_rect(mbr_of_value(right_value))
    return True


def _window_op(op: str, mbr: Rect, window: Rect) -> bool:
    """The scan-side twin of ``_search_op``: same MBR semantics, no tree."""
    if op == "covered-by":
        return window.contains(mbr)
    if op == "intersecting":
        return mbr.intersects(window)
    if op == "overlapping":
        return mbr.overlaps_interior(window)
    if op == "covering":
        return mbr.contains(window)
    if op == "disjoined":
        return not mbr.intersects(window)
    raise PsqlSemanticError(f"unknown spatial operator {op!r}")


def _row_label(row: tuple[Any, ...]) -> str:
    for value in row:
        if isinstance(value, str):
            return value
    return str(row[0]) if row else "(unnamed)"


def _location_column(items: list[_SelectItem],
                     result: QueryResult) -> list[Any]:
    """The pictorial values an inner (nested) mapping produced.

    The inner query must expose exactly one pictorial column; that column
    becomes the location binding of the outer mapping.  Only the items
    the schema does not rule out are inspected.  An *empty* inner result
    whose select list could have produced a geometry is a legitimately
    empty location set, not a semantic error.
    """
    candidates = [i for i, item in enumerate(items) if item.pictorial]
    found = {i for row in result.rows for i in candidates
             if isinstance(row[i], _GEOMETRY)}
    if len(found) > 1:
        raise PsqlSemanticError(
            "the nested mapping selects more than one pictorial column")
    if not found:
        if candidates and not result.rows:
            return []
        raise PsqlSemanticError(
            "the nested mapping selects no pictorial column to bind")
    (idx,) = found
    return [row[idx] for row in result.rows]
