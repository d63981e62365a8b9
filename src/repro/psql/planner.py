"""Cost-based planning for PSQL queries.

The executor used to choose its access path inline while running; this
module splits that decision out.  :func:`plan_query` enumerates the
access paths a query admits — heap scan, a B-tree probe for each
sargable conjunct, the R-tree window / join / nested-mapping paths for
at-clauses — costs each one, and emits a structured :class:`Plan` tree
the executor then follows verbatim.  ``EXPLAIN`` renders the same tree;
``EXPLAIN ANALYZE`` runs it and annotates every node with the rows and
node accesses it actually produced.

The cost unit is *accesses*: one page/node read or one tuple
materialisation counts 1.  Spatial estimates come from the catalog's
:meth:`~repro.relational.catalog.Database.index_summary` statistics
(per-level MBR aggregates, Section 3.1's coverage argument turned into
numbers); alphanumeric selectivities use the classic System-R constants
(``SEL_EQ``/``SEL_RANGE``) since relations keep no value histograms.

Plans are deterministic functions of ``(query AST, data generation)``;
:class:`~repro.psql.executor.Session` caches them under exactly that
key.  Named locations resolve at plan time, so redefining a location
without touching stored data can leave a stale cached plan — bump the
generation when that matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import obs
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.psql import ast
from repro.psql.errors import PsqlSemanticError
from repro.relational.catalog import Database
from repro.relational.relation import Relation
from repro.rtree.stats import IndexSummary, LevelAgg

__all__ = ["Plan", "PlanNode", "merge_shard_plans", "plan_query",
           "sargable_conjuncts", "SEL_EQ", "SEL_RANGE", "SEL_NEQ"]

#: selectivity of ``column = literal`` without histograms (System R)
SEL_EQ = 0.1
#: selectivity of a range comparison (System R's 1/3)
SEL_RANGE = 0.33
#: selectivity of ``column <> literal``
SEL_NEQ = 1.0 - SEL_EQ

_FLIP = {"covering": "covered-by", "covered-by": "covering"}


@dataclass
class PlanNode:
    """One operator of a plan tree.

    ``est_cost``/``est_rows`` are the planner's estimates;
    ``actual_rows``/``actual_accesses`` stay ``None`` until an
    ``EXPLAIN ANALYZE`` execution fills them in.  ``rejected`` lists the
    losing candidates for this operator's slot as ``(label, est_cost)``.
    """

    kind: str
    label: str
    est_cost: float
    est_rows: float
    props: dict[str, Any] = field(default_factory=dict)
    children: list["PlanNode"] = field(default_factory=list)
    rejected: list[tuple[str, float]] = field(default_factory=list)
    actual_rows: Optional[int] = None
    actual_accesses: Optional[int] = None


@dataclass
class Plan:
    """The plan for one query: the node tree plus direct operator refs.

    ``root`` is the projection; ``filter`` the where-clause node (when
    one exists); ``access`` the access-path node the executor dispatches
    on.  All three alias nodes inside ``root``'s tree.
    """

    root: PlanNode
    access: PlanNode
    query: ast.Query
    generation: int
    filter: Optional[PlanNode] = None

    def format(self, analyze: bool = False) -> list[str]:
        """Render the plan as indented ASCII text lines."""
        lines: list[str] = []
        self._format_node(self.root, 0, lines, analyze, top=True)
        return lines

    def _format_node(self, node: PlanNode, depth: int, lines: list[str],
                     analyze: bool, top: bool = False) -> None:
        indent = "  " * depth
        arrow = "" if top else "-> "
        text = (f"{indent}{arrow}{node.label} "
                f"(cost={node.est_cost:.1f} rows={node.est_rows:.1f})")
        if analyze:
            actual_rows = ("?" if node.actual_rows is None
                           else str(node.actual_rows))
            accesses = ("-" if node.actual_accesses is None
                        else str(node.actual_accesses))
            text += f" (actual rows={actual_rows} accesses={accesses})"
        lines.append(text)
        for label, cost in node.rejected:
            lines.append(f"{indent}   rejected: {label} (cost={cost:.1f})")
        for child in node.children:
            self._format_node(child, depth + 1, lines, analyze)


def plan_query(db: Database, query: ast.Query,
               force: Optional[str] = None) -> Plan:
    """Plan one query against the current database state.

    Args:
        db: the catalog the query runs against.
        query: a parsed (and relation/picture-validated) query.
        force: pick the candidate access path whose ``path`` property
            equals this instead of the cheapest one — lets tests and
            benchmarks execute a *rejected* path and measure it.

    Raises:
        PsqlSemanticError: for at-clauses the executor could not run
            either (unresolvable loc refs, missing picture indexes,
            unsupported operand combinations).
        ValueError: when *force* matches no enumerated candidate.
    """
    relations = {name: db.relation(name) for name in query.relations}
    access = _plan_access(db, query, relations, force)
    node = access
    filter_node = None
    if query.where is not None:
        sel = _selectivity(query.where)
        filter_node = PlanNode(
            kind="filter",
            label=f"filter [{_cond_text(query.where)}]",
            est_cost=access.est_cost + access.est_rows,
            est_rows=access.est_rows * sel,
            children=[access])
        node = filter_node
    root = PlanNode(
        kind="project",
        label=f"project [{', '.join(str(s) for s in query.select)}]",
        est_cost=node.est_cost + node.est_rows,
        est_rows=node.est_rows,
        children=[node])
    if obs.ENABLED:
        obs.active().bump("psql.plan.built")
        obs.trace("psql.plan.build", access=access.kind,
                  cost=round(root.est_cost, 1),
                  rows=round(root.est_rows, 1))
    return Plan(root=root, access=access, query=query,
                generation=db.generation, filter=filter_node)


# -- access-path enumeration -------------------------------------------------


def _plan_access(db: Database, query: ast.Query,
                 relations: dict[str, Relation],
                 force: Optional[str]) -> PlanNode:
    if query.at is not None:
        return _plan_at(db, query, relations, force)
    if len(relations) == 1 and query.where is not None:
        relation = relations[query.relations[0]]
        return _plan_single_relation(relation, query.where, force)
    total = 1.0
    for relation in relations.values():
        total *= max(1, len(relation))
    return PlanNode(
        kind="cross-product",
        label=f"cross-product [{', '.join(query.relations)}]",
        est_cost=total, est_rows=total,
        props={"path": "cross-product",
               "relations": list(query.relations)})


def _plan_single_relation(relation: Relation, where: ast.Condition,
                          force: Optional[str]) -> PlanNode:
    """Index probe per sargable conjunct vs. a sequential scan."""
    n = len(relation)
    candidates = [PlanNode(
        kind="seq-scan",
        label=f"seq-scan {relation.name}",
        est_cost=float(n), est_rows=float(n),
        props={"path": "seq-scan", "relation": relation.name})]
    for column, op, value in sargable_conjuncts(where, relation):
        sel = SEL_EQ if op == "=" else SEL_RANGE
        candidates.append(PlanNode(
            kind="index-scan",
            label=f"index-scan {relation.name}.{column} {op} {value!r}",
            est_cost=math.log2(n + 1) + sel * n,
            est_rows=sel * n,
            props={"path": f"index:{column}:{op}",
                   "relation": relation.name, "column": column,
                   "op": op, "value": value}))
    return _choose(candidates, force)


def sargable_conjuncts(cond: ast.Condition, relation: Relation,
                       ) -> list[tuple[str, str, Any]]:
    """Every ``indexed-column <op> literal`` conjunct of *cond*, in
    syntactic order.

    Normalises literal-on-the-left comparisons (``5 < col`` becomes
    ``col > 5``); rejects ``<>`` (a B-tree cannot serve an inequality),
    columns qualified with a different relation, unknown columns and
    columns without an index.  Disjunctions contribute nothing: an index
    probe on one arm of an ``or`` would drop the other arm's rows.
    """
    if isinstance(cond, ast.And):
        return (sargable_conjuncts(cond.left, relation)
                + sargable_conjuncts(cond.right, relation))
    if not isinstance(cond, ast.Comparison):
        return []
    left, op, right = cond.left, cond.op, cond.right
    flip = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "="}
    if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
        left, right = right, left
        op = flip.get(op, op)
    if not (isinstance(left, ast.ColumnRef)
            and isinstance(right, ast.Literal)):
        return []
    if op not in flip:
        return []
    if left.relation not in (None, relation.name):
        return []
    if not relation.has_column(left.column):
        return []
    if relation.index_on(left.column) is None:
        return []
    return [(left.column, op, right.value)]


# -- at-clause planning ------------------------------------------------------


def _plan_at(db: Database, query: ast.Query,
             relations: dict[str, Relation],
             force: Optional[str]) -> PlanNode:
    at = query.at
    assert at is not None
    left = _resolve_named_location(db, at.left, relations)
    right = _resolve_named_location(db, at.right, relations)
    op = at.op
    # Normalise: keep a LocRef on the left where possible.
    if isinstance(left, ast.WindowLiteral) and isinstance(right, ast.LocRef):
        left, right = right, left
        op = _FLIP.get(op, op)
    if isinstance(left, ast.SubquerySpec) and isinstance(right, ast.LocRef):
        left, right = right, left
        op = _FLIP.get(op, op)

    if isinstance(left, ast.LocRef) and isinstance(right,
                                                   ast.WindowLiteral):
        node = _plan_window(db, query, relations, left, op, right, force)
        used = (left.relation or _loc_relation(left, relations).name,)
    elif isinstance(left, ast.LocRef) and isinstance(right, ast.LocRef):
        node = _plan_juxtaposition(db, query, relations, left, op, right,
                                   force)
        used = tuple(node.props["relations"])
    elif isinstance(left, ast.LocRef) and isinstance(right,
                                                     ast.SubquerySpec):
        node = _plan_nested_mapping(db, query, relations, left, op, right)
        used = (node.props["relation"],)
    else:
        raise PsqlSemanticError(
            "unsupported at-clause operand combination "
            f"({type(at.left).__name__} {op} {type(at.right).__name__})")

    others = [r for r in query.relations if r not in used]
    if not others:
        return node
    factor = 1.0
    for name in others:
        factor *= max(1, len(relations[name]))
    return PlanNode(
        kind="extend-cross",
        label=f"extend-cross [{', '.join(others)}]",
        est_cost=node.est_cost + node.est_rows * factor,
        est_rows=node.est_rows * factor,
        props={"relations": others},
        children=[node])


def _plan_window(db: Database, query: ast.Query,
                 relations: dict[str, Relation], loc: ast.LocRef, op: str,
                 window_lit: ast.WindowLiteral,
                 force: Optional[str]) -> PlanNode:
    relation = _loc_relation(loc, relations)
    picture = _picture_for(db, query, relation.name, loc.column)
    summary = db.index_summary(picture, relation.name, loc.column)
    window = Rect.from_center(Point(window_lit.cx, window_lit.cy),
                              window_lit.dx, window_lit.dy)
    n = len(relation)
    accesses = summary.window_accesses(window)
    matching = summary.matching_entries(window)
    rows = _window_rows(op, matching, n)
    # The R-tree path reads `accesses` nodes plus one tuple per match;
    # disjoined additionally scans the relation for the complement.
    rtree_cost = accesses + matching + (n if op == "disjoined" else 0.0)
    base = {"relation": relation.name, "column": loc.column,
            "picture": picture, "op": op, "window": window}
    candidates = [
        PlanNode(
            kind="rtree-window",
            label=(f"rtree-window {picture}/{relation.name}.{loc.column} "
                   f"{op} {_window_text(window_lit)}"),
            est_cost=rtree_cost, est_rows=rows,
            props={"path": "rtree", **base}),
        # A heap scan reads and MBR-tests every tuple: 2 units each.
        PlanNode(
            kind="spatial-filter-scan",
            label=(f"spatial-filter-scan {relation.name}.{loc.column} "
                   f"{op} {_window_text(window_lit)}"),
            est_cost=2.0 * n, est_rows=rows,
            props={"path": "scan", **base}),
    ]
    return _choose(candidates, force)


def _window_rows(op: str, matching: float, n: int) -> float:
    if op == "disjoined":
        return max(0.0, n - matching)
    if op == "covering":
        # Few objects are big enough to contain the whole window.
        return matching * SEL_EQ
    return matching


def _plan_juxtaposition(db: Database, query: ast.Query,
                        relations: dict[str, Relation], left: ast.LocRef,
                        op: str, right: ast.LocRef,
                        force: Optional[str]) -> PlanNode:
    rel_l = _loc_relation(left, relations)
    rel_r = _loc_relation(right, relations)
    if rel_l.name == rel_r.name:
        raise PsqlSemanticError(
            "juxtaposition needs two distinct relations in the at-clause")
    pic_l = _picture_for(db, query, rel_l.name, left.column)
    pic_r = _picture_for(db, query, rel_r.name, right.column)
    sum_l = db.index_summary(pic_l, rel_l.name, left.column)
    sum_r = db.index_summary(pic_r, rel_r.name, right.column)

    area = sum_l.universe.area()
    leaf_pairs = _pair_count(sum_l.leaf, sum_r.leaf, area)
    rows = _join_rows(op, leaf_pairs, sum_l.size, sum_r.size)
    lockstep = _lockstep_cost(sum_l, sum_r)
    base = {"relations": [rel_l.name, rel_r.name],
            "columns": [left.column, right.column],
            "pictures": [pic_l, pic_r], "op": op}
    desc = f"{rel_l.name}.{left.column} {op} {rel_r.name}.{right.column}"
    if op == "disjoined":
        # Complement of the intersecting join; no alternative strategy
        # prunes anything, so there is exactly one candidate.
        return PlanNode(
            kind="spatial-join",
            label=f"spatial-join [lockstep-complement] {desc}",
            est_cost=(lockstep + float(sum_l.size) * float(sum_r.size)
                      + rows),
            est_rows=rows,
            props={"path": "lockstep", "strategy": "lockstep-complement",
                   **base})
    candidates = [PlanNode(
        kind="spatial-join",
        label=f"spatial-join [lockstep] {desc}",
        est_cost=lockstep + rows, est_rows=rows,
        props={"path": "lockstep", "strategy": "lockstep", **base})]
    for outer, sum_o, sum_i in (("left", sum_l, sum_r),
                                ("right", sum_r, sum_l)):
        candidates.append(PlanNode(
            kind="spatial-join",
            label=f"spatial-join [nested outer={outer}] {desc}",
            est_cost=_nested_cost(sum_o, sum_i) + rows,
            est_rows=rows,
            props={"path": f"nested-{outer}", "strategy": "nested",
                   "outer": outer, **base}))
    return _choose(candidates, force)


def _join_rows(op: str, leaf_pairs: float, n_l: int, n_r: int) -> float:
    if op == "disjoined":
        return max(0.0, float(n_l) * float(n_r) - leaf_pairs)
    if op in ("covering", "covered-by"):
        return leaf_pairs * SEL_EQ
    return leaf_pairs


def _pair_count(a: LevelAgg, b: LevelAgg, area: float) -> float:
    """E[intersecting pairs] between two uniformly placed rect sets."""
    if area <= 0.0 or not a.count or not b.count:
        return 0.0
    est = (b.count * a.sum_wh + a.sum_w * b.sum_h
           + b.sum_w * a.sum_h + a.count * b.sum_wh) / area
    return min(float(a.count) * float(b.count), est)


def _lockstep_cost(sl: IndexSummary, sr: IndexSummary) -> float:
    """Node reads of the synchronized descent: 2 per visited pair.

    Levels align from the root; when one tree is shallower its leaf
    level holds while the other keeps descending (what ``_join`` does).
    """
    levels_l: tuple[LevelAgg, ...] = sl.internal + (sl.leaf,)
    levels_r: tuple[LevelAgg, ...] = sr.internal + (sr.leaf,)
    area = sl.universe.area()
    cost = 2.0  # the root pair
    for i in range(max(len(sl.internal), len(sr.internal))):
        agg_l = levels_l[min(i, len(levels_l) - 1)]
        agg_r = levels_r[min(i, len(levels_r) - 1)]
        cost += 2.0 * _pair_count(agg_l, agg_r, area)
    return cost


def _nested_cost(outer: IndexSummary, inner: IndexSummary) -> float:
    """Node reads when *outer*'s leaf entries drive window probes."""
    probes = float(outer.size)
    per_probe = inner.expected_window_accesses(outer.leaf.mean_w,
                                               outer.leaf.mean_h)
    return float(outer.node_count) + probes * per_probe


def _plan_nested_mapping(db: Database, query: ast.Query,
                         relations: dict[str, Relation], loc: ast.LocRef,
                         op: str, sub: ast.SubquerySpec) -> PlanNode:
    relation = _loc_relation(loc, relations)
    picture = _picture_for(db, query, relation.name, loc.column)
    summary = db.index_summary(picture, relation.name, loc.column)
    inner_plan = plan_query(db, sub.query)
    inner_rows = inner_plan.root.est_rows
    # Each inner location probes the outer index with its own MBR; its
    # extent is unknown at plan time, so cost a point probe.
    per_probe = summary.expected_window_accesses(0.0, 0.0)
    matches = summary.leaf.expected_intersecting(0.0, 0.0,
                                                 summary.universe)
    rows = min(float(summary.size), inner_rows * max(matches, 1.0))
    node = PlanNode(
        kind="nested-mapping",
        label=(f"nested-mapping {picture}/{relation.name}.{loc.column} "
               f"{op} (subquery)"),
        est_cost=(inner_plan.root.est_cost
                  + inner_rows * (per_probe + matches) + rows),
        est_rows=rows,
        props={"path": "nested-mapping", "relation": relation.name,
               "column": loc.column, "picture": picture, "op": op,
               "_inner_plan": inner_plan},
        children=[inner_plan.root])
    return node


# -- shared resolution helpers ----------------------------------------------


def _resolve_named_location(db: Database, spec: ast.AreaSpec,
                            relations: dict[str, Relation],
                            ) -> ast.AreaSpec:
    """Turn a LocRef naming a predefined location into a window literal."""
    if not isinstance(spec, ast.LocRef) or spec.relation is not None:
        return spec
    if any(rel.has_column(spec.column) for rel in relations.values()):
        return spec
    if db.has_location(spec.column):
        area = db.location(spec.column)
        cx, cy = area.center()
        return ast.WindowLiteral(cx=cx, dx=area.width / 2.0,
                                 cy=cy, dy=area.height / 2.0)
    return spec


def _loc_relation(loc: ast.LocRef,
                  relations: dict[str, Relation]) -> Relation:
    if loc.relation is not None:
        if loc.relation not in relations:
            raise PsqlSemanticError(
                f"{loc.relation!r} is not in the from-clause")
        return relations[loc.relation]
    candidates = [rel for rel in relations.values()
                  if rel.has_column(loc.column)]
    if not candidates:
        raise PsqlSemanticError(
            f"no relation in the from-clause has column {loc.column!r}")
    if len(candidates) > 1:
        raise PsqlSemanticError(
            f"column {loc.column!r} is ambiguous; qualify it "
            f"(e.g. {candidates[0].name}.{loc.column})")
    return candidates[0]


def _picture_for(db: Database, query: ast.Query, relation_name: str,
                 column: str) -> str:
    if not query.pictures:
        raise PsqlSemanticError(
            "an at-clause requires an on-clause naming the picture(s)")
    for pic_name in query.pictures:
        if db.picture(pic_name).has_index(relation_name, column):
            return pic_name
    raise PsqlSemanticError(
        f"no picture in the on-clause indexes {relation_name}.{column}")


def _choose(candidates: list[PlanNode],
            force: Optional[str]) -> PlanNode:
    if force is not None:
        for cand in candidates:
            if cand.props.get("path") == force:
                chosen = cand
                break
        else:
            raise ValueError(
                f"no candidate path {force!r} among "
                f"{[c.props.get('path') for c in candidates]}")
    else:
        chosen = min(candidates, key=lambda c: c.est_cost)
    chosen.rejected = [(c.label, c.est_cost) for c in candidates
                       if c is not chosen]
    return chosen


# -- estimate helpers --------------------------------------------------------


def _selectivity(cond: ast.Condition) -> float:
    if isinstance(cond, ast.And):
        return _selectivity(cond.left) * _selectivity(cond.right)
    if isinstance(cond, ast.Or):
        s1, s2 = _selectivity(cond.left), _selectivity(cond.right)
        return 1.0 - (1.0 - s1) * (1.0 - s2)
    if isinstance(cond, ast.Not):
        return 1.0 - _selectivity(cond.operand)
    assert isinstance(cond, ast.Comparison)
    if cond.op == "=":
        return SEL_EQ
    if cond.op == "<>":
        return SEL_NEQ
    return SEL_RANGE


def _cond_text(cond: ast.Condition) -> str:
    if isinstance(cond, ast.And):
        return f"{_cond_text(cond.left)} and {_cond_text(cond.right)}"
    if isinstance(cond, ast.Or):
        return f"({_cond_text(cond.left)} or {_cond_text(cond.right)})"
    if isinstance(cond, ast.Not):
        return f"not ({_cond_text(cond.operand)})"
    assert isinstance(cond, ast.Comparison)
    return f"{_expr_text(cond.left)} {cond.op} {_expr_text(cond.right)}"


def _expr_text(expr: ast.Expression) -> str:
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    return str(expr)


def _window_text(w: ast.WindowLiteral) -> str:
    return (f"{{{_num(w.cx)} +- {_num(w.dx)}, "
            f"{_num(w.cy)} +- {_num(w.dy)}}}")


def _num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)


def merge_shard_plans(labels: "list[str]",
                      plan_rows: "list[list[str]]") -> list[str]:
    """Merge per-shard EXPLAIN outputs into one routed plan listing.

    The cluster router scatters ``EXPLAIN`` to every target shard and
    each answers with the plan *it* would run over its slice; this
    helper stitches those answers into a single one-column listing with
    a header line per shard.  No dedup, no reordering — unlike data
    rows, plan lines are positional, and two shards legitimately pick
    different plans for the same text (their slices have different
    statistics).
    """
    if len(labels) != len(plan_rows):
        raise ValueError("one label per shard plan required")
    merged: list[str] = [f"Scatter-gather over {len(labels)} shard(s)"]
    for label, rows in zip(labels, plan_rows):
        merged.append(f"-- {label}")
        merged.extend(f"  {line}" for line in rows)
    return merged
