"""OGR SQL dialect: parse a SELECT statement string and compile it to
a Ray Data pipeline over the engine's composed operators — the
`gdal vector sql` surface (reference: apps/gdalalg_vector_sql.cpp and
the OGR SQL dialect, ogr/ogr_swq.cpp / ogr_gensql.cpp).

Supported grammar (the OGR SQL core):

    SELECT [DISTINCT] expr [AS alias] [, ...]
    FROM table
    [WHERE predicate]
    [GROUP BY col [, ...]]
    [ORDER BY col [ASC|DESC] [, ...]]
    [LIMIT n [OFFSET m]]

Expressions: arithmetic (+ - * / %), comparisons, AND/OR/NOT,
IN (...), BETWEEN, LIKE, IS [NOT] NULL, CAST(x AS type), string
functions (UPPER LOWER SUBSTR CONCAT LENGTH), aggregates
(COUNT(*) COUNT(x) SUM MIN MAX AVG).  Single-table v1 (joins are the
engine's dedicated join operators; documented).

Evaluation is vectorized pyarrow.compute per batch; aggregation maps
onto ray.data groupby/aggregate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gdal_ray.stages.partition import join_partitions, map_partitions

# ------------------------------------------------------------ tokenizer
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)
  | (?P<str>'(?:[^']|'')*')
  | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|%|\(|\)|,|\.)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "ORDER", "BY",
    "ASC", "DESC", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN",
    "BETWEEN", "LIKE", "ILIKE", "ESCAPE", "IS", "NULL", "CAST", "JOIN", "ON",
    "INNER", "LEFT", "HAVING", "UNION", "ALL", "EXISTS",
}


def _tokenize(sql: str):
    out = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if not m:
            raise ValueError(f"SQL tokenize error at: {sql[pos:pos+20]!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        val = m.group()
        if kind == "name" and val.upper() in _KEYWORDS:
            out.append(("kw", val.upper()))
        else:
            out.append((kind, val))
    out.append(("end", ""))
    return out


# ----------------------------------------------------------------- AST
@dataclass
class Col:
    name: str


@dataclass
class Lit:
    value: object


@dataclass
class Bin:
    op: str
    left: object
    right: object


@dataclass
class Un:
    op: str
    operand: object


@dataclass
class Func:
    name: str
    args: list = field(default_factory=list)
    star: bool = False


@dataclass
class CastExpr:
    operand: object
    to: str


@dataclass
class InExpr:
    operand: object
    values: list = field(default_factory=list)
    negated: bool = False


@dataclass
class ScalarSubquery:
    """``(SELECT <one value> FROM …)`` used as an expression —
    UNcorrelated only: evaluated ONCE at compile time (the sub-plan
    runs distributed; only the single resulting value lands on the
    driver) and substituted as a literal into the outer expression
    tree.  SQL scalar-subquery semantics: zero rows → NULL, more
    than one row → error."""

    select: object           # Select


@dataclass
class ExistsSubquery:
    """``[NOT] EXISTS (SELECT … FROM t WHERE t.k = outer.k [AND …])``
    — the single correlated equality compiles to a distributed
    semi / anti join on the correlation key (stages/join.py
    membership core); the remaining inner conjuncts stay as the
    subquery's own filter.  An UNcorrelated EXISTS is an existence
    gate evaluated once at compile time (``limit(1).count()`` — O(1)
    driver work).  Only legal as a top-level AND conjunct of WHERE,
    same contract as ``InSubquery``."""

    select: object           # Select
    negated: bool = False


@dataclass
class InSubquery:
    """``col [NOT] IN (SELECT one_col FROM …)`` — compiled to a
    distributed semi / anti join (``stages.partition.join_partitions``),
    never a driver value set.  Only legal as a top-level AND conjunct
    of WHERE.  NULLs follow SQL's three-valued logic: a NULL never
    matches, and ``NOT IN`` keeps no row when the subquery holds a
    NULL, and drops a NULL left key unless the subquery is empty."""

    operand: object          # must resolve to a plain column
    select: object           # Select
    negated: bool = False


@dataclass
class BetweenExpr:
    operand: object
    lo: object
    hi: object
    negated: bool = False


@dataclass
class LikeExpr:
    operand: object
    pattern: str
    negated: bool = False
    nocase: bool = False
    escape: str | None = None  # SQL ESCAPE clause (round 5)


@dataclass
class IsNullExpr:
    operand: object
    negated: bool = False


@dataclass
class CaseExpr:
    whens: list  # (condition expr, result expr)
    default: object = None


@dataclass
class WindowExpr:
    """``func(...) OVER (PARTITION BY cols ORDER BY cols)`` (round 5).

    The reference's OGR SQL grammar has no window functions
    (ogr/ogr_swq.h); the SQLite dialect executes them via SQLite's
    window support (ogrsqliteexecutesql.cpp role). Here they compile
    onto stages/window.py's coarse-hash-partitioned grouped pass."""
    func: object  # Func
    partition_by: list  # [col name]
    order_by: list  # [(col name, desc)]


_AGG_FUNCS = {"COUNT", "SUM", "MIN", "MAX", "AVG", "STDDEV_POP",
              "STDDEV_SAMP"}
_SCALAR_FUNCS = {"UPPER", "LOWER", "SUBSTR", "CONCAT", "LENGTH", "ABS", "ROUND"}


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, val=None):
        t = self.next()
        if t[0] != kind or (val is not None and t[1] != val):
            raise ValueError(f"SQL parse error: expected {val or kind}, got {t}")
        return t

    def accept(self, kind, val=None):
        t = self.peek()
        if t[0] == kind and (val is None or t[1] == val):
            self.i += 1
            return True
        return False

    # expression grammar: or_expr
    def parse_expr(self):
        return self._or()

    def _or(self):
        left = self._and()
        while self.accept("kw", "OR"):
            left = Bin("OR", left, self._and())
        return left

    def _and(self):
        left = self._not()
        while self.accept("kw", "AND"):
            left = Bin("AND", left, self._not())
        return left

    def _not(self):
        if self.peek() == ("kw", "EXISTS"):
            return self._exists(False)
        if self.accept("kw", "NOT"):
            if self.peek() == ("kw", "EXISTS"):
                return self._exists(True)
            return Un("NOT", self._not())
        return self._cmp()

    def _exists(self, negated: bool):
        self.expect("kw", "EXISTS")
        self.expect("op", "(")
        sub = _parse_select_body(self)
        self.expect("op", ")")
        return ExistsSubquery(sub, negated)

    def _cmp(self):
        left = self._add()
        t = self.peek()
        if t[0] == "op" and t[1] in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.next()
            return Bin(t[1], left, self._add())
        negated = False
        if t == ("kw", "NOT"):
            nxt = self.toks[self.i + 1]
            if nxt in (("kw", "IN"), ("kw", "BETWEEN"), ("kw", "LIKE"),
                       ("kw", "ILIKE")):
                self.next()
                negated = True
                t = self.peek()
        if self.accept("kw", "IN"):
            self.expect("op", "(")
            if self.peek() == ("kw", "SELECT"):
                sub = _parse_select_body(self)
                self.expect("op", ")")
                return InSubquery(left, sub, negated)
            vals = [self._literal()]
            while self.accept("op", ","):
                vals.append(self._literal())
            self.expect("op", ")")
            return InExpr(left, vals, negated)
        if self.accept("kw", "BETWEEN"):
            lo = self._add()
            self.expect("kw", "AND")
            hi = self._add()
            return BetweenExpr(left, lo, hi, negated)
        if self.accept("kw", "LIKE"):
            pat = self._literal()
            esc = self._escape_clause()
            return LikeExpr(left, pat.value, negated, escape=esc)
        if self.accept("kw", "ILIKE"):
            pat = self._literal()
            esc = self._escape_clause()
            return LikeExpr(left, pat.value, negated, nocase=True,
                            escape=esc)
        if self.accept("kw", "IS"):
            neg = self.accept("kw", "NOT")
            self.expect("kw", "NULL")
            return IsNullExpr(left, neg)
        return left

    def _escape_clause(self):
        """Optional ``ESCAPE 'c'`` after a LIKE/ILIKE pattern
        (ogr_sql dialect: swq_op_general.cpp LIKE escape handling)."""
        if self.accept("kw", "ESCAPE"):
            lit = self._literal()
            if not isinstance(lit.value, str) or len(lit.value) != 1:
                raise ValueError("ESCAPE needs a single character")
            return lit.value
        return None

    def _add(self):
        left = self._mul()
        while True:
            t = self.peek()
            if t[0] == "op" and t[1] in ("+", "-"):
                self.next()
                left = Bin(t[1], left, self._mul())
            else:
                return left

    def _mul(self):
        left = self._unary()
        while True:
            t = self.peek()
            if t[0] == "op" and t[1] in ("*", "/", "%"):
                self.next()
                left = Bin(t[1], left, self._unary())
            else:
                return left

    def _unary(self):
        if self.accept("op", "-"):
            return Un("-", self._unary())
        return self._primary()

    def _literal(self):
        t = self.next()
        if t[0] == "num":
            v = float(t[1]) if ("." in t[1] or "e" in t[1].lower()) else int(t[1])
            return Lit(v)
        if t[0] == "str":
            return Lit(t[1][1:-1].replace("''", "'"))
        if t == ("kw", "NULL"):
            return Lit(None)
        raise ValueError(f"SQL: expected literal, got {t}")

    def _primary(self):
        t = self.peek()
        if t[0] == "op" and t[1] == "(":
            self.next()
            if self.peek() == ("kw", "SELECT"):
                sub = _parse_select_body(self)
                self.expect("op", ")")
                return ScalarSubquery(sub)
            e = self.parse_expr()
            self.expect("op", ")")
            return e
        if t[0] in ("num", "str") or t == ("kw", "NULL"):
            return self._literal()
        if t == ("kw", "CAST"):
            self.next()
            self.expect("op", "(")
            e = self.parse_expr()
            self.expect("kw", "AS")
            typ = self.next()[1].upper()
            # tolerate e.g. CHARACTER(10)
            if self.accept("op", "("):
                self.next()
                self.expect("op", ")")
            self.expect("op", ")")
            return CastExpr(e, typ)
        if t[0] in ("name", "kw") and t[1].upper() == "CASE":
            # searched CASE (WHEN cond THEN ...) and simple CASE
            # (CASE x WHEN v THEN ... — desugared to x = v)
            self.next()

            def word(w):
                n = self.peek()
                return n[0] in ("name", "kw") and n[1].upper() == w

            operand = None
            if not word("WHEN"):
                operand = self.parse_expr()
            whens = []
            while word("WHEN"):
                self.next()
                cond = self.parse_expr()
                if operand is not None:
                    cond = Bin("=", operand, cond)
                n = self.next()
                if n[1].upper() != "THEN":
                    raise ValueError(f"CASE: expected THEN, got {n}")
                whens.append((cond, self.parse_expr()))
            default = None
            if word("ELSE"):
                self.next()
                default = self.parse_expr()
            n = self.next()
            if n[1].upper() != "END":
                raise ValueError(f"CASE: expected END, got {n}")
            if not whens:
                raise ValueError("CASE needs at least one WHEN")
            return CaseExpr(whens, default)
        if t[0] == "name":
            name = self.next()[1]
            if self.peek() == ("op", ".") and self.toks[self.i + 1][0] == "name":
                self.next()
                name = name + "." + self.next()[1]
                return Col(name)
            if self.accept("op", "("):
                fn = name.upper()
                if fn == "COUNT" and self.accept("op", "*"):
                    self.expect("op", ")")
                    func = Func("COUNT", [], star=True)
                else:
                    args = []
                    if not self.accept("op", ")"):
                        args.append(self.parse_expr())
                        while self.accept("op", ","):
                            args.append(self.parse_expr())
                        self.expect("op", ")")
                    func = Func(fn, args)
                nxt = self.peek()
                if nxt[0] == "name" and nxt[1].upper() == "OVER":
                    self.next()
                    return self._over(func)
                return func
            return Col(name)
        raise ValueError(f"SQL parse error at {t}")

    def _colname(self):
        """A possibly-qualified column name (``c`` or ``t.c``)."""
        name = self.next()[1]
        if self.peek() == ("op", ".") and self.toks[self.i + 1][0] == "name":
            self.next()
            name = name + "." + self.next()[1]
        return name

    def _over(self, func):
        """``OVER ( [PARTITION BY c, ...] [ORDER BY c [DESC], ...] )``"""
        self.expect("op", "(")
        partition = []
        nxt = self.peek()
        if nxt[0] == "name" and nxt[1].upper() == "PARTITION":
            self.next()
            self.expect("kw", "BY")
            while True:
                partition.append(self._colname())
                if not self.accept("op", ","):
                    break
        order = []
        if self.accept("kw", "ORDER"):
            self.expect("kw", "BY")
            while True:
                name = self._colname()
                desc = False
                if self.accept("kw", "DESC"):
                    desc = True
                else:
                    self.accept("kw", "ASC")
                order.append((name, desc))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        return WindowExpr(func, partition, order)


@dataclass
class Select:
    columns: list  # (expr, alias or None)
    table: object  # str (name / CTE name) or a nested Select (subquery)
    table_alias: str | None = None
    joins: list = field(default_factory=list)  # (table, alias, kind, lcol, rcol)
    where: object = None
    having: object = None
    group_by: list = field(default_factory=list)
    order_by: list = field(default_factory=list)  # (name, desc)
    limit: int | None = None
    offset: int = 0
    distinct: bool = False
    ctes: list = field(default_factory=list)  # [(name, Select)]


@dataclass
class SetOp:
    """UNION chain — left-associative SQL semantics: at each non-ALL
    boundary the accumulated rows are made distinct."""

    parts: list                 # [Select, …] (≥ 2)
    alls: list                  # [bool] per boundary
    ctes: list = field(default_factory=list)
    order_by: list = field(default_factory=list)
    limit: int | None = None
    offset: int = 0


def parse_select(sql: str) -> Select:
    """Parse a statement: ``[WITH name AS (SELECT …), …] SELECT …
    [UNION [ALL] SELECT …]*``.

    CTEs and FROM/JOIN subqueries (round 5 — reference role:
    ogr/ogrsf_frmts/sqlite/ogrsqliteexecutesql.cpp, which hands both
    to SQLite; UNION [ALL] same role). WITH is recognized at the top
    level only; a CTE body may itself use FROM-subqueries and earlier
    CTEs. A trailing ORDER BY / LIMIT after the last UNION branch
    applies to the combined result (standard SQL)."""
    p = _Parser(_tokenize(sql))
    ctes = []
    nxt = p.peek()
    if nxt[0] == "name" and nxt[1].upper() == "WITH":
        p.next()
        while True:
            name = p.next()[1]
            p.expect("kw", "AS")
            p.expect("op", "(")
            sub = _parse_select_body(p)
            p.expect("op", ")")
            ctes.append((name, sub))
            if not p.accept("op", ","):
                break
    sel = _parse_select_body(p)
    parts, alls = [sel], []
    while p.accept("kw", "UNION"):
        alls.append(bool(p.accept("kw", "ALL")))
        parts.append(_parse_select_body(p))
    if len(parts) > 1:
        last = parts[-1]
        sel = SetOp(parts, alls, ctes=ctes, order_by=last.order_by,
                    limit=last.limit, offset=last.offset)
        last.order_by, last.limit, last.offset = [], None, 0
    else:
        sel.ctes = ctes
    if p.peek()[0] != "end":
        raise ValueError(f"SQL: trailing tokens at {p.peek()}")
    return sel


def _parse_table_ref(p: _Parser):
    """A FROM/JOIN operand: bare table name or ``( SELECT … )``."""
    if p.peek() == ("op", "("):
        p.next()
        sub = _parse_select_body(p)
        p.expect("op", ")")
        return sub
    return p.next()[1]


def _parse_select_body(p: _Parser) -> Select:
    p.expect("kw", "SELECT")
    distinct = p.accept("kw", "DISTINCT")
    cols = []
    if p.accept("op", "*"):
        cols.append((Col("*"), None))
    else:
        while True:
            e = p.parse_expr()
            alias = None
            if p.accept("kw", "AS"):
                alias = p.next()[1]
            elif p.peek()[0] == "name":
                alias = p.next()[1]
            cols.append((e, alias))
            if not p.accept("op", ","):
                break
    p.expect("kw", "FROM")
    table = _parse_table_ref(p)
    alias = p.next()[1] if p.peek()[0] == "name" else None
    sel = Select(cols, table, table_alias=alias, distinct=distinct)
    while p.peek() in (("kw", "JOIN"), ("kw", "INNER"), ("kw", "LEFT")):
        kind = "inner"
        if p.accept("kw", "LEFT"):
            kind = "left_outer"
        else:
            p.accept("kw", "INNER")
        p.expect("kw", "JOIN")
        jt = _parse_table_ref(p)
        ja = p.next()[1] if p.peek()[0] == "name" else None
        p.expect("kw", "ON")
        lhs = p.parse_expr()
        if not (isinstance(lhs, Bin) and lhs.op == "=" and
                isinstance(lhs.left, Col) and isinstance(lhs.right, Col)):
            raise ValueError("JOIN ON must be column = column")
        sel.joins.append((jt, ja, kind, lhs.left.name, lhs.right.name))
    if p.accept("kw", "WHERE"):
        sel.where = p.parse_expr()
    if p.accept("kw", "GROUP"):
        p.expect("kw", "BY")
        while True:
            sel.group_by.append(p._colname())
            if not p.accept("op", ","):
                break
    if p.accept("kw", "HAVING"):
        sel.having = p.parse_expr()
    if p.accept("kw", "ORDER"):
        p.expect("kw", "BY")
        while True:
            name = p._colname()
            desc = False
            if p.accept("kw", "DESC"):
                desc = True
            else:
                p.accept("kw", "ASC")
            sel.order_by.append((name, desc))
            if not p.accept("op", ","):
                break
    if p.accept("kw", "LIMIT"):
        sel.limit = int(p.next()[1])
        if p.accept("kw", "OFFSET"):
            sel.offset = int(p.next()[1])
    return sel


# ----------------------------------------------------------- evaluator
_CAST_TYPES = {
    "INTEGER": pa.int64(), "INT": pa.int64(), "BIGINT": pa.int64(),
    "FLOAT": pa.float64(), "DOUBLE": pa.float64(), "REAL": pa.float64(),
    "CHARACTER": pa.string(), "VARCHAR": pa.string(), "TEXT": pa.string(),
}


_GEOM_TYPE_NAMES = {
    1: "POINT", 2: "LINESTRING", 3: "POLYGON", 4: "MULTIPOINT",
    5: "MULTILINESTRING", 6: "MULTIPOLYGON", 7: "GEOMETRYCOLLECTION",
}


def _special_field(name: str, batch: pa.Table):
    """OGR SQL special fields (ogr/ogr_swq 'special field' semantics,
    ogr_gensql.cpp OGR_GEOMETRY/OGR_GEOM_WKT/OGR_GEOM_AREA): computed
    from the ``geometry`` WKB column on demand."""
    up = name.upper()
    if up == "OGR_STYLE":
        # feature style string (ogr/ogr_p.h:167-172).  The reference's
        # OGRFeature::GetStyleString() falls back to a FIELD named
        # OGR_STYLE when no driver style is set
        # (ogr/ogrfeature.cpp GetStyleString) — honor that; otherwise
        # every feature reports the unset style (NULL), exactly like
        # the reference on styleless sources.
        for cn in batch.column_names:
            if cn.upper() == "OGR_STYLE":
                col = batch[cn]
                return (col.cast(pa.string())
                        if col.type != pa.string() else col)
        return pa.nulls(batch.num_rows, pa.string())
    if up not in ("OGR_GEOMETRY", "OGR_GEOM_WKT", "OGR_GEOM_AREA"):
        return None
    if "geometry" not in batch.column_names:
        raise ValueError(f"{name}: no geometry column in table")
    from gdal_ray.geom import wkb as W

    geoms = batch["geometry"].to_pylist()
    if up == "OGR_GEOMETRY":
        out = [
            None if g is None
            else _GEOM_TYPE_NAMES.get(W.geometry_type(g) % 1000)
            for g in geoms
        ]
        return pa.array(out, pa.string())
    if up == "OGR_GEOM_WKT":
        from gdal_ray.geom.wkt import to_wkt

        return pa.array(
            [None if g is None else to_wkt(g) for g in geoms], pa.string()
        )
    # OGR_GEOM_AREA: polygon / multipolygon area (0 for other types)
    from gdal_ray.geom.ops import polygon_area

    out = []
    for g in geoms:
        if g is None:
            out.append(0.0)
            continue
        t = W.geometry_type(g) % 1000
        if t == 3:
            out.append(polygon_area(W.polygon_rings(g)))
        elif t == 6:
            total = 0.0
            for part in W.parse(g)["parts"]:
                total += polygon_area(part["rings"])
            out.append(total)
        else:
            out.append(0.0)
    return pa.array(out, pa.float64())


def eval_expr(node, batch: pa.Table):
    """Expression AST → pyarrow array/scalar over a batch."""
    if isinstance(node, Col):
        if node.name not in batch.column_names:
            sp = _special_field(node.name, batch)
            if sp is not None:
                return sp
        return batch[node.name]
    if isinstance(node, Lit):
        return pa.scalar(node.value)
    if isinstance(node, (InSubquery, ExistsSubquery)):
        raise ValueError(
            "IN (SELECT …) / EXISTS (SELECT …) are only supported as "
            "top-level AND conjuncts of WHERE (they compile to "
            "semi/anti joins)")
    if isinstance(node, Un):
        v = eval_expr(node.operand, batch)
        if node.op == "-":
            return pc.negate(v)
        if node.op == "NOT":
            return pc.invert(v)
    if isinstance(node, Bin):
        left = eval_expr(node.left, batch)
        right = eval_expr(node.right, batch)
        ops = {
            "+": pc.add, "-": pc.subtract, "*": pc.multiply,
            "/": pc.divide, "=": pc.equal, "<>": pc.not_equal,
            "!=": pc.not_equal, "<": pc.less, "<=": pc.less_equal,
            ">": pc.greater, ">=": pc.greater_equal,
            "AND": pc.and_kleene, "OR": pc.or_kleene,
        }
        if node.op == "%":
            # truncated modulo via subtract/divide (arrow has no mod)
            q = pc.floor(pc.divide(pc.cast(left, pa.float64()),
                                   pc.cast(right, pa.float64())))
            return pc.subtract(pc.cast(left, pa.float64()),
                               pc.multiply(q, pc.cast(right, pa.float64())))
        return ops[node.op](left, right)
    if isinstance(node, CastExpr):
        v = eval_expr(node.operand, batch)
        target = _CAST_TYPES[node.to]
        vt = v.type if hasattr(v, "type") else None
        if pa.types.is_integer(target) and vt is not None and (
            pa.types.is_floating(vt)
        ):
            # SQL CAST(float AS INTEGER) rounds half away from zero
            v = pc.round(v, 0, round_mode="half_towards_infinity")
            return pc.cast(v, target, safe=False)
        return pc.cast(v, target)
    if isinstance(node, InExpr):
        v = eval_expr(node.operand, batch)
        res = pc.is_in(v, value_set=pa.array([x.value for x in node.values]))
        return pc.invert(res) if node.negated else res
    if isinstance(node, BetweenExpr):
        v = eval_expr(node.operand, batch)
        res = pc.and_(
            pc.greater_equal(v, eval_expr(node.lo, batch)),
            pc.less_equal(v, eval_expr(node.hi, batch)),
        )
        return pc.invert(res) if node.negated else res
    if isinstance(node, LikeExpr):
        v = eval_expr(node.operand, batch)
        if node.escape is not None:
            # custom ESCAPE: translate to an anchored RE2 pattern
            # (Arrow's match_like only knows backslash escapes)
            import re as _re

            out = []
            i = 0
            p = node.pattern
            while i < len(p):
                c = p[i]
                if c == node.escape and i + 1 < len(p):
                    out.append(_re.escape(p[i + 1]))
                    i += 2
                    continue
                out.append(".*" if c == "%" else
                           "." if c == "_" else _re.escape(c))
                i += 1
            rx = "^" + "".join(out) + "$"
            res = pc.match_substring_regex(v, rx,
                                           ignore_case=node.nocase)
        else:
            res = pc.match_like(v, node.pattern, ignore_case=node.nocase)
        return pc.invert(res) if node.negated else res
    if isinstance(node, IsNullExpr):
        v = eval_expr(node.operand, batch)
        res = pc.is_null(v)
        return pc.invert(res) if node.negated else res
    if isinstance(node, CaseExpr):
        # right-fold pc.if_else: later WHENs nest inside earlier ones
        acc = (eval_expr(node.default, batch)
               if node.default is not None else None)
        for cond, res in reversed(node.whens):
            # SQL: an UNKNOWN (null) condition does not match
            c = pc.fill_null(eval_expr(cond, batch), False)
            r = eval_expr(res, batch)
            if acc is None:
                rtype = r.type if hasattr(r, "type") else None
                acc = pa.scalar(None, rtype) if rtype else pa.scalar(None)
            acc = pc.if_else(c, r, acc)
        return acc
    if isinstance(node, Func):
        fn = node.name
        if fn in _AGG_FUNCS:
            raise ValueError("aggregate in row context")
        args = [eval_expr(a, batch) for a in node.args]
        if fn == "COALESCE":
            return pc.coalesce(*args)
        if fn == "NULLIF":
            eq = pc.equal(args[0], args[1])
            atype = args[0].type if hasattr(args[0], "type") else None
            return pc.if_else(
                eq, pa.scalar(None, atype) if atype else pa.scalar(None),
                args[0])
        if fn == "UPPER":
            return pc.utf8_upper(args[0])
        if fn == "LOWER":
            return pc.utf8_lower(args[0])
        if fn == "LENGTH":
            return pc.cast(pc.utf8_length(args[0]), pa.int64())
        if fn == "SUBSTR":
            start = int(node.args[1].value) - 1
            length = int(node.args[2].value) if len(node.args) > 2 else None
            return pc.utf8_slice_codeunits(
                args[0], start, start + length if length else None
            )
        if fn == "CONCAT":
            return pc.binary_join_element_wise(
                *[pc.cast(a, pa.string()) for a in args], ""
            )
        if fn == "ABS":
            return pc.abs(args[0])
        if fn == "ROUND":
            nd = int(node.args[1].value) if len(node.args) > 1 else 0
            return pc.round(args[0], nd)
        if fn == "SQRT":
            return pc.sqrt(args[0])
        if fn in ("POW", "POWER"):
            return pc.power(args[0], args[1])
        if fn == "EXP":
            return pc.exp(args[0])
        if fn in ("LN", "LOG"):
            return pc.ln(args[0])
        if fn == "LOG10":
            return pc.log10(args[0])
        if fn == "SIN":
            return pc.sin(args[0])
        if fn == "COS":
            return pc.cos(args[0])
        if fn == "TAN":
            return pc.tan(args[0])
        if fn == "ATAN":
            return pc.atan(args[0])
        if fn == "ATAN2":
            return pc.atan2(args[0], args[1])
        if fn == "FLOOR":
            return pc.floor(args[0])
        if fn in ("CEIL", "CEILING"):
            return pc.ceil(args[0])
        if fn == "SIGN":
            return pc.sign(args[0])
        if fn == "MOD":
            q = pc.floor(pc.divide(pc.cast(args[0], pa.float64()),
                                   pc.cast(args[1], pa.float64())))
            return pc.subtract(
                pc.cast(args[0], pa.float64()),
                pc.multiply(q, pc.cast(args[1], pa.float64())))
        if fn == "PI":
            import math

            return pa.scalar(math.pi)
        if fn == "TRIM":
            return pc.utf8_trim_whitespace(args[0])
        if fn == "LTRIM":
            return pc.utf8_ltrim_whitespace(args[0])
        if fn == "RTRIM":
            return pc.utf8_rtrim_whitespace(args[0])
        if fn == "REPLACE":
            return pc.replace_substring(
                args[0], node.args[1].value, node.args[2].value)
        if fn == "HSTORE_GET_VALUE":
            # reference swq HSTORE_GET_VALUE: 'k=>v, ...' lookup,
            # NULL when the key is absent (ogr/swq_op_general.cpp)
            key = node.args[1].value if hasattr(node.args[1], "value") \
                else None
            vals = args[0].to_pylist() if hasattr(args[0], "to_pylist") \
                else [args[0]]
            out = []
            for s in vals:
                if s is None or key is None:
                    out.append(None)
                    continue
                found = None
                for part in str(s).split(","):
                    if "=>" in part:
                        k, _, v2 = part.partition("=>")
                        if k.strip().strip('"') == key:
                            found = v2.strip().strip('"')
                            break
                out.append(found)
            return pa.array(out, pa.string())
        if fn.startswith("ST_") or fn == "MAKEPOINT":
            return _eval_st(fn, node, args, batch)
        raise ValueError(f"unknown function {fn}")
    raise ValueError(f"cannot evaluate {node}")


# ------------------------------------------------- ST_* geometry funcs
# The SQLite-dialect escape hatch (reference:
# ogr/ogrsf_frmts/sqlite/ogrsqliteexecutesql.cpp registers Spatialite
# ST_* over OGR layers). Kernels are the engine's own geom/* — each
# function is the per-feature GEOS-call model of the reference, with
# vectorized fast paths for the hot shapes (point columns, one
# broadcast polygon).


def _st_num(v, n):
    """numeric arg → float64 ndarray of length n."""
    import numpy as np

    if isinstance(v, pa.Scalar):
        return np.full(n, float(v.as_py()))
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        return np.asarray(v.to_numpy(zero_copy_only=False), np.float64)
    return np.full(n, float(v))


def _st_geoms(v, n):
    """geometry arg → (list of wkb bytes length n, is_constant)."""
    if isinstance(v, pa.Scalar):
        return [v.as_py()] * n, True
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        return v.to_pylist(), False
    return [v] * n, True


def _st_centroid_wkb(buf):
    """Centroid of one WKB: area-weighted for polygons, length-
    weighted for lines, mean for points (OGRGeometry::Centroid,
    geos::getCentroid semantics for the supported shapes)."""
    import numpy as np

    from gdal_ray.geom import ops as GO
    from gdal_ray.geom import scalars as GS
    from gdal_ray.geom import wkb as W

    pts, chains, rings = GS._decompose(buf)
    if rings:
        # multipolygon: area-weighted average of per-polygon centroids
        # (rings list mixes shells+holes; polygon_centroid handles
        # one polygon's ring list — group by reparsing parts)
        g = W.parse(buf)
        if g["type"] == W.MULTIPOLYGON or g["type"] == W.GEOMETRYCOLLECTION:
            cx = cy = aa = 0.0
            for part in g["parts"]:
                if part["type"] != W.POLYGON:
                    continue
                a = GO.polygon_area(part["rings"])
                x, y = GO.polygon_centroid(part["rings"])
                cx += x * a
                cy += y * a
                aa += a
            if aa > 0:
                return W.point_wkb(cx / aa, cy / aa)
            return W.point_wkb(*pts.mean(axis=0)) if len(pts) else None
        x, y = GO.polygon_centroid(g["rings"])
        return W.point_wkb(x, y)
    if chains:
        sx = sy = sl = 0.0
        for c in chains:
            seg = np.diff(c, axis=0)
            ln = np.hypot(seg[:, 0], seg[:, 1])
            mid = (c[:-1] + c[1:]) / 2.0
            sx += float((mid[:, 0] * ln).sum())
            sy += float((mid[:, 1] * ln).sum())
            sl += float(ln.sum())
        if sl > 0:
            return W.point_wkb(sx / sl, sy / sl)
    if len(pts):
        return W.point_wkb(float(pts[:, 0].mean()), float(pts[:, 1].mean()))
    return None


def _st_area_wkb(buf):
    from gdal_ray.geom import ops as GO
    from gdal_ray.geom import wkb as W

    t = W.geometry_type(buf) % 1000
    if t == 3:
        return GO.polygon_area(W.polygon_rings(buf))
    if t in (6, 7):
        total = 0.0
        for part in W.parse(buf)["parts"]:
            if part["type"] == W.POLYGON:
                total += GO.polygon_area(part["rings"])
        return total
    return 0.0


def _eval_st(fn, node, args, batch):
    import numpy as np

    from gdal_ray.geom import ops as GO
    from gdal_ray.geom import scalars as GS
    from gdal_ray.geom import wkb as W
    from gdal_ray.geom import wkt as WT

    n = batch.num_rows
    if fn in ("ST_POINT", "ST_MAKEPOINT"):
        return W.encode_points(_st_num(args[0], n), _st_num(args[1], n))
    if fn == "ST_GEOMFROMTEXT":
        if isinstance(args[0], pa.Scalar):
            return pa.scalar(WT.from_wkt(args[0].as_py()), pa.binary())
        return pa.array(
            [None if s is None else WT.from_wkt(s)
             for s in args[0].to_pylist()],
            pa.binary(),
        )
    if fn == "ST_ASTEXT":
        g, const = _st_geoms(args[0], n)
        if const:
            return pa.scalar(WT.to_wkt(g[0]), pa.string())
        return pa.array(
            [None if b is None else WT.to_wkt(b) for b in g], pa.string()
        )
    if fn in ("ST_X", "ST_Y"):
        g, _ = _st_geoms(args[0], n)
        x, y = W.decode_points(pa.array(g, pa.binary()))
        return pa.array(x if fn == "ST_X" else y, pa.float64())
    if fn == "ST_AREA":
        g, _ = _st_geoms(args[0], n)
        return pa.array(
            [0.0 if b is None else _st_area_wkb(b) for b in g], pa.float64()
        )
    if fn == "ST_LENGTH":
        g, _ = _st_geoms(args[0], n)
        out = []
        for b in g:
            if b is None:
                out.append(0.0)
                continue
            _, chains, rings = GS._decompose(b)
            total = sum(GO.line_length(c) for c in chains)
            total += sum(GO.line_length(np.vstack([r, r[:1]]))
                         if not (r[0] == r[-1]).all() else GO.line_length(r)
                         for r in rings)
            out.append(total)
        return pa.array(out, pa.float64())
    if fn == "ST_CENTROID":
        g, _ = _st_geoms(args[0], n)
        return pa.array(
            [None if b is None else _st_centroid_wkb(b) for b in g],
            pa.binary(),
        )
    if fn == "ST_ENVELOPE":
        g, _ = _st_geoms(args[0], n)
        out = []
        for b in g:
            if b is None:
                out.append(None)
                continue
            minx, miny, maxx, maxy = W.bounds(b)
            out.append(W.box_polygon_wkb(minx, miny, maxx, maxy))
        return pa.array(out, pa.binary())
    if fn == "ST_NPOINTS":
        g, _ = _st_geoms(args[0], n)
        out = []
        for b in g:
            if b is None:
                out.append(None)
                continue
            pts, chains, rings = GS._decompose(b)
            out.append(int(len(pts) + sum(len(c) for c in chains)
                           + sum(len(r) for r in rings)))
        return pa.array(out, pa.int64())
    if fn == "ST_ISEMPTY":
        g, _ = _st_geoms(args[0], n)
        out = []
        for b in g:
            if b is None:
                out.append(None)
                continue
            pts, chains, rings = GS._decompose(b)
            out.append(len(pts) == 0 and not chains and not rings)
        return pa.array(out, pa.bool_())
    if fn == "ST_ISSIMPLE":
        g, _ = _st_geoms(args[0], n)
        return pa.array(
            [None if b is None else GS.is_simple(b) for b in g], pa.bool_()
        )
    if fn == "ST_BUFFER":
        from gdal_ray.stages.vector import buffer_wkb

        g, _ = _st_geoms(args[0], n)
        dist = _st_num(args[1], n)
        q = int(node.args[2].value) if len(node.args) > 2 else 30
        return pa.array(
            [None if b is None else buffer_wkb(b, float(d), q)
             for b, d in zip(g, dist)],
            pa.binary(),
        )
    if fn == "ST_DISTANCE":
        ga, _ = _st_geoms(args[0], n)
        gb, _ = _st_geoms(args[1], n)
        try:  # vectorized point-point fast path (sqrt(dx²+dy²))
            xa, ya = W.decode_points(pa.array(ga, pa.binary()))
            xb, yb = W.decode_points(pa.array(gb, pa.binary()))
            dx, dy = xa - xb, ya - yb
            return pa.array(np.sqrt(dx * dx + dy * dy), pa.float64())
        except Exception:
            pass
        return pa.array(
            [None if (a is None or b is None) else GS.distance(a, b)
             for a, b in zip(ga, gb)],
            pa.float64(),
        )
    if fn == "ST_TRANSFORM":
        # ST_Transform(geom, dst_srid[, src_srid]) — WKB carries no
        # SRID (unlike Spatialite EWKB), so the source defaults to
        # EPSG:4326 unless given. Routed through the engine's EPSG
        # registry (proj/epsg_db.py; reference role
        # ogrsqliteexecutesql.cpp + ogrct.cpp).
        from gdal_ray.geom.ops import transform_wkb
        from gdal_ray.proj.transformer import Transformer

        g, _ = _st_geoms(args[0], n)

        def _srid(a) -> int:
            return int(a.as_py() if isinstance(a, pa.Scalar) else a[0].as_py())

        dst = _srid(args[1])
        src = _srid(args[2]) if len(args) > 2 else 4326
        tr = Transformer.from_crs(f"EPSG:{src}", f"EPSG:{dst}")
        # vectorized fast path ONLY for all-point columns —
        # decode_points silently yields NaN for non-point types
        if all(b is None or W.geometry_type(b) % 1000 == 1 for b in g):
            try:
                x, y = W.decode_points(pa.array(g, pa.binary()))
                xo, yo = tr.transform(x, y)
                return W.encode_points(xo, yo)
            except Exception:
                pass
        return pa.array(
            [None if b is None else transform_wkb(b, tr) for b in g],
            pa.binary(),
        )
    if fn in ("ST_INTERSECTS", "ST_WITHIN", "ST_CONTAINS", "ST_TOUCHES",
              "ST_CROSSES", "ST_OVERLAPS"):
        ga, ca = _st_geoms(args[0], n)
        gb, cb = _st_geoms(args[1], n)
        if fn in ("ST_INTERSECTS", "ST_WITHIN", "ST_CONTAINS"):
            # vectorized fast path: point column vs one broadcast
            # polygon (the dominant SQL shape) → PolygonEdges once
            pt_side, poly_side, poly_const = (ga, gb, cb)
            if fn == "ST_CONTAINS":
                pt_side, poly_side, poly_const = (gb, ga, ca)
            if poly_const and poly_side[0] is not None and (
                W.geometry_type(poly_side[0]) % 1000 == 3
            ):
                try:
                    x, y = W.decode_points(pa.array(pt_side, pa.binary()))
                    from gdal_ray.geom.predicates import PolygonEdges

                    inside = PolygonEdges(
                        W.polygon_rings(poly_side[0])
                    ).contains_points(x, y)
                    return pa.array(inside, pa.bool_())
                except Exception:
                    pass
        kern = {
            "ST_INTERSECTS": GS.intersects, "ST_WITHIN": GS.within,
            "ST_CONTAINS": GS.contains, "ST_TOUCHES": GS.touches,
            "ST_CROSSES": GS.crosses, "ST_OVERLAPS": GS.overlaps,
        }[fn]
        return pa.array(
            [None if (a is None or b is None) else kern(a, b)
             for a, b in zip(ga, gb)],
            pa.bool_(),
        )
    if fn in ("ST_INTERSECTION", "ST_UNION", "ST_DIFFERENCE"):
        from gdal_ray.geom import clip as GC

        op = {
            "ST_INTERSECTION": GC.polygon_intersection,
            "ST_UNION": GC.polygon_union,
            "ST_DIFFERENCE": GC.polygon_difference,
        }[fn]
        ga, _ = _st_geoms(args[0], n)
        gb, _ = _st_geoms(args[1], n)
        out = []
        for a, b in zip(ga, gb):
            if a is None or b is None:
                out.append(None)
                continue
            pieces = op(W.polygon_rings(a)[0], W.polygon_rings(b)[0])
            shells = [r for r in pieces if GO.ring_area(r) > 0]
            if not shells:
                out.append(None)
            elif len(shells) == 1:
                out.append(W.polygon_wkb(shells[0]))
            else:
                out.append(W.multipolygon_wkb([(r, []) for r in shells]))
        return pa.array(out, pa.binary())
    raise ValueError(f"unknown function {fn}")


def _expr_name(node, k: int) -> str:
    if isinstance(node, Col):
        return node.name
    return f"expr_{k}"


def _has_agg(node) -> bool:
    if isinstance(node, WindowExpr):
        # SUM(...) OVER (...) is a window, not an aggregation
        return False
    if isinstance(node, Func):
        return node.name in _AGG_FUNCS or any(_has_agg(a) for a in node.args)
    for attr in ("left", "right", "operand", "lo", "hi"):
        child = getattr(node, attr, None)
        if child is not None and _has_agg(child):
            return True
    return False


def _has_window(node) -> bool:
    if isinstance(node, WindowExpr):
        return True
    if isinstance(node, Func):
        return any(_has_window(a) for a in node.args)
    for attr in ("left", "right", "operand", "lo", "hi"):
        child = getattr(node, attr, None)
        if child is not None and _has_window(child):
            return True
    return False


def _split_conjuncts(e):
    """Flatten a WHERE tree over top-level ANDs."""
    if isinstance(e, Bin) and e.op == "AND":
        return _split_conjuncts(e.left) + _split_conjuncts(e.right)
    return [e]


def _strip_quals(node):
    """Replace qualified Col('t.c') with Col('c') (post-join columns
    carry bare names; qualifiers only disambiguate in the ON clause)."""
    if isinstance(node, Col) and "." in node.name:
        return Col(node.name.split(".", 1)[1])
    for attr in ("left", "right", "operand", "lo", "hi"):
        child = getattr(node, attr, None)
        if child is not None:
            setattr(node, attr, _strip_quals(child))
    if isinstance(node, Func):
        node.args = [_strip_quals(a) for a in node.args]
    if isinstance(node, WindowExpr):
        node.func = _strip_quals(node.func)
        node.partition_by = [c.split(".", 1)[1] if "." in c else c
                             for c in node.partition_by]
        node.order_by = [(c.split(".", 1)[1] if "." in c else c, d)
                         for c, d in node.order_by]
    return node


_CUM_AGGS = {"SUM": "cumsum", "MIN": "cummin", "MAX": "cummax"}


def _window_spec_tuple(e: WindowExpr, out: str):
    fn = e.func.name
    if fn == "ROW_NUMBER":
        return ("row_number", None, out)
    if fn in ("RANK", "DENSE_RANK"):
        return (fn.lower(), None, out)
    if fn in ("LAG", "LEAD"):
        args = e.func.args
        if not args or not isinstance(args[0], Col):
            raise ValueError(f"{fn} needs a column argument")
        off = 1
        if len(args) > 1:
            if not isinstance(args[1], Lit):
                raise ValueError(f"{fn} offset must be a literal")
            off = int(args[1].value)
        return (fn.lower(), args[0].name, out, off)
    if fn in _CUM_AGGS:
        # aggregate OVER with ORDER BY: the ANSI default frame is
        # UNBOUNDED PRECEDING..CURRENT ROW — a running aggregate
        if not e.func.args or not isinstance(e.func.args[0], Col):
            raise ValueError(f"{fn} OVER needs a column argument")
        return (_CUM_AGGS[fn], e.func.args[0].name, out)
    raise ValueError(f"unsupported window function {fn}")


def _compile_windows(ds, sel):
    """Compute every top-level windowed select column via
    stages/window.py (coarse hash(partition)%P shuffle + one
    vectorized grouped pass per partition), replacing its expression
    with the appended output column. One shuffle per distinct
    (PARTITION BY, ORDER BY) spec; specs are deduplicated so
    ``ROW_NUMBER`` and ``LAG`` over the same window share a pass."""
    specs = {}
    new_cols = []
    changed = False
    for k, (e, alias) in enumerate(sel.columns):
        if isinstance(e, WindowExpr):
            name = alias or _expr_name(e, k)
            if not e.partition_by:
                raise ValueError(
                    "OVER requires PARTITION BY (global windows would "
                    "serialize the dataset through one worker)")
            if not e.order_by:
                raise ValueError("OVER requires ORDER BY")
            key = (tuple(e.partition_by), tuple(e.order_by))
            specs.setdefault(key, []).append(_window_spec_tuple(e, name))
            new_cols.append((Col(name), name))
            changed = True
        elif _has_window(e):
            raise ValueError(
                "window expressions must be top-level select columns")
        else:
            new_cols.append((e, alias))
    if not changed:
        return ds, sel
    from gdal_ray.stages.window import window as _window

    for (part, order), funcs in specs.items():
        ds = _window(ds, list(part), [c for c, _d in order], funcs,
                     descending=[d for _c, d in order])
    sel.columns = new_cols
    return ds, sel


def execute(sql: str, tables: dict):
    """Run a SELECT over Ray Datasets: ``tables`` maps name →
    ray.data.Dataset. Returns a Dataset. Single-equality INNER/LEFT
    JOINs are compiled onto ``stages.partition.join_partitions`` (hash
    join); non-key column names must be distinct across the joined
    tables.

    Round 5: ``WITH name AS (SELECT …)`` CTEs, FROM/JOIN subqueries
    (each compiles recursively to a Dataset sub-plan — a CTE is just
    a named sub-plan added to the table map, evaluated lazily like
    every Dataset), and window functions ``ROW_NUMBER()/RANK()/
    DENSE_RANK()/LAG()/LEAD()/SUM()/MIN()/MAX() OVER (PARTITION BY …
    ORDER BY …)`` compiled onto stages/window.py (reference role:
    the SQLite dialect's pass-through, ogrsqliteexecutesql.cpp)."""
    sel = parse_select(sql)
    return _compile(sel, tables)


def _compile(sel: Select, tables: dict):
    from ray.data.aggregate import Count, Max, Mean, Min, Std, Sum

    if sel.ctes:
        tables = dict(tables)
        for name, sub in sel.ctes:
            # each CTE sees the tables plus every earlier CTE
            tables[name] = _compile(sub, tables)
    if isinstance(sel, SetOp):
        return _compile_setop(sel, tables)
    # uncorrelated scalar subqueries become literals before anything
    # else sees the expression trees (distributed sub-plan, O(1)
    # driver result)
    sel.columns = [(_resolve_scalar_subqueries(e, tables), a)
                   for e, a in sel.columns]
    sel.where = _resolve_scalar_subqueries(sel.where, tables)
    sel.having = _resolve_scalar_subqueries(sel.having, tables)
    if isinstance(sel.table, Select):
        ds = _compile(sel.table, tables)
    elif sel.table not in tables:
        raise ValueError(f"unknown table {sel.table}")
    else:
        ds = tables[sel.table]
    for jt, _ja, kind, lcol, rcol in sel.joins:
        if isinstance(jt, Select):
            right = _compile(jt, tables)
        elif jt not in tables:
            raise ValueError(f"unknown join table {jt}")
        else:
            right = tables[jt]
        lc = lcol.split(".")[-1]
        rc = rcol.split(".")[-1]
        if lc not in ds.schema().names:
            lc, rc = rc, lc
        ds = join_partitions(ds, right, lc, rc, kind)
    if sel.joins or sel.table_alias or isinstance(sel.table, Select):
        sel.columns = [(_strip_quals(e), a) for e, a in sel.columns]
        if sel.where is not None:
            sel.where = _strip_quals(sel.where)
        sel.group_by = [c.split(".", 1)[1] if "." in c else c
                        for c in sel.group_by]
        sel.order_by = [(c.split(".", 1)[1] if "." in c else c, d)
                        for c, d in sel.order_by]

    if sel.where is not None:
        if _has_window(sel.where):
            raise ValueError(
                "window expressions are not allowed in WHERE — filter "
                "in an outer query (SELECT … FROM (SELECT …, "
                "ROW_NUMBER() OVER (…) AS rn FROM t) WHERE rn <= k)")
        # IN / EXISTS (SELECT …) conjuncts → distributed semi/anti joins
        plain = []
        for conj in _split_conjuncts(sel.where):
            if isinstance(conj, ExistsSubquery):
                ds = _compile_exists(ds, conj, tables)
                continue
            if not isinstance(conj, InSubquery):
                plain.append(conj)
                continue
            if not isinstance(conj.operand, Col):
                raise ValueError(
                    "IN (SELECT …) left side must be a plain column")
            ds = _compile_in(ds, conj, tables)
        if not plain:
            sel.where = None
        else:
            w = plain[0]
            for nxt in plain[1:]:
                w = Bin("AND", w, nxt)
            sel.where = w
    if sel.where is not None:
        where = sel.where

        def flt(batch: pa.Table) -> pa.Table:
            mask = eval_expr(where, batch)
            if isinstance(mask, pa.ChunkedArray):
                mask = mask.combine_chunks()
            return batch.filter(mask)

        ds = ds.map_batches(flt, batch_format="pyarrow")

    ds, sel = _compile_windows(ds, sel)

    has_agg = any(_has_agg(e) for e, _a in sel.columns)
    if (sel.group_by or has_agg) and sel.having is not None:
        # HAVING aggregates absent from SELECT become hidden output
        # columns, dropped after the filter (standard SQL allows
        # HAVING COUNT(*) > n with no COUNT in the projection)
        hidden = []

        def _collect_hv(node):
            if isinstance(node, Func) and node.name in _AGG_FUNCS:
                if not any(repr(e2) == repr(node)
                           for e2, _a in sel.columns):
                    nm = f"__hv_{len(hidden)}"
                    hidden.append(nm)
                    sel.columns.append((node, nm))
                return
            for attr in ("left", "right", "operand", "lo", "hi"):
                child = getattr(node, attr, None)
                if child is not None:
                    _collect_hv(child)
            if isinstance(node, Func):
                for a in node.args:
                    _collect_hv(a)

        _collect_hv(sel.having)
    else:
        hidden = []
    if sel.group_by or has_agg:
        # input columns: group keys + one temp column per agg argument
        aggs = []  # (SQL aggregate, input column or None for COUNT(*), name)
        prep_exprs = []  # (tmp_name, expr)
        proj = []  # final projection entries: ("key", name) | ("agg", name)
        k = 0
        for e, alias in sel.columns:
            name = alias or _expr_name(e, k)
            k += 1
            if isinstance(e, Col) and e.name in sel.group_by:
                proj.append(("key", e.name, name))
                continue
            if not isinstance(e, Func) or e.name not in _AGG_FUNCS:
                raise ValueError(
                    "non-aggregate select column must be a GROUP BY key"
                )
            if e.name == "COUNT" and e.star and sel.group_by:
                aggs.append((e.name, None, name))
            else:
                # ray 2.49: the bare global Count() returns 0 — count
                # a column of ones for a global COUNT(*) instead
                tmp = f"__agg_in_{k}"
                prep_exprs.append((tmp, Lit(1) if e.star else e.args[0]))
                aggs.append((e.name, tmp, name))
            proj.append(("agg", name, name))

        if prep_exprs:
            def prep(batch: pa.Table) -> pa.Table:
                for tmp, expr in prep_exprs:
                    v = eval_expr(expr, batch)
                    if isinstance(v, pa.Scalar):
                        v = pa.nulls(batch.num_rows).cast(v.type).fill_null(v)
                    batch = batch.append_column(tmp, v)
                return batch

            ds = ds.map_batches(prep, batch_format="pyarrow")
        if sel.group_by:
            # one aggregate per block of whole groups, not ray's
            # groupby().aggregate, whose Arrow grouping splits the null
            # groups of some multi-column keys (see _key_groups)
            ds = map_partitions(ds, sel.group_by,
                                _group_aggregate(sel.group_by, aggs),
                                batch_format="pyarrow")
        else:
            ray_aggs = []
            for f, col, name in aggs:
                if f.startswith("STDDEV"):
                    ray_aggs.append(Std(col, ddof=_ARROW_AGGS[f][1],
                                        alias_name=name))
                    continue
                cls = {"COUNT": Count, "SUM": Sum, "MIN": Min, "MAX": Max,
                       "AVG": Mean}[f]
                ray_aggs.append(cls(col, ignore_nulls=True, alias_name=name))
            ds = _row_to_ds(ds.aggregate(*ray_aggs))

        def post(batch: pa.Table) -> pa.Table:
            cols = {}
            for _kind, src, name in proj:
                cols[name] = batch[src]
            return pa.table(cols)

        ds = ds.map_batches(post, batch_format="pyarrow")
        if sel.having is not None:
            # aggregate calls in HAVING refer to select aliases;
            # equal-shaped Func nodes rewrite to the output column
            def rewrite(node):
                if isinstance(node, Func) and node.name in _AGG_FUNCS:
                    for k2, (e2, alias2) in enumerate(sel.columns):
                        if repr(e2) == repr(node):
                            return Col(alias2 or _expr_name(e2, k2))
                    raise ValueError(
                        "HAVING aggregate must appear in SELECT"
                    )
                for attr in ("left", "right", "operand", "lo", "hi"):
                    child = getattr(node, attr, None)
                    if child is not None:
                        setattr(node, attr, rewrite(child))
                return node

            having = rewrite(sel.having)

            def hflt(batch: pa.Table) -> pa.Table:
                mask = eval_expr(having, batch)
                if isinstance(mask, pa.ChunkedArray):
                    mask = mask.combine_chunks()
                return batch.filter(mask)

            ds = ds.map_batches(hflt, batch_format="pyarrow")
            if hidden:
                ds = ds.map_batches(
                    lambda t, _h=list(hidden): t.drop_columns(_h),
                    batch_format="pyarrow")
        if sel.distinct:
            # SELECT DISTINCT over an aggregated result: distinct on
            # the output rows (post-HAVING), same groupby trick as the
            # plain path (ADVICE r2: this used to be silently dropped)
            ds = _distinct_rows(ds)
    else:
        star = len(sel.columns) == 1 and isinstance(sel.columns[0][0], Col) \
            and sel.columns[0][0].name == "*"
        if not star:
            cols = sel.columns

            def project(batch: pa.Table) -> pa.Table:
                out = {}
                for k2, (e, alias) in enumerate(cols):
                    name = alias or _expr_name(e, k2)
                    v = eval_expr(e, batch)
                    if isinstance(v, pa.Scalar):
                        v = pa.nulls(batch.num_rows).cast(v.type).fill_null(v)
                    if isinstance(v, pa.ChunkedArray):
                        v = v.combine_chunks()
                    out[name] = v
                return pa.table(out)

            ds = ds.map_batches(project, batch_format="pyarrow")
        if sel.distinct:
            ds = _distinct_rows(ds)
    if sel.order_by:
        ds = ds.sort(
            [c for c, _d in sel.order_by],
            descending=[d for _c, d in sel.order_by],
        )
    if sel.limit is not None:
        ds = ds.limit(sel.limit + sel.offset)
    if sel.offset:
        # distributed skip: split at the offset and keep the tail —
        # blocks stay in the object store, nothing lands on the
        # driver (ADVICE r2: previously take_all + slice)
        ds = ds.split_at_indices([sel.offset])[1]
    return ds


def _resolve_scalar_subqueries(node, tables: dict):
    """Rewrite every ScalarSubquery in the expression tree to the
    Lit it evaluates to (see ScalarSubquery).  Returns the (possibly
    new) node."""
    if node is None:
        return None
    if isinstance(node, ScalarSubquery):
        rows = _compile(node.select, tables).take(2)
        if len(rows) > 1:
            raise ValueError(
                "scalar subquery returned more than one row")
        if not rows:
            return Lit(None)
        vals = list(rows[0].values())
        if len(vals) != 1:
            raise ValueError(
                "scalar subquery must produce exactly one column")
        v = vals[0]
        if hasattr(v, "item"):  # numpy scalar → python
            v = v.item()
        return Lit(v)
    for attr in ("left", "right", "operand", "lo", "hi", "default"):
        child = getattr(node, attr, None)
        if child is not None:
            setattr(node, attr, _resolve_scalar_subqueries(child, tables))
    if isinstance(node, Func):
        node.args = [_resolve_scalar_subqueries(a, tables)
                     for a in node.args]
    if isinstance(node, CaseExpr):
        node.whens = [
            (_resolve_scalar_subqueries(c, tables),
             _resolve_scalar_subqueries(r, tables))
            for c, r in node.whens]
    if isinstance(node, InExpr):
        node.values = [_resolve_scalar_subqueries(v, tables)
                       for v in node.values]
    return node


def _compile_in(ds, conj: InSubquery, tables: dict):
    """[NOT] IN conjunct → semi/anti join on the subquery's one
    column, named from its select list (an all-empty sub-plan has no
    schema to ask).  NOT IN is SQL's three-valued test: one NULL in
    the subquery leaves no row, and a NULL left key survives only an
    empty subquery — so the subquery is checkpointed and its per-batch
    row / NULL counts gate the anti join at compile time (O(batches)
    driver work, the documented eager step of the EXISTS gate)."""
    cols = conj.select.columns
    if len(cols) != 1 or (isinstance(cols[0][0], Col)
                          and cols[0][0].name == "*"):
        raise ValueError("IN (SELECT …) subquery must produce one column")
    sub = _compile(conj.select, tables)
    e, alias = conj.select.columns[0]
    col = alias or _expr_name(e, 0)
    key = conj.operand.name.split(".")[-1]
    if not conj.negated:
        return join_partitions(ds, sub, key, col, "left_semi")
    sub = sub.materialize()
    counts = sub.map_batches(
        lambda t: pa.table({"n": [t.num_rows], "nulls": [t[col].null_count]}),
        batch_format="pyarrow").take_all()
    if not sum(r["n"] for r in counts):
        return ds
    if sum(r["nulls"] for r in counts):
        return ds.limit(0)
    ds = ds.map_batches(lambda t: t.filter(pc.is_valid(t[key])),
                        batch_format="pyarrow")
    return join_partitions(ds, sub, key, col, "left_anti")


def _compile_exists(ds, conj: ExistsSubquery, tables: dict):
    """[NOT] EXISTS conjunct → semi/anti join on the single correlated
    equality (see ``ExistsSubquery``).  The correlation conjunct is
    identified structurally: an ``inner = outer`` column equality
    where exactly one side belongs to the subquery's FROM table (by
    alias/table qualifier, or by schema membership when unqualified).
    Uncorrelated EXISTS gates on ``limit(1).count()`` at compile time
    (O(1) driver work, documented eager step)."""
    sub = conj.select
    if not isinstance(sub.table, str) or sub.table not in tables:
        raise ValueError("EXISTS subquery must select FROM a known table")
    inner_names = set(tables[sub.table].schema().names)
    inner_alias = sub.table_alias or sub.table

    def _side(col: Col):
        """'inner' | 'outer' classification of one equality side."""
        qual, _, name = col.name.rpartition(".")
        if qual:
            return "inner" if qual == inner_alias else "outer"
        return "inner" if name in inner_names else "outer"

    corr = None
    rest = []
    conjs = _split_conjuncts(sub.where) if sub.where is not None else []
    for c in conjs:
        if (corr is None and isinstance(c, Bin) and c.op == "="
                and isinstance(c.left, Col) and isinstance(c.right, Col)):
            sl, sr = _side(c.left), _side(c.right)
            if sl == "inner" and sr == "outer":
                corr = (c.right.name.split(".")[-1],
                        c.left.name.split(".")[-1])
                continue
            if sr == "inner" and sl == "outer":
                corr = (c.left.name.split(".")[-1],
                        c.right.name.split(".")[-1])
                continue
        rest.append(c)
    inner_where = None
    for c in rest:
        inner_where = c if inner_where is None else Bin("AND",
                                                        inner_where, c)
    if corr is None:
        # uncorrelated existence gate
        gate = Select(columns=[(Lit(1), "one")], table=sub.table,
                      table_alias=sub.table_alias, where=inner_where)
        nonempty = _compile(gate, tables).limit(1).count() > 0
        return ds if nonempty != conj.negated else ds.limit(0)
    outer_col, inner_col = corr
    keysel = Select(columns=[(Col(inner_col), None)], table=sub.table,
                    table_alias=sub.table_alias, where=inner_where)
    right = _compile(keysel, tables)
    return join_partitions(ds, right, outer_col, inner_col,
                           "left_anti" if conj.negated else "left_semi")


def _contains_in_subquery(node) -> bool:
    if isinstance(node, (InSubquery, ExistsSubquery)):
        return True
    for attr in ("left", "right", "operand", "lo", "hi"):
        child = getattr(node, attr, None)
        if child is not None and _contains_in_subquery(child):
            return True
    if isinstance(node, Func):
        return any(_contains_in_subquery(a) for a in node.args)
    return False


def _fusable_scan(p) -> bool:
    """True when the branch is a plain project+filter over one named
    table — the shape the fused single-scan UNION path can evaluate
    per batch."""
    return (isinstance(p, Select) and not isinstance(p, SetOp)
            and not p.ctes and isinstance(p.table, str)
            and not p.joins and not p.group_by and p.having is None
            and not p.order_by and p.limit is None and not p.offset
            and not p.distinct
            and not any(isinstance(e, Col) and e.name == "*"
                        for e, _a in p.columns)
            and not any(_has_agg(e) or _has_window(e)
                        for e, _a in p.columns)
            and (p.where is None
                 or (not _contains_in_subquery(p.where)
                     and not _has_window(p.where))))


def _compile_setop(u: SetOp, tables: dict):
    """UNION chain: branches align BY POSITION and take the first
    branch's column names (standard SQL).

    Fused fast path — when every branch is a plain project+filter
    over the SAME table, the whole chain is ONE scan: each batch
    evaluates every branch's filter+projection and concatenates (the
    asof tag-union lesson: N branched scans of one table cost N
    parquet reads plus N schema probes).  Distinct semantics collapse
    algebraically: with j = the LAST non-ALL boundary, the chain
    equals distinct(parts[0..j+1]) UNION ALL parts[j+2..] — a later
    UNION's distinct subsumes every earlier boundary's multiplicity.
    The dedup itself is the coarse-partition shape (per-batch local
    distinct, hash(row)%P shuffle of 64-bit keys, one Arrow group_by
    per partition) rather than a groupby on all — possibly string —
    columns.  Mixed chains that don't fit fall back to per-branch
    compile + Dataset.union."""
    fused = (all(_fusable_scan(p) for p in u.parts)
             and len({p.table for p in u.parts}) == 1
             and u.parts[0].table in tables)
    if fused:
        # last non-ALL boundary: parts[0..jb+1] dedup, rest passthrough
        jb = max((i for i, a in enumerate(u.alls) if not a), default=None)
        n_dedup = 0 if jb is None else jb + 2
        first = u.parts[0]
        names = [a or _expr_name(e, k)
                 for k, (e, a) in enumerate(first.columns)]
        for p in u.parts[1:]:
            if len(p.columns) != len(names):
                raise ValueError(
                    f"UNION branches must have the same column count "
                    f"({len(names)} vs {len(p.columns)})")
        parts = list(u.parts)

        def fused_eval(batch: pa.Table) -> pa.Table:
            outs = []
            for bi, p in enumerate(parts):
                b = batch
                if p.where is not None:
                    mask = eval_expr(p.where, b)
                    if isinstance(mask, pa.ChunkedArray):
                        mask = mask.combine_chunks()
                    b = b.filter(mask)
                cols = {}
                for k2, (e, _alias) in enumerate(p.columns):
                    v = eval_expr(e, b)
                    if isinstance(v, pa.Scalar):
                        v = pa.nulls(b.num_rows).cast(v.type) \
                            .fill_null(v)
                    if isinstance(v, pa.ChunkedArray):
                        v = v.combine_chunks()
                    cols[f"c{k2}"] = v
                out = pa.table(cols).rename_columns(names)
                if n_dedup:
                    out = out.append_column("__dd", pa.array(
                        np.full(out.num_rows, bi < n_dedup)))
                outs.append(out)
            return pa.concat_tables(outs, promote_options="permissive")

        base = tables[first.table]
        ds = base.map_batches(fused_eval, batch_format="pyarrow")
        if n_dedup:
            ds = _distinct_flagged(ds, names)
    else:
        ds = _compile(u.parts[0], tables)
        names = ds.schema().names

        def renamed(part):
            d = _compile(part, tables)
            pn = d.schema().names
            if len(pn) != len(names):
                raise ValueError(
                    f"UNION branches must have the same column count "
                    f"({len(names)} vs {len(pn)})")
            if pn == names:
                return d
            return d.map_batches(
                lambda t, _n=list(names): t.rename_columns(_n),
                batch_format="pyarrow")

        for part, is_all in zip(u.parts[1:], u.alls):
            ds = ds.union(renamed(part))
            if not is_all:
                ds = _distinct_rows(ds)
    if u.order_by:
        ds = ds.sort([c for c, _d in u.order_by],
                     descending=[d for _c, d in u.order_by])
    if u.limit is not None:
        ds = ds.limit(u.limit + u.offset)
    if u.offset:
        ds = ds.split_at_indices([u.offset])[1]
    return ds


def _key_groups(t: pa.Table, keys: list):
    """(first row of each distinct ``keys`` value, group number of each
    row), groups in code order; nulls are equal. The rows group on
    per-column dictionary codes: Arrow 16's multi-column hash
    ``group_by`` splits a null's group when the key has a string column
    before it."""
    codes = np.stack([
        pc.dictionary_encode(t[k].combine_chunks(), null_encoding="encode")
        .indices.to_numpy() for k in keys], axis=1)
    _, first, group = np.unique(codes, axis=0, return_index=True,
                                return_inverse=True)
    return first, group.reshape(-1)


def _distinct_flagged(ds, names: list):
    """distinct(rows with __dd) ∪all (rows without): per-batch local
    dedup of the flagged subset (``_key_groups``), a row-hash partition
    shuffle (``stages.partition``), one dedup per partition. Nulls are
    equal (SQL DISTINCT semantics); output dtypes never round-trip
    through pandas."""

    def local(t: pa.Table) -> pa.Table:
        mask = t["__dd"].combine_chunks() if isinstance(
            t["__dd"], pa.ChunkedArray) else t["__dd"]
        ft = t.filter(mask).select(names)
        ft = ft.take(_key_groups(ft, names)[0])
        ft = ft.append_column("__dd", pa.array(
            np.full(ft.num_rows, True)))
        rest = t.filter(pc.invert(mask)).select(names)
        rest = rest.append_column("__dd", pa.array(
            np.full(rest.num_rows, False)))
        return pa.concat_tables([ft, rest],
                                promote_options="permissive")

    def combine(g: pa.Table) -> pa.Table:
        return local(g).select(names)

    return map_partitions(ds.map_batches(local, batch_format="pyarrow"),
                          names, combine, batch_format="pyarrow")


def _distinct_rows(ds):
    """Distinct over all output columns — per-batch local dedup
    (``_key_groups``), a row-hash partition shuffle
    (``stages.partition``), one dedup per partition (no driver set)."""
    names = ds.schema().names

    def dedup(t: pa.Table) -> pa.Table:
        return t.select(names).take(_key_groups(t, names)[0])

    return map_partitions(ds.map_batches(dedup, batch_format="pyarrow"),
                          names, dedup, batch_format="pyarrow")


# SQL aggregate → (Arrow hash aggregate, ddof)
_ARROW_AGGS = {"COUNT": ("count", None), "SUM": ("sum", None),
               "MIN": ("min", None), "MAX": ("max", None),
               "AVG": ("mean", None), "STDDEV_POP": ("stddev", 0),
               "STDDEV_SAMP": ("stddev", 1)}


def _group_aggregate(keys, aggs):
    """Block → one row per ``keys`` group with the (SQL aggregate,
    input column, name) ``aggs``: COUNT(*) counts rows, every other
    aggregate skips nulls (SQL semantics)."""
    keys = list(keys)
    names = [n for _f, _c, n in aggs] + keys

    def group_aggregate(t: pa.Table) -> pa.Table:
        spec = []  # built here: Arrow's options objects do not pickle
        for f, col, _n in aggs:
            fn, ddof = _ARROW_AGGS[f]
            spec.append(([], "count_all") if col is None else
                        (col, fn) if ddof is None else
                        (col, fn, pc.VarianceOptions(ddof=ddof)))
        first, group = _key_groups(t, keys)
        out = (t.append_column("__group", pa.array(group))
               .group_by("__group", use_threads=False).aggregate(spec)
               .sort_by("__group").drop_columns(["__group"]))
        cols = out.columns + t.select(keys).take(first).columns
        return pa.table(cols, names=names)

    return group_aggregate


def _row_to_ds(row: dict):
    import ray.data as rd

    return rd.from_arrow(pa.table({k: [v] for k, v in row.items()}))
