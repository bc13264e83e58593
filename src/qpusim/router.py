"""Query language: parsing, printing, evaluation, and rectangle planning.

Grammar (AND binds tighter than OR, parentheses honored):

    query      := expr [ "FRESHNESS" level ]
    expr       := term { "OR" term }
    term       := factor { "AND" factor }
    factor     := predicate | "(" expr ")"
    predicate  := IDENT cmp literal        cmp := "=" | "<" | "<=" | ">" | ">="
    literal    := NUMBER | '"' TEXT '"'
    level      := "strong" | "bounded:" INT | "snapshot" | "any"

The default level is "any". A parsed query normalizes to DNF; every conjunct
becomes one axis-aligned rectangle whose intervals carry exact open/closed
bounds, so the rectangles hold exactly the points the expression selects, and
a plan needs nothing else. The parser rejects a query whose DNF would have
more than MAX_DNF_TERMS conjuncts, because the expansion is exponential in
the number of ANDed OR-groups, and one whose parentheses nest deeper than
MAX_NESTING, because parsing and planning recurse once per level.
"""

import re
from dataclasses import dataclass

from .regions import AttributeSchema, Interval, Region
from .staleness import Level, StalenessLevel


# Most DNF conjuncts a query may expand to: 2**10, ten ANDed two-way ORs.
# Generated workloads reach at most 27.
MAX_DNF_TERMS = 1024
# Deepest parenthesis nesting a query may have, far below Python's recursion
# limit. Generated workloads reach 2.
MAX_NESTING = 64


class QueryError(Exception):
    def __init__(self, msg: str, offset: int):
        self.offset = offset
        super().__init__(f"{msg} (at byte {offset})")


@dataclass(frozen=True)
class Pred:
    attr: str
    op: str  # = < <= > >=
    value: object


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass
class Query:
    expr: object
    staleness: StalenessLevel
    origin_dc: str | None = None

    def at(self, dc: str) -> "Query":
        return Query(self.expr, self.staleness, dc)


@dataclass(slots=True)
class QueryResult:
    """What a coordinator hands back: exact keys, the coverage actually
    achieved, the tree's claim, and the per-query counters. `keys` may be
    the frozenset of an earlier result of the same plan, and `clock` is the
    origin replica's shared heads snapshot (see Coordinator._complete), so
    neither may be mutated. Nor may `span`, the trace tree that `trace`
    renders when read: a span is (node, its kind as it served, decision,
    clock, target at the root only, child spans), or for an empty plan the
    coordinator's one line, and the tree shares spans and clocks."""

    query_id: str
    keys: frozenset
    # achieved coverage: the origin replica's heads at completion, which
    # dominate the claim
    clock: object
    target: object  # the target resolved at the root; None for an empty plan
    span: object
    # always None: the tree answers every probe or stops the run. Kept
    # because traces.txt prints it as error=- and the bench reads it
    error: str | None
    response_tick: int
    staleness: str
    origin_dc: str
    # the per-query counters; `stats` has them as a dict
    qpus_visited: int
    cache_hits: int
    candidate_checked: int
    false_positives_removed: int
    result_size: int
    ticks_elapsed: int
    # the root response's clock; None for an empty plan, which is never
    # routed
    claimed: object = None

    @property
    def trace(self) -> str:
        """The trace text: a line per span, indented two spaces a level."""
        return "\n".join(_trace_lines(self.span, ""))

    @property
    def stats(self) -> dict:
        return {
            "qpus_visited": self.qpus_visited,
            "cache_hits": self.cache_hits,
            "candidate_checked": self.candidate_checked,
            "false_positives_removed": self.false_positives_removed,
            "result_size": self.result_size,
            "ticks_elapsed": self.ticks_elapsed,
        }


def _trace_lines(span, pad: str):
    if isinstance(span, str):  # the coordinator's empty-plan line
        yield span
        return
    node, kind, decision, clock, target, children = span
    yield pad + node.trace_line(kind, decision, clock, target)
    for child in children:
        yield from _trace_lines(child, pad + "  ")


# -- lexer ----------------------------------------------------------------------

_CMP = ("<=", ">=", "=", "<", ">")
_WORD_TAIL = re.compile(r"\w*")  # \w is exactly str.isalnum() or "_"


def _tokens(text: str):
    i, n = 0, len(text)
    out = []
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise QueryError("unterminated string", i)
            out.append(("str", text[i + 1:j], i))
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE+-"):
                # stop a trailing sign that is not part of an exponent
                if text[j] in "+-" and text[j - 1] not in "eE":
                    break
                j += 1
            raw = text[i:j]
            try:
                val = int(raw)
            except ValueError:
                try:
                    val = float(raw)
                except ValueError:
                    raise QueryError(f"bad number {raw!r}", i) from None
            out.append(("num", val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = _WORD_TAIL.match(text, i + 1).end()
            out.append(("ident", text[i:j], i))
            i = j
            continue
        if c in "():":
            out.append((c, c, i))
            i += 1
            continue
        for op in _CMP:
            if text.startswith(op, i):
                out.append(("cmp", op, i))
                i += len(op)
                break
        else:
            raise QueryError(f"unexpected character {c!r}", i)
    out.append(("end", "", n))
    return out


# -- parser ------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, schema: dict[str, AttributeSchema]):
        self.schema = schema
        self.toks = _tokens(text)
        self.pos = 0
        self.depth = 0  # parentheses open around the next token

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise QueryError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def _keyword(self, word: str) -> int | None:
        """Consume `word` when it is the next token and return its offset;
        None when the next token is anything else."""
        kind, val, off = self.toks[self.pos]
        if kind == "ident" and val == word:
            self.pos += 1
            return off
        return None

    def parse(self) -> Query:
        expr, _ = self.expr()
        level = StalenessLevel.any()
        if self._keyword("FRESHNESS") is not None:
            level = self.level()
        kind, val, off = self.peek()
        if kind != "end":
            raise QueryError(f"trailing input {val!r}", off)
        return Query(expr, level)

    def level(self) -> StalenessLevel:
        kind, val, off = self.take()
        if kind != "ident" or val not in ("strong", "bounded", "snapshot", "any"):
            raise QueryError(f"unknown staleness level {val!r}", off)
        if val == "bounded":
            self.take(":")
            nkind, nval, noff = self.take()
            if nkind != "num" or not isinstance(nval, int) or nval < 0:
                raise QueryError("bounded: takes a non-negative integer", noff)
            return StalenessLevel.bounded(nval)
        return StalenessLevel(Level(val))

    # expr, term and factor return (node, DNF term count): a sum over OR, a
    # product over AND, checked against MAX_DNF_TERMS as it grows

    @staticmethod
    def _too_many(off: int) -> QueryError:
        return QueryError(
            f"query expands to more than {MAX_DNF_TERMS} DNF terms", off)

    def expr(self):
        node, terms = self.term()
        parts = [node]
        while (off := self._keyword("OR")) is not None:
            node, more = self.term()
            terms += more
            if terms > MAX_DNF_TERMS:
                raise self._too_many(off)
            parts.append(node)
        if len(parts) == 1:
            return parts[0], terms
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Or) else (p,))
        return Or(tuple(flat)), terms

    def term(self):
        node, terms = self.factor()
        parts = [node]
        while (off := self._keyword("AND")) is not None:
            node, more = self.factor()
            terms *= more
            if terms > MAX_DNF_TERMS:
                raise self._too_many(off)
            parts.append(node)
        if len(parts) == 1:
            return parts[0], terms
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, And) else (p,))
        return And(tuple(flat)), terms

    def factor(self):
        kind, val, off = self.peek()
        if kind == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise QueryError(
                    f"parentheses nest deeper than {MAX_NESTING}", off)
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        return self.predicate(), 1

    def predicate(self) -> Pred:
        kind, attr, off = self.take()
        if kind != "ident":
            raise QueryError(f"expected attribute name, found {attr!r}", off)
        if attr in ("AND", "OR", "FRESHNESS"):
            raise QueryError(f"expected attribute name, found keyword {attr}", off)
        sch = self.schema.get(attr)
        if sch is None:
            raise QueryError(f"unknown attribute {attr!r}", off)
        _, op, _ = self.take("cmp")
        vkind, value, voff = self.take()
        if vkind == "str":
            if sch.kind != "text":
                raise QueryError(f"{attr} is numeric, got a string literal", voff)
        elif vkind == "num":
            if sch.kind == "text":
                raise QueryError(f"{attr} is text, got a number", voff)
            if sch.kind == "int" and not isinstance(value, int):
                raise QueryError(f"{attr} is integer-valued, got {value!r}", voff)
        else:
            raise QueryError(f"expected a literal, found {value!r}", voff)
        if not sch.validate(value):
            raise QueryError(f"value {value!r} outside domain of {attr}", voff)
        if sch.kind == "float":
            value = float(value)  # an int in the domain is in float range
        return Pred(attr, op, value)


def parse(text: str, schema: dict[str, AttributeSchema]) -> Query:
    if not text.strip():
        raise QueryError("empty query", 0)
    return _Parser(text, schema).parse()


# -- printer -------------------------------------------------------------------------


def _render_value(v) -> str:
    if isinstance(v, str):
        return f'"{v}"'
    return repr(v)


def _render_expr(node, parent: str = "") -> str:
    if isinstance(node, Pred):
        return f"{node.attr} {node.op} {_render_value(node.value)}"
    if isinstance(node, And):
        s = " AND ".join(_render_expr(p, "and") for p in node.parts)
        return s
    inner = " OR ".join(_render_expr(p, "or") for p in node.parts)
    return f"({inner})" if parent == "and" else inner


def render(q: Query) -> str:
    return f"{_render_expr(q.expr)} FRESHNESS {q.staleness.render()}"


# -- evaluation ----------------------------------------------------------------------


def eval_expr(node, attrs: dict) -> bool:
    t = type(node)
    if t is Pred:
        v = attrs[node.attr]
        w = node.value
        op = node.op
        if op == "=":
            return v == w
        if op == "<":
            return v < w
        if op == "<=":
            return v <= w
        if op == ">":
            return v > w
        return v >= w
    if t is And:
        for p in node.parts:
            if not eval_expr(p, attrs):
                return False
        return True
    for p in node.parts:
        if eval_expr(p, attrs):
            return True
    return False


def compile_expr(node):
    """The expression as one predicate function of attrs: nested closures
    that apply the operators of eval_expr, and short-circuit in its
    left-to-right order, without its per-node type dispatch. The oracle
    keeps eval_expr, so the two are checked against each other."""
    t = type(node)
    if t is Pred:
        attr, w, op = node.attr, node.value, node.op
        if op == "=":
            return lambda attrs: attrs[attr] == w
        if op == "<":
            return lambda attrs: attrs[attr] < w
        if op == "<=":
            return lambda attrs: attrs[attr] <= w
        if op == ">":
            return lambda attrs: attrs[attr] > w
        return lambda attrs: attrs[attr] >= w
    parts = tuple(compile_expr(p) for p in node.parts)
    if t is And:
        def conj(attrs):
            for p in parts:
                if not p(attrs):
                    return False
            return True
        return conj

    def disj(attrs):
        for p in parts:
            if p(attrs):
                return True
        return False
    return disj


# -- rectangles ------------------------------------------------------------------------


def _pred_interval(p: Pred, sch: AttributeSchema) -> Interval:
    dom = sch.domain()
    if p.op == "=":
        return Interval.point(p.value)
    if p.op == "<":
        return Interval(dom.lo, p.value, dom.lo_open, True)
    if p.op == "<=":
        return Interval(dom.lo, p.value, dom.lo_open, False)
    if p.op == ">":
        return Interval(p.value, dom.hi, True, dom.hi_open)
    return Interval(p.value, dom.hi, False, dom.hi_open)


def _unique(rects: list) -> list[Region]:
    """Drop empty (None) and repeated rectangles, keeping first occurrences."""
    if len(rects) == 1:
        return rects if rects[0] is not None else []
    seen = set()
    out = []
    for r in rects:
        if r is not None:
            k = r.key()
            if k not in seen:
                seen.add(k)
                out.append(r)
    return out


def _expand(node, rects: list[Region], schema) -> list[Region]:
    """Narrow each partial rectangle by `node`, in DNF product order: an OR
    splits every partial into one per branch, an AND narrows by its parts in
    turn. Every partial in a list faces the same rest of the query, so an
    empty or repeated one can be dropped at each step without changing which
    rectangles come out, or their order."""
    if isinstance(node, Pred):
        iv = _pred_interval(node, schema[node.attr])
        return _unique([r.narrowed(node.attr, iv) for r in rects])
    if isinstance(node, And):
        for p in node.parts:
            if not rects:
                break
            rects = _expand(p, rects, schema)
        return rects
    return _unique([x for r in rects for p in node.parts
                    for x in _expand(p, [r], schema)])


def to_rectangles(q: Query, schema: dict[str, AttributeSchema]) -> list[Region]:
    """DNF expansion to rectangles. Unconstrained attributes span their full
    axis; contradictory conjuncts drop out."""
    return _expand(q.expr, [Region.whole(schema)], schema)


def rect_match(rects, attrs: dict) -> bool:
    return any(r.contains_point(attrs) for r in rects)


# -- end-to-end convenience -----------------------------------------------------------


def route(q: Query, network):
    """Submit the query and pump the simulation until its result is ready."""
    done: list = []
    network.submit(q, done.append)
    while not done:
        if not network.sim.step():
            raise RuntimeError("simulation drained before the query completed")
    return done[0]


def candidate_check(keys, pred, store, dc: str):
    """Re-evaluate keys against the current origin-replica state with the
    query's predicate, a function of attrs (see compile_expr); deleted or
    absent objects fail. Returns (kept, removed_count)."""
    objects = store.replicas[dc].objects
    kept = set()
    for key in keys:
        cur = objects.get(key)
        if cur is not None and cur.attrs is not None and pred(cur.attrs):
            kept.add(key)
    return kept, len(keys) - len(kept)
