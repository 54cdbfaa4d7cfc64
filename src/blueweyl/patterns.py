"""Realizable zero patterns of parametrized matrix families over small fields.

A family is a matrix of rational expressions in named parameters, subject to
polynomial equality and inequation constraints.  Sampling parameter values
over the rationals and a few prime fields (with targeted sampling on named
loci) yields a certified lower bound on the set of zero patterns the family
realizes: every reported pattern carries an exact witness.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .catalog import GroupModel


class FamilySyntaxError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# expression nodes: ("num", int) | ("var", name) | ("add"|"sub"|"mul"|"div", l, r)
# | ("neg", x) | ("pow", base, int)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def take_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            raise FamilySyntaxError("expected a name", self.pos)
        return self.text[start:self.pos]

    def take_int(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.text[start:self.pos] in ("", "-"):
            raise FamilySyntaxError("expected an integer", self.pos)
        return int(self.text[start:self.pos])


def parse_expression(text: str):
    tok = _Tokenizer(text)
    expr = _parse_sum(tok)
    if tok.peek():
        raise FamilySyntaxError(f"unexpected trailing input {tok.peek()!r}", tok.pos)
    return expr


def _parse_sum(tok: _Tokenizer):
    node = _parse_product(tok)
    while tok.peek() in ("+", "-"):
        op = tok.take()
        rhs = _parse_product(tok)
        node = ("add" if op == "+" else "sub", node, rhs)
    return node


def _parse_product(tok: _Tokenizer):
    node = _parse_factor(tok)
    while tok.peek() in ("*", "/"):
        op = tok.take()
        rhs = _parse_factor(tok)
        node = ("mul" if op == "*" else "div", node, rhs)
    return node


def _parse_factor(tok: _Tokenizer):
    c = tok.peek()
    if c == "-":
        tok.take()
        return ("neg", _parse_factor(tok))
    node = _parse_atom(tok)
    while tok.peek() == "^":
        tok.take()
        node = ("pow", node, tok.take_int())
    return node


def _parse_atom(tok: _Tokenizer):
    c = tok.peek()
    if c == "(":
        tok.take()
        node = _parse_sum(tok)
        if tok.peek() != ")":
            raise FamilySyntaxError("expected )", tok.pos)
        tok.take()
        return node
    if c.isdigit():
        return ("num", tok.take_int())
    if c.isalpha() or c == "_":
        return ("var", tok.take_name())
    raise FamilySyntaxError(f"unexpected character {c!r}", tok.pos)


def expression_vars(expr) -> set[str]:
    kind = expr[0]
    if kind == "num":
        return set()
    if kind == "var":
        return {expr[1]}
    if kind == "neg":
        return expression_vars(expr[1])
    if kind == "pow":
        return expression_vars(expr[1])
    return expression_vars(expr[1]) | expression_vars(expr[2])


def render_expression(expr) -> str:
    kind = expr[0]
    if kind == "num":
        return str(expr[1])
    if kind == "var":
        return expr[1]
    if kind == "neg":
        return f"-({render_expression(expr[1])})"
    if kind == "pow":
        return f"({render_expression(expr[1])})^{expr[2]}"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({render_expression(expr[1])} {sym} {render_expression(expr[2])})"


# ---------------------------------------------------------------------------
# Exact evaluation over Q and prime fields
# ---------------------------------------------------------------------------


class EvaluationError(Exception):
    pass


# product and inverse tables of F4 = F2[w]/(w^2 + w + 1), encoded as below
_F4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_F4_INV = (None, 1, 3, 2)


@dataclass(frozen=True)
class SampleField:
    """The rationals, a prime field F_p, or the four-element field F4.

    An element of Q is a ``Fraction``, an element of F_p an int in
    ``range(p)``, and the element ``a + b*w`` of F4 the int ``a + 2*b`` (so
    2 is w and 3 is w + 1; addition is xor).  In every field zero is the
    one falsy element, so ``not a`` tests for zero.
    """

    characteristic: int
    size: int = 0  # 0 for the rationals, else the field size

    def __post_init__(self):
        if self.characteristic and self.size not in (self.characteristic, 4):
            raise ValueError("only prime fields and F4 are supported")

    @property
    def tag(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.size}"

    def sample(self, rng: random.Random):
        if self.characteristic == 0:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return rng.randrange(self.size)

    def from_int(self, n: int):
        return n % self.characteristic if self.characteristic else Fraction(n)

    def add(self, a, b):
        if not self.characteristic:
            return a + b
        return a ^ b if self.size == 4 else (a + b) % self.characteristic

    def sub(self, a, b):
        if not self.characteristic:
            return a - b
        return a ^ b if self.size == 4 else (a - b) % self.characteristic

    def mul(self, a, b):
        if not self.characteristic:
            return a * b
        return _F4_MUL[a][b] if self.size == 4 else a * b % self.characteristic

    def div(self, a, b):
        if not b:
            raise EvaluationError("division by zero")
        p = self.characteristic
        if not p:
            return Fraction(a) / Fraction(b)
        return _F4_MUL[a][_F4_INV[b]] if self.size == 4 else a * pow(b, p - 2, p) % p

    def power(self, a, n: int):
        if n >= 0:
            result = self.from_int(1)
            for _ in range(n):
                result = self.mul(result, a)
            return result
        return self.div(self.from_int(1), self.power(a, -n))


def fields_for_characteristics(characteristics: Sequence[int]) -> list[SampleField]:
    """Sampling fields for the requested characteristics.

    Characteristic 0 is the rationals; characteristic 2 contributes both F2
    and F4 (some patterns need a char-2 field larger than the prime field);
    other primes contribute their prime field.
    """
    out = []
    for char in characteristics:
        if char == 0:
            out.append(SampleField(0))
        elif char == 2:
            out.append(SampleField(2, 2))
            out.append(SampleField(2, 4))
        else:
            out.append(SampleField(char, char))
    return out


def evaluate(expr, values: dict, F: SampleField):
    kind = expr[0]
    if kind == "var":
        if expr[1] not in values:
            raise EvaluationError(f"unbound parameter {expr[1]}")
        return values[expr[1]]
    if kind == "num":
        return F.from_int(expr[1])
    if kind == "neg":
        return F.sub(F.from_int(0), evaluate(expr[1], values, F))
    if kind == "pow":
        return F.power(evaluate(expr[1], values, F), expr[2])
    # a binary node's kind names the field operation
    return getattr(F, kind)(evaluate(expr[1], values, F), evaluate(expr[2], values, F))


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    expr: tuple  # lhs - rhs as an expression tree
    equality: bool
    source: str

    def satisfied(self, values: dict, F: SampleField) -> bool:
        return (not evaluate(self.expr, values, F)) == self.equality


@dataclass(frozen=True)
class ParamFamily:
    """A parametrized matrix with constraints and named sampling loci."""

    params: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    matrix: tuple[tuple[object, ...], ...]
    loci: dict = field(default_factory=dict)
    name: str = "family"

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)


def parse_constraint(text: str) -> Constraint:
    if "!=" in text:
        lhs, rhs = text.split("!=", 1)
        equality = False
    elif "=" in text:
        lhs, rhs = text.split("=", 1)
        equality = True
    else:
        raise FamilySyntaxError(f"constraint without = or != : {text!r}", 0)
    expr = ("sub", parse_expression(lhs.strip()), parse_expression(rhs.strip()))
    return Constraint(expr, equality, text.strip())


def _split_entries(row: str) -> list[str]:
    entries, depth, current = [], 0, []
    for c in row:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            entries.append("".join(current))
            current = []
        else:
            current.append(c)
    if current:
        entries.append("".join(current))
    return entries


def parse_family(text: str, name: str = "family") -> ParamFamily:
    """Parse the family file format.

    Sections: ``params:`` a comma list, ``constraints:`` a semicolon list,
    ``matrix:`` rows as [expr, expr, ...] one bracket group per row, and any
    number of ``loci: name { constraint; constraint }`` blocks.
    """
    params: list[str] = []
    constraints: list[Constraint] = []
    matrix_rows: list[tuple] = []
    loci: dict[str, tuple[Constraint, ...]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("params:"):
            params.extend(p.strip() for p in line[len("params:"):].split(",")
                          if p.strip())
        elif line.startswith("constraints:"):
            body = line[len("constraints:"):]
            constraints.extend(parse_constraint(c) for c in body.split(";")
                               if c.strip())
        elif line.startswith("matrix:"):
            body = line[len("matrix:"):].strip()
            for chunk in body.split("],"):
                chunk = chunk.strip().lstrip("[").rstrip("]").strip()
                if not chunk:
                    continue
                row = tuple(parse_expression(e.strip())
                            for e in _split_entries(chunk) if e.strip())
                matrix_rows.append(row)
        elif line.startswith("loci:"):
            body = line[len("loci:"):].strip()
            if "{" not in body or not body.endswith("}"):
                raise FamilySyntaxError(f"malformed locus line: {line!r}", 0)
            locus_name, block = body.split("{", 1)
            block = block[:-1]
            cs = tuple(parse_constraint(c) for c in block.split(";") if c.strip())
            loci[locus_name.strip()] = cs
        else:
            raise FamilySyntaxError(f"unrecognized line: {line!r}", 0)
    if not params:
        raise FamilySyntaxError("family declares no parameters", 0)
    widths = {len(r) for r in matrix_rows}
    if len(widths) != 1:
        raise FamilySyntaxError("matrix rows have inconsistent widths", 0)
    known = set(params)
    for row in matrix_rows:
        for entry in row:
            bad = expression_vars(entry) - known
            if bad:
                raise FamilySyntaxError(f"undeclared parameters {sorted(bad)}", 0)
    return ParamFamily(tuple(params), tuple(constraints), tuple(matrix_rows),
                       loci, name)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    field_tag: str
    locus: str
    values: tuple[tuple[str, str], ...]  # parameter -> rendered exact value


@dataclass(frozen=True)
class PatternReport:
    """Zero patterns found by sampling, with one witness per (pattern, field)."""

    family: str
    shape: tuple[int, int]
    seed: int
    samples: int
    patterns: dict  # frozenset[(i, j)] -> {"fields": set, "witnesses": list}
    warnings: tuple[str, ...] = ()

    def pattern_set(self) -> set[frozenset]:
        return set(self.patterns)

    def char2_only_patterns(self) -> set[frozenset]:
        return {p for p, info in self.patterns.items()
                if all(tag_characteristic(tag) == 2 for tag in info["fields"])}

    def to_json(self) -> dict:
        out = []
        for pattern in sorted(self.patterns, key=lambda p: (len(p), sorted(p))):
            info = self.patterns[pattern]
            out.append({
                "zeros": sorted(map(list, pattern)),
                "fields": sorted(info["fields"]),
                "witnesses": [
                    {"field": w.field_tag, "locus": w.locus,
                     "values": {k: v for k, v in w.values}}
                    for w in info["witnesses"]],
            })
        return {"family": self.family, "shape": list(self.shape),
                "seed": self.seed, "samples": self.samples,
                "patterns": out, "warnings": list(self.warnings)}


def _try_repair(values: dict, constraints: Sequence[Constraint],
                F: SampleField, rng: random.Random, params: Sequence[str]) -> bool:
    """Fix violated equalities by solving for one parameter when linear in it.

    Linearity in the chosen parameter is probed at three distinct field
    elements (two over F2, where every function of one variable is affine);
    a final exact re-check of every constraint guards the result, so a bad
    repair only costs the sample.
    """
    x0, x1 = F.from_int(0), F.from_int(1)
    x2 = 2 if F.size == 4 else (None if F.size == 2 else F.from_int(2))
    for c in constraints:
        if not c.equality:
            continue
        try:
            if not evaluate(c.expr, values, F):
                continue
        except EvaluationError:
            return False
        names = expression_vars(c.expr)
        order = list(params)
        rng.shuffle(order)
        repaired = False
        for v in order:
            if v not in names:
                continue
            probe = dict(values)
            try:
                probe[v] = x0
                e0 = evaluate(c.expr, probe, F)
                probe[v] = x1
                e1 = evaluate(c.expr, probe, F)
                slope = F.sub(e1, e0)
                if x2 is not None:
                    probe[v] = x2
                    e2 = evaluate(c.expr, probe, F)
                    if F.sub(e2, F.add(F.mul(slope, x2), e0)):
                        continue  # not linear in v at this sample
            except EvaluationError:
                continue
            if not slope:
                continue
            try:
                values[v] = F.div(F.sub(x0, e0), slope)
            except EvaluationError:
                continue
            repaired = True
            break
        if not repaired:
            return False
    return True


_SATURATION_STREAK = 150


def _cell_rng(seed: int, family: str, tag: str, locus: str) -> random.Random:
    digest = zlib.crc32(f"{seed}:{family}:{tag}:{locus}".encode("utf-8"))
    return random.Random(digest)


def zero_pattern(family: ParamFamily, values: dict, F: SampleField) -> frozenset:
    """The 1-based (row, column) positions of the entries that vanish at values."""
    return frozenset((i, j) for i, row in enumerate(family.matrix, 1)
                     for j, entry in enumerate(row, 1) if not evaluate(entry, values, F))


def realizable_patterns(family: ParamFamily,
                        characteristics: Sequence[int] = (0, 2, 3, 5),
                        samples: int = 2000,
                        seed: int = 20259) -> PatternReport:
    """Sample the family and report the distinct zero patterns with witnesses.

    The result is a certified lower bound: each witness re-evaluates to its
    pattern exactly (rationals and small fields only, no floating point).
    Each (field, locus) cell draws from its own seeded stream and may stop
    early once a long streak of samples stops producing new patterns, so
    reported pattern sets are monotone in ``samples``.  Unsatisfiable
    constraint systems produce a per-field warning rather than an error.
    """
    if samples < 1:
        raise ValueError("at least one sample required")
    all_loci: dict[str, tuple[Constraint, ...]] = {"generic": ()}
    all_loci.update(family.loci)
    patterns: dict = {}
    warnings = []
    for F in fields_for_characteristics(characteristics):
        for locus_name in sorted(all_loci):
            rng = _cell_rng(seed, family.name, F.tag, locus_name)
            extra = all_loci[locus_name]
            constraints = tuple(family.constraints) + tuple(extra)
            hits = 0
            stale = 0
            for _ in range(samples):
                if hits >= _SATURATION_STREAK and stale >= _SATURATION_STREAK:
                    break
                values = {p: F.sample(rng) for p in family.params}
                if not _try_repair(values, constraints, F, rng, family.params):
                    continue
                try:
                    if not all(c.satisfied(values, F) for c in constraints):
                        continue
                    pattern = zero_pattern(family, values, F)
                except EvaluationError:
                    continue
                hits += 1
                info = patterns.setdefault(pattern, {"fields": set(), "witnesses": []})
                if F.tag not in info["fields"]:
                    info["fields"].add(F.tag)
                    rendered = tuple(sorted((p, str(values[p])) for p in family.params))
                    info["witnesses"].append(Witness(F.tag, locus_name, rendered))
                    stale = 0
                else:
                    stale += 1
            if hits == 0:
                warnings.append(f"{F.tag}/{locus_name}: no satisfying sample "
                                f"within {samples} attempts")
    return PatternReport(family.name, family.shape, seed, samples,
                         patterns, tuple(warnings))


def tag_characteristic(tag: str) -> int:
    if tag == "Q":
        return 0
    if tag == "F4":
        return 2
    return int(tag[1:])


def field_from_tag(tag: str) -> SampleField:
    if tag == "Q":
        return SampleField(0)
    size = int(tag[1:])
    return SampleField(tag_characteristic(tag), size)


def reevaluate_witness(family: ParamFamily, pattern: frozenset,
                       witness: Witness) -> bool:
    """Check that a stored witness reproduces its pattern exactly."""
    F = field_from_tag(witness.field_tag)
    values = {}
    for k, v in witness.values:
        values[k] = Fraction(v) if F.characteristic == 0 else int(v)
    return zero_pattern(family, values, F) == set(pattern)


def merge_reports(*reports: PatternReport) -> PatternReport:
    """Union of pattern reports (e.g. over the cells of a decomposition)."""
    merged: dict = {}
    warnings: list[str] = []
    for r in reports:
        for pattern, info in r.patterns.items():
            slot = merged.setdefault(pattern, {"fields": set(), "witnesses": []})
            for tag in info["fields"]:
                if tag not in slot["fields"]:
                    slot["fields"].add(tag)
                    slot["witnesses"].extend(
                        w for w in info["witnesses"] if w.field_tag == tag)
        warnings.extend(r.warnings)
    first = reports[0]
    return PatternReport("+".join(r.family for r in reports), first.shape,
                         first.seed, first.samples, merged, tuple(warnings))


# ---------------------------------------------------------------------------
# Comparison against a model spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumComparison:
    ok: bool
    matched: int
    missing_from_patterns: tuple
    extra_patterns: tuple


def compare_with_spectrum(model: GroupModel, report: PatternReport) -> SpectrumComparison:
    """Set comparison of certified patterns against the model's point set."""
    n = model.dimension
    spectrum = {frozenset((g // n + 1, g % n + 1) for g in p.gens)
                for p in model.spectrum()}
    found = report.pattern_set()
    missing = tuple(sorted(map(sorted, spectrum - found)))
    extra = tuple(sorted(map(sorted, found - spectrum)))
    return SpectrumComparison(not missing and not extra,
                              len(spectrum & found), missing, extra)


# ---------------------------------------------------------------------------
# Built-in families for the projective rank-one models
# ---------------------------------------------------------------------------


CONJUGATION_FAMILY_TEXT = """
# image of a determinant-one 2x2 matrix acting by conjugation on 2x2 matrices
params: a, b, c, d
constraints: a*d - b*c = 1
matrix: [a*d, -(a*c), b*d, -(b*c)], [-(a*b), a^2, -(b^2), a*b], [c*d, -(c^2), d^2, -(c*d)], [-(b*c), a*c, -(b*d), a*d]
loci: a=0 { a = 0 }
loci: b=0 { b = 0 }
loci: c=0 { c = 0 }
loci: d=0 { d = 0 }
loci: a=d=0 { a = 0; d = 0 }
loci: b=c=0 { b = 0; c = 0 }
"""


ADJOINT_CELL_B_TEXT = """
# upper-triangular cell of the rank-one adjoint family
params: lambda, t
constraints: lambda != 0
matrix: [lambda^-2, lambda^-2*t, -(lambda^-2*t^2)], [0, 1, -(2*t)], [0, 0, lambda^2]
loci: t=0 { t = 0 }
loci: t!=0 { t != 0 }
"""


ADJOINT_CELL_BWB_TEXT = """
# big-cell matrices of the rank-one adjoint family
params: lambda, s, t
constraints: lambda != 0
matrix: [lambda^-2*s^2, -(s) + lambda^-2*t*s^2, -(lambda^2) + 2*s*t - lambda^-2*s^2*t^2], [2*lambda^-2*s, -(1) + 2*lambda^-2*s*t, 2*t - 2*lambda^-2*s*t^2], [-(lambda^-2), -(lambda^-2*t), lambda^-2*t^2]
loci: s=t=0 { s = 0; t = 0 }
loci: s=0 { s = 0; t != 0 }
loci: t=0 { t = 0; s != 0 }
loci: st=l2 { s*t = lambda^2; s != 0 }
loci: 2st=l2 { 2*s*t = lambda^2; s != 0; t != 0 }
"""


def conjugation_family() -> ParamFamily:
    return parse_family(CONJUGATION_FAMILY_TEXT, name="psl2-conj")


def adjoint_families() -> tuple[ParamFamily, ParamFamily]:
    return (parse_family(ADJOINT_CELL_B_TEXT, name="psl2-adj-B"),
            parse_family(ADJOINT_CELL_BWB_TEXT, name="psl2-adj-BwB"))
