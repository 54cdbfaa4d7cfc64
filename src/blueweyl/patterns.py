"""Realizable zero patterns of parametrized matrix families over small fields.

A family is a matrix of rational expressions in named parameters, subject to
polynomial equality and inequation constraints.  Sampling parameter values
over the rationals and a few prime fields (with targeted sampling on named
loci) yields a certified lower bound on the set of zero patterns the family
realizes: every reported pattern carries an exact witness.

The built-in families, the conjugation and adjoint images of PSL2, are
Python expressions whose operators build the expression trees (:class:`_Expr`).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import GroupModel


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# expression nodes: ("num", int) | ("var", name) | ("add"|"sub"|"mul"|"div", l, r)
# | ("neg", x) | ("pow", base, int)


def _tree(x):
    return x.tree if isinstance(x, _Expr) else ("num", x)


def _binary(kind: str):
    return (lambda x, y: _Expr((kind, x.tree, _tree(y))),
            lambda x, y: _Expr((kind, _tree(y), x.tree)))


class _Expr:
    """An expression tree built by Python's operators, with ints as numbers:
    ``-(x) + 2 * x ** -1`` is ``("add", ("neg", x), ("mul", ("num", 2),
    ("pow", x, -1)))``, each operation one node as written."""

    def __init__(self, tree: tuple):
        self.tree = tree

    __add__, __radd__ = _binary("add")
    __sub__, __rsub__ = _binary("sub")
    __mul__, __rmul__ = _binary("mul")
    __truediv__, __rtruediv__ = _binary("div")

    def __pow__(self, n: int) -> "_Expr":
        return _Expr(("pow", self.tree, n))

    def __neg__(self) -> "_Expr":
        return _Expr(("neg", self.tree))


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


# ---------------------------------------------------------------------------
# Exact reference evaluation over Q and the small fields
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


# the fields every family is sampled over, in report order: the rationals,
# F2 and F4 for characteristic 2 (some patterns need a char-2 field larger
# than the prime field), F3 and F5
SAMPLE_FIELDS = (SampleField(0), SampleField(2, 2), SampleField(2, 4),
                 SampleField(3, 3), SampleField(5, 5))


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


@dataclass(frozen=True)
class ParamFamily:
    """A parametrized matrix with constraints and named sampling loci.

    The parameters are distinct, and every name in the matrix, the
    constraints and the loci is one of them.
    """

    params: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    matrix: tuple[tuple[object, ...], ...]
    loci: dict
    name: str

    def __post_init__(self):
        # the compiled code reads every name as a position in params
        if len(set(self.params)) != len(self.params):
            twice = {p for p in self.params if self.params.count(p) > 1}
            raise ValueError(f"duplicate parameters {sorted(twice)}")
        exprs = [entry for row in self.matrix for entry in row]
        exprs += [c.expr for cs in (self.constraints, *self.loci.values()) for c in cs]
        for expr in exprs:
            bad = expression_vars(expr) - set(self.params)
            if bad:
                raise ValueError(f"undeclared parameters {sorted(bad)}")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)


# ---------------------------------------------------------------------------
# Compiled evaluation: straight-line code over one field
# ---------------------------------------------------------------------------

# A compiled function takes the parameter values as one sequence in parameter
# order.  Over F_p and F4 a value is the field's int, as in SampleField; over Q
# it is an unnormalised pair (numerator, denominator) of ints, zero exactly
# when its numerator is.  Slot i is the local s<i> (the pair n<i>, d<i> over
# Q).  Every operand of every node is computed, as `evaluate` computes it, so
# a function raises EvaluationError exactly when `evaluate` raises on one of
# its expressions.

_RAISE = "raise E('division by zero')"

_Q_LINES = {
    "var": ("n{i}, d{i} = v[{a}]",),
    "num": ("n{i}, d{i} = {a}, 1",),
    "add": ("n{i} = n{a} * d{b} + n{b} * d{a}", "d{i} = d{a} * d{b}"),
    "sub": ("n{i} = n{a} * d{b} - n{b} * d{a}", "d{i} = d{a} * d{b}"),
    "mul": ("n{i} = n{a} * n{b}", "d{i} = d{a} * d{b}"),
    "div": ("if not n{b}: " + _RAISE, "n{i} = n{a} * d{b}", "d{i} = d{a} * n{b}"),
    "neg": ("n{i} = -n{a}", "d{i} = d{a}"),
    "pow": ("n{i} = n{a} ** {b}", "d{i} = d{a} ** {b}"),
    "inv": ("if not n{a}: " + _RAISE, "n{i} = d{a} ** {b}", "d{i} = n{a} ** {b}"),
}

_PRIME_LINES = {
    "var": ("s{i} = v[{a}]",),
    "num": ("s{i} = {a}",),
    "add": ("s{i} = (s{a} + s{b}) % {p}",),
    "sub": ("s{i} = (s{a} - s{b}) % {p}",),
    "mul": ("s{i} = s{a} * s{b} % {p}",),
    "div": ("if not s{b}: " + _RAISE, "s{i} = s{a} * pow(s{b}, {p} - 2, {p}) % {p}"),
    "neg": ("s{i} = -s{a} % {p}",),
    "pow": ("s{i} = pow(s{a}, {b}, {p})",),
    "inv": ("if not s{a}: " + _RAISE, "s{i} = pow(s{a}, -{b}, {p})"),
}

# over F4, M and I are the product and inverse tables; a nonzero element has
# order dividing 3, so a power is 1, the base, its square or its cube
_F4_LINES = {
    "var": ("s{i} = v[{a}]",),
    "num": ("s{i} = {a}",),
    "add": ("s{i} = s{a} ^ s{b}",),
    "sub": ("s{i} = s{a} ^ s{b}",),
    "mul": ("s{i} = M[s{a}][s{b}]",),
    "div": ("if not s{b}: " + _RAISE, "s{i} = M[s{a}][I[s{b}]]"),
    "neg": ("s{i} = s{a}",),
    "pow0": ("s{i} = 1",),
    "pow1": ("s{i} = s{a}",),
    "pow2": ("s{i} = M[s{a}][s{a}]",),
    "pow3": ("s{i} = M[s{a}][M[s{a}][s{a}]]",),
    "inv": ("if not s{a}: " + _RAISE,),
}


class _StraightLine:
    """One function body: a numbered slot per distinct subterm, in operand order."""

    def __init__(self, F: SampleField, params: Sequence[str]):
        self.F = F
        self.position = {p: k for k, p in enumerate(params)}
        self.slots: dict[tuple, int] = {}
        self.lines: list[str] = []

    def slot(self, expr) -> int:
        kind = expr[0]
        if kind == "var":
            key = ("var", self.position[expr[1]])
        elif kind == "num":
            key = ("num", self.F.from_int(expr[1]) if self.F.characteristic else expr[1])
        elif kind in ("neg", "pow"):
            key = (kind, self.slot(expr[1])) + expr[2:]
        else:
            key = (kind, self.slot(expr[1]), self.slot(expr[2]))
        if key not in self.slots:
            self.slots[key] = len(self.slots)
            self._emit(self.slots[key], key)
        return self.slots[key]

    def _emit(self, i: int, key: tuple) -> None:
        F, kind, a, b = self.F, key[0], key[1], (key + (None,))[2]
        table = (_Q_LINES if not F.characteristic
                 else _F4_LINES if F.size == 4 else _PRIME_LINES)
        steps = [kind]
        if kind == "pow" and b < 0:
            steps, b = ["inv"], -b
            if F.size == 4:  # a^-b == a^(-b mod 3) once a is known to be nonzero
                steps.append(f"pow{-b % 3}")
        elif kind == "pow" and F.size == 4:
            steps = [f"pow{b and (b % 3 or 3)}"]
        for step in steps:
            self.lines.extend(line.format(i=i, a=a, b=b, p=F.characteristic)
                              for line in table[step])

    def function(self, exprs, value: bool) -> str:
        """Source of ``f(v)``.

        With ``value`` it returns the value of the one expression in exprs;
        without, a tuple with one entry per expression, falsy exactly when
        the expression is zero (over Q, its numerator).
        """
        slots = [self.slot(e) for e in exprs]
        if self.F.characteristic:
            out = [f"s{i}" for i in slots]
        else:
            out = [f"(n{i}, d{i})" if value else f"n{i}" for i in slots]
        result = out[0] if value else f"({''.join(o + ', ' for o in out)})"
        lines = self.lines + [f"return {result}"]
        return "def f(v):\n" + "".join(f"    {line}\n" for line in lines)


def _compiled(source: str, tag: str):
    scope = {"E": EvaluationError, "M": _F4_MUL, "I": _F4_INV}
    exec(compile(source, f"<{tag} straight-line code>", "exec"), scope)
    return scope["f"]


@dataclass(frozen=True)
class CompiledFamily:
    """A family's matrix and constraints as straight-line Python over one field.

    ``matrix(v)`` returns the entries in row-major order, each zero exactly
    when falsy (over Q, the numerators); ``constraints[c](v)`` returns the
    value of constraint ``c``.  ``v`` holds the parameter values in
    parameter order, over Q as (numerator, denominator) pairs.
    """

    matrix: object
    constraints: dict
    source: str


def compile_family(family: ParamFamily, F: SampleField) -> CompiledFamily:
    """Compile the matrix entries and every constraint, loci included, for F.

    The generated source holds only slot names, parameter positions, integer
    literals and fixed operators; no text of the family reaches it.
    """
    entries = [e for row in family.matrix for e in row]
    constraints = dict.fromkeys(
        family.constraints + tuple(c for cs in family.loci.values() for c in cs))
    sources = [_StraightLine(F, family.params).function(entries, value=False)]
    sources += [_StraightLine(F, family.params).function([c.expr], value=True)
                for c in constraints]
    functions = [_compiled(source, F.tag) for source in sources]
    return CompiledFamily(functions[0], dict(zip(constraints, functions[1:])),
                          "".join(sources))


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


def _is_zero(F: SampleField, value) -> bool:
    """Zero test of a compiled value (a pair over Q)."""
    return not (value if F.characteristic else value[0])


def _affine_root(F: SampleField, e0, e1, e2=None):
    """The root of the affine map that takes 0, 1 (and 2) to e0, e1 (and e2).

    Values are compiled ones (pairs over Q).  None when the three values are
    not collinear or the slope is zero.  Over F4 the third point is w, the
    int 2 as well.  Over Q the root is the pair in lowest terms with a
    positive denominator, the numerator and denominator of its ``Fraction``.
    """
    if not F.characteristic:
        (n0, d0), (n1, d1), (n2, d2) = e0, e1, e2
        slope_n, slope_d = n1 * d0 - n0 * d1, d1 * d0
        if not slope_n or n2 * slope_d * d0 != (2 * slope_n * d0 + n0 * slope_d) * d2:
            return None
        num, den = -n0 * slope_d, d0 * slope_n
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        return num // g, den // g
    slope = F.sub(e1, e0)
    if not slope or (e2 is not None and F.sub(e2, F.add(F.mul(slope, 2), e0))):
        return None
    return F.div(F.sub(0, e0), slope)


def _randbelow(rng: random.Random):
    """``randbelow(n)``, a uniform draw from [0, n) for n > 0 off
    ``rng.getrandbits``, as ``Random._randbelow_with_getrandbits`` draws it.

    So ``randbelow(n)`` is ``rng.randrange(n)``, ``a + randbelow(b - a + 1)``
    is ``rng.randint(a, b)`` and :func:`_shuffled` is ``rng.shuffle``, draw
    for draw, without the wrappers' argument checks.
    """
    getrandbits = rng.getrandbits

    def randbelow(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return randbelow


def _shuffled(n: int, randbelow) -> list[int]:
    """``range(n)`` in the order ``rng.shuffle`` leaves it: the same
    Fisher-Yates loop over the :func:`_randbelow` draws of ``rng``."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = randbelow(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _try_repair(values: list, checks: Sequence[tuple], F: SampleField,
                randbelow) -> bool:
    """Fix violated equalities by solving for one parameter when linear in it.

    ``checks`` holds (compiled constraint, equality, positions of its
    parameters).  The parameters are tried in the order :func:`_shuffled`
    draws with ``randbelow``.  Linearity in the chosen parameter is probed
    at three distinct field elements (two over F2, where every function of
    one variable is affine); a final exact re-check of every constraint
    guards the result, so a bad repair only costs the sample.
    """
    probes = [(0, 1), (1, 1), (2, 1)] if not F.characteristic else [0, 1, 2][:F.size]
    for constraint, equality, involved in checks:
        if not equality:
            continue
        try:
            if _is_zero(F, constraint(values)):
                continue
        except EvaluationError:
            return False
        for k in _shuffled(len(values), randbelow):
            if k not in involved:
                continue
            probe = list(values)
            images = []
            try:
                for x in probes:
                    probe[k] = x
                    images.append(constraint(probe))
            except EvaluationError:
                continue
            root = _affine_root(F, *images)
            if root is not None:
                values[k] = root
                break
        else:
            return False
    return True


_SATURATION_STREAK = 150


def _cell_rng(seed: int, family: str, tag: str, locus: str) -> random.Random:
    digest = zlib.crc32(f"{seed}:{family}:{tag}:{locus}".encode("utf-8"))
    return random.Random(digest)


def zero_pattern(family: ParamFamily, values: dict, F: SampleField) -> frozenset:
    """The 1-based (row, column) positions of the entries that vanish at values.

    This is the reference evaluator, independent of the compiled code that
    sampling runs; witnesses are re-checked through it.
    """
    return frozenset((i, j) for i, row in enumerate(family.matrix, 1)
                     for j, entry in enumerate(row, 1) if not evaluate(entry, values, F))


def realizable_patterns(family: ParamFamily, samples: int, seed: int) -> PatternReport:
    """Sample the family and report the distinct zero patterns with witnesses.

    The result is a certified lower bound: each witness re-evaluates to its
    pattern exactly (rationals and small fields only, no floating point).
    Each (field, locus) cell draws from its own seeded stream and may stop
    early once a long streak of samples stops producing new patterns, so
    reported pattern sets are monotone in ``samples``.  Unsatisfiable
    constraint systems produce a per-field warning rather than an error.

    Samples run through ``compile_family``: the family compiled, once per
    call and field, to straight-line code with one slot per distinct
    subterm.  Over Q a value there is an unnormalised pair of ints, and a
    ``Fraction`` is built only for a witness.
    ``evaluate`` and ``zero_pattern`` stay the reference evaluator, which
    ``reevaluate_witness`` runs on every witness.
    """
    if samples < 1:
        raise ValueError("at least one sample required")
    all_loci: dict[str, tuple[Constraint, ...]] = {"generic": ()}
    all_loci.update(family.loci)
    involved = {c: frozenset(map(family.params.index, expression_vars(c.expr)))
                for cs in (family.constraints, *all_loci.values()) for c in cs}
    positions = [(i, j) for i, row in enumerate(family.matrix, 1)
                 for j in range(1, len(row) + 1)]
    patterns: dict = {}
    warnings = []
    for F in SAMPLE_FIELDS:
        code = compile_family(family, F)
        for locus_name in sorted(all_loci):
            randbelow = _randbelow(_cell_rng(seed, family.name, F.tag, locus_name))
            checks = [(code.constraints[c], c.equality, involved[c])
                      for c in family.constraints + all_loci[locus_name]]
            hits = 0
            stale = 0
            for _ in range(samples):
                if hits >= _SATURATION_STREAK and stale >= _SATURATION_STREAK:
                    break
                if F.characteristic:
                    values = [randbelow(F.size) for _ in family.params]
                else:  # a draw of Fraction(randint(-9, 9), randint(1, 5)), unnormalised
                    values = [(randbelow(19) - 9, randbelow(5) + 1)
                              for _ in family.params]
                if not _try_repair(values, checks, F, randbelow):
                    continue
                try:
                    if any(_is_zero(F, constraint(values)) != equality
                           for constraint, equality, _ in checks):
                        continue
                    entries = code.matrix(values)
                except EvaluationError:
                    continue
                pattern = frozenset(pos for pos, e in zip(positions, entries) if not e)
                hits += 1
                info = patterns.setdefault(pattern, {"fields": set(), "witnesses": []})
                if F.tag not in info["fields"]:
                    info["fields"].add(F.tag)
                    exact = values if F.characteristic else [Fraction(*v) for v in values]
                    rendered = tuple(sorted((p, str(x)) for p, x in zip(family.params, exact)))
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


def _vars(names: str) -> list[_Expr]:
    return [_Expr(("var", name)) for name in names.split()]


def _eq(lhs, rhs) -> Constraint:
    return Constraint(("sub", _tree(lhs), _tree(rhs)), True)


def _ne(lhs, rhs) -> Constraint:
    return Constraint(("sub", _tree(lhs), _tree(rhs)), False)


def _family(name: str, params: list[_Expr], constraints: list[Constraint],
            rows: list[list], loci: dict[str, list[Constraint]]) -> ParamFamily:
    return ParamFamily(tuple(p.tree[1] for p in params), tuple(constraints),
                       tuple(tuple(map(_tree, row)) for row in rows),
                       {locus: tuple(cs) for locus, cs in loci.items()}, name)


def conjugation_family() -> ParamFamily:
    """The image of a determinant-one 2x2 matrix acting by conjugation on
    2x2 matrices."""
    a, b, c, d = params = _vars("a b c d")
    return _family("psl2-conj", params, [_eq(a * d - b * c, 1)], [
        [a * d, -(a * c), b * d, -(b * c)],
        [-(a * b), a ** 2, -(b ** 2), a * b],
        [c * d, -(c ** 2), d ** 2, -(c * d)],
        [-(b * c), a * c, -(b * d), a * d],
    ], {"a=0": [_eq(a, 0)], "b=0": [_eq(b, 0)], "c=0": [_eq(c, 0)], "d=0": [_eq(d, 0)],
        "a=d=0": [_eq(a, 0), _eq(d, 0)], "b=c=0": [_eq(b, 0), _eq(c, 0)]})


def adjoint_families() -> tuple[ParamFamily, ParamFamily]:
    """The rank-one adjoint family on its two cells: upper-triangular
    matrices (B) and the big cell (BwB)."""
    lam, t = params = _vars("lambda t")
    cell_b = _family("psl2-adj-B", params, [_ne(lam, 0)], [
        [lam ** -2, lam ** -2 * t, -(lam ** -2 * t ** 2)],
        [0, 1, -(2 * t)],
        [0, 0, lam ** 2],
    ], {"t=0": [_eq(t, 0)], "t!=0": [_ne(t, 0)]})
    lam, s, t = params = _vars("lambda s t")
    one = _Expr(("num", 1))
    cell_bwb = _family("psl2-adj-BwB", params, [_ne(lam, 0)], [
        [lam ** -2 * s ** 2, -s + lam ** -2 * t * s ** 2,
         -(lam ** 2) + 2 * s * t - lam ** -2 * s ** 2 * t ** 2],
        [2 * lam ** -2 * s, -one + 2 * lam ** -2 * s * t, 2 * t - 2 * lam ** -2 * s * t ** 2],
        [-(lam ** -2), -(lam ** -2 * t), lam ** -2 * t ** 2],
    ], {"s=t=0": [_eq(s, 0), _eq(t, 0)],
        "s=0": [_eq(s, 0), _ne(t, 0)],
        "t=0": [_eq(t, 0), _ne(s, 0)],
        "st=l2": [_eq(s * t, lam ** 2), _ne(s, 0)],
        "2st=l2": [_eq(2 * s * t, lam ** 2), _ne(s, 0), _ne(t, 0)]})
    return cell_b, cell_bwb
