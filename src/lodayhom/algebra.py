"""Weight-graded commutative augmented algebras presented by structure
constants, and the coefficient systems that sit at the basepoint.

Every algebra is connective: weights are non-negative, the weight-0 component
is spanned by the unit alone, and the augmentation kills the positive-weight
part.  Finite algebras carry an explicit structure-constant table; the
polynomial algebra k[t] is presented lazily with one monomial per weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import FieldSpec, make_field


class InvalidTruncation(ValueError):
    """truncated_poly was asked for fewer than two basis elements."""


class SchemaError(ValueError):
    """An algebra document does not match the file schema."""


class AlgebraAxiomError(ValueError):
    """A constructed algebra or a custom action violates one of its axioms."""

    def __init__(self, axiom: str, message: str):
        self.axiom = axiom
        super().__init__(f"{axiom}: {message}")


class FieldMismatch(ValueError):
    """Algebra and coefficient algebra live over different fields."""


def _cleaned(field: FieldSpec, lincomb: dict) -> dict:
    """``lincomb`` with int keys and scalars normalized in ``field``, its
    zero terms dropped."""
    return {int(k): n for k, v in lincomb.items()
            if (n := field.normalize(v)) != field.zero}


def multiply(algebra, x: dict, y: dict) -> dict:
    """The product x . y in ``algebra`` of two sparse linear combinations,
    each basis element of x on the left.  The result has no zero terms,
    and lists its terms in the order the products first reach them."""
    field = algebra.field
    zero = field.zero
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            ab = field.mul(a, b)
            for k, c in algebra.mul(i, j).items():
                out[k] = field.add(out.get(k, zero), field.mul(ab, c))
    return {k: v for k, v in out.items() if v != zero}


class GradedAlgebra:
    """Finite-basis commutative augmented algebra over an exact field."""

    __slots__ = ("field", "names", "weights", "unit", "_table", "_aug",
                 "_by_weight", "description")

    def __init__(self, field: FieldSpec, names, weights, unit, structure,
                 augmentation, description=""):
        self.field = field
        self.names = tuple(names)
        self.weights = tuple(int(w) for w in weights)
        self.unit = int(unit)
        self._table = {(int(i), int(j)): _cleaned(field, lin)
                       for (i, j), lin in structure.items()}
        self._aug = tuple(field.normalize(v) for v in augmentation)
        by_weight = {}
        for i, w in enumerate(self.weights):
            by_weight.setdefault(w, []).append(i)
        self._by_weight = {w: tuple(ix) for w, ix in by_weight.items()}
        self.description = description or "algebra"
        if len(self.names) != len(self.weights) or len(self._aug) != len(self.names):
            raise ValueError("basis, weights and augmentation lengths differ")
        if not (0 <= self.unit < len(self.names)):
            raise ValueError("unit index out of range")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def max_basis_weight(self) -> int:
        return max(self.weights)

    def weight(self, i: int) -> int:
        return self.weights[i]

    def name(self, i: int) -> str:
        return self.names[i]

    def aug(self, i: int):
        return self._aug[i]

    def mul(self, i: int, j: int) -> dict:
        """Product of basis elements as a sparse linear combination."""
        got = self._table.get((i, j))
        if got is not None:
            return got
        got = self._table.get((j, i))
        return got if got is not None else {}

    def indices_of_weight(self, w: int):
        return self._by_weight.get(w, ())

    def basis_indices(self, weight_bound=None):
        if weight_bound is None:
            return range(self.dim)
        return [i for i in range(self.dim) if self.weights[i] <= weight_bound]

    def mul_lincomb(self, lincomb: dict, j: int) -> dict:
        """Multiply a sparse linear combination by the basis element j."""
        return multiply(self, lincomb, {j: self.field.one})

    def __repr__(self) -> str:
        return f"<GradedAlgebra {self.description} dim={self.dim} over {self.field}>"


class PolynomialAlgebra:
    """The polynomial algebra k[t] with one monomial basis element per weight.

    The basis is never materialized as a whole; index i stands for t^i.
    Computations that consume it must bound the total weight.
    """

    __slots__ = ("field", "description")

    def __init__(self, field: FieldSpec):
        self.field = field
        self.description = "poly"

    @property
    def dim(self):
        return None

    @property
    def is_finite(self) -> bool:
        return False

    @property
    def max_basis_weight(self):
        return None

    unit = 0

    def weight(self, i: int) -> int:
        return i

    def name(self, i: int) -> str:
        return "1" if i == 0 else ("t" if i == 1 else f"t^{i}")

    def aug(self, i: int):
        return self.field.one if i == 0 else self.field.zero

    def mul(self, i: int, j: int) -> dict:
        return {i + j: self.field.one}

    def indices_of_weight(self, w: int):
        return (w,)

    def basis_indices(self, weight_bound=None):
        if weight_bound is None:
            raise ValueError("polynomial algebra needs a weight bound")
        return range(weight_bound + 1)

    def mul_lincomb(self, lincomb: dict, j: int) -> dict:
        return multiply(self, lincomb, {j: self.field.one})

    def __repr__(self) -> str:
        return f"<PolynomialAlgebra over {self.field}>"


def truncated_poly(field, m: int) -> GradedAlgebra:
    """k[t]/t^m with basis 1, t, ..., t^(m-1) and weight(t^i) = i."""
    field = make_field(field)
    if m < 2:
        raise InvalidTruncation("truncated polynomial algebra needs m >= 2")
    names = ["1"] + ["t" if i == 1 else f"t^{i}" for i in range(1, m)]
    weights = list(range(m))
    structure = {}
    for i in range(m):
        for j in range(i, m):
            structure[(i, j)] = {i + j: field.one} if i + j < m else {}
    aug = [field.one] + [field.zero] * (m - 1)
    return GradedAlgebra(field, names, weights, 0, structure, aug,
                         f"truncpoly({m})")


def polynomial(field) -> PolynomialAlgebra:
    """k[t], presented per weight."""
    return PolynomialAlgebra(make_field(field))


def exterior(field) -> GradedAlgebra:
    """The algebra k[x]/x^2 with x in weight 1, under its exterior name."""
    field = make_field(field)
    structure = {(0, 0): {0: field.one}, (0, 1): {1: field.one}, (1, 1): {}}
    return GradedAlgebra(field, ("1", "x"), (0, 1), 0, structure,
                         (field.one, field.zero), "exterior")


# --- validation ------------------------------------------------------------

@dataclass
class AlgebraValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "pass" if self.ok else "\n".join(
            f"{axiom}: {detail}" for axiom, detail in self.violations
        )


def _through_augmentation(algebra, unit: int):
    """The map sending basis element i of ``algebra`` to aug(i) times the
    basis element ``unit`` of another algebra."""
    zero = algebra.field.zero
    return lambda i: {unit: algebra.aug(i)} if algebra.aug(i) != zero else {}


def ring_map_violations(axiom: str, source, target, image, indices) -> list:
    """How ``image`` fails to be a ring map from ``source`` to ``target``,
    as ``(axiom, detail)`` pairs: it must send 1 to 1, keep weights and be
    multiplicative on the basis elements ``indices``.  ``image(i)`` is the
    image of basis element i in ``target``, with no zero terms."""
    field = source.field
    zero = field.zero
    v = []
    if image(source.unit) != {target.unit: field.one}:
        v.append((axiom, "1 is not sent to 1"))
    for i in indices:
        if any(target.weight(k) != source.weight(i) for k in image(i)):
            v.append((axiom, f"{source.name(i)} is not sent into weight "
                             f"{source.weight(i)}"))
    for i in indices:
        for j in indices:
            sent = {}  # the image of i * j, by linearity
            for k, c in source.mul(i, j).items():
                for r, s in image(k).items():
                    sent[r] = field.add(sent.get(r, zero), field.mul(c, s))
            sent = {r: s for r, s in sent.items() if s != zero}
            if multiply(target, image(i), image(j)) != sent:
                v.append((axiom, f"{source.name(i)} * {source.name(j)} is "
                                 "not sent to the product of their images"))
    return v


def validate_algebra(algebra, weight_bound=None) -> AlgebraValidationReport:
    """Check commutativity, associativity, unit law, weight-additivity and the
    augmentation, a ring map A -> k, on all basis tuples (up to weight_bound
    for lazily presented algebras)."""
    v = []
    one = algebra.field.one
    if not algebra.is_finite and weight_bound is None:
        raise ValueError("a weight bound is required for lazily presented algebras")
    indices = list(algebra.basis_indices(weight_bound))
    unit = algebra.unit
    if algebra.weight(unit) != 0:
        v.append(("weight", f"unit {algebra.name(unit)} has non-zero weight"))
    zero_weight = [i for i in indices if algebra.weight(i) == 0]
    if zero_weight != [unit]:
        v.append(("weight", "weight-0 component is not spanned by the unit alone"))
    if any(algebra.weight(i) < 0 for i in indices):
        v.append(("weight", "negative weight in the basis"))
    # products carry no zero terms, so dict equality is equality
    for j in indices:
        if algebra.mul(unit, j) != {j: one}:
            v.append(("unit", f"1 * {algebra.name(j)} != {algebra.name(j)}"))
    for i in indices:
        for j in indices:
            if algebra.mul(i, j) != algebra.mul(j, i):
                v.append(("commutativity",
                          f"{algebra.name(i)} * {algebra.name(j)} is asymmetric"))
            for k, c in algebra.mul(i, j).items():
                if algebra.weight(k) != algebra.weight(i) + algebra.weight(j):
                    v.append(("weight",
                              f"{algebra.name(i)} * {algebra.name(j)} hits "
                              f"{algebra.name(k)} outside weight "
                              f"{algebra.weight(i) + algebra.weight(j)}"))
    for i in indices:
        for j in indices:
            for k in indices:
                if multiply(algebra, algebra.mul(i, j), {k: one}) != \
                        multiply(algebra, {i: one}, algebra.mul(j, k)):
                    v.append(("associativity",
                              f"({algebra.name(i)}*{algebra.name(j)})*{algebra.name(k)}"
                              f" != {algebra.name(i)}*({algebra.name(j)}*{algebra.name(k)})"))
    v += ring_map_violations("augmentation", algebra,
                             unit_coefficient_algebra(algebra.field),
                             _through_augmentation(algebra, 0), indices)
    return AlgebraValidationReport(v)


# --- the algebra file schema -----------------------------------------------

def _parse_field_tag(tag) -> FieldSpec:
    if tag == "Q":
        return make_field("Q")
    if isinstance(tag, str) and tag.startswith("Fp:"):
        try:
            p = int(tag[3:])
        except ValueError:
            raise SchemaError(f"bad field tag {tag!r}") from None
        return make_field(p)
    raise SchemaError(f"bad field tag {tag!r}")


def _parse_coeff(value, field: FieldSpec):
    if isinstance(value, bool):
        raise SchemaError(f"bad coefficient {value!r}")
    if isinstance(value, int):
        return field.normalize(value)
    if isinstance(value, str):
        if field.is_rational and "/" in value:
            num, _, den = value.partition("/")
            try:
                return Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"bad rational coefficient {value!r}") from None
        try:
            return field.normalize(int(value))
        except ValueError:
            raise SchemaError(f"bad coefficient {value!r}") from None
    raise SchemaError(f"bad coefficient {value!r}")


def load_algebra(document) -> GradedAlgebra:
    """Build and fully validate a GradedAlgebra from its file document.

    Accepts a JSON string or an already-parsed mapping.  Missing structure
    entries default to the zero product.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError("algebra document must be a mapping")
    for key in ("field", "basis", "unit", "structure", "augmentation"):
        if key not in document:
            raise SchemaError(f"missing required key {key!r}")
    field = _parse_field_tag(document["field"])
    basis = document["basis"]
    if not isinstance(basis, list) or not basis:
        raise SchemaError("basis must be a non-empty list")
    names, weights = [], []
    for entry in basis:
        if not isinstance(entry, dict) or "name" not in entry or "weight" not in entry:
            raise SchemaError("each basis entry needs name and weight")
        if not isinstance(entry["weight"], int) or entry["weight"] < 0:
            raise SchemaError(f"bad weight for basis element {entry.get('name')!r}")
        names.append(str(entry["name"]))
        weights.append(entry["weight"])
    if len(set(names)) != len(names):
        raise SchemaError("duplicate basis names")
    index = {nm: i for i, nm in enumerate(names)}
    unit_name = document["unit"]
    if unit_name not in index:
        raise SchemaError(f"unit {unit_name!r} is not a basis element")
    structure = {}
    if not isinstance(document["structure"], list):
        raise SchemaError("structure must be a list")
    for entry in document["structure"]:
        if not isinstance(entry, dict) or not {"left", "right", "value"} <= set(entry):
            raise SchemaError("each structure entry needs left, right and value")
        if entry["left"] not in index or entry["right"] not in index:
            raise SchemaError(
                f"structure entry names unknown basis element "
                f"{entry['left']!r} or {entry['right']!r}")
        key = (index[entry["left"]], index[entry["right"]])
        if key in structure:
            raise SchemaError(f"duplicate structure entry for {entry['left']!r}, "
                              f"{entry['right']!r}")
        lin = {}
        if not isinstance(entry["value"], list):
            raise SchemaError("structure value must be a list")
        for term in entry["value"]:
            if not isinstance(term, dict) or "basis" not in term or "coeff" not in term:
                raise SchemaError("each structure term needs basis and coeff")
            if term["basis"] not in index:
                raise SchemaError(f"unknown basis element {term['basis']!r}")
            lin[index[term["basis"]]] = _parse_coeff(term["coeff"], field)
        structure[key] = lin
    augmentation = [field.zero] * len(names)
    if not isinstance(document["augmentation"], list):
        raise SchemaError("augmentation must be a list")
    for entry in document["augmentation"]:
        if not isinstance(entry, dict) or "basis" not in entry or "coeff" not in entry:
            raise SchemaError("each augmentation entry needs basis and coeff")
        if entry["basis"] not in index:
            raise SchemaError(f"unknown basis element {entry['basis']!r}")
        augmentation[index[entry["basis"]]] = _parse_coeff(entry["coeff"], field)
    algebra = GradedAlgebra(field, names, weights, index[unit_name], structure,
                            augmentation, description="file")
    report = validate_algebra(algebra)
    if not report.ok:
        axiom, detail = report.violations[0]
        raise AlgebraAxiomError(axiom, detail)
    return algebra


def dump_algebra(algebra: GradedAlgebra) -> dict:
    """Serialize a finite algebra back into its file document."""
    if not algebra.is_finite:
        raise ValueError("only finite algebras have a file form")
    field_tag = "Q" if algebra.field.is_rational else f"Fp:{algebra.field.p}"

    def fmt(v):
        if algebra.field.is_rational and v.denominator != 1:
            return f"{v.numerator}/{v.denominator}"
        return int(v)

    structure = []
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            lin = algebra.mul(i, j)
            if lin:
                structure.append({
                    "left": algebra.name(i), "right": algebra.name(j),
                    "value": [{"basis": algebra.name(k), "coeff": fmt(c)}
                              for k, c in sorted(lin.items())],
                })
    return {
        "field": field_tag,
        "basis": [{"name": algebra.name(i), "weight": algebra.weight(i)}
                  for i in range(algebra.dim)],
        "unit": algebra.name(algebra.unit),
        "structure": structure,
        "augmentation": [{"basis": algebra.name(i), "coeff": fmt(algebra.aug(i))}
                         for i in range(algebra.dim) if algebra.aug(i) != algebra.field.zero],
    }


# --- coefficients ----------------------------------------------------------

class Coefficients:
    """Coefficient system at the basepoint: the ground field through the
    augmentation, the algebra itself, or a custom augmented algebra with an
    explicit action."""

    __slots__ = ("mode", "algebra", "action")

    def __init__(self, mode, algebra=None, action=None):
        if mode not in ("unit", "self", "custom"):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        if mode == "custom" and algebra is None:
            raise ValueError("custom coefficients need a coefficient algebra")
        if mode == "custom" and not algebra.is_finite:
            raise ValueError("custom coefficient algebras must be finite")
        if mode != "custom" and (algebra is not None or action is not None):
            raise ValueError(f"{mode} coefficients take no algebra or action")
        self.mode = mode
        self.algebra = algebra
        # action=None in custom mode means: act through the augmentation of A
        self.action = None if action is None else tuple(dict(a) for a in action)

    def resolve(self, algebra):
        """``(C, action)`` for labels in ``algebra``: the coefficient algebra
        C and ``action(i)``, the image in C of basis element i of A with no
        zero terms.  A custom action that is no ring map A -> C raises
        ``AlgebraAxiomError`` with the axiom ``custom action``."""
        field = algebra.field
        if self.mode == "self":
            return algebra, (lambda i: {i: field.one})
        c_alg = (unit_coefficient_algebra(field) if self.mode == "unit"
                 else self.algebra)
        if c_alg.field != field:
            raise FieldMismatch(
                f"coefficient algebra over {c_alg.field}, algebra over {field}")
        if self.action is None:
            return c_alg, _through_augmentation(algebra, c_alg.unit)
        if not algebra.is_finite:
            raise ValueError("explicit custom actions need a finite algebra")
        if len(self.action) != algebra.dim:
            raise ValueError("action must list an image per basis element of A")
        action = [_cleaned(field, row) for row in self.action].__getitem__
        violations = ring_map_violations("custom action", algebra, c_alg,
                                         action, range(algebra.dim))
        if violations:
            raise AlgebraAxiomError(*violations[0])
        return c_alg, action

    @classmethod
    def unit(cls) -> "Coefficients":
        return cls("unit")

    @classmethod
    def self_algebra(cls) -> "Coefficients":
        return cls("self")

    @classmethod
    def custom(cls, algebra: GradedAlgebra, action) -> "Coefficients":
        """Custom coefficients; ``action`` lists, per basis element of A, its
        image in C as a sparse linear combination, or is None for the action
        through A -> k -> C."""
        return cls("custom", algebra, action)

    def __repr__(self) -> str:
        return f"Coefficients({self.mode})"


def unit_coefficient_algebra(field: FieldSpec) -> GradedAlgebra:
    """The one-dimensional algebra k, used in unit coefficient mode."""
    field = make_field(field)
    return GradedAlgebra(field, ("1",), (0,), 0, {(0, 0): {0: field.one}},
                         (field.one,), "k")


def parse_algebra_expr(text: str, field):
    """Evaluate the algebra grammar truncpoly(m) | poly | exterior |
    file(<path>) over the given field."""
    field = make_field(field)
    text = text.strip()
    if text == "poly":
        return polynomial(field)
    if text == "exterior":
        return exterior(field)
    if text.startswith("truncpoly(") and text.endswith(")"):
        inner = text[len("truncpoly("):-1]
        try:
            m = int(inner)
        except ValueError:
            raise ValueError(f"bad truncation {inner!r} in {text!r}") from None
        return truncated_poly(field, m)
    if text.startswith("file(") and text.endswith(")"):
        path = text[len("file("):-1]
        with open(path, "r", encoding="utf-8") as fh:
            algebra = load_algebra(fh.read())
        if algebra.field != field:
            raise ValueError(
                f"algebra file is over {algebra.field}, requested {field}")
        return algebra
    raise ValueError(f"bad algebra {text!r}: use truncpoly(m), poly, exterior "
                     "or file(<path>)")


def parse_coeff_expr(text: str, field) -> Coefficients:
    """Evaluate the coefficient grammar unit | self | file(<path>) over the
    given field; a file algebra is acted on through the augmentation of A.
    Surrounding whitespace is ignored, as in ``parse_algebra_expr``."""
    text = text.strip()
    if text == "unit":
        return Coefficients.unit()
    if text == "self":
        return Coefficients.self_algebra()
    if text.startswith("file(") and text.endswith(")"):
        return Coefficients.custom(parse_algebra_expr(text, field), None)
    raise ValueError(f"bad coefficients {text!r}: use unit, self or file(<path>)")
