"""Horner-form evaluation of fitted polynomials (Section 5.1).

"Evaluating polynomials of high degrees at run-time showed a noticeable
negative impact on the performance of the JPEG decoder.  We rearranged
all polynomials in Horner form to reduce the number of multiplications."

A multivariate polynomial is rearranged recursively: collect by the
power of the first variable — the coefficients are polynomials in the
remaining variables — and evaluate with nested Horner steps.  The
multiplication counters let the A5 ablation benchmark quantify the
saving against naive monomial evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from .regression import PolynomialModel


@dataclass
class OpCount:
    """Multiplication/addition counters for an evaluation strategy."""

    mults: int = 0
    adds: int = 0


@dataclass
class _Node:
    """One level of the nested-Horner tree.

    ``coeffs_by_power[p]`` is the sub-polynomial (over the remaining
    variables) multiplying ``x^p``; a leaf stores a float constant.
    """

    var: int
    coeffs_by_power: list["float | _Node"] = field(default_factory=list)


def _build(terms: dict[tuple[int, ...], float], var: int, n_vars: int) -> "float | _Node":
    if not terms:
        return 0.0
    if var == n_vars:
        # all exponents exhausted: a single constant remains
        return sum(terms.values())
    max_pow = max(e[var] for e in terms)
    groups: list[dict[tuple[int, ...], float]] = [dict() for _ in range(max_pow + 1)]
    for exp, coef in terms.items():
        groups[exp[var]][exp] = coef
    node = _Node(var=var)
    for p in range(max_pow + 1):
        node.coeffs_by_power.append(_build(groups[p], var + 1, n_vars))
    return node


def _eval(node: "float | _Node", x: np.ndarray, count: OpCount | None) -> float:
    if not isinstance(node, _Node):
        return float(node)
    xv = float(x[node.var])
    # Horner step over powers of x_var, highest power first
    acc = _eval(node.coeffs_by_power[-1], x, count)
    for sub in reversed(node.coeffs_by_power[:-1]):
        acc = acc * xv + _eval(sub, x, count)
        if count is not None:
            count.mults += 1
            count.adds += 1
    return acc


def _flatten(node: "float | _Node") -> tuple:
    """The tree as ``(var, children, leaf)`` with *children* highest
    power first: plain floats when *leaf*, else flattened nodes (a lone
    constant becomes a one-child leaf)."""
    if not isinstance(node, _Node):
        return 0, (float(node),), True
    kids = node.coeffs_by_power[::-1]
    if not any(isinstance(k, _Node) for k in kids):
        return node.var, tuple(float(k) for k in kids), True
    return node.var, tuple(_flatten(k) for k in kids), False


def _horner(step: tuple, x: list[float]) -> float:
    """:func:`_eval` on Python floats over a :func:`_flatten`\\ ed tree:
    the same multiplications and additions on the same operands, in
    the same order, so the result is bit-identical."""
    var, kids, leaf = step
    xv = x[var]
    if leaf:
        acc = kids[0]
        for c in kids[1:]:
            acc = acc * xv + c
        return acc
    acc = _horner(kids[0], x)
    for kid in kids[1:]:
        acc = acc * xv + _horner(kid, x)
    return acc


class HornerPolynomial:
    """A :class:`PolynomialModel` rearranged for cheap evaluation."""

    def __init__(self, model: PolynomialModel) -> None:
        self.model = model
        terms = {
            exp: float(c)
            for exp, c in zip(model.exponents, model.coefficients)
        }
        self._root = _build(terms, 0, model.n_vars)
        self._steps = _flatten(self._root)
        self._scale = [float(s) for s in np.broadcast_to(
            model.scale, (model.n_vars,))]

    def evaluate(self, *values: float, count: OpCount | None = None) -> float:
        if len(values) != self.model.n_vars:
            raise ModelError(
                f"expected {self.model.n_vars} values, got {len(values)}"
            )
        if count is not None:
            x = np.asarray(values, dtype=np.float64) / self.model.scale
            return _eval(self._root, x, count)
        return _horner(self._steps, [float(v) / s
                                     for v, s in zip(values, self._scale)])

    def __call__(self, *values: float) -> float:
        return self.evaluate(*values)


def naive_evaluate(model: PolynomialModel, *values: float,
                   count: OpCount | None = None) -> float:
    """Term-by-term monomial evaluation — the baseline Horner replaces."""
    if len(values) != model.n_vars:
        raise ModelError(f"expected {model.n_vars} values, got {len(values)}")
    x = np.asarray(values, dtype=np.float64) / model.scale
    total = 0.0
    for exp, coef in zip(model.exponents, model.coefficients):
        term = float(coef)
        for v, p in enumerate(exp):
            for _ in range(p):
                term *= float(x[v])
                if count is not None:
                    count.mults += 1
        total += term
        if count is not None:
            count.adds += 1
    return total


def horner_mult_count(poly: HornerPolynomial) -> int:
    """Multiplications one evaluation performs (for the ablation)."""
    count = OpCount()
    poly.evaluate(*([1.0] * poly.model.n_vars), count=count)
    return count.mults


def naive_mult_count(model: PolynomialModel) -> int:
    """Multiplications naive evaluation performs."""
    count = OpCount()
    naive_evaluate(model, *([1.0] * model.n_vars), count=count)
    return count.mults
