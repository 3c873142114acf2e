"""Problem data for the singular semilinear equation and shared solver types.

Two sign conventions are supported for ``P u = RHS(u)``:

* absorption:  RHS = A/u^p - B u^q   (the power term damps growth)
* source:      RHS = A/u^p + B u^q   (the power term feeds growth; B >= 0)

``A`` must be strictly positive; exponents satisfy p > 1 and q > 1.  In
source mode the theory needs a compact embedding, so q < 2n/(n-4) - 1 is
enforced strictly and the borderline value runs best-effort with a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CertificateError, GridMismatchError
from .geometry import GeometryParams, ScalarField, SpectralGrid
from .operator import PaneitzOperator, _inject

__all__ = [
    "ABSORPTION",
    "SOURCE",
    "ProblemSpec",
    "Bracket",
    "SolverReport",
    "reaction",
    "reaction_derivative",
    "smoothed_reaction",
    "energy",
    "residual_sup",
    "floor_flag",
    "power_norm_order",
]

ABSORPTION = "absorption"
SOURCE = "source"


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient fields, exponents and the nonlinearity sign mode."""

    A: ScalarField
    B: ScalarField
    p: float
    q: float
    mode: str = ABSORPTION

    def __post_init__(self):
        if self.mode not in (ABSORPTION, SOURCE):
            raise ValueError(f"mode must be '{ABSORPTION}' or '{SOURCE}'")
        if self.A.grid != self.B.grid:
            raise GridMismatchError("A and B live on different grids")
        if self.A.min() <= 0.0:
            raise ValueError("A must be strictly positive everywhere")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.q > 1.0:
            raise ValueError(f"q must exceed 1, got {self.q}")
        if self.mode == SOURCE and self.B.min() < 0.0:
            raise ValueError("source mode requires B >= 0 pointwise")

    @property
    def grid(self):
        return self.A.grid

    @property
    def sign(self) -> float:
        return -1.0 if self.mode == ABSORPTION else 1.0

    def validate_exponents(self, params: GeometryParams) -> None:
        """Mode-dependent admissibility of q against the critical exponent.

        Absorption accepts any q > 1 (no embedding is needed for the monotone
        scheme).  Source mode requires q < 2#-1; equality is allowed but runs
        best-effort with a warning since compactness is borderline.
        """
        qmax = params.two_sharp - 1.0
        if self.mode == SOURCE:
            if self.q > qmax + 1e-12:
                raise ValueError(
                    f"source mode needs q <= {qmax} (= 2#-1), got {self.q}"
                )
            if abs(self.q - qmax) <= 1e-12:
                warnings.warn(
                    "q equals the critical exponent 2#-1; proceeding best-effort",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def with_B(self, B: ScalarField) -> "ProblemSpec":
        return ProblemSpec(self.A, B, self.p, self.q, self.mode)

    def injected(self, grid: SpectralGrid) -> "ProblemSpec":
        """The problem on ``grid``, ``A`` and ``B`` taken by injection when
        ``grid`` is coarser than the problem's own."""
        if grid == self.grid:
            return self
        A, B = (ScalarField(grid, _inject(f.values, grid)) for f in (self.A, self.B))
        return ProblemSpec(A, B, self.p, self.q, self.mode)


def power_norm_order(params: GeometryParams, q: float, strict: bool = True) -> float:
    """Exponent s = 2# / (2# - q - 1) for the B-norm in the source condition.

    Returns inf at the borderline q = 2# - 1.  With ``strict`` the borderline
    (and beyond) raises, matching the certificate's domain of validity.
    """
    denom = params.two_sharp - q - 1.0
    if denom < -1e-12 or (strict and denom <= 1e-12):
        raise CertificateError(
            f"norm order degenerates: q = {q} not below 2#-1 = {params.two_sharp - 1}"
        )
    if denom <= 1e-12:
        return math.inf
    return params.two_sharp / denom

def reaction(prob: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """f(x, u) = A/u^p -/+ B u^q pointwise; u must be positive."""
    return prob.A.values / u**prob.p + prob.sign * prob.B.values * u**prob.q


def reaction_derivative(prob: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """df/du = -p A/u^(p+1) -/+ q B u^(q-1) pointwise; u must be positive."""
    return (-prob.p * prob.A.values / u ** (prob.p + 1.0)
            + prob.sign * prob.q * prob.B.values * u ** (prob.q - 1.0))


def smoothed_reaction(prob: ProblemSpec, u: np.ndarray, eps: float) -> np.ndarray:
    """Regularized source-mode right side A u+/(eps+(u+)^2)^((p+1)/2) + B (u+)^q.

    At eps = 0 and u > 0 this reduces to the exact reaction.  Only meaningful
    in source mode (the regularized functional's Euler-Lagrange right side).
    """
    up = np.maximum(u, 0.0)
    sing = prob.A.values * up * (eps + up**2) ** (-(prob.p + 1) / 2.0)
    return sing + prob.B.values * up**prob.q


@dataclass(frozen=True)
class Bracket:
    """Sub/supersolution pair of constants ``s1 <= s2`` on ``grid``.

    The constant s1 is expected to be a subsolution and s2 a supersolution,
    which :func:`paneitzlab.monotone.verify_bracket` checks pointwise.
    """

    s1: float
    s2: float
    grid: SpectralGrid

    def __post_init__(self):
        if not (self.s1 > 0 and self.s2 >= self.s1):
            raise ValueError(f"need 0 < s1 <= s2, got ({self.s1}, {self.s2})")

    @property
    def lower(self) -> ScalarField:
        return ScalarField.constant(self.grid, self.s1)

    @property
    def upper(self) -> ScalarField:
        return ScalarField.constant(self.grid, self.s2)


@dataclass
class SolverReport:
    """Outcome of one nonlinear solve.

    ``residual`` is the sup-norm of ``P u - RHS(u)`` at the returned field.
    Mountain-pass runs additionally carry the pass level and the
    endpoint/rim energies, and ``eps_trace`` holds their Newton polish at
    eps = 0, one per grid, coarsest first, each naming its grid ``sizes``
    (``extras.levels`` counts them); an absorption continuation's
    ``eps_trace`` holds one entry per schedule entry.  Monotone and
    continuation reports count their grids in ``extras.levels`` too.
    """

    u: ScalarField
    residual: float
    iterations: int
    converged: bool
    method: str
    monotone_ok: bool | None = None
    bracket: Bracket | None = None
    pass_level: float | None = None
    rim_value: float | None = None
    energy_at_endpoints: tuple[float, float] | None = None
    energy_at_r0: float | None = None
    energy_at_solution: float | None = None
    eps_trace: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)

    def summary(self) -> dict:
        out = {
            "method": self.method,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "min_u": self.u.min(),
            "max_u": self.u.max(),
        }
        for name in ("monotone_ok", "pass_level", "rim_value", "energy_at_r0",
                     "energy_at_solution"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        if self.energy_at_endpoints is not None:
            out["energy_at_endpoints"] = list(self.energy_at_endpoints)
        if self.bracket is not None:
            out["bracket"] = {"s1": self.bracket.s1, "s2": self.bracket.s2}
        if self.eps_trace:
            out["eps_trace"] = self.eps_trace
        if self.extras:
            out["extras"] = self.extras
        return out


def residual_sup(op: PaneitzOperator, prob: ProblemSpec, u: np.ndarray) -> float:
    """||P u - RHS(u)||_inf at positive grid values ``u``."""
    return float(np.abs(op.apply_values(u) - reaction(prob, u)).max())


def floor_flag(op: PaneitzOperator, u: np.ndarray, resid: float, tol: float) -> dict:
    """``{"residual_floor": floor}`` when the round-off floor of ``P u``, not
    ``tol``, let ``resid`` stop a loop (``tol < resid <= floor``), else ``{}``.

    Every loop on ``P u = f(u)`` stops at ``max(tol, op.roundoff_floor(u))``;
    a report merges this in, so a stop below its tolerance adds no key.
    """
    floor = op.roundoff_floor(u)
    return {"residual_floor": floor} if tol < resid <= floor else {}


# -- energy functionals -------------------------------------------------------


def _integrals(grid, values):
    """Quadrature over the trailing grid axes: one value per stacked field."""
    return np.sum(values, axis=tuple(range(-grid.d, 0))) * grid.cell_weight


def _energy_values(op, prob, eps, values, pvalues=None):
    """Regularized action of one field, or of each field in a stack.

    A leading axis of ``values`` indexes a stack of fields.  ``pvalues`` is
    the image ``P values`` when the caller already holds it; ``P`` is
    applied only when it is not given.
    """
    grid = op.grid
    if pvalues is None:
        pvalues = op.apply_values(values)
    up = np.maximum(values, 0.0)
    quad = 0.5 * _integrals(grid, values * pvalues)
    sing = _integrals(grid, prob.A.values * (eps + up**2) ** (-(prob.p - 1) / 2.0))
    power = _integrals(grid, prob.B.values * up ** (prob.q + 1.0))
    return quad + sing / (prob.p - 1.0) - prob.sign * power / (prob.q + 1.0)


def energy(op: PaneitzOperator, prob: ProblemSpec, eps: float,
           u: ScalarField, pvalues: np.ndarray | None = None) -> float:
    """Action of either sign mode, regularized by ``eps`` in source mode.

    E_eps(u) = 1/2 <u, P u> + 1/(p-1) * int A (eps+(u+)^2)^{-(p-1)/2}
               -/+ 1/(q+1) * int B (u+)^{q+1}

    with ``-`` in source mode and ``+`` in absorption mode.  At ``eps = 0``
    it is the Lyapunov energy of the gradient flow and takes only fields
    bounded away from zero; ``eps > 0`` is allowed in source mode only.
    ``pvalues`` is ``P u`` when the caller already holds it.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps > 0.0 and prob.mode != SOURCE:
        raise ValueError("the regularized action (eps > 0) is defined for the source mode")
    if eps == 0.0 and u.min() <= 0.0:
        raise ValueError("eps = 0 requires min(u) > 0")
    op._check_grid(u)
    return float(_energy_values(op, prob, eps, u.values, pvalues))
