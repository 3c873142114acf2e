"""Analytic coefficients of the Einstein-form fourth-order operator and the
periodic computational lattice.

The analytic dimension ``n`` fixes exponents and the constant coefficients of
the operator; the lattice dimension ``d`` (1 to 3) is independent of it and
only controls the grid on which fields are sampled.  The closed manifold is
modelled by a flat periodic box: integrals become quadrature-weighted sums and
the volume is the box volume.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np
import scipy.fft

from .errors import FieldFileError, GridMismatchError, PaneitzLabError

__all__ = [
    "GeometryParams",
    "SpectralGrid",
    "ScalarField",
    "derive_coefficients",
    "gradient_squared",
    "lebesgue_norm",
    "save_field",
    "load_field",
    "field_to_csv",
]


@dataclass(frozen=True)
class GeometryParams:
    """Constant coefficients of the fourth-order operator on an Einstein model.

    The operator symbol is ``sigma(t) = t^2 + alpha*t`` acting in frequency
    space (``t`` is the eigenvalue of the positive Laplacian), and the full
    zeroth-order multiplier is carried separately as a potential.  ``beta`` is
    the constant zeroth-order coefficient, tied to the curvature constant by
    ``beta = b_n * Qconst`` exactly.
    """

    n: int
    R: float
    alpha: float
    beta: float
    Qconst: float
    b_n: float
    a_n: float
    two_sharp: float

    def factor_roots(self) -> tuple[float, float]:
        """Roots (r1, r2) of the factorization sigma(t) + beta = (t+r1)(t+r2).

        The discriminant ``alpha^2 - 4*beta`` equals ``4*R^2 / (n(n-1))^2``,
        so for R != 0 the factorization is always real and the operator is a
        product of two second-order operators.
        """
        disc = self.alpha**2 - 4.0 * self.beta
        if disc < 0:
            raise PaneitzLabError(f"negative discriminant {disc}")
        root = math.sqrt(disc)
        return (self.alpha - root) / 2.0, (self.alpha + root) / 2.0


def derive_coefficients(n: int, R: float) -> GeometryParams:
    """Populate every coefficient of the Einstein-form operator from (n, R).

    Requires an integer dimension ``n >= 5`` (the critical exponent
    ``2n/(n-4)`` must be positive and finite).
    """
    if int(n) != n:
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    R = float(R)
    alpha = (n**2 - 2 * n - 4) * R / (2 * n * (n - 1))
    beta = (n - 4) * (n**2 - 4) * R**2 / (16 * n * (n - 1) ** 2)
    qconst = (n**2 - 4) * R**2 / (8 * n * (n - 1) ** 2)
    return GeometryParams(
        n=n,
        R=R,
        alpha=alpha,
        beta=beta,
        Qconst=qconst,
        b_n=(n - 4) / 2.0,
        a_n=(n - 4) / 4.0,
        two_sharp=2.0 * n / (n - 4),
    )


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic lattice in 1, 2 or 3 dimensions.

    ``sizes`` are per-axis point counts (powers of two), ``lengths`` the box
    edge lengths.  Quadrature weight per cell is ``prod(L_i / N_i)``; the dual
    lattice carries the positive-Laplacian eigenvalue
    ``t(k) = sum_i (2*pi*m_i / L_i)^2``.
    """

    sizes: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.sizes) <= 3:
            raise ValueError(f"grid dimension must be 1..3, got {len(self.sizes)}")
        if len(self.lengths) != len(self.sizes):
            raise ValueError("sizes and lengths must have equal length")
        for m in self.sizes:
            if not _is_power_of_two(int(m)):
                raise ValueError(f"grid sizes must be powers of two, got {m}")
        for L in self.lengths:
            if not (L > 0 and math.isfinite(L)):
                raise ValueError(f"box lengths must be positive, got {L}")
        object.__setattr__(self, "sizes", tuple(int(m) for m in self.sizes))
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sizes

    @property
    def npoints(self) -> int:
        return int(np.prod(self.sizes))

    @cached_property
    def cell_weight(self) -> float:
        return float(np.prod([L / m for L, m in zip(self.lengths, self.sizes)]))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Physical coordinates along each axis (cell-left convention)."""
        return tuple(
            np.arange(m) * (L / m) for m, L in zip(self.sizes, self.lengths)
        )

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers 2*pi*m/L per axis, fftfreq ordering."""
        return tuple(
            2.0 * np.pi * np.fft.fftfreq(m, d=1.0 / m) / L
            for m, L in zip(self.sizes, self.lengths)
        )

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """t(k) >= 0 on the full dual lattice, shaped like the grid."""
        return sum(k**2 for k in np.meshgrid(*self.wavenumbers, indexing="ij", sparse=True))

    @cached_property
    def derivative_multipliers(self) -> tuple[np.ndarray, ...]:
        """Spectral multipliers i*k per axis, Nyquist mode zeroed.

        For even sizes the m = -N/2 mode has no well-defined odd derivative;
        dropping it keeps first derivatives of real fields real.
        """
        ks = np.meshgrid(*self.wavenumbers, indexing="ij", sparse=True)
        for m, k in zip(self.sizes, ks):
            k.flat[m // 2] = 0.0
        return tuple(1j * k for k in ks)

    # the pair is chosen once per grid, so a transform costs no dispatch on
    # the dimension.  Above 1-D, scipy transforms every axis in one compiled
    # call; numpy's rfftn loops over the axes in Python, last axis first and
    # then -2, -3, ..., and scipy given that order computes the same
    # pocketfft kernels in the same sequence, so the bits are numpy's.  1-D
    # keeps numpy's pair, which costs less per call on short arrays.
    @cached_property
    def rfft(self):
        """Forward real FFT of grid values onto the half lattice."""
        if self.d == 1:
            return np.fft.rfft
        return partial(scipy.fft.rfftn, axes=(*range(-2, -self.d - 1, -1), -1))

    @cached_property
    def irfft(self):
        """Inverse of :attr:`rfft`: half-lattice coefficients to grid values."""
        if self.d == 1:
            return partial(np.fft.irfft, n=self.sizes[0])
        return partial(scipy.fft.irfftn, s=self.shape, axes=tuple(range(-self.d, 0)))

    def half(self, a: np.ndarray) -> np.ndarray:
        """View of a full-lattice array on the half lattice of :attr:`rfft`."""
        return a[..., : self.sizes[-1] // 2 + 1]

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(values) * self.cell_weight)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(u * v) * self.cell_weight)


@dataclass(frozen=True)
class ScalarField:
    """Real-valued grid function, stored row-major on its grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            if vals.size == self.grid.npoints:
                vals = vals.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"field has {vals.size} values, grid has {self.grid.npoints} points"
                )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: SpectralGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def same_grid(self, other: "ScalarField") -> None:
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            self.same_grid(other)
            return other.values
        return other

    def __add__(self, other):
        return ScalarField(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return ScalarField(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ScalarField(self.grid, self.values / self._coerce(other))

    def __rtruediv__(self, other):
        return ScalarField(self.grid, self._coerce(other) / self.values)

    def __pow__(self, exponent):
        return ScalarField(self.grid, self.values**exponent)

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


def gradient_squared(psi: ScalarField) -> ScalarField:
    """Pointwise |grad psi|^2 by spectral differentiation on the periodic grid.

    The result is a sum of squares of real derivative fields, so it is
    nonnegative without clamping.
    """
    grid = psi.grid
    hat = grid.rfft(psi.values)
    out = np.zeros(grid.shape)
    for mult in grid.derivative_multipliers:
        d = grid.irfft(grid.half(mult) * hat)
        out += d * d
    return ScalarField(grid, out)


def lebesgue_norm(grid: SpectralGrid, values: np.ndarray, s: float) -> float:
    """Quadrature L^s norm; above s = 50 the field is scaled by its maximum
    first, so large s neither overflows nor underflows; s = inf is the max."""
    absV = np.abs(values)
    if math.isinf(s):
        return float(absV.max())
    if s <= 0:
        raise ValueError("norm order must be positive")
    if s <= 50:
        return float(grid.integrate(absV**s) ** (1.0 / s))
    mx = float(absV.max())
    if mx == 0.0:
        return 0.0
    return mx * grid.integrate((absV / mx) ** s) ** (1.0 / s)


# --- field I/O -------------------------------------------------------------
#
# Binary format: raw little-endian IEEE-754 binary64, row-major, plus a text
# sidecar "<path>.meta" recording d, sizes and lengths.  CSV export carries
# integer index coordinates and the value.

_META_SUFFIX = ".meta"


def save_field(field: ScalarField, path: str | Path) -> tuple[Path, Path]:
    """Write a field as raw binary64 plus a text sidecar; returns both paths."""
    path = Path(path)
    data = np.ascontiguousarray(field.values, dtype="<f8")
    path.write_bytes(data.tobytes(order="C"))
    meta = Path(str(path) + _META_SUFFIX)
    lines = [
        f"d = {field.grid.d}",
        "sizes = " + ",".join(str(m) for m in field.grid.sizes),
        "lengths = " + ",".join(repr(L) for L in field.grid.lengths),
        "",
    ]
    meta.write_text("\n".join(lines))
    return path, meta


def load_field(path: str | Path, grid: SpectralGrid | None = None) -> ScalarField:
    """Read a field written by :func:`save_field`.

    If ``grid`` is given it must agree with the sidecar; otherwise the grid is
    reconstructed from the sidecar.  A missing or malformed file or sidecar
    raises FieldFileError.
    """
    path = Path(path)
    meta = Path(str(path) + _META_SUFFIX)
    try:
        entries = {}
        for line in meta.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
        sizes = tuple(int(x) for x in entries["sizes"].split(","))
        lengths = tuple(float(x) for x in entries["lengths"].split(","))
        file_grid = SpectralGrid(sizes, lengths)
        raw = np.frombuffer(path.read_bytes(), dtype="<f8")
        values = raw.reshape(sizes).copy()
    except KeyError as exc:
        raise FieldFileError(f"sidecar {meta} lacks the key {exc}") from None
    except (OSError, ValueError) as exc:
        raise FieldFileError(f"cannot read field {path}: {exc}") from None
    if grid is not None and grid != file_grid:
        raise GridMismatchError(f"file grid {file_grid} does not match expected {grid}")
    return ScalarField(file_grid, values)


def field_to_csv(field: ScalarField, path: str | Path) -> Path:
    """Write (index coordinates, value) rows for plotting, in C order and
    with the CRLF line ends of :mod:`csv`."""
    path = Path(path)
    axes = [[str(k) for k in range(m)] for m in field.grid.shape]
    cells = zip(itertools.product(*axes), map(repr, field.values.ravel().tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"i{a}" for a in range(field.grid.d)] + ["value"]) + "\r\n")
        fh.writelines(",".join(i) + "," + r + "\r\n" for i, r in cells)
    return path


def load_field_csv(path: str | Path, grid: SpectralGrid) -> ScalarField:
    """Read a CSV written by :func:`field_to_csv` onto a known grid.

    The rows must cover every grid point exactly once; a missing file, a
    malformed row, an index off the grid or a point missed or repeated
    raises FieldFileError.
    """
    path = Path(path)
    values = np.zeros(grid.shape)
    hits = np.zeros(grid.shape, dtype=int)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            ncoord = len(next(reader, [])) - 1
            if ncoord != grid.d:
                raise GridMismatchError(
                    f"CSV has {ncoord} index columns, grid is {grid.d}-d"
                )
            for row in reader:
                idx = tuple(int(x) for x in row[:ncoord])
                if len(row) != ncoord + 1 or not all(
                        0 <= i < m for i, m in zip(idx, grid.shape)):
                    raise FieldFileError(
                        f"{path} line {reader.line_num}: row {row} is off the grid"
                    )
                values[idx] = float(row[ncoord])
                hits[idx] += 1
    except (OSError, ValueError, csv.Error) as exc:
        raise FieldFileError(f"cannot read field {path}: {exc}") from None
    covered = int(np.count_nonzero(hits == 1))
    if covered != grid.npoints:
        raise FieldFileError(
            f"{path} gives {covered} of {grid.npoints} grid points exactly once"
        )
    return ScalarField(grid, values)
