"""Seeded input fields for the benchmark workloads.

Every field is a random combination of the lowest Fourier modes of the
periodic box (|m_i| <= 2), so it is smooth and band-limited far below the
grid's Nyquist mode.  The seed changes the shape of each field but not its
range, because each kind is normalized after drawing:

* ``psi``: scaled so that max |grad psi|^2 over the grid equals a target.
  The potential W = b_n (Q - |grad psi|^2) then spans the same range for
  every seed, which fixes whether it changes sign.
* ``A``: mapped affinely onto [0.5, 1.5].
* ``B``: the positive part of a field mapped onto [-0.5, 1], squared, so it
  is C^1, lies in [0, 1] and vanishes on a seed-dependent region.

The gradient is evaluated from the analytic mode sum, not by spectral
differentiation, so the normalization does not depend on the package.
"""

from __future__ import annotations

import itertools
import math
import zlib

import numpy as np

MODE_CUTOFF = 2


def _modes(d: int):
    for m in itertools.product(range(-MODE_CUTOFF, MODE_CUTOFF + 1), repeat=d):
        if any(m):
            yield m


def low_mode_field(rng: np.random.Generator, sizes, lengths):
    """Random low-mode field and its analytic gradient, both on the grid."""
    axes = [np.arange(n) * (L / n) for n, L in zip(sizes, lengths)]
    mesh = np.meshgrid(*axes, indexing="ij")
    values = np.zeros(tuple(sizes))
    grad = [np.zeros(tuple(sizes)) for _ in sizes]
    for m in _modes(len(sizes)):
        k = [2.0 * math.pi * mi / L for mi, L in zip(m, lengths)]
        a, b = rng.standard_normal(2) / (1.0 + sum(mi * mi for mi in m))
        phase = sum(ki * x for ki, x in zip(k, mesh))
        c, s = np.cos(phase), np.sin(phase)
        values += a * c + b * s
        for g, ki in zip(grad, k):
            g += ki * (b * c - a * s)
    return values, grad


def make_field(kind: str, rng: np.random.Generator, sizes, lengths,
               grad_sq_max: float | None = None) -> np.ndarray:
    """One normalized field of ``kind`` in ``("psi", "A", "B")``."""
    values, grad = low_mode_field(rng, sizes, lengths)
    if kind == "psi":
        gmax = float(sum(g * g for g in grad).max())
        return values * math.sqrt(grad_sq_max / gmax)
    lo, hi = float(values.min()), float(values.max())
    unit = (values - lo) / (hi - lo)
    if kind == "A":
        return 0.5 + unit
    if kind == "B":
        return np.maximum(1.5 * unit - 0.5, 0.0) ** 2
    raise ValueError(f"unknown field kind {kind!r}")


def field_rng(seed: int, name: str) -> np.random.Generator:
    """Independent stream per (workload seed, field name)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])
