"""Plot-data generation: latent scatter rows and 1-D Gaussian KDE curves.

No rendering happens here; the CLI writes these as CSV for external
plotting tools.
"""

from __future__ import annotations

import numpy as np

KDE_GRID_POINTS = 256


def silverman_bandwidth(values: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9 * min(std, IQR/1.34) * n^(-1/5)."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        return 1e-3
    std = float(values.std(ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    candidates = [c for c in (std, iqr / 1.34) if c > 0]
    if not candidates:
        return 1e-3
    return 0.9 * min(candidates) * n ** (-0.2)


def kde_curve(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian KDE sampled on ``KDE_GRID_POINTS`` points spanning the data
    plus 3 bandwidths.

    Returns (grid, density); the trapezoid integral of the density over
    the grid is 1 within ~0.3% (only the outermost kernel tails fall
    outside).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot estimate a density from zero samples")
    h = silverman_bandwidth(values)
    lo = values.min() - 3.0 * h
    hi = values.max() + 3.0 * h
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    z = (grid[:, None] - values[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (
        values.size * h * np.sqrt(2.0 * np.pi)
    )
    return grid, density
