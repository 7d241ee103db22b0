"""Small statistics helpers shared by tests and benchmarks."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.errors import ClouDiAError


def rmse(estimate: Sequence[float], reference: Sequence[float]) -> float:
    """Root-mean-square error between two equally long vectors."""
    a = np.asarray(list(estimate), dtype=float)
    b = np.asarray(list(reference), dtype=float)
    if a.shape != b.shape:
        raise ClouDiAError("rmse requires vectors of equal length")
    if a.size == 0:
        raise ClouDiAError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def normalized(vector: Sequence[float]) -> np.ndarray:
    """Scale a vector to unit Euclidean norm (zero vectors pass through)."""
    data = np.asarray(list(vector), dtype=float)
    norm = float(np.linalg.norm(data))
    return data / norm if norm > 0 else data


def relative_errors(estimate: Sequence[float], reference: Sequence[float]) -> np.ndarray:
    """Per-element relative error |est - ref| / ref (zeros where ref is zero)."""
    a = np.asarray(list(estimate), dtype=float)
    b = np.asarray(list(reference), dtype=float)
    if a.shape != b.shape:
        raise ClouDiAError("relative_errors requires vectors of equal length")
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = np.abs(a - b) / b
    return np.nan_to_num(errors, nan=0.0, posinf=0.0)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient."""
    # scipy.stats is imported where used: it is most of a cold start.
    from scipy import stats as scipy_stats

    return float(scipy_stats.pearsonr(np.asarray(list(x)), np.asarray(list(y))).statistic)


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation coefficient."""
    from scipy import stats as scipy_stats

    return float(scipy_stats.spearmanr(np.asarray(list(x)), np.asarray(list(y))).statistic)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Mean / std / min / max / quartiles of a sample."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ClouDiAError("summary of an empty sample is undefined")
    return {
        "mean": float(data.mean()),
        "std": float(data.std(ddof=0)),
        "min": float(data.min()),
        "p25": float(np.percentile(data, 25)),
        "p50": float(np.percentile(data, 50)),
        "p75": float(np.percentile(data, 75)),
        "p90": float(np.percentile(data, 90)),
        "p99": float(np.percentile(data, 99)),
        "max": float(data.max()),
    }


def improvement_percent(baseline: float, optimized: float) -> float:
    """Percentage reduction of ``optimized`` relative to ``baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - optimized) / baseline


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0 or (data <= 0).any():
        raise ClouDiAError("geometric mean needs a non-empty, positive sample")
    return float(np.exp(np.mean(np.log(data))))


def confidence_interval(values: Sequence[float],
                        confidence: float = 0.95) -> Tuple[float, float]:
    """Normal-approximation confidence interval for the mean of a sample."""
    data = np.asarray(list(values), dtype=float)
    if data.size < 2:
        raise ClouDiAError("confidence interval needs at least two observations")
    from scipy import stats as scipy_stats

    mean = float(data.mean())
    half_width = float(
        scipy_stats.norm.ppf(0.5 + confidence / 2.0) * data.std(ddof=1) / np.sqrt(data.size)
    )
    return mean - half_width, mean + half_width
