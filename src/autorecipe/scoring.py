"""Health score computation: sensor categorization, weighted aggregation,
and pairwise-comparison weight derivation.

Weights from a pairwise comparison matrix use row geometric means; the
consistency ratio uses the principal eigenvalue.  Category ranges are
half-open lower-inclusive, with the topmost range closed so the domain
maximum is scorable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import AutoRecipeError, ValidationFailedError

# numpy is imported by the pairwise (ahp) functions only, on first use:
# weighted scoring and every other command never load it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CATEGORIES",
    "DEFAULT_CATEGORY_SCORES",
    "RANDOM_INDEX",
    "SensorConfig",
    "HealthIndicatorConfig",
    "AggregationConfig",
    "HealthScore",
    "categorize",
    "weighted_score",
    "ahp_weights",
    "consistency_ratio",
    "principal_eigen",
    "HealthScoreEstimator",
    "validate_indicator_config",
    "validate_aggregation_config",
]

CATEGORIES = ("poor", "medium", "good", "excellent")

# Shipped example scores; any strictly increasing values in [0, 1] may be configured.
DEFAULT_CATEGORY_SCORES = {"poor": 0.25, "medium": 0.5, "good": 0.75, "excellent": 1.0}

# Published random consistency index, one entry per matrix size up to 10.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}

_RECIPROCAL_TOL = 1e-9
_MAX_PAIRWISE = 15


@dataclass(frozen=True)
class SensorConfig:
    """One sensor's unit and its four category ranges."""

    name: str
    unit: str
    ranges: dict[str, tuple[float, float]]

    @property
    def domain(self) -> tuple[float, float]:
        lows, highs = zip(*self.ranges.values())
        return min(lows), max(highs)


@dataclass(frozen=True)
class HealthIndicatorConfig:
    sensors: tuple[SensorConfig, ...]

    @property
    def sensor_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sensors)


@dataclass(frozen=True)
class AggregationConfig:
    """Category scores plus one aggregation method: explicit weights or a
    pairwise comparison matrix over a declared sensor order."""

    category_scores: dict[str, float]
    method: str  # weighted | ahp
    weights: dict[str, float] | None = None
    sensors: tuple[str, ...] = ()
    pairwise: tuple[tuple[float, ...], ...] = ()

    def effective_weights(self) -> dict[str, float]:
        if self.method == "weighted":
            if not self.weights:
                raise ValidationFailedError(["weighted method declared without weights"])
            return dict(self.weights)
        if self.method == "ahp":
            if not self.sensors or not self.pairwise:
                raise ValidationFailedError(["ahp method needs sensors and a pairwise matrix"])
            derived = ahp_weights(self.pairwise)
            return {name: float(w) for name, w in zip(self.sensors, derived)}
        raise ValidationFailedError([f"unknown aggregation method {self.method!r}"])


def validate_indicator_config(cfg: HealthIndicatorConfig) -> list[str]:
    """Violation strings; empty means the config is usable."""
    violations = []
    if not cfg.sensors:
        violations.append("indicator config declares no sensors")
    seen = set()
    for sensor in cfg.sensors:
        where = f"sensor {sensor.name!r}"
        if sensor.name in seen:
            violations.append(f"{where} is declared twice")
        seen.add(sensor.name)
        if set(sensor.ranges) != set(CATEGORIES):
            violations.append(f"{where} must define exactly the categories {list(CATEGORIES)}")
            continue
        intervals = sorted(sensor.ranges.items(), key=lambda item: item[1][0])
        for category, (low, high) in intervals:
            if not (low < high):
                violations.append(f"{where} {category} range is empty or inverted")
        for (_, (_, high)), (nxt, (low, _)) in zip(intervals, intervals[1:]):
            if high != low:
                violations.append(
                    f"{where} ranges must tile the domain; gap or overlap before {nxt!r}"
                )
    return violations


def validate_aggregation_config(cfg: AggregationConfig, sensor_names: tuple[str, ...]) -> list[str]:
    violations = []
    if set(cfg.category_scores) != set(CATEGORIES):
        violations.append(f"category scores must cover exactly {list(CATEGORIES)}")
    else:
        values = [cfg.category_scores[c] for c in CATEGORIES]
        if any(not (0.0 <= v <= 1.0) for v in values):
            violations.append("category scores must lie in [0, 1]")
        if not all(a < b for a, b in zip(values, values[1:])):
            violations.append("category scores must be strictly increasing from poor to excellent")
    if cfg.method == "weighted":
        if not cfg.weights:
            violations.append("weighted method declared without weights")
        else:
            # NaN fails every comparison below, so it is caught here.
            if not all(map(math.isfinite, cfg.weights.values())):
                violations.append("weights must be finite")
            if any(w < 0 for w in cfg.weights.values()):
                violations.append("weights must be non-negative")
            total = sum(cfg.weights.values())
            if abs(total - 1.0) > 1e-9:
                violations.append(f"weights must sum to 1.0, got {total!r}")
            if set(cfg.weights) != set(sensor_names):
                violations.append("weight keys must match the configured sensors")
    elif cfg.method == "ahp":
        if not cfg.sensors or not cfg.pairwise:
            violations.append("ahp method needs sensors and a pairwise matrix")
        else:
            import numpy as np

            # Checked before numpy sees the rows, which it cannot stack when ragged.
            size = len(cfg.pairwise)
            if any(len(row) != size for row in cfg.pairwise):
                violations.append("pairwise matrix must be square")
            elif size != len(cfg.sensors):
                violations.append("pairwise matrix size must match the sensor list")
            else:
                try:
                    _check_pairwise(np.asarray(cfg.pairwise, dtype=float))
                except (AutoRecipeError, ValueError) as exc:
                    violations.append(str(exc))
            if set(cfg.sensors) != set(sensor_names):
                violations.append("ahp sensor order must match the configured sensors")
    else:
        violations.append(f"unknown aggregation method {cfg.method!r}")
    return violations


def _category_finder(sensor: SensorConfig):
    """``categorize`` for one sensor with its range edges worked out once.

    The returned function maps a value to its category, or to None when
    the value lies outside every range.
    """
    top = max(high for _, high in sensor.ranges.values())
    ranges = tuple(
        (category, low, high, high == top) for category, (low, high) in sensor.ranges.items()
    )

    def find(value: float) -> str | None:
        for category, low, high, closed in ranges:
            if low <= value < high or (closed and value == high):
                return category
        return None

    return find


def _out_of_domain_message(value: float, sensor: SensorConfig) -> str:
    lo, hi = sensor.domain
    return f"value {value!r} is outside the configured domain [{lo}, {hi}] of {sensor.name!r}"


def categorize(value: float, sensor: SensorConfig) -> str:
    """Category whose range contains the value.

    Ranges are lower-inclusive, upper-exclusive, except the topmost
    range whose upper bound is included.
    """
    category = _category_finder(sensor)(value)
    if category is None:
        raise AutoRecipeError(_out_of_domain_message(value, sensor))
    return category


@dataclass(frozen=True)
class HealthScore:
    asset_id: str
    score: float


def weighted_score(
    categories: dict[str, str], cfg: AggregationConfig, asset_id: str = ""
) -> HealthScore:
    """100 times the weight-blended category scores of all configured sensors.

    Works for both methods: explicit weights, or weights derived from
    the pairwise matrix.
    """
    return _blend(categories, cfg, cfg.effective_weights(), asset_id)


def _blend(
    categories: dict[str, str], cfg: AggregationConfig, weights: dict[str, float], asset_id: str
) -> HealthScore:
    missing = weights.keys() - categories.keys()
    if missing:
        raise AutoRecipeError(
            "no category reading for sensor(s): " + ", ".join(sorted(missing))
        )
    terms = []
    for sensor, weight in weights.items():
        category = categories[sensor]
        if category not in cfg.category_scores:
            raise ValidationFailedError([f"unknown category {category!r} for sensor {sensor!r}"])
        terms.append(cfg.category_scores[category] * weight)
    return HealthScore(asset_id=asset_id, score=100.0 * sum(terms))


# --- pairwise comparison math ---------------------------------------------------

def _check_pairwise(matrix: np.ndarray) -> None:
    import numpy as np

    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("pairwise matrix must be square")
    n = matrix.shape[0]
    if n > _MAX_PAIRWISE:
        raise ValueError(f"pairwise matrix size {n} exceeds the supported maximum {_MAX_PAIRWISE}")
    # NaN fails every comparison below, so it is caught here.
    if not np.all(np.isfinite(matrix)):
        raise AutoRecipeError("pairwise matrix entries must be finite")
    if np.any(matrix <= 0):
        raise AutoRecipeError("pairwise matrix entries must be positive")
    products = matrix * matrix.T
    if np.max(np.abs(products - 1.0)) > _RECIPROCAL_TOL:
        raise AutoRecipeError(
            "matrix is not reciprocal: a[i,j]*a[j,i] deviates from 1 beyond tolerance"
        )


def ahp_weights(matrix) -> np.ndarray:
    """Normalized row geometric means of a positive reciprocal matrix."""
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    _check_pairwise(m)
    geometric = np.exp(np.mean(np.log(m), axis=1))
    return geometric / geometric.sum()


def principal_eigen(matrix):
    """Principal eigenvalue and its sum-normalized eigenvector.

    The principal pair is the one with the largest real eigenvalue; both
    are returned as their real parts.
    """
    import numpy as np

    values, vectors = np.linalg.eig(np.asarray(matrix, dtype=float))
    top = int(np.argmax(values.real))
    vector = vectors[:, top].real
    return float(values[top].real), vector / vector.sum()


def consistency_ratio(matrix) -> float:
    """Saaty consistency ratio; 0 for sizes 1 and 2 by definition."""
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    _check_pairwise(m)
    n = m.shape[0]
    if n <= 2:
        return 0.0
    if n not in RANDOM_INDEX:
        raise AutoRecipeError(
            f"no published random index for matrix size {n} (max {max(RANDOM_INDEX)})"
        )
    eigenvalue, _ = principal_eigen(m)
    consistency_index = (eigenvalue - n) / (n - 1)
    return consistency_index / RANDOM_INDEX[n]


# --- estimator --------------------------------------------------------------------

class HealthScoreEstimator:
    """fit/predict wrapper turning raw sensor rows into per-asset scores.

    fit() takes the two configs; predict() takes a sample dataset and
    scores each asset from its latest reading per sensor.
    """

    def __init__(self):
        self._indicator: HealthIndicatorConfig | None = None
        self._aggregation: AggregationConfig | None = None
        self._weights: dict[str, float] = {}

    def fit(
        self, indicator: HealthIndicatorConfig, aggregation: AggregationConfig
    ) -> "HealthScoreEstimator":
        violations = validate_indicator_config(indicator)
        violations += validate_aggregation_config(aggregation, indicator.sensor_names)
        if violations:
            raise ValidationFailedError(violations)
        self._weights = aggregation.effective_weights()
        self._indicator = indicator
        self._aggregation = aggregation
        return self

    def predict(self, dataset) -> list[HealthScore]:
        return self._predict_records(dataset.rows)

    def _predict_records(self, records) -> list[HealthScore]:
        """Scores from ``(asset_id, sensor_name, value, timestamp, unit)``
        records in one pass, so a CSV reader can feed them as it reads."""
        if self._indicator is None or self._aggregation is None:
            raise AutoRecipeError("call fit() with the configs before predict()")
        from .recipe import _scan_dataset  # avoid import cycle

        violations, latest = _scan_dataset(records, self._indicator)
        if violations:
            raise ValidationFailedError(violations)
        return [
            _blend(latest[asset_id], self._aggregation, self._weights, asset_id)
            for asset_id in sorted(latest)
        ]
