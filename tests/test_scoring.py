"""Categorization, weighted aggregation, and pairwise-comparison weights."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from autorecipe.errors import AutoRecipeError, ValidationFailedError
from autorecipe.scoring import (
    CATEGORIES,
    DEFAULT_CATEGORY_SCORES,
    RANDOM_INDEX,
    AggregationConfig,
    HealthIndicatorConfig,
    HealthScoreEstimator,
    SensorConfig,
    ahp_weights,
    categorize,
    consistency_ratio,
    principal_eigen,
    validate_aggregation_config,
    validate_indicator_config,
    weighted_score,
)

QUARTILES = {
    "poor": (0.0, 25.0),
    "medium": (25.0, 50.0),
    "good": (50.0, 75.0),
    "excellent": (75.0, 100.0),
}


def _sensor(name: str = "temperature") -> SensorConfig:
    return SensorConfig(name=name, unit="percent", ranges=dict(QUARTILES))


def _consistent_matrix(weights: list[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w[:, None] / w[None, :]


def _random_weights(rng: random.Random, n: int) -> list[float]:
    raw = [rng.uniform(0.1, 10.0) for _ in range(n)]
    total = sum(raw)
    return [v / total for v in raw]


# --- categorization ---------------------------------------------------------------

def test_categorize_lower_inclusive_boundaries():
    sensor = _sensor()
    assert categorize(0.0, sensor) == "poor"
    assert categorize(24.999, sensor) == "poor"
    assert categorize(25.0, sensor) == "medium"
    assert categorize(50.0, sensor) == "good"
    assert categorize(74.999, sensor) == "good"
    assert categorize(75.0, sensor) == "excellent"


def test_categorize_topmost_range_is_closed():
    assert categorize(100.0, _sensor()) == "excellent"


def test_categorize_out_of_domain():
    sensor = _sensor()
    with pytest.raises(AutoRecipeError, match=r"^value -0\.001 is outside the configured domain "):
        categorize(-0.001, sensor)
    with pytest.raises(AutoRecipeError, match=r"^value 100\.001 is outside the configured domain "):
        categorize(100.001, sensor)


def test_sensor_domain_property():
    assert _sensor().domain == (0.0, 100.0)


# --- config validation ----------------------------------------------------------------

def test_validate_indicator_accepts_quartile_config():
    cfg = HealthIndicatorConfig(sensors=(_sensor("a"), _sensor("b")))
    assert validate_indicator_config(cfg) == []


def test_validate_indicator_flags_problems():
    no_sensors = HealthIndicatorConfig(sensors=())
    assert validate_indicator_config(no_sensors) == ["indicator config declares no sensors"]

    duplicated = HealthIndicatorConfig(sensors=(_sensor("a"), _sensor("a")))
    assert any("declared twice" in v for v in validate_indicator_config(duplicated))

    three_only = {k: v for k, v in QUARTILES.items() if k != "excellent"}
    missing = HealthIndicatorConfig(
        sensors=(SensorConfig("a", "percent", three_only),)
    )
    assert any("exactly the categories" in v for v in validate_indicator_config(missing))

    inverted = dict(QUARTILES)
    inverted["medium"] = (50.0, 25.0)
    bad_range = HealthIndicatorConfig(sensors=(SensorConfig("a", "percent", inverted),))
    assert any("empty or inverted" in v for v in validate_indicator_config(bad_range))

    gapped = dict(QUARTILES)
    gapped["medium"] = (30.0, 50.0)
    gap = HealthIndicatorConfig(sensors=(SensorConfig("a", "percent", gapped),))
    assert any("tile the domain" in v for v in validate_indicator_config(gap))


def test_validate_aggregation_weighted():
    good = AggregationConfig(
        category_scores=dict(DEFAULT_CATEGORY_SCORES),
        method="weighted",
        weights={"a": 0.6, "b": 0.4},
    )
    assert validate_aggregation_config(good, ("a", "b")) == []

    assert validate_aggregation_config(
        AggregationConfig(dict(DEFAULT_CATEGORY_SCORES), "weighted"), ("a",)
    ) == ["weighted method declared without weights"]

    bad_sum = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"a": 0.7, "b": 0.4}
    )
    assert any("sum to 1.0" in v for v in validate_aggregation_config(bad_sum, ("a", "b")))

    negative = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"a": 1.5, "b": -0.5}
    )
    assert any("non-negative" in v for v in validate_aggregation_config(negative, ("a", "b")))

    mismatched = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"a": 0.5, "c": 0.5}
    )
    assert any("match the configured sensors" in v
               for v in validate_aggregation_config(mismatched, ("a", "b")))

    # NaN fails every comparison, so only the finiteness check catches it.
    nan = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"a": float("nan"), "b": 0.5}
    )
    assert validate_aggregation_config(nan, ("a", "b")) == ["weights must be finite"]


def test_validate_aggregation_category_scores():
    wrong_set = AggregationConfig({"poor": 0.2, "fine": 0.9}, "weighted", weights={"a": 1.0})
    assert any("exactly" in v for v in validate_aggregation_config(wrong_set, ("a",)))

    out_of_range = AggregationConfig(
        {"poor": -0.1, "medium": 0.5, "good": 0.75, "excellent": 1.0},
        "weighted", weights={"a": 1.0},
    )
    assert any("[0, 1]" in v for v in validate_aggregation_config(out_of_range, ("a",)))

    flat = AggregationConfig(
        {"poor": 0.5, "medium": 0.5, "good": 0.75, "excellent": 1.0},
        "weighted", weights={"a": 1.0},
    )
    assert any("strictly increasing" in v for v in validate_aggregation_config(flat, ("a",)))


def test_validate_aggregation_ahp():
    good = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "ahp",
        sensors=("a", "b"), pairwise=((1.0, 3.0), (1 / 3, 1.0)),
    )
    assert validate_aggregation_config(good, ("a", "b")) == []

    missing = AggregationConfig(dict(DEFAULT_CATEGORY_SCORES), "ahp")
    assert any("needs sensors" in v for v in validate_aggregation_config(missing, ("a", "b")))

    not_square = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "ahp",
        sensors=("a", "b"), pairwise=((1.0, 2.0, 3.0), (0.5, 1.0, 2.0)),
    )
    assert any("square" in v for v in validate_aggregation_config(not_square, ("a", "b")))

    ragged = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "ahp", sensors=("a", "b"), pairwise=((1.0, 2.0), (0.5,)),
    )
    assert validate_aggregation_config(ragged, ("a", "b")) == ["pairwise matrix must be square"]

    nan = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "ahp",
        sensors=("a", "b"), pairwise=((1.0, float("nan")), (float("nan"), 1.0)),
    )
    assert validate_aggregation_config(nan, ("a", "b")) == [
        "pairwise matrix entries must be finite"
    ]

    wrong_size = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "ahp",
        sensors=("a", "b", "c"), pairwise=((1.0, 2.0), (0.5, 1.0)),
    )
    assert any("match the sensor list" in v
               for v in validate_aggregation_config(wrong_size, ("a", "b", "c")))

    lopsided = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "ahp",
        sensors=("a", "b"), pairwise=((1.0, 2.0), (1.0, 1.0)),
    )
    assert any("reciprocal" in v for v in validate_aggregation_config(lopsided, ("a", "b")))

    unknown = AggregationConfig(dict(DEFAULT_CATEGORY_SCORES), "mystery")
    assert any("unknown aggregation method" in v
               for v in validate_aggregation_config(unknown, ("a",)))


# --- weighted scores --------------------------------------------------------------------

def test_weighted_score_hand_value():
    cfg = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"a": 0.6, "b": 0.4}
    )
    result = weighted_score({"a": "good", "b": "poor"}, cfg, asset_id="asset-001")
    assert result.score == pytest.approx(100.0 * (0.6 * 0.75 + 0.4 * 0.25))
    assert result.asset_id == "asset-001"


def test_weighted_score_missing_reading():
    cfg = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"a": 0.5, "b": 0.5}
    )
    with pytest.raises(AutoRecipeError, match="^no category reading for sensor\\(s\\): b$"):
        weighted_score({"a": "good"}, cfg)


def test_weighted_score_unknown_category():
    cfg = AggregationConfig(dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"a": 1.0})
    with pytest.raises(ValidationFailedError):
        weighted_score({"a": "stellar"}, cfg)


def test_weighted_score_bounds_and_monotonicity():
    rng = random.Random(20240814)
    for _ in range(500):
        n = rng.randint(1, 5)
        names = [f"s{i}" for i in range(n)]
        weights = dict(zip(names, _random_weights(rng, n)))
        cfg = AggregationConfig(dict(DEFAULT_CATEGORY_SCORES), "weighted", weights=weights)
        cats = {name: rng.choice(CATEGORIES) for name in names}
        base = weighted_score(cats, cfg).score
        assert 0.0 <= base <= 100.0 + 1e-9
        assert base >= 100.0 * min(DEFAULT_CATEGORY_SCORES.values()) - 1e-9
        upgradable = [name for name in names if CATEGORIES.index(cats[name]) < 3]
        if upgradable:
            chosen = rng.choice(upgradable)
            upgraded = dict(cats)
            upgraded[chosen] = CATEGORIES[CATEGORIES.index(cats[chosen]) + 1]
            assert weighted_score(upgraded, cfg).score >= base - 1e-12


def test_all_ones_pairwise_equals_equal_weights():
    rng = random.Random(7)
    for n in range(1, 6):
        names = tuple(f"s{i}" for i in range(n))
        ahp_cfg = AggregationConfig(
            dict(DEFAULT_CATEGORY_SCORES), "ahp",
            sensors=names, pairwise=tuple(tuple(1.0 for _ in names) for _ in names),
        )
        flat_cfg = AggregationConfig(
            dict(DEFAULT_CATEGORY_SCORES), "weighted",
            weights={name: 1.0 / n for name in names},
        )
        cats = {name: rng.choice(CATEGORIES) for name in names}
        assert weighted_score(cats, ahp_cfg).score == pytest.approx(
            weighted_score(cats, flat_cfg).score, abs=1e-9
        )


def test_effective_weights_copies():
    cfg = AggregationConfig(dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"a": 1.0})
    first = cfg.effective_weights()
    first["a"] = 0.0
    assert cfg.effective_weights() == {"a": 1.0}


# --- pairwise comparison math --------------------------------------------------------------

def test_ahp_weights_two_by_two_oracle():
    weights = ahp_weights([[1.0, 3.0], [1 / 3, 1.0]])
    assert weights == pytest.approx([0.75, 0.25], abs=1e-12)


def test_ahp_weights_recover_consistent_matrix():
    matrix = _consistent_matrix([0.5, 0.3, 0.2])
    assert ahp_weights(matrix) == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)


def test_ahp_weights_random_consistent_recovery():
    rng = random.Random(20240814)
    for _ in range(100):
        n = rng.randint(2, 7)
        weights = _random_weights(rng, n)
        recovered = ahp_weights(_consistent_matrix(weights))
        assert float(np.max(np.abs(recovered - np.asarray(weights)))) < 1e-9


def test_pairwise_rejections():
    with pytest.raises(AutoRecipeError, match="^matrix is not reciprocal: "):
        ahp_weights([[1.0, 2.0], [1.0, 1.0]])
    with pytest.raises(AutoRecipeError, match="^pairwise matrix entries must be positive$"):
        ahp_weights([[1.0, 0.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        ahp_weights([[1.0, 2.0, 3.0], [0.5, 1.0, 2.0]])
    with pytest.raises(ValueError, match="maximum"):
        ahp_weights(np.ones((16, 16)))
    nan = float("nan")
    for rejects in (ahp_weights, consistency_ratio):
        with pytest.raises(AutoRecipeError, match="^pairwise matrix entries must be finite$"):
            rejects([[1.0, nan], [nan, 1.0]])


def test_principal_eigen_against_numpy():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 7)
        weights = _random_weights(rng, n)
        matrix = _consistent_matrix(weights)
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] *= float(np.exp(rng.uniform(-0.3, 0.3)))
                matrix[j, i] = 1.0 / matrix[i, j]
        eigenvalue, vector = principal_eigen(matrix)
        reference = float(np.max(np.linalg.eigvals(matrix).real))
        assert eigenvalue == pytest.approx(reference, abs=1e-6)
        assert vector.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(vector > 0)


def test_geometric_and_eigen_weights_agree_on_consistent_matrices():
    rng = random.Random(20240814)
    for _ in range(50):
        n = rng.randint(2, 7)
        matrix = _consistent_matrix(_random_weights(rng, n))
        geo = ahp_weights(matrix)
        _, eig = principal_eigen(matrix)
        assert float(np.max(np.abs(geo - eig))) < 1e-9


def test_geometric_and_eigen_weights_agree_on_near_consistent_matrices():
    rng = random.Random(4)
    accepted = 0
    for _ in range(60):
        n = rng.randint(3, 7)
        matrix = _consistent_matrix(_random_weights(rng, n))
        for i in range(n):
            for j in range(i + 1, n):
                factor = np.exp(rng.uniform(-0.08, 0.08))
                matrix[i, j] *= factor
                matrix[j, i] = 1.0 / matrix[i, j]
        if consistency_ratio(matrix) >= 0.1:
            continue
        accepted += 1
        geo = ahp_weights(matrix)
        _, eig = principal_eigen(matrix)
        assert float(np.max(np.abs(geo - eig))) < 1e-3
    assert accepted >= 30  # the sampler must actually exercise the claim


def test_consistency_ratio_values():
    assert consistency_ratio([[1.0]]) == 0.0
    assert consistency_ratio([[1.0, 5.0], [0.2, 1.0]]) == 0.0
    assert consistency_ratio(_consistent_matrix([0.5, 0.3, 0.2])) < 1e-6
    cyclic = [[1.0, 9.0, 1 / 9], [1 / 9, 1.0, 9.0], [9.0, 1 / 9, 1.0]]
    assert consistency_ratio(cyclic) > 0.1


def test_consistency_ratio_unsupported_size():
    matrix = _consistent_matrix([1.0] * 11)
    with pytest.raises(AutoRecipeError, match="^no published random index for matrix size 11 "):
        consistency_ratio(matrix)


def test_random_index_table():
    assert RANDOM_INDEX == {
        1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
        6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49,
    }


# --- estimator ---------------------------------------------------------------------------

def _fitted_estimator():
    indicator = HealthIndicatorConfig(sensors=(_sensor("temperature"), _sensor("vibration")))
    aggregation = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "weighted",
        weights={"temperature": 0.5, "vibration": 0.5},
    )
    return HealthScoreEstimator().fit(indicator, aggregation)


def test_estimator_requires_fit():
    from autorecipe.recipe import SampleDataset

    with pytest.raises(AutoRecipeError, match=r"^call fit\(\) with the configs before predict"):
        HealthScoreEstimator().predict(SampleDataset(rows=()))


def test_estimator_fit_rejects_bad_configs():
    indicator = HealthIndicatorConfig(sensors=(_sensor("temperature"),))
    aggregation = AggregationConfig(
        dict(DEFAULT_CATEGORY_SCORES), "weighted", weights={"other": 1.0}
    )
    with pytest.raises(ValidationFailedError) as info:
        HealthScoreEstimator().fit(indicator, aggregation)
    assert any("match the configured sensors" in v for v in info.value.violations)


def test_estimator_predict_hand_computation():
    from autorecipe.recipe import SampleDataset

    estimator = _fitted_estimator()
    rows = (
        ("asset-002", "temperature", 80.0, "2024-01-01T00:00:00Z", "percent"),
        ("asset-002", "vibration", 10.0, "2024-01-01T00:00:00Z", "percent"),
        ("asset-001", "temperature", 30.0, "2024-01-01T00:00:00Z", "percent"),
        # stale reading, superseded by the later one below
        ("asset-001", "vibration", 90.0, "2024-01-01T00:00:00Z", "percent"),
        ("asset-001", "vibration", 60.0, "2024-01-02T00:00:00Z", "percent"),
    )
    scores = estimator.predict(SampleDataset(rows=rows))
    assert [s.asset_id for s in scores] == ["asset-001", "asset-002"]
    # asset-001: medium (0.5) and good (0.75) at half weight each
    assert scores[0].score == pytest.approx(100.0 * (0.5 * 0.5 + 0.5 * 0.75))
    # asset-002: excellent (1.0) and poor (0.25) at half weight each
    assert scores[1].score == pytest.approx(100.0 * (0.5 * 1.0 + 0.5 * 0.25))


def test_estimator_predict_validates_dataset():
    from autorecipe.recipe import SampleDataset

    estimator = _fitted_estimator()
    rows = (
        ("asset-001", "pressure", 30.0, "2024-01-01T00:00:00Z", "percent"),
    )
    with pytest.raises(ValidationFailedError):
        estimator.predict(SampleDataset(rows=rows))


# --- predict against the row-by-row route ----------------------------------------------

def _categorize_oracle(value, sensor):
    top = max(high for _, high in sensor.ranges.values())
    for category, (low, high) in sensor.ranges.items():
        if low <= value < high or (high == top and value == high):
            return category
    lo, hi = sensor.domain
    raise AutoRecipeError(
        f"value {value!r} is outside the configured domain [{lo}, {hi}] of {sensor.name!r}"
    )


def _validate_oracle(dataset, cfg):
    """validate_dataset as one loop per check, assets in first-seen order."""
    from autorecipe.recipe import parse_rfc3339

    violations = []
    if not dataset.rows:
        return ["dataset has no rows"]
    configured = {s.name: s for s in cfg.sensors}
    per_pair = {}
    for i, (asset_id, sensor_name, value, timestamp, unit) in enumerate(dataset.rows, start=1):
        sensor = configured.get(sensor_name)
        if sensor is None:
            violations.append(f"row {i}: unknown sensor {sensor_name!r}")
            continue
        if unit != sensor.unit:
            violations.append(
                f"row {i}: unit {unit!r} does not match configured {sensor.unit!r}"
            )
        try:
            moment = parse_rfc3339(timestamp)
        except ValueError as exc:
            violations.append(f"row {i}: bad timestamp: {exc}")
            continue
        per_pair.setdefault((asset_id, sensor_name), []).append(moment)
        try:
            _categorize_oracle(value, sensor)
        except AutoRecipeError as exc:
            violations.append(f"row {i}: {exc}")
    for asset in dict.fromkeys(asset_id for asset_id, *_ in dataset.rows):
        for name in configured:
            moments = per_pair.get((asset, name), [])
            if not moments:
                violations.append(f"asset {asset!r} has no reading for sensor {name!r}")
            elif moments.count(max(moments)) > 1:
                violations.append(
                    f"asset {asset!r} sensor {name!r} has an ambiguous latest reading"
                )
    return violations


def _predict_oracle(dataset, indicator, aggregation):
    from autorecipe.recipe import latest_readings

    violations = _validate_oracle(dataset, indicator)
    if violations:
        raise ValidationFailedError(violations)
    sensors = {sensor.name: sensor for sensor in indicator.sensors}
    scores = []
    for asset_id, readings in sorted(latest_readings(dataset).items()):
        categories = {
            name: _categorize_oracle(value, sensors[name]) for name, value in readings.items()
        }
        scores.append(weighted_score(categories, aggregation, asset_id=asset_id))
    return scores


# Four instants, each with several spellings, so equal timestamps need not look equal.
_INSTANTS = [
    ["2023-12-31T23:59:59.5Z", "2024-01-01T00:59:59.5+01:00"],
    ["2024-01-01T00:00:00Z", "2024-01-01T00:00:00+00:00", "2024-01-01T01:00:00+01:00"],
    ["2024-01-01T12:00:00Z", "2024-01-01T13:30:00+01:30"],
    ["2024-01-02T00:00:00z", "2024-01-01T20:00:00-04:00"],
]
_TIMESTAMPS = [stamp for spellings in _INSTANTS for stamp in spellings]
_BAD_TIMESTAMPS = ["not a time", "2024-01-01T00:00:00"]


@st.composite
def _scoring_cases(draw):
    n = draw(st.integers(1, 4))
    names = [f"s{i}" for i in range(n)]
    sensors = []
    for name in names:
        scale = draw(st.sampled_from([1.0, 0.1, 1 / 3]))
        edges = [e * scale for e in sorted(draw(st.sets(st.integers(-50, 50), min_size=5,
                                                         max_size=5)))]
        order = draw(st.permutations(range(4)))
        ranges = {CATEGORIES[i]: (edges[i], edges[i + 1]) for i in order}
        sensors.append(SensorConfig(name=name, unit="u", ranges=ranges))
    indicator = HealthIndicatorConfig(sensors=tuple(sensors))
    category_scores = dict(zip(CATEGORIES, (c / 100 for c in sorted(draw(st.sets(
        st.integers(0, 100), min_size=4, max_size=4))))))
    if draw(st.booleans()):
        raw = [draw(st.integers(1, 9)) for _ in names]
        aggregation = AggregationConfig(
            category_scores, "weighted",
            weights={name: w / sum(raw) for name, w in zip(names, raw)},
        )
    else:
        matrix = _consistent_matrix([draw(st.integers(1, 9)) for _ in names])
        aggregation = AggregationConfig(
            category_scores, "ahp", sensors=tuple(names),
            pairwise=tuple(tuple(float(x) for x in row) for row in matrix),
        )
    rows = []
    assets = draw(st.lists(st.sampled_from(["a0", "a1", "a2", "a3"]), min_size=1,
                           max_size=4, unique=True))
    pairs = [(asset, sensor) for asset in assets for sensor in sensors]
    # At most one pair repeats an instant, which is a tie when it is the latest.
    tied = draw(st.one_of(st.none(), st.sampled_from(pairs)))
    for asset, sensor in pairs:
        lo, hi = sensor.domain
        edges = sorted({low for low, _ in sensor.ranges.values()} | {hi})
        instants = draw(st.lists(st.integers(0, len(_INSTANTS) - 1), min_size=1, max_size=3,
                                 unique=True))
        if (asset, sensor) == tied:
            instants.append(draw(st.sampled_from(instants)))
        for instant in instants:
            stamp = draw(st.sampled_from(_INSTANTS[instant]))
            value = draw(st.one_of(st.sampled_from(edges), st.floats(lo, hi)))
            rows.append((asset, sensor.name, value, stamp, "u"))
    if draw(st.booleans()):  # rows that may break any rule
        rows += draw(st.lists(st.tuples(
            st.sampled_from(["a0", "a1", "a4"]),
            st.sampled_from(names + ["unknown"]),
            st.one_of(st.floats(-200, 200), st.just(float("nan"))),
            st.sampled_from(_TIMESTAMPS + _BAD_TIMESTAMPS),
            st.sampled_from(["u", "v"]),
        ), max_size=6))
    rows = draw(st.permutations(rows))
    from autorecipe.recipe import SampleDataset

    dataset = SampleDataset(rows=tuple(rows))
    return indicator, aggregation, dataset


@settings(max_examples=200, deadline=None)
@given(case=_scoring_cases())
def test_predict_equals_row_by_row_route(case):
    from autorecipe.recipe import validate_dataset

    indicator, aggregation, dataset = case
    estimator = HealthScoreEstimator().fit(indicator, aggregation)
    try:
        expected = _predict_oracle(dataset, indicator, aggregation)
    except ValidationFailedError as exc:
        event("dataset rejected")
        with pytest.raises(ValidationFailedError) as info:
            estimator.predict(dataset)
        assert info.value.violations == exc.violations
        assert validate_dataset(dataset, indicator) == exc.violations
        return
    event("dataset scored")
    assert validate_dataset(dataset, indicator) == []
    assert estimator.predict(dataset) == expected


# --- score's streaming route against the dataset route ------------------------------------

# Lines inserted anywhere after the header: a blank line, two records with a
# quoted field holding a newline, a 4-field record and a non-numeric value.
_ODD_LINES = ["", '"a0\nb",s0,1.0,2024-01-01T00:00:00Z,u',
              '"u\n",s0,1.0,2024-01-01T00:00:00Z,"u\n"',
              "a0,s0,1.0,2024-01-01T00:00:00Z", "a0,s0,high,2024-01-01T00:00:00Z,u"]


@st.composite
def _csv_cases(draw):
    import csv
    import io

    from autorecipe.recipe import DATASET_HEADER

    indicator, aggregation, dataset = draw(_scoring_cases())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n",
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(draw(st.sampled_from([DATASET_HEADER] * 9 + [DATASET_HEADER[:3]])))
    for asset_id, sensor_name, value, timestamp, unit in dataset.rows:
        writer.writerow([asset_id, sensor_name, repr(value), timestamp, unit])
    lines = buffer.getvalue().splitlines()
    for odd in draw(st.lists(st.sampled_from(_ODD_LINES), max_size=2)):
        lines.insert(draw(st.integers(1, len(lines))), odd)
    text = "".join(line + "\n" for line in lines)
    return indicator, aggregation, draw(st.sampled_from([text] * 8 + ["", "\n"]))


def _scores_or_violations(score):
    try:
        return score()
    except ValidationFailedError as exc:
        return exc.violations


@settings(max_examples=200, deadline=None)
@given(case=_csv_cases())
def test_streaming_score_equals_dataset_route(case):
    from autorecipe.recipe import _csv_records, dataset_from_csv

    indicator, aggregation, text = case
    estimator = HealthScoreEstimator().fit(indicator, aggregation)
    expected = _scores_or_violations(lambda: estimator.predict(dataset_from_csv(text)))
    if isinstance(expected[0], str):
        by_reader = expected[0].startswith(("dataset csv", "dataset header", "dataset line"))
        event("rejected by the reader" if by_reader else "rejected by the scan")
    else:
        event("dataset scored")
    assert _scores_or_violations(lambda: estimator._predict_records(_csv_records(text))) == expected
