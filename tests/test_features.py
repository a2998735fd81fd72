from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from trendlab.errors import DataError
from trendlab.features import (
    COMPANY_FUNDAMENTALS,
    INDEX_FUNDAMENTALS,
    NEUTRAL_SENTIMENT,
    TECHNICALS,
    FeatureFrame,
    build_feature_frame,
    feature_frame_to_csv,
    inference_windows,
    parse_feature_csv,
    prepare_dataset,
)
from trendlab.indicators import IndicatorConfig, cci, macd, rsi
from trendlab.market_data import normalize
from trendlab.synthetic import planted_sentiment, random_walk_series, sine_series

from conftest import edit_csv_field, series_of
from oracles import loop_feature_rows


@pytest.fixture(scope="module")
def walk_frame() -> FeatureFrame:
    series = random_walk_series(bars=160)
    return build_feature_frame(series, sentiment_by_date=planted_sentiment(series))


def test_build_feature_frame_rejects_sentiment_above_one():
    series = sine_series(bars=80)
    sentiment = planted_sentiment(series)
    used = build_feature_frame(series, sentiment_by_date=sentiment).dates[3]
    sentiment[used] = 1.5
    with pytest.raises(DataError, match=r"sentiment values must lie in \[0, 1\]"):
        build_feature_frame(series, sentiment_by_date=sentiment)


def test_parse_feature_csv_rejects_sentiment_above_one():
    text = feature_frame_to_csv(build_feature_frame(sine_series(bars=80)))
    parse_feature_csv(text)
    for value, message in (("1.5", r"sentiment values must lie in \[0, 1\]"), ("nan", "line 2: non-finite value")):
        with pytest.raises(DataError, match=message):
            parse_feature_csv(edit_csv_field(text, 2, "Sentiment", value))


@pytest.mark.parametrize("value", [-0.1, 1.5, np.nan])
def test_feature_frame_rejects_sentiment_outside_unit_interval(walk_frame, value):
    sentiment = walk_frame.sentiment.copy()
    sentiment[7, 0] = value
    with pytest.raises(DataError, match=r"sentiment values must lie in \[0, 1\]"):
        replace(walk_frame, sentiment=sentiment)


@pytest.mark.parametrize(
    "column, value", [("Adj. Price", "inf"), ("RSI", "-inf"), ("Sentiment", "nan"), ("Answer", "nan")]
)
def test_parse_feature_csv_rejects_non_finite_values(walk_frame, column, value):
    text = edit_csv_field(feature_frame_to_csv(walk_frame), 3, column, value)
    with pytest.raises(DataError, match=f"line 3: non-finite value in column '{column}'"):
        parse_feature_csv(text)


def test_feature_csv_round_trip_index_style(walk_frame):
    back = parse_feature_csv(feature_frame_to_csv(walk_frame))
    for name in ("fundamental", "technical", "sentiment", "prices", "answers"):
        np.testing.assert_array_equal(getattr(back, name), getattr(walk_frame, name), err_msg=name)
    assert back.fundamental_names == walk_frame.fundamental_names
    assert back.technical_names == walk_frame.technical_names
    assert back.dates is None


def test_company_style_csv_recovers_prices_from_shifted_answers(walk_frame):
    text = feature_frame_to_csv(walk_frame).replace("Adj. Price,Trading Vol.,TDD", "PBR,PER,PSR", 1)
    back = parse_feature_csv(text)
    # Row 0 has no at-row price: it is dropped, and row k's price is row
    # k-1's Answer.
    assert back.fundamental_names == ("PBR", "PER", "PSR")
    assert back.n == walk_frame.n - 1
    np.testing.assert_array_equal(back.prices, walk_frame.answers[:-1])
    for name in ("fundamental", "technical", "sentiment", "answers"):
        np.testing.assert_array_equal(getattr(back, name), getattr(walk_frame, name)[1:], err_msg=name)
    # The dropped row is still validated.
    with pytest.raises(DataError, match=r"sentiment values must lie in \[0, 1\]"):
        parse_feature_csv(edit_csv_field(text, 2, "Sentiment", "1.5"))
    with pytest.raises(DataError, match="line 2: non-finite value"):
        parse_feature_csv(edit_csv_field(text, 2, "PBR", "nan"))


# Feature CSV cells to break, as (line, column, value), in the order the
# edits are applied; the per-row oracle names the first fault in row order.
FEATURE_FAULTS = [
    [(4, "RSI", "oops")],
    [(4, "Answer", "nan")],
    [(6, "CCI", "1e400"), (9, "TDD", "")],
    [(9, "Adj. Price", "x1"), (6, "Sentiment", "-inf")],
    [(5, "MACD", "inf"), (5, "RSI", "bad")],
]


@pytest.mark.parametrize("faults", [[], *FEATURE_FAULTS])
@pytest.mark.parametrize("style", ["index", "company, CRLF and blank lines"])
def test_parse_feature_csv_equals_the_per_row_oracle(walk_frame, faults, style):
    text = feature_frame_to_csv(walk_frame)
    for line, column, value in faults:
        text = edit_csv_field(text, line, column, value)
    if style != "index":
        text = text.replace("Adj. Price,Trading Vol.,TDD", "PBR,PER,PSR", 1)
        text = text.replace("\n", "\r\n").replace("\r\n", "\r\n \r\n", 3)
    headers = [names + TECHNICALS + ("Sentiment", "Answer") for names in (INDEX_FUNDAMENTALS, COMPANY_FUNDAMENTALS)]
    try:
        want = loop_feature_rows(text, *headers)
    except DataError as exc:
        with pytest.raises(DataError) as caught:
            parse_feature_csv(text)
        assert str(caught.value) == str(exc)
        return
    frame = parse_feature_csv(text)
    keep = slice(0, None) if style == "index" else slice(1, None)
    got = np.column_stack((frame.fundamental, frame.technical, frame.sentiment, frame.answers))
    assert got.tobytes() == np.array(want)[keep].tobytes()


def _scaled(block: np.ndarray, names, column_scales) -> np.ndarray:
    """Column-by-column oracle for the normalization prepare_dataset applies."""
    columns = [
        np.zeros(block.shape[0]) if column_scales[name] is None else normalize(block[:, j], column_scales[name])
        for j, name in enumerate(names)
    ]
    return np.column_stack(columns)


@pytest.mark.parametrize("with_sentiment", [True, False])
@pytest.mark.parametrize("window", [1, 5, 12])
def test_inference_windows_match_training_windows(walk_frame, with_sentiment, window):
    frame = walk_frame if with_sentiment else walk_frame.without_sentiment()
    bundle = prepare_dataset(frame, window)
    streams = inference_windows(frame, window, bundle.column_scales, use_sentiment=with_sentiment)
    rows = (
        _scaled(frame.fundamental, frame.fundamental_names, bundle.column_scales),
        _scaled(frame.technical, frame.technical_names, bundle.column_scales),
        frame.sentiment,
    )
    shared = frame.n - window
    for got, trained, scaled in zip(streams, bundle.dataset.streams, rows):
        if scaled is None:
            assert got is None and trained is None
            continue
        assert got.shape == (shared + 1, window, scaled.shape[1])
        assert got.dtype == trained.dtype == np.float64
        assert got.flags.c_contiguous and trained.flags.c_contiguous
        assert got[:shared].tobytes() == trained.tobytes()
        # The extra window ends on the last row, whose next step is unknown.
        np.testing.assert_array_equal(got[-1], scaled[-window:])


def test_train_scale_fit_does_not_leak_rows_after_the_last_training_label(walk_frame):
    window = 6
    before = prepare_dataset(walk_frame, window, scale_fit="train").dataset
    last_label = int(before.label_indices[before.split_index - 1])
    assert last_label < walk_frame.n - 1
    for row in range(last_label + 1, walk_frame.n):
        perturbed = {
            name: getattr(walk_frame, name).copy()
            for name in ("fundamental", "technical", "sentiment", "prices", "answers")
        }
        perturbed["fundamental"][row] *= 10.0
        perturbed["technical"][row] = 100.0 - 10.0 * perturbed["technical"][row]
        perturbed["sentiment"][row] = 1.0 - perturbed["sentiment"][row]
        perturbed["prices"][row] *= 10.0
        perturbed["answers"][row] *= 10.0
        frame = replace(walk_frame, **perturbed)
        after = prepare_dataset(frame, window, scale_fit="train").dataset
        assert after.split_index == before.split_index
        for got, want in zip(after.train.streams + (after.train.labels,), before.train.streams + (before.train.labels,)):
            assert got.tobytes() == want.tobytes(), row
        # The perturbation is large enough to show through a full-period fit.
        full = prepare_dataset(frame, window, scale_fit="full").dataset
        assert full.train.labels.tobytes() != before.train.labels.tobytes()


@pytest.mark.parametrize(
    "config",
    [IndicatorConfig(), IndicatorConfig(rsi_period=30), IndicatorConfig(cci_period=40, cci_constant=0.02)],
    ids=["macd-warmup", "rsi-warmup", "cci-warmup"],
)
@pytest.mark.parametrize("with_sentiment", [True, False])
def test_build_feature_frame_rows_match_a_per_bar_recomputation(config, with_sentiment):
    """Row k belongs to bar t = warm-up + k: every value is what the bar's
    own price prefix gives, and the Answer is the next bar's price."""
    series = random_walk_series(bars=90)
    sentiment = planted_sentiment(series) if with_sentiment else None
    frame = build_feature_frame(series, config, sentiment)
    bars = series.bars
    assert frame.n == len(bars) - 1 - config.warmup
    for k in range(frame.n):
        t = config.warmup + k
        prefix = series_of(bars[: t + 1], series.interval)
        assert frame.dates[k] == bars[t].date
        assert frame.prices[k] == bars[t].adjusted
        assert frame.answers[k] == bars[t + 1].adjusted
        assert list(frame.fundamental[k]) == [
            bars[t].adjusted, bars[t].volume, bars[t].adjusted - bars[t - 1].adjusted,
        ]
        assert list(frame.technical[k]) == [
            rsi(prefix, config.rsi_period)[-1],
            cci(prefix, config.cci_period, config.cci_constant)[-1],
            macd(prefix, config.macd_fast, config.macd_slow)[-1],
        ]
        want = NEUTRAL_SENTIMENT if sentiment is None else sentiment[bars[t].date]
        assert list(frame.sentiment[k]) == [want]


def _persistence_and_linear_rmse(series, scores, window: int = 12) -> tuple[float, float]:
    """Test RMSE of persistence (window k predicts `labels[k-1]`) and of a
    closed-form least-squares fit, plus a bias, on the flattened training
    windows of every stream."""
    dataset = prepare_dataset(build_feature_frame(series, sentiment_by_date=scores), window).dataset
    n, split = dataset.n_windows, dataset.split_index
    x = np.concatenate([dataset.fundamental, dataset.technical, dataset.sentiment], axis=2).reshape(n, -1)
    x = np.column_stack([x, np.ones(n)])
    coef, *_ = np.linalg.lstsq(x[:split], dataset.labels[:split], rcond=None)
    test = dataset.labels[split:]

    def rmse(predicted):
        return float(np.sqrt(np.mean((predicted - test) ** 2)))

    return rmse(dataset.labels[split - 1:-1]), rmse(x[split:] @ coef)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 23])
def test_a_linear_fit_finds_the_planted_sentiment_and_loses_it_one_date_late(seed):
    """Positive control on the windowing and the date join, with no
    training: the planted score at date t encodes the move to t+1, so a
    linear fit on windows that end at t beats persistence by over 2x
    (2.5x-3.1x on these seeds). Scores shifted one date later only
    describe the move already seen, and the fit falls behind persistence."""
    series = random_walk_series(340, seed=seed)
    scores = planted_sentiment(series, seed=13)
    dates = series.dates()
    late = {dates[0]: NEUTRAL_SENTIMENT} | {later: scores[when] for when, later in zip(dates, dates[1:])}
    persistence, linear = _persistence_and_linear_rmse(series, scores)
    assert persistence > 2.0 * linear
    persistence_late, linear_late = _persistence_and_linear_rmse(series, late)
    assert persistence_late == persistence
    assert linear_late > persistence
