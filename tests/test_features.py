from __future__ import annotations

import pytest

from trendlab.errors import DataError
from trendlab.features import build_feature_frame, feature_frame_to_csv, parse_feature_csv
from trendlab.synthetic import planted_sentiment, sine_series


def test_build_feature_frame_rejects_sentiment_above_one():
    series = sine_series(bars=80)
    sentiment = planted_sentiment(series)
    used = build_feature_frame(series, sentiment_by_date=sentiment).dates[3]
    sentiment[used] = 1.5
    with pytest.raises(DataError, match=r"sentiment values must lie in \[0, 1\]"):
        build_feature_frame(series, sentiment_by_date=sentiment)


def test_parse_feature_csv_rejects_sentiment_above_one():
    text = feature_frame_to_csv(build_feature_frame(sine_series(bars=80)))
    header, first, *rest = text.splitlines()
    fields = first.split(",")
    fields[header.split(",").index("Sentiment")] = "1.5"
    parse_feature_csv(text)
    with pytest.raises(DataError, match=r"sentiment values must lie in \[0, 1\]"):
        parse_feature_csv("\n".join([header, ",".join(fields), *rest]) + "\n")
