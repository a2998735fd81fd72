"""The three benchmark workloads. Each drives `trendlab.cli.main` in-process
on inputs generated from `trendlab.synthetic`, one request at a time (a
closed loop with one client), and checks every request's outputs against
`reference.json`.

Inputs depend on the workload seed: fixture variant `seed % VARIANTS` picks
the synthetic paths, and for `predict_daily` the seed also orders the
history lengths. Work per request does not depend on the variant.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from trendlab import cli
from trendlab.experiments import PAPER_SEGMENTS
from trendlab.features import build_feature_frame, prepare_dataset
from trendlab.market_data import resample_weekly
from trendlab.synthetic import paper_shaped_series, planted_sentiment, trend_seasonal_daily

VARIANTS = 8

# Reduced epoch counts: enough that training dominates each request (~85% of
# train_weekly), few enough that one request fits in the short calm spells
# of a shared machine, which is where its fastest run is measured.
TRAIN_EPOCHS = 4
GRID_EPOCHS = 4
CHECKPOINT_EPOCHS = 6

GRID_SEEDS = (0, 1, 2)
GRID_THREADS = "2"

DAILY_BARS = 4600           # ~18 years of business days
BARS_PER_YEAR = 260         # a multiple of 5, so every cut starts on a Monday
HISTORY_YEARS = (1, 2, 4, 7, 11, 18)   # few, so that one cycle is short too

# Outputs agree with the reference when |got - want| <= ABS_TOL + REL_TOL * |want|.
# Loose enough for float64 reassociation in a faster kernel, tight enough to
# catch any change in what is computed.
REL_TOL = 1e-6
ABS_TOL = 1e-9

MODEL = {"layers": 3, "hidden_size": 32, "window": 12, "cell": "lstm"}


def close(got: float, want: float) -> bool:
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def write_price_csv(path: Path, bars) -> None:
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for b in bars:
        lines.append(
            f"{b.date.isoformat()},{b.open!r},{b.high!r},{b.low!r},{b.close!r},{b.adjusted!r},{b.volume}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_sentiment_csv(path: Path, scores) -> None:
    lines = ["Date,Sentiment"] + [f"{d.isoformat()},{v!r}" for d, v in sorted(scores.items())]
    path.write_text("\n".join(lines) + "\n")


def write_config(path: Path, **doc) -> Path:
    path.write_text(json.dumps({k: str(v) if isinstance(v, Path) else v for k, v in doc.items()}))
    return path


@dataclass(frozen=True)
class Request:
    key: str          # names the expected outputs in the reference
    argv: tuple[str, ...]
    out: Path
    samples: int      # windows the network processes, training windows x epochs when training


def call_cli(argv, around=None) -> tuple[int, float]:
    """Run one CLI request with its console output discarded; returns the
    exit code and the wall time. `around(fn, argv)` wraps the call itself,
    which is how the traced run records the request span."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        code = cli.main(list(argv)) if around is None else around(cli.main, list(argv))
        wall = time.perf_counter() - started
    return code, wall


class Workload:
    name = ""
    threads: str | None = None  # TRENDLAB_THREADS for this workload's requests
    operations = 1              # operations per request, for error_rate

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.variant = seed % VARIANTS
        self.expected = None if reference is None else reference[self.name][str(self.variant)]

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def deck(self) -> list[Request]:
        """One cycle of requests; the timed loop repeats whole cycles."""
        raise NotImplementedError

    def observe(self, request: Request) -> dict:
        """The request's outputs, reduced to what the reference stores."""
        raise NotImplementedError

    def compare(self, observed: dict, want: dict) -> list[bool]:
        """One outcome per operation the request performs."""
        raise NotImplementedError

    def check(self, request: Request, code: int) -> list[bool]:
        want = self.expected[request.key]
        if code == 0:
            try:
                return self.compare(self.observe(request), want)
            except (OSError, ValueError, KeyError, IndexError, TypeError):
                pass  # missing or malformed outputs
        return [False] * self.operations


def _weekly_fixture(work: Path, variant: int) -> tuple[Path, Path]:
    series = paper_shaped_series(seed=variant)
    prices, sentiment = work / "prices.csv", work / "sentiment.csv"
    write_price_csv(prices, series.bars)
    write_sentiment_csv(sentiment, planted_sentiment(series, seed=variant))
    return prices, sentiment


class TrainWeekly(Workload):
    """`trendlab train` on the weekly paper-shaped series: forward and
    backward passes at full batch dominate; the data layers barely run."""

    name = "train_weekly"

    def setup(self, work: Path) -> None:
        prices, sentiment = _weekly_fixture(work, self.variant)
        self.config = write_config(
            work / "train.json", price_csv=prices, sentiment_csv=sentiment, symbol="SHAPED",
            interval="weekly", price_interval="weekly",
            train={**MODEL, "epochs": TRAIN_EPOCHS, "seed": self.variant},
        )
        self.out = work / "out"

    def deck(self) -> list[Request]:
        windows = 0 if self.expected is None else self.expected["train"]["n_train_windows"]
        argv = ("train", "--config", str(self.config), "--out", str(self.out))
        return [Request("train", argv, self.out, windows * TRAIN_EPOCHS)]

    def observe(self, request: Request) -> dict:
        metrics = json.loads((request.out / "metrics.json").read_text())
        return {k: metrics[k] for k in ("n_train_windows", "train_rmse", "test_rmse")}

    def compare(self, observed: dict, want: dict) -> list[bool]:
        return [
            observed["n_train_windows"] == want["n_train_windows"]
            and close(observed["train_rmse"], want["train_rmse"])
            and close(observed["test_rmse"], want["test_rmse"])
        ]


class RegimeGrid(Workload):
    """`trendlab experiment regime`: three two-year segments x {lstm, rnn} x
    three seeds on two worker threads. Small cells make per-epoch fixed
    costs and cell scheduling matter; one operation is one grid cell."""

    name = "regime_grid"
    threads = GRID_THREADS
    operations = len(PAPER_SEGMENTS) * 2 * len(GRID_SEEDS)

    def setup(self, work: Path) -> None:
        prices, sentiment = _weekly_fixture(work, self.variant)
        self.config = write_config(
            work / "grid.json", price_csv=prices, sentiment_csv=sentiment, symbol="SHAPED",
            interval="weekly", price_interval="weekly",
            train={**MODEL, "epochs": GRID_EPOCHS},
            experiments={"seeds": list(GRID_SEEDS)},
        )
        self.out = work / "out"

    def deck(self) -> list[Request]:
        windows = 0 if self.expected is None else sum(self.expected["grid"]["cell_train_windows"])
        argv = ("experiment", "--config", str(self.config), "--out", str(self.out), "regime")
        return [Request("grid", argv, self.out, windows * GRID_EPOCHS)]

    def observe(self, request: Request) -> dict:
        doc = json.loads((request.out / "regime_report.json").read_text())
        rows = [
            [r["model"], r["regime"], r["seed"], r["train_rmse"], r["test_rmse"], r["error"]]
            for r in doc["rows"]
        ]
        return {"rows": rows}

    def compare(self, observed: dict, want: dict) -> list[bool]:
        got = observed["rows"]
        outcomes = []
        for k, (model, regime, seed, train_rmse, test_rmse, _) in enumerate(want["rows"]):
            if k >= len(got):
                outcomes.append(False)
                continue
            g_model, g_regime, g_seed, g_train, g_test, g_error = got[k]
            outcomes.append(
                (g_model, g_regime, g_seed, g_error) == (model, regime, seed, "")
                and g_train is not None and g_test is not None
                and close(g_train, train_rmse) and close(g_test, test_rmse)
            )
        return outcomes

    def cell_train_windows(self) -> list[int]:
        """Training windows per cell, in report row order (written into the
        reference with the rows)."""
        series = paper_shaped_series(seed=self.variant)
        sentiment = planted_sentiment(series, seed=self.variant)
        per_segment = []
        for start, end in PAPER_SEGMENTS:
            frame = build_feature_frame(series.between(start, end), sentiment_by_date=sentiment)
            per_segment.append(prepare_dataset(frame, MODEL["window"]).dataset.split_index)
        return [n for n in per_segment for _ in range(2 * len(GRID_SEEDS))]


class PredictDaily(Workload):
    """`trendlab predict` against a checkpoint trained during set-up. Each
    request is a daily CSV holding the last 1 to 18 years of one path; the
    CLI resamples it weekly. Forward-only network work at batches of 15 to
    883 windows, with CSV parsing, resampling, features and checkpoint
    decoding making up the rest."""

    name = "predict_daily"

    def setup(self, work: Path) -> None:
        series = trend_seasonal_daily(bars=DAILY_BARS, seed=self.variant)
        full = work / "daily.csv"
        sentiment = work / "sentiment.csv"
        write_price_csv(full, series.bars)
        write_sentiment_csv(sentiment, planted_sentiment(resample_weekly(series), seed=self.variant))
        common = dict(sentiment_csv=sentiment, symbol="TRSEAS", interval="weekly", price_interval="daily")
        checkpoint_dir = work / "checkpoint"
        trained = write_config(
            work / "train.json", price_csv=full, output_dir=checkpoint_dir,
            train={**MODEL, "epochs": CHECKPOINT_EPOCHS, "seed": self.variant}, **common,
        )
        code, _ = call_cli(("train", "--config", str(trained)))
        if code != 0:
            raise RuntimeError(f"checkpoint training exited with code {code}")
        self.configs = {}
        for years in HISTORY_YEARS:
            cut = work / f"daily_{years}y.csv"
            write_price_csv(cut, series.bars[max(0, DAILY_BARS - years * BARS_PER_YEAR):])
            self.configs[years] = write_config(
                work / f"predict_{years}y.json", price_csv=cut,
                checkpoint=checkpoint_dir / "checkpoint.json", **common,
            )
        self.out = work / "out"
        self.order = random.Random(self.seed)

    def deck(self) -> list[Request]:
        years = list(HISTORY_YEARS)
        self.order.shuffle(years)
        deck = []
        for y in years:
            windows = 0 if self.expected is None else self.expected[str(y)]["rows"]
            argv = ("predict", "--config", str(self.configs[y]), "--out", str(self.out))
            deck.append(Request(str(y), argv, self.out, windows))
        return deck

    def observe(self, request: Request) -> dict:
        with open(request.out / "predictions.csv", newline="") as handle:
            values = [float(row["prediction_normalized"]) for row in csv.DictReader(handle)]
        return {
            "rows": len(values),
            "first": values[0],
            "last": values[-1],
            "mean": math.fsum(values) / len(values),
            "min": min(values),
            "max": max(values),
        }

    def compare(self, observed: dict, want: dict) -> list[bool]:
        return [
            observed["rows"] == want["rows"]
            and all(close(observed[k], want[k]) for k in ("first", "last", "mean", "min", "max"))
        ]


WORKLOADS = {w.name: w for w in (TrainWeekly, RegimeGrid, PredictDaily)}


def run_request(request: Request, around=None) -> tuple[int, float]:
    shutil.rmtree(request.out, ignore_errors=True)
    return call_cli(request.argv, around)
