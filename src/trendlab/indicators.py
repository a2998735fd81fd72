"""Technical-analysis features: RSI, CCI, and MACD.

Each function reads its periods and constant from an `IndicatorConfig`,
which validates them when it is built, and returns only the defined values;
warm-up indices are omitted. The first defined value of `rsi` sits at bar
index `rsi_period`, of `cci` at `cci_period - 1`, and of `macd` at
`macd_slow - 1`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, enforce_field_types, require_finite
from .market_data import CLOSE, HIGH, LOW, PriceSeries


@dataclass(frozen=True)
class IndicatorConfig:
    rsi_period: int = 14
    cci_period: int = 20
    cci_constant: float = 0.015
    macd_fast: int = 12
    macd_slow: int = 26

    def __post_init__(self):
        enforce_field_types(self)
        require_finite(self)
        for name in ("rsi_period", "cci_period", "macd_fast", "macd_slow"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be >= 2, got {getattr(self, name)}")
        if not self.macd_fast < self.macd_slow:
            raise ConfigError(
                f"macd_fast ({self.macd_fast}) must be smaller than macd_slow ({self.macd_slow})"
            )
        if not self.cci_constant > 0:
            raise ConfigError(f"cci_constant must be positive, got {self.cci_constant}")

    @property
    def warmup(self) -> int:
        """First bar index at which every indicator is defined."""
        return max(self.rsi_period, self.cci_period - 1, self.macd_slow - 1)


def rsi(series: PriceSeries, config: IndicatorConfig) -> np.ndarray:
    """Relative Strength Index with Wilder smoothing, in [0, 100].

    RSI_t = 100 - 100 / (1 + avgGain_t / avgLoss_t) over adjusted-price
    deltas; the seed averages are plain means of the first `period` deltas,
    then avg_t = (avg_{t-1} * (period-1) + x_t) / period, with period
    `config.rsi_period`. A window with zero losses reads 100, zero gains
    reads 0, and a perfectly flat window reads the neutral 50.
    """
    period = config.rsi_period
    prices = series.adjusted()
    if prices.size < period + 1:
        raise DataError(f"series too short for RSI-{period}: {prices.size} bars")
    deltas = np.diff(prices)
    gains = np.maximum(deltas, 0.0)
    losses = np.maximum(-deltas, 0.0)

    # The recursion runs on Python floats: the same IEEE double arithmetic
    # as numpy scalars, at a fraction of the cost per step.
    avg_gain = float(gains[:period].mean())
    avg_loss = float(losses[:period].mean())
    avg_gains, avg_losses = [avg_gain], [avg_loss]
    for gain, loss in zip(gains[period:].tolist(), losses[period:].tolist()):
        avg_gain = (avg_gain * (period - 1) + gain) / period
        avg_loss = (avg_loss * (period - 1) + loss) / period
        avg_gains.append(avg_gain)
        avg_losses.append(avg_loss)
    return _rsi_values(np.array(avg_gains), np.array(avg_losses))


def _rsi_values(avg_gain: np.ndarray, avg_loss: np.ndarray) -> np.ndarray:
    """100 - 100 / (1 + avg_gain / avg_loss) per element: 100 where the
    loss average is 0, and 50 where both are. Each element gets the IEEE
    operations of the scalar formula, so the bits are the scalar's; a
    ratio that overflows is inf and reads 100, as a Python float's does,
    without a warning."""
    out = np.full(avg_gain.shape, 100.0)
    lossy = avg_loss != 0.0
    with np.errstate(over="ignore"):
        out[lossy] = 100.0 - 100.0 / (1.0 + avg_gain[lossy] / avg_loss[lossy])
    out[(avg_gain == 0.0) & ~lossy] = 50.0
    return out


def cci(series: PriceSeries, config: IndicatorConfig) -> np.ndarray:
    """Commodity Channel Index over the typical price (high+low+close)/3.

    CCI_t = (TP_t - SMA(TP, period)_t) / (constant * MAD_t) where MAD is the
    mean absolute deviation of the window's typical prices about the window
    SMA, with period `config.cci_period` and constant `config.cci_constant`.
    A window with zero deviation (flat market) reads 0.
    """
    period, constant = config.cci_period, config.cci_constant
    if len(series) < period:
        raise DataError(f"series too short for CCI-{period}: {len(series)} bars")
    prices = series.ohlca
    tp = (prices[:, HIGH] + prices[:, LOW] + prices[:, CLOSE]) / 3.0

    windows = sliding_window_view(tp, period)
    sma = windows.mean(axis=1)
    mad = np.abs(windows - sma[:, None]).mean(axis=1)
    out = np.zeros_like(sma)
    np.divide(tp[period - 1 :] - sma, constant * mad, out=out, where=mad != 0.0)
    return out


def ema(values: np.ndarray, period: int) -> np.ndarray:
    """Exponential moving average, smoothing 2/(period+1), seeded with the
    SMA of the first `period` values. First defined value at index period-1.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < period:
        raise DataError(f"too few values for EMA-{period}: {values.size}")
    alpha = 2.0 / (period + 1.0)
    out = [float(values[:period].mean())]
    for value in values[period:].tolist():
        out.append(alpha * value + (1.0 - alpha) * out[-1])
    return np.array(out, dtype=np.float64)


def macd(series: PriceSeries, config: IndicatorConfig) -> np.ndarray:
    """MACD line: EMA(adjusted, macd_fast) - EMA(adjusted, macd_slow).

    First defined value at bar index macd_slow-1.
    """
    fast, slow = config.macd_fast, config.macd_slow
    prices = series.adjusted()
    if prices.size < slow:
        raise DataError(f"series too short for MACD-{fast}/{slow}: {prices.size} bars")
    fast_ema = ema(prices, fast)
    slow_ema = ema(prices, slow)
    return fast_ema[slow - fast :] - slow_ema
