"""Independent brute-force oracles used by the tests.

These are written straight from the defining formulas with plain Python
loops and lists, deliberately sharing no code with the library
implementations they check. The exceptions are numpy: the per-window and
per-step indicator loops and the per-bar weekly grouping, the per-block
Adam step, and the reference recurrent kernel at the end, the
straightforward per-step, time-major formulation that the library's
batch-last kernel replaced. Each is the form the library used before, kept
to check the library's form after its arithmetic changed. The per-row CSV
parsers tokenise with `csv.reader` themselves, one row at a time, as the
library did before it read whole column blocks.
The gradient check at the end shares code with the library by design: it
differentiates the library's own forward pass numerically, to check the
library's backward pass against it.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import date, timedelta

import numpy as np

from trendlab.errors import DataError
from trendlab.network import ModelShape, NetworkParameters, backward_batch, forward_batch, init_parameters


def wilder_rsi(prices: list[float], period: int) -> list[float]:
    deltas = [prices[k] - prices[k - 1] for k in range(1, len(prices))]
    gains = [max(d, 0.0) for d in deltas]
    losses = [max(-d, 0.0) for d in deltas]
    out = []
    avg_gain = sum(gains[:period]) / period
    avg_loss = sum(losses[:period]) / period

    def to_rsi(g: float, l: float) -> float:
        if l == 0.0 and g == 0.0:
            return 50.0
        if l == 0.0:
            return 100.0
        return 100.0 - 100.0 / (1.0 + g / l)

    out.append(to_rsi(avg_gain, avg_loss))
    for k in range(period, len(deltas)):
        avg_gain = (avg_gain * (period - 1) + gains[k]) / period
        avg_loss = (avg_loss * (period - 1) + losses[k]) / period
        out.append(to_rsi(avg_gain, avg_loss))
    return out


def windowed_cci(
    highs: list[float], lows: list[float], closes: list[float], period: int, constant: float
) -> list[float]:
    tps = [(h + l + c) / 3.0 for h, l, c in zip(highs, lows, closes)]
    out = []
    for t in range(period - 1, len(tps)):
        window = tps[t - period + 1 : t + 1]
        sma = sum(window) / period
        mad = sum(abs(v - sma) for v in window) / period
        out.append(0.0 if mad == 0.0 else (tps[t] - sma) / (constant * mad))
    return out


def seeded_ema(values: list[float], period: int) -> list[float]:
    alpha = 2.0 / (period + 1.0)
    out = [sum(values[:period]) / period]
    for v in values[period:]:
        out.append(alpha * v + (1.0 - alpha) * out[-1])
    return out


def ema_macd(prices: list[float], fast: int, slow: int) -> list[float]:
    fast_line = seeded_ema(prices, fast)
    slow_line = seeded_ema(prices, slow)
    offset = slow - fast
    return [f - s for f, s in zip(fast_line[offset:], slow_line)]


def loop_rsi(prices: np.ndarray, period: int) -> np.ndarray:
    """Wilder RSI with the recursion on numpy scalars, one step per delta:
    the loop the library's Python-float recursion replaced."""
    deltas = np.diff(prices)
    gains = np.maximum(deltas, 0.0)
    losses = np.maximum(-deltas, 0.0)

    def to_rsi(g, l):
        if l == 0.0 and g == 0.0:
            return 50.0
        if l == 0.0:
            return 100.0
        return 100.0 - 100.0 / (1.0 + g / l)

    out = np.empty(prices.size - period, dtype=np.float64)
    avg_gain = gains[:period].mean()
    avg_loss = losses[:period].mean()
    out[0] = to_rsi(avg_gain, avg_loss)
    for k in range(period, deltas.size):
        avg_gain = (avg_gain * (period - 1) + gains[k]) / period
        avg_loss = (avg_loss * (period - 1) + losses[k]) / period
        out[k - period + 1] = to_rsi(avg_gain, avg_loss)
    return out


def loop_cci(tp: np.ndarray, period: int, constant: float) -> np.ndarray:
    """CCI of typical prices `tp`, one numpy window at a time: the loop the
    library's sliding-window form replaced."""
    out = np.empty(tp.size - period + 1, dtype=np.float64)
    for t in range(period - 1, tp.size):
        win = tp[t - period + 1 : t + 1]
        sma = win.mean()
        mad = np.abs(win - sma).mean()
        out[t - period + 1] = 0.0 if mad == 0.0 else (tp[t] - sma) / (constant * mad)
    return out


def loop_ema(values: np.ndarray, period: int) -> np.ndarray:
    """SMA-seeded EMA with the recursion on numpy scalars: the loop the
    library's Python-float recursion replaced."""
    alpha = 2.0 / (period + 1.0)
    out = np.empty(values.size - period + 1, dtype=np.float64)
    out[0] = values[:period].mean()
    for k in range(period, values.size):
        out[k - period + 1] = alpha * values[k] + (1.0 - alpha) * out[k - period]
    return out


def loop_resample_weekly(bars) -> list[tuple]:
    """Daily bars grouped into Monday-anchored weeks by comparing each bar's
    Monday with its group's first, as (monday, open, high, low, close,
    adjusted, volume) tuples: the grouping the library's one-key-per-bar
    form replaced."""

    def monday_of(day):
        return day - timedelta(days=day.weekday())

    def collapse(group):
        return (
            monday_of(group[0].date), group[0].open, max(b.high for b in group),
            min(b.low for b in group), group[-1].close, group[-1].adjusted,
            sum(b.volume for b in group),
        )

    weekly, group = [], []
    for bar in bars:
        if group and monday_of(bar.date) != monday_of(group[0].date):
            weekly.append(collapse(group))
            group = []
        group.append(bar)
    weekly.append(collapse(group))
    return weekly


def csv_rows(text: str, *headers: tuple[str, ...]):
    """The header of CSV `text`, one of `headers` once a leading byte-order
    mark and the blanks around each name are dropped, and a generator over
    the other rows as (line number, fields), tokenised by `csv.reader`:
    empty and whitespace-only rows are skipped, but counted; a row with a
    field count other than the header's raises."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    first = next(reader, None)
    if first is None:
        raise DataError("empty file: missing header")
    header = tuple(name.strip() for name in first)
    if header not in headers:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        raise DataError(f"unexpected header {header!r}; expected {expected}")

    def rows():
        for lineno, row in enumerate(reader, start=2):
            if row and not (len(row) == 1 and not row[0].strip()):
                if len(row) != len(header):
                    raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
                yield lineno, row

    return header, rows()


def loop_parse_price_csv(text: str) -> list[tuple]:
    """Price CSV rows as (date, open, high, low, close, adjusted, volume)
    tuples, converted and checked one row at a time, then checked for
    ascending dates: the per-row parser the library's columnar one
    replaced, raising the same errors."""
    bars = []
    for lineno, row in csv_rows(text, ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"))[1]:
        try:
            when = date.fromisoformat(row[0].strip())
            o, h, l, c, adj = (float(row[k]) for k in range(1, 6))
            vol = int(row[6])
        except ValueError as exc:
            raise DataError(f"line {lineno}: malformed row: {exc}") from None
        if not -(2**63) <= vol < 2**63:
            raise DataError(f"line {lineno}: malformed row: volume {vol} does not fit in int64")
        fault = _bar_fault(o, h, l, c, adj, vol)
        if fault is not None:
            raise DataError(f"line {lineno}: {when}: {fault}")
        bars.append((when, o, h, l, c, adj, vol))
    if not bars:
        raise DataError("empty series")
    for prev, cur in zip(bars, bars[1:]):
        if cur[0] <= prev[0]:
            raise DataError(f"dates not ascending at {cur[0]} (after {prev[0]})")
    return bars


def loop_parse_sentiment_csv(text: str) -> dict[date, float]:
    """Sentiment CSV scores by date, converted and checked one row at a
    time: the per-row parser the library's columnar one replaced, raising
    the same errors."""
    scores = {}
    for lineno, row in csv_rows(text, ("Date", "Sentiment"))[1]:
        try:
            when = date.fromisoformat(row[0].strip())
            value = float(row[1])
        except ValueError as exc:
            raise DataError(f"line {lineno}: malformed row: {exc}") from None
        if not 0.0 <= value <= 1.0:
            raise DataError(f"line {lineno}: sentiment {value} outside [0, 1]")
        if when in scores:
            raise DataError(f"line {lineno}: duplicate date {when}")
        scores[when] = value
    if not scores:
        raise DataError("no sentiment rows")
    return scores


def loop_feature_rows(text: str, *headers: tuple[str, ...]) -> list[list[float]]:
    """The rows of a feature CSV with one of `headers` as floats, converted
    and checked for finite values one row at a time: the per-row loop the
    library's columnar one replaced, raising the same errors."""
    header, rows = csv_rows(text, *headers)
    values = []
    for lineno, row in rows:
        try:
            parsed = [float(v) for v in row]
        except ValueError as exc:
            raise DataError(f"line {lineno}: malformed row: {exc}") from None
        for name, v in zip(header, parsed):
            if not math.isfinite(v):
                raise DataError(f"line {lineno}: non-finite value in column {name!r}")
        values.append(parsed)
    if not values:
        raise DataError("empty feature frame")
    return values


def _bar_fault(o: float, h: float, l: float, c: float, adj: float, vol: int) -> str | None:
    """The first bar invariant one bar breaks, in the order the per-bar
    record checked them."""
    if not (l <= o <= h):
        return f"open {o} outside [low, high]"
    if not (l <= c <= h):
        return f"close {c} outside [low, high]"
    if vol < 0:
        return f"negative volume {vol}"
    if not adj > 0:
        return f"adjusted price must be positive, got {adj}"
    for name, value in zip(("open", "high", "low", "close", "adjusted"), (o, h, l, c, adj)):
        if not math.isfinite(value):
            return f"non-finite {name}"
    return None


def unrolled_adam(
    grads: list[float], lr: float, beta1: float, beta2: float, eps: float, theta0: float = 0.0
) -> list[float]:
    """Scalar Adam trajectory, one theta per step."""
    m = v = 0.0
    theta = theta0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def reference_adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    t: int,
    *,
    learning_rate: float,
    beta1: float,
    beta2: float,
    epsilon: float,
) -> None:
    """One bias-corrected Adam step taken block by block, in place on the
    arrays of `params` and on `m` and `v`, keyed by block name: the
    per-block optimizer that the library's one-vector step replaced, kept to
    check it bit for bit."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        p -= learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + epsilon)


def scalar_sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def scalar_lstm_step(
    x: float, h: float, c: float,
    w_f: float, u_f: float, b_f: float,
    w_i: float, u_i: float, b_i: float,
    w_o: float, u_o: float, b_o: float,
    w_c: float, u_c: float, b_c: float,
) -> tuple[float, float, dict[str, float]]:
    f = scalar_sigmoid(w_f * x + u_f * h + b_f)
    i = scalar_sigmoid(w_i * x + u_i * h + b_i)
    o = scalar_sigmoid(w_o * x + u_o * h + b_o)
    g = math.tanh(w_c * x + u_c * h + b_c)
    c_new = f * c + i * g
    h_new = o * math.tanh(c_new)
    return h_new, c_new, {"f": f, "i": i, "o": o, "g": g}


def pairwise_sum(values: list[float]) -> float:
    """The sum of `values` in numpy's pairwise order, so that it equals
    `np.sum` of the same values in the same order bit for bit: a run of up
    to 128 values is summed in 8 interleaved accumulators
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftovers in
    turn; fewer than 8 values are summed in turn; a longer run is split at
    half its length, rounded down to a multiple of 8.
    """

    def total(lo: int, n: int) -> float:
        if n < 8:
            acc = 0.0
            for k in range(lo, lo + n):
                acc += values[k]
            return acc
        if n <= 128:
            r = values[lo : lo + 8]
            k = 8
            while k < n - n % 8:
                for j in range(8):
                    r[j] += values[lo + k + j]
                k += 8
            acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for k in range(k, n):
                acc += values[lo + k]
            return acc
        half = n // 2
        half -= half % 8
        return total(lo, half) + total(lo + half, n - half)

    return total(0, len(values))


def pairwise_mean(values: list[float]) -> float:
    """`pairwise_sum` over the count: `np.mean` of the same values in the
    same order, bit for bit."""
    if not values:
        raise ValueError("mean of no values")
    return pairwise_sum(values) / len(values)


def python_lstm_forward(window, weights: dict[str, np.ndarray], layers: int) -> float:
    """One window through the stream projections, `layers` memory-cell
    layers and the head, with plain Python loops over named parameters.
    `window` is (fundamental, technical, sentiment), each a list of
    per-step vectors; sentiment may be None.
    """

    def dot(name: str, row: int, v: list[float]) -> float:
        return sum(float(weights[name][row, j]) * v[j] for j in range(len(v)))

    streams = [("A", window[0]), ("F", window[1])] + ([("S", window[2])] if window[2] is not None else [])
    width = weights["fusion.W_A"].shape[0]
    xs = [
        [dot(f"fusion.W_{name}", r, list(stream[t])) + float(weights[f"fusion.b_{name}"][r])
         for name, stream in streams for r in range(width)]
        for t in range(len(window[0]))
    ]
    for k in range(layers):
        hid = weights[f"layers.{k}.W_f"].shape[0]
        h, c = [0.0] * hid, [0.0] * hid
        hs = []
        for x in xs:
            pre = {
                g: [dot(f"layers.{k}.W_{g}", u, x) + dot(f"layers.{k}.U_{g}", u, h)
                    + float(weights[f"layers.{k}.b_{g}"][u]) for u in range(hid)]
                for g in "fioc"
            }
            c = [scalar_sigmoid(pre["f"][u]) * c[u] + scalar_sigmoid(pre["i"][u]) * math.tanh(pre["c"][u])
                 for u in range(hid)]
            h = [scalar_sigmoid(pre["o"][u]) * math.tanh(c[u]) for u in range(hid)]
            hs.append(h)
        xs = hs
    return sum(float(weights["head.w"][u]) * xs[-1][u] for u in range(len(xs[-1]))) + float(weights["head.b"])


# --- reference recurrent kernel ----------------------------------------------
#
# Time-major, batch-first buffers (steps, windows, features); one GEMM pair
# per step; gates sliced as columns of a (windows, 4 * hidden) block in
# f, i, o, c order. Reads parameters by their `param_dict()` names, stacks
# the gate blocks itself, and shares no code with trendlab.network.


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _stacked(weights: dict[str, np.ndarray], k: int):
    """Layer k's gate-stacked (W, U, b), or None for a tanh layer."""
    if f"layers.{k}.W_f" not in weights:
        return None
    return tuple(
        np.concatenate([weights[f"layers.{k}.{kind}_{g}"] for g in "fioc"]) for kind in ("W", "U", "b")
    )


def reference_forward(streams, params) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Predictions (n,) and, per layer, the cached (T, n, .) arrays: x, h,
    c, f, i, o, g, tanh_c for a memory-cell layer; x, s for a tanh layer.
    """
    weights = params.param_dict()
    a, f, s = streams
    parts = [a @ weights["fusion.W_A"].T + weights["fusion.b_A"],
             f @ weights["fusion.W_F"].T + weights["fusion.b_F"]]
    if "fusion.W_S" in weights:
        parts.append(s @ weights["fusion.W_S"].T + weights["fusion.b_S"])
    x = np.ascontiguousarray(np.concatenate(parts, axis=2).transpose(1, 0, 2))
    steps, n = x.shape[:2]

    caches = []
    for k in range(len(params.layers)):
        stacked = _stacked(weights, k)
        if stacked is not None:
            Wall, Uall, ball = stacked
            hid = ball.shape[0] // 4
            cache = {key: np.empty((steps, n, hid)) for key in ("h", "c", "f", "i", "o", "g", "tanh_c")}
            h_prev = np.zeros((n, hid))
            c_prev = np.zeros((n, hid))
            for t in range(steps):
                pre = x[t] @ Wall.T + h_prev @ Uall.T + ball
                gates = _reference_sigmoid(pre[:, : 3 * hid])
                cache["f"][t] = gates[:, :hid]
                cache["i"][t] = gates[:, hid : 2 * hid]
                cache["o"][t] = gates[:, 2 * hid :]
                cache["g"][t] = np.tanh(pre[:, 3 * hid :])
                cache["c"][t] = cache["f"][t] * c_prev + cache["i"][t] * cache["g"][t]
                cache["tanh_c"][t] = np.tanh(cache["c"][t])
                cache["h"][t] = cache["o"][t] * cache["tanh_c"][t]
                h_prev, c_prev = cache["h"][t], cache["c"][t]
            cache["x"] = x
            x = cache["h"]
        else:
            U, W = weights[f"layers.{k}.U"], weights[f"layers.{k}.W"]
            hid = U.shape[0]
            S = np.empty((steps, n, hid))
            s_prev = np.zeros((n, hid))
            for t in range(steps):
                S[t] = np.tanh(x[t] @ U.T + s_prev @ W.T)
                s_prev = S[t]
            cache = {"x": x, "s": S}
            x = S
        caches.append(cache)

    predictions = x[-1] @ weights["head.w"] + float(weights["head.b"])
    return predictions, caches


def reference_backward(streams, params, caches, d_pred: np.ndarray) -> dict[str, np.ndarray]:
    """Exact BPTT gradients of sum(d_pred * predictions), keyed like
    `param_items()`, from the caches of `reference_forward`.
    """
    weights = params.param_dict()
    steps, n = caches[0]["x"].shape[:2]
    grads: dict[str, np.ndarray] = {}
    top = caches[-1]
    final_h = (top["h"] if "h" in top else top["s"])[-1]
    grads["head.w"] = d_pred @ final_h
    grads["head.b"] = np.asarray(d_pred.sum())

    head_w = weights["head.w"]
    d_h_extra = np.zeros((steps, n, head_w.shape[0]))
    d_h_extra[-1] = np.outer(d_pred, head_w)
    for k in range(len(caches) - 1, -1, -1):
        lc = caches[k]
        stacked = _stacked(weights, k)
        dx = np.empty_like(lc["x"])
        if stacked is not None:
            Wall, Uall, ball = stacked
            hid = ball.shape[0] // 4
            dWall = np.zeros_like(Wall)
            dUall = np.zeros_like(Uall)
            dball = np.zeros(4 * hid)
            dh_rec = np.zeros((n, hid))
            dc_rec = np.zeros((n, hid))
            for t in range(steps - 1, -1, -1):
                f, i, o, g, tc = (lc[key][t] for key in ("f", "i", "o", "g", "tanh_c"))
                dh = d_h_extra[t] + dh_rec
                do = dh * tc
                dc = dc_rec + dh * o * (1.0 - tc**2)
                c_prev = lc["c"][t - 1] if t > 0 else 0.0
                h_prev = lc["h"][t - 1] if t > 0 else np.zeros((n, hid))
                da = np.concatenate(
                    [
                        dc * c_prev * f * (1.0 - f),
                        dc * g * i * (1.0 - i),
                        do * o * (1.0 - o),
                        dc * i * (1.0 - g**2),
                    ],
                    axis=1,
                )
                dWall += da.T @ lc["x"][t]
                dUall += da.T @ h_prev
                dball += da.sum(axis=0)
                dx[t] = da @ Wall
                dh_rec = da @ Uall
                dc_rec = dc * f
            for j, gate in enumerate("fioc"):
                grads[f"layers.{k}.W_{gate}"] = dWall[j * hid : (j + 1) * hid]
                grads[f"layers.{k}.U_{gate}"] = dUall[j * hid : (j + 1) * hid]
                grads[f"layers.{k}.b_{gate}"] = dball[j * hid : (j + 1) * hid]
        else:
            U, W = weights[f"layers.{k}.U"], weights[f"layers.{k}.W"]
            hid = U.shape[0]
            dU = np.zeros_like(U)
            dW = np.zeros_like(W)
            ds_rec = np.zeros((n, hid))
            for t in range(steps - 1, -1, -1):
                da = (d_h_extra[t] + ds_rec) * (1.0 - lc["s"][t] ** 2)
                s_prev = lc["s"][t - 1] if t > 0 else np.zeros((n, hid))
                dU += da.T @ lc["x"][t]
                dW += da.T @ s_prev
                dx[t] = da @ U
                ds_rec = da @ W
            grads[f"layers.{k}.U"] = dU
            grads[f"layers.{k}.W"] = dW
        d_h_extra = dx

    width = weights["fusion.W_A"].shape[0]
    named = [("A", streams[0]), ("F", streams[1])]
    if "fusion.W_S" in weights:
        named.append(("S", streams[2]))
    for j, (name, stream) in enumerate(named):
        d_proj = d_h_extra[:, :, j * width : (j + 1) * width]
        grads[f"fusion.W_{name}"] = np.einsum("tni,tnj->ij", d_proj, stream.transpose(1, 0, 2))
        grads[f"fusion.b_{name}"] = d_proj.sum(axis=(0, 1))
    return grads


# --- gradient check ----------------------------------------------------------


def gradient_check(shape: ModelShape, seed: int, loss, d_loss) -> dict[str, float]:
    """Per parameter block, the relative error ||g_a - g_n|| / max(||g_a||,
    ||g_n||) between `backward_batch`'s gradient and central finite
    differences (step 1e-6) through `forward_batch`, on a random instance:
    the parameters `init_parameters(shape, seed)`, and 3 windows of 5 steps
    and a target vector of 3 drawn from `seed`. The objective is
    `loss(predictions, target)`, and `d_loss(predictions, target)` is the
    upstream gradient given to `backward_batch`.
    """
    rng = np.random.default_rng(seed)
    params = init_parameters(shape, seed)
    a = rng.uniform(-1.0, 1.0, size=(3, 5, shape.d_a))
    f = rng.uniform(-1.0, 1.0, size=(3, 5, shape.d_f))
    s = rng.uniform(0.0, 1.0, size=(3, 5, shape.d_s)) if shape.d_s else None
    target = rng.uniform(-1.0, 1.0, size=3)
    streams = (a, f, s)

    cache = forward_batch(streams, params)
    analytic = backward_batch(cache, d_loss(cache.predictions, target))

    numeric = NetworkParameters(shape)
    vector, step = params.vector, 1e-6
    for j in range(vector.size):
        original = vector[j]
        vector[j] = original + step
        up = loss(forward_batch(streams, params).predictions, target)
        vector[j] = original - step
        down = loss(forward_batch(streams, params).predictions, target)
        vector[j] = original
        numeric.vector[j] = (up - down) / (2.0 * step)

    errors = {}
    for (name, ga), (_, gn) in zip(analytic.param_items(), numeric.param_items()):
        denom = max(float(np.linalg.norm(ga)), float(np.linalg.norm(gn)), 1e-12)
        errors[name] = float(np.linalg.norm(ga - gn)) / denom
    return errors
