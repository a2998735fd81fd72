"""Independent brute-force oracles used by the tests.

These are written straight from the defining formulas with plain Python
loops and lists, deliberately sharing no code with the library
implementations they check. The one exception is the reference recurrent
kernel at the end, which is numpy: it is the straightforward per-step,
time-major formulation that the library's batch-last kernel replaced, kept
to check that kernel after its arithmetic order changed.
"""

from __future__ import annotations

import math

import numpy as np


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


# --- reference recurrent kernel ----------------------------------------------
#
# Time-major, batch-first buffers (steps, windows, features); one GEMM pair
# per step; gates sliced as columns of a (windows, 4 * hidden) block in
# f, i, o, c order. Reads parameters by attribute and shares no code with
# trendlab.network.


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _is_memory_cell(layer) -> bool:
    return hasattr(layer, "W_f")


def _stacked(layer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    W = np.concatenate([layer.W_f, layer.W_i, layer.W_o, layer.W_c])
    U = np.concatenate([layer.U_f, layer.U_i, layer.U_o, layer.U_c])
    b = np.concatenate([layer.b_f, layer.b_i, layer.b_o, layer.b_c])
    return W, U, b


def reference_forward(streams, params) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Predictions (n,) and, per layer, the cached (T, n, .) arrays: x, h,
    c, f, i, o, g, tanh_c for a memory-cell layer; x, s for a tanh layer.
    """
    a, f, s = streams
    fusion = params.fusion
    parts = [a @ fusion.W_A.T + fusion.b_A, f @ fusion.W_F.T + fusion.b_F]
    if fusion.W_S is not None:
        parts.append(s @ fusion.W_S.T + fusion.b_S)
    x = np.ascontiguousarray(np.concatenate(parts, axis=2).transpose(1, 0, 2))
    steps, n = x.shape[:2]

    caches = []
    for layer in params.layers:
        hid = layer.W_f.shape[0] if _is_memory_cell(layer) else layer.U.shape[0]
        if _is_memory_cell(layer):
            Wall, Uall, ball = _stacked(layer)
            cache = {k: np.empty((steps, n, hid)) for k in ("h", "c", "f", "i", "o", "g", "tanh_c")}
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
            S = np.empty((steps, n, hid))
            s_prev = np.zeros((n, hid))
            for t in range(steps):
                S[t] = np.tanh(x[t] @ layer.U.T + s_prev @ layer.W.T)
                s_prev = S[t]
            cache = {"x": x, "s": S}
            x = S
        caches.append(cache)

    predictions = x[-1] @ params.head.w + float(params.head.b)
    return predictions, caches


def reference_backward(streams, params, caches, d_pred: np.ndarray) -> dict[str, np.ndarray]:
    """Exact BPTT gradients of sum(d_pred * predictions), keyed like
    `param_items()`, from the caches of `reference_forward`.
    """
    steps, n = caches[0]["x"].shape[:2]
    grads: dict[str, np.ndarray] = {}
    top = caches[-1]
    final_h = (top["h"] if "h" in top else top["s"])[-1]
    grads["head.w"] = d_pred @ final_h
    grads["head.b"] = np.asarray(d_pred.sum())

    d_h_extra = np.zeros((steps, n, params.head.w.shape[0]))
    d_h_extra[-1] = np.outer(d_pred, params.head.w)
    for k in range(len(params.layers) - 1, -1, -1):
        layer, lc = params.layers[k], caches[k]
        dx = np.empty_like(lc["x"])
        if _is_memory_cell(layer):
            hid = layer.W_f.shape[0]
            Wall, Uall, _ = _stacked(layer)
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
            hid = layer.U.shape[0]
            dU = np.zeros_like(layer.U)
            dW = np.zeros_like(layer.W)
            ds_rec = np.zeros((n, hid))
            for t in range(steps - 1, -1, -1):
                da = (d_h_extra[t] + ds_rec) * (1.0 - lc["s"][t] ** 2)
                s_prev = lc["s"][t - 1] if t > 0 else np.zeros((n, hid))
                dU += da.T @ lc["x"][t]
                dW += da.T @ s_prev
                dx[t] = da @ layer.U
                ds_rec = da @ layer.W
            grads[f"layers.{k}.U"] = dU
            grads[f"layers.{k}.W"] = dW
        d_h_extra = dx

    fusion = params.fusion
    width = fusion.W_A.shape[0]
    named = [("A", streams[0]), ("F", streams[1])]
    if fusion.W_S is not None:
        named.append(("S", streams[2]))
    for j, (name, stream) in enumerate(named):
        d_proj = d_h_extra[:, :, j * width : (j + 1) * width]
        grads[f"fusion.W_{name}"] = np.einsum("tni,tnj->ij", d_proj, stream.transpose(1, 0, 2))
        grads[f"fusion.b_{name}"] = d_proj.sum(axis=(0, 1))
    return grads
