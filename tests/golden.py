"""Pinned output bytes of the command-line program: for a fixed set of
commands, run under `TRENDLAB_CLOCK=fixed`, the exit code and the SHA-256 of
stdout, stderr and every file the command writes.

The set: `train` on weekly bars with the memory-cell and the tanh stack,
each with and without the sentiment stream, and on daily bars with the
memory-cell stack; `predict` on 1-, 4- and 18-year daily histories from the
weekly memory-cell and tanh checkpoints; `features`; and `experiment all` at
2 epochs and one seed. The inputs are synthetic files written here, and the
model is 2 x 4, small enough that the set runs in about a second; the 3 x 32
kernel's bits are pinned by `golden_kernel.json`.

Beside each file's hash the golden file keeps the first 8 hex digits of
each line's SHA-256, so a mismatch names the file and prints its first
differing line as it now reads, not a bare hash. The hashes depend on the
BLAS kernels, so the file holds one set per `machine_line()`, as
`golden_kernel.json` does. Record or refresh this machine's set with

    python tests/golden.py --write

under each BLAS thread setting the tests run with. A change that alters
output bytes on purpose rewrites every set and lists the changed files
where the change is described.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from golden_kernel import machine_line
from trendlab.cli import CLOCK_ENV, main
from trendlab.market_data import write_csv
from trendlab.synthetic import planted_sentiment, trend_seasonal_daily

GOLDEN = Path(__file__).with_name("golden.json")
BARS_PER_YEAR = 260
YEARS = (1, 4, 18)
MODEL = {"layers": 2, "hidden_size": 4, "window": 8}
PRICE_HEADER = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")


def _write_inputs() -> None:
    """A daily price CSV per history length in YEARS, each the last years of
    one path, and the path's planted sentiment, in the working directory."""
    series = trend_seasonal_daily(bars=max(YEARS) * BARS_PER_YEAR)
    rows = [(d, *prices, v) for d, prices, v in zip(series.dates(), series.ohlca.tolist(), series.volume.tolist())]
    for years in YEARS:
        Path(f"daily_{years}y.csv").write_text(write_csv(PRICE_HEADER, rows[-years * BARS_PER_YEAR :]))
    scores = sorted(planted_sentiment(series).items())
    Path("sentiment.csv").write_text(write_csv(("Date", "Sentiment"), scores))


def _config(name: str, **doc) -> str:
    path = f"{name}.json"
    Path(path).write_text(json.dumps({"sentiment_csv": "sentiment.csv", "output_dir": f"out/{name}", **doc}))
    return path


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every pinned command, in run order; writes their
    configs. Each writes under out/<name>."""
    weekly = {"price_csv": "daily_18y.csv", "interval": "weekly"}
    runs = []
    for cell in ("lstm", "rnn"):
        for sentiment in (True, False):
            name = f"train_weekly_{cell}" + ("" if sentiment else "_no_sentiment")
            config = _config(name, **weekly, train={**MODEL, "cell": cell, "epochs": 4})
            runs.append((name, ["train", "--config", config] + ([] if sentiment else ["--no-sentiment"])))
    daily = _config("train_daily_lstm", price_csv="daily_4y.csv", interval="daily", train={**MODEL, "epochs": 3})
    runs.append(("train_daily_lstm", ["train", "--config", daily]))
    for cell in ("lstm", "rnn"):
        for years in YEARS:
            name = f"predict_{cell}_{years}y"
            checkpoint = f"out/train_weekly_{cell}/checkpoint.json"
            config = _config(name, price_csv=f"daily_{years}y.csv", checkpoint=checkpoint)
            runs.append((name, ["predict", "--config", config]))
    runs.append(("features", ["features", "--config", _config("features", price_csv="daily_4y.csv")]))
    segments = [["2030-01-07", "2030-12-30"], ["2031-01-06", "2031-12-29"], ["2032-01-05", "2032-12-27"]]
    experiment = _config(
        "experiment_all", price_csv="daily_4y.csv", train={**MODEL, "epochs": 2},
        experiments={"seeds": [0], "window_sizes": [4, 8], "segments": segments},
    )
    runs.append(("experiment_all", ["experiment", "all", "--config", experiment]))
    return runs


@contextlib.contextmanager
def _fixed_clock_in(work: Path):
    """Runs the body in `work` on the fixed clock, then restores both."""
    cwd, clock = os.getcwd(), os.environ.get(CLOCK_ENV)
    os.chdir(work)
    os.environ[CLOCK_ENV] = "fixed"
    try:
        yield
    finally:
        os.chdir(cwd)
        if clock is None:
            del os.environ[CLOCK_ENV]
        else:
            os.environ[CLOCK_ENV] = clock


def run(work: Path) -> dict[str, tuple[int, dict[str, bytes]]]:
    """Every command's exit code and output bytes (stdout, stderr and each
    file it wrote), keyed by command name, run in the empty directory `work`."""
    outputs = {}
    with _fixed_clock_in(work):
        _write_inputs()
        for name, argv in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            files = {"<stdout>": stdout.getvalue().encode(), "<stderr>": stderr.getvalue().encode()}
            out = Path("out", name)
            if out.is_dir():
                files.update((path.name, path.read_bytes()) for path in sorted(out.iterdir()))
            outputs[name] = code, files
    return outputs


def _line_prints(data: bytes) -> str:
    """The first 8 hex digits of each line's SHA-256, concatenated."""
    return "".join(hashlib.sha256(line).hexdigest()[:8] for line in data.splitlines(keepends=True))


def recorded(outputs: dict[str, tuple[int, dict[str, bytes]]]) -> dict[str, dict]:
    """`outputs` as the golden file holds them: per file its SHA-256 and
    line prints."""
    return {
        name: {"exit": code, "files": {
            f: {"sha256": hashlib.sha256(data).hexdigest(), "lines": _line_prints(data)} for f, data in files.items()
        }}
        for name, (code, files) in outputs.items()
    }


def mismatches(outputs: dict[str, tuple[int, dict[str, bytes]]], golden: dict[str, dict]) -> list[str]:
    """One message per command, exit code or file that differs from
    `golden`; a changed file's message gives its first differing line as
    it now reads."""
    found = [f"{name}: command not run" for name in golden if name not in outputs]
    for name, (code, files) in outputs.items():
        want = golden.get(name)
        if want is None:
            found.append(f"{name}: command not recorded")
            continue
        if code != want["exit"]:
            found.append(f"{name}: exit code {code}, recorded {want['exit']}")
        found += [f"{name}/{f}: not written" for f in sorted(set(want["files"]) - set(files))]
        for f, data in files.items():
            old = want["files"].get(f)
            if old is None:
                found.append(f"{name}/{f}: not recorded")
            elif hashlib.sha256(data).hexdigest() != old["sha256"]:
                found.append(f"{name}/{f}: {_first_difference(data, old['lines'])}")
    return found


def _first_difference(data: bytes, recorded_prints: str) -> str:
    lines, prints = data.splitlines(keepends=True), _line_prints(data)
    for k, line in enumerate(lines):
        if prints[8 * k : 8 * k + 8] != recorded_prints[8 * k : 8 * k + 8]:
            return f"line {k + 1} differs, now {line.decode(errors='replace')!r}"
    if len(prints) < len(recorded_prints):
        return f"ends after line {len(lines)}, recorded {len(recorded_prints) // 8} lines"
    return "same lines, different bytes"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    machines = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        machines[machine_line()] = recorded(run(Path(work)))
    GOLDEN.write_text(json.dumps(machines, indent=1, sort_keys=True) + "\n")
    print(f"wrote {machine_line()!r} to {GOLDEN}")
