"""Forked helper processes: the one place that forks them, talks to them
over pipes, carries their failures back and joins them. The experiment grid
(`experiments._run_cells`) and sharded training (`training.train`) both run
their helpers here, and in both the caller does its share of the work.

Helpers are forked, not spawned: a request is a few hundred milliseconds,
and a spawned helper would spend much of that importing numpy and
unpickling its inputs. A forked helper inherits everything the caller built
before the fork (tasks, datasets, parameters, and the one-thread BLAS pin of
`trendlab.blas`), and only messages cross, over one duplex pipe per helper:
a grid helper sends one, the rows of all the cells it ran, and a training
helper answers each of the caller's messages with one, so an epoch is one
message each way (the parameter vector out; its shards' predictions and
one partial sum of their unscaled gradients back, whatever its shard
count). The caller closing its end is the stop signal: a
helper waiting for a message reads EOF. `Helpers.stop` sends it before the
block ends, so the helpers exit while the caller does work of its own
(`train` evaluates its test split), and the block's end only joins them.
Python 3.12 and later warn when a process with several threads forks, and
numpy's OpenBLAS keeps an idle pool thread after the pin; whether the
warning fires there has not been checked. The one Python thread the
program starts, `predict`'s second half (`cli._predict_windows`), is joined
before `cli.cmd_predict` returns or raises, so a later fork in the same
process never runs while it is alive.

Failure rules. When a helper's `serve` raises, its exception crosses the
pipe in place of its next message, and `Helper.recv` raises it in the
caller with its type and message, the helper's formatted traceback attached
as the cause; an exception that does not pickle arrives as a RuntimeError
carrying its repr. A helper that exits without a message raises a
RuntimeError naming its pid and exit code. `Helpers` joins every helper
before an exception leaves its `with` block, the caller's own included.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable


def _context():
    """The "fork" start method's context, or None where there is none."""
    import multiprocessing  # here, not at the top: predict never pays for the import

    return multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 without `os.sched_getaffinity`
    to count them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def helper_count(jobs: int) -> int:
    """How many helpers to fork for `jobs` shares of work, the caller taking
    one: min(usable CPUs, jobs) - 1, and 0 without a "fork" start method."""
    if _context() is None:
        return 0
    return max(min(usable_cpus(), jobs) - 1, 0)


def shared_counter():
    """A lock-guarded integer, 0, that the caller shares with the helpers it
    forks later."""
    import multiprocessing

    return (_context() or multiprocessing).Value("q", 0)


class _Failure:
    """A helper's exception as it crosses the pipe: the exception, or a
    RuntimeError with its repr when it does not survive pickling, and its
    formatted traceback, which pickling would drop."""

    def __init__(self, role: str, exc: Exception):
        import traceback  # here, not at the top: only a failing helper needs it

        where = f"in {role} helper process {os.getpid()}:\n"
        self.cause = RuntimeError(where + "".join(traceback.format_exception(exc)))
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{exc!r}, which does not pickle")
        self.exc = exc


def _life(role: str, serve: Callable, conn, inherited: list) -> None:
    """A forked helper's whole life: close the caller's pipe ends it
    inherited, so that the caller closing them reads as EOF here, run
    `serve(conn)`, and send its failure if it raises. It ends in `os._exit`
    and never returns into the caller's stack it was forked from."""
    code = 1
    try:
        for end in inherited:
            end.close()
        try:
            serve(conn)
        except Exception as exc:
            conn.send(_Failure(role, exc))
        code = 0
    finally:
        os._exit(code)


class Helper:
    """The caller's end of one forked helper."""

    def __init__(self, role: str, serve: Callable, inherited: list):
        self.role = role
        ctx = _context()
        self.conn, theirs = ctx.Pipe()
        self.process = ctx.Process(target=_life, args=(role, serve, theirs, inherited + [self.conn]), daemon=True)
        self.process.start()
        theirs.close()  # the helper holds the only other end, so its death reads as EOF

    def recv(self, what: str):
        """The helper's next message. Its failure, sent instead, is raised
        here; a helper that exited without one raises a RuntimeError saying
        it did so before reporting `what`."""
        try:
            message = self.conn.recv()
        except EOFError:
            self.process.join()
            exited = f"{self.role} helper process {self.process.pid} exited with code {self.process.exitcode}"
            raise RuntimeError(f"{exited} before reporting {what}") from None
        if isinstance(message, _Failure):
            raise message.exc from message.cause
        return message


class Helpers:
    """A context manager for the helpers that `start` forks. `stop` closes
    the caller's pipe ends, so each helper reads EOF and exits while the
    caller goes on inside the block; leaving the block stops any still
    running and joins every one."""

    def __init__(self, role: str):
        self.role = role
        self.started: list[Helper] = []

    def start(self, serve: Callable) -> Helper:
        """Fork a helper that runs `serve(conn)` on its end of a pipe."""
        helper = Helper(self.role, serve, [started.conn for started in self.started])
        self.started.append(helper)
        return helper

    def __enter__(self) -> Helpers:
        return self

    def stop(self) -> None:
        """Close the caller's end of every helper's pipe: the stop signal.
        Closing an end twice does nothing."""
        for helper in self.started:
            helper.conn.close()

    def __exit__(self, *exc_info) -> None:
        self.stop()
        for helper in self.started:
            helper.process.join()
