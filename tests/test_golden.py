"""The command-line program's output bytes against `golden.json` (see `golden.py`)."""

from __future__ import annotations

import json

from golden import GOLDEN, machine_line, mismatches, run


def test_the_cli_writes_its_pinned_bytes(tmp_path):
    machines = json.loads(GOLDEN.read_text())
    here = machine_line()
    assert here in machines, f"no hashes recorded for {here!r}; recorded: {sorted(machines)}"
    found = mismatches(run(tmp_path), machines[here])
    assert not found, f"changed outputs on {here!r}:\n" + "\n".join(found)
