"""The kernel's bits against `golden_kernel.json` (see `golden_kernel.py`)."""

from __future__ import annotations

import json

from golden_kernel import GOLDEN, case_names, kernel_case, machine_line, trained_vector


def test_the_kernel_keeps_its_pinned_bits():
    machines = json.loads(GOLDEN.read_text())
    here = machine_line()
    assert here in machines, f"no hashes recorded for {here!r}; recorded: {sorted(machines)}"
    golden = machines[here]
    cases = dict(case_names())
    assert sorted(golden["cases"]) == sorted(cases)
    mismatched = []
    for name, args in cases.items():
        got = kernel_case(*args)
        assert got["last_step.predictions"] == got["reused.predictions"], f"{name}: last-step predictions differ"
        mismatched += [f"{name}.{key}" for key, sha in golden["cases"][name].items() if got[key] != sha]
    if trained_vector() != golden["train_4_epochs.vector"]:
        mismatched.append("train_4_epochs.vector")
    assert not mismatched, f"changed bits in {', '.join(mismatched)} on {here!r}"
