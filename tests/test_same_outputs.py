"""The comparison behind `tools/same_outputs.py`, without its subprocesses."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

BASE = "PASS  a  residual=1.0e-16 tol=1e-9\nPASS  b  residual=2.0e-16 tol=1e-9\n[exit 0]\n"


def test_equal_texts_have_no_difference():
    assert same_outputs.first_difference(BASE, BASE) is None


def test_one_byte_difference_names_its_line():
    head = BASE.replace("2.0e-16", "2.1e-16")
    assert len(head) == len(BASE)
    assert same_outputs.first_difference(BASE, head) == (
        "line 2: 'PASS  b  residual=2.0e-16 tol=1e-9\\n' != "
        "'PASS  b  residual=2.1e-16 tol=1e-9\\n'")


def test_missing_trailing_newline_and_exit_code_are_differences():
    assert same_outputs.first_difference(BASE, BASE[:-1]).startswith("line 3:")
    assert same_outputs.first_difference(BASE, BASE.replace("exit 0", "exit 1")) == (
        "line 3: '[exit 0]\\n' != '[exit 1]\\n'")


def test_gate_line_names_the_first_differing_run():
    base = {"seed 0": BASE, "seed 1": BASE, "seed 2": BASE}
    head = {**base, "seed 1": BASE.replace("PASS  a", "FAIL  a")}
    assert same_outputs.gate_line("verify-fast", base, base) == "SAME verify-fast: 3 runs"
    assert same_outputs.gate_line("verify-fast", base, head).startswith(
        "DIFF verify-fast: seed 1, line 1: ")


def test_gate_line_counts_the_runs_and_lines_that_differ():
    base = {f"seed {s}": BASE for s in range(4)}
    head = {**base,
            "seed 1": BASE.replace("2.0e-16", "2.5e-16"),
            "seed 3": BASE.replace("1.0e-16", "1.5e-16").replace("exit 0", "exit 1")}
    assert same_outputs.gate_line("verify-fast", base, head) == (
        "DIFF verify-fast: seed 1, line 2: 'PASS  b  residual=2.0e-16 tol=1e-9\\n' != "
        "'PASS  b  residual=2.5e-16 tol=1e-9\\n'; 2 of 4 runs differ, at lines 1, 2, 3")


def test_line_differences_past_the_shorter_text():
    assert same_outputs.line_differences(BASE, BASE + "extra\n") == [(4, None, "extra\n")]
    assert same_outputs.line_differences(BASE, BASE) == []
