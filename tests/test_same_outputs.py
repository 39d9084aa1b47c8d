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


FULL = ("PASS  a  residual=1.0e-16 tol=1e-9\n"
        "PASS  gap  min gap=2.5e-01 (needs > 1e-06)\n"
        "2/2 checks passed\n[exit 0]\n")


def test_digits_mode_lists_each_moved_value():
    base = {"seed 0": FULL, "seed 1": FULL, "seed 2": FULL}
    head = {**base, "seed 1": FULL.replace("1.0e-16", "3.0e-16"),
            "seed 2": FULL.replace("2.5e-01", "2.4e-01")}
    assert same_outputs.gate_line("verify-full", base, head, digits=True) == (
        "SAME-VERDICTS verify-full: 3 runs, 2 values moved in 2 of them\n"
        "  seed 1  a: 1.0e-16 -> 3.0e-16\n"
        "  seed 2  gap: 2.5e-01 -> 2.4e-01")
    assert same_outputs.gate_line("verify-full", base, head).startswith("DIFF verify-full: ")
    assert same_outputs.gate_line("verify-full", base, base, digits=True) == (
        "SAME verify-full: 3 runs")


def test_digits_mode_reads_diff_where_a_verdict_changes():
    changes = [("PASS  a", "FAIL  a"),                          # a verdict
               ("2/2 checks", "1/2 checks"),                    # the count line
               ("[exit 0]", "[exit 1]"),                        # the exit code
               ("tol=1e-9", "tol=1e-8"),                        # a bound
               ("PASS  gap", "PASS  gaps"),                     # a check name
               ("2/2 checks passed\n", "")]                     # a missing line
    for old, new in changes:
        head = FULL.replace(old, new)
        assert same_outputs.moved_values(FULL, head) is None, old
        assert same_outputs.gate_line("g", {"r": FULL}, {"r": head}, digits=True).startswith(
            "DIFF g: r, "), old


def test_digits_mode_reads_diff_for_reordered_checks_and_other_lines():
    lines = FULL.splitlines(keepends=True)
    swapped = "".join([lines[1], lines[0], *lines[2:]])
    assert same_outputs.moved_values(FULL, swapped) is None
    net = "exact_success_probability = 0.25\n[exit 0]\n"
    assert same_outputs.moved_values(net, net.replace("0.25", "0.26")) is None


def test_verdict_cuts_out_only_the_value():
    assert same_outputs.verdict("PASS  endpoint-values-n1  residual=0.000e+00 tol=0e+00") == (
        "PASS  endpoint-values-n1  residual=# tol=0e+00", "0.000e+00")
    assert same_outputs.verdict("FAIL  x  |freq-p|=5.0e-03 (needs <= 3 sigma = 4.1e-03)") == (
        "FAIL  x  |freq-p|=# (needs <= 3 sigma = 4.1e-03)", "5.0e-03")
    assert same_outputs.verdict("FAIL  x  residual=inf tol=0e+00")[1] == "inf"
    assert same_outputs.verdict("18/18 checks passed") == ("18/18 checks passed", None)
