"""Correctness gates: each turns one operation's output into (attempted, failed).

The gates read only what the program printed or wrote; the reference values
they compare against are computed here or stored with the benchmark, never
taken from the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

DIGESTS_FILE = Path(__file__).with_name("table_digests.json")

_CHECK_LINE = re.compile(r"^(PASS|FAIL)\s")
_KEY_VALUE = re.compile(r"^(\w+) = (\S+)$")


def verify_gate(exit_code: int, transcript: str) -> tuple[int, int]:
    """One verify pass: attempted = check lines, failed = FAIL lines.

    A non-zero exit code or a transcript without any check line counts as
    at least one failure, so a crash can never read as a clean pass.
    """
    marks = [m.group(1) for m in map(_CHECK_LINE.match, transcript.splitlines()) if m]
    attempted = max(len(marks), 1)
    failed = marks.count("FAIL")
    if exit_code != 0 or not marks:
        failed = max(failed, 1)
    return attempted, failed


def expected_table_digest(n_min: int, n_max: int) -> str:
    """sha256 of `table --n-min n_min --n-max n_max`, recorded at the seed commit."""
    digests = json.loads(DIGESTS_FILE.read_text())
    return digests[f"{n_min}-{n_max}"]


def table_gate(exit_code: int, csv_bytes: bytes, n_min: int, n_max: int) -> tuple[int, int]:
    """One table pass: failed unless the CSV is byte-identical to the record."""
    ok = exit_code == 0 and (hashlib.sha256(csv_bytes).hexdigest()
                             == expected_table_digest(n_min, n_max))
    return 1, 0 if ok else 1


def success_probability_ref(theta: float, n: int) -> float:
    """1 / (N cos^2(theta/2) + sin^2(theta/2)), written out independently."""
    c2 = math.cos(theta / 2.0) ** 2
    return 1.0 / (n * c2 + (1.0 - c2))


def network_gate(exit_code: int, transcript: str, theta: float, n: int,
                 shots: int) -> tuple[int, int]:
    """One `network` call, failed unless all three hold:

    * post_selected_fidelity is within 1e-12 of 1;
    * exact_success_probability equals the closed form to the 12 significant
      digits the CLI prints;
    * the empirical plus fraction is within 5 binomial standard errors of p
      (a bound, not exact counts, so a change of sampler keeps passing).
    """
    values = {}
    for line in transcript.splitlines():
        m = _KEY_VALUE.match(line.strip())
        if m:
            values[m.group(1)] = m.group(2)
    try:
        fid = float(values["post_selected_fidelity"])
        p_printed = float(values["exact_success_probability"])
        freq = float(values["empirical_plus_fraction"])
    except (KeyError, ValueError):
        return 1, 1
    p = success_probability_ref(theta, n)
    sigma = math.sqrt(p * (1.0 - p) / shots)
    ok = (exit_code == 0
          and abs(fid - 1.0) <= 1e-12
          and abs(p_printed - p) <= 1e-11 * p
          and abs(freq - p) <= 5.0 * sigma)
    return 1, 0 if ok else 1
