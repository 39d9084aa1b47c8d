"""Check that this checkout prints what an earlier git revision prints.

    python tools/same_outputs.py --base REV [--digits]

REV is exported with `git archive` into a temporary directory.  Both trees
run the `disentanglers` command as subprocesses, each with its own `src` on
PYTHONPATH; this checkout runs as it is on disk, uncommitted edits
included.  Four gates compare stdout and exit code:

  * verify-fast: `verify --level fast` at seeds 0-49;
  * verify-full: `verify --level full` at seeds 1-11, 23 and 42;
  * network: `network --theta 1.1 --phi 2.3 --shots 100000 --seed 7` at
    n = 1, 2, 12, 17, 20 and 21 (21 is past the cascade cap and exits 2);
  * table: the sha256 of `table --n-min 1 --n-max 1000000`.

One line per gate: SAME, or DIFF with the first run that differs and its
first differing line, then the number of runs that differ and the line
numbers that differ in any of them.  Exits 0 iff every gate is SAME.  The whole
check runs 70 subprocesses per tree, two at a time.

With --digits, a gate whose runs differ only in the values of `verify`
check lines reads SAME-VERDICTS instead of DIFF: every run has the same
check names in the same order, the same PASS/FAIL, the same text around the
value (so the same tol), the same `N/M checks passed` line and the same exit
code.  The value is the first number after the check name.  Each moved
value follows, indented, as "run  check: old -> new".  Exits 0 iff every
gate is SAME or SAME-VERDICTS.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

NETWORK = ["network", "--theta", "1.1", "--phi", "2.3", "--shots", "100000", "--seed", "7"]

GATES = {
    "verify-fast": {f"seed {s}": ["verify", "--level", "fast", "--seed", str(s)]
                    for s in range(50)},
    "verify-full": {f"seed {s}": ["verify", "--level", "full", "--seed", str(s)]
                    for s in [*range(1, 12), 23, 42]},
    "network": {f"n {n}": [*NETWORK, "--n", str(n)] for n in (1, 2, 12, 17, 20, 21)},
    "table": {"1..1000000 sha256": ["table", "--n-min", "1", "--n-max", "1000000"]},
}


CHECK_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+(.*)$")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def run(src: Path, argv: list[str], digest: bool = False) -> str:
    """The command's stdout, or its sha256 if `digest`, then a last line
    with its exit code."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen([sys.executable, "-m", "disentanglers.cli", *argv], env=env,
                          cwd=src, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        if digest:
            h = hashlib.sha256()
            for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
                h.update(chunk)
            out = h.hexdigest() + "\n"
        else:
            out = proc.stdout.read().decode()
    return f"{out}[exit {proc.returncode}]\n"


def line_differences(base: str, head: str) -> list[tuple[int, str | None, str | None]]:
    """Every line where the texts differ: its number (from 1) and both
    versions of it, None past the end of the shorter text."""
    lines = itertools.zip_longest(base.splitlines(keepends=True),
                                  head.splitlines(keepends=True))
    return [(k, a, b) for k, (a, b) in enumerate(lines, 1) if a != b]


def first_difference(base: str, head: str) -> str | None:
    """None if the texts are equal, else the number of the first line where
    they differ and both versions of it."""
    diffs = line_differences(base, head)
    if not diffs:
        return None
    k, a, b = diffs[0]
    return f"line {k}: {a!r} != {b!r}"


def verdict(line: str) -> tuple[str, str | None]:
    """A line with the value of a check line cut out, and that value: the
    first number after the check name.  Any other line is its own verdict,
    with no value."""
    check = CHECK_LINE.match(line)
    value = check and NUMBER.search(check.group(3))
    if not value:
        return line, None
    status, name, detail = check.groups()
    return f"{status}  {name}  {detail[:value.start()]}#{detail[value.end():]}", value.group()


def moved_values(base: str, head: str) -> list[tuple[str, str, str]] | None:
    """(check, old value, new value) for every check line whose value moved,
    if the two texts reach the same verdicts line by line; else None."""
    old, new = base.splitlines(), head.splitlines()
    if len(old) != len(new):
        return None
    moved = []
    for a, b in zip(old, new):
        (key_a, value_a), (key_b, value_b) = verdict(a), verdict(b)
        if key_a != key_b:
            return None
        if value_a != value_b:
            moved.append((CHECK_LINE.match(a).group(2), value_a, value_b))
    return moved


def gate_line(gate: str, base: dict[str, str], head: dict[str, str],
              digits: bool = False) -> str:
    """SAME if every run of the gate printed the same in both trees; with
    `digits`, SAME-VERDICTS and one indented line per moved value if the
    runs differ only in check values; else DIFF with the first run that
    differs and where, how many runs differ, and every line number that
    differs in any of them."""
    moved = {label: diffs for label in base
             if (diffs := line_differences(base[label], head[label]))}
    if not moved:
        return f"SAME {gate}: {len(base)} runs"
    values = {label: moved_values(base[label], head[label]) for label in moved}
    if digits and all(v is not None for v in values.values()):
        lines = [f"  {label}  {check}: {a} -> {b}"
                 for label, found in values.items() for check, a, b in found]
        return "\n".join([f"SAME-VERDICTS {gate}: {len(base)} runs, {len(lines)} values "
                           f"moved in {len(moved)} of them", *lines])
    numbers = sorted({k for diffs in moved.values() for k, _, _ in diffs})
    label = next(iter(moved))
    return (f"DIFF {gate}: {label}, {first_difference(base[label], head[label])}; "
            f"{len(moved)} of {len(base)} runs differ, at lines "
            f"{', '.join(map(str, numbers))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--digits", action="store_true",
                        help="accept runs that reach the same verdicts with moved values")
    args = parser.parse_args(argv)
    rev = args.base
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "base.tar"
        subprocess.run(["git", "-C", str(REPO), "archive", "-o", str(archive), rev],
                       check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "base", filter="data")
        trees = {"base": Path(tmp) / "base" / "src", "head": REPO / "src"}
        jobs = [(tree, gate, label, argv) for gate, runs in GATES.items()
                for label, argv in runs.items() for tree in trees]
        with ThreadPoolExecutor(2) as pool:
            outs = list(pool.map(lambda j: run(trees[j[0]], j[3], j[1] == "table"), jobs))
    results = {tree: {gate: {} for gate in GATES} for tree in trees}
    for (tree, gate, label, _), out in zip(jobs, outs):
        results[tree][gate][label] = out
    lines = [gate_line(g, results["base"][g], results["head"][g], args.digits) for g in GATES]
    print("\n".join(lines))
    return 0 if all(line.startswith("SAME") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
