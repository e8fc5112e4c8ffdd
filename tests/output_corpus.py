"""Regression corpus of the CLI's outputs: its command set, its comparison and two tools.

``tests/corpus/outputs`` holds what a fixed set of CLI commands writes:

- the 16 scenario panels and the simplified linear model's rows (i)-(iv)
  x (``simulate``, ``local-sens``, ``local-sens --second-order``) at 51
  points;
- ``analytic`` at 51 points;
- ``global-sens`` for zajac and hatze at n 256, seed 11, with each sampler
  (pseudo, the default, and halton);
- ``optimize``'s full table on acceptance criterion 7's targets, the input
  file ``tests/corpus/targets.csv`` (``synthesize_targets(width=0.32,
  rho0=3.25e4, nu=3.0, kind="bell")``).

``tests/test_output_corpus.py`` runs the commands in-process and compares
what they write with the corpus by :func:`compare_trees`: file names,
headers, non-numeric fields and manifests must match exactly (a manifest's
``version`` aside), and each number must lie within ``REL_BOUND`` of its
column's peak |value|. Byte identity is reported per file but not
required: numpy's vectorised and scalar paths may differ in the last bit,
and which SIMD path runs depends on the CPU.

Run from the repository root::

    python tests/output_corpus.py regenerate      # rewrite the corpus from this tree
    python tests/output_corpus.py compare OLD NEW # run the set in two checkouts, compare

``regenerate`` is for a change that moves numbers on purpose; it keeps the
targets input as it is. ``compare`` runs the command set in a fresh process
per checkout, each on its own ``src``, and prints the largest change per
file kind and which files are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).resolve().parent / "corpus"
OUTPUTS = CORPUS / "outputs"
TARGETS = CORPUS / "targets.csv"

#: Largest change a number may make, as a fraction of its column's peak |value|.
REL_BOUND = 1e-9
#: Manifest keys that describe the program, not its result: left out of the comparison.
UNCOMPARED_KEYS = ("version",)

_PANELS = (("zajac", "beta", ("1", "1/3")), ("hatze", "nu", ("2", "3")))
_LOCAL = (("simulate", ["simulate"]), ("local-sens", ["local-sens"]),
          ("local-sens-2", ["local-sens", "--second-order"]))


def commands() -> list[tuple[str, list[str]]]:
    """Each corpus command as (its output directory under the root, its argv without
    --output). The optimize command names its targets relative to ``CORPUS``, so
    that its manifest records no checkout's path."""
    out = []
    for model, flag, values in _PANELS:
        for value in values:
            for row in ("i", "ii", "iii", "iv"):
                panel = ["--model", model, "--scenario", row, f"--{flag}", value,
                         "--points", "51"]
                tag = f"{model}-{flag}{value.replace('/', '_')}-{row}"
                out += [(f"{tag}/{kind}", [*argv, *panel]) for kind, argv in _LOCAL]
    for row in ("i", "ii", "iii", "iv"):
        panel = ["--model", "simplified-zajac", "--scenario", row, "--points", "51"]
        out += [(f"simplified-zajac-{row}/{kind}", [*argv, *panel]) for kind, argv in _LOCAL]
    out.append(("analytic", ["analytic", "--points", "51"]))
    for case, sampler in (("global-sens", []), ("global-sens-halton", ["--sampler", "halton"])):
        out += [(f"{case}/{model}", ["global-sens", "--model", model, "--n", "256",
                                     "--seed", "11", *sampler]) for model in ("zajac", "hatze")]
    out.append(("optimize", ["optimize", "--targets", TARGETS.name]))
    return out


def write_outputs(root: Path) -> None:
    """Run every corpus command in this process, from ``CORPUS``, each into its
    directory under ``root``."""
    from actsens.cli import main

    cwd, root = os.getcwd(), root.resolve()
    os.chdir(CORPUS)
    try:
        for case, argv in commands():
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--output", str(root / case)])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


@dataclass
class FileDiff:
    """One file of the old tree against its namesake in the new one."""

    path: str  # relative to the trees' roots
    identical: bool = False  # byte for byte
    change: float = 0.0  # largest |new - old| over a numeric column's peak |old|
    column: str = ""  # the column of ``change``
    problems: list[str] = field(default_factory=list)


def _manifest(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _compare_manifest(old: str, new: str, diff: FileDiff) -> None:
    a, b = _manifest(old), _manifest(new)
    if list(a) != list(b):
        diff.problems.append(f"{diff.path}: keys {list(a)} became {list(b)}")
    for key in a.keys() & b.keys():
        if key not in UNCOMPARED_KEYS and a[key] != b[key]:
            diff.problems.append(f"{diff.path}: {key} = {a[key]} became {b[key]}")


def _numbers(fields: list[str]) -> np.ndarray | None:
    try:
        return np.array([float(f) for f in fields])
    except ValueError:
        return None


def _compare_csv(old: str, new: str, diff: FileDiff) -> None:
    a = [line.split(",") for line in old.splitlines()]
    b = [line.split(",") for line in new.splitlines()]
    if a[0] != b[0]:
        diff.problems.append(f"{diff.path}: header {a[0]} became {b[0]}")
        return
    if len(a) != len(b) or any(len(r) != len(a[0]) for r in a + b):
        diff.problems.append(f"{diff.path}: {len(a) - 1} rows became {len(b) - 1}, "
                             "or a row has the wrong field count")
        return
    for j, name in enumerate(a[0]):
        x_text, y_text = [r[j] for r in a[1:]], [r[j] for r in b[1:]]
        x, y = _numbers(x_text), _numbers(y_text)
        if x is None or y is None:
            if x_text != y_text:
                diff.problems.append(f"{diff.path}: column {name} changed text")
            continue
        nan = np.isnan(x)
        if not np.array_equal(nan, np.isnan(y)):
            diff.problems.append(f"{diff.path}: column {name} changed where it is NaN")
            continue
        moved = np.abs(np.where(nan | (x == y), 0.0, x - y)).max(initial=0.0)
        if moved == 0.0:
            continue
        peak = np.abs(x[~nan]).max(initial=0.0)
        change = moved / peak if peak > 0.0 else math.inf
        if change > diff.change:
            diff.change, diff.column = change, name
        if change > REL_BOUND:
            diff.problems.append(f"{diff.path}: column {name} moved by {change:.2e} of its "
                                 f"peak (bound {REL_BOUND:g})")


def compare_file(old: Path, new: Path, path: str) -> FileDiff:
    """Compare two outputs: a manifest by key, a CSV by header and column."""
    diff = FileDiff(path)
    old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
    diff.identical = old_bytes == new_bytes
    if not diff.identical:
        compare = _compare_manifest if old.suffix == ".txt" else _compare_csv
        compare(old_bytes.decode(), new_bytes.decode(), diff)
    return diff


def compare_trees(old_root: Path, new_root: Path) -> list[FileDiff]:
    """Compare every file under two output roots; a file on one side only is a problem."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    old, new = files(old_root), files(new_root)
    diffs = [compare_file(old_root / p, new_root / p, p) for p in sorted(old & new)]
    diffs += [FileDiff(p, problems=[f"{p}: missing"]) for p in sorted(old - new)]
    diffs += [FileDiff(p, problems=[f"{p}: not in the old tree"]) for p in sorted(new - old)]
    return diffs


def summary(diffs: list[FileDiff]) -> str:
    """One line per file kind (file name): files, byte-identical files, largest change."""
    kinds: dict[str, list[FileDiff]] = defaultdict(list)
    for d in diffs:
        kinds[Path(d.path).name].append(d)
    lines = []
    for kind, group in sorted(kinds.items()):
        worst = max(group, key=lambda d: d.change)
        where = f" ({worst.path}, {worst.column})" if worst.change else ""
        lines.append(f"{kind}: {len(group)} files, {sum(d.identical for d in group)} "
                     f"byte-identical, largest change {worst.change:.2e} of peak{where}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tools
# ---------------------------------------------------------------------------


def _compare(old_tree: Path, new_tree: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        roots = []
        for tree, name in ((old_tree, "old"), (new_tree, "new")):
            root = Path(tmp) / name
            subprocess.run([sys.executable, __file__, "run", str(tree.resolve() / "src"),
                            str(root)], check=True)
            roots.append(root)
        diffs = compare_trees(*roots)
    print(summary(diffs))
    moved = [d.path for d in diffs if not d.identical]
    print(f"byte-identical: {len(diffs) - len(moved)} of {len(diffs)} files"
          + "".join(f"\n  differs: {p}" for p in moved))
    problems = [p for d in diffs for p in d.problems]
    print("\n".join(problems) or f"every file matches within {REL_BOUND:g} of its column peaks")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("regenerate", help="rewrite tests/corpus/outputs from this tree")
    compare = sub.add_parser("compare", help="run the command set in two checkouts and compare")
    compare.add_argument("old", type=Path)
    compare.add_argument("new", type=Path)
    run = sub.add_parser("run", help="run the command set on a package source directory")
    run.add_argument("src", type=Path)
    run.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _compare(args.old, args.new)
    if args.command == "regenerate":
        args.src, args.out = CORPUS.parents[1] / "src", OUTPUTS
        shutil.rmtree(OUTPUTS, ignore_errors=True)
    sys.path.insert(0, str(args.src))
    write_outputs(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
