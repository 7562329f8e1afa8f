"""Record the `genus5` command line's bytes for a fixed list of commands, or
compare two recordings.

    python tools/cli_bytes.py DIR            # record every command into DIR
    python tools/cli_bytes.py --compare A B  # list the commands whose bytes differ

Each command runs in a fresh interpreter on the package under `src/` next to
this script, with one BLAS thread, and leaves its stdout, stderr and exit
code in DIR as `<name>.out`, `<name>.err` and `<name>.code`.  `--compare`
prints each differing command with how it differs: its exit code, text
beyond the numbers, or only numbers, with the largest absolute move between
the numbers read in order.  It exits 1 when any command differs.

The list covers every command, the
m = 3 eigenvector recursion at L = 8 (`aba-verify --L 8 --m 3`), the
Yang-Baxter check on the degenerate curve (`ybe-check --U 2 sqrt(3)`), an
ARPACK solve for k = 12 levels, whose first Krylov space is larger than 20
(`ed --L 9 --n 1 --mode lowest --k 12`), a threshold on a bracket of its
own (`reality-threshold --L 6 --bracket 2.95,3.35`), a log-form solve whose
Newton steps come from Jacobi sweeps (`bethe-solve --L 2048 --U 4`), the
back-flow solve on the largest grid (`gap --U 5 --N 8192`), five
numerical failures (`bethe-solve --L 4 --U 1`, the `roots` continuations
from 2 sqrt(3) down to U = 3 and 1 at L = 8 and to 2.5 at L = 12, and a
`thermo` grid with a node on the kernel pole) and four refusals (a
`reality-threshold` bracket without a sign change, a `fit-threshold`
with two points, `ed --mode lowest --k 25` and `gap --N 16384`).
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    ["table", "1"],
    ["table", "2"],
    ["table", "3"],
    ["table", "4"],
    ["table", "5"],
    ["thermo", "--U", "5"],
    ["thermo", "--U", "3.4641016151377544", "--N", "8192"],
    ["gap", "--U", "4"],
    ["gap", "--U", "3.6"],
    ["gap", "--U", "3.4641016152"],
    ["gap", "--U", "5", "--N", "8192"],
    ["gap", "--U", "5", "--N", "16384"],
    ["density-profile", "--U", "5", "--N", "512"],
    ["bethe-solve", "--L", "64", "--U", "5"],
    ["bethe-solve", "--L", "1024", "--U", "3.4641016151377544"],
    ["bethe-solve", "--L", "2048", "--U", "4"],
    ["bethe-solve", "--L", "128", "--n", "1", "--U", "4"],
    ["bethe-solve", "--L", "4", "--U", "1"],
    ["roots", "--L", "14", "--U", "3.3", "--mode", "continue", "--u-start", "3.4641016151"],
    ["roots", "--L", "4", "--U", "-1"],
    ["roots", "--L", "8", "--U", "3", "--mode", "continue", "--u-start", "3.4641016151"],
    ["roots", "--L", "8", "--U", "1", "--mode", "continue", "--u-start", "3.4641016151"],
    ["roots", "--L", "12", "--U", "2.5", "--mode", "continue", "--u-start", "3.4641016151"],
    ["aba-verify"],
    ["aba-verify", "--L", "6", "--m", "3", "--U", "4.5"],
    ["aba-verify", "--L", "8", "--m", "3", "--U", "5"],
    ["ybe-check", "--U", "5", "--samples", "20"],
    ["ybe-check", "--U", "-2", "--eps-sign", "minus", "--samples", "20"],
    ["ybe-check", "--U", "3.4641016151377544", "--samples", "20"],
    ["ed", "--L", "6", "--U", "4"],
    ["ed", "--L", "8", "--U", "1", "--n", "1"],
    ["ed", "--L", "8", "--U", "1", "--n", "0", "--mode", "lowest"],
    ["ed", "--L", "10", "--U", "3", "--mode", "lowest"],
    ["ed", "--L", "12", "--U", "1", "--n", "11", "--mode", "lowest", "--k", "3"],
    ["ed", "--L", "9", "--U", "2", "--n", "1", "--mode", "lowest", "--k", "12"],
    ["symmetry-check", "--L", "6", "--U", "1.3"],
    ["reality-threshold", "--L", "6"],
    ["reality-threshold", "--L", "6", "--bracket", "2.95,3.35"],
    ["fit-threshold"],
    ["fit-threshold", "--compute", "--Ls", "4,5,6"],
    ["fit-threshold", "--data", "4:3.0,5:3.1,6:3.2"],
    ["reality-threshold", "--L", "4", "--bracket", "3.3,3.45"],
    ["fit-threshold", "--data", "4:3.0,5:3.1"],
    ["ed", "--L", "8", "--U", "1", "--n", "0", "--mode", "lowest", "--k", "25"],
    ["thermo", "--U", "3.4641016151377544", "--N", "256", "--k0", "2.069851409787025"],
]


def name(argv: list[str]) -> str:
    """The file stem of a command: its words joined by '_', other characters as '_'."""
    return re.sub(r"[^\w.,:=+-]", "_", "_".join(argv))


def _paths(out_dir: Path, argv: list[str]) -> list[Path]:
    return [out_dir / (name(argv) + suffix) for suffix in (".out", ".err", ".code")]


def record(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "genus5chain.cli", *argv],
                              capture_output=True, env=env, check=False)
        for path, data in zip(_paths(out_dir, argv),
                              (done.stdout, done.stderr, f"{done.returncode}\n".encode())):
            path.write_bytes(data)
        print(f"{done.returncode}  {' '.join(argv)}")


# a number not inside a word (the 1 of `e1_relation` is not one)
_NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _recorded(out_dir: Path, argv: list[str]) -> list[bytes | None]:
    return [p.read_bytes() if p.is_file() else None for p in _paths(out_dir, argv)]


def largest_move(a: bytes, b: bytes) -> float | None:
    """The largest absolute difference of the numbers of a and b, paired in
    order, or None when the texts differ once every number is masked."""
    if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
        return None
    return max((abs(float(x) - float(y)) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b))),
               default=0.0)


def how_it_differs(a: Path, b: Path, argv: list[str]) -> str | None:
    """How a command's recordings in a and b differ, or None if they are equal."""
    got, want = _recorded(a, argv), _recorded(b, argv)
    if got == want and None not in got:
        return None
    if None in got or None in want:
        return "missing recording"
    if got[2] != want[2]:
        return f"exit code {got[2].decode().strip()} -> {want[2].decode().strip()}"
    moves = [largest_move(x, y) for x, y in zip(got[:2], want[:2])]
    if None in moves:
        return "text differs"
    return f"numbers only, largest move {max(moves):.2g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dir", nargs="?", type=Path, help="directory to record into")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="compare two recorded directories")
    args = p.parse_args(argv)
    if (args.dir is None) == (args.compare is None):
        p.error("give either DIR or --compare A B")
    if args.dir is not None:
        record(args.dir)
        return 0
    diff = [(argv, how) for argv in COMMANDS if (how := how_it_differs(*args.compare, argv))]
    for argv, how in diff:
        print(f"{' '.join(argv)}: {how}")
    print(f"{len(diff)} of {len(COMMANDS)} commands differ", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
