"""Run the output-hash recipe and print the sha256 of every file it writes.

Usage, from the root of a checkout:

    python tools/hash_recipe.py OUT > hashes.txt

Each command of ``RECIPE`` runs as ``python -m crowdflow`` on the
checkout's ``src`` (``PYTHONPATH=src``), with the thread variables at 1,
and writes into the directory OUT; the reports of ``picard`` and
``oracle`` are their standard output, kept as files.  The printed lines
are ``sha256  path``, the path relative to OUT, sorted by path, so the
lists of two checkouts compare with ``diff``.  The script exits 1 when a
command fails.  It needs only the standard library, so the same file can
hash a checkout that does not have it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# (crowdflow arguments, file under OUT that keeps the standard output, or
# None); "{out}" in an argument stands for OUT
RECIPE = (
    ("run --scenario room-eq25 --h 0.125 --T 1.5 --out {out}/room", None),
    ("run --scenario corridor-eq20 --h 0.0625 --T 0.5 --out {out}/corridor", None),
    ("picard --h 0.125 --max-iter 4 --tol 0", "picard.txt"),
    ("picard --h 0.125 --max-iter 25 --tol 0", "picard_full.txt"),
    ("oracle --h 0.0078125 --T 0.25", "oracle.txt"),
    ("run --scenario room-eq25 --h 0.1 --T 0.5 --out {out}/room01", None),
    (
        "run --scenario corridor-eq20 --h 0.0625 --T 0.5 --snap-every 0.2"
        " --out {out}/corridor02",
        None,
    ),
    ("oracle --scenario contraction-disc --h 0.015625 --T 0.25", "oracle_contraction.txt"),
    (
        "run --scenario rotation-disc --h 0.015625 --T 0.25 --snap-every 0.1"
        " --out {out}/rotation",
        None,
    ),
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/hash_recipe.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH="src", **{name: "1" for name in THREAD_VARS})
    for arguments, report in RECIPE:
        command = [sys.executable, "-m", "crowdflow"]
        command += [word.format(out=out) for word in arguments.split()]
        if report is None:
            done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL)
        else:
            with open(out / report, "wb") as sink:
                done = subprocess.run(command, env=env, stdout=sink)
        if done.returncode != 0:
            print(f"failed with exit code {done.returncode}: {' '.join(command)}", file=sys.stderr)
            return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
