"""Write the pinned CLI outputs that ``tests/test_golden.py`` checks.

Run from the repository root as ``PYTHONPATH=src python tests/golden/make_golden.py``. It runs every argv of
``ARGVS`` in-process through ``ergokit.cli.main`` and writes, next to this file:

- ``instance.json``: the d = 4 instance of ``build_instance``, drawn with the four public random constructors;
- ``outputs.json``: each argv with its exit code and stdout, in both formats. ``{instance}`` in an argv stands for
  the path of an instance file with that content.

Regenerate only on purpose: a change to these files is a change to what the CLI prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from ergokit import cli
from ergokit.instances import matrix_to_json
from ergokit.measurement import computational_basis, post_process, random_column_stochastic
from ergokit.states import RandomSource, haar_unitary, random_density, random_hamiltonian

HERE = Path(__file__).resolve().parent
INSTANCE_SEED = 2024

# verify all at d in {1, 3, 8, 16}, rank 1 and full rank; n = 19 runs lemma1's cross-check over more elements than d
VERIFY = ["--d 1 --n 2 --trials 200 --seed 0",
          "--d 3 --n 4 --trials 200 --seed 0",
          "--d 3 --n 4 --rank 1 --trials 200 --seed 1",
          "--d 3 --n 2 --trials 200 --seed 4294967296",
          "--d 8 --n 4 --trials 200 --seed 2",
          "--d 8 --n 4 --rank 1 --trials 200 --seed 3",
          "--d 8 --n 1 --trials 200 --seed 0",
          "--d 16 --n 16 --trials 100 --seed 4",
          "--d 16 --n 16 --rank 1 --trials 100 --seed 0",
          "--d 16 --n 19 --rank 3 --trials 100 --seed 5"]
INSTANCE_RUNS = ["report {instance}",
                 "report --measurement general {instance}",
                 "report --measurement basis {instance}",
                 "sweep --family mix --grid 0:1:11 {instance}",
                 "sweep --family mix --grid 0:1:11 --measurement general {instance}"]
ARGVS = [[*f"verify all {args} --format {fmt}".split()] for args in VERIFY for fmt in ("json", "csv")] + \
        [[*f"{args} --format {fmt}".split()] for args in INSTANCE_RUNS for fmt in ("json", "csv")]


def build_instance() -> dict:
    """A d = 4 instance document: a rank-3 state, a random Hamiltonian, a Haar basis and a 6-outcome coarsening of
    another Haar basis, each drawn from one seeded stream by the public constructors."""
    rng = RandomSource(INSTANCE_SEED)
    state = random_density(4, 3, rng)
    hamiltonian = random_hamiltonian(4, rng)
    u, v = haar_unitary(4, rng), haar_unitary(4, rng)
    fine = computational_basis(4)
    coarse = post_process(fine, random_column_stochastic(6, 4, rng))
    return {"dimension": 4, "hamiltonian": matrix_to_json(hamiltonian.op), "state": matrix_to_json(state.op),
            "measurements": {"basis": matrix_to_json(u @ fine.elements @ u.conj().T),
                             "general": matrix_to_json(v @ coarse.elements @ v.conj().T)}}


def run(argv: list, instance_path: str) -> tuple[int, str]:
    """Exit code and stdout of the CLI on argv, ``{instance}`` replaced by instance_path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([instance_path if a == "{instance}" else a for a in argv])
    return code, out.getvalue()


def main() -> int:
    instance = HERE / "instance.json"
    instance.write_text(json.dumps(build_instance()) + "\n")
    outputs = [dict(zip(("argv", "exit", "stdout"), (argv, *run(argv, str(instance))))) for argv in ARGVS]
    (HERE / "outputs.json").write_text("[\n" + ",\n".join(map(json.dumps, outputs)) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
