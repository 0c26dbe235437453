"""Pinned CLI outputs (written by ``tests/golden/make_golden.py``): ``verify all`` at d in {1, 3, 8, 16}, and
``report`` and ``sweep`` on a d = 4 instance that the public random constructors draw, so their streams are pinned too.

Key order, names and integers must match exactly and floats within 1e-12. ``worst_trial`` must match unless
|worst_margin| <= 1e-12: such margins are roundoff ties, whose first maximum can move with the BLAS build.
"""

import json
from pathlib import Path

import pytest

from golden.make_golden import build_instance, run

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = json.loads((GOLDEN / "outputs.json").read_text())
TOL = 1e-12


def assert_close(actual, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key, value in expected.items():
            if key != "worst_trial" or abs(expected["worst_margin"]) > TOL:
                assert_close(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float) and abs(actual - expected) <= TOL, f"{where}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, f"{where}: {actual!r} != {expected!r}"


def csv_cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(stdout: str, argv: list):
    """JSON lines as objects; CSV lines as lists of int, float or string cells."""
    if argv[argv.index("--format") + 1] == "json":
        return [json.loads(line) for line in stdout.splitlines()]
    return [[csv_cell(cell) for cell in line.split(",")] for line in stdout.splitlines()]


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "instance.json"
    path.write_text(json.dumps(build_instance()))
    return str(path)


def test_constructors_draw_the_pinned_instance():
    assert_close(build_instance(), json.loads((GOLDEN / "instance.json").read_text()), "instance")


@pytest.mark.parametrize("golden", OUTPUTS, ids=[" ".join(entry["argv"]) for entry in OUTPUTS])
def test_cli_output_is_pinned(golden, instance_path):
    code, stdout = run(golden["argv"], instance_path)
    assert code == golden["exit"]
    assert_close(parse(stdout, golden["argv"]), parse(golden["stdout"], golden["argv"]), "stdout")
