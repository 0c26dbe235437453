import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit.cli import main

from _oracles import bench_oracle, qubit_sweep_closed_form

ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("json", "csv")

QUBIT_INSTANCE = {
    "dimension": 2,
    "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
    "state": [[[0.25, 0], [0, 0]], [[0, 0], [0.75, 0]]],
    "measurements": {
        "computational": [
            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        ],
        "diagonal_basis": [
            [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
            [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]],
        ],
        "trivial": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        ],
    },
    "post_processing": {"halfmerge": [[0.5, 1.0], [0.5, 0.0]]},
}


@pytest.fixture
def qubit_file(tmp_path):
    path = tmp_path / "qubit.json"
    path.write_text(json.dumps(QUBIT_INSTANCE))
    return str(path)


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ABSENT = object()  # a field value that deletes the field


def edited_instance(field, value):
    """QUBIT_INSTANCE with ``field`` set to ``value``, or deleted if value is ABSENT."""
    doc = dict(QUBIT_INSTANCE, **{field: value})
    if value is ABSENT:
        del doc[field]
    return doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv):
    """Exit code, stdout and stderr of ``python -W error::RuntimeWarning *argv`` (``-m ergokit ...`` or a script)."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *argv], capture_output=True)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def usage_error(capsys, *argv, child=False):
    """The stderr of argv, in-process or in a child: in each output format it must exit 2, print nothing on stdout
    and one "error:" line."""
    errs = set()
    for fmt in FORMATS:
        code, out, err = run_child("-m", "ergokit", *argv, "--format", fmt) if child else \
            run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, (fmt, code, out, err)
        errs.add(err)
    assert len(errs) == 1, errs
    return errs.pop()


def same_bytes_as_a_child(capsys, argv, *child_argv):
    """The stdout of argv through ``cli.main``: it must exit 0 and print the bytes ``run_child(*child_argv)`` prints."""
    child_code, child_out, child_err = run_child(*child_argv)
    code, out, err = run_cli(capsys, *argv)
    assert (child_code, code) == (0, 0), (child_err, err)
    assert child_out == out
    return out


class TestReport:
    def test_json_fields(self, qubit_file, capsys):
        code, out, _ = run_cli(capsys, "report", qubit_file)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"d": 2, "mean": 0.75, "passive": 0.25, "ergotropy": 0.5,
                       "incoherent": 0.5, "coherent": 0.0, "observational": None}

    def test_csv_row(self, qubit_file, capsys):
        code, out, _ = run_cli(capsys, "report", qubit_file, "--format", "csv")
        assert code == 0
        assert out == "d,mean,passive,ergotropy,incoherent,coherent,observational\n2,0.75,0.25,0.5,0.5,0.0,\n"

    def test_named_measurement(self, qubit_file, capsys):
        code, out, _ = run_cli(capsys, "report", qubit_file, "--measurement", "computational")
        assert code == 0
        assert json.loads(out)["observational"] == pytest.approx(0.5, abs=1e-12)

    def test_coherent_basis_measurement(self, qubit_file, capsys):
        # the +/- basis estimate of a diagonal state is maximally mixed
        code, out, _ = run_cli(capsys, "report", qubit_file, "--measurement", "diagonal_basis")
        assert code == 0
        assert json.loads(out)["observational"] == pytest.approx(0.25, abs=1e-12)

    def test_unknown_measurement(self, qubit_file, capsys):
        code, _, err = run_cli(capsys, "report", qubit_file, "--measurement", "nope")
        assert code == 2
        assert "measurements.nope" in err

    def test_maximally_mixed_instance(self, tmp_path, capsys):
        doc = {
            "dimension": 2,
            "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            "state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        }
        code, out, _ = run_cli(capsys, "report", write_instance(tmp_path, doc))
        assert code == 0
        rep = json.loads(out)
        assert rep["ergotropy"] == 0.0
        assert rep["incoherent"] == 0.0
        assert rep["coherent"] == 0.0

    def test_plus_state_instance(self, tmp_path, capsys):
        doc = {
            "dimension": 2,
            "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            "state": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
        }
        code, out, _ = run_cli(capsys, "report", write_instance(tmp_path, doc))
        assert code == 0
        rep = json.loads(out)
        assert rep["incoherent"] == pytest.approx(0.0, abs=1e-12)
        assert rep["coherent"] == pytest.approx(0.5, abs=1e-12)

    def test_output_file(self, qubit_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "report", qubit_file, "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["ergotropy"] == 0.5

    def test_estimate_within_povm_completeness_is_not_revalidated(self, tmp_path, capsys):
        # the elements sum to diag(1, 1 + 8e-10), inside the POVM completeness
        # tolerance, so the estimate of |1><1| has trace 1 + 8e-10
        half = [[[0.5, 0], [0, 0]], [[0, 0], [0.5 + 4e-10, 0]]]
        doc = dict(QUBIT_INSTANCE, state=[[[0, 0], [0, 0]], [[0, 0], [1, 0]]], measurements={"m": [half, half]})
        code, out, err = run_cli(capsys, "report", write_instance(tmp_path, doc), "--measurement", "m")
        assert code == 0, err
        assert abs(json.loads(out)["observational"] - 0.5) <= 1e-9


class TestReportErrors:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "absent.json"))
        assert code == 2
        assert "absent.json" in err

    def test_unparsable_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert "line 1" in err

    def test_invalid_state_reports_field_path(self, tmp_path, capsys):
        doc = dict(QUBIT_INSTANCE, state=[[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]])
        code, _, err = run_cli(capsys, "report", write_instance(tmp_path, doc))
        assert code == 2
        assert "state:" in err

    @pytest.mark.parametrize("field, value, message", [
        ("state", [[[1, 0], [0, 0]]], "state: expected 2 rows"),
        ("post_processing", {"x": [[0.5, "a"], [0.5, 0.0]]}, "post_processing.x[0][1]: expected a real number, got 'a'"),
    ])
    def test_parse_error_path_is_printed_once(self, tmp_path, capsys, field, value, message):
        code, _, err = run_cli(capsys, "report", write_instance(tmp_path, dict(QUBIT_INSTANCE, **{field: value})))
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("field, value, path", [
        ("state", [[[1, 0], [10 ** 400, 0]], [[0, 0], [0, 0]]], "state[0][1]"),
        ("hamiltonian", [[0, 0], [0, -10 ** 400]], "hamiltonian[1][1]"),
        ("post_processing", {"x": [[10 ** 400]]}, "post_processing.x[0][0]"),
    ])
    def test_integer_past_the_float_range_exits_2(self, tmp_path, capsys, field, value, path):
        err = usage_error(capsys, "report", write_instance(tmp_path, dict(QUBIT_INSTANCE, **{field: value})))
        assert f"error: {path}: integer too large for a float" in err

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe", "utf-8"),  # not UTF-8
        (json.dumps(QUBIT_INSTANCE).replace("0.75", "7" * 5000, 1).encode(), "digits"),  # past int's digit limit
    ])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, capsys, content, reason):
        path = tmp_path / "instance.json"
        path.write_bytes(content)
        err = usage_error(capsys, "report", str(path))
        assert err.startswith(f"error: {path}: ") and reason in err

    @pytest.mark.parametrize("entry", ["1e400", "NaN", "-Infinity", "[0, 1e400]"])
    def test_non_finite_entry_reports_cell_path(self, tmp_path, capsys, entry):
        path = tmp_path / "instance.json"
        path.write_text('{"dimension": 1, "hamiltonian": [[0]], "state": [[%s]]}' % entry)
        code, out, err = run_cli(capsys, "report", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: state[0][0]: expected a finite number, got ")

    @pytest.mark.parametrize("field, value, message", [
        ("state", [[True, 0], [0, 0.75]], "state[0][0]: expected a number or [re, im] pair, got a boolean"),
        ("state", [[[True, 0], 0], [0, 0.75]], "state[0][0]: expected a number or [re, im] pair, got [True, 0]"),
        ("hamiltonian", [[0, [0, 0, 0]], [0, 1]], "hamiltonian[0][1]: expected a number or [re, im] pair, got [0, 0, 0]"),
        ("state", [[0.25, 0], "row"], "state[1]: expected 2 entries"),
        ("state", [[0.25, 0], [0.75]], "state[1]: expected 2 entries"),
        ("post_processing", {"x": [[1.0], []]}, "post_processing.x[1]: expected a non-empty row"),
        ("post_processing", {"x": [[0.5, 1.0], [0.5]]}, "post_processing.x[1]: expected 2 entries, got 1"),
        ("post_processing", {"x": []}, "post_processing.x: expected a non-empty list of rows"),
        ("post_processing", {"x": [[True]]}, "post_processing.x[0][0]: expected a real number, got True"),
        ("state", [[0.25, [0, -10 ** 400]], [0, 0.75]], "state[0][1]: integer too large for a float"),
        ("state", [[0.25, 0], [[0, float("nan")], 0.75]], "state[1][0]: expected a finite number, got nan"),
        # the schema: field None stands for the whole document, ABSENT for a deleted field
        (None, [1], "<path>: top level must be a JSON object"),
        ("dimension", ABSENT, "dimension: missing required field"),
        ("state", ABSENT, "state: missing required field"),
        ("dimension", 2.0, "dimension must be a positive integer, got 2.0"),
        ("dimension", True, "dimension must be a positive integer, got True"),
        ("dimension", 0, "dimension must be a positive integer, got 0"),
        ("states", QUBIT_INSTANCE["state"], "states: unknown field"),
        ("measurements", [], "measurements: expected an object mapping names to entries"),
        ("post_processing", "x", "post_processing: expected an object mapping names to entries"),
        ("measurements", {"m": []}, "measurements.m: expected a non-empty list of POVM elements"),
        ("measurements", {"m": {}}, "measurements.m: expected a non-empty list of POVM elements"),
    ])
    def test_reader_messages(self, tmp_path, capsys, field, value, message):
        path = write_instance(tmp_path, value if field is None else edited_instance(field, value))
        assert usage_error(capsys, "report", path) == f"error: {message}\n".replace("<path>", path)

    @pytest.mark.parametrize("field", ["measurements", "post_processing"])
    def test_null_section_is_absent(self, tmp_path, capsys, field):
        code, out, err = run_cli(capsys, "report", write_instance(tmp_path, edited_instance(field, None)))
        assert (code, err) == (0, "")
        assert json.loads(out)["observational"] is None

    @pytest.mark.parametrize("text, key", [
        ('{"dimension": 2, "hamiltonian": [[0, 0], [0, 1]], "state": [[1, 0], [0, 0]], "state": [[0, 0], [0, 1]]}',
         "state"),
        ('{"dimension": 2, "hamiltonian": [[0, 0], [0, 1]], "state": [[1, 0], [0, 0]], '
         '"measurements": {"m": [[[1, 0], [0, 1]]], "m": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}}', "m"),
    ], ids=["top", "nested"])
    def test_repeated_key_is_a_parse_error(self, tmp_path, capsys, text, key):
        path = tmp_path / "instance.json"
        path.write_text(text)
        assert usage_error(capsys, "report", str(path)) == f"error: {path}: repeated key {key!r}\n"

    def test_signed_zeros_and_subnormals_parse_exactly(self, monkeypatch):
        import numpy as np

        from ergokit import instances

        parsed = {}
        for name in ("Hamiltonian", "StochasticMatrix"):
            build = getattr(instances, name)
            monkeypatch.setattr(instances, name, lambda m, build=build, name=name: build(parsed.setdefault(name, m)))
        tiny = 5e-324
        doc = {"dimension": 2, "hamiltonian": [[-0.0, [tiny, -0.0]], [[tiny, 0.0], [0.0, -0.0]]],
               "state": [[1, 0], [0, 0]], "post_processing": {"x": [[1.0, tiny], [-0.0, 1.0]]}}
        instances.instance_from_dict(json.loads(json.dumps(doc)))
        expected = {"Hamiltonian": np.array([[complex(-0.0), complex(tiny, -0.0)], [complex(tiny, 0.0), complex(0.0, -0.0)]]),
                    "StochasticMatrix": np.array([[1.0, tiny], [-0.0, 1.0]])}
        for name, want in expected.items():
            assert parsed[name].tobytes() == want.tobytes()
            assert parsed[name].dtype == want.dtype and parsed[name].flags.c_contiguous

    @pytest.mark.parametrize("nested", ["[" * 100_000 + "]" * 100_000, "[[" + "[" * 990 + "]" * 990 + "]]"],
                             ids=["field", "cell"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, nested):
        path = tmp_path / "instance.json"
        path.write_text('{"dimension": 1, "hamiltonian": %s, "state": [[1]]}' % nested)
        usage_error(capsys, "report", str(path))

    def test_bad_entry_reports_cell_path(self, tmp_path, capsys):
        doc = dict(QUBIT_INSTANCE)
        doc = json.loads(json.dumps(doc))
        doc["hamiltonian"][1][1] = "oops"
        code, _, err = run_cli(capsys, "report", write_instance(tmp_path, doc))
        assert code == 2
        assert "hamiltonian[1][1]" in err

    @pytest.mark.parametrize("name", ["Hamiltonian", "DensityMatrix", "Povm", "StochasticMatrix"])
    def test_a_plain_value_error_while_loading_is_a_fault(self, tmp_path, monkeypatch, name):
        # only domain errors and eigensolver failures are usage errors with a field path; anything else propagates
        from ergokit import instances

        def fault(*args):
            raise ValueError("fault")

        monkeypatch.setattr(instances, name, fault)
        path = write_instance(tmp_path, QUBIT_INSTANCE)
        for load in (lambda: instances.instance_from_dict(QUBIT_INSTANCE), lambda: main(["report", path])):
            with pytest.raises(ValueError) as info:
                load()
            assert type(info.value) is ValueError, info.value

    def test_eigensolver_failure_while_loading_keeps_the_field_path(self, qubit_file, capsys, monkeypatch):
        def diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", diverges)
        assert usage_error(capsys, "report", qubit_file) == "error: hamiltonian: Eigenvalues did not converge\n"


class TestSweep:
    def test_merge_family_matches_closed_form(self, qubit_file, capsys):
        code, out, _ = run_cli(capsys, "sweep", qubit_file, "--family", "merge", "--grid", "0:1:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,observational_ergotropy"
        values = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert [v[0] for v in values] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for b, r in values:
            assert r == pytest.approx(qubit_sweep_closed_form(b), abs=1e-10)
        results = [v[1] for v in values]
        assert results == sorted(results, reverse=True)

    def test_comma_grid_and_json_format(self, qubit_file, capsys):
        code, out, _ = run_cli(capsys, "sweep", qubit_file, "--family", "merge",
                               "--grid", "0,1", "--format", "json")
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs[0]["observational_ergotropy"] == pytest.approx(0.5, abs=1e-12)
        assert docs[1]["observational_ergotropy"] == pytest.approx(0.25, abs=1e-12)

    def test_mix_family_on_named_measurement(self, qubit_file, capsys):
        code, out, _ = run_cli(capsys, "sweep", qubit_file, "--family", "mix",
                               "--grid", "0:1:3", "--measurement", "computational")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_unknown_family(self, qubit_file, capsys):
        code, _, err = run_cli(capsys, "sweep", qubit_file, "--family", "nope", "--grid", "0:1:3")
        assert code == 2
        assert "unknown family" in err

    @pytest.mark.parametrize("grid", ["", "0:1", "a,b", "0:1:0"])
    def test_invalid_grid(self, qubit_file, capsys, grid):
        code, _, err = run_cli(capsys, "sweep", qubit_file, "--family", "merge", "--grid", grid)
        assert code == 2

    @pytest.mark.parametrize("grid", ["0:inf:3", "-1e308:1e308:3"])
    def test_grid_span_must_be_finite(self, qubit_file, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", qubit_file, "--family", "mix", f"--grid={grid}")
        assert (code, out) == (2, "")
        assert "must be finite" in err

    def test_out_of_range_parameter(self, qubit_file, capsys):
        code, _, err = run_cli(capsys, "sweep", qubit_file, "--family", "merge", "--grid", "0:2:3")
        assert code == 2
        assert "[0, 1]" in err

    def test_merge_needs_two_outcomes(self, qubit_file, capsys):
        code, _, err = run_cli(capsys, "sweep", qubit_file, "--family", "merge",
                               "--grid", "0:1:3", "--measurement", "trivial")
        assert code == 2
        assert "2-outcome" in err

    def test_merge_checks_outcomes_before_range(self, qubit_file, capsys):
        code, out, err = run_cli(capsys, "sweep", qubit_file, "--family", "merge", "--grid", "2,0.5",
                                 "--measurement", "trivial")
        assert (code, out) == (2, "")
        assert "2-outcome" in err

    def test_nan_parameter_is_out_of_range(self, qubit_file, capsys):
        code, out, err = run_cli(capsys, "sweep", qubit_file, "--family", "mix", "--grid", "0,nan")
        assert (code, out) == (2, "")
        assert "[0, 1]" in err

    def test_whole_grid_is_checked_before_the_first_row(self, qubit_file, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("ergokit.cli.work", lambda *a: calls.append(a) or 0.0)
        assert "[0, 1]" in usage_error(capsys, "sweep", qubit_file, "--family", "mix", "--grid", "0,0.5,nan")
        assert calls == []

    def test_each_family_matrix_is_built_once(self, qubit_file, capsys, monkeypatch):
        from ergokit import cli

        values = []  # read off each matrix the builder yields: mix's top-right entry on two outcomes is t / 2
        monkeypatch.setattr(cli, "family_matrices", lambda *a, _f=cli.family_matrices: (
            values.append(2 * m.entries[0, 1]) or m for m in _f(*a)))
        code, _, err = run_cli(capsys, "sweep", qubit_file, "--family", "mix", "--grid", "0:1:5")
        assert code == 0, err
        assert values == list(np.linspace(0.0, 1.0, 5))  # one matrix per grid value, in grid order

    def test_populations_are_read_once_per_sweep(self, qubit_file, capsys, monkeypatch):
        from ergokit.states import energy_populations

        calls = []
        for name, module in list(sys.modules.items()):  # wherever a module binds it, as an edit of the source would
            if name.startswith("ergokit") and getattr(module, "energy_populations", None) is energy_populations:
                monkeypatch.setattr(module, "energy_populations", lambda *a: calls.append(a) or energy_populations(*a))
        code, _, err = run_cli(capsys, "sweep", qubit_file, "--family", "mix", "--grid", "0:1:5")
        assert code == 0, err
        assert len(calls) == 1


def sweep_instance_file(tmp_path):
    """A random qubit with dense POVMs of 2 and 4 outcomes: a Haar basis and a random coarsening of another."""
    from ergokit.instances import matrix_to_json, povm_to_json
    from ergokit.measurement import Povm, post_process, random_column_stochastic
    from ergokit.states import RandomSource, haar_unitary, random_density, random_hamiltonian

    rng = RandomSource(17)
    basis = Povm(haar_unitary(2, rng))
    general = post_process(Povm(haar_unitary(2, rng)), random_column_stochastic(4, 2, rng))
    doc = {"dimension": 2, "hamiltonian": matrix_to_json(random_hamiltonian(2, rng).op),
           "state": matrix_to_json(random_density(2, 2, rng).op),
           "measurements": {"basis": povm_to_json(basis), "general": povm_to_json(general)}}
    return write_instance(tmp_path, doc, "sweep.json")


FAMILY_CLOSED_FORMS = {
    "merge": lambda b, n: [[b, 1.0], [1.0 - b, 0.0]],
    "mix": lambda t, n: (1.0 - t) * np.eye(n) + t * np.full((n, n), 1.0 / n),
}


@settings(deadline=None, max_examples=300)
@given(t=st.floats(0.0, 1.0, allow_subnormal=True),
       family_n=st.sampled_from([("merge", 2), ("mix", 1), ("mix", 2), ("mix", 3), ("mix", 8)]))
def test_family_matrices_are_the_closed_forms_bit_for_bit(t, family_n):
    # the one rule (1 - t) F0 + t F1 over a family's endpoints gives its closed form at every t in [0, 1], subnormals
    # included: merge's top right is fl(fl(1 - t) + t) = 1
    from ergokit.instances import family_matrices

    family, n = family_n
    assert next(family_matrices(family, [t], n)).entries.tobytes() == np.array(
        FAMILY_CLOSED_FORMS[family](t, n)).tobytes()


@pytest.mark.parametrize("family, measurement", [("merge", None), ("merge", "basis"), ("mix", None), ("mix", "general")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [5, 7])
def test_sweep_rows_equal_the_validated_family_matrix(tmp_path, capsys, family, measurement, fmt, count):
    # each row is the observational ergotropy after post-processing with the family's closed form, validated,
    # bit for bit; merge drops an all-zero row at b = 1 and needs a 2-outcome base, and the sevenths are not
    # dyadic, so a reordered closed form shows
    from ergokit.ergotropy import report
    from ergokit.instances import load_instance
    from ergokit.measurement import StochasticMatrix, computational_basis, post_process

    path = sweep_instance_file(tmp_path)
    code, out, err = run_cli(capsys, "sweep", path, "--family", family, "--grid", f"0:1:{count}", "--format", fmt,
                             *(["--measurement", measurement] if measurement else []))
    assert code == 0, err
    rows = ([list(json.loads(line).values()) for line in out.splitlines()] if fmt == "json" else
            [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
    instance = load_instance(path)
    base = instance.measurements[measurement] if measurement else computational_basis(2)
    assert [parameter for parameter, _ in rows] == list(np.linspace(0.0, 1.0, count))
    for parameter, value in rows:
        coarse = post_process(base, StochasticMatrix(np.array(FAMILY_CLOSED_FORMS[family](parameter, base.n_outcomes))))
        assert value == report(instance.state, instance.hamiltonian, coarse).observational


class TestVerify:
    def test_single_claim_single_trial(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem1", "--trials", "1", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["claim"] == "theorem1"
        assert doc["violations"] == 0

    def test_all_claims(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "--d", "2", "--n", "2",
                                 "--trials", "20", "--seed", "3")
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["claim"] for d in docs] == ["theorem1", "theorem2", "theorem3", "lemma1", "schur"]
        assert all(d["violations"] == 0 for d in docs)
        assert "trials" in err  # timing goes to stderr

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "schur", "--trials", "10", "--seed", "2",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim,trials,violations,worst_margin"
        assert lines[1].startswith("schur,10,0,")

    def test_violations_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma1", "--trials", "20", "--seed", "11",
                               "--tol", "1e-300")
        assert code == 1
        assert len(out.splitlines()) == 1 and json.loads(out)["violations"] > 0

    def test_bogus_claim(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 2
        assert "unknown claim" in err

    def test_invalid_config(self, capsys):
        code, _, err = run_cli(capsys, "verify", "schur", "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["all", "--d", "0"], "dimension must be a positive integer, got 0"),
        (["all", "--n", "0"], "outcomes must be a positive integer, got 0"),
        (["all", "--trials", "0"], "trials must be an integer in [1, 4294967295], got 0"),
        (["all", "--d", "3", "--rank", "4"], "rank must be an integer in [1, 3], got 4"),
        (["theorem1", "--trials", "1", "--tol", "inf"], "tolerance must be a finite positive number, got inf"),
        (["theorem1", "--trials", "1", "--tol", "1e400"], "tolerance must be a finite positive number, got inf"),
    ])
    def test_out_of_range_sizes_exit_2(self, capsys, argv, message):
        assert usage_error(capsys, "verify", *argv) == f"error: {message}\n"

    def test_defaults_are_the_audit_config_defaults(self, capsys, monkeypatch):
        import ergokit.cli
        from ergokit.audits import AuditConfig

        configs = []
        monkeypatch.setattr(ergokit.cli, "run_all", lambda cfg: configs.append(cfg) or [])
        assert run_cli(capsys, "verify", "all")[0] == 0
        assert configs == [AuditConfig()]

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be a non-negative integer, got -1" in err

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        from ergokit.states import RandomSource

        def exhausted(*args):
            raise MemoryError("Unable to allocate 549. MiB for an array")

        monkeypatch.setattr(RandomSource, "sample", exhausted)
        code, out, err = run_cli(capsys, "verify", "theorem1", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: Unable to allocate 549. MiB for an array\n"

    def test_eigensolver_failure_in_an_audit_exits_2(self, capsys, monkeypatch):
        # theorem3 eigensolves each trial's state itself: LAPACK's failure is a usage-level error, not a violation
        def diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverges)
        code, out, err = run_cli(capsys, "verify", "theorem3", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("size", [["--d", "2", "--n", "4611686018427387904"], ["--d", "4294967296"]])
    def test_trial_past_the_largest_array_exits_2(self, capsys, size):
        # one trial's 16 d^2 (n + 8) bytes exceed what numpy can index, so the config is rejected before any draw
        err = usage_error(capsys, "verify", "theorem1", *size, "--trials", "1", child=True)
        assert err.startswith("error: one trial at dimension")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets RLIMIT_AS on the child")
    def test_out_of_memory_in_a_child_exits_2(self):
        # a 2 x d x d draw of 6 GiB cannot fit under a 1.2 GB address-space limit, so it fails before any page is touched
        import os
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1_200_000 << 10, 1_200_000 << 10))

        cmd = [sys.executable, "-m", "ergokit", "verify", "theorem1", "--d", "20000", "--n", "4", "--trials", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=limit,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: Unable to allocate") and "Traceback" not in proc.stderr

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "audit.jsonl"
        code, out, _ = run_cli(capsys, "verify", "schur", "--trials", "5", "--seed", "4",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["claim"] == "schur"


@pytest.mark.parametrize("d", [2, 5, 16])
def test_dense_report_and_sweep_match_bench_oracle(d, tmp_path, capsys):
    oracle = bench_oracle()
    inst = oracle.make_instance(0, 0, d)
    path = write_instance(tmp_path, oracle.instance_document(inst))
    tol = oracle.tolerance(inst)
    code, out, _ = run_cli(capsys, "report", path, "--measurement", "general")
    assert code == 0
    doc = json.loads(out)
    for key, expected in oracle.report_values(inst).items():
        assert abs(doc[key] - expected) <= tol, key
    code, out, _ = run_cli(capsys, "sweep", path, "--family", "mix", "--grid", "0:1:11", "--measurement", "general")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 11
    expected = oracle.mix_sweep_values(inst, [float(t) for t, _ in rows])
    assert max(abs(float(r) - e) for (_, r), e in zip(rows, expected)) <= tol


def test_povm_json_round_trip(tmp_path, capsys):
    # a POVM serialized with the library loads back through an instance file
    import numpy as np

    from ergokit.instances import load_instance, matrix_to_json, povm_to_json
    from ergokit.measurement import (Povm, StochasticMatrix, computational_basis, post_process,
                                     random_column_stochastic)
    from ergokit.states import RandomSource, haar_unitary

    rng = RandomSource(0)
    coarse = post_process(computational_basis(2), StochasticMatrix(np.array([[0.5, 1.0], [0.5, 0.0]])))
    general = post_process(Povm(haar_unitary(3, rng)), random_column_stochastic(4, 3, rng))
    for povm, populations in ((coarse, [0.25, 0.75]), (general, [0.25, 0.25, 0.5])):
        doc = {
            "dimension": povm.dim,
            "hamiltonian": matrix_to_json(np.diag(np.arange(povm.dim, dtype=float))),
            "state": matrix_to_json(np.diag(populations)),
            "measurements": {"coarse": povm_to_json(povm)},
        }
        path = tmp_path / f"roundtrip-{povm.dim}.json"
        path.write_text(json.dumps(doc))
        loaded = load_instance(path)
        for original, reloaded in zip(povm.elements, loaded.measurements["coarse"].elements):
            assert np.max(np.abs(original - reloaded)) == 0.0
    code, out, _ = run_cli(capsys, "report", str(tmp_path / "roundtrip-2.json"), "--measurement", "coarse")
    assert code == 0
    assert json.loads(out)["observational"] == pytest.approx(1.0 / 3.0, abs=1e-12)


# argvs that must print the same bytes in a fresh child as in-process, in both formats; {dense} and {qubit} are
# bench/oracle.py's d = 16 and d = 2 instance files (a dense 32-element POVM, rank-1 projectors and a merge that
# drops an outcome at b = 1), {golden} the pinned d = 4 instance
REPEATS = [
    *(f"verify all {args}" for args in [
        "--d 3 --n 4 --trials 200 --seed 0", "--d 64 --n 64 --trials 2 --seed 0",
        "--d 1 --n 2 --trials 200 --seed 0", "--d 3 --n 4 --trials 200 --seed 4294967296",
        "--d 8 --n 1 --trials 200 --seed 0", "--d 8 --n 4 --rank 1 --trials 200 --seed 0",
        "--d 16 --n 16 --rank 1 --trials 300 --seed 0", "--d 2 --n 3 --trials 25 --seed 9"]),
    "report --measurement general {dense}",
    "sweep --family mix --grid 0:1:101 --measurement general {dense}",
    "sweep --family mix --grid 0:1:2001 --measurement general {dense}",
    "report {dense}",
    "sweep --family mix --grid 0:1:101 {dense}",
    "sweep --family merge --grid 0:1:11 {qubit}",
    "report --measurement basis {golden}",
    "sweep --family mix --grid 0:1:101 --measurement basis {golden}",
]


@pytest.fixture(scope="module")
def repeat_files(tmp_path_factory):
    oracle = bench_oracle()
    folder = tmp_path_factory.mktemp("repeats")
    files = {name: write_instance(folder, oracle.instance_document(oracle.make_instance(0, 0, d)), f"{name}.json")
             for name, d in (("dense", 16), ("qubit", 2))}
    return {**files, "golden": str(ROOT / "tests" / "golden" / "instance.json")}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("args", REPEATS)
def test_repeats_are_byte_identical(repeat_files, capsys, args, fmt):
    argv = [repeat_files[a[1:-1]] if a.startswith("{") else a for a in args.split()] + ["--format", fmt]
    same_bytes_as_a_child(capsys, argv, "-m", "ergokit", *argv)


def sweep_traced_peak(capsys, path, count, *options):
    """Traced peak bytes of an in-process CSV mix sweep of ``count`` points; tracemalloc counts numpy's buffers, and
    capsys holds the output text."""
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "sweep", "--family", "mix", "--grid", f"0:1:{count}", *options, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    return peak


def test_sweep_memory_does_not_grow_with_the_grid(repeat_files, capsys):
    # each point's 32 x 32 family matrix and its row are dropped once the row's line is formatted: only the output
    # text grows. Loading the d = 16 file dominates its peak, so the qubit file's sweep shows what a kept row costs:
    # from 201 to 2,001 points its peak grows 1.09 MiB if every row is kept until the write, and 0.35 MiB if none is
    for name, options, bound in (("dense", ("--measurement", "general"), 1 << 20), ("qubit", (), 1 << 19)):
        small, large = (sweep_traced_peak(capsys, repeat_files[name], count, *options) for count in (201, 2001))
        assert large <= small + bound, (name, small, large)


@pytest.mark.parametrize("seed", range(5))
def test_verify_large_prints_the_same_bytes_under_the_bench_tracer(tmp_path, capsys, seed):
    # bench/run.py runs this argv traced as its verify-large workload, and needs every run to print the same lines;
    # theorem3's margin is r_sampled - r_full alone, so a worst_margin at or above 0 means a sampled basis reached it
    argv = ["verify", "all", "--d", "64", "--n", "64", "--trials", "2", "--seed", str(seed)]
    tracer = [str(ROOT / "bench" / "tracer.py"), str(tmp_path / "trace.json"), "--"]
    out = same_bytes_as_a_child(capsys, argv, *tracer, *argv)
    rows = {row["claim"]: row for row in map(json.loads, out.splitlines())}
    assert [row["violations"] for row in rows.values()] == [0] * 5
    assert rows["theorem3"]["worst_margin"] < 0


def test_usage_error_exits_2():
    for module in ("ergokit", "ergokit.cli"):
        proc = subprocess.run([sys.executable, "-m", module], capture_output=True)
        assert proc.returncode == 2, module


@pytest.mark.parametrize("command", [["report", "{qubit}"], ["sweep", "{qubit}", "--family", "merge", "--grid", "0:1:3"],
                                     ["verify", "schur", "--trials", "5"]])
def test_output_to_a_directory_exits_2(qubit_file, tmp_path, capsys, command):
    argv = [qubit_file if a == "{qubit}" else a for a in command] + ["--output", str(tmp_path)]
    assert usage_error(capsys, *argv).startswith(f"error: [Errno 21] Is a directory: {str(tmp_path)!r}")


@pytest.mark.parametrize("seed", [2, 3, 4, 7, 9])
def test_passive_state_at_large_energy_scale(tmp_path, capsys, seed):
    # a passive state has zero ergotropy; at |E| ~ 1e7 and d = 16 roundoff
    # makes it ~ -1e-9, which must not read as an inconsistent report
    import numpy as np

    from ergokit.instances import matrix_to_json
    from ergokit.linalg import adjoint
    from ergokit.states import RandomSource, random_hamiltonian

    rng = RandomSource(seed)
    h = random_hamiltonian(16, rng)
    populations = np.sort(rng.sample(("simplex",), 16)[0])[::-1]
    rho = (h.eigenbasis * populations) @ adjoint(h.eigenbasis)
    doc = {"dimension": 16, "hamiltonian": matrix_to_json(1e7 * h.op), "state": matrix_to_json(rho)}
    code, out, err = run_cli(capsys, "report", write_instance(tmp_path, doc))
    assert code == 0, err
    assert abs(json.loads(out)["ergotropy"]) <= 1e-7


def test_inconsistent_report_exits_2(qubit_file, capsys, monkeypatch):
    from ergokit import ergotropy

    monkeypatch.setattr(ergotropy, "work", lambda *args: -0.25)  # every work quantity report computes
    code, out, err = run_cli(capsys, "report", qubit_file)
    assert code == 2
    assert out == ""
    assert "ergotropy is negative" in err


@pytest.mark.parametrize("fmt, first_nan", [("json", 0), ("csv", 0), ("json", 2), ("csv", 2)],
                         ids=["json", "csv", "json-last", "csv-last"])
def test_non_finite_sweep_row_exits_2_and_prints_nothing(qubit_file, capsys, monkeypatch, fmt, first_nan):
    # a result that reaches the writer non-finite is caught there, before any row is written: also when only the last
    # grid value's result is, since the text is written after the last row is checked
    from ergokit import cli

    real, calls = cli.work, iter(range(3))
    monkeypatch.setattr(cli, "work",
                        lambda *args: float("nan") if next(calls) >= first_nan else real(*args))
    code, out, err = run_cli(capsys, "sweep", qubit_file, "--family", "mix", "--grid", "0,0.5,1", "--format", fmt)
    assert (code, out) == (2, "")
    assert "not a finite number" in err


NEAR_MAX = [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]
PURE = [[1, 0], [0, 0]]
PURE_QUBIT = {"dimension": 2, "hamiltonian": [[0, 0], [0, 1]], "state": PURE}
# Each document and a fragment of the error it must raise
BOUNDARY_REJECTS = {
    "hamiltonian": ({"dimension": 2, "hamiltonian": NEAR_MAX, "state": [[0.5, 0.5], [0.5, 0.5]]}, "finite"),
    "state": ({**PURE_QUBIT, "state": NEAR_MAX}, "finite"),
    "povm_element": ({**PURE_QUBIT, "measurements": {"m": [NEAR_MAX, PURE]}}, "finite"),
    "post_processing": ({**PURE_QUBIT, "post_processing": {"p": NEAR_MAX}}, "outside [0, 1]"),
    "tiny_non_hermitian": ({**PURE_QUBIT, "hamiltonian": [[0, 1e-20], [0, 0]]}, "not Hermitian"),
    "second_povm_element": ({**PURE_QUBIT, "measurements": {"m": [PURE, NEAR_MAX]}}, "finite"),
    "non_hermitian_povm_element": ({**PURE_QUBIT, "measurements": {"m": [PURE, [[0, 0.5], [0, 1]]]}}, "not Hermitian"),
}


@pytest.mark.parametrize("command", [["report"], ["sweep", "--family", "mix", "--grid", "0,1"]], ids=["report", "sweep"])
@pytest.mark.parametrize("name", list(BOUNDARY_REJECTS))
def test_boundary_rejects_exit_2_under_runtime_warning_errors(tmp_path, capsys, name, command):
    # entries near the float maximum in any matrix field or POVM element, and an asymmetry far past roundoff at any
    # scale in a Hamiltonian or a POVM element, are rejected while loading: no overflow warning is raised on the way
    doc, fragment = BOUNDARY_REJECTS[name]
    assert fragment in usage_error(capsys, *command, write_instance(tmp_path, doc))


def large_scale_instance(seed, asymmetry=0.0):
    """d = 16 instance whose Hamiltonian 1e7 U diag(E) U^dag is written
    without symmetrising, plus ``asymmetry`` in one off-diagonal entry."""
    import numpy as np

    from ergokit.instances import matrix_to_json
    from ergokit.linalg import adjoint, max_abs
    from ergokit.states import RandomSource, haar_unitary, random_density

    rng = RandomSource(seed)
    u = haar_unitary(16, rng)
    h = (u * (1e7 * rng.sample(("levels",), 16)[0])) @ adjoint(u)
    assert max_abs(h - adjoint(h)) > 1e-10  # roundoff alone exceeds an absolute 1e-10
    h[0, 1] += asymmetry
    return {"dimension": 16, "hamiltonian": matrix_to_json(h), "state": matrix_to_json(random_density(16, 16, rng).op)}


def test_large_scale_hamiltonian_with_roundoff_asymmetry_loads(tmp_path, capsys):
    code, out, err = run_cli(capsys, "report", write_instance(tmp_path, large_scale_instance(0)))
    assert code == 0, err
    assert json.loads(out)["d"] == 16


def test_large_scale_non_hermitian_hamiltonian_is_rejected(tmp_path, capsys):
    code, out, err = run_cli(capsys, "report", write_instance(tmp_path, large_scale_instance(0, asymmetry=10.0)))
    assert code == 2
    assert out == ""
    assert "hamiltonian" in err and "not Hermitian" in err
