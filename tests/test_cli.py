import io
import json

import pytest

from tractlab.cli import main
from tractlab.config import config_from_dict, load_config
from tractlab.errors import ValidationError


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASIC = {
    "problem": {
        "kind": "coordinates",
        "coordinates": [
            {"kind": "explicit", "values": [1.0, 0.5]},
            {"kind": "explicit", "values": [1.0, 0.5]},
        ],
    },
    "epsilons": [0.6, 0.3],
    "dims": [1, 2],
}

FAMILY = {
    "problem": {
        "kind": "korobov_family",
        "weights": {"kind": "power", "rho": 3.0},
        "smoothness": {"kind": "constant", "r0": 1.0},
    },
    "epsilons": [0.5],
    "dims": [1, 2, 3],
}


class TestConfig:
    def test_unknown_top_level_field_rejected(self, tmp_path):
        bad = dict(BASIC)
        bad["mystery"] = 1
        with pytest.raises(ValidationError):
            load_config(write_config(tmp_path, bad))

    def test_unknown_problem_field_rejected(self):
        bad = json.loads(json.dumps(BASIC))
        bad["problem"]["extra"] = True
        with pytest.raises(ValidationError):
            config_from_dict(bad)

    def test_epsilon_range_enforced(self):
        bad = json.loads(json.dumps(BASIC))
        bad["epsilons"] = [1.5]
        with pytest.raises(ValidationError):
            config_from_dict(bad)

    def test_dims_must_be_positive_integers(self):
        bad = json.loads(json.dumps(BASIC))
        bad["dims"] = [0]
        with pytest.raises(ValidationError):
            config_from_dict(bad)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": }')
        with pytest.raises(ValidationError) as exc_info:
            load_config(str(path))
        assert "line" in str(exc_info.value)

    def test_budget_override(self):
        cfg = config_from_dict({**BASIC, "budgets": {"n_max": 1234}})
        assert cfg.budget.n_max == 1234

    def test_coordinates_bound_the_dimension(self):
        cfg = config_from_dict(BASIC)
        with pytest.raises(ValidationError):
            cfg.build_problem(3)


class TestComplexityCommand:
    def test_csv_schema_and_values(self, tmp_path, capsys):
        path = write_config(tmp_path, BASIC)
        code = main(["complexity", "--config", path, "--jobs", "1"])
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "#schema=1"
        assert lines[1].startswith("d,epsilon,n,")
        # d-major, epsilon-minor ordering
        keys = [tuple(line.split(",")[:2]) for line in lines[2:]]
        assert keys == [
            ("1", "0.6"), ("1", "0.3"), ("2", "0.6"), ("2", "0.3"),
        ]
        # the 2-coordinate point at eps=0.6 needs the top two eigenvalues
        row = dict(zip(lines[1].split(","), lines[-2].split(",")))
        assert row["n"] == "2"
        assert row["certified"] == "true"

    def test_json_output(self, tmp_path, capsys):
        path = write_config(tmp_path, BASIC)
        code = main(["complexity", "--config", path, "--jobs", "1",
                     "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(rows) == 4
        assert all(row["status"] == "ok" for row in rows)

    def test_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        hard = {
            "problem": {
                "kind": "coordinates",
                "coordinates": [{"kind": "korobov", "g": 0.9, "r": 0.65}] * 3,
            },
            "epsilons": [0.1],
            "dims": [3],
        }
        path = write_config(tmp_path, hard)
        monkeypatch.setenv("TRACTLAB_BUDGET_NMAX", "5000")
        code = main(["complexity", "--config", path, "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 3
        assert ",budget" in out

    def test_deterministic_output(self, tmp_path):
        path = write_config(tmp_path, BASIC)
        outs = []
        for name in ("a.csv", "b.csv"):
            target = tmp_path / name
            assert main(["complexity", "--config", path, "--jobs", "1",
                         "--out", str(target)]) == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_matches_serial(self, tmp_path):
        path = write_config(tmp_path, FAMILY)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["complexity", "--config", path, "--jobs", "1",
                     "--out", str(serial)]) == 0
        assert main(["complexity", "--config", path, "--jobs", "3",
                     "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestBoundsCommand:
    def test_bounds_rows(self, tmp_path, capsys):
        cfg = {**FAMILY, "bounds": [
            {"name": "chebyshev", "tau": 0.9, "z": 0.9},
            {"name": "curse"},
        ]}
        path = write_config(tmp_path, cfg)
        code = main(["bounds", "--config", path, "--jobs", "1"])
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[1] == "d,epsilon,bound,value,status"
        assert len(lines) == 2 + 3 * 1 * 2  # dims x epsilons x bounds


class TestSweepCommand:
    def test_bound_columns_join_complexity(self, tmp_path, capsys):
        cfg = {**FAMILY, "bounds": [{"name": "curse"}]}
        path = write_config(tmp_path, cfg)
        code = main(["sweep", "--config", path, "--jobs", "1"])
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        header = lines[1].split(",")
        assert header[-1] == "curse"
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["curse"]) <= float(row["n"]) + 1e-9


class TestBoundRequests:
    """Bound requests are checked before any grid point runs."""

    @pytest.mark.parametrize("request_, message", [
        ({"name": "nosuch"}, "unknown bound name 'nosuch'"),
        ({"name": "curse", "tau": 0.5},
         "unknown parameters for bound 'curse': ['tau']"),
        ({"name": "chebyshev", "tau": "0.5"},
         "parameter 'tau' of bound 'chebyshev' must be a number, got '0.5'"),
    ], ids=["name", "parameter", "value"])
    def test_sweep_fails_before_the_grid(self, tmp_path, capsys, monkeypatch,
                                         request_, message):
        import tractlab.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "info_complexity",
                            lambda *args, **kwargs: calls.append(args))
        cfg = {**FAMILY, "bounds": [{"name": "curse"}, request_]}
        path = write_config(tmp_path, cfg)
        code = main(["sweep", "--config", path, "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and calls == []
        assert captured.err == f"error: {message}\n"

    def test_parameters_and_defaults(self, tmp_path, capsys):
        # z defaults to tau, and an integer parameter reads as its float
        cfg = {**FAMILY, "dims": [2], "bounds": [
            {"name": "chebyshev"},
            {"name": "chebyshev", "tau": 0.9, "z": 0.9},
            {"name": "chebyshev", "tau": 0.8},
            {"name": "chebyshev", "tau": 0.8, "z": 0.8},
            {"name": "poltract_ratio", "q": 1},
            {"name": "poltract_ratio", "q": 1.0},
        ]}
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--format", "json"]) == 0
        values = [row["value"] for row in json.loads(capsys.readouterr().out)]
        assert values[0] == values[1] != values[2] == values[3]
        assert values[4] == values[5]


class TestClassifyCommand:
    def test_json_report(self, tmp_path, capsys):
        path = write_config(tmp_path, FAMILY)
        code = main(["classify", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out[: out.index("\n# ")])
        assert record["spt"] == "yes"
        assert record["exponent"] == 2.0

    def test_requires_family_problem(self, tmp_path, capsys):
        path = write_config(tmp_path, BASIC)
        code = main(["classify", "--config", path])
        assert code == 1
        assert "korobov_family" in capsys.readouterr().err


class TestBadInput:
    """Bad input exits 1 with a one-line message, never a traceback."""

    def test_non_integer_budget_variable(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, BASIC)
        monkeypatch.setenv("TRACTLAB_BUDGET_NMAX", "1.5")
        code = main(["complexity", "--config", path, "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: TRACTLAB_BUDGET_NMAX must be an integer, got '1.5'\n")

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code = main(["complexity", "--config", missing, "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {missing}: cannot read config")

    def test_boolean_epsilon_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASIC, "epsilons": [True]})
        code = main(["complexity", "--config", path, "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "epsilon values must be in (0, 1], got True" in captured.err

    @pytest.mark.parametrize("extra, message", [
        ({"budgets": {"n_max": "abc"}},
         "'n_max' must be an integer of at least 1, got 'abc'"),
        ({"budgets": {"n_max": 1.5}},
         "'n_max' must be an integer of at least 1, got 1.5"),
        ({"horizon": "ten"},
         "'horizon' must be an integer of at least 10, got 'ten'"),
        ({"budgets": {"tol_rel": "abc"}},
         "'tol_rel' must be a number in (0, 1), got 'abc'"),
        ({"budgets": {"tol_rel": "1e-3"}},
         "'tol_rel' must be a number in (0, 1), got '1e-3'"),
        ({"budgets": {"tol_rel": True}},
         "'tol_rel' must be a number in (0, 1), got True"),
        ({"budgets": {"tol_rel": 1.5}},
         "'tol_rel' must be a number in (0, 1), got 1.5"),
        # the top-level delta was never read; any value is now rejected
        ({"delta": "abc"}, "unknown config fields: ['delta']"),
        ({"delta": float("nan")}, "unknown config fields: ['delta']"),
        ({"delta": 0}, "unknown config fields: ['delta']"),
        ({"delta": 0.5}, "unknown config fields: ['delta']"),
        ({"classify": {}}, "unknown config fields: ['classify']"),
    ], ids=["n_max_text", "n_max_fraction", "horizon_text", "tol_rel_text",
            "tol_rel_numeric_text", "tol_rel_bool", "tol_rel_range",
            "delta_text", "delta_nan", "delta_zero", "delta_valid",
            "classify_field"])
    def test_non_integer_config_counts(self, tmp_path, capsys, extra, message):
        path = write_config(tmp_path, {**BASIC, **extra})
        with pytest.raises(ValidationError):
            config_from_dict({**BASIC, **extra})
        code = main(["complexity", "--config", path, "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"


class TestVerifyCommand:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        reports = []
        for name in ("r1.txt", "r2.txt"):
            target = tmp_path / name
            code = main(["verify", "--seed", "3", "--instances", "5",
                         "--out", str(target)])
            assert code == 0
            reports.append(target.read_bytes())
        assert reports[0] == reports[1]
        assert b"9/9 checks passed" in reports[0]

    def test_over_budget_points_are_counted_apart(self, capsys):
        # two of seed 2's points have answers beyond the default n budget
        code = main(["verify", "--seed", "2", "--instances", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert ("PASS  oracle_equivalence: 28/30 points certified, "
                "2 over the n budget,") in out
