import io
import json
import re
from pathlib import Path

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

    def test_epsilon_one_past_double_range(self, tmp_path, capsys):
        # d = 2000 overflows the trace; eps = 1 still needs no functional
        cfg = {"problem": {"kind": "korobov_family",
                           "weights": {"kind": "constant", "g0": 0.5},
                           "smoothness": {"kind": "constant", "r0": 1.0}},
               "epsilons": [1.0], "dims": [2000]}
        path = write_config(tmp_path, cfg)
        assert main(["complexity", "--config", path, "--jobs", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[2]
        assert row == "2000,1.0,0,true,0,0,0,inf,0.0,ok"

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

    def test_declared_tail_makes_low_exponents_divergent(self, tmp_path, capsys):
        # the tail's mass may be split into arbitrarily many small values, so
        # no power sum below tau = 1 is bounded; the curse bound still holds
        cfg = {"problem": {"kind": "coordinates", "coordinates": [
            {"kind": "explicit", "values": [1.0], "tail": 1.0}]},
            "epsilons": [0.9], "dims": [1],
            "bounds": [{"name": "chebyshev"}, {"name": "curse"},
                       {"name": "jensen_lhs"}]}
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(row["bound"], row["status"]) for row in rows] == [
            ("chebyshev", "divergent"), ("curse", "ok"), ("jensen_lhs", "divergent")]
        assert rows[1]["value"] == pytest.approx(0.38)


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
        ({"name": "nosuch"},
         "unknown bound name 'nosuch'; expected one of ['chebyshev', 'curse', "
         "'entropy', 'jensen_lhs', 'jensen_lower', 'poltract_ratio', 'pt_log', "
         "'weak_theta']"),
        ({"name": "curse", "tau": 0.5}, "unknown curse bound fields: ['tau']"),
        ({"name": "chebyshev", "tau": "0.5"},
         "'tau' of chebyshev bound must be a finite number, got '0.5'"),
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
        assert captured.err == f"error: {path}: {message}\n"

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
        for raw, message in (("1.5", "must be an integer, got '1.5'"),
                             ("0", "must be at least 1, got '0'"),
                             ("-3", "must be at least 1, got '-3'")):
            monkeypatch.setenv("TRACTLAB_BUDGET_NMAX", raw)
            code = main(["complexity", "--config", path, "--jobs", "1"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == f"error: TRACTLAB_BUDGET_NMAX {message}\n"

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.txt")
        code = main(["verify", "--instances", "1", "--out", out])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: {out}: cannot write output: No such file or directory\n")

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_verify_needs_an_instance(self, capsys, instances):
        # a batch of no instances would pass every check without running one
        code = main(["verify", "--instances", instances])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: verify needs at least 1 instance, got {instances}\n")

    def test_out_opens_after_the_config_loads(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        path = write_config(tmp_path, BASIC)
        code = main(["complexity", "--config", path, "--jobs", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: {out}: cannot write output: No such file or directory\n")
        # a config that fails to load, or that classify cannot take, leaves
        # no output file behind
        out = tmp_path / "x.csv"
        for argv in (["complexity", "--config", str(tmp_path / "missing.json")],
                     ["classify", "--config", path]):
            code = main(argv + ["--out", str(out)])
            assert code == 1 and not out.exists()
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["complexity", "sweep"])
    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys, command):
        # d = 2 runs first; the error comes at d = 400.  The run creates no
        # file, and leaves an existing one byte-identical
        path = write_config(tmp_path, {**self.UNDERFLOW, "dims": [2, 400]})
        out = tmp_path / "x.csv"
        argv = [command, "--config", path, "--jobs", "1", "--out", str(out)]
        assert main(argv) == 1 and not out.exists()
        out.write_bytes(b"earlier output\n")
        assert main(argv) == 1 and out.read_bytes() == b"earlier output\n"
        assert capsys.readouterr().err == (
            "error: coordinate k=324: weight g_k underflows to 0.0\n" * 2)

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

    # g_k = 10^-k is a valid weight that double range cannot hold past k = 323
    UNDERFLOW = {**FAMILY, "dims": [400], "problem": {
        "kind": "korobov_family", "smoothness": {"kind": "power", "c": 1, "s": 1},
        "weights": {"kind": "geometric_in_r", "v": 0.1,
                    "smoothness": {"kind": "power", "c": 1, "s": 1}}}}

    @pytest.mark.parametrize("command", ["complexity", "bounds", "sweep"])
    def test_underflowing_weight_names_its_coordinate(self, tmp_path, capsys,
                                                      command):
        path = write_config(tmp_path, self.UNDERFLOW)
        code = main([command, "--config", path, "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: coordinate k=324: weight g_k underflows to 0.0\n")

    @pytest.mark.parametrize("extra, message", [
        ({"budgets": {"n_max": "abc"}},
         "'n_max' must be an integer of at least 1, got 'abc'"),
        ({"budgets": {"n_max": 1.5}},
         "'n_max' must be an integer of at least 1, got 1.5"),
        ({"horizon": "ten"},
         "'horizon' must be an integer of at least 10, got 'ten'"),
        # the engine sets its own tolerance; tol_rel is no longer a config
        # field, so any value is now rejected
        ({"budgets": {"tol_rel": "abc"}}, "unknown budget fields: ['tol_rel']"),
        ({"budgets": {"tol_rel": "1e-3"}}, "unknown budget fields: ['tol_rel']"),
        ({"budgets": {"tol_rel": True}}, "unknown budget fields: ['tol_rel']"),
        ({"budgets": {"tol_rel": 1.5}}, "unknown budget fields: ['tol_rel']"),
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


def _coordinate(spectrum):
    return {"problem": {"kind": "coordinates", "coordinates": [spectrum]}}


def _family(**descriptors):
    return {"problem": {**FAMILY["problem"], **descriptors}}


class TestMalformedConfig:
    """A malformed config fails at load: one error line, no grid point run."""

    @pytest.mark.parametrize("extra, message", [
        (_coordinate({"kind": "korobov", "g": "abc", "r": 1}),
         "'g' of korobov spectrum must be a finite number, got 'abc'"),
        (_coordinate({"kind": "korobov", "r": 1}),
         "missing korobov spectrum fields: ['g']"),
        (_coordinate({"kind": "explicit", "values": [1, "x"]}),
         "'values' of explicit spectrum must be a list of finite numbers, "
         "got [1, 'x']"),
        (_coordinate({"kind": "explicit", "values": 5}),
         "'values' of explicit spectrum must be a list of finite numbers, got 5"),
        (_family(weights={"kind": "power", "rho": "2"}),
         "'rho' of power weights must be a finite number, got '2'"),
        (_family(weights={"kind": "explicit", "values": "abc"}),
         "'values' of explicit weights must be a list of finite numbers, "
         "got 'abc'"),
        (_family(smoothness={"kind": "logarithmic", "a": "x", "b": 1}),
         "'a' of logarithmic smoothness must be a finite number, got 'x'"),
        ({"problem": {"kind": "uniform_block", "M": "x"}},
         "'M' of uniform_block problem must be a finite number, got 'x'"),
        ({**FAMILY, "bounds": [{"name": "nope"}]},
         "unknown bound name 'nope'; expected one of ['chebyshev', 'curse', "
         "'entropy', 'jensen_lhs', 'jensen_lower', 'poltract_ratio', 'pt_log', "
         "'weak_theta']"),
        # the paper's assumptions on the families, checked at every listed k
        (_family(weights={"kind": "explicit", "values": [0.5, 0.9]}),
         "weights must be non-increasing; g_2 = 0.9 > g_1 = 0.5"),
        (_family(weights={"kind": "explicit", "values": [2.0, 1.5]}),
         "weight g_1 = 2.0 outside (0, 1]"),
        (_family(smoothness={"kind": "explicit", "values": [0.8, 0.4]}),
         "smoothness r_2 = 0.4 must exceed 1/2"),
        (_family(weights={"kind": "explicit",
                          "values": [0.5] * 1050 + [0.6] * 50}),
         "weights must be non-increasing; g_1051 = 0.6 > g_1050 = 0.5"),
        (_family(weights={"kind": "explicit", "values": [0.5],
                          "asymptote": {"rho_g": "abc"}}),
         "'rho_g' of asymptote must be a finite number or \"inf\", got 'abc'"),
        (_family(weights={"kind": "explicit", "values": [0.5],
                          "asymptote": {"g_to_zero": "no"}}),
         "'g_to_zero' of asymptote must be a boolean, got 'no'"),
        (_family(weights={"kind": "explicit", "values": [0.5],
                          "asymptote": {"rho_g": 2, "oops": True}}),
         "unknown asymptote fields: ['oops']"),
        (_coordinate({"kind": "explicit", "values": [1, 0], "tail": 0.5}),
         "a declared tail cannot follow a zero eigenvalue"),
        # bound parameters outside the range their bound accepts
        ({**FAMILY, "bounds": [{"name": "weak_theta", "tau": 1}]},
         "tau must be in (0, 1), got 1.0"),
        ({**FAMILY, "bounds": [{"name": "chebyshev", "z": 0}]},
         "z must be positive, got 0.0"),
        ({**FAMILY, "bounds": [{"name": "jensen_lhs", "gamma": 1}]},
         "gamma must be in [0, 1), got 1.0"),
        ({**FAMILY, "bounds": [{"name": "jensen_lower", "gamma": -0.5}]},
         "gamma must be non-negative, got -0.5"),
        ({**FAMILY, "bounds": [{"name": "poltract_ratio", "q": -1}]},
         "q must be non-negative, got -1.0"),
        ({**FAMILY, "bounds": [{"name": "pt_log", "tau": 0}]},
         "tau must be in (0, 1), got 0.0"),
    ], ids=["korobov_text", "korobov_missing", "explicit_text_value",
            "explicit_number", "weights_text", "weights_text_values",
            "smoothness_text", "uniform_block_text", "unknown_bound",
            "weights_rising", "weights_above_one", "smoothness_low",
            "weights_rising_late", "asymptote_text", "asymptote_not_boolean",
            "asymptote_unknown", "tail_after_zero", "bound_tau_range",
            "bound_z_range", "bound_gamma_below_one", "bound_gamma_negative",
            "bound_q_range", "bound_tau_zero"])
    def test_fails_at_load(self, tmp_path, capsys, monkeypatch, extra, message):
        import tractlab.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "info_complexity",
                            lambda *args, **kwargs: calls.append(args))
        cfg = {**BASIC, **extra}
        with pytest.raises(ValidationError):
            config_from_dict(cfg)
        path = write_config(tmp_path, cfg)
        for command in ("complexity", "bounds", "sweep", "classify"):
            code = main([command, "--config", path, "--jobs", "1"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == "" and calls == []
            assert captured.err == f"error: {path}: {message}\n"


class TestReadmeExamples:
    """The config examples in README.md run as written."""

    @staticmethod
    def examples():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### Config examples", 1)[1].split("\n## ", 1)[0]
        return [json.loads(block) for block in
                re.findall(r"```json\n(.*?)```", section, flags=re.S)]

    def test_examples_run(self, tmp_path, capsys):
        examples = self.examples()
        assert len(examples) == 2
        for i, example in enumerate(examples):
            path = write_config(tmp_path, example, name=f"example{i}.json")
            for command in ("complexity", "bounds", "sweep"):
                assert main([command, "--config", path, "--jobs", "1"]) == 0
        assert main(["classify", "--config", path, "--jobs", "1"]) == 0
        assert "# spt    yes" in capsys.readouterr().out


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

    def test_timings_go_to_stderr_alone(self, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        timed = tmp_path / "timed.txt"
        assert main(["verify", "--seed", "3", "--instances", "5",
                     "--out", str(plain)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["verify", "--seed", "3", "--instances", "5",
                     "--out", str(timed), "--timings"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and timed.read_bytes() == plain.read_bytes()
        # stdout is unchanged too, and one line per check names it
        assert main(["verify", "--seed", "3", "--instances", "5", "--timings"]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == plain.read_bytes()
        checks = [line.split("  ", 1)[1].split(":")[0]
                  for line in captured.out.splitlines()[1:-1]]
        timings = [line.split(" ") for line in captured.err.splitlines()]
        assert [name for name, _seconds in timings] == checks
        assert all(float(seconds) >= 0.0 for _name, seconds in timings)

    def test_over_budget_points_are_counted_apart(self, capsys):
        # two of seed 2's points have answers beyond the default n budget
        code = main(["verify", "--seed", "2", "--instances", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert ("PASS  oracle_equivalence: 28/30 points certified, "
                "2 over the n budget,") in out
