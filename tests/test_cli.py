import csv
import fcntl
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_oracles as oracle
from share_sense import AgentProfile, SharingProblem, assemble, solve_primal
from share_sense import cli
from share_sense.cli import main
from share_sense.serialize import (
    load_cargo_config,
    load_instance,
    problem_to_dict,
    solution_to_dict,
    write_epsilon_csv,
)

TOY_INSTANCE = {
    "p": 1,
    "n0": 1,
    "b": [3.0],
    "agents": [
        {"c": [-3.0], "d": [2.0], "A": [[1.0]]},
        {"c": [-1.0], "d": [2.0], "A": [[1.0]]},
    ],
}


@pytest.fixture
def toy_instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(TOY_INSTANCE))
    return path


class TestSerialize:
    def test_instance_roundtrip(self):
        prob = load_instance(TOY_INSTANCE)
        again = load_instance(problem_to_dict(prob))
        assert again.p == prob.p and again.n0 == prob.n0
        np.testing.assert_array_equal(again.b, prob.b)
        for a, b in zip(again.agents, prob.agents):
            np.testing.assert_array_equal(a.c, b.c)
            np.testing.assert_array_equal(a.d, b.d)
            np.testing.assert_array_equal(a.A, b.A)

    def test_infinite_limits_as_strings(self):
        data = dict(TOY_INSTANCE)
        data["agents"] = [{"c": [-1.0], "d": ["inf"], "A": [[1.0]]}]
        prob = load_instance(data)
        assert np.isinf(prob.agents[0].d[0])
        assert problem_to_dict(prob)["agents"][0]["d"] == ["inf"]

    def test_rejects_unknown_limit_string(self):
        data = dict(TOY_INSTANCE)
        data["agents"] = [{"c": [-1.0], "d": ["huge"], "A": [[1.0]]}]
        with pytest.raises(ValueError, match="upper-limit"):
            load_instance(data)

    def test_solution_dump_fields(self):
        prob = load_instance(TOY_INSTANCE)
        lp = assemble(prob)
        sol = solve_primal(lp)
        payload = solution_to_dict(sol)
        assert payload["objective"] == pytest.approx(-7.0)
        assert payload["basic"] == [2]
        assert payload["at_lower"] == [0] and payload["at_upper"] == [1]

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            load_cargo_config(
                {
                    "m": 4,
                    "W": 1.0,
                    "V": 1.0,
                    "demand": {"kind": "uniform", "d_min": 1.0, "d_max": 2.0},
                    "bogus": 1,
                }
            )

    @pytest.mark.parametrize(
        "drop, demand, match",
        [
            ("demand", None, "missing the 'demand'"),
            (None, {"kind": "gaussian", "mu": 250.0}, r"demand is missing \['sigma2'\]"),
            (None, {"kind": "uniform", "d_min": 1.0}, r"demand is missing \['d_max'\]"),
            (None, {"d_min": 1.0, "d_max": 2.0, "d_mean": 1.5}, r"unknown demand keys: \['d_mean'\]"),
            ("m", {"kind": "uniform", "d_min": 1.0, "d_max": 2.0}, r"config is missing \['m'\]"),
            ("W", {"kind": "uniform", "d_min": 1.0, "d_max": 2.0}, r"config is missing \['W'\]"),
            ("V", {"kind": "uniform", "d_min": 1.0, "d_max": 2.0}, r"config is missing \['V'\]"),
        ],
    )
    def test_config_names_a_missing_or_unknown_field(self, drop, demand, match):
        data = {"m": 4, "W": 1.0, "V": 1.0, "demand": demand}
        data.pop(drop, None)
        with pytest.raises(ValueError, match=match):
            load_cargo_config(data)

    @pytest.mark.parametrize("mu", [-60.0, 0.0])
    def test_config_rejects_nonpositive_gaussian_mean(self, mu):
        # far below 0 the truncating rejection loop would never finish
        demand = {"kind": "truncated_gaussian", "mu": mu, "sigma2": 1.0}
        with pytest.raises(ValueError, match="mu > 0"):
            load_cargo_config({"m": 4, "W": 1.0, "V": 1.0, "demand": demand})

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda data: data.pop("agents"), r"instance is missing \['agents'\]"),
            (lambda data: data.pop("b"), r"instance is missing \['b'\]"),
            (lambda data: data.update(typo=1), r"unknown instance keys: \['typo'\]"),
            (lambda data: data["agents"][1].pop("d"), r"agent 1 is missing \['d'\]"),
            (lambda data: data["agents"][0].update(typo=1), r"unknown agent 0 keys: \['typo'\]"),
        ],
        ids=["no-agents", "no-b", "top-level-typo", "agent-without-d", "agent-typo"],
    )
    def test_instance_names_a_missing_or_unknown_field(self, edit, match):
        data = json.loads(json.dumps(TOY_INSTANCE))
        edit(data)
        with pytest.raises(ValueError, match=match):
            load_instance(data)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (
                lambda data: data["agents"][1].update(c=-1.0),
                r"agent 1 field 'c' must be an array, got float",
            ),
            (
                lambda data: data["agents"][0].update(d=2.0),
                r"agent 0 field 'd' must be an array, got float",
            ),
            (
                lambda data: data.update(agents=5),
                r"instance field 'agents' must be an array, got int",
            ),
        ],
        ids=["scalar-c", "scalar-d", "scalar-agents"],
    )
    def test_instance_names_a_field_of_the_wrong_type(self, edit, match):
        data = json.loads(json.dumps(TOY_INSTANCE))
        edit(data)
        with pytest.raises(ValueError, match=match):
            load_instance(data)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"c": ["x"]}, r"agent 1: could not convert string to float: 'x'"),
            (
                {"c": [1.0, 2.0], "d": [1.0]},
                r"agent 1: inconsistent agent dimensions: n=2, c\(2,\), d\(1,\)",
            ),
            ({"A": [1.0]}, r"agent 1: A must be a matrix, got shape \(1,\)"),
        ],
        ids=["non-numeric-c", "short-d", "vector-A"],
    )
    def test_instance_names_the_agent_of_an_invalid_profile(self, fields, match):
        data = json.loads(json.dumps(TOY_INSTANCE))
        data["agents"][1].update(fields)
        with pytest.raises(ValueError, match=match):
            load_instance(data)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"p": [1]}, r"^p must be an integer, got \[1\]$"),
            ({"n0": 1e400}, r"^n0 must be an integer, got inf$"),
            # an integer field is refused, never cut to an integer
            ({"n0": 1.9}, r"^n0 must be an integer, got 1.9$"),
            ({"p": 2.5}, r"^p must be an integer, got 2.5$"),
            ({"p": 2.0}, r"^p must be an integer, got 2.0$"),
            ({"p": "2"}, r"^p must be an integer, got '2'$"),
            ({"p": True}, r"^p must be an integer, got True$"),
            ({"b": {"x": 1}}, r"instance: float\(\) argument must be"),
            ({"b": [10**400]}, r"instance: int too large to convert to float"),
        ],
        ids=[
            "list-p", "overflowing-n0", "fractional-n0", "fractional-p", "float-p", "string-p",
            "bool-p", "object-b", "overflowing-b",
        ],
    )
    def test_instance_scalar_of_the_wrong_type_is_an_input_error(self, fields, match):
        data = json.loads(json.dumps(TOY_INSTANCE))
        data.update(fields)
        with pytest.raises(ValueError, match=match):
            load_instance(data)

    def test_instance_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="instance must be an object, got list"):
            load_instance(path)
        with pytest.raises(ValueError, match="instance must be an object, got list"):
            load_instance([1, 2])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_instance_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        prob = oracle.random_sharing_problem(rng)
        again = load_instance(problem_to_dict(prob))
        lp_a, lp_b = assemble(prob), assemble(again)
        np.testing.assert_array_equal(lp_a.A, lp_b.A)
        np.testing.assert_array_equal(lp_a.d, lp_b.d)


    @pytest.mark.parametrize("m", [1, 10, 100, 250, 1000])
    def test_epsilon_csv_has_csv_writers_bytes(self, m, tmp_path):
        # the table is written in one piece; csv.writer over its rows is the reference
        table = oracle.cached_table(m, 1e-7)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["k", "t_low", "t_high", "eps_low", "eps_high", "eps_explicit"])
        for row in table.rows():
            writer.writerow([row[0]] + [repr(v) for v in row[1:]])
        want = want.getvalue().splitlines(keepends=True)  # a failure reports its first line
        stream = io.StringIO(newline="")
        write_epsilon_csv(table, stream)
        assert not stream.closed
        assert stream.getvalue().splitlines(keepends=True) == want
        write_epsilon_csv(table, tmp_path / "epsilon.csv")
        assert (tmp_path / "epsilon.csv").read_bytes().decode().splitlines(keepends=True) == want


class TestCliSolve:
    def test_solve_prints_solution(self, toy_instance_file, capsys):
        assert main(["solve", "--instance", str(toy_instance_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(-7.0)
        assert payload["x"] == pytest.approx([0.0, 2.0, 1.0])
        assert payload["dual"]["lambda"] == pytest.approx([1.0])

    def test_solve_writes_file(self, toy_instance_file, tmp_path):
        out = tmp_path / "solution.json"
        assert main(["solve", "--instance", str(toy_instance_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["objective"] == pytest.approx(-7.0)

    def test_missing_file_reports_json_error(self, capsys):
        code = main(["solve", "--instance", "/nonexistent/path.json"])
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_instance_without_agents_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 1, "n0": 1, "b": [3.0]}))
        assert main(["solve", "--instance", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "instance is missing ['agents']"}

    def test_fractional_n0_is_an_input_error(self, tmp_path, capsys):
        # cut to an integer, it would solve silently as the toy instance's n0=1
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(TOY_INSTANCE | {"n0": 1.9}))
        assert main(["solve", "--instance", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "n0 must be an integer, got 1.9"}

    def test_internal_fault_exits_3(self, toy_instance_file, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_solve", crash)
        assert main(["solve", "--instance", str(toy_instance_file)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "RuntimeError", "message": "boom"}

    def test_infeasible_instance_reports_error(self, tmp_path, capsys):
        bad = {
            "p": 1,
            "n0": 0,
            "b": [5.0],
            "agents": [{"c": [1.0], "d": [2.0], "A": [[1.0]]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["solve", "--instance", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InfeasibleProblem"


class TestCliSensitivity:
    def test_reports_interval(self, toy_instance_file, capsys):
        assert (
            main(["sensitivity", "--instance", str(toy_instance_file), "--beta", "0.1"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["s_star"] == 2
        assert payload["eps_high"] == 1.0
        assert 0.0 <= payload["eps_low"] <= 1.0


class TestCliBounds:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["bounds", "--m", "12", "--beta", "1e-4", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 13
        assert set(rows[0]) == {"k", "t_low", "t_high", "eps_low", "eps_high", "eps_explicit"}
        last = rows[-1]
        assert float(last["eps_high"]) == 1.0
        assert float(last["t_low"]) == 0.0

    def test_stdout_mode(self, capsys):
        assert main(["bounds", "--m", "3", "--beta", "0.01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,t_low,t_high,eps_low,eps_high,eps_explicit"
        assert len(lines) == 5

    def test_stdout_bytes_equal_file_bytes(self, tmp_path, capsysbinary):
        out = tmp_path / "table.csv"
        assert main(["bounds", "--m", "2", "--beta", "0.01", "--out", str(out)]) == 0
        assert main(["bounds", "--m", "2", "--beta", "0.01"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_reader_closing_stdout_early_is_not_an_error(self):
        """``share-sense bounds ... | head -n 1`` exits 0 with nothing on stderr."""
        read_fd, write_fd = os.pipe()
        # a one-page pipe holds a fifth of the 20 kB table, so the command is
        # still writing when the reader leaves after the first line
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "share_sense", "bounds", "--m", "200", "--beta", "1e-6"],
            stdout=write_fd,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as out:
            first = out.readline()
        _, err = proc.communicate(timeout=120)
        assert first == b"k,t_low,t_high,eps_low,eps_high,eps_explicit\r\n"
        assert (proc.returncode, err) == (0, b"")


class TestCliSimulate:
    def test_produces_artifacts(self, tmp_path, capsys):
        config = {
            "m": 6,
            "W": 500.0,
            "V": 0.3,
            "demand": {"kind": "uniform", "d_min": 40.0, "d_max": 160.0},
            "trials": 3,
            "arrivals": 40,
            "beta": 1e-4,
            "seed": 9,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0

        with open(out_dir / "trials.csv") as fh:
            trials = list(csv.DictReader(fh))
        assert len(trials) == 3
        with open(out_dir / "epsilon.csv") as fh:
            eps = list(csv.DictReader(fh))
        assert len(eps) == 7
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["summary"]["trials"] == 3
        assert summary["config"]["arrivals_resolved"] == 40
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary["summary"]

    def test_deterministic_csv_bytes(self, tmp_path, monkeypatch):
        config = {
            "m": 5,
            "W": 400.0,
            "V": 0.25,
            "demand": {"kind": "uniform", "d_min": 40.0, "d_max": 160.0},
            "trials": 3,
            "arrivals": 30,
            "beta": 1e-4,
            "seed": 17,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        monkeypatch.setenv("SHARE_SENSE_THREADS", "1")
        main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "a")])
        monkeypatch.setenv("SHARE_SENSE_THREADS", "3")
        main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trials.csv").read_bytes() == (
            tmp_path / "b" / "trials.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),  # would run as seed 1 and record 1.5
            ("seed", True),
            ("m", 100.5),
            ("m", 100.0),
            ("trials", 1.5),
            ("arrivals", 10.5),
            ("W", "2e4"),
            ("beta", None),
        ],
    )
    def test_mistyped_config_value_is_an_input_error(self, tmp_path, capsys, field, value):
        shipped = Path(__file__).resolve().parents[1] / "configs" / "cargo_m100_uniform.json"
        config = json.loads(shipped.read_text())
        config.update({"trials": 1, field: value})
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert (code, err["error"]) == (2, "ValueError")
        assert err["message"].startswith(f"{field} must be ")
        assert not (tmp_path / "out").exists()


class TestCampaignScript:
    def test_writes_simulate_summary_format(self, tmp_path, monkeypatch):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_cargo_campaign.py"
        out = tmp_path / "grid"
        monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out), "--trials", "0"])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        dirs = sorted(out.iterdir())
        assert len(dirs) == 12
        for d in dirs:
            assert sorted(p.name for p in d.iterdir()) == ["epsilon.csv", "summary.json", "trials.csv"]
            summary = json.loads((d / "summary.json").read_text())
            assert list(summary) == ["config", "summary", "all_covered"]
            assert summary["config"]["arrivals_resolved"] == 50 * summary["config"]["m"]
            assert summary["summary"]["trials"] == 0
