"""Command line behavior: outputs, reproducibility, exit codes."""

import json
import re
import subprocess
import sys
import textwrap

import pytest

from switchtaylor import build_scheme_sets, cli, errors, sets_as_dict
from switchtaylor.cli import run


@pytest.fixture(autouse=True)
def isolated_seed_env(monkeypatch):
    monkeypatch.delenv("SWITCHTAYLOR_SEED", raising=False)


def write_cfg(path, text) -> str:
    path.write_text(textwrap.dedent(text))
    return str(path)


def base_cfg(tmp_path, outdir="out", extra=""):
    return write_cfg(
        tmp_path / "run.cfg",
        """
        model = linear2
        t_end = 1.0
        scheme = [euler, milstein, taylor15]
        levels = [4, 8, 16]
        reference = 256
        paths = 24
        seed = 3
        output = %s
        %s
        """
        % (tmp_path / outdir, extra),
    )


class TestSets:
    def test_prints_the_order_one_sets(self, capsys):
        assert run(["sets", "--gamma", "1.0", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "A^b = {nu}" in out
        assert "A^sigma = {nu, (1), (2), (N1)}" in out
        assert "A~^sigma = {(N1)}" in out

    def test_exports_json(self, tmp_path, capsys):
        assert run(["sets", "--gamma", "1.0", "--m", "2", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "sets_1.0.json").read_text())
        assert payload == sets_as_dict(build_scheme_sets(1.0, 2))

    def test_unsupported_order_fails_validation(self, capsys):
        assert run(["sets", "--gamma", "0.7", "--m", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_writes_trajectory(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path)
        assert run(["simulate", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,y1,regime"
        assert len(lines) == 1 + 5  # header + levels[0] + 1 grid points
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert first[2] == "1"
        assert float(lines[-1].split(",")[0]) == 1.0

    def test_zero_coefficient_model_yields_constant_column(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "zero.cfg",
            """
            drift_rates = [0.0, 0.0]
            diffusion_rates = [0.0, 0.0]
            generator = [[-1.0, 1.0], [1.0, -1.0]]
            x0 = [1.0]
            t_end = 1.0
            scheme = euler
            levels = [8]
            seed = 11
            output = %s
            """
            % (tmp_path / "zout"),
        )
        assert run(["simulate", "--config", cfg]) == 0
        rows = (tmp_path / "zout" / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == 9
        assert all(float(row.split(",")[1]) == 1.0 for row in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = base_cfg(tmp_path, outdir="a")
        assert run(["simulate", "--config", cfg_a]) == 0
        first = (tmp_path / "a" / "trajectory.csv").read_bytes()
        assert run(["simulate", "--config", cfg_a]) == 0
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == first

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = base_cfg(tmp_path)
        assert run(["simulate", "--config", cfg]) == 0
        baseline = (tmp_path / "out" / "trajectory.csv").read_bytes()
        monkeypatch.setenv("SWITCHTAYLOR_SEED", "3")
        assert run(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "out" / "trajectory.csv").read_bytes() == baseline
        monkeypatch.setenv("SWITCHTAYLOR_SEED", "12345")
        assert run(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "out" / "trajectory.csv").read_bytes() != baseline

    def test_bad_env_seed_is_a_validation_error(self, tmp_path, monkeypatch, capsys):
        cfg = base_cfg(tmp_path)
        monkeypatch.setenv("SWITCHTAYLOR_SEED", "not-a-number")
        assert run(["simulate", "--config", cfg]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_numeric_blowup_is_a_runtime_failure(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "blow.cfg",
            """
            drift_rates = [1e300, 1e300]
            diffusion_rates = [0.0, 0.0]
            generator = [[-1.0, 1.0], [1.0, -1.0]]
            x0 = [1.0]
            t_end = 1.0
            scheme = euler
            levels = [16]
            seed = 1
            output = %s
            """
            % (tmp_path / "b"),
        )
        assert run(["simulate", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err


class TestChainStats:
    def test_reports_bounds_and_martingale(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "chain.cfg",
            """
            generator = [[-1.0, 1.0], [1.0, -1.0]]
            t_end = 1.0
            paths = 2000
            seed = 9
            """,
        )
        assert run(["chain-stats", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "P(N>=1)=" in out and "P(N>=2)=" in out
        assert "martingale[1->2]" in out
        assert "violated" not in out

    def test_window_must_fit_the_horizon(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "chain.cfg",
            """
            generator = [[-1.0, 1.0], [1.0, -1.0]]
            t_end = 1.0
            paths = 10
            seed = 9
            """,
        )
        assert run(["chain-stats", "--config", cfg, "--window", "2.0"]) == 1
        assert "window" in capsys.readouterr().err


class TestConvergence:
    def test_full_study_outputs(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path)
        assert run(["convergence", "--config", cfg]) == 0
        out = capsys.readouterr().out
        summaries = re.findall(r"^scheme=(\w+) gamma_hat=(\S+) r2=(\S+)$", out, re.M)
        assert [name for name, _, _ in summaries] == ["euler", "milstein", "taylor15"]
        for _, gamma, r2 in summaries:
            float(gamma), float(r2)
        for name in ("euler", "milstein", "taylor15"):
            csv_lines = (tmp_path / "out" / ("convergence_%s.csv" % name)).read_text().splitlines()
            assert csv_lines[0] == "h,mean_error,stderr"
            assert len(csv_lines) == 4
            hs = [float(line.split(",")[0]) for line in csv_lines[1:]]
            assert hs == sorted(hs, reverse=True)
            dat_lines = (tmp_path / "out" / ("loglog_%s.dat" % name)).read_text().splitlines()
            assert dat_lines[0].startswith("#")
            assert len(dat_lines) == 4

    def test_outputs_are_byte_reproducible_across_runs(self, tmp_path):
        cfg_a = base_cfg(tmp_path, outdir="a")
        cfg_b = write_cfg(
            tmp_path / "runb.cfg",
            (tmp_path / "run.cfg").read_text().replace(str(tmp_path / "a"), str(tmp_path / "b")),
        )
        assert run(["convergence", "--config", cfg_a]) == 0
        assert run(["convergence", "--config", cfg_b]) == 0
        for name in ("convergence_euler.csv", "convergence_taylor15.csv", "loglog_milstein.dat"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_noncommuting_model_fails_validation(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "nc.cfg",
            """
            model = noncommutative
            t_end = 1.0
            scheme = milstein
            levels = [16]
            reference = 256
            paths = 4
            seed = 1
            output = %s
            """
            % (tmp_path / "nc"),
        )
        assert run(["convergence", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err


class TestValidationExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "config" in capsys.readouterr().err

    def test_missing_seed_names_the_key(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "r.cfg",
            """
            model = linear2
            t_end = 1.0
            scheme = euler
            levels = [8]
            """,
        )
        assert run(["simulate", "--config", cfg]) == 1
        assert "seed" in capsys.readouterr().err

    def test_unknown_scheme_names_the_key(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path, extra="")
        text = (tmp_path / "run.cfg").read_text().replace(
            "scheme = [euler, milstein, taylor15]", "scheme = heun"
        )
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        assert run(["simulate", "--config", cfg]) == 1
        assert "scheme" in capsys.readouterr().err

    def test_non_dyadic_levels_name_the_key(self, tmp_path, capsys):
        text = (
            base_cfg(tmp_path)
            and (tmp_path / "run.cfg").read_text().replace("[4, 8, 16]", "[4, 12, 16]")
        )
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        assert run(["simulate", "--config", cfg]) == 1
        assert "levels" in capsys.readouterr().err

    def test_reference_too_coarse_names_the_key(self, tmp_path, capsys):
        text = (
            base_cfg(tmp_path)
            and (tmp_path / "run.cfg").read_text().replace("reference = 256", "reference = 64")
        )
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        assert run(["convergence", "--config", cfg]) == 1
        assert "reference" in capsys.readouterr().err

    def test_unknown_fixture_names_the_model_key(self, tmp_path, capsys):
        text = (
            base_cfg(tmp_path)
            and (tmp_path / "run.cfg").read_text().replace("model = linear2", "model = cubic9")
        )
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        assert run(["simulate", "--config", cfg]) == 1
        assert "model" in capsys.readouterr().err

    def test_help_exits_clean_and_bad_usage_fails(self, capsys):
        assert run(["--help"]) == 0
        assert run([]) == 1
        assert run(["frobnicate"]) == 1
        capsys.readouterr()


# every package error, split by the exit status the command line gives it:
# 1 when the input was wrong, 2 when a run on valid input failed
VALIDATION_ERRORS = {
    "ValidationError",
    "ConfigError",
    "CommutativityRequired",
    "ConsecutiveJumpComponents",
    "DimensionMismatch",
    "EmptyIndex",
    "InsufficientLevels",
    "IntervalOutOfRange",
    "InvalidCoefficients",
    "InvalidComponent",
    "InvalidGamma",
    "InvalidGenerator",
    "InvalidGrid",
    "InvalidJetOrder",
    "InvalidSeed",
    "NonFiniteInput",
    "NotAGridTime",
    "ReferenceNotFiner",
    "SameStatePair",
    "StateOutOfRange",
    "StepTooLargeForChain",
    "UnknownFixture",
    "UnknownRegime",
    "UnknownScheme",
}
RUNTIME_ERRORS = {
    "SwitchTaylorError",
    "CouplingMismatch",
    "NonFiniteState",
    "NonPositiveError",
    "TruncatedNoiseFile",
}


def test_every_error_class_has_a_pinned_exit_code():
    found = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.SwitchTaylorError)
    }
    assert found == VALIDATION_ERRORS | RUNTIME_ERRORS


@pytest.mark.parametrize("name", sorted(VALIDATION_ERRORS | RUNTIME_ERRORS))
def test_error_class_exit_code(name, monkeypatch, capsys):
    def fail(args):
        raise getattr(errors, name)("planted failure")

    monkeypatch.setattr(cli, "_cmd_sets", fail)
    status = run(["sets", "--gamma", "1.0", "--m", "1"])
    assert status == (1 if name in VALIDATION_ERRORS else 2)
    assert "error: planted failure" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "switchtaylor.cli", "sets", "--gamma", "0.5", "--m", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "A^b = {nu}" in proc.stdout
