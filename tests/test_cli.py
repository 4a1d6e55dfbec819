"""Command line behavior: outputs, reproducibility, exit codes."""

import json
import re
import subprocess
import sys
import textwrap

import pytest

from switchtaylor import (
    GridSpec,
    build_scheme_sets,
    cli,
    errors,
    fixture,
    integrate,
    sets_as_dict,
    write_trajectory_csv,
)
from switchtaylor.convergence import draw_path
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

    def test_json_bytes_and_key_order(self, tmp_path, capsys):
        # a literal, so a change to sets_as_dict cannot move the file unseen
        want = {
            "gamma": 1.0,
            "mu": 2,
            "m": 1,
            "drift": [[]],
            "diffusion": [[], ["1"], ["N1"]],
            "drift_jump": [],
            "diffusion_jump": [["N1"]],
            "drift_remainder": [["0"], ["1"], ["N1"], ["N2"], ["Nb2"]],
            "diffusion_remainder": [
                ["0"], ["N2"], ["Nb2"], ["0", "1"], ["0", "N1"],
                ["1", "1"], ["1", "N1"], ["N1", "1"], ["N2", "1"], ["Nb2", "1"],
            ],
        }
        assert run(["sets", "--gamma", "1.0", "--m", "1", "--out", str(tmp_path)]) == 0
        got = (tmp_path / "sets_1.0.json").read_bytes()
        assert got == (json.dumps(want, indent=2) + "\n").encode()

    def test_unsupported_order_fails_validation(self, capsys):
        assert run(["sets", "--gamma", "0.7", "--m", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [2**40, 2**70])
    def test_a_wiener_dimension_beyond_the_letter_bound_fails_validation(self, m, capsys):
        # refused before any letter is built: 2**70 is no count, and 2**40
        # letters pass the bound of 2**20 on an index set
        assert run(["sets", "--gamma", "0.5", "--m", str(m)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_trajectory_is_draw_path_of_seed_and_zero(self, tmp_path):
        # base_cfg: linear2, seed 3, first scheme euler, first level 4 on [0, 1]
        assert run(["simulate", "--config", base_cfg(tmp_path)]) == 0
        model, grid = fixture("linear2"), GridSpec(0.0, 1.0, 4)
        chain, noise = draw_path(model, grid, 3, 0)
        want = integrate(model, "euler", chain, noise, grid.finest_times())
        write_trajectory_csv(want, str(tmp_path / "want.csv"))
        got = (tmp_path / "out" / "trajectory.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()

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

    def test_chain_with_no_exits_reports_zero_rates(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "chain.cfg",
            """
            generator = [[0.0, 0.0], [0.0, 0.0]]
            t_end = 1.0
            paths = 10
            seed = 9
            """,
        )
        assert run(["chain-stats", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert " qmax=0\n" in out and out.count(" bound=0 ") == 2 and "-0" not in out
        assert "martingale: no transitions available, skipped" in out

    def test_generator_the_chain_refuses_names_the_key(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "chain.cfg",
            """
            generator = [[-1.0, 2.0], [1.0, -1.0]]
            t_end = 1.0
            paths = 10
            seed = 9
            """,
        )
        assert run(["chain-stats", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: generator: row sums must vanish")

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
            levels = [4, 8, 16]
            reference = 256
            paths = 4
            seed = 1
            output = %s
            """
            % (tmp_path / "nc"),
        )
        assert run(["convergence", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: scheme: model 'noncommutative' breaks")
        assert not any((tmp_path / "nc").iterdir())


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

    def test_too_few_levels_for_an_order_fit_name_the_key(self, tmp_path, capsys):
        text = (
            base_cfg(tmp_path)
            and (tmp_path / "run.cfg").read_text().replace("[4, 8, 16]", "[8, 16]")
        )
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        assert run(["convergence", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "error: levels: order fit needs at least 3 levels, got 2\n"
        assert not any((tmp_path / "out").iterdir())

    def test_scheme_the_model_refuses_names_the_key(self, tmp_path, capsys):
        text = (
            base_cfg(tmp_path)
            and (tmp_path / "run.cfg")
            .read_text()
            .replace("model = linear2", "model = noncommutative")
            .replace("scheme = [euler, milstein, taylor15]", "scheme = milstein")
        )
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        assert run(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: scheme: model 'noncommutative' breaks")
        assert not any((tmp_path / "out").iterdir())

    def test_a_model_neither_named_nor_inline_names_the_first_inline_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "r.cfg", "t_end = 1.0\nscheme = euler\nlevels = [8]\nseed = 1\n")
        assert run(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: drift_rates: missing required key (set 'model' or the")

    def test_levels_too_coarse_for_the_chain_name_the_key(self, tmp_path, capsys):
        # linear2 has qmax = 1, so a step of 0.5 does not resolve its chain
        text = (
            base_cfg(tmp_path)
            and (tmp_path / "run.cfg").read_text().replace("[4, 8, 16]", "[2, 8, 16]")
        )
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        assert run(["convergence", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: levels: h = 0.5")

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


INLINE_KEYS = ("drift_rates", "diffusion_rates", "generator", "x0", "initial_regime")
INLINE_CFG = """
drift_rates = [0.5, -0.25]
diffusion_rates = [0.3, 0.6]
generator = [[-1.0, 1.0], [1.0, -1.0]]
x0 = [1.5]
initial_regime = 2
"""
FIXTURE_CFG = """
model = linear2
"""
STUDY_CFG = """
t_end = 1.0
scheme = [euler, milstein]
levels = [4, 8]
reference = 256
paths = 4
seed = 3
output = %s
"""

# an integer of 401 digits, which no float holds
BIG = "1" + "0" * 400
# counts above 2**53, which a float does not hold exactly: a power of two
# for the step counts, 10**30 for the path count
HUGE_STEPS = str(2**100)

# every key the command line reads, with bad values of each kind: a bool
# (the parser reads True as a name), a name, a float where an integer is
# due, an empty array, a step count that is not a power of two, NaN, inf or
# an integer too large for a float where a finite number is due, a count
# above 2**53, and the wrong shape
BAD_VALUES = {
    "model": ["True", "3", "[]", "[linear2]"],
    "drift_rates": [
        "[0.5, True]",
        "[0.5, x]",
        "[]",
        "[0.5, nan]",
        "0.5",
        "[0.5]",
        "[0.5, %s]" % BIG,
    ],
    "diffusion_rates": [
        "[0.3, True]",
        "[]",
        "[0.3, nan]",
        "[0.3, inf]",
        "[[0.3], [0.6]]",
        "[0.3, %s]" % BIG,
    ],
    "generator": [
        "True",
        "[]",
        "[[-1.0, 1.0], [1.0, nan]]",
        "[[-1.0, 1.0], [1.0, x]]",
        "[[-1.0, 1.0], [1.0]]",
        "[-1.0, 1.0]",
        "[[-1.0, 1.0], [%s, -1.0]]" % BIG,
    ],
    "x0": ["True", "[]", "[nan]", "[x]", "1.5", "[1.5, 1.5]", "[%s]" % BIG],
    "initial_regime": ["True", "x", "1.0", "[]", "3", "0"],
    "t_end": ["True", "x", "[]", "nan", "inf", "0", "-1.0", BIG],
    "scheme": ["True", "heun", "3", "[]", "[euler, 3]"],
    "levels": ["True", "[4, x]", "[4.0, 8]", "[]", "[4, 12]", "8", "[4, %s]" % HUGE_STEPS],
    "reference": ["True", "256.0", "[]", "300", "nan", HUGE_STEPS],
    "paths": ["True", "2.5", "[]", "0", "nan", str(10**30)],
    "seed": ["True", "1.5", "[]", "nan", "-1", "18446744073709551616"],
    "output": ["3", "1.5", "[]", "nan"],
}
BAD_CASES = [(key, value) for key, values in BAD_VALUES.items() for value in values]


@pytest.mark.parametrize("key, value", BAD_CASES, ids=["%s=%s" % case for case in BAD_CASES])
def test_bad_value_is_reported_under_its_key(key, value, tmp_path, capsys):
    # a valid study, inline or by fixture, with ``key`` set to the bad value
    model = INLINE_CFG if key in INLINE_KEYS else FIXTURE_CFG
    lines = [
        line
        for line in (model + STUDY_CFG % (tmp_path / "out")).splitlines()
        if line and not line.startswith(key + " ")
    ]
    cfg = write_cfg(tmp_path / "bad.cfg", "\n".join(lines + ["%s = %s" % (key, value)]))
    assert run(["convergence", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: %s:" % key)


@pytest.mark.parametrize("model", [FIXTURE_CFG, INLINE_CFG], ids=["fixture", "inline"])
def test_chain_stats_reads_the_chain_of_a_model(model, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "chain.cfg", model + "t_end = 1.0\npaths = 10\nseed = 9\n")
    assert run(["chain-stats", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert " qmax=1\n" in out and "martingale[1->2] " in out


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
    "WorkerLost",
}


def test_every_error_class_has_a_pinned_exit_code():
    found = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.SwitchTaylorError)
    }
    assert found == VALIDATION_ERRORS | RUNTIME_ERRORS


# the library errors the command line meets for one config key only, which
# it reports under that key wherever they arise
KEY_OF = {
    "InvalidGenerator": "generator",
    "UnknownFixture": "model",
    "UnknownScheme": "scheme",
    "CommutativityRequired": "scheme",
    "ReferenceNotFiner": "reference",
    "StepTooLargeForChain": "levels",
    "InsufficientLevels": "levels",
}


@pytest.mark.parametrize("name", sorted(VALIDATION_ERRORS | RUNTIME_ERRORS))
def test_error_class_exit_code(name, monkeypatch, capsys):
    def fail(args):
        raise getattr(errors, name)("planted failure")

    monkeypatch.setattr(cli, "_cmd_sets", fail)
    status = run(["sets", "--gamma", "1.0", "--m", "1"])
    assert status == (1 if name in VALIDATION_ERRORS else 2)
    key = "%s: " % KEY_OF[name] if name in KEY_OF else ""
    assert capsys.readouterr().err == "error: %splanted failure\n" % key


# the command line under a 2 GB address-space cap; a count of 2**53 asks for
# 64 PiB, so it fails at once, where a moderate count could run for hours
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))
from switchtaylor import cli
sys.exit(cli.run(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "command, key, status, err",
    [
        ("convergence", "reference", 1, "error: the interval count %d does not fit" % 2**53),
        ("chain-stats", "paths", 2, "error: out of memory: "),
    ],
    ids=["convergence-reference", "chain-stats-paths"],
)
def test_a_count_too_large_for_memory_is_a_package_error(command, key, status, err, tmp_path):
    with open(base_cfg(tmp_path)) as handle:
        lines = [line for line in handle.read().splitlines() if not line.startswith(key + " ")]
    cfg = write_cfg(tmp_path / "huge.cfg", "\n".join(lines + ["%s = %d" % (key, 2**53)]))
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED, command, "--config", cfg],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == status and proc.stdout == ""
    assert proc.stderr.startswith(err)


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
