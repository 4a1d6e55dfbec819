"""Command line front end.

Four subcommands drive the library:

- ``sets``: print (and optionally export) the kept/remainder index sets for
  a given order and Wiener dimension.
- ``chain-stats``: sample chain paths and report the short-window jump
  probability bounds and the pair-counting martingale mean.
- ``simulate``: integrate one trajectory of a configured model and write it
  as CSV.
- ``convergence``: run a coarse-versus-reference strong error study and
  write per-scheme CSV and log-log plot data plus a summary line.

Configuration lives in flat key-value files (see the config module).  The
same file drives every subcommand; each one reads the keys it needs.  A
model is chosen either by name (``model = linear2``) or inline through
``drift_rates``, ``diffusion_rates``, ``generator`` and ``x0``, which build
the d = 1 diagonal linear set with one rate pair per regime.

All randomness derives from the single ``seed`` key (64-bit unsigned); the
environment variable SWITCHTAYLOR_SEED overrides it without editing the
file.  Re-running a config reproduces every output file byte for byte.

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
failure.  Validation messages name the offending config key.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import load_config
from .convergence import ExperimentPlan, _is_dyadic, draw_path, run as run_study
from .errors import (
    ConfigError,
    InvalidGrid,
    ReferenceNotFiner,
    StateOutOfRange,
    StepTooLargeForChain,
    SwitchTaylorError,
    UnknownFixture,
    UnknownScheme,
    ValidationError,
)
from .fixtures import DiagonalLinearCoefficients, fixture
from .markov_chain import GeneratorMatrix, count_jumps, pair_jump_martingale, sample_path
from .model import ModelSpec
from .multi_index import build_scheme_sets, canonical_order, render_index, sets_as_dict
from .noise import GridSpec
from .schemes import integrate, write_trajectory_csv

__all__ = ["run", "main"]

_INLINE_KEYS = ("drift_rates", "diffusion_rates", "generator", "x0")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError("%s: missing required key" % key)
    return cfg[key]


def _as_int(cfg: dict, key: str) -> int:
    value = _require(cfg, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s: expected an integer, got %r" % (key, value))
    return value


def _as_float(cfg: dict, key: str) -> float:
    value = _require(cfg, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s: expected a number, got %r" % (key, value))
    return float(value)


def _as_str(cfg: dict, key: str) -> str:
    value = _require(cfg, key)
    if not isinstance(value, str):
        raise ConfigError("%s: expected a name, got %r" % (key, value))
    return value


def _as_float_list(cfg: dict, key: str) -> tuple:
    value = _require(cfg, key)
    if not isinstance(value, list) or not value:
        raise ConfigError("%s: expected a non-empty array" % key)
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError("%s: expected numbers, got %r" % (key, item))
        out.append(float(item))
    return tuple(out)


def _as_matrix(cfg: dict, key: str) -> list:
    value = _require(cfg, key)
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ConfigError("%s: expected an array of rows" % key)
    rows = []
    for row in value:
        cleaned = []
        for item in row:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError("%s: rows must contain numbers, got %r" % (key, item))
            cleaned.append(float(item))
        rows.append(cleaned)
    return rows


def _as_levels(cfg: dict, key: str = "levels") -> tuple:
    value = _require(cfg, key)
    if not isinstance(value, list) or not value:
        raise ConfigError("%s: expected a non-empty array of step counts" % key)
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ConfigError("%s: expected integers, got %r" % (key, item))
        if not _is_dyadic(item):
            raise ConfigError("%s: step counts must be powers of two, got %d" % (key, item))
        out.append(item)
    return tuple(out)


def _as_schemes(cfg: dict) -> tuple:
    value = _require(cfg, "scheme")
    names = value if isinstance(value, list) else [value]
    if not names:
        raise ConfigError("scheme: expected one or more scheme names")
    for name in names:
        if not isinstance(name, str):
            raise ConfigError("scheme: expected scheme names, got %r" % (name,))
    return tuple(names)


def _effective_seed(cfg: dict) -> int:
    env = os.environ.get("SWITCHTAYLOR_SEED")
    if env is not None:
        try:
            seed = int(env, 10)
        except ValueError:
            raise ConfigError("seed: SWITCHTAYLOR_SEED must be an integer, got %r" % env)
    else:
        seed = _as_int(cfg, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed: must be an unsigned 64-bit value, got %d" % seed)
    return seed


def _positive_t_end(cfg: dict) -> float:
    t_end = _as_float(cfg, "t_end")
    if not math.isfinite(t_end) or t_end <= 0:
        raise ConfigError("t_end: must be a positive finite horizon, got %r" % t_end)
    return t_end


def _positive_paths(cfg: dict) -> int:
    paths = _as_int(cfg, "paths")
    if paths < 1:
        raise ConfigError("paths: must be at least 1, got %d" % paths)
    return paths


def _inline_generator(cfg: dict) -> GeneratorMatrix:
    rows = _as_matrix(cfg, "generator")
    try:
        return GeneratorMatrix(np.asarray(rows, dtype=float))
    except SwitchTaylorError as exc:
        raise ConfigError("generator: %s" % exc)


def _initial_regime(cfg: dict, m0: int) -> int:
    if "initial_regime" not in cfg:
        return 1
    value = _as_int(cfg, "initial_regime")
    if not 1 <= value <= m0:
        raise ConfigError("initial_regime: must lie in 1..%d, got %d" % (m0, value))
    return value


def _model_from_config(cfg: dict) -> ModelSpec:
    if "model" in cfg:
        try:
            return fixture(_as_str(cfg, "model"))
        except UnknownFixture as exc:
            raise ConfigError("model: %s" % exc)
    for key in _INLINE_KEYS:
        if key not in cfg:
            raise ConfigError(
                "%s: missing required key (set 'model' or the inline coefficients)" % key
            )
    drift = _as_float_list(cfg, "drift_rates")
    diffusion = _as_float_list(cfg, "diffusion_rates")
    generator = _inline_generator(cfg)
    if len(drift) != generator.m0:
        raise ConfigError(
            "drift_rates: need one rate per regime (%d), got %d" % (generator.m0, len(drift))
        )
    if len(diffusion) != generator.m0:
        raise ConfigError(
            "diffusion_rates: need one rate per regime (%d), got %d"
            % (generator.m0, len(diffusion))
        )
    x0 = _as_float_list(cfg, "x0")
    if len(x0) != 1:
        raise ConfigError("x0: inline models are scalar, expected one entry, got %d" % len(x0))
    try:
        return ModelSpec(
            name="inline",
            generator=generator,
            coefficients=DiagonalLinearCoefficients(*np.array([drift, diffusion])[:, :, None]),
            x0=list(x0),
            initial_regime=_initial_regime(cfg, generator.m0),
        )
    except StateOutOfRange as exc:
        raise ConfigError("initial_regime: %s" % exc)
    except SwitchTaylorError as exc:
        raise ConfigError("x0: %s" % exc)


def _output_dir(cfg: dict) -> str:
    out = cfg.get("output", ".")
    if not isinstance(out, str):
        raise ConfigError("output: expected a directory path, got %r" % (out,))
    os.makedirs(out, exist_ok=True)
    return out


def _format_set(indices) -> str:
    return "{%s}" % ", ".join(render_index(ix) for ix in canonical_order(indices))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sets(args) -> int:
    sets = build_scheme_sets(args.gamma, args.m)
    print("gamma=%g m=%d mu=%d" % (sets.gamma, sets.m, sets.mu))
    print("A^b = %s" % _format_set(sets.drift))
    print("A^sigma = %s" % _format_set(sets.diffusion))
    print("A~^b = %s" % _format_set(sets.drift_jump))
    print("A~^sigma = %s" % _format_set(sets.diffusion_jump))
    print("B(A^b) = %s" % _format_set(sets.drift_remainder))
    print("B(A^sigma) = %s" % _format_set(sets.diffusion_remainder))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sets_%.1f.json" % sets.gamma)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(sets_as_dict(sets), handle, indent=2)
            handle.write("\n")
        print("wrote %s" % path)
    return 0


def _first_transition_pair(generator: GeneratorMatrix):
    for i0 in range(1, generator.m0 + 1):
        for k0 in range(1, generator.m0 + 1):
            if k0 != i0 and generator.rate(i0, k0) > 0:
                return i0, k0
    return None


def _cmd_chain_stats(args) -> int:
    cfg = load_config(args.config)
    if "model" in cfg or any(key in cfg for key in _INLINE_KEYS[:2]):
        model = _model_from_config(cfg)
        generator, initial = model.generator, model.initial_regime
    else:
        generator = _inline_generator(cfg)
        initial = _initial_regime(cfg, generator.m0)
    t_end = _positive_t_end(cfg)
    paths = _positive_paths(cfg)
    seed = _effective_seed(cfg)
    window = args.window
    if not 0 < window <= t_end:
        raise ConfigError("window: must lie in (0, t_end], got %r" % window)

    pair = _first_transition_pair(generator)
    rng = np.random.default_rng(seed)
    at_least_one = 0
    at_least_two = 0
    martingale = np.zeros(paths)
    for p in range(paths):
        chain = sample_path(generator, initial, 0.0, t_end, rng)
        jumps = count_jumps(chain, 0.0, window)
        at_least_one += jumps >= 1
        at_least_two += jumps >= 2
        if pair is not None:
            martingale[p] = pair_jump_martingale(generator, chain, pair[0], pair[1], 0.0, t_end)

    qmax = generator.qmax
    print("paths=%d t_end=%.17g window=%.17g qmax=%.17g" % (paths, t_end, window, qmax))
    for label, hits, power in (("P(N>=1)", at_least_one, 1), ("P(N>=2)", at_least_two, 2)):
        phat = hits / paths
        stderr = math.sqrt(max(phat * (1.0 - phat), 0.0) / paths)
        bound = (qmax * window) ** power
        verdict = "ok" if phat <= bound + 3.0 * stderr else "violated"
        print(
            "%s=%.17g bound=%.17g margin=%.17g %s" % (label, phat, bound, 3.0 * stderr, verdict)
        )
    if pair is None:
        print("martingale: no transitions available, skipped")
    else:
        mean = float(martingale.mean())
        stderr = float(martingale.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
        verdict = "ok" if abs(mean) <= 3.0 * stderr or stderr == 0.0 else "violated"
        print(
            "martingale[%d->%d] mean=%.17g stderr=%.17g %s"
            % (pair[0], pair[1], mean, stderr, verdict)
        )
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    model = _model_from_config(cfg)
    t_end = _positive_t_end(cfg)
    schemes = _as_schemes(cfg)
    levels = _as_levels(cfg)
    seed = _effective_seed(cfg)
    out = _output_dir(cfg)

    try:
        grid = GridSpec(0.0, t_end, levels[0])
    except InvalidGrid as exc:
        raise ConfigError("levels: %s" % exc)
    chain, noise = draw_path(model, grid, seed, 0)
    try:
        trajectory = integrate(model, schemes[0], chain, noise, grid.finest_times())
    except UnknownScheme as exc:
        raise ConfigError("scheme: %s" % exc)
    path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(trajectory, path)
    print("wrote %s" % path)
    return 0


def _build_plan(cfg: dict, model: ModelSpec, schemes, seed: int) -> ExperimentPlan:
    try:
        return ExperimentPlan(
            model=model,
            schemes=schemes,
            t_end=_positive_t_end(cfg),
            coarse_steps=_as_levels(cfg),
            reference_steps=_as_int(cfg, "reference"),
            paths=_positive_paths(cfg),
            seed=seed,
        )
    except UnknownScheme as exc:
        raise ConfigError("scheme: %s" % exc)
    except ReferenceNotFiner as exc:
        raise ConfigError("reference: %s" % exc)
    except (InvalidGrid, StepTooLargeForChain) as exc:
        raise ConfigError("levels: %s" % exc)


def _cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    model = _model_from_config(cfg)
    schemes = _as_schemes(cfg)
    seed = _effective_seed(cfg)
    out = _output_dir(cfg)
    plan = _build_plan(cfg, model, schemes, seed)

    reports = run_study(plan)

    for name in plan.schemes:
        report = reports[name]
        csv_path = os.path.join(out, "convergence_%s.csv" % name)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("h,mean_error,stderr\n")
            for row in report.rows:
                handle.write(
                    "%.17g,%.17g,%.17g\n" % (row.h, row.mean_error, row.stderr)
                )
        dat_path = os.path.join(out, "loglog_%s.dat" % name)
        with open(dat_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("# h root_mean_sup_square_error\n")
            for row in report.rows:
                handle.write("%.17g %.17g\n" % (row.h, math.sqrt(row.mean_error)))
        print("scheme=%s gamma_hat=%.17g r2=%.17g" % (name, report.gamma_hat, report.r2))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchtaylor",
        description="Strong Taylor schemes for SDEs with Markovian regime switching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sets = sub.add_parser("sets", help="print the kept/remainder index sets")
    p_sets.add_argument("--gamma", type=float, required=True, help="strong order")
    p_sets.add_argument("--m", type=int, required=True, help="Wiener dimension")
    p_sets.add_argument("--out", default=None, help="directory for sets_<gamma>.json")
    p_sets.set_defaults(func=_cmd_sets)

    p_stats = sub.add_parser("chain-stats", help="sample chains and check jump statistics")
    p_stats.add_argument("--config", required=True, help="run configuration file")
    p_stats.add_argument(
        "--window", type=float, default=0.01, help="short window for the jump bound"
    )
    p_stats.set_defaults(func=_cmd_chain_stats)

    p_sim = sub.add_parser("simulate", help="integrate one trajectory and write CSV")
    p_sim.add_argument("--config", required=True, help="run configuration file")
    p_sim.set_defaults(func=_cmd_simulate)

    p_conv = sub.add_parser("convergence", help="run a strong order study")
    p_conv.add_argument("--config", required=True, help="run configuration file")
    p_conv.set_defaults(func=_cmd_convergence)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SwitchTaylorError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
