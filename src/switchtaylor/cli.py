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
failure, running out of memory included.  Validation messages name the
offending config key; a library error the command line meets for one key
only takes it from ``_KEY_OF``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ._files import opened
from ._values import is_count, is_int, number
from .config import load_config
from .convergence import ExperimentPlan, draw_path, run as run_study
from .errors import (
    CommutativityRequired,
    ConfigError,
    InsufficientLevels,
    InvalidGenerator,
    ReferenceNotFiner,
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

# the config key of each library error that the command line meets for one
# key only; run writes it before the error's message
_KEY_OF = {
    InvalidGenerator: "generator",
    UnknownFixture: "model",
    UnknownScheme: "scheme",
    CommutativityRequired: "scheme",
    ReferenceNotFiner: "reference",
    StepTooLargeForChain: "levels",
    InsufficientLevels: "levels",
}


def _value(cfg: dict, key: str, ok, what: str):
    """The value at ``key`` if ``ok`` accepts it; ``what`` names such values."""
    if key not in cfg:
        raise ConfigError("%s: missing required key" % key)
    value = cfg[key]
    if not ok(value):
        raise ConfigError("%s: expected %s, got %r" % (key, what, value))
    return value


def _array(cfg: dict, key: str, ok, what: str) -> tuple:
    """The non-empty array at ``key`` if ``ok`` accepts every entry."""

    def every(v):
        return isinstance(v, list) and v and all(map(ok, v))

    return tuple(_value(cfg, key, every, "a non-empty array of %s" % what))


# entry rules; the parser yields int, float, str and list, never bool
def _is_finite(v) -> bool:
    return math.isfinite(number(v))


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_steps(v) -> bool:
    return is_count(v, dyadic=True)


def _as_levels(cfg: dict) -> tuple:
    return _array(cfg, "levels", _is_steps, "power-of-two step counts up to 2**53")


def _as_schemes(cfg: dict) -> tuple:
    if _is_str(cfg.get("scheme")):
        return (cfg["scheme"],)
    return _array(cfg, "scheme", _is_str, "scheme names")


def _effective_seed(cfg: dict) -> int:
    env = os.environ.get("SWITCHTAYLOR_SEED")
    if env is not None:
        try:
            cfg = {"seed": int(env, 10)}
        except ValueError:
            raise ConfigError("seed: SWITCHTAYLOR_SEED must be an integer, got %r" % env)
    return _value(
        cfg, "seed", lambda v: is_int(v) and 0 <= v < 2**64, "an unsigned 64-bit integer"
    )


def _positive_t_end(cfg: dict) -> float:
    return float(
        _value(cfg, "t_end", lambda v: _is_finite(v) and v > 0, "a positive finite horizon")
    )


def _positive_paths(cfg: dict) -> int:
    return _value(cfg, "paths", is_count, "a path count from 1 to 2**53")


def _inline_generator(cfg: dict) -> GeneratorMatrix:
    rows = _array(
        cfg,
        "generator",
        lambda row: isinstance(row, list) and all(map(_is_finite, row)),
        "rows of finite numbers",
    )
    return GeneratorMatrix(rows)


def _initial_regime(cfg: dict, m0: int) -> int:
    return _value(
        {"initial_regime": 1, **cfg},
        "initial_regime",
        lambda v: is_int(v) and 1 <= v <= m0,
        "a regime in 1..%d" % m0,
    )


def _model_from_config(cfg: dict) -> ModelSpec:
    if "model" in cfg:
        return fixture(_value(cfg, "model", _is_str, "a fixture name"))
    for key in _INLINE_KEYS:
        if key not in cfg:
            raise ConfigError(
                "%s: missing required key (set 'model' or the inline coefficients)" % key
            )
    rates = [_array(cfg, key, _is_finite, "finite numbers") for key in _INLINE_KEYS[:2]]
    generator = _inline_generator(cfg)
    for key, values in zip(_INLINE_KEYS[:2], rates):
        if len(values) != generator.m0:
            raise ConfigError(
                "%s: need one rate per regime (%d), got %d" % (key, generator.m0, len(values))
            )
    x0 = _value(
        cfg,
        "x0",
        lambda v: isinstance(v, list) and len(v) == 1 and _is_finite(v[0]),
        "an array of one finite number (inline models are scalar)",
    )
    return ModelSpec(
        name="inline",
        generator=generator,
        coefficients=DiagonalLinearCoefficients(*([[r] for r in row] for row in rates)),
        x0=x0,
        initial_regime=_initial_regime(cfg, generator.m0),
    )


def _output_dir(cfg: dict) -> str:
    out = _value({"output": ".", **cfg}, "output", _is_str, "a directory path")
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
        with opened(path, "w") as handle:
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

    grid = GridSpec(0.0, t_end, levels[0])
    chain, noise = draw_path(model, grid, seed, 0)
    trajectory = integrate(model, schemes[0], chain, noise, grid.finest_times())
    path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(trajectory, path)
    print("wrote %s" % path)
    return 0


def _cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    model = _model_from_config(cfg)
    schemes = _as_schemes(cfg)
    seed = _effective_seed(cfg)
    out = _output_dir(cfg)
    plan = ExperimentPlan(
        model=model,
        schemes=schemes,
        t_end=_positive_t_end(cfg),
        coarse_steps=_as_levels(cfg),
        reference_steps=_value(
            cfg, "reference", _is_steps, "a power-of-two step count up to 2**53"
        ),
        paths=_positive_paths(cfg),
        seed=seed,
    )
    reports = run_study(plan)
    for name in plan.schemes:
        report = reports[name]
        csv_path = os.path.join(out, "convergence_%s.csv" % name)
        with opened(csv_path, "w") as handle:
            handle.write("h,mean_error,stderr\n")
            for row in report.rows:
                handle.write(
                    "%.17g,%.17g,%.17g\n" % (row.h, row.mean_error, row.stderr)
                )
        dat_path = os.path.join(out, "loglog_%s.dat" % name)
        with opened(dat_path, "w") as handle:
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
        key = _KEY_OF.get(type(exc))
        print("error: %s%s" % ("" if key is None else key + ": ", exc), file=sys.stderr)
        return 1
    except (SwitchTaylorError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
