"""Committed bit-identity check: one sha256 per output of a fixed set.

Every item below is a byte string built from the package's public entry
points on fixed seeds; ``bit_identity.json`` next to this file stores the
sha256 of each, with the numpy version and the platform that made them.
While the random stream is unchanged, a refactor or speed-up must leave
every digest as it is; the test names each item that moved.  Digests are
only comparable on the numpy version and platform that wrote them, so on
another one the test fails and says so instead of comparing.

A change that moves outputs on purpose regenerates the file in the same
commit, so its diff shows exactly which items moved:

    PYTHONPATH=src python tests/test_bit_identity.py --write
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import platform
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np

from switchtaylor import cli, fixture, fixture_names, integrate
from switchtaylor.convergence import ExperimentPlan, draw_path, run, strong_error
from switchtaylor.errors import NonFiniteState
from switchtaylor.noise import GridSpec
from switchtaylor.schemes import SCHEMES, JumpRecords, jump_records

GOLDEN = Path(__file__).with_name("bit_identity.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCHEME_NAMES = ("euler", "milstein", "taylor15")
# a scheme reference on a short grid
SCHEME_REFERENCE = dict(t_end=1.0, coarse_steps=(4, 8, 16), reference_steps=256)


def _encode(value) -> bytes:
    """Canonical bytes of a result: floats by their hex form, arrays by
    dtype, shape and raw bytes, dataclasses field by field."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = [type(value).__name__.encode()]
        parts += [
            f.name.encode() + b"=" + _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        ]
        return b"(" + b",".join(parts) + b")"
    if isinstance(value, dict):
        return b"{" + b",".join(_encode(k) + b":" + _encode(value[k]) for k in sorted(value)) + b"}"
    if isinstance(value, (tuple, list)):
        return b"[" + b",".join(_encode(v) for v in value) + b"]"
    if isinstance(value, np.ndarray):
        return b"%s%s:%s" % (value.dtype.str.encode(), str(value.shape).encode(), value.tobytes())
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    if isinstance(value, bytes):
        return value
    return repr(value).encode()


def _report(reports) -> bytes:
    # the runtime is a wall time, the one field that may differ between runs
    return _encode({k: dataclasses.replace(r, runtime=0.0) for k, r in reports.items()})


def _perfbench_workloads():
    # perfbench's modules import each other by their bare names
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))


def _study_items():
    # the two desk workloads of the benchmark double as the run reports of
    # the closed-form fixtures: 1024 paths, two batches
    import switchtaylor as st

    workloads = _perfbench_workloads()
    for name in ("desk-linear2", "desk-diagonal3", "trajectory-diagonal3"):
        workload = workloads[name]
        result = workload.run(st, workload.prepare(st, 5), 1)
        if name.startswith("desk"):
            yield "run.%s" % workload.fixture, _report(result)
        yield "perfbench.%s" % name, workload.digest(result)

    # two 512-path batches, so the tree sum merges
    plan = ExperimentPlan(
        model=fixture("additive"), schemes=SCHEME_NAMES, paths=600, seed=7, **SCHEME_REFERENCE
    )
    yield "run.additive", _report(run(plan))
    plan = dataclasses.replace(plan, paths=520)
    for scheme in ("euler", "taylor15"):
        yield "strong_error.additive.%s" % scheme, _encode(strong_error(plan, 256, scheme))

    # explicit Euler leaves the finite range on the x^2 diffusion column
    plan = ExperimentPlan(
        model=fixture("noncommutative"), schemes=("euler",), paths=64, seed=1, **SCHEME_REFERENCE
    )
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            run(plan)
        text = b"no error"
    except NonFiniteState as exc:
        text = _encode((str(exc), exc.step, exc.row))
    yield "nonfinite.noncommutative", text


def _trajectory_items():
    grid = GridSpec(0.0, 1.0, 512)
    for name in fixture_names():
        model = fixture(name)
        schemes = ("euler",) if name == "noncommutative" else SCHEME_NAMES
        for seed in (0, 1):
            chain, noise = draw_path(model, grid, seed, 0)
            for scheme in schemes:
                traj = integrate(model, scheme, chain, noise, grid.finest_times())
                yield "integrate.%s.%s.seed%d" % (name, scheme, seed), _encode(traj)


# seed-5 paths on the desk grid: 1 has no switch on either generator, 7
# one on diagonal3's and 17 one on the two-state one, 16 three on the
# two-state one, and 2778 holds four in one window of the coarsest level
PATH_INDICES = (1, 7, 16, 17, 2778)
DESK_LEVELS = (8, 16, 32, 64, 1024)


def _per_path_items():
    # the per-path layer of a desk study: the draw, and the switch records
    # at every coarse level and at the reference level
    grid = GridSpec(0.0, 1.0, DESK_LEVELS[-1])
    ref_times = grid.finest_times()
    for name in fixture_names():
        model = fixture(name)
        for index in PATH_INDICES:
            chain, noise = draw_path(model, grid, 5, index)
            key = "%s.i%d" % (name, index)
            yield "draw_path." + key, _encode((chain, noise.times, noise.dw, noise.dz))
            records = [jump_records(chain, noise, ref_times[:: grid.n // L]) for L in DESK_LEVELS]
            yield "jump_records." + key, _encode(records)


def _planted_records(h, m, m0, rng):
    # rows 0, 1, 2 of a width-4 batch switch once, twice and three times;
    # row 3 does not switch
    counts = np.array([1, 2, 3])
    dt1 = h * np.array([0.2, 0.1, 0.15])
    dt2 = np.array([0.0, 0.6, 0.4]) * h
    w = np.sqrt(h) * rng.standard_normal((3, 3, m))
    return JumpRecords(
        rows=np.arange(3, dtype=np.intp),
        counts=counts.astype(np.int64),
        dt1=dt1,
        reg1=np.array([2, 2, 1], dtype=np.int64),
        w1=w[0],
        dt2=dt2,
        reg2=np.array([2, 1, 2], dtype=np.int64) % m0 + 1,
        w2=np.where((counts >= 2)[:, None], w[1], 0.0),
        w3=np.where((counts >= 3)[:, None], w[2], 0.0),
    )


def _kernel_items():
    h = 1.0 / 64
    for name in fixture_names():
        model = fixture(name)
        rng = np.random.default_rng(11)
        y = model.x0 * (1.0 + 0.1 * rng.standard_normal((4, model.d)))
        regimes = np.array([1, 1, 2, 1], dtype=np.int64)
        g = rng.standard_normal((2, 4, model.m))
        dw = np.sqrt(h) * g[0]
        dz = h**1.5 * (0.5 * g[0] + (0.5 / np.sqrt(3.0)) * g[1])
        jumps = _planted_records(h, model.m, model.m0, rng)
        for scheme in SCHEME_NAMES:
            with np.errstate(all="ignore"):
                out = SCHEMES[scheme].kernel(model.coefficients, y, regimes, h, dw, dz, jumps)
            yield "kernel.%s.%s.switches123" % (name, scheme), _encode(out)


_CONFIGS = {
    "convergence": """
        model = diagonal3
        t_end = 1.0
        scheme = [euler, milstein, taylor15]
        levels = [8, 16, 32]
        reference = 512
        paths = 40
        seed = 3
        """,
    "simulate": """
        model = additive
        t_end = 1.0
        scheme = taylor15
        levels = [1024]
        seed = 9
        """,
    "simulate-inline": """
        drift_rates = [-1.0, 0.5]
        diffusion_rates = [0.3, 0.8]
        generator = [[-2.0, 2.0], [1.0, -1.0]]
        x0 = [1.5]
        t_end = 1.0
        scheme = milstein
        levels = [512]
        seed = 4
        """,
    "chain-stats": """
        generator = [[-2.0, 1.5, 0.5], [0.5, -1.0, 0.5], [1.0, 2.0, -3.0]]
        t_end = 2.0
        paths = 200
        seed = 12
        """,
}


def _cli_bytes(argv, out_dir) -> bytes:
    """Exit code, standard output and every written file of one command,
    with the output directory's name replaced."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.run(argv)
    parts = [b"exit %d" % code, stdout.getvalue().replace(str(out_dir), "<out>").encode()]
    for path in sorted(Path(out_dir).iterdir()):
        parts += [path.name.encode(), path.read_bytes()]
    return b"\n--\n".join(parts)


def _cli_items():
    saved = os.environ.pop("SWITCHTAYLOR_SEED", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in _CONFIGS.items():
                out = Path(tmp, name)
                out.mkdir()
                cfg = Path(tmp, name + ".cfg")
                cfg.write_text(textwrap.dedent(text) + "output = %s\n" % out)
                command = name.split("-inline")[0]
                yield "cli.%s" % name, _cli_bytes([command, "--config", str(cfg)], out)
            for gamma in ("0.5", "1.0", "1.5", "2.0"):
                for m in ("1", "2"):
                    out = Path(tmp, "sets-%s-%s" % (gamma, m))
                    argv = ["sets", "--gamma", gamma, "--m", m, "--out", str(out)]
                    yield "cli.sets.%s.m%s" % (gamma, m), _cli_bytes(argv, out)
    finally:
        if saved is not None:
            os.environ["SWITCHTAYLOR_SEED"] = saved


def environment() -> dict:
    return {"numpy": np.__version__, "platform": "%s-%s" % (sys.platform, platform.machine())}


def digests() -> dict:
    """Item name -> sha256 hex digest of its bytes."""
    out = {}
    for items in (_study_items, _trajectory_items, _per_path_items, _kernel_items, _cli_items):
        for name, data in items():
            assert name not in out, name
            out[name] = hashlib.sha256(data).hexdigest()
    return out


def test_outputs_match_the_committed_digests():
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    made = golden["environment"]
    assert made == here, (
        "bit_identity.json was written on numpy %s (%s), this is numpy %s (%s); "
        "digests are only comparable on the same numpy and platform.  Regenerate "
        "the file on the parent commit with `python tests/test_bit_identity.py "
        "--write` to compare here"
        % (made["numpy"], made["platform"], here["numpy"], here["platform"])
    )
    got = digests()
    want = golden["digests"]
    moved = sorted(name for name in want if got.get(name) != want[name])
    new = sorted(set(got) - set(want))
    assert not moved and not new, "moved: %s; not in the file: %s" % (moved, new)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_bit_identity.py --write")
    GOLDEN.write_text(
        json.dumps({"environment": environment(), "digests": digests()}, indent=1, sort_keys=True)
        + "\n"
    )
    print("wrote %s" % GOLDEN)
