"""File arguments: a str path, a pathlib.Path and an open handle agree."""

import io

import numpy as np
import pytest

from switchtaylor import (
    ChainPath,
    GridSpec,
    build_noise,
    dump_noise,
    fixture,
    integrate,
    load_noise,
    write_chain_csv,
    write_trajectory_csv,
)

CHAIN = ChainPath(0.0, 1.0, 1, np.array([0.3, 0.7]), np.array([2, 1]))
NOISE = build_noise(GridSpec(0.0, 1.0, 8), CHAIN, 1, np.random.default_rng(4))
TRAJECTORY = integrate(fixture("linear2"), "taylor15", CHAIN, NOISE, NOISE.times)


def _hand_over(form, target, mode, use):
    # give ``use`` the target as a str path, a pathlib.Path or an open handle;
    # a handle the caller opened must still be open afterwards
    if form == "handle":
        with open(target, mode) as handle:
            use(handle)
            assert not handle.closed
    else:
        use(str(target) if form == "str" else target)


def _written(writer, obj, mode):
    def run(form, target):
        _hand_over(form, target, mode, lambda file: writer(obj, file))
        return target.read_bytes()

    return run


def _loaded(form, target):
    dump_noise(NOISE, target)
    loaded = []
    _hand_over(form, target, "rb", lambda file: loaded.append(load_noise(file)))
    buf = io.BytesIO()
    dump_noise(loaded[0], buf)
    return buf.getvalue()


def _in_memory(writer, obj, buffer):
    writer(obj, buffer)
    value = buffer.getvalue()
    return value.encode() if isinstance(value, str) else value


CASES = {
    "write_chain_csv": (
        _written(write_chain_csv, CHAIN, "w"),
        lambda: _in_memory(write_chain_csv, CHAIN, io.StringIO()),
    ),
    "write_trajectory_csv": (
        _written(write_trajectory_csv, TRAJECTORY, "w"),
        lambda: _in_memory(write_trajectory_csv, TRAJECTORY, io.StringIO()),
    ),
    "dump_noise": (
        _written(dump_noise, NOISE, "wb"),
        lambda: _in_memory(dump_noise, NOISE, io.BytesIO()),
    ),
    "load_noise": (_loaded, lambda: _in_memory(dump_noise, NOISE, io.BytesIO())),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_str_path_pathlib_and_handle_give_the_same_bytes(name, tmp_path):
    run, reference = CASES[name]
    expected = reference()
    for form in ("str", "pathlib", "handle"):
        assert run(form, tmp_path / ("%s.out" % form)) == expected, form
