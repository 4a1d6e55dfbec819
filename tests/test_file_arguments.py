"""File arguments: a str path, a pathlib.Path and an open handle agree."""

import io

import numpy as np
import pytest

from switchtaylor import (
    ChainPath,
    GridSpec,
    build_noise,
    fixture,
    integrate,
    write_trajectory_csv,
)

CHAIN = ChainPath(0.0, 1.0, 1, np.array([0.3, 0.7]), np.array([2, 1]))
NOISE = build_noise(GridSpec(0.0, 1.0, 8), CHAIN, 1, np.random.default_rng(4))
TRAJECTORY = integrate(fixture("linear2"), "taylor15", CHAIN, NOISE, NOISE.times)


def _hand_over(form, target, use):
    # give ``use`` the target as a str path, a pathlib.Path or an open handle;
    # a handle the caller opened must still be open afterwards
    if form == "handle":
        with open(target, "w") as handle:
            use(handle)
            assert not handle.closed
    else:
        use(str(target) if form == "str" else target)


@pytest.mark.parametrize("writer", [write_trajectory_csv], ids=lambda f: f.__name__)
def test_str_path_pathlib_and_handle_give_the_same_bytes(writer, tmp_path):
    buffer = io.StringIO()
    writer(TRAJECTORY, buffer)
    expected = buffer.getvalue().encode()
    for form in ("str", "pathlib", "handle"):
        target = tmp_path / ("%s.out" % form)
        _hand_over(form, target, lambda file: writer(TRAJECTORY, file))
        assert target.read_bytes() == expected, form
