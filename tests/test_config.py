"""Flat key-value config format: parsing, exact numbers, files."""

import math

import pytest

from switchtaylor import load_config, parse_config
from switchtaylor.errors import ConfigError

SAMPLE = """
# strong order study
model = linear2
t_end = 1.0
scheme = [euler, milstein, taylor15]
levels = [16, 32, 64]
reference = 4096
paths = 10000
seed = 42
output = out/run1
"""


class TestParse:
    def test_sample_types_and_values(self):
        cfg = parse_config(SAMPLE)
        assert cfg["model"] == "linear2"
        assert cfg["t_end"] == 1.0 and isinstance(cfg["t_end"], float)
        assert cfg["scheme"] == ["euler", "milstein", "taylor15"]
        assert cfg["levels"] == [16, 32, 64]
        assert all(isinstance(v, int) for v in cfg["levels"])
        assert cfg["reference"] == 4096
        assert cfg["seed"] == 42
        assert cfg["output"] == "out/run1"

    def test_matrix_values(self):
        cfg = parse_config("generator = [[-1.0, 1.0], [1.0, -1.0]]\n")
        assert cfg["generator"] == [[-1.0, 1.0], [1.0, -1.0]]

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("\n# note\n  \nseed = 7\n")
        assert cfg == {"seed": 7}

    def test_empty_text_gives_empty_mapping(self):
        assert parse_config("") == {}

    def test_nested_empty_array(self):
        assert parse_config("levels = []\n") == {"levels": []}

    def test_scientific_notation_and_signs(self):
        cfg = parse_config("a = -2.5e-3\nb = +17\n")
        assert cfg["a"] == -2.5e-3
        assert cfg["b"] == 17 and isinstance(cfg["b"], int)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_key_rejected(self):
        with pytest.raises(ConfigError, match="invalid config key"):
            parse_config("3bad = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = 1\nseed = 2\n")

    def test_unbalanced_brackets_rejected(self):
        with pytest.raises(ConfigError, match="levels"):
            parse_config("levels = [1, 2\n")
        with pytest.raises(ConfigError, match="levels"):
            parse_config("levels = 1, 2]\n")

    def test_spacing_does_not_change_values(self):
        compact = "".join(line.replace(" ", "") + "\n" for line in SAMPLE.splitlines())
        first, second = parse_config(SAMPLE), parse_config(compact)
        assert first == second
        for key in first:
            assert type(first[key]) is type(second[key])

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = \n")


class TestRoundTrip:
    # values written by repr parse back as themselves
    def test_floats_survive_exactly(self):
        values = {"a": 0.1, "b": 1.0 / 3.0, "c": 1e-17, "d": -math.pi, "e": 2.0 ** -52}
        back = parse_config("".join("%s = %r\n" % item for item in values.items()))
        for key, value in values.items():
            assert back[key] == value

    def test_matrices_survive(self):
        cfg = {"generator": [[-2.0, 1.5, 0.5], [0.5, -1.0, 0.5], [1.0, 2.0, -3.0]]}
        assert parse_config("generator = %r\n" % cfg["generator"]) == cfg


class TestFiles:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model = linear2\nseed = 5\nlevels = [8, 16]\n")
        assert load_config(path) == {"model": "linear2", "seed": 5, "levels": [8, 16]}

    def test_missing_file_reports_config_key(self, tmp_path):
        with pytest.raises(ConfigError, match="config"):
            load_config(tmp_path / "absent.cfg")
