"""Configuration defaults and file parsing."""

import pytest

from surfbraid.config import Config, load_config, override
from surfbraid.errors import ParameterError


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert (cfg.genus, cfg.boundary, cfg.strands) == (1, 1, 2)
        assert (cfg.max_chords, cfg.max_beads, cfg.window) == (2, 4, 6)
        assert cfg.node_budget == 10**6

    def test_frozen(self):
        with pytest.raises(Exception):
            Config().genus = 2


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "surf.cfg"
        path.write_text(
            "# comment line\n"
            "genus = 2\n"
            "boundary = 0   # trailing comment\n"
            "strands=3\n"
            "\n"
            "window = 8\n"
            "max_beads = 7\n"
        )
        cfg = load_config(path)
        assert cfg.genus == 2
        assert cfg.boundary == 0
        assert cfg.strands == 3
        assert cfg.window == 8
        assert cfg.max_beads == 7
        # untouched keys stay at their defaults
        assert cfg.max_chords == 2

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("genus = 1\nwibble = 3\n")
        with pytest.raises(ParameterError, match="unknown key"):
            load_config(path)

    def test_cache_dir_is_gone(self, tmp_path):
        # dimension tables are computed, never cached
        path = tmp_path / "old.cfg"
        path.write_text("genus = 1\ncache_dir = tables\n")
        with pytest.raises(ParameterError, match="unknown key 'cache_dir'"):
            load_config(path)

    def test_non_integer_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("strands = two\n")
        with pytest.raises(ParameterError, match="needs an integer"):
            load_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("genus\n")
        with pytest.raises(ParameterError, match="expected 'key = value'"):
            load_config(path)


class TestOverride:
    def test_none_values_ignored(self):
        cfg = Config(genus=2)
        same = override(cfg, genus=None, strands=None)
        assert same == cfg

    def test_overrides_apply(self):
        cfg = override(Config(), genus=2, strands=3)
        assert cfg.genus == 2
        assert cfg.strands == 3
        assert cfg.boundary == 1
