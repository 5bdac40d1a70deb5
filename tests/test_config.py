"""Config-file parsing, coercion, and override handling."""

import pytest

from dereverb.config import (
    config_to_text,
    load_model_config,
    load_synth_config,
    parse_kv_text,
)
from dereverb.errors import ConfigError
from dereverb.model import ModelConfig


class TestParseKvText:
    def test_basic_lines_comments_blanks(self):
        text = "a = 1\n\n# comment\nb = two  # trailing\n"
        assert parse_kv_text(text) == {"a": "1", "b": "two"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_kv_text("just words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_kv_text("a = 1\na = 2\n")


class TestModelConfigLoading:
    def test_defaults_when_no_file(self):
        cfg = load_model_config()
        assert cfg == ModelConfig()

    def test_file_plus_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("epochs = 3\nchannels = 4,8\nnum_enc_layers = 2\n")
        cfg = load_model_config(path, overrides=["epochs=5", "attention=sdab"])
        assert cfg.epochs == 5
        assert cfg.channels == (4, 8)
        assert cfg.attention == "sdab"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_model_config(overrides=["frobs=1"])

    def test_bad_value_types(self):
        with pytest.raises(ConfigError):
            load_model_config(overrides=["epochs=three"])
        with pytest.raises(ConfigError):
            load_model_config(overrides=["channels=4,x"])
        with pytest.raises(ConfigError):
            load_model_config(overrides=["bounded_mask=maybe"])

    def test_optional_float_fields(self):
        cfg = load_model_config(overrides=["psd_smoothing_alpha=0.8"])
        assert cfg.psd_smoothing_alpha == 0.8
        cfg = load_model_config(overrides=["psd_smoothing_alpha=none"])
        assert cfg.psd_smoothing_alpha is None

    def test_validation_applies(self):
        with pytest.raises(ConfigError):
            load_model_config(overrides=["channels=3,5", "num_enc_layers=2"])

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"epochs = 3\nattention = \xff\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt.*UTF-8"):
            load_model_config(path)

    def test_roundtrip_through_text(self, tmp_path):
        cfg = ModelConfig(epochs=7, attention="conventional")
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(cfg))
        assert load_model_config(path) == cfg


class TestSynthConfigLoading:
    def test_snr_field(self):
        cfg = load_synth_config(overrides=["snr_db=20"])
        assert cfg.snr_db == 20.0
        assert load_synth_config(overrides=["snr_db=none"]).snr_db is None

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError):
            load_synth_config(overrides=["t60_min=0.9", "t60_max=0.3"])
