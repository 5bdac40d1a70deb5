"""Config-file parsing, coercion, and override handling."""

import pytest

from dereverb.config import (
    build_config,
    load_model_config,
    load_synth_config,
    parse_kv_text,
)
from dereverb.datasynth import SynthConfig
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

    @pytest.mark.parametrize(
        "text,value",
        [("channels=2,4,6,8", [2, 4, 6, 8]), ("kernel=5 , 3", [5, 3]), ("bounded_mask=True", True),
         ("psd_smoothing_alpha=none", None), ("psd_smoothing_alpha=", None),
         ("psd_smoothing_alpha=0.5", 0.5), ("learning_rate=1", 1), ("learning_rate=2e-3", 2e-3),
         ("epochs=3", 3), ("attention=none", "none"), ("dtype=float32", "float32")],
    )
    def test_text_is_typed_as_the_json_it_spells(self, text, value):
        key = text.split("=")[0]
        assert load_model_config(overrides=[text]) == build_config(ModelConfig, {key: value})

    @pytest.mark.parametrize(
        "text", ["epochs=3.0", "epochs=", "channels=4,8.5", "kernel=", "bounded_mask=1",
                 "bounded_mask=yes", "learning_rate=x", "learning_rate=none", "dtype="],
    )
    def test_text_of_the_wrong_type_rejected(self, text):
        with pytest.raises(ConfigError, match=text.split("=")[0]):
            load_model_config(overrides=[text])

    def test_float_fields_hold_floats(self):
        for cfg in (load_model_config(overrides=["learning_rate=1"]),
                    build_config(ModelConfig, {"learning_rate": 1})):
            assert type(cfg.learning_rate) is float
        assert type(build_config(SynthConfig, {"snr_db": 20}).snr_db) is float

    def test_json_out_of_float_range_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate.*out of range"):
            build_config(ModelConfig, {"learning_rate": 10**400})

    def test_json_not_an_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            build_config(ModelConfig, [1, 2])

    def test_validation_applies(self):
        with pytest.raises(ConfigError):
            load_model_config(overrides=["channels=3,5", "num_enc_layers=2"])

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"epochs = 3\nattention = \xff\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt.*UTF-8"):
            load_model_config(path)

    def test_roundtrip_through_text(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "num_enc_layers = 3\n"
            "channels = 4,8,16      # a tuple\n"
            "psd_smoothing_alpha = none\n"
            "learning_rate = 0.002\n"
            "bounded_mask = true\n"
            "attention = conventional\n"
            "epochs = 7\n"
        )
        want = ModelConfig(
            num_enc_layers=3, channels=(4, 8, 16), psd_smoothing_alpha=None,
            learning_rate=0.002, bounded_mask=True, attention="conventional", epochs=7,
        )
        assert load_model_config(path) == want


class TestSynthConfigLoading:
    def test_snr_field(self):
        cfg = load_synth_config(overrides=["snr_db=20"])
        assert cfg.snr_db == 20.0
        assert load_synth_config(overrides=["snr_db=none"]).snr_db is None

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError):
            load_synth_config(overrides=["t60_min=0.9", "t60_max=0.3"])

    @pytest.mark.parametrize(
        "text", ["duration_s=nan", "duration_s=inf", "t60_min=nan", "t60_max=inf",
                 "snr_db=nan", "direct_path_gain=-inf", "sample_rate=0"],
    )
    def test_non_finite_or_out_of_range_rejected(self, text):
        with pytest.raises(ConfigError):
            load_synth_config(overrides=[text])
