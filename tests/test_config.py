import dataclasses
import json

import pytest

from ctrl.cli import main
from ctrl.config import (AlignConfig, FinetuneConfig, ModelConfig, RunConfig,
                         TextConfig, config_json, load_config)
from ctrl.exceptions import UsageError

# Every field away from its default in NO_DEFAULTS or in its maxsim twin,
# except `version`, which has one valid value. Under cosine `m_subspaces` is
# stored as the cosine head's value, 1, so only the maxsim twin can keep it
# away from its default.
NO_DEFAULTS = RunConfig(
    seed=7, prompt_variant=3, user_prefix="A user", item_prefix="An item",
    split_ratios=(6, 2, 2),
    model=ModelConfig(backbone="dcn", d=6, hidden=(12, 5), attn_layers=3,
                      attn_heads=3, attn_head_dim=5, cross_layers=2,
                      batch_norm=False, dropout=0.25),
    text=TextConfig(d_model=12, n_layers=3, n_heads=3, d_ff=20,
                    max_tokens=40),
    align=AlignConfig(temperature=0.3, batch_size=17, similarity="cosine",
                      epochs=4, m_subspaces=3, d_proj=12,
                      start_lr=2e-5, peak_lr=3e-3,
                      warmup_steps=9, weight_decay=0.2),
    finetune=FinetuneConfig(lr=5e-3, batch_size=100, epochs=6, patience=2,
                            lambda_ccl=0.5),
)
NO_DEFAULTS_MAXSIM = dataclasses.replace(NO_DEFAULTS, align=dataclasses.replace(
    NO_DEFAULTS.align, similarity="maxsim", m_subspaces=3))


def test_no_defaults_config_differs_from_every_default():
    default = RunConfig()
    for f in dataclasses.fields(RunConfig):
        if f.name == "version":
            continue
        theirs = getattr(default, f.name)
        ours = [getattr(c, f.name) for c in (NO_DEFAULTS, NO_DEFAULTS_MAXSIM)]
        if dataclasses.is_dataclass(theirs):
            for g in dataclasses.fields(theirs):
                assert any(getattr(o, g.name) != getattr(theirs, g.name)
                           for o in ours), f"{f.name}.{g.name}"
        else:
            assert all(o != theirs for o in ours), f.name


def test_from_dict_inverts_to_dict_through_json():
    for cfg in (NO_DEFAULTS, NO_DEFAULTS_MAXSIM):
        blob = json.loads(json.dumps(cfg.to_dict()))
        assert RunConfig.from_dict(blob) == cfg
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_cosine_configs_store_the_cosine_head_and_write_equal_bytes():
    a = RunConfig(align=AlignConfig(similarity="cosine", m_subspaces=4,
                                    d_proj=10))
    b = RunConfig(align=AlignConfig(similarity="cosine", m_subspaces=2,
                                    d_proj=10))
    assert a.align.m_subspaces == 1
    assert a == b and config_json(a) == config_json(b)
    assert RunConfig.from_dict(json.loads(config_json(a))) == a


def test_from_dict_missing_keys_take_defaults():
    assert RunConfig.from_dict({}) == RunConfig()
    cfg = RunConfig.from_dict({"seed": 3, "model": {"hidden": [8]}})
    assert cfg == dataclasses.replace(
        RunConfig(), seed=3, model=ModelConfig(hidden=(8,)))


@pytest.mark.parametrize("blob", [
    {"sead": 3},
    {"seed": 3, "finetune": {"lr": 0.1}, "alignment": {}},
    {"model": {"hiden": [8]}},
    {"align": 5},
])
def test_from_dict_rejects_unknown_or_malformed_keys(blob):
    with pytest.raises(UsageError, match="malformed config"):
        RunConfig.from_dict(blob)


@pytest.mark.parametrize("blob, message", [
    ({"model": {"hidden": [8, 4.0]}}, "model.hidden must be a list of ints"),
    ({"align": {"temperature": False}}, "align.temperature must be a number"),
    ({"model": {"batch_norm": 1}}, "model.batch_norm must be a bool"),
    ({"model": {"backbone": 3}}, "model.backbone must be a string"),
    ({"align": 5}, "align is a JSON int, not an object"),
    ({"model": {"hiden": [8]}}, r"unknown key\(s\) \['hiden'\] in model"),
], ids=["hidden-a-float", "temperature-a-bool", "batch-norm-an-int",
        "backbone-an-int", "section-an-int", "unknown-key-in-a-section"])
def test_from_dict_refuses_a_value_of_another_type_naming_its_field(blob,
                                                                    message):
    """Each leaf is checked against its default's type; tests/test_cli.py
    checks the exit codes of a wrong type in a config file and in a
    checkpoint."""
    with pytest.raises(UsageError, match=f"^malformed config: {message}"):
        RunConfig.from_dict(blob)


def test_from_dict_takes_an_int_for_a_float_and_a_tuple_for_a_list():
    cfg = RunConfig.from_dict({"finetune": {"lr": 1}, "split_ratios": (7, 2, 1)})
    assert cfg.finetune.lr == 1 and cfg.split_ratios == (7, 2, 1)


def test_zero_text_heads_are_refused_before_dividing():
    # `d_model % n_heads` ran first and raised ZeroDivisionError
    with pytest.raises(UsageError, match="text dimensions must be positive"):
        RunConfig.from_dict({"text": {"n_heads": 0}})


def test_config_typo_exits_with_usage_code(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--rows", "20"]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sead": 3}), encoding="utf-8")
    with pytest.raises(UsageError, match="sead"):
        load_config(cfg_path)
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    assert "sead" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null"])
def test_a_config_that_is_not_an_object_exits_with_usage_code(tmp_path, capsys,
                                                              text):
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--rows", "20"]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    with pytest.raises(UsageError, match="malformed config"):
        load_config(cfg_path)
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    assert "error: malformed config" in capsys.readouterr().err


def test_only_maxsim_needs_m_subspaces_to_divide_d_proj():
    # the cosine head has no sub-spaces, so the pair is never used
    assert AlignConfig(similarity="cosine", d_proj=10, m_subspaces=4).d_proj == 10
    with pytest.raises(UsageError, match="m_subspaces must divide d_proj"):
        AlignConfig(similarity="maxsim", d_proj=10, m_subspaces=4)


def test_negative_warmup_steps_are_refused_before_prepare_writes(tmp_path,
                                                                  capsys):
    with pytest.raises(UsageError, match="warmup_steps must be >= 0"):
        AlignConfig(warmup_steps=-1)
    assert AlignConfig(warmup_steps=0).warmup_steps == 0
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--rows", "20"]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"align": {"warmup_steps": -1}}),
                        encoding="utf-8")
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    assert "warmup_steps must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
