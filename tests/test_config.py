import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrl.cli import main
from ctrl.config import (AlignConfig, FinetuneConfig, ModelConfig, RunConfig,
                         TextConfig, config_json, load_config)
from ctrl.exceptions import UsageError

# Every field away from its default in NO_DEFAULTS or in its maxsim twin,
# except `version`, which has one valid value. Under cosine `m_subspaces` is
# stored as the cosine head's value, 1, so only the maxsim twin can keep it
# away from its default.
NO_DEFAULTS = RunConfig(
    seed=7, prompt_variant=3,
    model=ModelConfig(backbone="dcn", d=6, hidden=(12, 5), attn_layers=3,
                      attn_heads=3, attn_head_dim=5, cross_layers=2,
                      batch_norm=False),
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
    cfg = RunConfig.from_dict({"finetune": {"lr": 1}, "model": {"hidden": (7, 2)}})
    assert cfg.finetune.lr == 1 and cfg.model.hidden == (7, 2)


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


@pytest.mark.parametrize("blob, message", [
    ({"model": {"backbone": "mlp", "hidden": [0]}},
     "hidden widths must be >= 1, got [0]"),
    ({"model": {"hidden": [16, -8]}}, "hidden widths must be >= 1, got [16, -8]"),
    ({"align": {"d_proj": -4}}, "m_subspaces and d_proj must be >= 1"),
    ({"align": {"d_proj": 0}}, "m_subspaces and d_proj must be >= 1"),
    ({"align": {"weight_decay": -1.0}}, "weight_decay must be >= 0"),
], ids=["hidden-zero", "hidden-negative", "d_proj-negative", "d_proj-zero",
        "weight_decay"])
def test_a_width_or_decay_out_of_range_is_refused_before_prepare_writes(
        tmp_path, capsys, blob, message):
    """`hidden: [0]` trained a zero-width tower to val AUC 0.5, a negative
    d_proj died in numpy and 0 in xavier_uniform when align ran, and a
    negative weight decay was taken."""
    with pytest.raises(UsageError, match=re.escape(message)):
        RunConfig.from_dict(blob)
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--rows", "20"]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["prepare", "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


FLOAT_FIELDS = [(cls, f.name) for cls in (ModelConfig, AlignConfig,
                                           FinetuneConfig)
                for f in dataclasses.fields(cls) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[name for _, name in FLOAT_FIELDS])
def test_every_float_field_refuses_a_non_finite_value_naming_it(cls, name,
                                                                 value):
    """One check names the field. NaN and +inf passed every lower-bound
    check: a NaN temperature diverged at alignment's first step, and an
    infinite one trained at a constant loss of log(batch size)."""
    with pytest.raises(UsageError, match=f"^{name} must be a finite number"):
        cls(**{name: value})


def test_the_smallest_widths_and_no_decay_are_taken():
    cfg = RunConfig.from_dict({"model": {"hidden": [1]},
                               "align": {"m_subspaces": 1, "d_proj": 1,
                                         "weight_decay": 0}})
    assert cfg.model.hidden == (1,) and cfg.align.d_proj == 1
    assert cfg.align.weight_decay == 0


def _warmup(start_lr, peak_lr, warmup_steps) -> AlignConfig:
    return AlignConfig(start_lr=start_lr, peak_lr=peak_lr,
                       warmup_steps=warmup_steps)


def test_lr_at_paper_points():
    cfg = _warmup(start_lr=1e-5, peak_lr=5e-4, warmup_steps=1000)
    assert cfg.lr_at(0) == pytest.approx(1e-5, abs=1e-15)
    assert cfg.lr_at(500) == pytest.approx(2.55e-4, abs=1e-12)
    assert cfg.lr_at(1000) == pytest.approx(5e-4, abs=1e-15)
    assert cfg.lr_at(5000) == pytest.approx(5e-4, abs=1e-15)


def test_lr_at_zero_warmup_is_flat():
    cfg = _warmup(start_lr=1e-5, peak_lr=3e-4, warmup_steps=0)
    assert cfg.lr_at(0) == 3e-4
    assert cfg.lr_at(10) == 3e-4


def test_lr_at_validation():
    with pytest.raises(UsageError):
        _warmup(start_lr=-1.0, peak_lr=1.0, warmup_steps=5)
    with pytest.raises(UsageError):
        _warmup(start_lr=2.0, peak_lr=1.0, warmup_steps=5)
    cfg = _warmup(start_lr=1e-5, peak_lr=5e-4, warmup_steps=10)
    with pytest.raises(UsageError):
        cfg.lr_at(-1)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=0, max_value=3000))
def test_lr_at_monotone_then_flat(warmup, step):
    cfg = _warmup(start_lr=1e-5, peak_lr=5e-4, warmup_steps=warmup)
    lr = cfg.lr_at(step)
    assert 1e-5 <= lr <= 5e-4
    if step >= warmup:
        assert lr == 5e-4
    else:
        assert lr <= cfg.lr_at(step + 1)
