"""Configuration presets, the ``GPUConfig.preset`` vocabulary, reporting
helpers.

``harness.runner.make_config`` survives only for the benchmark ledger
(ROADMAP 7(b) deletes it).  Until then each ``test_make_config_*`` test
builds its config through both the shim and ``GPUConfig.preset`` and
checks that they agree, then checks the preset's vocabulary.
"""

import pytest
from hypothesis import given, strategies as st

import repro.harness.runner as runner
from repro.harness.reporting import format_table, geomean
from repro.sim.config import (
    BOWSConfig,
    DDOSConfig,
    GPUConfig,
    fermi_config,
    pascal_config,
)
from repro.sim.run import simulate

# ---------------------------------------------------------------- config


def test_fermi_preset_shape():
    config = fermi_config()
    assert config.num_schedulers_per_sm == 2
    assert config.warp_size == 32
    assert config.l1d.num_sets * config.l1d.assoc * 128 == 16 * 1024


def test_pascal_preset_shape():
    config = pascal_config()
    assert config.num_schedulers_per_sm == 4
    assert config.num_sms > fermi_config().num_sms
    assert config.l1d.size_bytes == 48 * 1024


def test_preset_overrides():
    config = fermi_config(num_sms=7, scheduler="lrr")
    assert config.num_sms == 7
    assert config.scheduler == "lrr"


def test_replace_copies():
    base = fermi_config()
    changed = base.replace(num_sms=9)
    assert changed.num_sms == 9
    assert base.num_sms != 9


def test_ddos_config_validation():
    with pytest.raises(ValueError, match="unknown hashing"):
        DDOSConfig(hashing="crc32")


def test_max_threads_per_sm():
    config = fermi_config(max_warps_per_sm=10)
    assert config.max_threads_per_sm == 320


# ------------------------------------------------- GPUConfig.preset vocabulary

# Looked up by name: nothing but the ledger and these tests calls the shim.
_shim = getattr(runner, "make_config")


def _preset(name="fermi", **kwargs):
    """``GPUConfig.preset(name, **kwargs)``, checked against the shim."""
    config = GPUConfig.preset(name, **kwargs)
    assert _shim(preset=name, **kwargs) == config
    return config


def test_make_config_defaults():
    config = _preset("fermi")
    assert config == _shim()
    assert config.scheduler == "gto"
    assert config.bows is None
    assert config.ddos is None


def test_make_config_bows_true_is_adaptive_with_ddos():
    config = _preset("fermi", bows=True)
    assert config.bows is not None and config.bows.adaptive
    assert config.ddos is not None


def test_make_config_bows_int_is_fixed_delay():
    config = _preset("fermi", bows=1234)
    assert config.bows.delay_limit == 1234
    assert not config.bows.adaptive


def test_make_config_bows_without_ddos():
    config = _preset("fermi", bows=500, ddos=False)
    assert config.bows is not None
    assert config.ddos is None


def test_make_config_explicit_objects():
    bows = BOWSConfig(delay_limit=42)
    ddos = DDOSConfig(hashing="modulo")
    config = _preset("fermi", scheduler="lrr", bows=bows, ddos=ddos)
    assert config.scheduler == "lrr"
    assert config.bows is bows
    assert config.ddos is ddos
    assert _shim("lrr", bows, ddos) == config


def test_make_config_pascal_preset():
    config = _preset("pascal", num_sms=3)
    assert config.name.startswith("pascal")
    assert config.num_sms == 3


def test_make_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GPUConfig.preset("volta")
    with pytest.raises(ValueError):
        _shim(preset="volta")
    for build in (GPUConfig.preset, _shim):
        with pytest.raises(TypeError):
            build(bows=3.14)
        with pytest.raises(TypeError):
            build(ddos="yes")


def test_simulate_by_name_one_shot():
    config = GPUConfig.preset("fermi", num_sms=1, max_warps_per_sm=4)
    result = simulate(
        "vecadd", config=config,
        params=dict(n_threads=64, per_thread=2, block_dim=32),
    )
    assert result.cycles > 0


# ------------------------------------------------------------- reporting


def test_format_table_alignment():
    rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
    text = format_table(rows, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5


def test_format_table_empty():
    assert "(no rows)" in format_table([], title="T")


def test_format_table_column_selection():
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]


def test_geomean_basics():
    assert geomean([2, 8]) == pytest.approx(4.0)
    assert geomean([]) == 0.0
    assert geomean([0, -1]) == 0.0


@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
def test_geomean_bounded_by_min_max(values):
    g = geomean(values)
    assert min(values) * 0.999 <= g <= max(values) * 1.001
