"""Spec identity is frozen: literal hash pins, ``asdict`` equivalence of
the lab serializer, and the rules the ``content_hash`` memo lives by.

A content hash that moves by one bit orphans every ``.lab_cache/`` entry
and every journal, so the three pins below are hex literals computed
before the serializer stopped calling ``dataclasses.asdict``; they must
never be regenerated to make a change pass.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import SanitizerConfig
from repro.harness.runner import make_config
from repro.lab import spec as spec_mod
from repro.lab.results import stats_to_dict
from repro.lab.spec import RunSpec, config_to_dict
from repro.memory.memsys import MemoryStats
from repro.metrics.stats import LockStats, SimStats
from repro.obs import ObsConfig
from repro.sim.config import (BOWSConfig, DDOSConfig, GPUConfig,
                              PerturbConfig)

HT = dict(n_threads=64, n_buckets=8, items_per_thread=1, block_dim=64)

PINNED = {
    "gto": (
        lambda: RunSpec(kernel="ht", config=make_config("gto"),
                        params=dict(HT)),
        "3f57ed991642e1903cea0cfb9418ed1589d8ee22b2f4cc72286f53cc0056679b",
    ),
    "bows+ddos+seed": (
        lambda: RunSpec(kernel="ht",
                        config=make_config("gto", bows="adaptive", ddos=True),
                        params=dict(HT), seed=7),
        "ee19ab2cb52bba44ca074aa6c3a00588316bcba26e5faab69506de0ea5cf4e9d",
    ),
    "perturb+obs+sanitize": (
        lambda: RunSpec(
            kernel="vecadd",
            config=make_config("gto", bows=500, perturb=PerturbConfig(
                seed=3, sched_jitter=0.25, mem_jitter_cycles=4,
                rotation_period=100)),
            params=dict(n_threads=64, per_thread=2, block_dim=32),
            seed=11, validate=False, engine="reference",
            obs=ObsConfig(sample_interval=500),
            sanitize=SanitizerConfig(), label="not hashed"),
        "fb72a0f22359a2ded50cb84785ec438bdb0e04236848faf2a20d16ceea09a646",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_content_hash_is_pinned(name):
    build, expected = PINNED[name]
    assert build().content_hash() == expected


# ----------------------------------------------------------------------
# The serializer equals dataclasses.asdict: keys, order, values, JSON text

NESTED = {
    "bows": (None, BOWSConfig(), BOWSConfig(adaptive=True, delay_limit=250)),
    "ddos": (None, DDOSConfig(), DDOSConfig(hashing="modulo",
                                            time_sharing=True)),
    "perturb": (None, PerturbConfig(), PerturbConfig(seed=9,
                                                     sched_jitter=0.5)),
}


def _same_as_asdict(obj, to_dict):
    ours, theirs = to_dict(obj), dataclasses.asdict(obj)
    assert ours == theirs
    assert json.dumps(ours) == json.dumps(theirs)  # key order included


@pytest.mark.parametrize("bows", NESTED["bows"])
@pytest.mark.parametrize("ddos", NESTED["ddos"])
@pytest.mark.parametrize("perturb", NESTED["perturb"])
def test_config_to_dict_equals_asdict(bows, ddos, perturb):
    for preset in ("fermi", "pascal"):
        config = GPUConfig.preset(preset).replace(
            bows=bows, ddos=ddos, perturb=perturb)
        _same_as_asdict(config, config_to_dict)


def _values_for(cls):
    """A strategy of ``cls`` instances with every scalar field drawn."""
    kinds = {"int": st.integers(-2**40, 2**40),
             "float": st.floats(allow_nan=False),
             "bool": st.booleans()}
    return st.builds(cls, **{
        f.name: kinds[f.type] for f in dataclasses.fields(cls)
        if f.type in kinds})


@settings(max_examples=50, deadline=None)
@given(stats=_values_for(SimStats), locks=_values_for(LockStats),
       memory=_values_for(MemoryStats))
def test_stats_to_dict_equals_asdict(stats, locks, memory):
    stats.locks, stats.memory = locks, memory
    _same_as_asdict(stats, stats_to_dict)
    assert stats_to_dict(stats)["locks"] is not locks


def test_numpy_scalar_leaves_serialize_as_asdict_does():
    np = pytest.importorskip("numpy")
    stats = SimStats(cycles=np.int64(5), backed_off_warp_cycles=np.float64(2))
    ours, theirs = stats_to_dict(stats), dataclasses.asdict(stats)
    assert ours == theirs
    assert type(ours["cycles"]) is type(theirs["cycles"])


def test_container_fields_are_refused_not_aliased():
    @dataclasses.dataclass
    class Grown:
        scalar: int = 1
        rows: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="Grown.rows"):
        spec_mod.dataclass_to_dict(Grown())


# ----------------------------------------------------------------------
# The memo: computed once, never staler than the spec


@pytest.fixture
def canonicalisations(monkeypatch):
    """Counts every canonical serialization of a spec in this process."""
    calls = []
    real = spec_mod._canonical_json

    def counted(payload):
        calls.append(payload)
        return real(payload)

    monkeypatch.setattr(spec_mod, "_canonical_json", counted)
    return calls


def test_hash_is_computed_once_per_spec(canonicalisations):
    spec = PINNED["bows+ddos+seed"][0]()
    assert len({spec.content_hash() for _ in range(5)}) == 1
    assert len(canonicalisations) == 1


def test_pickled_spec_arrives_with_its_hash(canonicalisations):
    spec = PINNED["gto"][0]()
    digest = spec.content_hash()
    arrived = pickle.loads(pickle.dumps(spec))
    assert arrived == spec
    assert arrived.content_hash() == digest
    assert len(canonicalisations) == 1  # the worker side did not rehash


def test_replace_and_from_dict_never_copy_the_memo(canonicalisations):
    spec = PINNED["gto"][0]()
    digest = spec.content_hash()
    other = dataclasses.replace(spec, seed=5)
    assert other.content_hash() != digest
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt.content_hash() == digest
    assert len(canonicalisations) == 3
    # ...and the memo is invisible to equality and repr.
    assert rebuilt == spec and dataclasses.replace(spec) == spec
    assert "memo" not in repr(spec) and digest not in repr(spec)
    assert [f.name for f in dataclasses.fields(spec)] == [
        "kernel", "config", "params", "seed", "validate", "engine", "obs",
        "sanitize", "label"]


def test_mutating_params_after_hashing_rehashes():
    spec = PINNED["gto"][0]()
    before = spec.content_hash()
    spec.params["n_threads"] = 128
    fresh = RunSpec(kernel="ht", config=make_config("gto"),
                    params=dict(HT, n_threads=128))
    assert spec.content_hash() == fresh.content_hash() != before
    # JSON tells 64 from 64.0 from True; so must the memo.
    spec.params["n_threads"] = 64
    assert spec.content_hash() == before
    spec.params["n_threads"] = 64.0
    assert spec.content_hash() != before
    # A pickle of the mutated spec is validated on arrival too.
    spec.params["n_threads"] = 64
    spec.content_hash()
    arrived = pickle.loads(pickle.dumps(spec))
    arrived.params["block_dim"] = 32
    assert arrived.content_hash() != before
