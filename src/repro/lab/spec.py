"""RunSpec: one simulation, fully described, with a stable content hash.

A :class:`RunSpec` is the unit of work of the lab: kernel name, workload
parameters, the full :class:`~repro.sim.config.GPUConfig`, an optional
seed, and whether to run post-execution validation.  Two specs that
describe the same simulation hash identically, so the result cache can
recognize repeated work across processes and CLI invocations.

Hashing is content-addressed: the spec is serialized to canonical JSON
(sorted keys, nested config dataclasses expanded) and digested with
SHA-256.  Anything that can change the simulation's outcome must be in
the hash; presentation-only fields (``label``) are excluded.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.analysis.sanitizer import SanitizerConfig
from repro.obs import ObsConfig
from repro.sim.config import (BOWSConfig, CacheConfig, DDOSConfig, GPUConfig,
                              PerturbConfig)


_SCALARS = frozenset((int, float, str, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def dataclass_to_dict(obj: Any) -> Dict[str, Any]:
    """``dataclasses.asdict`` for a dataclass whose leaves are scalars or
    such dataclasses: same keys, same order, same values.

    ``asdict`` deep-copies every leaf, which on a per-request path costs
    more than hashing the result; a scalar needs no copy.  A container
    field would be *shared* by this shortcut, so it is refused rather
    than aliased.
    """
    data = {}
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        if type(value) in _SCALARS:
            data[name] = value
        elif dataclasses.is_dataclass(value):
            data[name] = dataclass_to_dict(value)
        elif isinstance(value, (list, tuple, dict, set)):
            raise TypeError(
                f"{type(obj).__name__}.{name} is a {type(value).__name__}: "
                "dataclass_to_dict serializes scalar leaves only")
        else:  # numpy scalars and the like: what asdict does with a leaf
            data[name] = copy.deepcopy(value)
    return data


def config_to_dict(config: GPUConfig) -> Dict[str, Any]:
    """Serialize a :class:`GPUConfig` (and nested configs) to plain data."""
    return dataclass_to_dict(config)


def config_from_dict(data: Dict[str, Any]) -> GPUConfig:
    """Rebuild a :class:`GPUConfig` from :func:`config_to_dict` output."""
    data = dict(data)
    data["l1d"] = CacheConfig(**data["l1d"])
    data["l2"] = CacheConfig(**data["l2"])
    data["bows"] = BOWSConfig(**data["bows"]) if data.get("bows") else None
    data["ddos"] = DDOSConfig(**data["ddos"]) if data.get("ddos") else None
    if data.get("perturb"):
        data["perturb"] = PerturbConfig(**data["perturb"])
    else:
        data.pop("perturb", None)
    return GPUConfig(**data)


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


def _json_default(value: Any):
    # numpy scalars leak into stats/params occasionally; store them as
    # plain numbers rather than failing the dump.
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON-serializable: {value!r}")


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation: kernel + params + config (+ seed)."""

    kernel: str
    config: GPUConfig
    params: Dict[str, int] = field(default_factory=dict)
    #: Folded into the workload build as a ``seed=`` parameter when set.
    seed: Optional[int] = None
    #: Run the workload's functional validation after simulation.
    validate: bool = True
    #: Execution engine.  ``"fast"`` is the one that runs anything; the
    #: field stays plain hashed data (so existing spec hashes hold) and
    #: ``GPU`` refuses any other value when the spec runs.
    engine: str = "fast"
    #: Observability collection for this run (:class:`repro.obs.ObsConfig`).
    #: Collection never changes the simulation outcome, but it changes
    #: what the cached :class:`~repro.lab.results.RunResult` carries, so
    #: a set ``obs`` IS part of the hash (None keeps pre-obs hashes).
    obs: Optional[ObsConfig] = None
    #: Dynamic sanitizer for this run
    #: (:class:`repro.analysis.SanitizerConfig`).  Like ``obs``: never
    #: changes the outcome, but changes what the cached result carries,
    #: so a set ``sanitize`` IS part of the hash (None keeps old hashes).
    sanitize: Optional["SanitizerConfig"] = None
    #: Display name for progress/journals; NOT part of the hash.
    label: Optional[str] = None

    def build_params(self) -> Dict[str, int]:
        """Workload-builder keyword arguments (seed folded in)."""
        params = dict(self.params)
        if self.seed is not None:
            params["seed"] = self.seed
        return params

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "kernel": self.kernel,
            "config": config_to_dict(self.config),
            "params": dict(self.params),
            "seed": self.seed,
            "validate": self.validate,
            "engine": self.engine,
        }
        # Included only when set so every pre-obs spec hash is unchanged.
        if self.obs is not None:
            data["obs"] = self.obs.to_dict()
        if self.sanitize is not None:
            data["sanitize"] = self.sanitize.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  label: Optional[str] = None) -> "RunSpec":
        return cls(
            kernel=data["kernel"],
            config=config_from_dict(data["config"]),
            params=dict(data.get("params", {})),
            seed=data.get("seed"),
            validate=data.get("validate", True),
            engine=data.get("engine", "fast"),
            obs=(ObsConfig.from_dict(data["obs"])
                 if data.get("obs") else None),
            sanitize=(SanitizerConfig.from_dict(data["sanitize"])
                      if data.get("sanitize") else None),
            label=label,
        )

    def content_hash(self) -> str:
        """Stable SHA-256 over everything that affects the simulation.

        Computed once per spec and kept on the instance, outside the
        dataclass fields: ``replace``, ``==``, ``repr`` and ``from_dict``
        never see it, a pickle carries it to the pool worker.  Every
        field is frozen except the ``params`` dict, so the memo is kept
        with the ``repr`` of the params it hashed and is only as good as
        that still matching.
        """
        params = repr(self.params)
        memo = self.__dict__.get("_hash_memo")
        if memo is None or memo[0] != params:
            memo = (params, hashlib.sha256(
                _canonical_json(self.to_dict()).encode("utf-8")
            ).hexdigest())
            object.__setattr__(self, "_hash_memo", memo)
        return memo[1]

    @property
    def display(self) -> str:
        return self.label or f"{self.kernel}:{self.content_hash()[:10]}"
