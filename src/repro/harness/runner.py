"""Configuration shorthand for the experiment harness."""

from __future__ import annotations

from typing import Union

from repro.sim.config import BOWSConfig, DDOSConfig, GPUConfig


def make_config(
    scheduler: str = "gto",
    bows: Union[bool, int, str, BOWSConfig, None] = None,
    ddos: Union[bool, DDOSConfig, None] = None,
    preset: str = "fermi",
    **overrides,
) -> GPUConfig:
    """Build a GPU configuration (alias for :meth:`GPUConfig.preset`).

    See :meth:`repro.sim.config.GPUConfig.preset` for the argument
    vocabulary (this wrapper just reorders ``preset`` into a keyword).
    """
    return GPUConfig.preset(
        preset, scheduler=scheduler, bows=bows, ddos=ddos, **overrides
    )
