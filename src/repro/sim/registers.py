"""Per-warp vector register file.

Each architectural register holds one 32-bit value per lane; values are
stored as ``numpy.int64`` lane vectors and wrapped to signed 32-bit on
write, so ALU semantics match PTX ``.s32``/``.b32`` arithmetic.  The
decoded handlers (:mod:`repro.sim.executor`) do every read and write.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

# The per-issue NumPy calls, bound once to their C implementations: on
# a 32-lane mask the public ``np.count_nonzero`` and ``np.copyto`` are
# Python wrappers costing about 4x / 2x the C call they forward.  NumPy
# < 2 has neither private path and gets the public names.  The C count
# returns ``np.int64``: ``int()`` it before it reaches ``SimStats``.
try:
    from numpy._core.multiarray import count_nonzero
    copyto = np.copyto._implementation
except (ImportError, AttributeError):  # pragma: no cover - NumPy < 2
    count_nonzero = np.count_nonzero
    copyto = np.copyto


class RegisterFile:
    """Vector registers and predicate registers for one warp."""

    def __init__(self, warp_size: int, reg_names: Iterable[str],
                 pred_names: Iterable[str]) -> None:
        self.warp_size = warp_size
        #: name -> int64 lane vector / bool lane vector.  Part of the
        #: contract: both dicts and every array in them are updated in
        #: place, never rebound, so the decoded handlers read and
        #: write them directly.  A register write wraps through int32
        #: (``copyto(dst, values.astype(np.int32), where=exec_mask)``).
        self.values: Dict[str, np.ndarray] = {
            name: np.zeros(warp_size, dtype=np.int64) for name in reg_names
        }
        self.pred_values: Dict[str, np.ndarray] = {
            name: np.zeros(warp_size, dtype=bool) for name in pred_names
        }
