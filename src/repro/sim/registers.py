"""Per-warp vector register file.

Each architectural register holds one 32-bit value per lane; values are
stored as ``numpy.int64`` lane vectors and wrapped to signed 32-bit on
write, so ALU semantics match PTX ``.s32``/``.b32`` arithmetic.
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


def wrap_i32(values: np.ndarray) -> np.ndarray:
    """Wrap int64 lane values to signed 32-bit two's complement."""
    # The narrowing cast keeps bits 0..31 and the widening cast
    # sign-extends them: two C-level calls, no temporaries to mask.
    return values.astype(np.int32).astype(np.int64)


class RegisterFile:
    """Vector registers and predicate registers for one warp."""

    def __init__(self, warp_size: int, reg_names: Iterable[str],
                 pred_names: Iterable[str]) -> None:
        self.warp_size = warp_size
        #: name -> int64 lane vector / bool lane vector.  Part of the
        #: contract: both dicts and every array in them are updated in
        #: place, never rebound, so the decoded handlers read and
        #: write them directly (a write there must wrap through int32
        #: exactly as :meth:`write` does).
        self.values: Dict[str, np.ndarray] = {
            name: np.zeros(warp_size, dtype=np.int64) for name in reg_names
        }
        self.pred_values: Dict[str, np.ndarray] = {
            name: np.zeros(warp_size, dtype=bool) for name in pred_names
        }

    def read(self, name: str) -> np.ndarray:
        """Lane vector for register ``name`` (do not mutate)."""
        return self.values[name]

    def write(self, name: str, values: np.ndarray, mask: np.ndarray) -> None:
        """Write ``values`` into lanes selected by ``mask``."""
        # In place, wrapped exactly once: the int32 cast is the wrap
        # and ``copyto`` widens it back.  The cast also makes a copy, so
        # ``values`` may alias the destination (``mov r1, r1``).
        copyto(
            self.values[name],
            np.asarray(values, dtype=np.int64).astype(np.int32),
            where=mask,
        )

    def read_pred(self, name: str) -> np.ndarray:
        return self.pred_values[name]

    def write_pred(self, name: str, values: np.ndarray,
                   mask: np.ndarray) -> None:
        copyto(self.pred_values[name], values, where=mask,
               casting="unsafe")
