"""Program container: basic blocks, CFG, and reconvergence-point analysis.

Stack-based SIMT hardware (pre-Volta NVIDIA, AMD GCN) reconverges divergent
warps at the *immediate post-dominator* (IPDOM) of the divergent branch.
The assembler-produced :class:`Program` computes each conditional branch's
reconvergence instruction index at build time using a post-dominator
analysis over the CFG (:func:`immediate_dominators` on the reversed graph),
exactly the information GPGPU-Sim precomputes per kernel.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from repro.isa.instructions import Instruction, Opcode

#: Sentinel reconvergence index meaning "reconverge at thread exit".
RECONVERGE_AT_EXIT = -1

_VIRTUAL_EXIT = "__exit__"

#: Held while a :class:`Memo` builds an entry, so concurrent misses on
#: one key build it once; a forked child gets a fresh one.
_build_lock = threading.RLock()


def _fresh_build_lock() -> None:
    global _build_lock
    _build_lock = threading.RLock()


os.register_at_fork(after_in_child=_fresh_build_lock)


class Memo:
    """A bounded, thread-safe LRU map: ``get(key, build)`` calls
    ``build()`` once per key it keeps, dropping the least recently used
    entry past ``maxsize``."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict" = OrderedDict()

    def get(self, key, build):
        with _build_lock:
            entries = self._entries
            value = entries.get(key)
            if value is None:
                value = entries[key] = build()
                if len(entries) > self.maxsize:
                    entries.popitem(last=False)
            else:
                entries.move_to_end(key)
            return value


def immediate_dominators(succ: Dict[Hashable, List[Hashable]],
                         root: Hashable) -> Dict[Hashable, Hashable]:
    """Each node's immediate dominator in the graph ``succ`` (node →
    successor list), for the nodes reachable from ``root``; ``root``
    itself has none and is left out.

    The dominator sets are the greatest fixpoint of ``dom(n) = {n} ∪
    ⋂ dom(p)`` over ``n``'s reachable predecessors ``p``.  A node's
    strict dominators form a chain, so its immediate dominator is the
    one with the most dominators of its own.
    """
    reach, stack = {root: []}, [root]  # reachable node -> predecessors
    while stack:
        node = stack.pop()
        for succ_node in succ[node]:
            if succ_node not in reach:
                reach[succ_node] = []
                stack.append(succ_node)
            reach[succ_node].append(node)
    dom = {node: set(reach) for node in reach}
    dom[root] = {root}
    changed = True
    while changed:
        changed = False
        for node, preds in reach.items():
            if node != root:
                new = set.intersection(*(dom[p] for p in preds)) | {node}
                if new != dom[node]:
                    dom[node], changed = new, True
    return {node: max(dom[node] - {node}, key=lambda d: len(dom[d]))
            for node in reach if node != root}


#: Instance attributes derived from a program and memoized on it.
_MEMOS = ("_registers", "_predicates", "_decoded_cache")


@dataclass
class BasicBlock:
    """A maximal straight-line code region."""

    index: int
    start: int  # first instruction index
    end: int    # last instruction index (inclusive)
    successors: Tuple[int, ...] = ()

    def __contains__(self, instr_index: int) -> bool:
        return self.start <= instr_index <= self.end


@dataclass
class Program:
    """An assembled kernel: instructions plus control-flow metadata."""

    name: str
    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    blocks: List[BasicBlock] = field(init=False, default_factory=list)
    #: Reconvergence instruction index for each conditional branch,
    #: keyed by branch instruction index.
    reconvergence: Dict[int, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._validate()
        self._build_blocks()
        self._compute_reconvergence()
        self._annotate_hazards()

    def __getstate__(self):
        """Checkpointing: drop the derived memos — register names and
        decodings (closure-bound handlers; see :func:`repro.sim.executor.
        decode_program`) — rebuilt deterministically on demand."""
        state = self.__dict__.copy()
        for memo in _MEMOS:
            state.pop(memo, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Queries

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @property
    def static_size(self) -> int:
        return len(self.instructions)

    def block_of(self, instr_index: int) -> BasicBlock:
        for block in self.blocks:
            if instr_index in block:
                return block
        raise IndexError(instr_index)

    def reconvergence_point(self, branch_index: int) -> int:
        """Reconvergence instruction index for a conditional branch.

        Returns ``RECONVERGE_AT_EXIT`` when the paths only rejoin at thread
        exit.
        """
        return self.reconvergence[branch_index]

    def true_sibs(self) -> Set[int]:
        """Ground-truth spin-inducing branch indices (``!sib`` annotations)."""
        return {i.index for i in self.instructions if i.has_role("sib")}

    def backward_branches(self) -> Set[int]:
        return {i.index for i in self.instructions if i.is_backward_branch}

    # -- loop structure -------------------------------------------------

    def back_edges(self) -> Set[Tuple[int, int]]:
        """CFG back edges as ``(tail_block, head_block)`` pairs.

        An edge is a back edge iff its head *dominates* its tail in the
        forward CFG rooted at block 0.  Every block dominates itself, so
        a single-block self-loop contributes the edge ``(b, b)`` — the
        same loop that the instruction-level view reports through
        :meth:`backward_branches` (whose ``target_index <= index`` test
        admits the equality case).  Before this method existed the two
        views disagreed on single-block self-loops depending on which
        one a caller consulted; this is the normalized, dominance-based
        answer.  Unreachable blocks have no dominator and contribute no
        back edges.
        """
        idom = immediate_dominators(self._cfg(), 0)
        edges: Set[Tuple[int, int]] = set()
        for block in self.blocks:
            for succ in block.successors:
                if self._dominates(succ, block.index, idom):
                    edges.add((block.index, succ))
        return edges

    @staticmethod
    def _dominates(a: int, b: int, idom: Dict) -> bool:
        """Does block ``a`` dominate block ``b`` (per an idom tree)?"""
        node = b
        while True:
            if node == a:
                return True
            node = idom.get(node)
            if node is None:
                return False

    def loop_back_branches(self) -> Set[int]:
        """Instruction indices of branches that close a natural loop.

        A subset of :meth:`backward_branches`: a dominance back edge in
        a program laid out by the assembler always targets an
        instruction at or before the branch, but an index-backward
        branch into a block that does *not* dominate it (a cross edge
        in irreducible control flow) is excluded here.
        """
        out: Set[int] = set()
        for tail, head in self.back_edges():
            last = self.instructions[self.blocks[tail].end]
            if last.is_branch and last.target_index == self.blocks[head].start:
                out.add(last.index)
        return out

    def natural_loop(self, tail: int, head: int) -> Set[int]:
        """Block indices of the natural loop of back edge ``(tail, head)``.

        The loop body is ``head`` plus every block that can reach
        ``tail`` without passing through ``head``.  For a self-loop
        (``tail == head``) the body is the single block.
        """
        preds: Dict[int, List[int]] = {b.index: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors:
                preds[succ].append(block.index)
        loop = {head, tail}
        stack = [tail] if tail != head else []
        while stack:
            node = stack.pop()
            for pred in preds[node]:
                if pred not in loop:
                    loop.add(pred)
                    stack.append(pred)
        return loop

    def natural_loops(self) -> Dict[Tuple[int, int], Set[int]]:
        """Every natural loop keyed by its ``(tail, head)`` back edge."""
        return {
            (tail, head): self.natural_loop(tail, head)
            for tail, head in self.back_edges()
        }

    def registers(self) -> FrozenSet[str]:
        """Names of all general-purpose registers the program touches."""
        return self._names("_registers", "r:")

    def predicates(self) -> FrozenSet[str]:
        return self._names("_predicates", "p:")

    def _names(self, memo: str, prefix: str) -> FrozenSet[str]:
        # Every operand's name is in some instruction's hazard keys.
        names = self.__dict__.get(memo)
        if names is None:
            names = self.__dict__[memo] = frozenset(
                key[2:] for instr in self.instructions
                for key in instr.hazard_keys if key.startswith(prefix))
        return names

    def to_text(self) -> str:
        """Disassemble back to (re-assemblable) text."""
        lines = []
        for instr in self.instructions:
            if instr.label:
                lines.append(f"{instr.label}:")
            lines.append(f"    {instr}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Construction helpers

    def _validate(self) -> None:
        if not self.instructions:
            raise ValueError("program has no instructions")
        last = self.instructions[-1]
        falls_off = not (
            last.opcode is Opcode.EXIT
            or (last.is_branch and last.guard is None)
        )
        if falls_off:
            raise ValueError(
                f"program {self.name!r} can fall off the end; "
                "terminate with 'exit' or an unconditional branch"
            )
        if not any(i.opcode is Opcode.EXIT for i in self.instructions):
            raise ValueError(f"program {self.name!r} has no 'exit' instruction")

    def _build_blocks(self) -> None:
        n = len(self.instructions)
        leaders = {0}
        for instr in self.instructions:
            if instr.is_branch:
                assert instr.target_index is not None
                leaders.add(instr.target_index)
                if instr.index + 1 < n:
                    leaders.add(instr.index + 1)
            elif instr.opcode is Opcode.EXIT and instr.index + 1 < n:
                leaders.add(instr.index + 1)
        starts = sorted(leaders)
        self.blocks = []
        start_to_block: Dict[int, int] = {}
        for bi, start in enumerate(starts):
            end = (starts[bi + 1] - 1) if bi + 1 < len(starts) else n - 1
            self.blocks.append(BasicBlock(index=bi, start=start, end=end))
            start_to_block[start] = bi
        for block in self.blocks:
            last = self.instructions[block.end]
            succs: List[int] = []
            if last.is_branch:
                succs.append(start_to_block[last.target_index])
                if last.guard is not None and block.end + 1 < n:
                    succs.append(start_to_block[block.end + 1])
            elif last.opcode is Opcode.EXIT:
                # The edge to the virtual exit is added in the CFG; the
                # lanes a guarded exit leaves behind fall through.
                if last.guard is not None and block.end + 1 < n:
                    succs.append(start_to_block[block.end + 1])
            elif block.end + 1 < n:
                succs.append(start_to_block[block.end + 1])
            block.successors = tuple(dict.fromkeys(succs))

    def _annotate_hazards(self) -> None:
        """Precompute scoreboard keys per instruction (hot-path cache).

        Register and predicate namespaces are distinct, so keys are
        prefixed ``r:`` / ``p:``.
        """
        from repro.isa.instructions import Mem, Pred, Reg

        for instr in self.instructions:
            keys = []
            for operand in (*instr.srcs, instr.dst):
                if isinstance(operand, Reg):
                    keys.append("r:" + operand.name)
                elif isinstance(operand, Pred):
                    keys.append("p:" + operand.name)
                elif isinstance(operand, Mem):
                    keys.append("r:" + operand.base.name)
            if instr.guard is not None:
                keys.append("p:" + instr.guard.name)
            instr.hazard_keys = tuple(dict.fromkeys(keys))
            if isinstance(instr.dst, Reg):
                instr.dst_key = "r:" + instr.dst.name
            elif isinstance(instr.dst, Pred):
                instr.dst_key = "p:" + instr.dst.name
            else:
                instr.dst_key = None

    def _cfg(self) -> Dict[Hashable, List[Hashable]]:
        """Block index → successor list; an ``exit`` block also points
        to the virtual exit node."""
        graph: Dict[Hashable, List[Hashable]] = {_VIRTUAL_EXIT: []}
        for block in self.blocks:
            graph[block.index] = list(block.successors)
            if self.instructions[block.end].opcode is Opcode.EXIT:
                graph[block.index].append(_VIRTUAL_EXIT)
        return graph

    def _compute_reconvergence(self) -> None:
        # Post-dominators = dominators of the reversed CFG rooted at exit.
        graph = self._cfg()
        reversed_graph = {node: [] for node in graph}
        for node, succs in graph.items():
            for succ in succs:
                reversed_graph[succ].append(node)
        ipdom = immediate_dominators(reversed_graph, _VIRTUAL_EXIT)
        for block in self.blocks:
            last = self.instructions[block.end]
            if not last.is_conditional_branch:
                continue
            node = ipdom.get(block.index)
            if node is None or node == _VIRTUAL_EXIT:
                self.reconvergence[block.end] = RECONVERGE_AT_EXIT
            else:
                self.reconvergence[block.end] = self.blocks[node].start
