"""Two-pass assembler for the PTX-like textual assembly.

Syntax (one instruction per line)::

    BB2:                                  // label
        atom.cas %r15, [%rl29], 0, 1 !lock_try
        setp.eq %p2, %r15, 0
    @%p2 bra BB3
        bra BB4
    BB3:
        ...
        exit

* ``// ...`` and ``# ...`` start comments.
* ``@%p`` / ``@!%p`` guard the instruction on a predicate.
* ``[%r5]`` / ``[%r5+8]`` are memory operands; ``[param_name]`` with
  ``ld.param`` reads a kernel parameter.
* ``!role`` annotations (``!lock_try``, ``!sib``, ...) attach metadata
  consumed by the metrics layer; hardware behaviour never depends on them.
* ``bra.uni`` is accepted as an alias for an unguarded ``bra``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import (
    CMP_OPS,
    SPECIAL_REGISTERS,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Operand,
    Param,
    Pred,
    Reg,
    Sreg,
)
from repro.isa.program import Memo, Program


class AssemblyError(ValueError):
    """Raised on malformed assembly input."""

    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


_LABEL_RE = re.compile(r"^([A-Za-z_][\w.$]*):\s*(.*)$")
_GUARD_RE = re.compile(r"^@(!?)%(p\w+)\s+(.*)$")
_ROLE_RE = re.compile(r"\s*!([A-Za-z_][\w]*)\s*$")
_MEM_RE = re.compile(r"^\[\s*%(\w+)\s*(?:\+\s*(-?\w+)\s*)?\]$")
_PARAM_RE = re.compile(r"^\[\s*([A-Za-z_]\w*)\s*\]$")
_INT_RE = re.compile(r"^-?(?:0x[0-9a-fA-F]+|\d+)$")

_OPCODE_BY_NAME: Dict[str, Opcode] = {op.value: op for op in Opcode}


def _strip_comment(line: str) -> str:
    for marker in ("//", "#"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_operand(text: str, line_no: int) -> Operand:
    text = text.strip()
    if not text:
        raise AssemblyError("empty operand", line_no)
    if _INT_RE.match(text):
        return Imm(_parse_int(text))
    mem = _MEM_RE.match(text)
    if mem:
        base, offset = mem.groups()
        return Mem(Reg(base), _parse_int(offset) if offset else 0)
    param = _PARAM_RE.match(text)
    if param:
        return Param(param.group(1))
    if text.startswith("%"):
        name = text[1:]
        if name in SPECIAL_REGISTERS:
            return Sreg(name)
        if re.fullmatch(r"p\w*", name):
            return Pred(name)
        if re.fullmatch(r"\w+", name):
            return Reg(name)
    raise AssemblyError(f"cannot parse operand {text!r}", line_no)


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas that are not inside brackets."""
    parts: List[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p.strip() for p in parts if p.strip()]


def _parse_opcode(mnemonic: str, line_no: int) -> Tuple[Opcode, Optional[str]]:
    mnemonic = mnemonic.lower()
    if mnemonic == "bra.uni":
        return Opcode.BRA, None
    if mnemonic.startswith("setp."):
        cmp = mnemonic.split(".", 1)[1]
        if cmp not in CMP_OPS:
            raise AssemblyError(f"unknown setp comparison {cmp!r}", line_no)
        return Opcode.SETP, cmp
    if mnemonic in _OPCODE_BY_NAME:
        return _OPCODE_BY_NAME[mnemonic], None
    raise AssemblyError(f"unknown opcode {mnemonic!r}", line_no)


# Operand-shape table: opcode -> (has_dst, n_srcs) with None = variable.
_SHAPES: Dict[Opcode, Tuple[bool, Optional[int]]] = {
    Opcode.MOV: (True, 1),
    Opcode.NOT: (True, 1),
    Opcode.ADD: (True, 2),
    Opcode.SUB: (True, 2),
    Opcode.MUL: (True, 2),
    Opcode.DIV: (True, 2),
    Opcode.REM: (True, 2),
    Opcode.AND: (True, 2),
    Opcode.OR: (True, 2),
    Opcode.XOR: (True, 2),
    Opcode.SHL: (True, 2),
    Opcode.SHR: (True, 2),
    Opcode.MIN: (True, 2),
    Opcode.MAX: (True, 2),
    Opcode.MAD: (True, 3),
    Opcode.SELP: (True, 3),
    Opcode.SETP: (True, 2),
    Opcode.LD_GLOBAL: (True, 1),
    Opcode.LD_GLOBAL_CG: (True, 1),
    Opcode.LD_PARAM: (True, 1),
    Opcode.ST_GLOBAL: (True, 1),  # dst = Mem, src = value
    Opcode.ATOM_CAS: (True, 3),
    Opcode.ATOM_EXCH: (True, 2),
    Opcode.ATOM_ADD: (True, 2),
    Opcode.ATOM_MIN: (True, 2),
    Opcode.ATOM_MAX: (True, 2),
    Opcode.CLOCK: (True, 0),
    Opcode.BRA: (False, 0),
    Opcode.EXIT: (False, 0),
    Opcode.BAR_SYNC: (False, 0),
    Opcode.MEMBAR: (False, 0),
    Opcode.NOP: (False, 0),
}


def _parse_line(body: str, line_no: int) -> Instruction:
    guard: Optional[Pred] = None
    guard_negated = False
    guard_match = _GUARD_RE.match(body)
    if guard_match:
        negated, pred_name, body = guard_match.groups()
        guard = Pred(pred_name)
        guard_negated = bool(negated)

    roles: List[str] = []
    while True:
        role_match = _ROLE_RE.search(body)
        if not role_match:
            break
        roles.insert(0, role_match.group(1))
        body = body[: role_match.start()]

    body = body.strip()
    if not body:
        raise AssemblyError("guard or role with no instruction", line_no)

    pieces = body.split(None, 1)
    mnemonic = pieces[0]
    operand_text = pieces[1] if len(pieces) > 1 else ""
    opcode, cmp = _parse_opcode(mnemonic, line_no)

    if opcode is Opcode.BRA:
        target = operand_text.strip()
        if not target or "," in target:
            raise AssemblyError("bra expects exactly one label", line_no)
        return Instruction(
            opcode=opcode,
            guard=guard,
            guard_negated=guard_negated,
            target=target,
            roles=tuple(roles),
        )

    operands = [_parse_operand(t, line_no) for t in _split_operands(operand_text)]
    has_dst, n_srcs = _SHAPES[opcode]
    dst: Optional[Operand] = None
    if has_dst:
        if not operands:
            raise AssemblyError(f"{mnemonic} requires a destination", line_no)
        dst = operands.pop(0)
    if n_srcs is not None and len(operands) != n_srcs:
        raise AssemblyError(
            f"{mnemonic} expects {n_srcs} source operand(s), got {len(operands)}",
            line_no,
        )

    instr = Instruction(
        opcode=opcode,
        cmp=cmp,
        dst=dst,
        srcs=tuple(operands),
        guard=guard,
        guard_negated=guard_negated,
        roles=tuple(roles),
    )
    _validate(instr, mnemonic, line_no)
    return instr


def _validate(instr: Instruction, mnemonic: str, line_no: int) -> None:
    op = instr.opcode
    if op is Opcode.SETP and not isinstance(instr.dst, Pred):
        raise AssemblyError("setp destination must be a predicate", line_no)
    if op is Opcode.SELP and not isinstance(instr.srcs[2], Pred):
        raise AssemblyError("selp third operand must be a predicate", line_no)
    if op in (Opcode.LD_GLOBAL, Opcode.LD_GLOBAL_CG) and not isinstance(
        instr.srcs[0], Mem
    ):
        raise AssemblyError(f"{mnemonic} source must be a memory operand", line_no)
    if op is Opcode.ST_GLOBAL and not isinstance(instr.dst, Mem):
        raise AssemblyError("st.global destination must be a memory operand", line_no)
    if op is Opcode.LD_PARAM and not isinstance(instr.srcs[0], Param):
        raise AssemblyError("ld.param source must be [param_name]", line_no)
    if instr.is_atomic and not isinstance(instr.srcs[0], Mem):
        raise AssemblyError(f"{mnemonic} first source must be a memory operand", line_no)


#: How many ``(text, name)`` assemblies the process keeps.
ASSEMBLY_MEMO_SIZE = 64

_assembled = Memo(ASSEMBLY_MEMO_SIZE)


def assemble(text: str, name: str = "kernel") -> Program:
    """Assemble ``text`` into a :class:`~repro.isa.program.Program`.

    The process's one ``Program`` per ``(text, name)``, kept in a bounded,
    thread-safe LRU: it and its decodings (:func:`repro.sim.executor.
    decode_program`) are shared by every run and thread in the process
    and never mutated after construction.

    Raises:
        AssemblyError: on syntax errors, duplicate labels, or unresolved
            branch targets.
    """
    return _assembled.get((text, name), lambda: _assemble(text, name))


def _assemble(text: str, name: str) -> Program:
    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    pending_labels: List[str] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            label, rest = label_match.groups()
            if label in labels or label in pending_labels:
                raise AssemblyError(f"duplicate label {label!r}", line_no)
            pending_labels.append(label)
            line = rest.strip()
            if not line:
                continue
        instr = _parse_line(line, line_no)
        instr.index = len(instructions)
        if pending_labels:
            instr.label = pending_labels[0]
            for label in pending_labels:
                labels[label] = instr.index
            pending_labels = []
        instructions.append(instr)

    if pending_labels:
        raise AssemblyError(f"label {pending_labels[0]!r} at end of program")
    if not instructions:
        raise AssemblyError("empty program")

    for instr in instructions:
        if instr.target is not None:
            if instr.target not in labels:
                raise AssemblyError(f"undefined branch target {instr.target!r}")
            instr.target_index = labels[instr.target]

    return Program(name=name, instructions=instructions, labels=labels)
