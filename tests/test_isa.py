"""Unit and property tests for the command ISA (repro.isa)."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    FIELD_LAYOUTS,
    Instruction,
    IsaError,
    Opcode,
    assemble,
    decode,
    decode_program,
    disassemble,
    encode,
    encode_program,
    lower_task,
)
from repro.isa.instructions import make
from repro.isa.lower import lower_spawn
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.mergesort import MergesortWorkload
from repro.graph import recover_structure


def random_instruction_strategy():
    """Hypothesis strategy: any valid instruction with in-range fields."""

    def build(opcode_index: int, raw: list[int]) -> Instruction:
        opcode = list(Opcode)[opcode_index % len(Opcode)]
        layout = FIELD_LAYOUTS[opcode]
        operands = {}
        for i, (name, width) in enumerate(layout):
            operands[name] = raw[i % len(raw)] % (1 << width)
        return Instruction(opcode, operands)

    return st.builds(build, st.integers(min_value=0, max_value=100),
                     st.lists(st.integers(min_value=0, max_value=2**20),
                              min_size=1, max_size=6))


class TestInstruction:
    def test_valid_construction(self):
        ins = make(Opcode.SIN, port=3, addr=100, length=8, locality=2)
        assert ins.get("port") == 3

    def test_missing_operand_rejected(self):
        with pytest.raises(IsaError, match="expects operands"):
            make(Opcode.SIN, port=3)

    def test_extra_operand_rejected(self):
        with pytest.raises(IsaError):
            make(Opcode.BAR, bogus=1)

    def test_field_overflow_rejected(self):
        with pytest.raises(IsaError, match="does not fit"):
            make(Opcode.CFG, dfg=1 << 10)

    def test_render(self):
        assert make(Opcode.BAR).render() == "bar"
        assert "dfg=5" in make(Opcode.CFG, dfg=5).render()

    def test_layouts_fit_in_word(self):
        for opcode, layout in FIELD_LAYOUTS.items():
            assert 6 + sum(w for _n, w in layout) <= 32, opcode


class TestEncoding:
    def test_known_encoding(self):
        # BAR: opcode 0x07 in top 6 bits of a 32-bit word.
        assert encode(make(Opcode.BAR)) == 0x07 << 26

    def test_round_trip_examples(self):
        examples = [
            make(Opcode.CFG, dfg=17),
            make(Opcode.SIN, port=2, addr=512, length=16, locality=3),
            make(Opcode.TSPAWN, ttype=9, argb=123),
            make(Opcode.TWORK, estimate=60000),
            make(Opcode.TRET),
        ]
        for ins in examples:
            assert decode(encode(ins)) == ins

    @given(random_instruction_strategy())
    def test_round_trip_property(self, ins):
        assert decode(encode(ins)) == ins

    def test_unknown_opcode_rejected(self):
        with pytest.raises(IsaError, match="unknown opcode"):
            decode(0x3F << 26)

    def test_nonzero_padding_rejected(self):
        word = encode(make(Opcode.BAR)) | 0x1
        with pytest.raises(IsaError, match="padding"):
            decode(word)

    def test_word_out_of_range(self):
        with pytest.raises(IsaError):
            decode(1 << 32)

    def test_program_round_trip(self):
        program = [make(Opcode.CFG, dfg=1), make(Opcode.BAR),
                   make(Opcode.TRET)]
        blob = encode_program(program)
        assert len(blob) == 12
        assert decode_program(blob) == program

    def test_misaligned_program_rejected(self):
        with pytest.raises(IsaError, match="word-aligned"):
            decode_program(b"\x00\x00\x00")


class TestAssembler:
    def test_assemble_basic(self):
        program = assemble("""
            cfg dfg=3
            sin port=0, addr=0x40, length=4, locality=3
            bar   # wait for the stream
            tret
        """)
        assert [i.opcode for i in program] == [
            Opcode.CFG, Opcode.SIN, Opcode.BAR, Opcode.TRET]
        assert program[1].get("addr") == 0x40

    def test_assemble_disassemble_round_trip(self):
        program = [
            make(Opcode.TSPAWN, ttype=1, argb=2),
            make(Opcode.TWORK, estimate=99),
            make(Opcode.TSTREAM, producer=7),
            make(Opcode.TCOMMIT),
        ]
        assert assemble(disassemble(program)) == program

    def test_unknown_mnemonic(self):
        with pytest.raises(IsaError, match="unknown mnemonic"):
            assemble("frobnicate a=1")

    def test_bad_operand_syntax(self):
        with pytest.raises(IsaError, match="name=value"):
            assemble("cfg 3")

    def test_bad_integer(self):
        with pytest.raises(IsaError, match="bad integer"):
            assemble("cfg dfg=zzz")

    def test_operand_mismatch_reports_line(self):
        with pytest.raises(IsaError, match="line 2"):
            assemble("bar\ncfg dfg=1, extra=2")

    def test_comments_and_blanks_ignored(self):
        assert assemble("\n# only a comment\n\n") == []


class TestLowering:
    def test_lower_spmv_task(self):
        program = SpmvWorkload(num_rows=32, num_cols=64).build_program()
        task = program.initial_tasks[0]
        commands = lower_task(task)
        opcodes = [c.opcode for c in commands]
        assert opcodes[0] == Opcode.CFG
        assert Opcode.TSHARE in opcodes      # shared x declared
        assert Opcode.SRD in opcodes         # read resident copy
        assert Opcode.SIN in opcodes         # private CSR slice
        assert opcodes[-1] == Opcode.TRET
        assert opcodes[-2] == Opcode.BAR

    def test_lower_pipelined_task_emits_forward(self):
        program = MergesortWorkload(n=512, leaf=128).build_program()
        expanded = recover_structure(program)
        producer = next(t for t in expanded.tasks if t.stream_consumers)
        commands = lower_task(producer)
        assert Opcode.SFWD in [c.opcode for c in commands]

    def test_lower_consumer_declares_stream_deps(self):
        program = MergesortWorkload(n=512, leaf=128).build_program()
        expanded = recover_structure(program)
        consumer = next(t for t in expanded.tasks if t.stream_from)
        commands = lower_task(consumer)
        assert Opcode.TSTREAM in [c.opcode for c in commands]

    def test_lowered_commands_encode(self):
        program = SpmvWorkload(num_rows=32, num_cols=64).build_program()
        for task in program.initial_tasks[:4]:
            commands = lower_task(task)
            assert decode_program(encode_program(commands)) == commands

    def test_spawn_block_shape(self):
        program = SpmvWorkload(num_rows=32, num_cols=64).build_program()
        block = lower_spawn(program.initial_tasks[0])
        opcodes = [c.opcode for c in block]
        assert opcodes[0] == Opcode.TSPAWN
        assert Opcode.TWORK in opcodes
        assert opcodes[-1] == Opcode.TCOMMIT
