"""Unit tests for repro.isa.instruction."""

import pytest

from repro.isa import Cond, Encoding, Instruction, MAX_CDP_COVER, Opcode


class TestConstruction:
    def test_simple_alu(self):
        instr = Instruction(Opcode.ADD, dests=(1,), srcs=(2, 3))
        assert instr.kind.value == "alu"
        assert instr.latency == 1
        assert not instr.is_branch
        assert not instr.is_memory
        assert instr.size_bytes == 4

    def test_thumb_size(self):
        instr = Instruction(Opcode.ADD, dests=(1,), srcs=(2,),
                            encoding=Encoding.THUMB16)
        assert instr.size_bytes == 2

    def test_invalid_register_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, dests=(16,), srcs=(0,))

    def test_direct_branch_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.B, cond=Cond.NE)
        Instruction(Opcode.B, cond=Cond.NE, target=3)  # ok
        Instruction(Opcode.B, imm=0)  # ok (switch-branch form)

    def test_bx_is_indirect(self):
        instr = Instruction(Opcode.BX, srcs=(14,))
        assert instr.is_branch

    def test_cdp_requires_cover(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.CDP)
        with pytest.raises(ValueError):
            Instruction(Opcode.CDP, cdp_cover=0)
        with pytest.raises(ValueError):
            Instruction(Opcode.CDP, cdp_cover=MAX_CDP_COVER + 1)
        Instruction(Opcode.CDP, cdp_cover=MAX_CDP_COVER)  # ok

    def test_cdp_cover_only_on_cdp(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, dests=(0,), srcs=(1,), cdp_cover=3)


class TestProperties:
    def test_memory_flags(self):
        load = Instruction(Opcode.LDR, dests=(0,), srcs=(1,))
        store = Instruction(Opcode.STR, srcs=(0, 1))
        assert load.is_load and load.is_memory and not load.is_store
        assert store.is_store and store.is_memory and not store.is_load

    def test_predication(self):
        assert Instruction(Opcode.ADD, dests=(0,), srcs=(1,),
                           cond=Cond.EQ).is_predicated
        assert not Instruction(Opcode.ADD, dests=(0,),
                               srcs=(1,)).is_predicated

    def test_with_encoding_preserves_rest(self):
        instr = Instruction(Opcode.ADD, dests=(1,), srcs=(2,), imm=7)
        thumb = instr.with_encoding(Encoding.THUMB16)
        assert thumb.encoding is Encoding.THUMB16
        assert thumb.opcode is instr.opcode
        assert thumb.imm == 7

    def test_with_uid(self):
        instr = Instruction(Opcode.NOP)
        assert instr.uid == -1
        assert instr.with_uid(42).uid == 42

    def test_copies_keep_every_field_and_revalidate(self):
        instr = Instruction(Opcode.CDP, cdp_cover=3, cond=Cond.EQ,
                            target=5, uid=8)
        thumb = instr.with_encoding(Encoding.THUMB16)
        assert (thumb.cdp_cover, thumb.cond, thumb.target, thumb.uid) \
            == (3, Cond.EQ, 5, 8)
        assert thumb.with_uid(9).encoding is Encoding.THUMB16
        object.__setattr__(instr, "dests", (99,))
        for copy in (lambda: instr.with_uid(1),
                     lambda: instr.with_encoding(Encoding.THUMB16)):
            with pytest.raises(ValueError, match="out of range"):
                copy()

    def test_uid_not_in_equality(self):
        a = Instruction(Opcode.ADD, dests=(0,), srcs=(1,), uid=1)
        b = Instruction(Opcode.ADD, dests=(0,), srcs=(1,), uid=2)
        assert a == b

    def test_signature_ignores_uid_and_encoding(self):
        a = Instruction(Opcode.ADD, dests=(0,), srcs=(1,), uid=1)
        b = Instruction(Opcode.ADD, dests=(0,), srcs=(1,), uid=9,
                        encoding=Encoding.THUMB16)
        assert a.signature() == b.signature()

    def test_signature_distinguishes_operands(self):
        a = Instruction(Opcode.ADD, dests=(0,), srcs=(1,))
        b = Instruction(Opcode.ADD, dests=(0,), srcs=(2,))
        assert a.signature() != b.signature()


class TestRendering:
    def test_to_text_basic(self):
        instr = Instruction(Opcode.ADD, dests=(1,), srcs=(2,), imm=4)
        assert instr.to_text() == "ADD R1, R2, #4"

    def test_to_text_predicated(self):
        instr = Instruction(Opcode.SUB, dests=(0,), srcs=(1,),
                            cond=Cond.NE)
        assert instr.to_text().startswith("SUBNE")

    def test_to_text_thumb_marker(self):
        instr = Instruction(Opcode.MOV, dests=(0,), imm=1,
                            encoding=Encoding.THUMB16)
        assert ".thumb" in instr.to_text()

    def test_to_text_cdp(self):
        instr = Instruction(Opcode.CDP, cdp_cover=5)
        assert "<5>" in instr.to_text()

    def test_to_text_branch_target(self):
        instr = Instruction(Opcode.B, cond=Cond.EQ, target=17)
        assert "@17" in instr.to_text()
