"""Unit tests for repro.isa.registers."""

import pytest

from repro.isa import registers as regs


class TestRegisterNames:
    def test_general_purpose_names(self):
        assert regs.register_name(0) == "R0"
        assert regs.register_name(10) == "R10"

    def test_special_names(self):
        assert regs.register_name(regs.SP) == "SP"
        assert regs.register_name(regs.LR) == "LR"
        assert regs.register_name(regs.PC) == "PC"

    def test_invalid_register_raises(self):
        with pytest.raises(ValueError):
            regs.register_name(16)
        with pytest.raises(ValueError):
            regs.register_name(-1)


class TestValidation:
    def test_accepts_all_sixteen(self):
        for r in range(regs.NUM_REGISTERS):
            assert regs.validate_register(r) == r

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            regs.validate_register(True)

    def test_rejects_non_int(self):
        with pytest.raises(ValueError):
            regs.validate_register("R1")


class TestThumbRegisters:
    def test_eleven_thumb_registers(self):
        assert regs.NUM_THUMB_REGISTERS == 11
        assert len(regs.THUMB_REGISTERS) == 11

    def test_low_registers_are_thumb(self):
        for r in range(11):
            assert regs.is_thumb_register(r)

    def test_high_registers_are_not(self):
        for r in range(11, 16):
            assert not regs.is_thumb_register(r)

    def test_all_thumb_registers_helper(self):
        assert regs.all_thumb_registers([0, 5, 10])
        assert not regs.all_thumb_registers([0, 11])
        assert regs.all_thumb_registers([])


class TestFastPathFallThrough:
    """In-range ints take a table fast path; every other input reaches
    the full checks and raises exactly what ``validate_register`` does."""

    @pytest.mark.parametrize("fn", [regs.register_name,
                                    regs.validate_register,
                                    regs.is_thumb_register])
    @pytest.mark.parametrize("bad", [True, False, 16, -1, "R1", 1.0, None])
    def test_bad_inputs_raise_the_validation_error(self, fn, bad):
        with pytest.raises(ValueError) as expected:
            regs.validate_register(bad)
        with pytest.raises(ValueError, match=str(expected.value)):
            fn(bad)

    def test_names_table_matches_every_register(self):
        names = [regs.register_name(r) for r in range(regs.NUM_REGISTERS)]
        assert names == [f"R{r}" for r in range(13)] + ["SP", "LR", "PC"]
