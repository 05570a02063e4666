//! IA-32 machine-code decoder.
//!
//! Decodes the instruction subset emitted by [`crate::encode`], plus the
//! short (`rel8`) branch forms and accumulator shortcuts real compilers
//! emit. Used by the interpreter, the translator's code discovery, and
//! the disassembler-style debug output.

use crate::flags::{Cond, Size};
use crate::inst::*;
use crate::regs::{Gpr, Mm, Xmm};

/// Errors from decoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Ran out of bytes mid-instruction.
    Truncated,
    /// An opcode outside the supported subset.
    UnsupportedOpcode {
        /// The offending opcode byte.
        opcode: u8,
        /// True if it was on the `0F` escape page.
        two_byte: bool,
    },
    /// A ModRM `/digit` combination outside the subset.
    UnsupportedForm {
        /// The opcode byte.
        opcode: u8,
        /// The ModRM `reg` field.
        digit: u8,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction truncated"),
            DecodeError::UnsupportedOpcode { opcode, two_byte } => {
                if *two_byte {
                    write!(f, "unsupported opcode 0f {opcode:02x}")
                } else {
                    write!(f, "unsupported opcode {opcode:02x}")
                }
            }
            DecodeError::UnsupportedForm { opcode, digit } => {
                write!(f, "unsupported form {opcode:02x} /{digit}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Result<u8> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn i8(&mut self) -> Result<i32> {
        Ok(self.u8()? as i8 as i32)
    }

    fn u16(&mut self) -> Result<u16> {
        let lo = self.u8()? as u16;
        let hi = self.u8()? as u16;
        Ok(lo | (hi << 8))
    }

    fn u32(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for i in 0..4 {
            v |= (self.u8()? as u32) << (i * 8);
        }
        Ok(v)
    }

    fn imm(&mut self, size: Size) -> Result<i32> {
        match size {
            Size::B => self.i8(),
            Size::W => self.u16().map(|v| v as i16 as i32),
            Size::D => self.u32().map(|v| v as i32),
        }
    }

    /// Decodes a ModRM byte (plus SIB/displacement), returning the `reg`
    /// field and the `r/m` operand.
    fn modrm(&mut self) -> Result<(u8, Rm)> {
        let modrm = self.u8()?;
        let modb = modrm >> 6;
        let reg = (modrm >> 3) & 7;
        let rm = modrm & 7;
        if modb == 3 {
            return Ok((reg, Rm::Reg(Gpr::new(rm))));
        }
        let mut addr = Addr::default();
        let base_bits;
        if rm == 0b100 {
            // SIB byte.
            let sib = self.u8()?;
            let ss = sib >> 6;
            let idx = (sib >> 3) & 7;
            base_bits = sib & 7;
            if idx != 0b100 {
                addr.index = Some((Gpr::new(idx), 1 << ss));
            }
            if base_bits == 0b101 && modb == 0 {
                addr.disp = self.u32()? as i32;
                return Ok((reg, Rm::Mem(addr)));
            }
            addr.base = Some(Gpr::new(base_bits));
        } else if rm == 0b101 && modb == 0 {
            addr.disp = self.u32()? as i32;
            return Ok((reg, Rm::Mem(addr)));
        } else {
            addr.base = Some(Gpr::new(rm));
        }
        match modb {
            0 => {}
            1 => addr.disp = self.i8()?,
            2 => addr.disp = self.u32()? as i32,
            _ => unreachable!(),
        }
        Ok((reg, Rm::Mem(addr)))
    }
}

fn mem_only(rm: Rm, opcode: u8, digit: u8) -> Result<Addr> {
    rm.mem()
        .ok_or(DecodeError::UnsupportedForm { opcode, digit })
}

/// Fetches and decodes the instruction at guest address `addr`: `None`
/// where nothing can be fetched or the bytes there do not decode.
pub fn decode_at(mem: &crate::mem::GuestMem, addr: u32) -> Option<(Inst, usize)> {
    let mut window = [0u8; 16];
    let fetched = mem.fetch_into(addr as u64, &mut window).ok()?;
    decode(&window[..fetched], addr).ok()
}

/// Decodes one instruction from `bytes`, which is assumed to start at
/// guest address `addr` (needed to materialize absolute branch targets).
///
/// Returns the instruction and its encoded length.
///
/// # Errors
///
/// [`DecodeError::Truncated`] if `bytes` ends mid-instruction, or the
/// `Unsupported*` variants for encodings outside the subset (the
/// interpreter converts those into `#UD`).
pub fn decode(bytes: &[u8], addr: u32) -> Result<(Inst, usize)> {
    let mut c = Cursor { bytes, pos: 0 };
    let mut size = Size::D;
    let mut rep = false;
    let mut f3 = false;

    // Prefixes (the subset uses 66 and F3 only).
    loop {
        match c.bytes.get(c.pos) {
            Some(0x66) => {
                size = Size::W;
                c.pos += 1;
            }
            Some(0xF3) => {
                f3 = true;
                rep = true;
                c.pos += 1;
            }
            _ => break,
        }
    }

    let opcode = c.u8()?;
    let inst = match opcode {
        // ALU rows: 00-3B (skipping the accumulator-imm shortcuts).
        0x00..=0x3B if opcode & 7 <= 3 => {
            let op = AluOp::from_digit(opcode >> 3);
            let dir_reg = opcode & 2 != 0; // 1 = r <- r/m
            let opsize = if opcode & 1 == 0 { Size::B } else { size };
            let (reg, rm) = c.modrm()?;
            let reg = Gpr::new(reg);
            if dir_reg {
                match rm {
                    Rm::Reg(_) => Inst::Alu {
                        op,
                        size: opsize,
                        dst: Rm::Reg(reg),
                        src: match rm {
                            Rm::Reg(r) => RmI::Reg(r),
                            Rm::Mem(_) => unreachable!(),
                        },
                    },
                    Rm::Mem(a) => Inst::AluRM {
                        op,
                        size: opsize,
                        dst: reg,
                        src: a,
                    },
                }
            } else {
                Inst::Alu {
                    op,
                    size: opsize,
                    dst: rm,
                    src: RmI::Reg(reg),
                }
            }
        }
        0x40..=0x47 => Inst::IncDec {
            inc: true,
            size,
            dst: Rm::Reg(Gpr::new(opcode - 0x40)),
        },
        0x48..=0x4F => Inst::IncDec {
            inc: false,
            size,
            dst: Rm::Reg(Gpr::new(opcode - 0x48)),
        },
        0x50..=0x57 => Inst::Push {
            src: RmI::Reg(Gpr::new(opcode - 0x50)),
        },
        0x58..=0x5F => Inst::Pop {
            dst: Rm::Reg(Gpr::new(opcode - 0x58)),
        },
        0x68 => Inst::Push {
            src: RmI::Imm(c.u32()? as i32),
        },
        0x69 => {
            let (reg, rm) = c.modrm()?;
            let imm = c.u32()? as i32;
            Inst::ImulRmImm {
                dst: Gpr::new(reg),
                src: rm,
                imm,
            }
        }
        0x6A => Inst::Push {
            src: RmI::Imm(c.i8()?),
        },
        0x6B => {
            let (reg, rm) = c.modrm()?;
            let imm = c.i8()?;
            Inst::ImulRmImm {
                dst: Gpr::new(reg),
                src: rm,
                imm,
            }
        }
        0x70..=0x7F => {
            let cond = Cond::from_code(opcode - 0x70);
            let rel = c.i8()?;
            let target = addr.wrapping_add(c.pos as u32).wrapping_add(rel as u32);
            Inst::Jcc { cond, target }
        }
        0x80 | 0x81 | 0x83 => {
            let opsize = if opcode == 0x80 { Size::B } else { size };
            let (digit, rm) = c.modrm()?;
            let imm = if opcode == 0x81 {
                c.imm(opsize)?
            } else {
                c.i8()?
            };
            let op = AluOp::from_digit(digit);
            Inst::Alu {
                op,
                size: opsize,
                dst: rm,
                src: RmI::Imm(imm),
            }
        }
        0x84 | 0x85 => {
            let opsize = if opcode == 0x84 { Size::B } else { size };
            let (reg, rm) = c.modrm()?;
            Inst::Test {
                size: opsize,
                a: rm,
                b: RmI::Reg(Gpr::new(reg)),
            }
        }
        0x86 | 0x87 => {
            let opsize = if opcode == 0x86 { Size::B } else { size };
            let (reg, rm) = c.modrm()?;
            Inst::Xchg {
                size: opsize,
                reg: Gpr::new(reg),
                rm,
            }
        }
        0x88 | 0x89 => {
            let opsize = if opcode == 0x88 { Size::B } else { size };
            let (reg, rm) = c.modrm()?;
            Inst::Mov {
                size: opsize,
                dst: rm,
                src: RmI::Reg(Gpr::new(reg)),
            }
        }
        0x8A | 0x8B => {
            let opsize = if opcode == 0x8A { Size::B } else { size };
            let (reg, rm) = c.modrm()?;
            match rm {
                Rm::Reg(r) => Inst::Mov {
                    size: opsize,
                    dst: Rm::Reg(Gpr::new(reg)),
                    src: RmI::Reg(r),
                },
                Rm::Mem(a) => Inst::MovLoad {
                    size: opsize,
                    dst: Gpr::new(reg),
                    src: a,
                },
            }
        }
        0x8D => {
            let (reg, rm) = c.modrm()?;
            Inst::Lea {
                dst: Gpr::new(reg),
                addr: mem_only(rm, opcode, reg)?,
            }
        }
        0x8F => {
            let (digit, rm) = c.modrm()?;
            if digit != 0 {
                return Err(DecodeError::UnsupportedForm { opcode, digit });
            }
            Inst::Pop { dst: rm }
        }
        0x90 => Inst::Nop,
        0x98 => Inst::Cwde,
        0x99 => Inst::Cdq,
        0xA4 | 0xA5 => Inst::Movs {
            size: if opcode == 0xA4 { Size::B } else { size },
            rep,
        },
        0xAA | 0xAB => Inst::Stos {
            size: if opcode == 0xAA { Size::B } else { size },
            rep,
        },
        0xB0..=0xB7 => Inst::Mov {
            size: Size::B,
            dst: Rm::Reg(Gpr::new(opcode - 0xB0)),
            src: RmI::Imm(c.i8()?),
        },
        0xB8..=0xBF => Inst::Mov {
            size,
            dst: Rm::Reg(Gpr::new(opcode - 0xB8)),
            src: RmI::Imm(c.imm(size)?),
        },
        0xC0 | 0xC1 => {
            let opsize = if opcode == 0xC0 { Size::B } else { size };
            let (digit, rm) = c.modrm()?;
            let count = c.u8()?;
            let op = match digit {
                4 => ShiftOp::Shl,
                5 => ShiftOp::Shr,
                7 => ShiftOp::Sar,
                _ => return Err(DecodeError::UnsupportedForm { opcode, digit }),
            };
            Inst::Shift {
                op,
                size: opsize,
                dst: rm,
                count: ShiftCount::Imm(count),
            }
        }
        0xC2 => Inst::Ret { pop: c.u16()? },
        0xC3 => Inst::Ret { pop: 0 },
        0xC6 | 0xC7 => {
            let opsize = if opcode == 0xC6 { Size::B } else { size };
            let (digit, rm) = c.modrm()?;
            if digit != 0 {
                return Err(DecodeError::UnsupportedForm { opcode, digit });
            }
            let imm = c.imm(opsize)?;
            Inst::Mov {
                size: opsize,
                dst: rm,
                src: RmI::Imm(imm),
            }
        }
        0xCD => Inst::Int { vector: c.u8()? },
        0xD2 | 0xD3 => {
            let opsize = if opcode == 0xD2 { Size::B } else { size };
            let (digit, rm) = c.modrm()?;
            let op = match digit {
                4 => ShiftOp::Shl,
                5 => ShiftOp::Shr,
                7 => ShiftOp::Sar,
                _ => return Err(DecodeError::UnsupportedForm { opcode, digit }),
            };
            Inst::Shift {
                op,
                size: opsize,
                dst: rm,
                count: ShiftCount::Cl,
            }
        }
        // x87.
        0xD8 => {
            let next = *c.bytes.get(c.pos).ok_or(DecodeError::Truncated)?;
            if next >= 0xC0 {
                c.pos += 1;
                let digit = (next >> 3) & 7;
                let i = next & 7;
                let op = FpArithOp::from_digit(digit)
                    .ok_or(DecodeError::UnsupportedForm { opcode, digit })?;
                Inst::Farith {
                    op,
                    form: FpArithForm::St0Sti(i),
                }
            } else {
                let (digit, rm) = c.modrm()?;
                let a = mem_only(rm, opcode, digit)?;
                let op = FpArithOp::from_digit(digit)
                    .ok_or(DecodeError::UnsupportedForm { opcode, digit })?;
                Inst::Farith {
                    op,
                    form: FpArithForm::St0Mem(Size2::S, a),
                }
            }
        }
        0xD9 => {
            let next = *c.bytes.get(c.pos).ok_or(DecodeError::Truncated)?;
            match next {
                0xC0..=0xC7 => {
                    c.pos += 1;
                    Inst::Fld {
                        src: FpOperand::St(next - 0xC0),
                    }
                }
                0xC8..=0xCF => {
                    c.pos += 1;
                    Inst::Fxch { i: next - 0xC8 }
                }
                0xE0 => {
                    c.pos += 1;
                    Inst::Fchs
                }
                0xE1 => {
                    c.pos += 1;
                    Inst::Fabs
                }
                0xE8 => {
                    c.pos += 1;
                    Inst::Fld1
                }
                0xEE => {
                    c.pos += 1;
                    Inst::Fldz
                }
                0xFA => {
                    c.pos += 1;
                    Inst::Fsqrt
                }
                _ => {
                    let (digit, rm) = c.modrm()?;
                    let a = mem_only(rm, opcode, digit)?;
                    match digit {
                        0 => Inst::Fld {
                            src: FpOperand::M32(a),
                        },
                        2 => Inst::Fst {
                            dst: FpOperand::M32(a),
                            pop: false,
                        },
                        3 => Inst::Fst {
                            dst: FpOperand::M32(a),
                            pop: true,
                        },
                        _ => return Err(DecodeError::UnsupportedForm { opcode, digit }),
                    }
                }
            }
        }
        0xDB => {
            let next = *c.bytes.get(c.pos).ok_or(DecodeError::Truncated)?;
            match next {
                0xE8..=0xEF => {
                    c.pos += 1;
                    Inst::Fcomi {
                        i: next - 0xE8,
                        pop: false,
                        unordered: true,
                    }
                }
                0xF0..=0xF7 => {
                    c.pos += 1;
                    Inst::Fcomi {
                        i: next - 0xF0,
                        pop: false,
                        unordered: false,
                    }
                }
                _ => {
                    let (digit, rm) = c.modrm()?;
                    let a = mem_only(rm, opcode, digit)?;
                    match digit {
                        0 => Inst::Fild { src: a },
                        3 => Inst::Fistp { dst: a },
                        _ => return Err(DecodeError::UnsupportedForm { opcode, digit }),
                    }
                }
            }
        }
        0xDC => {
            let next = *c.bytes.get(c.pos).ok_or(DecodeError::Truncated)?;
            if next >= 0xC0 {
                c.pos += 1;
                let digit = (next >> 3) & 7;
                let i = next & 7;
                let op = FpArithOp::from_digit(digit)
                    .ok_or(DecodeError::UnsupportedForm { opcode, digit })?;
                Inst::Farith {
                    op,
                    form: FpArithForm::StiSt0 { i, pop: false },
                }
            } else {
                let (digit, rm) = c.modrm()?;
                let a = mem_only(rm, opcode, digit)?;
                let op = FpArithOp::from_digit(digit)
                    .ok_or(DecodeError::UnsupportedForm { opcode, digit })?;
                Inst::Farith {
                    op,
                    form: FpArithForm::St0Mem(Size2::D, a),
                }
            }
        }
        0xDD => {
            let next = *c.bytes.get(c.pos).ok_or(DecodeError::Truncated)?;
            match next {
                0xD0..=0xD7 => {
                    c.pos += 1;
                    Inst::Fst {
                        dst: FpOperand::St(next - 0xD0),
                        pop: false,
                    }
                }
                0xD8..=0xDF => {
                    c.pos += 1;
                    Inst::Fst {
                        dst: FpOperand::St(next - 0xD8),
                        pop: true,
                    }
                }
                _ => {
                    let (digit, rm) = c.modrm()?;
                    let a = mem_only(rm, opcode, digit)?;
                    match digit {
                        0 => Inst::Fld {
                            src: FpOperand::M64(a),
                        },
                        2 => Inst::Fst {
                            dst: FpOperand::M64(a),
                            pop: false,
                        },
                        3 => Inst::Fst {
                            dst: FpOperand::M64(a),
                            pop: true,
                        },
                        _ => return Err(DecodeError::UnsupportedForm { opcode, digit }),
                    }
                }
            }
        }
        0xDE => {
            let next = c.u8()?;
            if next < 0xC0 {
                return Err(DecodeError::UnsupportedOpcode {
                    opcode,
                    two_byte: false,
                });
            }
            let digit = (next >> 3) & 7;
            let i = next & 7;
            let op = FpArithOp::from_digit(digit)
                .ok_or(DecodeError::UnsupportedForm { opcode, digit })?;
            Inst::Farith {
                op,
                form: FpArithForm::StiSt0 { i, pop: true },
            }
        }
        0xDF => {
            let next = c.u8()?;
            match next {
                0xE8..=0xEF => Inst::Fcomi {
                    i: next - 0xE8,
                    pop: true,
                    unordered: true,
                },
                0xF0..=0xF7 => Inst::Fcomi {
                    i: next - 0xF0,
                    pop: true,
                    unordered: false,
                },
                _ => {
                    return Err(DecodeError::UnsupportedOpcode {
                        opcode,
                        two_byte: false,
                    })
                }
            }
        }
        0xE8 => {
            let rel = c.u32()? as i32;
            let target = addr.wrapping_add(c.pos as u32).wrapping_add(rel as u32);
            Inst::Call { target }
        }
        0xE9 => {
            let rel = c.u32()? as i32;
            let target = addr.wrapping_add(c.pos as u32).wrapping_add(rel as u32);
            Inst::Jmp { target }
        }
        0xEB => {
            let rel = c.i8()?;
            let target = addr.wrapping_add(c.pos as u32).wrapping_add(rel as u32);
            Inst::Jmp { target }
        }
        0xF4 => Inst::Hlt,
        0xF6 | 0xF7 => {
            let opsize = if opcode == 0xF6 { Size::B } else { size };
            let (digit, rm) = c.modrm()?;
            match digit {
                0 => {
                    let imm = c.imm(opsize)?;
                    Inst::Test {
                        size: opsize,
                        a: rm,
                        b: RmI::Imm(imm),
                    }
                }
                2 => Inst::Not {
                    size: opsize,
                    dst: rm,
                },
                3 => Inst::Neg {
                    size: opsize,
                    dst: rm,
                },
                4 => Inst::MulDiv {
                    op: MulDivOp::Mul,
                    size: opsize,
                    src: rm,
                },
                5 => Inst::MulDiv {
                    op: MulDivOp::Imul,
                    size: opsize,
                    src: rm,
                },
                6 => Inst::MulDiv {
                    op: MulDivOp::Div,
                    size: opsize,
                    src: rm,
                },
                7 => Inst::MulDiv {
                    op: MulDivOp::Idiv,
                    size: opsize,
                    src: rm,
                },
                _ => return Err(DecodeError::UnsupportedForm { opcode, digit }),
            }
        }
        0xFE => {
            let (digit, rm) = c.modrm()?;
            match digit {
                0 => Inst::IncDec {
                    inc: true,
                    size: Size::B,
                    dst: rm,
                },
                1 => Inst::IncDec {
                    inc: false,
                    size: Size::B,
                    dst: rm,
                },
                _ => return Err(DecodeError::UnsupportedForm { opcode, digit }),
            }
        }
        0xFF => {
            let (digit, rm) = c.modrm()?;
            match digit {
                0 => Inst::IncDec {
                    inc: true,
                    size,
                    dst: rm,
                },
                1 => Inst::IncDec {
                    inc: false,
                    size,
                    dst: rm,
                },
                2 => Inst::CallInd { src: rm },
                4 => Inst::JmpInd { src: rm },
                6 => match rm {
                    Rm::Mem(a) => Inst::Push { src: RmI::Mem(a) },
                    Rm::Reg(r) => Inst::Push { src: RmI::Reg(r) },
                },
                _ => return Err(DecodeError::UnsupportedForm { opcode, digit }),
            }
        }
        0x0F => {
            let op2 = c.u8()?;
            match op2 {
                0x0B => Inst::Ud2,
                0x10 | 0x11 if f3 => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Movss {
                        xmm: Xmm::new(reg),
                        rm: xmm_rm(rm),
                        to_xmm: op2 == 0x10,
                    }
                }
                0x10 | 0x11 => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Movps {
                        xmm: Xmm::new(reg),
                        rm: xmm_rm(rm),
                        to_xmm: op2 == 0x10,
                        aligned: false,
                    }
                }
                0x28 | 0x29 => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Movps {
                        xmm: Xmm::new(reg),
                        rm: xmm_rm(rm),
                        to_xmm: op2 == 0x28,
                        aligned: true,
                    }
                }
                0x2A if f3 => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Cvtsi2ss {
                        dst: Xmm::new(reg),
                        src: rm,
                    }
                }
                0x2C if f3 => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Cvttss2si {
                        dst: Gpr::new(reg),
                        src: xmm_rm(rm),
                    }
                }
                0x2E | 0x2F => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Ucomiss {
                        a: Xmm::new(reg),
                        b: xmm_rm(rm),
                        signaling: op2 == 0x2F,
                    }
                }
                0x40..=0x4F => {
                    let cond = Cond::from_code(op2 - 0x40);
                    let (reg, rm) = c.modrm()?;
                    Inst::Cmovcc {
                        cond,
                        dst: Gpr::new(reg),
                        src: rm,
                    }
                }
                0x51 if f3 => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Sqrtss {
                        dst: Xmm::new(reg),
                        src: xmm_rm(rm),
                    }
                }
                0x57 => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Xorps {
                        dst: Xmm::new(reg),
                        src: xmm_rm(rm),
                    }
                }
                0x58 | 0x59 | 0x5C | 0x5D | 0x5E | 0x5F => {
                    let op = match op2 {
                        0x58 => SseOp::Add,
                        0x59 => SseOp::Mul,
                        0x5C => SseOp::Sub,
                        0x5D => SseOp::Min,
                        0x5E => SseOp::Div,
                        _ => SseOp::Max,
                    };
                    let (reg, rm) = c.modrm()?;
                    Inst::SseArith {
                        op,
                        scalar: f3,
                        dst: Xmm::new(reg),
                        src: xmm_rm(rm),
                    }
                }
                0x6E | 0x7E => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Movd {
                        mm: Mm::new(reg),
                        rm,
                        to_mm: op2 == 0x6E,
                    }
                }
                0x6F | 0x7F => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Movq {
                        mm: Mm::new(reg),
                        src: mm_rm(rm),
                        to_mm: op2 == 0x6F,
                    }
                }
                0x77 => Inst::Emms,
                0x80..=0x8F => {
                    let cond = Cond::from_code(op2 - 0x80);
                    let rel = c.u32()? as i32;
                    let target = addr.wrapping_add(c.pos as u32).wrapping_add(rel as u32);
                    Inst::Jcc { cond, target }
                }
                0x90..=0x9F => {
                    let cond = Cond::from_code(op2 - 0x90);
                    let (_, rm) = c.modrm()?;
                    Inst::Setcc { cond, dst: rm }
                }
                0xAF => {
                    let (reg, rm) = c.modrm()?;
                    Inst::ImulRm {
                        dst: Gpr::new(reg),
                        src: rm,
                    }
                }
                0xB6 | 0xB7 => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Movzx {
                        dst: Gpr::new(reg),
                        src_size: if op2 == 0xB6 { Size::B } else { Size::W },
                        src: rm,
                    }
                }
                0xBE | 0xBF => {
                    let (reg, rm) = c.modrm()?;
                    Inst::Movsx {
                        dst: Gpr::new(reg),
                        src_size: if op2 == 0xBE { Size::B } else { Size::W },
                        src: rm,
                    }
                }
                0xD5 | 0xDB | 0xEB | 0xEF | 0xF8 | 0xF9 | 0xFA | 0xFC | 0xFD | 0xFE => {
                    let op = match op2 {
                        0xFC => MmxOp::PAdd(1),
                        0xFD => MmxOp::PAdd(2),
                        0xFE => MmxOp::PAdd(4),
                        0xF8 => MmxOp::PSub(1),
                        0xF9 => MmxOp::PSub(2),
                        0xFA => MmxOp::PSub(4),
                        0xDB => MmxOp::Pand,
                        0xEB => MmxOp::Por,
                        0xEF => MmxOp::Pxor,
                        _ => MmxOp::Pmullw,
                    };
                    let (reg, rm) = c.modrm()?;
                    Inst::PAlu {
                        op,
                        dst: Mm::new(reg),
                        src: mm_rm(rm),
                    }
                }
                _ => {
                    return Err(DecodeError::UnsupportedOpcode {
                        opcode: op2,
                        two_byte: true,
                    })
                }
            }
        }
        _ => {
            return Err(DecodeError::UnsupportedOpcode {
                opcode,
                two_byte: false,
            })
        }
    };
    Ok((inst, c.pos))
}

fn xmm_rm(rm: Rm) -> XmmM {
    match rm {
        Rm::Reg(r) => XmmM::Reg(Xmm::new(r.num())),
        Rm::Mem(a) => XmmM::Mem(a),
    }
}

fn mm_rm(rm: Rm) -> MmM {
    match rm {
        Rm::Reg(r) => MmM::Reg(Mm::new(r.num())),
        Rm::Mem(a) => MmM::Mem(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_to_vec;
    use crate::regs::*;

    fn roundtrip(i: Inst) {
        let addr = 0x40_0000;
        let bytes = encode_to_vec(&i, addr).expect("encodable");
        let (decoded, len) = decode(&bytes, addr).expect("decodable");
        assert_eq!(len, bytes.len(), "length mismatch for {i}");
        assert_eq!(decoded, i, "roundtrip mismatch, bytes {bytes:02x?}");
    }

    #[test]
    fn roundtrip_core_instructions() {
        use crate::flags::Cond;
        let mem = Addr::base_index(EBX, ESI, 4, 0x20);
        for i in [
            Inst::Mov {
                size: Size::D,
                dst: Rm::Reg(EAX),
                src: RmI::Imm(42),
            },
            Inst::Mov {
                size: Size::B,
                dst: Rm::Mem(mem),
                src: RmI::Imm(-1),
            },
            Inst::MovLoad {
                size: Size::D,
                dst: ECX,
                src: Addr::base_disp(ESP, 4),
            },
            Inst::Alu {
                op: AluOp::Sub,
                size: Size::D,
                dst: Rm::Reg(EDX),
                src: RmI::Imm(1000),
            },
            Inst::AluRM {
                op: AluOp::Xor,
                size: Size::D,
                dst: EDI,
                src: Addr::abs(0x1234),
            },
            Inst::Test {
                size: Size::D,
                a: Rm::Reg(EAX),
                b: RmI::Imm(7),
            },
            Inst::Movzx {
                dst: EAX,
                src_size: Size::B,
                src: Rm::Mem(mem),
            },
            Inst::Movsx {
                dst: EAX,
                src_size: Size::W,
                src: Rm::Reg(EDX),
            },
            Inst::Lea {
                dst: ESI,
                addr: mem,
            },
            Inst::Xchg {
                size: Size::D,
                reg: EAX,
                rm: Rm::Reg(EBX),
            },
            Inst::Push { src: RmI::Imm(300) },
            Inst::Pop { dst: Rm::Reg(EBP) },
            Inst::IncDec {
                inc: true,
                size: Size::D,
                dst: Rm::Reg(EAX),
            },
            Inst::Neg {
                size: Size::D,
                dst: Rm::Reg(EAX),
            },
            Inst::Not {
                size: Size::B,
                dst: Rm::Mem(mem),
            },
            Inst::Shift {
                op: ShiftOp::Sar,
                size: Size::D,
                dst: Rm::Reg(EAX),
                count: ShiftCount::Imm(3),
            },
            Inst::Shift {
                op: ShiftOp::Shl,
                size: Size::D,
                dst: Rm::Reg(EDX),
                count: ShiftCount::Cl,
            },
            Inst::ImulRm {
                dst: EAX,
                src: Rm::Reg(EBX),
            },
            Inst::ImulRmImm {
                dst: EAX,
                src: Rm::Reg(EBX),
                imm: 100000,
            },
            Inst::MulDiv {
                op: MulDivOp::Div,
                size: Size::D,
                src: Rm::Reg(ECX),
            },
            Inst::Cdq,
            Inst::Jmp { target: 0x40_1000 },
            Inst::JmpInd { src: Rm::Reg(EAX) },
            Inst::Jcc {
                cond: Cond::L,
                target: 0x3F_FF00,
            },
            Inst::Call { target: 0x40_2000 },
            Inst::CallInd { src: Rm::Mem(mem) },
            Inst::Ret { pop: 0 },
            Inst::Ret { pop: 8 },
            Inst::Setcc {
                cond: Cond::A,
                dst: Rm::Reg(ECX),
            },
            Inst::Cmovcc {
                cond: Cond::Ne,
                dst: EAX,
                src: Rm::Mem(mem),
            },
            Inst::Nop,
            Inst::Hlt,
            Inst::Ud2,
            Inst::Int { vector: 0x80 },
            Inst::Movs {
                size: Size::D,
                rep: true,
            },
            Inst::Stos {
                size: Size::B,
                rep: false,
            },
        ] {
            roundtrip(i);
        }
    }

    #[test]
    fn roundtrip_fp_mmx_sse() {
        let m = Addr::base_disp(EBP, -16);
        for i in [
            Inst::Fld {
                src: FpOperand::M64(m),
            },
            Inst::Fld {
                src: FpOperand::St(3),
            },
            Inst::Fst {
                dst: FpOperand::M32(m),
                pop: true,
            },
            Inst::Fst {
                dst: FpOperand::St(2),
                pop: false,
            },
            Inst::Fild { src: m },
            Inst::Fistp { dst: m },
            Inst::Farith {
                op: FpArithOp::Mul,
                form: FpArithForm::St0Mem(Size2::D, m),
            },
            Inst::Farith {
                op: FpArithOp::Div,
                form: FpArithForm::St0Sti(1),
            },
            Inst::Farith {
                op: FpArithOp::Add,
                form: FpArithForm::StiSt0 { i: 3, pop: true },
            },
            Inst::Fchs,
            Inst::Fabs,
            Inst::Fsqrt,
            Inst::Fxch { i: 1 },
            Inst::Fld1,
            Inst::Fldz,
            Inst::Fcomi {
                i: 1,
                pop: true,
                unordered: false,
            },
            Inst::Movd {
                mm: Mm::new(2),
                rm: Rm::Reg(EAX),
                to_mm: true,
            },
            Inst::Movq {
                mm: Mm::new(1),
                src: MmM::Mem(m),
                to_mm: true,
            },
            Inst::PAlu {
                op: MmxOp::PAdd(2),
                dst: Mm::new(0),
                src: MmM::Reg(Mm::new(1)),
            },
            Inst::PAlu {
                op: MmxOp::Pmullw,
                dst: Mm::new(3),
                src: MmM::Mem(m),
            },
            Inst::Emms,
            Inst::Movss {
                xmm: Xmm::new(0),
                rm: XmmM::Mem(m),
                to_xmm: true,
            },
            Inst::Movps {
                xmm: Xmm::new(1),
                rm: XmmM::Mem(m),
                to_xmm: false,
                aligned: true,
            },
            Inst::SseArith {
                op: SseOp::Mul,
                scalar: true,
                dst: Xmm::new(2),
                src: XmmM::Reg(Xmm::new(3)),
            },
            Inst::SseArith {
                op: SseOp::Add,
                scalar: false,
                dst: Xmm::new(2),
                src: XmmM::Mem(m),
            },
            Inst::Xorps {
                dst: Xmm::new(4),
                src: XmmM::Reg(Xmm::new(4)),
            },
            Inst::Sqrtss {
                dst: Xmm::new(0),
                src: XmmM::Reg(Xmm::new(1)),
            },
            Inst::Cvtsi2ss {
                dst: Xmm::new(0),
                src: Rm::Reg(EAX),
            },
            Inst::Cvttss2si {
                dst: EAX,
                src: XmmM::Reg(Xmm::new(0)),
            },
            Inst::Ucomiss {
                a: Xmm::new(0),
                b: XmmM::Reg(Xmm::new(1)),
                signaling: false,
            },
        ] {
            roundtrip(i);
        }
    }

    #[test]
    fn short_jump_decodes() {
        // EB FE = jmp to self.
        let (i, len) = decode(&[0xEB, 0xFE], 0x1000).unwrap();
        assert_eq!(len, 2);
        assert_eq!(i, Inst::Jmp { target: 0x1000 });
        // 74 10 = je +0x10.
        let (i, _) = decode(&[0x74, 0x10], 0x1000).unwrap();
        assert_eq!(
            i,
            Inst::Jcc {
                cond: crate::flags::Cond::E,
                target: 0x1012
            }
        );
    }

    #[test]
    fn unsupported_opcode_reported() {
        let e = decode(&[0xCC], 0).unwrap_err();
        assert!(matches!(e, DecodeError::UnsupportedOpcode { .. }));
        assert!(decode(&[], 0).is_err());
        assert!(matches!(decode(&[0x81], 0), Err(DecodeError::Truncated)));
    }
}
