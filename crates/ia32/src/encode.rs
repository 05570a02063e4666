//! IA-32 machine-code encoder.
//!
//! Produces real IA-32 byte encodings (prefixes, ModRM, SIB,
//! displacements) for the instruction subset in [`crate::inst`]. The
//! decoder ([`crate::decode`]) is its exact inverse; a property test
//! checks the round trip.

use crate::flags::Size;
use crate::inst::*;

/// Errors from encoding an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EncodeError {
    /// The operand combination has no encoding (e.g. memory-to-memory).
    InvalidOperands(&'static str),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::InvalidOperands(m) => write!(f, "invalid operand combination: {m}"),
        }
    }
}

impl std::error::Error for EncodeError {}

type Result<T> = std::result::Result<T, EncodeError>;

struct Enc<'a> {
    out: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn b(&mut self, byte: u8) {
        self.out.push(byte);
    }

    fn imm8(&mut self, v: i32) {
        self.out.push(v as u8);
    }

    fn imm16(&mut self, v: i32) {
        self.out.extend_from_slice(&(v as u16).to_le_bytes());
    }

    fn imm32(&mut self, v: i32) {
        self.out.extend_from_slice(&(v as u32).to_le_bytes());
    }

    fn size_prefix(&mut self, size: Size) {
        if size == Size::W {
            self.b(0x66);
        }
    }

    /// Emits ModRM (+SIB +disp) for register-direct `rm`.
    fn modrm_reg(&mut self, reg_field: u8, rm_reg: u8) {
        self.b(0xC0 | (reg_field << 3) | rm_reg);
    }

    /// Emits ModRM (+SIB +disp) for a memory operand.
    fn modrm_mem(&mut self, reg_field: u8, a: &Addr) {
        let scale_bits = |s: u8| match s {
            1 => 0u8,
            2 => 1,
            4 => 2,
            8 => 3,
            _ => unreachable!("Addr validates scale"),
        };
        match (a.base, a.index) {
            (None, None) => {
                // disp32 absolute.
                self.b((reg_field << 3) | 0b101);
                self.imm32(a.disp);
            }
            (Some(base), None) if base.num() != 4 => {
                // [base + disp] without SIB; EBP with mod=00 means disp32,
                // so EBP always carries at least a disp8.
                let (modb, d8) = disp_mode(a.disp, base.num() == 5);
                self.b((modb << 6) | (reg_field << 3) | base.num());
                match (modb, d8) {
                    (0, _) => {}
                    (1, true) => self.imm8(a.disp),
                    _ => self.imm32(a.disp),
                }
            }
            (base, index) => {
                // SIB form (needed for ESP base or any index).
                let (idx_bits, ss) = match index {
                    None => (0b100, 0),
                    Some((i, s)) => (i.num(), scale_bits(s)),
                };
                match base {
                    Some(b) => {
                        let (modb, d8) = disp_mode(a.disp, b.num() == 5);
                        self.b((modb << 6) | (reg_field << 3) | 0b100);
                        self.b((ss << 6) | (idx_bits << 3) | b.num());
                        match (modb, d8) {
                            (0, _) => {}
                            (1, true) => self.imm8(a.disp),
                            _ => self.imm32(a.disp),
                        }
                    }
                    None => {
                        // Index with no base: mod=00, SIB base=101, disp32.
                        self.b((reg_field << 3) | 0b100);
                        self.b((ss << 6) | (idx_bits << 3) | 0b101);
                        self.imm32(a.disp);
                    }
                }
            }
        }
    }

    fn modrm(&mut self, reg_field: u8, rm: &Rm) {
        match rm {
            Rm::Reg(r) => self.modrm_reg(reg_field, r.num()),
            Rm::Mem(a) => self.modrm_mem(reg_field, a),
        }
    }
}

/// Choose ModRM mod bits for a displacement: returns `(mod, use_disp8)`.
fn disp_mode(disp: i32, base_is_ebp: bool) -> (u8, bool) {
    if disp == 0 && !base_is_ebp {
        (0, false)
    } else if (-128..=127).contains(&disp) {
        (1, true)
    } else {
        (2, false)
    }
}

fn fits_i8(v: i32) -> bool {
    (-128..=127).contains(&v)
}

/// Encodes `inst`, assumed to start at address `addr`, appending the bytes
/// to `out`. Returns the encoded length.
///
/// # Errors
///
/// Returns [`EncodeError::InvalidOperands`] for operand combinations that
/// have no IA-32 encoding (e.g. an `Alu` whose source is a memory operand —
/// use [`Inst::AluRM`] for the load-operate direction).
pub fn encode(inst: &Inst, addr: u32, out: &mut Vec<u8>) -> Result<usize> {
    let start = out.len();
    let mut e = Enc { out };
    match inst {
        Inst::Alu { op, size, dst, src } => match src {
            RmI::Reg(r) => {
                e.size_prefix(*size);
                let base = op.digit() * 8;
                e.b(if *size == Size::B { base } else { base + 1 });
                e.modrm(r.num(), dst);
            }
            RmI::Imm(imm) => {
                e.size_prefix(*size);
                if *size == Size::B {
                    e.b(0x80);
                    e.modrm(op.digit(), dst);
                    e.imm8(*imm);
                } else if fits_i8(*imm) {
                    e.b(0x83);
                    e.modrm(op.digit(), dst);
                    e.imm8(*imm);
                } else {
                    e.b(0x81);
                    e.modrm(op.digit(), dst);
                    if *size == Size::W {
                        e.imm16(*imm);
                    } else {
                        e.imm32(*imm);
                    }
                }
            }
            RmI::Mem(_) => {
                return Err(EncodeError::InvalidOperands(
                    "ALU memory source requires AluRM",
                ))
            }
        },
        Inst::AluRM { op, size, dst, src } => {
            e.size_prefix(*size);
            let base = op.digit() * 8;
            e.b(if *size == Size::B { base + 2 } else { base + 3 });
            e.modrm_mem(dst.num(), src);
        }
        Inst::Test { size, a, b } => match b {
            RmI::Reg(r) => {
                e.size_prefix(*size);
                e.b(if *size == Size::B { 0x84 } else { 0x85 });
                e.modrm(r.num(), a);
            }
            RmI::Imm(imm) => {
                e.size_prefix(*size);
                e.b(if *size == Size::B { 0xF6 } else { 0xF7 });
                e.modrm(0, a);
                match size {
                    Size::B => e.imm8(*imm),
                    Size::W => e.imm16(*imm),
                    Size::D => e.imm32(*imm),
                }
            }
            RmI::Mem(_) => return Err(EncodeError::InvalidOperands("TEST with memory second op")),
        },
        Inst::Mov { size, dst, src } => match (dst, src) {
            (Rm::Reg(r), RmI::Imm(imm)) => {
                e.size_prefix(*size);
                match size {
                    Size::B => {
                        e.b(0xB0 + r.num());
                        e.imm8(*imm);
                    }
                    Size::W => {
                        e.b(0xB8 + r.num());
                        e.imm16(*imm);
                    }
                    Size::D => {
                        e.b(0xB8 + r.num());
                        e.imm32(*imm);
                    }
                }
            }
            (Rm::Mem(_), RmI::Imm(imm)) => {
                e.size_prefix(*size);
                e.b(if *size == Size::B { 0xC6 } else { 0xC7 });
                e.modrm(0, dst);
                match size {
                    Size::B => e.imm8(*imm),
                    Size::W => e.imm16(*imm),
                    Size::D => e.imm32(*imm),
                }
            }
            (_, RmI::Reg(r)) => {
                e.size_prefix(*size);
                e.b(if *size == Size::B { 0x88 } else { 0x89 });
                e.modrm(r.num(), dst);
            }
            (_, RmI::Mem(_)) => {
                return Err(EncodeError::InvalidOperands(
                    "MOV memory source requires MovLoad",
                ))
            }
        },
        Inst::MovLoad { size, dst, src } => {
            e.size_prefix(*size);
            e.b(if *size == Size::B { 0x8A } else { 0x8B });
            e.modrm_mem(dst.num(), src);
        }
        Inst::Movzx { dst, src_size, src } => {
            e.b(0x0F);
            e.b(if *src_size == Size::B { 0xB6 } else { 0xB7 });
            e.modrm(dst.num(), src);
        }
        Inst::Movsx { dst, src_size, src } => {
            e.b(0x0F);
            e.b(if *src_size == Size::B { 0xBE } else { 0xBF });
            e.modrm(dst.num(), src);
        }
        Inst::Lea { dst, addr: a } => {
            e.b(0x8D);
            e.modrm_mem(dst.num(), a);
        }
        Inst::Xchg { size, reg, rm } => {
            e.size_prefix(*size);
            e.b(if *size == Size::B { 0x86 } else { 0x87 });
            e.modrm(reg.num(), rm);
        }
        Inst::Push { src } => match src {
            RmI::Reg(r) => e.b(0x50 + r.num()),
            RmI::Imm(imm) => {
                if fits_i8(*imm) {
                    e.b(0x6A);
                    e.imm8(*imm);
                } else {
                    e.b(0x68);
                    e.imm32(*imm);
                }
            }
            RmI::Mem(a) => {
                e.b(0xFF);
                e.modrm_mem(6, a);
            }
        },
        Inst::Pop { dst } => match dst {
            Rm::Reg(r) => e.b(0x58 + r.num()),
            Rm::Mem(a) => {
                e.b(0x8F);
                e.modrm_mem(0, a);
            }
        },
        Inst::IncDec { inc, size, dst } => match (size, dst) {
            (Size::B, _) => {
                e.b(0xFE);
                e.modrm(if *inc { 0 } else { 1 }, dst);
            }
            (_, Rm::Reg(r)) => {
                e.size_prefix(*size);
                e.b(if *inc { 0x40 } else { 0x48 } + r.num());
            }
            (_, Rm::Mem(_)) => {
                e.size_prefix(*size);
                e.b(0xFF);
                e.modrm(if *inc { 0 } else { 1 }, dst);
            }
        },
        Inst::Neg { size, dst } => {
            e.size_prefix(*size);
            e.b(if *size == Size::B { 0xF6 } else { 0xF7 });
            e.modrm(3, dst);
        }
        Inst::Not { size, dst } => {
            e.size_prefix(*size);
            e.b(if *size == Size::B { 0xF6 } else { 0xF7 });
            e.modrm(2, dst);
        }
        Inst::Shift {
            op,
            size,
            dst,
            count,
        } => {
            e.size_prefix(*size);
            match count {
                ShiftCount::Imm(i) => {
                    e.b(if *size == Size::B { 0xC0 } else { 0xC1 });
                    e.modrm(op.digit(), dst);
                    e.imm8(*i as i32);
                }
                ShiftCount::Cl => {
                    e.b(if *size == Size::B { 0xD2 } else { 0xD3 });
                    e.modrm(op.digit(), dst);
                }
            }
        }
        Inst::ImulRm { dst, src } => {
            e.b(0x0F);
            e.b(0xAF);
            e.modrm(dst.num(), src);
        }
        Inst::ImulRmImm { dst, src, imm } => {
            if fits_i8(*imm) {
                e.b(0x6B);
                e.modrm(dst.num(), src);
                e.imm8(*imm);
            } else {
                e.b(0x69);
                e.modrm(dst.num(), src);
                e.imm32(*imm);
            }
        }
        Inst::MulDiv { op, size, src } => {
            e.size_prefix(*size);
            e.b(if *size == Size::B { 0xF6 } else { 0xF7 });
            e.modrm(op.digit(), src);
        }
        Inst::Cdq => e.b(0x99),
        Inst::Cwde => e.b(0x98),
        Inst::Jmp { target } => {
            e.b(0xE9);
            let rel = target.wrapping_sub(addr.wrapping_add(5));
            e.imm32(rel as i32);
        }
        Inst::JmpInd { src } => {
            e.b(0xFF);
            e.modrm(4, src);
        }
        Inst::Jcc { cond, target } => {
            e.b(0x0F);
            e.b(0x80 + cond.code());
            let rel = target.wrapping_sub(addr.wrapping_add(6));
            e.imm32(rel as i32);
        }
        Inst::Call { target } => {
            e.b(0xE8);
            let rel = target.wrapping_sub(addr.wrapping_add(5));
            e.imm32(rel as i32);
        }
        Inst::CallInd { src } => {
            e.b(0xFF);
            e.modrm(2, src);
        }
        Inst::Ret { pop } => {
            if *pop == 0 {
                e.b(0xC3);
            } else {
                e.b(0xC2);
                e.imm16(*pop as i32);
            }
        }
        Inst::Setcc { cond, dst } => {
            e.b(0x0F);
            e.b(0x90 + cond.code());
            e.modrm(0, dst);
        }
        Inst::Cmovcc { cond, dst, src } => {
            e.b(0x0F);
            e.b(0x40 + cond.code());
            e.modrm(dst.num(), src);
        }
        Inst::Nop => e.b(0x90),
        Inst::Hlt => e.b(0xF4),
        Inst::Ud2 => {
            e.b(0x0F);
            e.b(0x0B);
        }
        Inst::Int { vector } => {
            e.b(0xCD);
            e.b(*vector);
        }
        Inst::Movs { size, rep } => {
            if *rep {
                e.b(0xF3);
            }
            e.size_prefix(*size);
            e.b(if *size == Size::B { 0xA4 } else { 0xA5 });
        }
        Inst::Stos { size, rep } => {
            if *rep {
                e.b(0xF3);
            }
            e.size_prefix(*size);
            e.b(if *size == Size::B { 0xAA } else { 0xAB });
        }
        // ---- x87 ----
        Inst::Fld { src } => match src {
            FpOperand::M32(a) => {
                e.b(0xD9);
                e.modrm_mem(0, a);
            }
            FpOperand::M64(a) => {
                e.b(0xDD);
                e.modrm_mem(0, a);
            }
            FpOperand::St(i) => {
                e.b(0xD9);
                e.b(0xC0 + i);
            }
        },
        Inst::Fst { dst, pop } => match dst {
            FpOperand::M32(a) => {
                e.b(0xD9);
                e.modrm_mem(if *pop { 3 } else { 2 }, a);
            }
            FpOperand::M64(a) => {
                e.b(0xDD);
                e.modrm_mem(if *pop { 3 } else { 2 }, a);
            }
            FpOperand::St(i) => {
                e.b(0xDD);
                e.b(if *pop { 0xD8 } else { 0xD0 } + i);
            }
        },
        Inst::Fild { src } => {
            e.b(0xDB);
            e.modrm_mem(0, src);
        }
        Inst::Fistp { dst } => {
            e.b(0xDB);
            e.modrm_mem(3, dst);
        }
        Inst::Farith { op, form } => match form {
            FpArithForm::St0Mem(Size2::S, a) => {
                e.b(0xD8);
                e.modrm_mem(op.digit(), a);
            }
            FpArithForm::St0Mem(Size2::D, a) => {
                e.b(0xDC);
                e.modrm_mem(op.digit(), a);
            }
            FpArithForm::St0Sti(i) => {
                e.b(0xD8);
                e.b(0xC0 + op.digit() * 8 + i);
            }
            FpArithForm::StiSt0 { i, pop } => {
                e.b(if *pop { 0xDE } else { 0xDC });
                e.b(0xC0 + op.digit() * 8 + i);
            }
        },
        Inst::Fchs => {
            e.b(0xD9);
            e.b(0xE0);
        }
        Inst::Fabs => {
            e.b(0xD9);
            e.b(0xE1);
        }
        Inst::Fsqrt => {
            e.b(0xD9);
            e.b(0xFA);
        }
        Inst::Fxch { i } => {
            e.b(0xD9);
            e.b(0xC8 + i);
        }
        Inst::Fld1 => {
            e.b(0xD9);
            e.b(0xE8);
        }
        Inst::Fldz => {
            e.b(0xD9);
            e.b(0xEE);
        }
        Inst::Fcomi { i, pop, unordered } => {
            e.b(if *pop { 0xDF } else { 0xDB });
            e.b(if *unordered { 0xE8 } else { 0xF0 } + i);
        }
        // ---- MMX ----
        Inst::Movd { mm, rm, to_mm } => {
            e.b(0x0F);
            e.b(if *to_mm { 0x6E } else { 0x7E });
            e.modrm(mm.num(), rm);
        }
        Inst::Movq { mm, src, to_mm } => {
            e.b(0x0F);
            e.b(if *to_mm { 0x6F } else { 0x7F });
            match src {
                MmM::Reg(m) => e.modrm_reg(mm.num(), m.num()),
                MmM::Mem(a) => e.modrm_mem(mm.num(), a),
            }
        }
        Inst::PAlu { op, dst, src } => {
            e.b(0x0F);
            let opc = match op {
                MmxOp::PAdd(1) => 0xFC,
                MmxOp::PAdd(2) => 0xFD,
                MmxOp::PAdd(4) => 0xFE,
                MmxOp::PSub(1) => 0xF8,
                MmxOp::PSub(2) => 0xF9,
                MmxOp::PSub(4) => 0xFA,
                MmxOp::Pand => 0xDB,
                MmxOp::Por => 0xEB,
                MmxOp::Pxor => 0xEF,
                MmxOp::Pmullw => 0xD5,
                MmxOp::PAdd(_) | MmxOp::PSub(_) => {
                    return Err(EncodeError::InvalidOperands("bad MMX lane width"))
                }
            };
            e.b(opc);
            match src {
                MmM::Reg(m) => e.modrm_reg(dst.num(), m.num()),
                MmM::Mem(a) => e.modrm_mem(dst.num(), a),
            }
        }
        Inst::Emms => {
            e.b(0x0F);
            e.b(0x77);
        }
        // ---- SSE ----
        Inst::Movss { xmm, rm, to_xmm } => {
            e.b(0xF3);
            e.b(0x0F);
            e.b(if *to_xmm { 0x10 } else { 0x11 });
            match rm {
                XmmM::Reg(x) => e.modrm_reg(xmm.num(), x.num()),
                XmmM::Mem(a) => e.modrm_mem(xmm.num(), a),
            }
        }
        Inst::Movps {
            xmm,
            rm,
            to_xmm,
            aligned,
        } => {
            e.b(0x0F);
            let opc = match (aligned, to_xmm) {
                (true, true) => 0x28,
                (true, false) => 0x29,
                (false, true) => 0x10,
                (false, false) => 0x11,
            };
            e.b(opc);
            match rm {
                XmmM::Reg(x) => e.modrm_reg(xmm.num(), x.num()),
                XmmM::Mem(a) => e.modrm_mem(xmm.num(), a),
            }
        }
        Inst::SseArith {
            op,
            scalar,
            dst,
            src,
        } => {
            if *scalar {
                e.b(0xF3);
            }
            e.b(0x0F);
            e.b(op.opcode());
            match src {
                XmmM::Reg(x) => e.modrm_reg(dst.num(), x.num()),
                XmmM::Mem(a) => e.modrm_mem(dst.num(), a),
            }
        }
        Inst::Xorps { dst, src } => {
            e.b(0x0F);
            e.b(0x57);
            match src {
                XmmM::Reg(x) => e.modrm_reg(dst.num(), x.num()),
                XmmM::Mem(a) => e.modrm_mem(dst.num(), a),
            }
        }
        Inst::Sqrtss { dst, src } => {
            e.b(0xF3);
            e.b(0x0F);
            e.b(0x51);
            match src {
                XmmM::Reg(x) => e.modrm_reg(dst.num(), x.num()),
                XmmM::Mem(a) => e.modrm_mem(dst.num(), a),
            }
        }
        Inst::Cvtsi2ss { dst, src } => {
            e.b(0xF3);
            e.b(0x0F);
            e.b(0x2A);
            e.modrm(dst.num(), src);
        }
        Inst::Cvttss2si { dst, src } => {
            e.b(0xF3);
            e.b(0x0F);
            e.b(0x2C);
            match src {
                XmmM::Reg(x) => e.modrm_reg(dst.num(), x.num()),
                XmmM::Mem(a) => e.modrm_mem(dst.num(), a),
            }
        }
        Inst::Ucomiss { a, b, signaling } => {
            e.b(0x0F);
            e.b(if *signaling { 0x2F } else { 0x2E });
            match b {
                XmmM::Reg(x) => e.modrm_reg(a.num(), x.num()),
                XmmM::Mem(m) => e.modrm_mem(a.num(), m),
            }
        }
    }
    Ok(out.len() - start)
}

/// Convenience: encodes into a fresh vector.
///
/// # Errors
///
/// Same as [`encode`].
pub fn encode_to_vec(inst: &Inst, addr: u32) -> Result<Vec<u8>> {
    let mut v = Vec::with_capacity(8);
    encode(inst, addr, &mut v)?;
    Ok(v)
}

/// The encoded length of an instruction at a given address.
///
/// # Errors
///
/// Same as [`encode`].
pub fn encoded_len(inst: &Inst, addr: u32) -> Result<usize> {
    Ok(encode_to_vec(inst, addr)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Cond;
    use crate::regs::*;

    fn enc(i: Inst) -> Vec<u8> {
        encode_to_vec(&i, 0x1000).expect("encodable")
    }

    #[test]
    fn mov_reg_imm() {
        assert_eq!(
            enc(Inst::Mov {
                size: Size::D,
                dst: Rm::Reg(EAX),
                src: RmI::Imm(0x12345678)
            }),
            vec![0xB8, 0x78, 0x56, 0x34, 0x12]
        );
    }

    #[test]
    fn add_reg_reg() {
        // add eax, ebx => 01 d8
        assert_eq!(
            enc(Inst::Alu {
                op: AluOp::Add,
                size: Size::D,
                dst: Rm::Reg(EAX),
                src: RmI::Reg(EBX)
            }),
            vec![0x01, 0xD8]
        );
    }

    #[test]
    fn add_imm8_uses_83() {
        let b = enc(Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Rm::Reg(ECX),
            src: RmI::Imm(5),
        });
        assert_eq!(b, vec![0x83, 0xC1, 0x05]);
    }

    #[test]
    fn push_pop() {
        assert_eq!(enc(Inst::Push { src: RmI::Reg(EAX) }), vec![0x50]);
        assert_eq!(enc(Inst::Pop { dst: Rm::Reg(EBP) }), vec![0x5D]);
        assert_eq!(enc(Inst::Push { src: RmI::Imm(1) }), vec![0x6A, 0x01]);
    }

    #[test]
    fn esp_base_needs_sib() {
        // mov eax, [esp+8] => 8B 44 24 08
        assert_eq!(
            enc(Inst::MovLoad {
                size: Size::D,
                dst: EAX,
                src: Addr::base_disp(ESP, 8)
            }),
            vec![0x8B, 0x44, 0x24, 0x08]
        );
    }

    #[test]
    fn ebp_base_needs_disp8() {
        // mov eax, [ebp] => 8B 45 00
        assert_eq!(
            enc(Inst::MovLoad {
                size: Size::D,
                dst: EAX,
                src: Addr::base(EBP)
            }),
            vec![0x8B, 0x45, 0x00]
        );
    }

    #[test]
    fn sib_scaled_index() {
        // mov eax, [ebx+esi*4+0x10] => 8B 44 B3 10
        assert_eq!(
            enc(Inst::MovLoad {
                size: Size::D,
                dst: EAX,
                src: Addr::base_index(EBX, ESI, 4, 0x10)
            }),
            vec![0x8B, 0x44, 0xB3, 0x10]
        );
    }

    #[test]
    fn abs_disp32() {
        // mov eax, [0xdeadbeef] => 8B 05 ef be ad de
        assert_eq!(
            enc(Inst::MovLoad {
                size: Size::D,
                dst: EAX,
                src: Addr::abs(0xDEADBEEF)
            }),
            vec![0x8B, 0x05, 0xEF, 0xBE, 0xAD, 0xDE]
        );
    }

    #[test]
    fn relative_branch_math() {
        // jmp to 0x1000 from 0x1000: rel = -5.
        let b = enc(Inst::Jmp { target: 0x1000 });
        assert_eq!(b, vec![0xE9, 0xFB, 0xFF, 0xFF, 0xFF]);
        // jcc forward.
        let b = enc(Inst::Jcc {
            cond: Cond::E,
            target: 0x1010,
        });
        assert_eq!(b, vec![0x0F, 0x84, 0x0A, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn word_prefix() {
        let b = enc(Inst::Alu {
            op: AluOp::Add,
            size: Size::W,
            dst: Rm::Reg(EAX),
            src: RmI::Reg(EBX),
        });
        assert_eq!(b[0], 0x66);
    }

    #[test]
    fn x87_forms() {
        assert_eq!(
            enc(Inst::Fld {
                src: FpOperand::St(2)
            }),
            vec![0xD9, 0xC2]
        );
        assert_eq!(enc(Inst::Fxch { i: 1 }), vec![0xD9, 0xC9]);
        assert_eq!(
            enc(Inst::Farith {
                op: FpArithOp::Add,
                form: FpArithForm::StiSt0 { i: 1, pop: true }
            }),
            vec![0xDE, 0xC1]
        );
    }

    #[test]
    fn invalid_mem_mem_rejected() {
        let r = encode_to_vec(
            &Inst::Alu {
                op: AluOp::Add,
                size: Size::D,
                dst: Rm::Reg(EAX),
                src: RmI::Mem(Addr::abs(0)),
            },
            0,
        );
        assert!(r.is_err());
    }

    #[test]
    fn rep_movs() {
        assert_eq!(
            enc(Inst::Movs {
                size: Size::D,
                rep: true
            }),
            vec![0xF3, 0xA5]
        );
    }
}
