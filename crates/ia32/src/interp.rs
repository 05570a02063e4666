//! Reference IA-32 interpreter.
//!
//! Executes decoded instructions directly against ([`Cpu`],
//! [`GuestMem`]). This is the semantic oracle for the whole project: the
//! translator's differential tests compare final state (and faulting
//! state, for precise-exception tests) against this interpreter.
//!
//! Faults are precise: when [`Interp::step`] returns a [`Trap`], no
//! architectural state of the faulting instruction has been committed
//! (with the documented exception of `REP` string instructions, which
//! are restartable per element, exactly as on hardware).

use crate::cpu::Cpu;
use crate::decode::{decode, DecodeError};
use crate::flags::{self, Size};
use crate::fpu::FpuFault;
use crate::inst::*;
use crate::mem::{GuestMem, MemFault};
use crate::regs::{Gpr, ECX, EDI, EDX, ESI};
use crate::timing::Timing;

/// An architectural fault raised by an instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Fault {
    /// Memory access fault (page not present / protection).
    Mem(MemFault),
    /// `#DE` — divide error (divide by zero or quotient overflow).
    Divide,
    /// x87 stack fault.
    FpStack(FpuFault),
    /// `#UD` — invalid or unsupported opcode.
    InvalidOpcode,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Mem(m) => write!(f, "{m}"),
            Fault::Divide => write!(f, "divide error"),
            Fault::FpStack(e) => write!(f, "{e}"),
            Fault::InvalidOpcode => write!(f, "invalid opcode"),
        }
    }
}

/// A fault together with the EIP of the faulting instruction.
///
/// The CPU state at trap time is the precise state *before* the faulting
/// instruction executed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Trap {
    /// The fault.
    pub fault: Fault,
    /// EIP of the instruction that faulted.
    pub eip: u32,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at eip={:#x}", self.fault, self.eip)
    }
}

impl std::error::Error for Trap {}

/// Result of a successful step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// Normal completion; continue at the new EIP.
    Continue,
    /// A software interrupt was executed (EIP already advanced past it).
    Syscall {
        /// The interrupt vector (`0x80` = Linux-style syscall).
        vector: u8,
    },
    /// `HLT` executed.
    Halt,
}

/// Execution statistics for the interpreter.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InterpStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Misaligned data accesses observed.
    pub misaligned: u64,
    /// Accumulated cycles under the IA-32 timing model.
    pub cycles: u64,
}

/// The reference interpreter.
#[derive(Debug)]
pub struct Interp {
    /// Architectural state.
    pub cpu: Cpu,
    /// Statistics / cycle accounting.
    pub stats: InterpStats,
    timing: Timing,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

type Exec<T> = Result<T, Fault>;

impl Interp {
    /// New interpreter with default (Xeon-like) timing.
    pub fn new() -> Interp {
        Interp {
            cpu: Cpu::new(),
            stats: InterpStats::default(),
            timing: Timing::default(),
        }
    }

    /// New interpreter with explicit timing parameters.
    pub fn with_timing(timing: Timing) -> Interp {
        Interp {
            cpu: Cpu::new(),
            stats: InterpStats::default(),
            timing,
        }
    }

    /// The timing model in use.
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Computes the effective address of `a`.
    pub fn ea(&self, a: &Addr) -> u32 {
        let mut v = a.disp as u32;
        if let Some(b) = a.base {
            v = v.wrapping_add(self.cpu.gpr[b.num() as usize]);
        }
        if let Some((i, s)) = a.index {
            v = v.wrapping_add(self.cpu.gpr[i.num() as usize].wrapping_mul(s as u32));
        }
        v
    }

    fn load(&mut self, mem: &GuestMem, addr: u32, size: Size) -> Exec<u32> {
        self.note_align(addr, size.bytes());
        mem.read(addr as u64, size.bytes())
            .map(|v| v as u32)
            .map_err(Fault::Mem)
    }

    fn store(&mut self, mem: &mut GuestMem, addr: u32, size: Size, v: u32) -> Exec<()> {
        self.note_align(addr, size.bytes());
        mem.write(addr as u64, size.bytes(), v as u64)
            .map_err(Fault::Mem)
    }

    fn load64(&mut self, mem: &GuestMem, addr: u32) -> Exec<u64> {
        self.note_align(addr, 8);
        mem.read(addr as u64, 8).map_err(Fault::Mem)
    }

    fn store64(&mut self, mem: &mut GuestMem, addr: u32, v: u64) -> Exec<()> {
        self.note_align(addr, 8);
        mem.write(addr as u64, 8, v).map_err(Fault::Mem)
    }

    fn note_align(&mut self, addr: u32, bytes: u32) {
        if bytes > 1 && !addr.is_multiple_of(bytes) {
            self.stats.misaligned += 1;
            self.stats.cycles += self.timing.misalign_penalty as u64;
        }
    }

    fn read_rm(&mut self, mem: &GuestMem, rm: &Rm, size: Size) -> Exec<u32> {
        match rm {
            Rm::Reg(r) => Ok(self.cpu.read(*r, size)),
            Rm::Mem(a) => {
                let ea = self.ea(a);
                self.load(mem, ea, size)
            }
        }
    }

    fn read_rmi(&mut self, mem: &GuestMem, rmi: &RmI, size: Size) -> Exec<u32> {
        match rmi {
            RmI::Reg(r) => Ok(self.cpu.read(*r, size)),
            RmI::Mem(a) => {
                let ea = self.ea(a);
                self.load(mem, ea, size)
            }
            RmI::Imm(i) => Ok(size.trunc(*i as u32)),
        }
    }

    fn write_rm(&mut self, mem: &mut GuestMem, rm: &Rm, size: Size, v: u32) -> Exec<()> {
        match rm {
            Rm::Reg(r) => {
                self.cpu.write(*r, size, v);
                Ok(())
            }
            Rm::Mem(a) => {
                let ea = self.ea(a);
                self.store(mem, ea, size, v)
            }
        }
    }

    fn push32(&mut self, mem: &mut GuestMem, v: u32) -> Exec<()> {
        let new_esp = self.cpu.esp().wrapping_sub(4);
        // Store first so a fault leaves ESP unchanged (paper Table 1).
        self.store(mem, new_esp, Size::D, v)?;
        self.cpu.set_esp(new_esp);
        Ok(())
    }

    fn pop32(&mut self, mem: &GuestMem) -> Exec<u32> {
        let esp = self.cpu.esp();
        let v = self.load(mem, esp, Size::D)?;
        self.cpu.set_esp(esp.wrapping_add(4));
        Ok(v)
    }

    fn fp_read(&mut self, mem: &GuestMem, op: &FpOperand) -> Exec<f64> {
        match op {
            FpOperand::M32(a) => {
                let ea = self.ea(a);
                let bits = self.load(mem, ea, Size::D)?;
                Ok(f32::from_bits(bits) as f64)
            }
            FpOperand::M64(a) => {
                let ea = self.ea(a);
                let bits = self.load64(mem, ea)?;
                Ok(f64::from_bits(bits))
            }
            FpOperand::St(i) => self.cpu.fpu.st(*i).map_err(Fault::FpStack),
        }
    }

    /// Executes one instruction. On `Err`, no state of the instruction
    /// has been committed (`REP` string ops excepted; they are
    /// restartable, with EIP still pointing at the instruction).
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] for any architectural fault.
    pub fn step(&mut self, mem: &mut GuestMem) -> Result<Event, Trap> {
        let eip = self.cpu.eip;
        let trap = |fault| Trap { fault, eip };
        let mut window = [0u8; 16];
        let fetched = mem
            .fetch_into(eip as u64, &mut window)
            .map_err(|e| trap(Fault::Mem(e)))?;
        let (inst, len) = match decode(&window[..fetched], eip) {
            Ok(v) => v,
            Err(DecodeError::Truncated) => {
                return Err(trap(Fault::Mem(MemFault {
                    addr: eip as u64 + fetched as u64,
                    kind: crate::mem::MemFaultKind::Unmapped,
                    write: false,
                })))
            }
            Err(_) => return Err(trap(Fault::InvalidOpcode)),
        };
        self.stats.instructions += 1;
        self.stats.cycles += self.timing.cost(&inst) as u64;
        let next = eip.wrapping_add(len as u32);
        self.exec(mem, &inst, next).map_err(trap)
    }

    fn exec(&mut self, mem: &mut GuestMem, inst: &Inst, next: u32) -> Exec<Event> {
        use flags::STATUS;
        let cpu_eflags = self.cpu.eflags;
        let mut event = Event::Continue;
        let mut new_eip = next;
        match inst {
            Inst::Alu { op, size, dst, src } => {
                let a = self.read_rm(mem, dst, *size)?;
                let b = self.read_rmi(mem, src, *size)?;
                let (r, f) = alu_apply(*op, a, b, cpu_eflags, *size);
                if op.writes_dst() {
                    self.write_rm(mem, dst, *size, r)?;
                }
                self.cpu.set_flags(f, STATUS);
            }
            Inst::AluRM { op, size, dst, src } => {
                let a = self.cpu.read(*dst, *size);
                let ea = self.ea(src);
                let b = self.load(mem, ea, *size)?;
                let (r, f) = alu_apply(*op, a, b, cpu_eflags, *size);
                if op.writes_dst() {
                    self.cpu.write(*dst, *size, r);
                }
                self.cpu.set_flags(f, STATUS);
            }
            Inst::Test { size, a, b } => {
                let x = self.read_rm(mem, a, *size)?;
                let y = self.read_rmi(mem, b, *size)?;
                let r = size.trunc(x & y);
                self.cpu.set_flags(flags::logic(r, *size), STATUS);
            }
            Inst::Mov { size, dst, src } => {
                let v = self.read_rmi(mem, src, *size)?;
                self.write_rm(mem, dst, *size, v)?;
            }
            Inst::MovLoad { size, dst, src } => {
                let ea = self.ea(src);
                let v = self.load(mem, ea, *size)?;
                self.cpu.write(*dst, *size, v);
            }
            Inst::Movzx { dst, src_size, src } => {
                let v = self.read_rm(mem, src, *src_size)?;
                self.cpu.write(*dst, Size::D, v);
            }
            Inst::Movsx { dst, src_size, src } => {
                let v = self.read_rm(mem, src, *src_size)?;
                self.cpu.write(*dst, Size::D, src_size.sext(v) as u32);
            }
            Inst::Lea { dst, addr } => {
                let ea = self.ea(addr);
                self.cpu.write(*dst, Size::D, ea);
            }
            Inst::Xchg { size, reg, rm } => {
                let a = self.cpu.read(*reg, *size);
                let b = self.read_rm(mem, rm, *size)?;
                self.write_rm(mem, rm, *size, a)?;
                self.cpu.write(*reg, *size, b);
            }
            Inst::Push { src } => {
                let v = self.read_rmi(mem, src, Size::D)?;
                self.push32(mem, v)?;
            }
            Inst::Pop { dst } => {
                // Pop to memory: the load happens with the pre-pop ESP,
                // and ESP is updated before the effective address of the
                // destination is evaluated (IA-32 semantics).
                let v = self.pop32(mem)?;
                match self.write_rm(mem, dst, Size::D, v) {
                    Ok(()) => {}
                    Err(e) => {
                        // Undo the ESP update for preciseness.
                        self.cpu.set_esp(self.cpu.esp().wrapping_sub(4));
                        return Err(e);
                    }
                }
            }
            Inst::IncDec { inc, size, dst } => {
                let a = self.read_rm(mem, dst, *size)?;
                let (r, f) = if *inc {
                    (size.trunc(a.wrapping_add(1)), flags::inc(a, *size))
                } else {
                    (size.trunc(a.wrapping_sub(1)), flags::dec(a, *size))
                };
                self.write_rm(mem, dst, *size, r)?;
                self.cpu.set_flags(f, STATUS & !flags::CF);
            }
            Inst::Neg { size, dst } => {
                let a = self.read_rm(mem, dst, *size)?;
                let r = size.trunc(0u32.wrapping_sub(a));
                self.write_rm(mem, dst, *size, r)?;
                self.cpu.set_flags(flags::neg(a, *size), STATUS);
            }
            Inst::Not { size, dst } => {
                let a = self.read_rm(mem, dst, *size)?;
                self.write_rm(mem, dst, *size, size.trunc(!a))?;
            }
            Inst::Shift {
                op,
                size,
                dst,
                count,
            } => {
                let a = self.read_rm(mem, dst, *size)?;
                let c = match count {
                    ShiftCount::Imm(i) => *i as u32,
                    ShiftCount::Cl => self.cpu.gpr[1] & 0xFF,
                } & 0x1F;
                if c != 0 {
                    let (r, f) = match op {
                        ShiftOp::Shl => (size.trunc(a << c.min(31)), flags::shl(a, c, *size)),
                        ShiftOp::Shr => {
                            let r = if c >= size.bits() {
                                0
                            } else {
                                size.trunc(a) >> c
                            };
                            (r, flags::shr(a, c, *size))
                        }
                        ShiftOp::Sar => {
                            let sa = size.sext(a);
                            let r = size.trunc((sa >> c.min(size.bits() - 1)) as u32);
                            (r, flags::sar(a, c, *size))
                        }
                    };
                    self.write_rm(mem, dst, *size, r)?;
                    self.cpu.set_flags(f, STATUS);
                }
            }
            Inst::ImulRm { dst, src } => {
                let a = self.cpu.read(*dst, Size::D) as i32 as i64;
                let b = self.read_rm(mem, src, Size::D)? as i32 as i64;
                let p = a.wrapping_mul(b);
                self.cpu.write(*dst, Size::D, p as u32);
                self.cpu
                    .set_flags(flags::imul(p as u32, (p >> 32) as u32, Size::D), STATUS);
            }
            Inst::ImulRmImm { dst, src, imm } => {
                let a = self.read_rm(mem, src, Size::D)? as i32 as i64;
                let p = a.wrapping_mul(*imm as i64);
                self.cpu.write(*dst, Size::D, p as u32);
                self.cpu
                    .set_flags(flags::imul(p as u32, (p >> 32) as u32, Size::D), STATUS);
            }
            Inst::MulDiv { op, size, src } => {
                let s = self.read_rm(mem, src, *size)?;
                self.mul_div(*op, *size, s)?;
            }
            Inst::Cdq => {
                let v = if (self.cpu.gpr[0] as i32) < 0 {
                    u32::MAX
                } else {
                    0
                };
                self.cpu.write(EDX, Size::D, v);
            }
            Inst::Cwde => {
                let v = self.cpu.gpr[0] as u16 as i16 as i32;
                self.cpu.write(Gpr::new(0), Size::D, v as u32);
            }
            Inst::Jmp { target } => new_eip = *target,
            Inst::JmpInd { src } => new_eip = self.read_rm(mem, src, Size::D)?,
            Inst::Jcc { cond, target } => {
                if self.cpu.cond(*cond) {
                    new_eip = *target;
                    self.stats.cycles += self.timing.taken_branch_extra as u64;
                }
            }
            Inst::Call { target } => {
                self.push32(mem, next)?;
                new_eip = *target;
            }
            Inst::CallInd { src } => {
                let t = self.read_rm(mem, src, Size::D)?;
                self.push32(mem, next)?;
                new_eip = t;
            }
            Inst::Ret { pop } => {
                let t = self.pop32(mem)?;
                self.cpu.set_esp(self.cpu.esp().wrapping_add(*pop as u32));
                new_eip = t;
            }
            Inst::Setcc { cond, dst } => {
                let v = self.cpu.cond(*cond) as u32;
                self.write_rm(mem, dst, Size::B, v)?;
            }
            Inst::Cmovcc { cond, dst, src } => {
                // The source is read (and may fault) regardless of the
                // condition, as on hardware.
                let v = self.read_rm(mem, src, Size::D)?;
                if self.cpu.cond(*cond) {
                    self.cpu.write(*dst, Size::D, v);
                }
            }
            Inst::Nop => {}
            Inst::Hlt => event = Event::Halt,
            Inst::Ud2 => return Err(Fault::InvalidOpcode),
            Inst::Int { vector } => {
                event = Event::Syscall { vector: *vector };
            }
            Inst::Movs { size, rep } => {
                self.string_op(mem, *size, *rep, true)?;
            }
            Inst::Stos { size, rep } => {
                self.string_op(mem, *size, *rep, false)?;
            }
            Inst::Fld { src } => {
                let v = self.fp_read(mem, src)?;
                self.cpu.fpu.push(v).map_err(Fault::FpStack)?;
            }
            Inst::Fst { dst, pop } => {
                let v = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                match dst {
                    FpOperand::M32(a) => {
                        let ea = self.ea(a);
                        self.store(mem, ea, Size::D, (v as f32).to_bits())?;
                    }
                    FpOperand::M64(a) => {
                        let ea = self.ea(a);
                        self.store64(mem, ea, v.to_bits())?;
                    }
                    FpOperand::St(i) => {
                        self.cpu.fpu.set_st(*i, v).map_err(Fault::FpStack)?;
                    }
                }
                if *pop {
                    self.cpu.fpu.pop().map_err(Fault::FpStack)?;
                }
            }
            Inst::Fild { src } => {
                let ea = self.ea(src);
                let v = self.load(mem, ea, Size::D)? as i32;
                self.cpu.fpu.push(v as f64).map_err(Fault::FpStack)?;
            }
            Inst::Fistp { dst } => {
                let v = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                let ea = self.ea(dst);
                let i = if v.is_nan() || !(-2147483648.0..2147483648.0).contains(&v) {
                    i32::MIN // integer indefinite
                } else {
                    v as i32 // Rust casts truncate toward zero, like FISTP with RC=truncate
                };
                self.store(mem, ea, Size::D, i as u32)?;
                self.cpu.fpu.pop().map_err(Fault::FpStack)?;
            }
            Inst::Farith { op, form } => match form {
                FpArithForm::St0Mem(sz, a) => {
                    let src = self.fp_read(
                        mem,
                        &match sz {
                            Size2::S => FpOperand::M32(*a),
                            Size2::D => FpOperand::M64(*a),
                        },
                    )?;
                    let dst = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                    self.cpu
                        .fpu
                        .set_st(0, op.apply(dst, src))
                        .map_err(Fault::FpStack)?;
                }
                FpArithForm::St0Sti(i) => {
                    let src = self.cpu.fpu.st(*i).map_err(Fault::FpStack)?;
                    let dst = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                    self.cpu
                        .fpu
                        .set_st(0, op.apply(dst, src))
                        .map_err(Fault::FpStack)?;
                }
                FpArithForm::StiSt0 { i, pop } => {
                    let src = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                    let dst = self.cpu.fpu.st(*i).map_err(Fault::FpStack)?;
                    self.cpu
                        .fpu
                        .set_st(*i, op.apply(dst, src))
                        .map_err(Fault::FpStack)?;
                    if *pop {
                        self.cpu.fpu.pop().map_err(Fault::FpStack)?;
                    }
                }
            },
            Inst::Fchs => {
                let v = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                self.cpu.fpu.set_st(0, -v).map_err(Fault::FpStack)?;
            }
            Inst::Fabs => {
                let v = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                self.cpu.fpu.set_st(0, v.abs()).map_err(Fault::FpStack)?;
            }
            Inst::Fsqrt => {
                let v = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                self.cpu.fpu.set_st(0, v.sqrt()).map_err(Fault::FpStack)?;
            }
            Inst::Fxch { i } => {
                self.cpu.fpu.fxch(*i).map_err(Fault::FpStack)?;
            }
            Inst::Fld1 => self.cpu.fpu.push(1.0).map_err(Fault::FpStack)?,
            Inst::Fldz => self.cpu.fpu.push(0.0).map_err(Fault::FpStack)?,
            Inst::Fcomi { i, pop, .. } => {
                let a = self.cpu.fpu.st(0).map_err(Fault::FpStack)?;
                let b = self.cpu.fpu.st(*i).map_err(Fault::FpStack)?;
                self.cpu.set_flags(fp_compare_flags(a, b), flags::STATUS);
                if *pop {
                    self.cpu.fpu.pop().map_err(Fault::FpStack)?;
                }
            }
            Inst::Movd { mm, rm, to_mm } => {
                if *to_mm {
                    let v = self.read_rm(mem, rm, Size::D)?;
                    self.cpu.fpu.mmx_write(mm.num(), v as u64);
                } else {
                    let v = self.cpu.fpu.mmx_read(mm.num()) as u32;
                    self.cpu
                        .fpu
                        .mmx_write(mm.num(), self.cpu.fpu.mmx_read(mm.num()));
                    self.write_rm(mem, rm, Size::D, v)?;
                }
            }
            Inst::Movq { mm, src, to_mm } => {
                if *to_mm {
                    let v = match src {
                        MmM::Reg(m) => self.cpu.fpu.mmx_read(m.num()),
                        MmM::Mem(a) => {
                            let ea = self.ea(a);
                            self.load64(mem, ea)?
                        }
                    };
                    self.cpu.fpu.mmx_write(mm.num(), v);
                } else {
                    let v = self.cpu.fpu.mmx_read(mm.num());
                    match src {
                        MmM::Reg(m) => self.cpu.fpu.mmx_write(m.num(), v),
                        MmM::Mem(a) => {
                            let ea = self.ea(a);
                            self.store64(mem, ea, v)?;
                            // A store does not change MMX mode state
                            // beyond the read side; re-mark mode.
                            self.cpu.fpu.mmx_write(mm.num(), v);
                        }
                    }
                }
            }
            Inst::PAlu { op, dst, src } => {
                let a = self.cpu.fpu.mmx_read(dst.num());
                let b = match src {
                    MmM::Reg(m) => self.cpu.fpu.mmx_read(m.num()),
                    MmM::Mem(ad) => {
                        let ea = self.ea(ad);
                        self.load64(mem, ea)?
                    }
                };
                self.cpu.fpu.mmx_write(dst.num(), mmx_apply(*op, a, b));
            }
            Inst::Emms => self.cpu.fpu.emms(),
            Inst::Movss { xmm, rm, to_xmm } => {
                if *to_xmm {
                    match rm {
                        XmmM::Reg(x) => {
                            let v = self.cpu.xmm_lane(*x, 0);
                            self.cpu.set_xmm_lane(*xmm, 0, v);
                        }
                        XmmM::Mem(a) => {
                            let ea = self.ea(a);
                            let bits = self.load(mem, ea, Size::D)?;
                            // Load form zeroes the upper lanes.
                            self.cpu.xmm[xmm.num() as usize] = bits as u128;
                        }
                    }
                } else {
                    let v = self.cpu.xmm_lane(*xmm, 0);
                    match rm {
                        XmmM::Reg(x) => self.cpu.set_xmm_lane(*x, 0, v),
                        XmmM::Mem(a) => {
                            let ea = self.ea(a);
                            self.store(mem, ea, Size::D, v.to_bits())?;
                        }
                    }
                }
            }
            Inst::Movps {
                xmm, rm, to_xmm, ..
            } => {
                // MOVAPS alignment faults are modeled as a timing event
                // only; semantics are the unaligned ones.
                if *to_xmm {
                    let v = match rm {
                        XmmM::Reg(x) => self.cpu.xmm[x.num() as usize],
                        XmmM::Mem(a) => {
                            let ea = self.ea(a);
                            let lo = self.load64(mem, ea)? as u128;
                            let hi = self.load64(mem, ea.wrapping_add(8))? as u128;
                            lo | (hi << 64)
                        }
                    };
                    self.cpu.xmm[xmm.num() as usize] = v;
                } else {
                    let v = self.cpu.xmm[xmm.num() as usize];
                    match rm {
                        XmmM::Reg(x) => self.cpu.xmm[x.num() as usize] = v,
                        XmmM::Mem(a) => {
                            let ea = self.ea(a);
                            self.store64(mem, ea, v as u64)?;
                            self.store64(mem, ea.wrapping_add(8), (v >> 64) as u64)?;
                        }
                    }
                }
            }
            Inst::SseArith {
                op,
                scalar,
                dst,
                src,
            } => {
                let b = self.xmm_src(mem, src, *scalar)?;
                let lanes = if *scalar { 1 } else { 4 };
                for lane in 0..lanes {
                    let a = self.cpu.xmm_lane(*dst, lane);
                    let bv = f32::from_bits((b >> (lane * 32)) as u32);
                    self.cpu.set_xmm_lane(*dst, lane, op.apply(a, bv));
                }
            }
            Inst::Xorps { dst, src } => {
                let b = self.xmm_src(mem, src, false)?;
                self.cpu.xmm[dst.num() as usize] ^= b;
            }
            Inst::Sqrtss { dst, src } => {
                let b = self.xmm_src(mem, src, true)?;
                let v = f32::from_bits(b as u32).sqrt();
                self.cpu.set_xmm_lane(*dst, 0, v);
            }
            Inst::Cvtsi2ss { dst, src } => {
                let v = self.read_rm(mem, src, Size::D)? as i32;
                self.cpu.set_xmm_lane(*dst, 0, v as f32);
            }
            Inst::Cvttss2si { dst, src } => {
                let b = self.xmm_src(mem, src, true)?;
                let v = f32::from_bits(b as u32);
                let i = if v.is_nan() || !(-2147483648.0..2147483648.0).contains(&v) {
                    i32::MIN
                } else {
                    v as i32
                };
                self.cpu.write(*dst, Size::D, i as u32);
            }
            Inst::Ucomiss { a, b, .. } => {
                let x = self.cpu.xmm_lane(*a, 0) as f64;
                let yb = self.xmm_src(mem, b, true)?;
                let y = f32::from_bits(yb as u32) as f64;
                self.cpu.set_flags(fp_compare_flags(x, y), flags::STATUS);
            }
        }
        self.cpu.eip = new_eip;
        Ok(event)
    }

    fn xmm_src(&mut self, mem: &GuestMem, src: &XmmM, scalar: bool) -> Exec<u128> {
        match src {
            XmmM::Reg(x) => Ok(self.cpu.xmm[x.num() as usize]),
            XmmM::Mem(a) => {
                let ea = self.ea(a);
                if scalar {
                    Ok(self.load(mem, ea, Size::D)? as u128)
                } else {
                    let lo = self.load64(mem, ea)? as u128;
                    let hi = self.load64(mem, ea.wrapping_add(8))? as u128;
                    Ok(lo | (hi << 64))
                }
            }
        }
    }

    fn mul_div(&mut self, op: MulDivOp, size: Size, s: u32) -> Exec<()> {
        use flags::STATUS;
        match (op, size) {
            (MulDivOp::Mul, Size::D) => {
                let p = (self.cpu.gpr[0] as u64) * (s as u64);
                self.cpu.gpr[0] = p as u32;
                self.cpu.gpr[2] = (p >> 32) as u32;
                self.cpu
                    .set_flags(flags::mul(p as u32, (p >> 32) as u32, size), STATUS);
            }
            (MulDivOp::Imul, Size::D) => {
                let p = (self.cpu.gpr[0] as i32 as i64).wrapping_mul(s as i32 as i64);
                self.cpu.gpr[0] = p as u32;
                self.cpu.gpr[2] = (p >> 32) as u32;
                self.cpu
                    .set_flags(flags::imul(p as u32, (p >> 32) as u32, size), STATUS);
            }
            (MulDivOp::Div, Size::D) => {
                if s == 0 {
                    return Err(Fault::Divide);
                }
                let n = ((self.cpu.gpr[2] as u64) << 32) | self.cpu.gpr[0] as u64;
                let q = n / s as u64;
                if q > u32::MAX as u64 {
                    return Err(Fault::Divide);
                }
                self.cpu.gpr[0] = q as u32;
                self.cpu.gpr[2] = (n % s as u64) as u32;
            }
            (MulDivOp::Idiv, Size::D) => {
                if s == 0 {
                    return Err(Fault::Divide);
                }
                let n = (((self.cpu.gpr[2] as u64) << 32) | self.cpu.gpr[0] as u64) as i64;
                let d = s as i32 as i64;
                if n == i64::MIN && d == -1 {
                    return Err(Fault::Divide);
                }
                let q = n / d;
                if q > i32::MAX as i64 || q < i32::MIN as i64 {
                    return Err(Fault::Divide);
                }
                self.cpu.gpr[0] = q as u32;
                self.cpu.gpr[2] = (n % d) as u32;
            }
            (MulDivOp::Mul, sz) => {
                // Byte/word forms use AX / DX:AX.
                let a = self.cpu.read(Gpr::new(0), sz);
                let p = a as u64 * s as u64;
                match sz {
                    Size::B => self.cpu.write(Gpr::new(0), Size::W, p as u32),
                    _ => {
                        self.cpu.write(Gpr::new(0), Size::W, p as u32);
                        self.cpu.write(EDX, Size::W, (p >> 16) as u32);
                    }
                }
                self.cpu.set_flags(
                    flags::mul(p as u32 & sz.mask(), (p >> sz.bits()) as u32, sz),
                    STATUS,
                );
            }
            (MulDivOp::Imul, sz) => {
                let a = sz.sext(self.cpu.read(Gpr::new(0), sz)) as i64;
                let p = a.wrapping_mul(sz.sext(s) as i64);
                match sz {
                    Size::B => self.cpu.write(Gpr::new(0), Size::W, p as u32),
                    _ => {
                        self.cpu.write(Gpr::new(0), Size::W, p as u32);
                        self.cpu.write(EDX, Size::W, (p >> 16) as u32);
                    }
                }
                self.cpu.set_flags(
                    flags::imul(p as u32 & sz.mask(), (p >> sz.bits()) as u32, sz),
                    STATUS,
                );
            }
            (MulDivOp::Div, sz) => {
                if sz.trunc(s) == 0 {
                    return Err(Fault::Divide);
                }
                let n = match sz {
                    Size::B => self.cpu.read(Gpr::new(0), Size::W),
                    _ => (self.cpu.read(EDX, Size::W) << 16) | self.cpu.read(Gpr::new(0), Size::W),
                };
                let q = n / sz.trunc(s);
                if q > sz.mask() {
                    return Err(Fault::Divide);
                }
                let r = n % sz.trunc(s);
                match sz {
                    Size::B => self
                        .cpu
                        .write(Gpr::new(0), Size::W, (q & 0xFF) | ((r & 0xFF) << 8)),
                    _ => {
                        self.cpu.write(Gpr::new(0), Size::W, q);
                        self.cpu.write(EDX, Size::W, r);
                    }
                }
            }
            (MulDivOp::Idiv, sz) => {
                if sz.trunc(s) == 0 {
                    return Err(Fault::Divide);
                }
                let n = match sz {
                    Size::B => self.cpu.read(Gpr::new(0), Size::W) as u16 as i16 as i64,
                    _ => {
                        (((self.cpu.read(EDX, Size::W) << 16) | self.cpu.read(Gpr::new(0), Size::W))
                            as i32) as i64
                    }
                };
                let d = sz.sext(s) as i64;
                let q = n / d;
                let half = 1i64 << (sz.bits() - 1);
                if q >= half || q < -half {
                    return Err(Fault::Divide);
                }
                let r = n % d;
                match sz {
                    Size::B => self.cpu.write(
                        Gpr::new(0),
                        Size::W,
                        ((q as u32) & 0xFF) | (((r as u32) & 0xFF) << 8),
                    ),
                    _ => {
                        self.cpu.write(Gpr::new(0), Size::W, q as u32);
                        self.cpu.write(EDX, Size::W, r as u32);
                    }
                }
            }
        }
        Ok(())
    }

    fn string_op(&mut self, mem: &mut GuestMem, size: Size, rep: bool, movs: bool) -> Exec<()> {
        let step = if self.cpu.eflags & flags::DF != 0 {
            (size.bytes() as i32).wrapping_neg()
        } else {
            size.bytes() as i32
        };
        loop {
            if rep && self.cpu.gpr[ECX.num() as usize] == 0 {
                break;
            }
            let v = if movs {
                let esi = self.cpu.gpr[ESI.num() as usize];
                let v = self.load(mem, esi, size)?;
                self.cpu.gpr[ESI.num() as usize] = esi.wrapping_add(step as u32);
                v
            } else {
                self.cpu.read(Gpr::new(0), size)
            };
            let edi = self.cpu.gpr[EDI.num() as usize];
            match self.store(mem, edi, size, v) {
                Ok(()) => {}
                Err(e) => {
                    if movs {
                        // Back out the ESI bump so the element restarts.
                        let esi = self.cpu.gpr[ESI.num() as usize];
                        self.cpu.gpr[ESI.num() as usize] = esi.wrapping_sub(step as u32);
                    }
                    return Err(e);
                }
            }
            self.cpu.gpr[EDI.num() as usize] = edi.wrapping_add(step as u32);
            if !rep {
                break;
            }
            self.cpu.gpr[ECX.num() as usize] = self.cpu.gpr[ECX.num() as usize].wrapping_sub(1);
            self.stats.cycles += self.timing.string_element as u64;
        }
        Ok(())
    }

    /// Runs until a halt, syscall, trap, or `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Trap`].
    pub fn run(&mut self, mem: &mut GuestMem, max_steps: u64) -> Result<Event, Trap> {
        for _ in 0..max_steps {
            match self.step(mem)? {
                Event::Continue => {}
                other => return Ok(other),
            }
        }
        Ok(Event::Continue)
    }
}

/// Applies a two-operand ALU op, returning `(result, new_flag_bits)`.
pub fn alu_apply(op: AluOp, a: u32, b: u32, eflags: u32, size: Size) -> (u32, u32) {
    let carry = eflags & flags::CF != 0;
    match op {
        AluOp::Add => (size.trunc(a.wrapping_add(b)), flags::add(a, b, size)),
        AluOp::Adc => (
            size.trunc(a.wrapping_add(b).wrapping_add(carry as u32)),
            flags::adc(a, b, carry, size),
        ),
        AluOp::Sub | AluOp::Cmp => (size.trunc(a.wrapping_sub(b)), flags::sub(a, b, size)),
        AluOp::Sbb => (
            size.trunc(a.wrapping_sub(b).wrapping_sub(carry as u32)),
            flags::sbb(a, b, carry, size),
        ),
        AluOp::And => {
            let r = size.trunc(a & b);
            (r, flags::logic(r, size))
        }
        AluOp::Or => {
            let r = size.trunc(a | b);
            (r, flags::logic(r, size))
        }
        AluOp::Xor => {
            let r = size.trunc(a ^ b);
            (r, flags::logic(r, size))
        }
    }
}

/// EFLAGS bits produced by `FCOMI`/`UCOMISS`-style compares.
pub fn fp_compare_flags(a: f64, b: f64) -> u32 {
    if a.is_nan() || b.is_nan() {
        flags::ZF | flags::PF | flags::CF
    } else if a > b {
        0
    } else if a < b {
        flags::CF
    } else {
        flags::ZF
    }
}

/// Lane-wise MMX ALU evaluation on 64-bit packed values.
pub fn mmx_apply(op: MmxOp, a: u64, b: u64) -> u64 {
    fn lanewise(a: u64, b: u64, lane_bytes: u8, f: impl Fn(u32, u32) -> u32) -> u64 {
        let bits = lane_bytes as u32 * 8;
        let lanes = 64 / bits;
        let mask = if bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << bits) - 1
        };
        let mut out = 0u64;
        for i in 0..lanes {
            let sh = i * bits;
            let x = ((a >> sh) & mask) as u32;
            let y = ((b >> sh) & mask) as u32;
            out |= ((f(x, y) as u64) & mask) << sh;
        }
        out
    }
    match op {
        MmxOp::PAdd(w) => lanewise(a, b, w, |x, y| x.wrapping_add(y)),
        MmxOp::PSub(w) => lanewise(a, b, w, |x, y| x.wrapping_sub(y)),
        MmxOp::Pand => a & b,
        MmxOp::Por => a | b,
        MmxOp::Pxor => a ^ b,
        MmxOp::Pmullw => lanewise(a, b, 2, |x, y| {
            ((x as u16 as i16 as i32).wrapping_mul(y as u16 as i16 as i32)) as u32
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::mem::Prot;
    use crate::regs::*;

    fn setup(asm: &mut Asm) -> (Interp, GuestMem) {
        let code = asm.assemble();
        let mut mem = GuestMem::new();
        mem.map(0x40_0000, (code.len() as u64).max(1) + 0x1000, Prot::rwx());
        mem.write_forced(0x40_0000, &code);
        mem.map(0x7F_0000, 0x1_0000, Prot::rw()); // stack
        mem.map(0x10_0000, 0x1_0000, Prot::rw()); // data
        let mut i = Interp::new();
        i.cpu.eip = 0x40_0000;
        i.cpu.set_esp(0x7F_F000);
        (i, mem)
    }

    #[test]
    fn arithmetic_loop() {
        // sum 1..=10 into EAX
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 0);
        a.mov_ri(ECX, 10);
        let top = a.label();
        a.bind(top);
        a.alu_rr(AluOp::Add, EAX, ECX);
        a.dec(ECX);
        a.jcc(crate::flags::Cond::Ne, top);
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        let ev = i.run(&mut mem, 1000).unwrap();
        assert_eq!(ev, Event::Halt);
        assert_eq!(i.cpu.gpr[0], 55);
    }

    #[test]
    fn push_pop_stack() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 0x1234);
        a.push_r(EAX);
        a.mov_ri(EAX, 0);
        a.pop_r(EBX);
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 100).unwrap();
        assert_eq!(i.cpu.gpr[EBX.num() as usize], 0x1234);
        assert_eq!(i.cpu.esp(), 0x7F_F000);
    }

    #[test]
    fn call_ret() {
        let mut a = Asm::new(0x40_0000);
        let f = a.label();
        a.mov_ri(EAX, 1);
        a.call(f);
        a.hlt();
        a.bind(f);
        a.alu_ri(AluOp::Add, EAX, 41);
        a.ret();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 100).unwrap();
        assert_eq!(i.cpu.gpr[0], 42);
    }

    #[test]
    fn memory_ops_and_lea() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EBX, 0x10_0000);
        a.mov_ri(ECX, 4);
        a.mov_mi(Addr::base_index(EBX, ECX, 4, 0), 0xAABB);
        a.mov_load(EAX, Addr::base_disp(EBX, 16));
        a.lea(EDX, Addr::base_index(EBX, ECX, 2, 100));
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 100).unwrap();
        assert_eq!(i.cpu.gpr[0], 0xAABB);
        assert_eq!(i.cpu.gpr[2], 0x10_0000 + 8 + 100);
    }

    #[test]
    fn push_fault_preserves_esp() {
        // Paper Table 1: push with unmapped stack must not update ESP.
        let mut a = Asm::new(0x40_0000);
        a.push_r(EAX);
        let (mut i, mut mem) = setup(&mut a);
        i.cpu.set_esp(0x2000); // unmapped
        let t = i.run(&mut mem, 10).unwrap_err();
        assert!(matches!(t.fault, Fault::Mem(_)));
        assert_eq!(i.cpu.esp(), 0x2000, "ESP must be unchanged after fault");
        assert_eq!(t.eip, 0x40_0000);
        assert_eq!(i.cpu.eip, 0x40_0000, "EIP points at faulting instruction");
    }

    #[test]
    fn divide_faults() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 100);
        a.mov_ri(EDX, 0);
        a.mov_ri(ECX, 0);
        a.divide(MulDivOp::Div, ECX);
        let (mut i, mut mem) = setup(&mut a);
        let t = i.run(&mut mem, 10).unwrap_err();
        assert_eq!(t.fault, Fault::Divide);
        assert_eq!(i.cpu.gpr[0], 100, "EAX unchanged");
    }

    #[test]
    fn div_computes_quotient_remainder() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 100);
        a.mov_ri(EDX, 0);
        a.mov_ri(ECX, 7);
        a.divide(MulDivOp::Div, ECX);
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 10).unwrap();
        assert_eq!(i.cpu.gpr[0], 14);
        assert_eq!(i.cpu.gpr[2], 2);
    }

    #[test]
    fn idiv_signed() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, -100i32 as u32 as i32);
        a.cdq();
        a.mov_ri(ECX, 7);
        a.divide(MulDivOp::Idiv, ECX);
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 10).unwrap();
        assert_eq!(i.cpu.gpr[0] as i32, -14);
        assert_eq!(i.cpu.gpr[2] as i32, -2);
    }

    #[test]
    fn fpu_stack_arithmetic() {
        // (1.5 + 2.5) * 2.0 = 8.0 via the stack.
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EBX, 0x10_0000);
        a.mov_mi(Addr::base(EBX), 1.5f32.to_bits() as i32);
        a.mov_mi(Addr::base_disp(EBX, 4), 2.5f32.to_bits() as i32);
        a.inst(Inst::Fld {
            src: FpOperand::M32(Addr::base(EBX)),
        });
        a.inst(Inst::Fld {
            src: FpOperand::M32(Addr::base_disp(EBX, 4)),
        });
        a.inst(Inst::Farith {
            op: FpArithOp::Add,
            form: FpArithForm::StiSt0 { i: 1, pop: true },
        });
        a.inst(Inst::Fld1);
        a.inst(Inst::Fld1);
        a.inst(Inst::Farith {
            op: FpArithOp::Add,
            form: FpArithForm::StiSt0 { i: 1, pop: true },
        });
        a.inst(Inst::Farith {
            op: FpArithOp::Mul,
            form: FpArithForm::StiSt0 { i: 1, pop: true },
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::base_disp(EBX, 8)),
            pop: true,
        });
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 100).unwrap();
        let bits = mem.read(0x10_0008, 8).unwrap();
        assert_eq!(f64::from_bits(bits), 8.0);
        assert_eq!(i.cpu.fpu.depth(), 0);
    }

    #[test]
    fn fxch_and_compare() {
        let mut a = Asm::new(0x40_0000);
        a.inst(Inst::Fldz);
        a.inst(Inst::Fld1);
        a.inst(Inst::Fxch { i: 1 }); // st0=0, st1=1
        a.inst(Inst::Fcomi {
            i: 1,
            pop: false,
            unordered: false,
        }); // 0 < 1 -> CF
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 100).unwrap();
        assert_ne!(i.cpu.eflags & flags::CF, 0);
        assert_eq!(i.cpu.eflags & flags::ZF, 0);
    }

    #[test]
    fn mmx_roundtrip() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 0x0101_0101u32 as i32);
        a.inst(Inst::Movd {
            mm: Mm::new(0),
            rm: Rm::Reg(EAX),
            to_mm: true,
        });
        a.inst(Inst::PAlu {
            op: MmxOp::PAdd(1),
            dst: Mm::new(0),
            src: MmM::Reg(Mm::new(0)),
        });
        a.inst(Inst::Movd {
            mm: Mm::new(0),
            rm: Rm::Reg(EBX),
            to_mm: false,
        });
        a.inst(Inst::Emms);
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 100).unwrap();
        assert_eq!(i.cpu.gpr[EBX.num() as usize], 0x0202_0202);
    }

    #[test]
    fn sse_scalar_math() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 3);
        a.inst(Inst::Cvtsi2ss {
            dst: Xmm::new(0),
            src: Rm::Reg(EAX),
        });
        a.mov_ri(EAX, 4);
        a.inst(Inst::Cvtsi2ss {
            dst: Xmm::new(1),
            src: Rm::Reg(EAX),
        });
        a.inst(Inst::SseArith {
            op: SseOp::Mul,
            scalar: true,
            dst: Xmm::new(0),
            src: XmmM::Reg(Xmm::new(1)),
        });
        a.inst(Inst::Cvttss2si {
            dst: ECX,
            src: XmmM::Reg(Xmm::new(0)),
        });
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 100).unwrap();
        assert_eq!(i.cpu.gpr[ECX.num() as usize], 12);
    }

    #[test]
    fn rep_movs_copies() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(ESI, 0x10_0000);
        a.mov_ri(EDI, 0x10_0100);
        a.mov_ri(ECX, 8);
        a.inst(Inst::Movs {
            size: Size::D,
            rep: true,
        });
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        for k in 0..8u32 {
            mem.write_u32(0x10_0000 + k as u64 * 4, k * 11).unwrap();
        }
        i.run(&mut mem, 100).unwrap();
        for k in 0..8u32 {
            assert_eq!(mem.read_u32(0x10_0100 + k as u64 * 4).unwrap(), k * 11);
        }
        assert_eq!(i.cpu.gpr[ECX.num() as usize], 0);
        assert_eq!(i.cpu.gpr[ESI.num() as usize], 0x10_0020);
    }

    #[test]
    fn misalignment_counted() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EBX, 0x10_0001);
        a.mov_load(EAX, Addr::base(EBX));
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 10).unwrap();
        assert_eq!(i.stats.misaligned, 1);
    }

    #[test]
    fn flags_subword() {
        // 8-bit add with carry-out.
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 0xFF);
        a.inst(Inst::Alu {
            op: AluOp::Add,
            size: Size::B,
            dst: Rm::Reg(EAX),
            src: RmI::Imm(1),
        });
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.run(&mut mem, 10).unwrap();
        assert_eq!(i.cpu.gpr[0] & 0xFF, 0);
        assert_ne!(i.cpu.eflags & flags::CF, 0);
        assert_ne!(i.cpu.eflags & flags::ZF, 0);
    }

    #[test]
    fn setcc_cmov() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 5);
        a.alu_ri(AluOp::Cmp, EAX, 5);
        a.inst(Inst::Setcc {
            cond: flags::Cond::E,
            dst: Rm::Reg(EBX),
        });
        a.mov_ri(ECX, 9);
        a.inst(Inst::Cmovcc {
            cond: flags::Cond::E,
            dst: EDX,
            src: Rm::Reg(ECX),
        });
        a.hlt();
        let (mut i, mut mem) = setup(&mut a);
        i.cpu.gpr[EBX.num() as usize] = 0xFF00;
        i.run(&mut mem, 10).unwrap();
        assert_eq!(i.cpu.gpr[EBX.num() as usize], 0xFF01, "only BL written");
        assert_eq!(i.cpu.gpr[EDX.num() as usize], 9);
    }

    #[test]
    fn syscall_event() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(EAX, 1);
        a.int(0x80);
        let (mut i, mut mem) = setup(&mut a);
        let ev = i.run(&mut mem, 10).unwrap();
        assert_eq!(ev, Event::Syscall { vector: 0x80 });
        // EIP already advanced past the INT.
        assert_eq!(i.cpu.eip, 0x40_0000 + 5 + 2);
    }

    #[test]
    fn ud2_traps() {
        let mut a = Asm::new(0x40_0000);
        a.inst(Inst::Ud2);
        let (mut i, mut mem) = setup(&mut a);
        let t = i.run(&mut mem, 10).unwrap_err();
        assert_eq!(t.fault, Fault::InvalidOpcode);
    }
}
