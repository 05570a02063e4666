//! Every row of [`Inst::props`] checked against the reference
//! interpreter, the semantic oracle.
//!
//! [`samples`] builds instances of every `Inst` variant; [`variant`] is
//! an exhaustive match, so a new variant does not compile until it has
//! a number there, and then fails the test until it has a sample. Each
//! sample runs alone in [`Interp`] from every combination of: all status
//! flags (and DF) clear or set, each also with the bits outside
//! `flags_read` flipped; an empty or a full x87 stack; its memory
//! operand mapped or unmapped. The row must hold in every run:
//!
//! - a form without `can_fault` never traps;
//! - bits outside `flags_may` never change;
//! - bits in `flags_must` do not depend on the entry flags;
//! - flipping bits outside `flags_read` changes nothing but the
//!   written bits;
//! - an unmapped `mem` operand faults at that operand, and no other
//!   form touches it;
//! - control goes where `flow` says, and an `Int` or `Sse` form leaves
//!   the x87/MMX state alone.

use ia32::cpu::Cpu;
use ia32::encode::encode_to_vec;
use ia32::flags::{Cond, Size, DF, RESERVED_ONES, STATUS};
use ia32::inst::*;
use ia32::interp::{Event, Fault, Interp, Trap};
use ia32::mem::{GuestMem, Prot};
use ia32::regs::*;

const CODE: u32 = 0x40_0000;
const DATA: u32 = 0x10_0000;
const STACK: u32 = 0x7F_0000;
const UNMAPPED: u32 = 0x20_0000;
const PAGE: u32 = 0x1000;
/// Every EFLAGS bit an instruction in the subset reads or writes.
const FLAGS: u32 = STATUS | DF;

/// Each variant's number: one arm per variant and no wildcard.
fn variant(i: &Inst) -> u32 {
    match i {
        Inst::Alu { .. } => 0,
        Inst::AluRM { .. } => 1,
        Inst::Test { .. } => 2,
        Inst::Mov { .. } => 3,
        Inst::MovLoad { .. } => 4,
        Inst::Movzx { .. } => 5,
        Inst::Movsx { .. } => 6,
        Inst::Lea { .. } => 7,
        Inst::Xchg { .. } => 8,
        Inst::Push { .. } => 9,
        Inst::Pop { .. } => 10,
        Inst::IncDec { .. } => 11,
        Inst::Neg { .. } => 12,
        Inst::Not { .. } => 13,
        Inst::Shift { .. } => 14,
        Inst::ImulRm { .. } => 15,
        Inst::ImulRmImm { .. } => 16,
        Inst::MulDiv { .. } => 17,
        Inst::Cdq => 18,
        Inst::Cwde => 19,
        Inst::Jmp { .. } => 20,
        Inst::JmpInd { .. } => 21,
        Inst::Jcc { .. } => 22,
        Inst::Call { .. } => 23,
        Inst::CallInd { .. } => 24,
        Inst::Ret { .. } => 25,
        Inst::Setcc { .. } => 26,
        Inst::Cmovcc { .. } => 27,
        Inst::Nop => 28,
        Inst::Hlt => 29,
        Inst::Ud2 => 30,
        Inst::Int { .. } => 31,
        Inst::Movs { .. } => 32,
        Inst::Stos { .. } => 33,
        Inst::Fld { .. } => 34,
        Inst::Fst { .. } => 35,
        Inst::Fild { .. } => 36,
        Inst::Fistp { .. } => 37,
        Inst::Farith { .. } => 38,
        Inst::Fchs => 39,
        Inst::Fabs => 40,
        Inst::Fsqrt => 41,
        Inst::Fxch { .. } => 42,
        Inst::Fld1 => 43,
        Inst::Fldz => 44,
        Inst::Fcomi { .. } => 45,
        Inst::Movd { .. } => 46,
        Inst::Movq { .. } => 47,
        Inst::PAlu { .. } => 48,
        Inst::Emms => 49,
        Inst::Movss { .. } => 50,
        Inst::Movps { .. } => 51,
        Inst::SseArith { .. } => 52,
        Inst::Xorps { .. } => 53,
        Inst::Sqrtss { .. } => 54,
        Inst::Cvtsi2ss { .. } => 55,
        Inst::Cvttss2si { .. } => 56,
        Inst::Ucomiss { .. } => 57,
    }
}

/// The number of variants [`variant`] tells apart.
const VARIANTS: u32 = 58;

/// Instances of every variant, in the forms the translator tells apart,
/// with `m` as every explicit memory operand.
fn samples(m: Addr) -> Vec<Inst> {
    let (mm, xmm) = (Mm::new, Xmm::new);
    let mut v = Vec::new();
    for op in [AluOp::Add, AluOp::Adc, AluOp::Sbb, AluOp::Xor, AluOp::Cmp] {
        for size in [Size::D, Size::B] {
            v.push(Inst::Alu {
                op,
                size,
                dst: Rm::Reg(EAX),
                src: RmI::Imm(5),
            });
        }
        v.push(Inst::Alu {
            op,
            size: Size::D,
            dst: Rm::Mem(m),
            src: RmI::Reg(ECX),
        });
        v.push(Inst::Alu {
            op,
            size: Size::D,
            dst: Rm::Mem(m),
            src: RmI::Imm(1),
        });
        v.push(Inst::AluRM {
            op,
            size: Size::D,
            dst: EDX,
            src: m,
        });
    }
    v.extend([
        Inst::Test {
            size: Size::D,
            a: Rm::Reg(EAX),
            b: RmI::Imm(3),
        },
        Inst::Test {
            size: Size::B,
            a: Rm::Mem(m),
            b: RmI::Reg(ECX),
        },
        Inst::Mov {
            size: Size::D,
            dst: Rm::Mem(m),
            src: RmI::Reg(EAX),
        },
        Inst::Mov {
            size: Size::W,
            dst: Rm::Reg(EBX),
            src: RmI::Imm(7),
        },
        Inst::MovLoad {
            size: Size::D,
            dst: EAX,
            src: m,
        },
        Inst::Movzx {
            dst: EAX,
            src_size: Size::B,
            src: Rm::Mem(m),
        },
        Inst::Movsx {
            dst: EDX,
            src_size: Size::W,
            src: Rm::Reg(ECX),
        },
        Inst::Lea { dst: EAX, addr: m },
        Inst::Xchg {
            size: Size::D,
            reg: EAX,
            rm: Rm::Mem(m),
        },
        Inst::Xchg {
            size: Size::B,
            reg: ECX,
            rm: Rm::Reg(EDX),
        },
        Inst::Push { src: RmI::Imm(9) },
        Inst::Push { src: RmI::Mem(m) },
        Inst::Pop { dst: Rm::Reg(EAX) },
        Inst::Pop { dst: Rm::Mem(m) },
        Inst::IncDec {
            inc: true,
            size: Size::D,
            dst: Rm::Reg(EAX),
        },
        Inst::IncDec {
            inc: false,
            size: Size::B,
            dst: Rm::Mem(m),
        },
        Inst::Neg {
            size: Size::D,
            dst: Rm::Mem(m),
        },
        Inst::Not {
            size: Size::B,
            dst: Rm::Reg(EAX),
        },
        Inst::ImulRm {
            dst: EAX,
            src: Rm::Mem(m),
        },
        Inst::ImulRmImm {
            dst: EDX,
            src: Rm::Reg(ECX),
            imm: 3,
        },
        Inst::Cdq,
        Inst::Cwde,
        Inst::Nop,
        Inst::Hlt,
        Inst::Ud2,
        Inst::Int { vector: 0x80 },
        Inst::Jmp {
            target: CODE + 0x40,
        },
        Inst::JmpInd { src: Rm::Reg(EAX) },
        Inst::JmpInd { src: Rm::Mem(m) },
        Inst::Call {
            target: CODE + 0x40,
        },
        Inst::CallInd { src: Rm::Reg(EAX) },
        Inst::CallInd { src: Rm::Mem(m) },
        Inst::Ret { pop: 0 },
        Inst::Ret { pop: 8 },
    ]);
    for (op, count, dst) in [
        (ShiftOp::Shl, ShiftCount::Imm(3), Rm::Reg(EAX)),
        (ShiftOp::Sar, ShiftCount::Imm(1), Rm::Mem(m)),
        (ShiftOp::Shr, ShiftCount::Imm(32), Rm::Reg(EAX)),
        (ShiftOp::Shr, ShiftCount::Cl, Rm::Reg(EDX)),
    ] {
        v.push(Inst::Shift {
            op,
            size: Size::D,
            dst,
            count,
        });
    }
    for op in [MulDivOp::Mul, MulDivOp::Imul, MulDivOp::Div, MulDivOp::Idiv] {
        for size in [Size::D, Size::B] {
            v.push(Inst::MulDiv {
                op,
                size,
                src: Rm::Reg(EBX),
            });
        }
        v.push(Inst::MulDiv {
            op,
            size: Size::D,
            src: Rm::Mem(m),
        });
    }
    for cond in [
        Cond::O,
        Cond::B,
        Cond::E,
        Cond::Be,
        Cond::S,
        Cond::P,
        Cond::L,
        Cond::Le,
    ] {
        v.push(Inst::Jcc {
            cond,
            target: CODE + 0x40,
        });
        v.push(Inst::Setcc {
            cond,
            dst: Rm::Reg(EAX),
        });
        v.push(Inst::Cmovcc {
            cond,
            dst: EDX,
            src: Rm::Mem(m),
        });
    }
    v.push(Inst::Setcc {
        cond: Cond::Ne,
        dst: Rm::Mem(m),
    });
    for (size, rep) in [(Size::D, false), (Size::B, true)] {
        v.push(Inst::Movs { size, rep });
        v.push(Inst::Stos { size, rep });
    }
    // x87.
    v.extend([
        Inst::Fld {
            src: FpOperand::M32(m),
        },
        Inst::Fld {
            src: FpOperand::M64(m),
        },
        Inst::Fld {
            src: FpOperand::St(1),
        },
        Inst::Fst {
            dst: FpOperand::M32(m),
            pop: false,
        },
        Inst::Fst {
            dst: FpOperand::M64(m),
            pop: true,
        },
        Inst::Fst {
            dst: FpOperand::St(3),
            pop: true,
        },
        Inst::Fild { src: m },
        Inst::Fistp { dst: m },
        Inst::Fchs,
        Inst::Fabs,
        Inst::Fsqrt,
        Inst::Fxch { i: 1 },
        Inst::Fld1,
        Inst::Fldz,
    ]);
    for op in [
        FpArithOp::Add,
        FpArithOp::Sub,
        FpArithOp::SubR,
        FpArithOp::Mul,
        FpArithOp::Div,
        FpArithOp::DivR,
    ] {
        for form in [
            FpArithForm::St0Mem(Size2::S, m),
            FpArithForm::St0Mem(Size2::D, m),
            FpArithForm::St0Sti(2),
            FpArithForm::StiSt0 { i: 1, pop: true },
        ] {
            v.push(Inst::Farith { op, form });
        }
    }
    for (pop, unordered) in [(false, false), (true, true)] {
        v.push(Inst::Fcomi {
            i: 1,
            pop,
            unordered,
        });
    }
    // MMX.
    for to_mm in [true, false] {
        v.push(Inst::Movd {
            mm: mm(0),
            rm: Rm::Reg(EAX),
            to_mm,
        });
        v.push(Inst::Movd {
            mm: mm(0),
            rm: Rm::Mem(m),
            to_mm,
        });
        v.push(Inst::Movq {
            mm: mm(1),
            src: MmM::Mem(m),
            to_mm,
        });
    }
    v.push(Inst::Movq {
        mm: mm(1),
        src: MmM::Reg(mm(2)),
        to_mm: true,
    });
    for op in [MmxOp::PAdd(1), MmxOp::PSub(4), MmxOp::Pxor, MmxOp::Pmullw] {
        v.push(Inst::PAlu {
            op,
            dst: mm(3),
            src: MmM::Reg(mm(4)),
        });
        v.push(Inst::PAlu {
            op,
            dst: mm(3),
            src: MmM::Mem(m),
        });
    }
    v.push(Inst::Emms);
    // SSE.
    for to_xmm in [true, false] {
        v.push(Inst::Movss {
            xmm: xmm(0),
            rm: XmmM::Mem(m),
            to_xmm,
        });
        v.push(Inst::Movps {
            xmm: xmm(2),
            rm: XmmM::Mem(m),
            to_xmm,
            aligned: to_xmm,
        });
    }
    v.extend([
        Inst::Movss {
            xmm: xmm(0),
            rm: XmmM::Reg(xmm(1)),
            to_xmm: true,
        },
        Inst::Movps {
            xmm: xmm(2),
            rm: XmmM::Reg(xmm(3)),
            to_xmm: true,
            aligned: false,
        },
        Inst::Xorps {
            dst: xmm(1),
            src: XmmM::Mem(m),
        },
        Inst::Sqrtss {
            dst: xmm(1),
            src: XmmM::Reg(xmm(2)),
        },
        Inst::Cvtsi2ss {
            dst: xmm(4),
            src: Rm::Mem(m),
        },
        Inst::Cvttss2si {
            dst: EAX,
            src: XmmM::Reg(xmm(5)),
        },
    ]);
    for op in [SseOp::Add, SseOp::Div, SseOp::Max] {
        for scalar in [true, false] {
            v.push(Inst::SseArith {
                op,
                scalar,
                dst: xmm(1),
                src: XmmM::Reg(xmm(2)),
            });
            v.push(Inst::SseArith {
                op,
                scalar,
                dst: xmm(1),
                src: XmmM::Mem(m),
            });
        }
    }
    for (signaling, b) in [(false, XmmM::Reg(xmm(1))), (true, XmmM::Mem(m))] {
        v.push(Inst::Ucomiss {
            a: xmm(0),
            b,
            signaling,
        });
    }
    v
}

/// The outcome of one instruction run alone.
struct Run {
    result: Result<Event, Trap>,
    entry: Cpu,
    cpu: Cpu,
    /// The data and stack pages afterwards.
    mem: Vec<u8>,
}

/// Runs `inst` at `CODE` from fixed registers and memory, the given
/// EFLAGS bits, and an empty or full x87 stack.
fn run(inst: &Inst, flags: u32, x87_full: bool) -> Run {
    let code = encode_to_vec(inst, CODE).unwrap_or_else(|e| panic!("{inst}: {e:?}"));
    let mut mem = GuestMem::new();
    mem.map(CODE as u64, PAGE as u64, Prot::rwx());
    mem.write_forced(CODE as u64, &code);
    for base in [DATA, STACK] {
        mem.map(base as u64, PAGE as u64, Prot::rw());
        let fill: Vec<u8> = (0..PAGE).map(|k| (k * 7 + 3) as u8).collect();
        mem.write_forced(base as u64, &fill);
    }
    let mut interp = Interp::new();
    let cpu = &mut interp.cpu;
    cpu.eip = CODE;
    cpu.eflags = RESERVED_ONES | flags;
    // EAX:EDX divides by BL without overflow; CL shifts by one (0x21
    // masked) and counts 33 string elements; ESI/EDI stay in the data
    // page either way DF points.
    cpu.gpr = [
        100,
        0x21,
        0,
        7,
        STACK + 0x800,
        0,
        DATA + 0x400,
        DATA + 0x800,
    ];
    for (k, x) in cpu.xmm.iter_mut().enumerate() {
        let lane = (1.5 + k as f32).to_bits() as u128;
        *x = lane * 0x0000_0001_0000_0001_0000_0001_0000_0001;
    }
    if x87_full {
        for k in 0..8 {
            cpu.fpu.push(0.25 + k as f64).unwrap();
        }
    }
    let entry = interp.cpu.clone();
    let result = interp.step(&mut mem);
    let mut bytes = mem.read_bytes(DATA as u64, PAGE as usize).unwrap();
    bytes.extend(mem.read_bytes(STACK as u64, PAGE as usize).unwrap());
    Run {
        result,
        entry,
        cpu: interp.cpu,
        mem: bytes,
    }
}

/// The CPU state apart from EFLAGS, NaNs compared by their spelling.
fn state_but_flags(cpu: &Cpu) -> String {
    format!(
        "{:?}",
        Cpu {
            eflags: 0,
            ..cpu.clone()
        }
    )
}

/// Checks one run against the row `p` of `inst`.
fn check_run(inst: &Inst, p: &Props, r: &Run, operand_mapped: bool) {
    let next = CODE + encode_to_vec(inst, CODE).unwrap().len() as u32;
    let ev = match r.result {
        Err(trap) => {
            assert!(p.can_fault, "{inst}: traps ({trap}) but cannot fault");
            if let Fault::Mem(f) = trap.fault {
                let at_operand = f.addr == UNMAPPED as u64;
                assert!(
                    !at_operand || p.mem.is_some(),
                    "{inst}: faults at a memory operand its row does not name"
                );
                assert!(
                    operand_mapped || p.mem.is_none() || at_operand,
                    "{inst}: faults at {:#x}, not at its unmapped operand",
                    f.addr
                );
            }
            return;
        }
        Ok(ev) => ev,
    };
    assert!(
        operand_mapped || p.mem.is_none(),
        "{inst}: its memory operand is unmapped and it did not fault"
    );
    assert_eq!(
        r.cpu.eflags & !p.flags_may,
        r.entry.eflags & !p.flags_may,
        "{inst}: writes EFLAGS bits outside flags_may"
    );
    let eip = r.cpu.eip;
    match p.flow {
        Flow::Next => assert_eq!((ev, eip), (Event::Continue, next), "{inst}: flow"),
        Flow::Jump(t) | Flow::Call(t) => assert_eq!((ev, eip), (Event::Continue, t), "{inst}"),
        Flow::Branch(t) => assert!(eip == t || eip == next, "{inst}: flow"),
        Flow::Indirect => assert_eq!(ev, Event::Continue, "{inst}: flow"),
        Flow::Stop => assert_ne!(ev, Event::Continue, "{inst}: flow"),
    }
    if matches!(p.class, Class::Int | Class::Sse) {
        assert_eq!(r.cpu.fpu, r.entry.fpu, "{inst}: {:?} form", p.class);
    }
}

#[test]
fn every_props_row_agrees_with_the_interpreter() {
    let mut seen = 0u64;
    for operand_mapped in [true, false] {
        let m = Addr::abs(if operand_mapped {
            DATA + 0x100
        } else {
            UNMAPPED
        });
        for inst in samples(m) {
            seen |= 1 << variant(&inst);
            let p = inst.props();
            assert_eq!(p.flags_must & !p.flags_may, 0, "{inst}: must ⊄ may");
            let mut faulted_at_operand = false;
            for x87_full in [false, true] {
                for base in [0, FLAGS] {
                    // The same entry with every bit it does not read
                    // flipped.
                    let flipped = base ^ (FLAGS & !p.flags_read);
                    let a = run(&inst, base, x87_full);
                    let b = run(&inst, flipped, x87_full);
                    check_run(&inst, &p, &a, operand_mapped);
                    check_run(&inst, &p, &b, operand_mapped);
                    faulted_at_operand |= matches!(
                        a.result,
                        Err(Trap { fault: Fault::Mem(f), .. }) if f.addr == UNMAPPED as u64
                    );
                    let what = format!("{inst} (x87 full: {x87_full}, flags {base:#x})");
                    assert_eq!(
                        a.result, b.result,
                        "{what}: unread flags change the outcome"
                    );
                    assert_eq!(
                        state_but_flags(&a.cpu),
                        state_but_flags(&b.cpu),
                        "{what}: unread flags change the result"
                    );
                    assert!(a.mem == b.mem, "{what}: unread flags change memory");
                    if a.result.is_ok() {
                        assert_eq!(
                            a.cpu.eflags & p.flags_must,
                            b.cpu.eflags & p.flags_must,
                            "{what}: a flags_must bit depends on the entry flags"
                        );
                    }
                }
            }
            assert!(
                operand_mapped || p.mem.is_none() || faulted_at_operand,
                "{inst}: never faults at its unmapped operand"
            );
        }
    }
    assert_eq!(seen, (1 << VARIANTS) - 1, "a variant without a sample");
}
