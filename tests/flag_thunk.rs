//! End-to-end rows for the flag thunk: every flag setter translation
//! may defer, at B/W/D, followed by each kind of edge its flags can
//! reach — an engine boundary (`hlt`, `int 0x80`, a fault, a signal)
//! or translated code that reads them (a `ret` into a reader, a later
//! `inc` that keeps CF, a variable shift that may rewrite them). Each
//! program runs under the reference interpreter and the translator,
//! cold-only and with an aggressive hot phase, and EFLAGS must match
//! exactly wherever the run stops.

use btgeneric::engine::Outcome;
use btlib::{Process, SignalPlan, SimOs};
use ia32::asm::{Asm, Image};
use ia32::inst::*;
use ia32::regs::*;
use ia32::{Cond, Size};
use ia32el::testkit::{
    assert_cpu_equiv, cold_config, differential, hot_config, run_interp, RunEnd,
};

const DATA: u32 = 0x50_0000;
const SIZES: [Size; 3] = [Size::B, Size::W, Size::D];
/// `(ecx, edx)` before the setter: carries and borrows at each size,
/// signed overflows at each size, a zero result, a mixed pair.
const PAIRS: [(u32, u32); 8] = [
    (0xFFFF_FFFF, 1),
    (0x7F, 1),
    (0x7FFF, 1),
    (0x7FFF_FFFF, 1),
    (0x80, 0x80),
    (5, 7),
    (0, 0),
    (0x1234_5678, 0x0F0F_0F0F),
];

/// Every setter that the translator may defer: `op ecx, edx` at `size`.
fn setters(size: Size) -> Vec<Inst> {
    let (dst, src) = (Rm::Reg(ECX), RmI::Reg(EDX));
    let alu = |op| Inst::Alu { op, size, dst, src };
    let mut v: Vec<Inst> = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Cmp,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
    ]
    .map(alu)
    .into();
    v.extend([
        Inst::Test {
            size,
            a: dst,
            b: src,
        },
        Inst::Neg { size, dst },
        Inst::IncDec {
            inc: true,
            size,
            dst,
        },
        Inst::IncDec {
            inc: false,
            size,
            dst,
        },
    ]);
    v
}

fn image(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(0x40_0000);
    f(&mut a);
    Image::from_asm(&a).with_bss(DATA, 0x1000)
}

/// Runs `f`'s program cold and hot against the interpreter.
fn check(what: &str, f: impl Fn(&mut Asm)) {
    let img = image(&f);
    differential(
        &img,
        cold_config(),
        &[(DATA, 0x100)],
        &format!("{what}/cold"),
    );
    differential(&img, hot_config(), &[(DATA, 0x100)], &format!("{what}/hot"));
}

/// Each setter at each size and operand pair, then `tail`.
fn each_setter(tail: &str, emit_tail: impl Fn(&mut Asm)) {
    for size in SIZES {
        for inst in setters(size) {
            for (x, y) in PAIRS {
                check(&format!("`{inst}` ecx={x:#x} edx={y:#x}, {tail}"), |a| {
                    a.mov_ri(ECX, x as i32);
                    a.mov_ri(EDX, y as i32);
                    a.inst(inst);
                    emit_tail(a);
                });
            }
        }
    }
}

/// Stores the condition of each flag translated code can read — CF,
/// PF, ZF, SF, OF — into the bytes at `at`.
fn read_flags(a: &mut Asm, at: u32) {
    for (k, cond) in [Cond::B, Cond::P, Cond::E, Cond::S, Cond::O]
        .into_iter()
        .enumerate()
    {
        a.inst(Inst::Setcc {
            cond,
            dst: Rm::Mem(Addr::abs(at + k as u32)),
        });
    }
}

#[test]
fn setter_then_hlt() {
    each_setter("hlt", |a| a.hlt());
}

/// The engine serves the syscall from the materialized flags and
/// translated code past it reads them.
#[test]
fn setter_then_syscall_then_a_reader() {
    for size in SIZES {
        check(&format!("int 0x80 at {size:?}"), |a| {
            let mut slot = DATA;
            for inst in setters(size) {
                for (x, y) in PAIRS {
                    a.mov_ri(EAX, btlib::sys::BRK as i32);
                    a.mov_ri(EBX, 0);
                    a.mov_ri(ECX, x as i32);
                    a.mov_ri(EDX, y as i32);
                    a.inst(inst);
                    a.int(0x80);
                    read_flags(a, slot);
                    slot += 5;
                }
            }
            a.hlt();
        });
    }
}

/// The store faults with no handler installed: the run ends there and
/// EFLAGS must be the setter's.
#[test]
fn setter_then_a_faulting_store() {
    each_setter("faulting store", |a| {
        a.mov_store(Addr::abs(0x10), EDX);
        a.hlt();
    });
}

/// The flags reach their reader through a `ret` — an indirect edge —
/// so the setter must leave them in the home.
#[test]
fn setter_then_ret_into_a_reader() {
    for size in SIZES {
        check(&format!("ret into a reader at {size:?}"), |a| {
            let f = a.label();
            let mut slot = DATA;
            for inst in setters(size) {
                for (x, y) in PAIRS {
                    a.mov_ri(ECX, x as i32);
                    a.mov_ri(EDX, y as i32);
                    a.mov_ri(ESI, inst_code(&inst));
                    a.call(f);
                    read_flags(a, slot);
                    slot += 5;
                }
            }
            a.hlt();
            // f: dispatch on ESI to the setter, which returns.
            a.bind(f);
            for (k, inst) in setters(size).into_iter().enumerate() {
                let next = a.label();
                a.cmp_ri(ESI, k as i32);
                a.jcc(Cond::Ne, next);
                a.inst(inst);
                a.ret();
                a.bind(next);
            }
            a.hlt();
        });
    }
}

/// The index of `inst` among [`setters`] at its size.
fn inst_code(inst: &Inst) -> i32 {
    let size = match *inst {
        Inst::Alu { size, .. }
        | Inst::Test { size, .. }
        | Inst::Neg { size, .. }
        | Inst::IncDec { size, .. } => size,
        _ => unreachable!("not a setter"),
    };
    setters(size)
        .iter()
        .position(|s| s == inst)
        .expect("a setter") as i32
}

/// `inc` keeps the setter's CF and rewrites everything else.
#[test]
fn setter_then_inc_then_hlt() {
    each_setter("inc, hlt", |a| {
        a.inc(ESI);
        a.hlt();
    });
}

/// A shift by CL may leave the flags alone, so the setter's stay live
/// through it; when CL is not zero the shift rewrites them.
#[test]
fn setter_then_a_variable_shift_then_hlt() {
    for count in [0, 3] {
        each_setter(&format!("shl by {count}, hlt"), |a| {
            a.mov_ri(EBX, 0x4321);
            a.mov_ri(EAX, count);
            a.inst(Inst::Xchg {
                size: Size::D,
                reg: ECX,
                rm: Rm::Reg(EAX),
            });
            a.inst(Inst::Shift {
                op: ShiftOp::Shl,
                size: Size::D,
                dst: Rm::Reg(EBX),
                count: ShiftCount::Cl,
            });
            a.hlt();
        });
    }
}

/// A loop that the hot config promotes, ending on the setter's ZF: the
/// trace's exit falls through past the loop, where a `hlt` reads the
/// setter's other flags.
fn hot_loop(a: &mut Asm, inst: Inst) {
    // Start 100 steps before the iteration on which the result is zero
    // at every size.
    let (start, edx) = match inst {
        Inst::Alu { op: AluOp::Add, .. } => (-0x1234 - 100, 0x1234),
        Inst::Alu {
            op: AluOp::Sub | AluOp::Cmp | AluOp::Xor,
            ..
        } => (0x1234 - 100, 0x1234),
        Inst::Alu { op: AluOp::And, .. } | Inst::Test { .. } => (-100, -1),
        Inst::IncDec { inc: true, .. } => (-1 - 100, 0),
        Inst::IncDec { inc: false, .. } => (1 - 100, 0),
        _ => (-100, 0),
    };
    a.mov_ri(EDI, start);
    a.mov_ri(EDX, edx);
    let top = a.label();
    a.bind(top);
    a.lea(EDI, Addr::base_disp(EDI, 1));
    a.mov_rr(ECX, EDI);
    a.inst(inst);
    a.jcc(Cond::Ne, top);
}

#[test]
fn hot_loop_exit_reaches_hlt() {
    for size in SIZES {
        for inst in setters(size) {
            let what = format!("`{inst}` loop exit to hlt");
            let img = image(|a| {
                hot_loop(a, inst);
                a.hlt();
            });
            differential(&img, cold_config(), &[], &format!("{what}/cold"));
            let p = differential(&img, hot_config(), &[], &format!("{what}/hot"));
            assert!(
                p.engine.stats.hot_traces > 0,
                "{what}: the loop stayed cold"
            );
        }
    }
}

/// The same loops under a seeded signal storm: a transparent handler
/// interrupts them wherever the engine delivers, and the frame's EFLAGS
/// come from the thunk.
#[test]
fn hot_loop_under_seeded_signals() {
    for (seed, size) in SIZES.into_iter().enumerate() {
        for inst in setters(size) {
            let build = |h: i32| {
                let mut a = Asm::new(0x40_0000);
                let handler = a.label();
                a.mov_ri(EAX, btlib::sys::SIGNAL as i32);
                a.mov_ri(EBX, h);
                a.int(0x80);
                // Four runs of the loop give the storm time to land.
                for _ in 0..4 {
                    hot_loop(&mut a, inst);
                }
                a.hlt();
                a.bind(handler);
                a.mov_ri(EAX, btlib::sys::SIGRETURN as i32);
                a.int(0x80);
                let at = a.label_addr(handler);
                (a, at)
            };
            let (_, h) = build(0);
            let (a, _) = build(h as i32);
            let img = Image::from_asm(&a).with_bss(DATA, 0x1000);
            let oracle = run_interp(&img, 1_000_000);
            assert_eq!(oracle.end, RunEnd::Halt);
            for (cfg, name) in [(cold_config(), "cold"), (hot_config(), "hot")] {
                let plan = SignalPlan::seeded(seed as u64 + 1, 24, 2_000);
                let os = SimOs::new().with_signals(plan);
                let mut p = Process::launch_with(&img, os, cfg).expect("launch");
                let what = format!("`{inst}` loop under signals/{name}");
                let cpu = match p.run(10_000_000) {
                    Outcome::Halted(cpu) => cpu,
                    other => panic!("{what}: {other:?}"),
                };
                assert_cpu_equiv(&oracle.cpu, &cpu, &what);
                assert!(p.engine.stats.signals_delivered > 0, "{what}: no signal");
            }
        }
    }
}
