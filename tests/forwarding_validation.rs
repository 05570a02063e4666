//! Translation validation of the hot phase's guest-state forwarding,
//! demanded-bits bypass, local value numbering and dead-code
//! elimination (`hot/opt.rs::{forward_state, demanded_bits, lvn,
//! dead_code}`).
//!
//! Once `hot::validate_passes` has asked for it, a debug build of the
//! hot compiler runs every trace body before and after each pass on a
//! reference evaluator, from seeded register files that respect the
//! zero-extended-home invariant, and panics, naming the pass, unless
//! every store, the final registers (the guest homes and the EFLAGS
//! home among them), the registers at every side exit and the
//! architectural state before every op that can fault agree (an op a
//! pass deleted is no commit point, but a fault it would take must
//! still be taken). These
//! tests drive that check over the traces it matters for — every trace
//! selected on the 15 `sim_golden` kernels, and 200 seeded straight-line
//! loop bodies made of what forwarding reasons about: partial-register
//! writes, sign extensions, 32-bit-overflowing `lea`s, shifts and
//! narrow loads — and make sure it actually ran. The seeded guests are
//! checked against the interpreter as well.
//!
//! A release build compiles the check out, so there the tests have
//! nothing to look at and pass vacuously.

use btgeneric::engine::{Config, Outcome};
use btgeneric::hot::validate_passes;
use btlib::{Process, SimOs};
use ia32::asm::{Asm, Image};
use ia32::inst::*;
use ia32::regs::*;
use ia32::{Cond, Size};
use ia32el::testkit::{differential, hot_config};
use workloads::harness::build_image;

#[test]
fn every_trace_of_the_golden_kernels_is_validated() {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut kernels = workloads::spec_int();
    kernels.extend(workloads::indirect_kernels());
    let mut traces = 0;
    for w in &kernels {
        let before = validate_passes();
        let img = build_image(w, (w.scale / 8).max(2048));
        let mut p = Process::launch_with(&img, SimOs::new(), Config::default()).expect("launch");
        assert!(
            matches!(p.run(u64::MAX / 2), Outcome::Halted(_)),
            "{}",
            w.name
        );
        let installed = p.engine.stats.hot_ir_traces;
        assert!(
            validate_passes() - before >= installed,
            "{}: {installed} traces installed, {} validated",
            w.name,
            validate_passes() - before
        );
        traces += installed;
    }
    assert!(traces >= 30, "only {traces} traces on the 15 kernels");
}

/// A loop whose trace begins by adding 1 to a home and leaving when the
/// sum is zero. From the evaluator's boundary register file, where every
/// home holds `0xFFFF_FFFF`, the sum carries out of the low half and its
/// `zxt4` is zero while the sum is not: a demanded-bits bypass that let
/// the compare read the sum past its `zxt4` would stay on the trace
/// there, and the validation must say so.
#[test]
fn an_increment_that_carries_out_is_compared_after_its_zxt4() {
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(ECX, 3000);
    a.mov_ri(EAX, 0);
    let (top, out) = (a.label(), a.label());
    a.bind(top);
    a.alu_ri(AluOp::Add, EAX, 1);
    a.jcc(Cond::E, out);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.bind(out);
    a.mov_store(Addr::abs(DATA), EAX);
    a.hlt();
    let img = Image::from_asm(&a).with_bss(DATA, 0x100);
    let before = validate_passes();
    let p = differential(&img, hot_config(), &[(DATA, 4)], "increment to zero");
    assert!(p.engine.stats.hot_ir_traces > 0, "never hot");
    if cfg!(debug_assertions) {
        assert!(validate_passes() > before, "no trace validated");
    }
}

const DATA: u32 = 0x50_0000;

/// xorshift64 step.
fn rng(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One instruction of a seeded loop body. `ECX` counts the loop, `ESP`
/// is the stack and `EBP` holds the data base; everything else is fair
/// game, at every operand size.
fn gen_inst(x: &mut u64) -> Inst {
    const FREE: [Gpr; 5] = [EAX, EDX, EBX, ESI, EDI];
    let any = |x: &mut u64| FREE[(rng(x) % 5) as usize];
    // Byte registers 0..8 are AL CL DL BL AH CH DH BH; keep CL/CH out.
    let byte = |x: &mut u64| Gpr::new([0, 2, 3, 4, 6, 7][(rng(x) % 6) as usize]);
    let slot = |x: &mut u64| Addr::base_disp(EBP, (rng(x) % 61) as i32);
    match rng(x) % 10 {
        // mov al/ah, imm8 or another byte register.
        0 => Inst::Mov {
            size: Size::B,
            dst: Rm::Reg(byte(x)),
            src: if rng(x) & 1 == 0 {
                RmI::Imm(rng(x) as i32)
            } else {
                RmI::Reg(byte(x))
            },
        },
        // mov ax, imm16 or r16.
        1 => Inst::Mov {
            size: Size::W,
            dst: Rm::Reg(any(x)),
            src: if rng(x) & 1 == 0 {
                RmI::Imm(rng(x) as i32)
            } else {
                RmI::Reg(any(x))
            },
        },
        2 => {
            let (src_size, src) = if rng(x) & 1 == 0 {
                (Size::B, byte(x))
            } else {
                (Size::W, any(x))
            };
            Inst::Movsx {
                dst: any(x),
                src_size,
                src: Rm::Reg(src),
            }
        }
        3 => Inst::Movzx {
            dst: any(x),
            src: Rm::Mem(slot(x)),
            src_size: if rng(x) & 1 == 0 { Size::B } else { Size::W },
        },
        // lea with a displacement that carries out of bit 31.
        4 => Inst::Lea {
            dst: any(x),
            addr: Addr {
                base: Some(any(x)),
                index: Some((any(x), [1, 2, 4, 8][(rng(x) % 4) as usize])),
                disp: 0x7FFF_FF00u32.wrapping_add(rng(x) as u32 & 0xFFFF) as i32,
            },
        },
        5 => Inst::Shift {
            op: [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar][(rng(x) % 3) as usize],
            size: [Size::B, Size::W, Size::D][(rng(x) % 3) as usize],
            dst: Rm::Reg(any(x)),
            count: ShiftCount::Imm((rng(x) % 32) as u8),
        },
        // 8- and 16-bit loads into a partial register.
        6 => {
            let (size, dst) = if rng(x) & 1 == 0 {
                (Size::B, byte(x))
            } else {
                (Size::W, any(x))
            };
            Inst::MovLoad {
                size,
                dst,
                src: slot(x),
            }
        }
        7 => Inst::Alu {
            op: [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And][(rng(x) % 4) as usize],
            size: [Size::B, Size::W, Size::D][(rng(x) % 3) as usize],
            dst: Rm::Reg(any(x)),
            src: RmI::Reg(any(x)),
        },
        8 => Inst::Mov {
            size: Size::D,
            dst: Rm::Reg(any(x)),
            src: RmI::Reg(any(x)),
        },
        _ => Inst::Mov {
            size: Size::D,
            dst: Rm::Mem(slot(x)),
            src: RmI::Reg(any(x)),
        },
    }
}

#[test]
fn seeded_partial_register_guests_are_validated_and_match_the_interpreter() {
    let before = validate_passes();
    for case in 0..200u64 {
        let mut x = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut a = Asm::new(0x40_0000);
        for (i, r) in [EAX, EDX, EBX, ESI, EDI].into_iter().enumerate() {
            a.mov_ri(r, (rng(&mut x) as i32) | (0x8000_0000u32 >> i) as i32);
        }
        a.mov_ri(EBP, DATA as i32);
        a.mov_ri(ECX, 120 + (rng(&mut x) % 100) as i32);
        let top = a.label();
        a.bind(top);
        for _ in 0..4 + rng(&mut x) % 12 {
            a.inst(gen_inst(&mut x));
        }
        // The trailing store: a value the body left in a home.
        a.mov_store(Addr::base_disp(EBP, 64), EAX);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        for (i, r) in Gpr::all().iter().enumerate() {
            a.mov_store(Addr::abs(DATA + 128 + 4 * i as u32), *r);
        }
        a.hlt();
        let seed_data: Vec<u8> = (0..128).map(|_| rng(&mut x) as u8).collect();
        let img = Image::from_asm(&a)
            .with_data(DATA, seed_data)
            .with_bss(DATA + 128, 0x100);
        let p = differential(
            &img,
            hot_config(),
            &[(DATA, 160)],
            &format!("forwarding guest {case}"),
        );
        assert!(
            p.engine.stats.hot_ir_traces > 0,
            "guest {case} never reached the hot phase"
        );
    }
    if cfg!(debug_assertions) {
        assert!(validate_passes() - before >= 200);
    }
}
