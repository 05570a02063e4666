//! Differential tests: every program runs under the reference
//! interpreter (the oracle) and under the translator — cold-only and
//! with an aggressive hot phase — and the outcomes, final state,
//! stdout, and data memory must match.

use ia32::asm::{Asm, Image};
use ia32::inst::*;
use ia32::regs::*;
use ia32::{Cond, Size};
use ia32el::testkit::{ablations, cold_config, differential, hot_config};

const DATA: u32 = 0x50_0000;

fn image(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(0x40_0000);
    f(&mut a);
    Image::from_asm(&a).with_bss(DATA, 0x1_0000)
}

fn check(name: &str, f: impl Fn(&mut Asm)) {
    let img = image(&f);
    differential(
        &img,
        cold_config(),
        &[(DATA, 0x400)],
        &format!("{name}/cold"),
    );
    differential(&img, hot_config(), &[(DATA, 0x400)], &format!("{name}/hot"));
    // The ablation knobs' off-states must translate correctly too.
    for (knob, cfg) in ablations(hot_config()) {
        differential(&img, cfg, &[(DATA, 0x400)], &format!("{name}/hot/{knob}"));
    }
}

#[test]
fn arithmetic_loop() {
    check("sum", |a| {
        a.mov_ri(EAX, 0);
        a.mov_ri(ECX, 200);
        let top = a.label();
        a.bind(top);
        a.alu_rr(AluOp::Add, EAX, ECX);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_mi(Addr::abs(DATA), 0);
        a.mov_store(Addr::abs(DATA), EAX);
        a.hlt();
    });
}

#[test]
fn nested_loops_and_memory() {
    check("matrix-ish", |a| {
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(EBX, 0); // i
        let outer = a.label();
        a.bind(outer);
        a.mov_ri(ECX, 0); // j
        let inner = a.label();
        a.bind(inner);
        // data[i*8 + j] = i*j + previous
        a.mov_rr(EDX, EBX);
        a.imul_rr(EDX, ECX);
        a.lea(EDI, Addr::base_index(EBX, ECX, 1, 0));
        a.shift_i(ShiftOp::Shl, EDI, 2);
        a.alu_rr(AluOp::Add, EDI, ESI);
        a.alu_rm(AluOp::Add, EDX, Addr::base(EDI));
        a.mov_store(Addr::base(EDI), EDX);
        a.inc(ECX);
        a.cmp_ri(ECX, 8);
        a.jcc(Cond::L, inner);
        a.inc(EBX);
        a.cmp_ri(EBX, 8);
        a.jcc(Cond::L, outer);
        a.hlt();
    });
}

#[test]
fn flags_and_conditions() {
    check("flags", |a| {
        // Exercise every condition code via setcc into a table.
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(EAX, 5);
        a.cmp_ri(EAX, 7);
        for c in 0..16u8 {
            a.inst(Inst::Setcc {
                cond: Cond::from_code(c),
                dst: Rm::Mem(Addr::base_disp(ESI, c as i32)),
            });
        }
        a.cmp_ri(EAX, 5);
        for c in 0..16u8 {
            a.inst(Inst::Setcc {
                cond: Cond::from_code(c),
                dst: Rm::Mem(Addr::base_disp(ESI, 16 + c as i32)),
            });
        }
        // adc/sbb chains.
        a.mov_ri(EAX, -1);
        a.mov_ri(EBX, 1);
        a.alu_rr(AluOp::Add, EAX, EBX); // sets CF
        a.mov_ri(EDX, 0);
        a.inst(Inst::Alu {
            op: AluOp::Adc,
            size: Size::D,
            dst: Rm::Reg(EDX),
            src: RmI::Imm(0),
        });
        a.mov_store(Addr::base_disp(ESI, 32), EDX);
        a.inst(Inst::Alu {
            op: AluOp::Sbb,
            size: Size::D,
            dst: Rm::Reg(EDX),
            src: RmI::Imm(0),
        });
        a.mov_store(Addr::base_disp(ESI, 36), EDX);
        a.hlt();
    });
}

#[test]
fn shifts_all_forms() {
    check("shifts", |a| {
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(EAX, 0x8000_0001u32 as i32);
        let mut off = 0;
        for op in [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar] {
            for count in [1u8, 4, 31] {
                a.mov_ri(EBX, 0x8000_0301u32 as i32);
                a.inst(Inst::Shift {
                    op,
                    size: Size::D,
                    dst: Rm::Reg(EBX),
                    count: ShiftCount::Imm(count),
                });
                a.mov_store(Addr::base_disp(ESI, off), EBX);
                off += 4;
                // Capture flags after the shift.
                a.inst(Inst::Setcc {
                    cond: Cond::B,
                    dst: Rm::Mem(Addr::base_disp(ESI, off)),
                });
                off += 4;
            }
            // Variable count via CL (including zero).
            for cl in [0i32, 3, 35] {
                a.mov_ri(ECX, cl);
                a.mov_ri(EBX, 0x8000_0301u32 as i32);
                a.inst(Inst::Shift {
                    op,
                    size: Size::D,
                    dst: Rm::Reg(EBX),
                    count: ShiftCount::Cl,
                });
                a.mov_store(Addr::base_disp(ESI, off), EBX);
                off += 4;
            }
        }
        a.hlt();
    });
}

#[test]
fn subword_operations() {
    check("subword", |a| {
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(EAX, 0x1234_5678);
        // Byte ops on AL and AH.
        a.inst(Inst::Alu {
            op: AluOp::Add,
            size: Size::B,
            dst: Rm::Reg(EAX), // AL
            src: RmI::Imm(0x90),
        });
        a.inst(Inst::Alu {
            op: AluOp::Xor,
            size: Size::B,
            dst: Rm::Reg(ESP), // number 4 = AH
            src: RmI::Imm(0x5A),
        });
        a.mov_store(Addr::base(ESI), EAX);
        // Word ops.
        a.inst(Inst::Alu {
            op: AluOp::Add,
            size: Size::W,
            dst: Rm::Reg(EAX),
            src: RmI::Imm(0x7FFF),
        });
        a.mov_store(Addr::base_disp(ESI, 4), EAX);
        // movzx / movsx.
        a.mov_ri(EBX, 0xFF80);
        a.inst(Inst::Movzx {
            dst: ECX,
            src_size: Size::B,
            src: Rm::Reg(EBX),
        });
        a.inst(Inst::Movsx {
            dst: EDX,
            src_size: Size::B,
            src: Rm::Reg(EBX),
        });
        a.mov_store(Addr::base_disp(ESI, 8), ECX);
        a.mov_store(Addr::base_disp(ESI, 12), EDX);
        // Byte store/load roundtrip.
        a.inst(Inst::Mov {
            size: Size::B,
            dst: Rm::Mem(Addr::base_disp(ESI, 17)),
            src: RmI::Imm(0xAB),
        });
        a.inst(Inst::MovLoad {
            size: Size::B,
            dst: EDI,
            src: Addr::base_disp(ESI, 17),
        });
        a.mov_store(Addr::base_disp(ESI, 20), EDI);
        a.hlt();
    });
}

#[test]
fn mul_div_family() {
    check("muldiv", |a| {
        a.mov_ri(ESI, DATA as i32);
        // imul 2-op and 3-op.
        a.mov_ri(EAX, -7);
        a.mov_ri(EBX, 100000);
        a.imul_rr(EAX, EBX);
        a.mov_store(Addr::base(ESI), EAX);
        a.inst(Inst::ImulRmImm {
            dst: ECX,
            src: Rm::Reg(EBX),
            imm: -3,
        });
        a.mov_store(Addr::base_disp(ESI, 4), ECX);
        // mul/imul wide.
        a.mov_ri(EAX, 0x1234_5678);
        a.mov_ri(EBX, 0x9ABC_DEF0u32 as i32);
        a.divide(MulDivOp::Mul, EBX);
        a.mov_store(Addr::base_disp(ESI, 8), EAX);
        a.mov_store(Addr::base_disp(ESI, 12), EDX);
        a.mov_ri(EAX, -12345);
        a.mov_ri(EBX, 777);
        a.divide(MulDivOp::Imul, EBX);
        a.mov_store(Addr::base_disp(ESI, 16), EAX);
        a.mov_store(Addr::base_disp(ESI, 20), EDX);
        // div (edx=0 fast path).
        a.mov_ri(EAX, 1000001);
        a.mov_ri(EDX, 0);
        a.mov_ri(ECX, 7);
        a.divide(MulDivOp::Div, ECX);
        a.mov_store(Addr::base_disp(ESI, 24), EAX);
        a.mov_store(Addr::base_disp(ESI, 28), EDX);
        // div with edx != 0 (64/32, interpreter-step path).
        a.mov_ri(EAX, 5);
        a.mov_ri(EDX, 3);
        a.mov_ri(ECX, 0x4000_0000);
        a.divide(MulDivOp::Div, ECX);
        a.mov_store(Addr::base_disp(ESI, 32), EAX);
        a.mov_store(Addr::base_disp(ESI, 36), EDX);
        // idiv with cdq pattern.
        a.mov_ri(EAX, -1000001);
        a.cdq();
        a.mov_ri(ECX, 7);
        a.divide(MulDivOp::Idiv, ECX);
        a.mov_store(Addr::base_disp(ESI, 40), EAX);
        a.mov_store(Addr::base_disp(ESI, 44), EDX);
        // idiv negative divisor.
        a.mov_ri(EAX, 1000001);
        a.cdq();
        a.mov_ri(ECX, -7);
        a.divide(MulDivOp::Idiv, ECX);
        a.mov_store(Addr::base_disp(ESI, 48), EAX);
        a.mov_store(Addr::base_disp(ESI, 52), EDX);
        a.hlt();
    });
}

#[test]
fn calls_and_indirect_branches() {
    check("calls", |a| {
        let f1 = a.label();
        let f2 = a.label();
        let table_done = a.label();
        a.mov_ri(EAX, 0);
        a.call(f1);
        a.call(f2);
        // Indirect call through a register.
        let after = a.label();
        a.mov_ri(EBX, 0); // patched via label math below: call f1 again
                          // (use lea-like trick: we know f1's address after layout; use
                          // a direct call instead to keep the program position-stable)
        a.call(f1);
        a.bind(after);
        // Indirect jump via register over a jump table pattern.
        a.mov_ri(ECX, 2);
        a.mov_store(Addr::abs(DATA + 0x100), EAX);
        a.jmp(table_done);
        a.bind(table_done);
        a.hlt();
        a.bind(f1);
        a.alu_ri(AluOp::Add, EAX, 3);
        a.ret();
        a.bind(f2);
        a.alu_ri(AluOp::Add, EAX, 10);
        a.push_r(EAX);
        a.pop_r(EDX);
        a.ret();
    });
}

#[test]
fn indirect_jump_via_register() {
    // Build once to learn addresses, then hard-code them.
    let build = |t1: i32, t2: i32| {
        let mut a = Asm::new(0x40_0000);
        let l1 = a.label();
        let l2 = a.label();
        a.mov_ri(EAX, t1);
        a.mov_ri(ECX, 50);
        let top = a.label();
        a.bind(top);
        a.jmp_r(EAX);
        a.bind(l1);
        a.alu_ri(AluOp::Add, EBX, 1);
        a.mov_ri(EAX, t2);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.hlt();
        a.bind(l2);
        a.alu_ri(AluOp::Add, EBX, 100);
        a.mov_ri(EAX, t1);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.hlt();
        (a.label_addr(l1) as i32, a.label_addr(l2) as i32, a)
    };
    let (t1, t2, _) = build(0, 0);
    let (t1b, t2b, a) = build(t1, t2);
    assert_eq!((t1, t2), (t1b, t2b));
    let img = Image::from_asm(&a).with_bss(DATA, 0x1000);
    differential(&img, cold_config(), &[], "indjmp/cold");
    differential(&img, hot_config(), &[], "indjmp/hot");
}

#[test]
fn string_operations() {
    check("strings", |a| {
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(ECX, 16);
        a.mov_ri(EAX, 0x61616161u32 as i32);
        a.mov_ri(EDI, DATA as i32);
        a.inst(Inst::Stos {
            size: Size::D,
            rep: true,
        });
        // Copy the filled area.
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(EDI, DATA as i32 + 0x100);
        a.mov_ri(ECX, 16);
        a.inst(Inst::Movs {
            size: Size::D,
            rep: true,
        });
        // Single-element, byte-sized.
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(EDI, DATA as i32 + 0x200);
        a.inst(Inst::Movs {
            size: Size::B,
            rep: false,
        });
        a.hlt();
    });
}

#[test]
fn cmov_and_xchg() {
    check("cmov", |a| {
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(EAX, 1);
        a.mov_ri(EBX, 2);
        a.cmp_rr(EAX, EBX);
        a.inst(Inst::Cmovcc {
            cond: Cond::L,
            dst: ECX,
            src: Rm::Reg(EBX),
        });
        a.inst(Inst::Cmovcc {
            cond: Cond::G,
            dst: EDX,
            src: Rm::Reg(EAX),
        });
        a.mov_store(Addr::base(ESI), ECX);
        a.inst(Inst::Xchg {
            size: Size::D,
            reg: EAX,
            rm: Rm::Reg(EBX),
        });
        a.mov_store(Addr::base_disp(ESI, 4), EAX);
        a.inst(Inst::Xchg {
            size: Size::D,
            reg: EAX,
            rm: Rm::Mem(Addr::base_disp(ESI, 4)),
        });
        a.mov_store(Addr::base_disp(ESI, 8), EAX);
        a.hlt();
    });
}

#[test]
fn neg_not_inc_dec_memory() {
    check("unary-mem", |a| {
        a.mov_ri(ESI, DATA as i32);
        a.mov_mi(Addr::base(ESI), 0x1234);
        a.inst(Inst::Neg {
            size: Size::D,
            dst: Rm::Mem(Addr::base(ESI)),
        });
        a.inst(Inst::Not {
            size: Size::D,
            dst: Rm::Mem(Addr::base(ESI)),
        });
        a.inst(Inst::IncDec {
            inc: true,
            size: Size::D,
            dst: Rm::Mem(Addr::base(ESI)),
        });
        a.inst(Inst::IncDec {
            inc: false,
            size: Size::B,
            dst: Rm::Mem(Addr::base_disp(ESI, 1)),
        });
        a.hlt();
    });
}

#[test]
fn hot_loop_heats_and_matches() {
    // Long loop with function call: forces hot promotion with the
    // aggressive config (heat threshold 16) and still must match.
    let img = image(|a| {
        let f = a.label();
        let top = a.label();
        a.mov_ri(EAX, 0);
        a.mov_ri(ECX, 3000);
        a.bind(top);
        a.call(f);
        a.alu_ri(AluOp::Xor, EAX, 0x5A5A);
        a.shift_i(ShiftOp::Shl, EAX, 1);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA), EAX);
        a.hlt();
        a.bind(f);
        a.alu_ri(AluOp::Add, EAX, 7);
        a.ret();
    });
    let p = differential(&img, hot_config(), &[(DATA, 16)], "hotloop");
    assert!(
        p.engine.stats.hot_traces > 0,
        "hot phase must have triggered: {:?}",
        p.engine.stats.heat_events
    );
}

#[test]
fn deep_hot_loop_with_memory() {
    let img = image(|a| {
        // data[i % 64] += i for many iterations.
        a.mov_ri(ESI, DATA as i32);
        a.mov_ri(ECX, 5000);
        a.mov_ri(EBX, 0); // i
        let top = a.label();
        a.bind(top);
        a.mov_rr(EAX, EBX);
        a.alu_ri(AluOp::And, EAX, 63);
        a.lea(EDI, Addr::base_index(ESI, EAX, 4, 0));
        a.alu_rm(AluOp::Add, EBX, Addr::base(EDI));
        a.mov_store(Addr::base(EDI), EBX);
        a.alu_ri(AluOp::Sub, EBX, 0); // keep flags busy
        a.inc(EBX);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.hlt();
    });
    let p = differential(&img, hot_config(), &[(DATA, 64 * 4)], "hotmem");
    assert!(p.engine.stats.hot_traces > 0);
}

#[test]
fn address_wraparound_faults_match() {
    // EA arithmetic wraps at 32 bits: base near 4 GiB + displacement
    // lands at a low (unmapped) address; both sides must fault at the
    // same EIP with the same state.
    let img = image(|a| {
        a.mov_ri(EBX, 0xFFFF_FFF0u32 as i32);
        a.mov_load(EAX, Addr::base_disp(EBX, 0x30)); // wraps to 0x20
        a.hlt();
    });
    let oracle = ia32el::testkit::run_interp(&img, 1_000_000);
    let (trans, _p) = ia32el::testkit::run_translated(&img, cold_config(), 10_000_000);
    match (&oracle.end, &trans.end) {
        (ia32el::testkit::RunEnd::Fault(oe), ia32el::testkit::RunEnd::Fault(te)) => {
            assert_eq!(oe, te)
        }
        other => panic!("expected wraparound faults, got {other:?}"),
    }
}

#[test]
fn high_byte_registers_roundtrip() {
    check("high-bytes", |a| {
        a.mov_ri(EAX, 0x11223344);
        a.mov_ri(EBX, 0x55667788);
        // AH += BH (number 4 and 7 at byte size).
        a.inst(Inst::Alu {
            op: AluOp::Add,
            size: Size::B,
            dst: Rm::Reg(ESP),  // AH
            src: RmI::Reg(EDI), // BH
        });
        // CH = memory byte; DH = CH.
        a.mov_mi(Addr::abs(DATA), 0x5A);
        a.inst(Inst::MovLoad {
            size: Size::B,
            dst: EBP, // CH
            src: Addr::abs(DATA),
        });
        a.inst(Inst::Mov {
            size: Size::B,
            dst: Rm::Reg(ESI),  // DH
            src: RmI::Reg(EBP), // CH
        });
        // Store all four registers.
        a.mov_store(Addr::abs(DATA + 4), EAX);
        a.mov_store(Addr::abs(DATA + 8), EBX);
        a.mov_store(Addr::abs(DATA + 12), ECX);
        a.mov_store(Addr::abs(DATA + 16), EDX);
        a.hlt();
    });
}

#[test]
fn word_size_arithmetic() {
    check("word-ops", |a| {
        a.mov_ri(EAX, 0xABCD_FFFEu32 as i32);
        a.inst(Inst::Alu {
            op: AluOp::Add,
            size: Size::W,
            dst: Rm::Reg(EAX),
            src: RmI::Imm(5),
        }); // wraps in 16 bits, upper half preserved
        a.inst(Inst::Setcc {
            cond: Cond::B,
            dst: Rm::Mem(Addr::abs(DATA)),
        });
        a.mov_store(Addr::abs(DATA + 4), EAX);
        a.inst(Inst::Shift {
            op: ShiftOp::Shl,
            size: Size::W,
            dst: Rm::Reg(EAX),
            count: ShiftCount::Imm(9),
        });
        a.mov_store(Addr::abs(DATA + 8), EAX);
        a.inst(Inst::Movsx {
            dst: EBX,
            src_size: Size::W,
            src: Rm::Reg(EAX),
        });
        a.mov_store(Addr::abs(DATA + 12), EBX);
        a.hlt();
    });
}

/// The ablation knobs reach the hot phase, not only cold code: a
/// promoted `cmp; jne` loop with an x87 load, add and store must
/// compile to more hot code per IA-32 instruction with compare and
/// branch fusion off (no fused compare), with flag liveness off (every
/// flag materialized) and with FP speculation off (per-access tag
/// checks) than with all knobs on — and still match the oracle. The
/// loop's accesses are aligned, so the misalignment knob changes
/// nothing here; `tests/misalign_smc.rs::avoidance_off_pays_fault_penalty`
/// checks that it reaches hot code.
#[test]
fn ablation_knobs_reach_the_hot_phase() {
    let img = image(|a| {
        a.mov_ri(EAX, 0);
        a.mov_ri(ECX, 2000);
        a.mov_mi(Addr::abs(DATA), 0);
        a.mov_mi(Addr::abs(DATA + 4), 0);
        a.mov_mi(Addr::abs(DATA + 8), 0);
        a.mov_mi(Addr::abs(DATA + 12), 0x3FF0_0000);
        let top = a.label();
        a.bind(top);
        a.inst(Inst::Fld {
            src: FpOperand::M64(Addr::abs(DATA)),
        });
        a.inst(Inst::Farith {
            op: FpArithOp::Add,
            form: FpArithForm::St0Mem(Size2::D, Addr::abs(DATA + 8)),
        });
        a.inst(Inst::Fst {
            dst: FpOperand::M64(Addr::abs(DATA)),
            pop: true,
        });
        a.alu_rr(AluOp::Add, EAX, ECX);
        a.dec(ECX);
        a.cmp_ri(ECX, 0);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA + 16), EAX);
        a.hlt();
    });
    let native_per_inst = |cfg, what: &str| {
        let p = differential(&img, cfg, &[(DATA, 0x20)], what);
        let s = &p.engine.stats;
        assert!(s.hot_traces > 0, "{what}: the loop never became hot");
        s.hot_native_insts as f64 / s.hot_ia32_insts as f64
    };
    let all_on = native_per_inst(hot_config(), "ablation/all-on");
    for (knob, cfg) in ablations(hot_config()) {
        if knob == "no-misalign-avoidance" {
            continue;
        }
        let off = native_per_inst(cfg, &format!("ablation/{knob}"));
        assert!(
            off > all_on,
            "{knob}: {off:.3} hot ops per IA-32 instruction, {all_on:.3} with every knob on"
        );
    }
}

/// The flag setters that fuse with a following `Jcc`, each on EAX and
/// EDX, with every condition it fuses on and the flags it computes.
#[allow(clippy::type_complexity)]
fn fusing_setters() -> Vec<(Inst, &'static [Cond], fn(u32, u32) -> u32)> {
    use ia32::flags;
    const RESULT: &[Cond] = &[Cond::E, Cond::Ne, Cond::S, Cond::Ns];
    const ORDER: &[Cond] = &[
        Cond::E,
        Cond::Ne,
        Cond::B,
        Cond::Ae,
        Cond::A,
        Cond::Be,
        Cond::L,
        Cond::Ge,
        Cond::G,
        Cond::Le,
    ];
    let alu = |op| Inst::Alu {
        op,
        size: Size::D,
        dst: Rm::Reg(EAX),
        src: RmI::Reg(EDX),
    };
    let incdec = |inc| Inst::IncDec {
        inc,
        size: Size::D,
        dst: Rm::Reg(EAX),
    };
    vec![
        (alu(AluOp::Cmp), ORDER, |a, b| flags::sub(a, b, Size::D)),
        (
            Inst::Test {
                size: Size::D,
                a: Rm::Reg(EAX),
                b: RmI::Reg(EDX),
            },
            RESULT,
            |a, b| flags::logic(a & b, Size::D),
        ),
        (alu(AluOp::Sub), RESULT, |a, b| flags::sub(a, b, Size::D)),
        (alu(AluOp::And), RESULT, |a, b| flags::logic(a & b, Size::D)),
        (alu(AluOp::Or), RESULT, |a, b| flags::logic(a | b, Size::D)),
        (alu(AluOp::Xor), RESULT, |a, b| flags::logic(a ^ b, Size::D)),
        (incdec(true), RESULT, |a, _| flags::inc(a, Size::D)),
        (incdec(false), RESULT, |a, _| flags::dec(a, Size::D)),
    ]
}

/// Every fusing setter, with every condition it fuses on, closing an
/// if-converted hammock on a hot trace, in two shapes. In one the body
/// stores and runs an `adc` that reads the setter's CF (an INC or DEC
/// leaves the CF of the `and` before it); in the other it stores and
/// runs a `lea`, and after the join `setcc` reads every status flag but
/// AF; `a_hammock_body_that_leaves_flags_live_is_if_converted` combines
/// the two. Each iteration takes its operands from a table of eight
/// pairs, four on which the branch is taken and four on which it falls
/// through, so selection neither leaves the trace there nor follows one
/// side.
#[test]
fn setters_fused_into_a_hammock_guard_match_the_interpreter() {
    const VALUES: [u32; 8] = [
        0,
        1,
        2,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFF,
        0x1234_5678,
        0x8765_4321,
    ];
    const TABLE: u32 = DATA + 0x100;
    for (setter, conds, eflags) in fusing_setters() {
        for &cond in conds {
            let taken = |&(a, b): &(u32, u32)| cond.eval(eflags(a, b));
            let pool = VALUES.iter().flat_map(|&a| VALUES.map(|b| (a, b)));
            let (yes, no): (Vec<_>, Vec<_>) = pool.partition(taken);
            assert!(!yes.is_empty() && !no.is_empty(), "{setter} j{cond:?}");
            // `or` is zero on one pair only: repeat what there is.
            let (yes, no) = (yes.iter().cycle(), no.iter().cycle());
            let pairs = yes.zip(no).take(4).flat_map(|(&y, &n)| [y, n]);
            for adc_body in [true, false] {
                let img = image(|a| {
                    for (k, (x, y)) in pairs.clone().enumerate() {
                        a.mov_mi(Addr::abs(TABLE + 8 * k as u32), x as i32);
                        a.mov_mi(Addr::abs(TABLE + 8 * k as u32 + 4), y as i32);
                    }
                    a.mov_ri(ESI, DATA as i32);
                    a.mov_ri(ECX, 200);
                    a.mov_ri(EDI, 0);
                    a.mov_ri(EBP, 0);
                    let (top, skip) = (a.label(), a.label());
                    a.bind(top);
                    a.mov_rr(EBX, ECX);
                    a.alu_ri(AluOp::And, EBX, 7);
                    a.mov_load(EAX, Addr::base_index(ESI, EBX, 8, 0x100));
                    a.mov_load(EDX, Addr::base_index(ESI, EBX, 8, 0x104));
                    a.inst(setter);
                    a.jcc(cond, skip);
                    if adc_body {
                        a.alu_rr(AluOp::Adc, EDI, EDX);
                    } else {
                        a.lea(EDI, Addr::base_index(EDI, EAX, 2, 1));
                    }
                    a.mov_store(Addr::base_index(ESI, EBX, 4, 0), EDI);
                    a.bind(skip);
                    if !adc_body {
                        for read in [Cond::O, Cond::B, Cond::E, Cond::S, Cond::P] {
                            // Byte register 2 is DL.
                            a.inst(Inst::Setcc {
                                cond: read,
                                dst: Rm::Reg(EDX),
                            });
                            a.lea(EBP, Addr::base_index(EBP, EDX, 2, 0));
                        }
                    }
                    // Kill CF before the back edge: the liveness window of
                    // the hammock does not reach the loop head, so CF
                    // would be live after the `adc`.
                    a.alu_rr(AluOp::Xor, EBX, EBX);
                    a.dec(ECX);
                    a.jcc(Cond::Ne, top);
                    a.mov_store(Addr::abs(DATA + 0x40), EDI);
                    a.mov_store(Addr::abs(DATA + 0x44), EBP);
                    a.hlt();
                });
                let body = if adc_body { "adc" } else { "lea" };
                let what = format!("{setter} ; j{cond:?} guarding a hammock with {body}");
                let p = differential(&img, hot_config(), &[(DATA, 0x200)], &what);
                assert!(p.engine.stats.hot_traces > 0, "{what}: never hot");
            }
        }
    }
}

/// A hammock whose body leaves flags live: an `adc` under `cmp ; je`,
/// with CF or ZF read after the join (by `setc`, `sete` or the next
/// `adc`). The `adc`'s flag recipe ORs its bits in under predicates of
/// its own, which run under the guard and their own predicate, so the
/// hammock is if-converted and the loop promoted; before, each such
/// body failed the promotion, and the loop re-fired heat events and
/// stayed cold.
#[test]
fn a_hammock_body_that_leaves_flags_live_is_if_converted() {
    for name in ["setc", "sete", "adc"] {
        let img = image(|a| {
            a.mov_ri(ESI, DATA as i32);
            a.mov_ri(ECX, 300);
            a.mov_ri(EDI, 0x7FFF_FFF0);
            a.mov_ri(EBP, 0);
            let (top, skip) = (a.label(), a.label());
            a.bind(top);
            a.mov_rr(EAX, ECX);
            a.alu_ri(AluOp::And, EAX, 1);
            a.mov_ri(EDX, 0x3000_0001);
            a.alu_ri(AluOp::Cmp, EAX, 0);
            a.jcc(Cond::E, skip);
            a.alu_rr(AluOp::Adc, EDI, EDX);
            a.mov_store(Addr::base_disp(ESI, 0), EDI);
            a.bind(skip);
            a.mov_ri(EBX, 0);
            a.mov_ri(EDX, 0);
            match name {
                "setc" | "sete" => a.inst(Inst::Setcc {
                    cond: if name == "setc" { Cond::B } else { Cond::E },
                    dst: Rm::Reg(EDX),
                }),
                _ => a.alu_rr(AluOp::Adc, EDX, EBX),
            }
            a.lea(EBP, Addr::base_index(EBP, EDX, 2, 0));
            a.dec(ECX);
            a.jcc(Cond::Ne, top);
            a.mov_store(Addr::abs(DATA + 0x40), EDI);
            a.mov_store(Addr::abs(DATA + 0x44), EBP);
            a.hlt();
        });
        let what = format!("adc in a hammock body, {name} after the join");
        let p = differential(&img, hot_config(), &[(DATA, 0x100)], &what);
        let stats = &p.engine.stats;
        assert!(stats.hot_traces > 0, "{what}: never hot");
        assert!(
            stats.heat_events <= stats.hot_traces + 1,
            "{what}: {} heat events for {} traces",
            stats.heat_events,
            stats.hot_traces
        );
    }
}

/// The two- and three-operand `imul`, cold and hot, with OF and CF
/// dead and with them read by `jo`, `jc`, `setc` and `adc`, on operands
/// whose full product overflows the low half in every way:
/// `0x8000_0000 × −1`, `0xFFFF × 0x1_0001`, `−7 × 3`, and an immediate
/// with bit 31 set.
#[test]
fn imul_low_halves_and_overflow_flags_match_the_interpreter() {
    const PAIRS: [(i32, i32); 4] = [
        (0x8000_0000u32 as i32, -1),
        (0xFFFF, 0x1_0001),
        (-7, 3),
        (0x1234_5679, 0x8000_0003u32 as i32),
    ];
    // How OF/CF are read after each multiply: not at all (both dead),
    // or by one reader.
    #[derive(Clone, Copy, Debug)]
    enum Reader {
        Dead,
        Jo,
        Jc,
        Setc,
        Adc,
    }
    for reader in [
        Reader::Dead,
        Reader::Jo,
        Reader::Jc,
        Reader::Setc,
        Reader::Adc,
    ] {
        check(&format!("imul/{reader:?}"), |a| {
            a.mov_ri(ESI, DATA as i32);
            a.mov_ri(ECX, 40);
            a.mov_ri(EDI, 0);
            let top = a.label();
            a.bind(top);
            for (k, &(x, y)) in PAIRS.iter().enumerate() {
                for three_operand in [false, true] {
                    a.mov_ri(EAX, x);
                    a.mov_ri(EBX, y);
                    if three_operand {
                        a.inst(Inst::ImulRmImm {
                            dst: EAX,
                            src: Rm::Reg(EAX),
                            imm: y,
                        });
                    } else {
                        a.imul_rr(EAX, EBX);
                    }
                    match reader {
                        // The next writer of OF and CF kills both.
                        Reader::Dead => a.alu_ri(AluOp::Add, EDI, 1),
                        Reader::Jo | Reader::Jc => {
                            let cond = if matches!(reader, Reader::Jo) {
                                Cond::O
                            } else {
                                Cond::B
                            };
                            let skip = a.label();
                            a.jcc(cond, skip);
                            a.alu_ri(AluOp::Add, EDI, 3);
                            a.bind(skip);
                        }
                        Reader::Setc => {
                            // Byte register 3 is BL.
                            a.inst(Inst::Setcc {
                                cond: Cond::B,
                                dst: Rm::Reg(EBX),
                            });
                            a.alu_rr(AluOp::Add, EDI, EBX);
                        }
                        Reader::Adc => a.alu_rr(AluOp::Adc, EDI, EAX),
                    }
                    let slot = 8 * k as i32 + 4 * three_operand as i32;
                    a.mov_store(Addr::base_disp(ESI, slot), EAX);
                }
            }
            a.mov_store(Addr::base_disp(ESI, 0x40), EDI);
            a.dec(ECX);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
    }
}
