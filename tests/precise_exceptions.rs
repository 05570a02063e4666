//! Precise-exception tests (paper §4 and Table 1): on any fault, the
//! reconstructed IA-32 state must equal the oracle's state at the exact
//! faulting instruction — in cold code (state register) and in hot code
//! (commit points + recovery maps).

use btgeneric::btos::GuestException;
use btgeneric::engine::Outcome;
use ia32::asm::{Asm, Image};
use ia32::inst::*;
use ia32::regs::*;
use ia32::Cond;
use ia32el::testkit::{assert_cpu_equiv, cold_config, hot_config, run_interp, run_translated};

const DATA: u32 = 0x50_0000;
const UNMAPPED: u32 = 0x0000_1000;

fn image(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(0x40_0000);
    f(&mut a);
    Image::from_asm(&a).with_bss(DATA, 0x1_0000)
}

/// Runs both sides expecting a fault; compares faulting EIP + state.
fn check_fault(name: &str, img: &Image) {
    for (cfgname, cfg) in [("cold", cold_config()), ("hot", hot_config())] {
        let oracle = run_interp(img, 50_000_000);
        let (trans, _p) = run_translated(img, cfg, 400_000_000);
        let what = format!("{name}/{cfgname}");
        match (&oracle.end, &trans.end) {
            (ia32el::testkit::RunEnd::Fault(oe), ia32el::testkit::RunEnd::Fault(te)) => {
                assert_eq!(oe, te, "{what}: faulting EIP");
                assert_cpu_equiv(&oracle.cpu, &trans.cpu, &what);
            }
            other => panic!("{what}: expected faults, got {other:?}"),
        }
    }
}

#[test]
fn table1_push_does_not_move_esp_on_fault() {
    // The paper's Table 1: `push eax` with an unmapped stack must fault
    // with ESP unchanged (store before ESP update).
    let img = image(|a| {
        a.mov_ri(EAX, 0xDEAD);
        a.mov_ri(ESP, UNMAPPED as i32);
        a.push_r(EAX);
        a.hlt();
    });
    let (trans, _p) = run_translated(&img, cold_config(), 1_000_000);
    match trans.end {
        ia32el::testkit::RunEnd::Fault(eip) => {
            assert_eq!(trans.cpu.esp(), UNMAPPED, "ESP must be unchanged");
            assert_eq!(trans.cpu.gpr[0], 0xDEAD);
            // The faulting instruction is the push (3rd instruction).
            assert_eq!(eip, trans.cpu.eip);
        }
        other => panic!("expected fault, got {other:?}"),
    }
    check_fault("table1", &img);
}

#[test]
fn fault_mid_block_preserves_earlier_state() {
    // Several state changes, then a faulting load mid-block: everything
    // before must be committed, nothing after.
    let img = image(|a| {
        a.mov_ri(EAX, 1);
        a.mov_ri(EBX, 2);
        a.alu_rr(AluOp::Add, EAX, EBX);
        a.mov_store(Addr::abs(DATA), EAX);
        a.mov_load(ECX, Addr::abs(UNMAPPED)); // faults
        a.mov_ri(EDX, 99); // must not execute
        a.hlt();
    });
    check_fault("midblock", &img);
}

#[test]
fn fault_inside_hot_trace_reconstructs() {
    // Heat a loop, then make it fault: the recovery map must rebuild
    // the state at the faulting iteration.
    let img = image(|a| {
        // data[0] holds the address to load from; after N iterations it
        // switches to an unmapped address.
        a.mov_mi(Addr::abs(DATA), (DATA + 64) as i32);
        a.mov_ri(ECX, 2000);
        a.mov_ri(EAX, 0);
        let top = a.label();
        a.bind(top);
        a.mov_load(ESI, Addr::abs(DATA));
        a.alu_rm(AluOp::Add, EAX, Addr::base(ESI)); // faults when ESI bad
        a.inc(EAX);
        a.cmp_ri(ECX, 1000);
        let skip = a.label();
        a.jcc(Cond::Ne, skip);
        a.mov_mi(Addr::abs(DATA), UNMAPPED as i32); // poison the pointer
        a.bind(skip);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.hlt();
    });
    check_fault("hotfault", &img);
}

#[test]
fn divide_by_zero_in_hot_code() {
    let img = image(|a| {
        a.mov_ri(EDI, 5000);
        a.mov_ri(EBX, 100);
        let top = a.label();
        a.bind(top);
        a.mov_rr(EAX, EDI);
        a.mov_ri(EDX, 0);
        // Divisor becomes zero on the last iteration.
        a.lea(ECX, Addr::base_disp(EDI, -1));
        a.divide(MulDivOp::Div, ECX);
        a.alu_rr(AluOp::Add, EBX, EAX);
        a.dec(EDI);
        a.jcc(Cond::Ne, top);
        a.hlt();
    });
    check_fault("div0-hot", &img);
}

#[test]
fn handler_can_resume_after_fixing_state() {
    // A guest handler fixes the bad pointer and returns to re-execute
    // the faulting instruction (the paper: "execution resumes from the
    // start of the IA-32 instruction [after] the exception handler").
    let build = |haddr: i32| {
        let mut a = Asm::new(0x40_0000);
        let handler = a.label();
        a.mov_ri(EAX, btlib::sys::SIGNAL as i32);
        a.mov_ri(EBX, haddr);
        a.int(0x80);
        a.mov_ri(ESI, UNMAPPED as i32);
        a.mov_load(EDX, Addr::base(ESI)); // faults, then retried
        a.mov_store(Addr::abs(DATA + 8), EDX);
        a.hlt();
        a.bind(handler);
        // Fix ESI to a valid buffer holding 0x777 and return to retry.
        a.mov_ri(ESI, DATA as i32);
        a.mov_mi(Addr::base(ESI), 0x777);
        a.ret(); // pops the pushed faulting EIP: re-executes the load
        (a.label_addr(handler), a)
    };
    let (h, _) = build(0);
    let (h2, a) = build(h as i32);
    assert_eq!(h, h2);
    let img = Image::from_asm(&a).with_bss(DATA, 0x1000);

    for (cfgname, cfg) in [("cold", cold_config()), ("hot", hot_config())] {
        let (trans, p) = run_translated(&img, cfg, 10_000_000);
        assert_eq!(
            trans.end,
            ia32el::testkit::RunEnd::Halt,
            "{cfgname}: handler resumes"
        );
        assert_eq!(
            p.engine.mem.read((DATA + 8) as u64, 4).unwrap(),
            0x777,
            "{cfgname}: retried load sees the fixed value"
        );
    }
}

#[test]
fn fp_stack_overflow_detected() {
    // Nine pushes: the ninth must raise the stack fault with the right
    // EIP and the status word marked.
    let img = image(|a| {
        for _ in 0..9 {
            a.inst(Inst::Fld1);
        }
        a.hlt();
    });
    let oracle = run_interp(&img, 1_000_000);
    let (trans, _p) = run_translated(&img, cold_config(), 10_000_000);
    match (&oracle.end, &trans.end) {
        (ia32el::testkit::RunEnd::Fault(oe), ia32el::testkit::RunEnd::Fault(te)) => {
            assert_eq!(oe, te, "stack-fault EIP");
            assert_ne!(
                trans.cpu.fpu.status & ia32::fpu::status::SF,
                0,
                "status word shows the stack fault"
            );
        }
        other => panic!("expected stack faults, got {other:?}"),
    }
}

#[test]
fn fp_stack_underflow_detected() {
    let add = Inst::Farith {
        op: FpArithOp::Add,
        form: FpArithForm::St0Sti(1),
    };
    for inst in [add, Inst::Fchs, Inst::Fabs, Inst::Fsqrt] {
        let img = image(|a| {
            a.inst(Inst::Fld1);
            a.inst(Inst::Fst {
                dst: FpOperand::M64(Addr::abs(DATA)),
                pop: true,
            });
            // Stack now empty: this faults.
            a.inst(inst);
            a.hlt();
        });
        let oracle = run_interp(&img, 1_000_000);
        let (trans, _p) = run_translated(&img, cold_config(), 10_000_000);
        match (&oracle.end, &trans.end) {
            (ia32el::testkit::RunEnd::Fault(oe), ia32el::testkit::RunEnd::Fault(te)) => {
                assert_eq!(oe, te, "{inst}");
            }
            other => panic!("{inst}: expected stack faults, got {other:?}"),
        }
    }
}

#[test]
fn ud2_raises_invalid_opcode() {
    let img = image(|a| {
        a.mov_ri(EAX, 7);
        a.inst(Inst::Ud2);
        a.hlt();
    });
    check_fault("ud2", &img);
}

#[test]
fn split_store_probe_reports_write_fault() {
    // A misaligned store across a page boundary into unmapped memory:
    // the avoidance path probes with a load, but the delivered fault
    // must still be a *write* fault (the engine re-derives intent).
    let img = image(|a| {
        // First touch a misaligned address so the block regenerates
        // with detect+avoid, then hit the unmapped page.
        a.mov_ri(ESI, (DATA + 2) as i32);
        a.mov_ri(ECX, 40);
        let top = a.label();
        a.bind(top);
        a.mov_store(Addr::base(ESI), ECX);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        // Now a misaligned store straddling into unmapped space.
        a.mov_ri(ESI, (DATA + 0x10000 - 2) as i32);
        a.mov_store(Addr::base(ESI), ECX);
        a.hlt();
    });
    let oracle = run_interp(&img, 1_000_000);
    let (trans, _p) = run_translated(&img, cold_config(), 10_000_000);
    match (&oracle.end, &trans.end) {
        (ia32el::testkit::RunEnd::Fault(oe), ia32el::testkit::RunEnd::Fault(te)) => {
            assert_eq!(oe, te, "faulting EIP must match");
        }
        other => panic!("expected faults, got {other:?}"),
    }
}

/// Runs both sides expecting a page fault; compares the whole
/// exception (address and direction), not only the faulting EIP.
fn check_page_fault(name: &str, img: &Image) {
    let mut mem = ia32::mem::GuestMem::new();
    let mut interp = ia32::interp::Interp::new();
    interp.cpu = img.load(&mut mem);
    let trap = interp
        .run(&mut mem, 1_000_000)
        .expect_err("the oracle faults");
    let ia32::Fault::Mem(m) = trap.fault else {
        panic!("{name}: the oracle raised {:?}", trap.fault);
    };
    let want = GuestException::PageFault {
        addr: m.addr as u32,
        write: m.write,
    };
    for (cfgname, cfg) in [("cold", cold_config()), ("hot", hot_config())] {
        let mut p = btlib::Process::launch_with(img, btlib::SimOs::new(), cfg).expect("launch");
        match p.run(400_000_000) {
            Outcome::Terminated { exc, cpu } => {
                assert_eq!(exc, want, "{name}/{cfgname}: exception");
                assert_eq!(cpu.eip, trap.eip, "{name}/{cfgname}: faulting EIP");
            }
            other => panic!("{name}/{cfgname}: expected a page fault, got {other:?}"),
        }
    }
}

#[test]
fn compare_with_memory_is_a_read_fault() {
    let img = image(|a| {
        a.inst(Inst::Alu {
            op: AluOp::Cmp,
            size: ia32::Size::D,
            dst: Rm::Mem(Addr::abs(UNMAPPED)),
            src: RmI::Imm(1),
        });
        a.hlt();
    });
    check_page_fault("cmp-mem", &img);
}

/// A loop of misaligned 4-byte stores walking up to the end of the data
/// page: the block regenerates with split stores, and the last store
/// straddles into the unmapped page after it.
fn split_store_into_unmapped(store: impl Fn(&mut Asm)) -> Image {
    image(|a| {
        a.mov_ri(ESI, (DATA + 0x1_0000 - 2 - 4 * 39) as i32);
        a.mov_ri(ECX, 40);
        let top = a.label();
        a.bind(top);
        store(a);
        a.alu_ri(AluOp::Add, ESI, 4);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.hlt();
    })
}

#[test]
fn split_store_fault_names_the_first_unmapped_byte() {
    let mov = split_store_into_unmapped(|a| a.mov_store(Addr::base(ESI), ECX));
    check_page_fault("split-mov", &mov);
    let movss = split_store_into_unmapped(|a| {
        a.inst(Inst::Movss {
            xmm: Xmm::new(0),
            rm: XmmM::Mem(Addr::base(ESI)),
            to_xmm: false,
        })
    });
    check_page_fault("split-movss", &movss);
}

#[test]
fn exit_syscall_state_is_consistent() {
    // Not a fault, but the syscall path also reconstructs state: the
    // registers at the syscall must match the oracle.
    let img = image(|a| {
        a.mov_ri(EBX, 41);
        a.inc(EBX);
        a.mov_ri(EAX, btlib::sys::EXIT as i32);
        a.int(0x80);
    });
    let (trans, _p) = run_translated(&img, cold_config(), 1_000_000);
    assert_eq!(trans.end, ia32el::testkit::RunEnd::Exit(42));
    match run_interp(&img, 1_000_000).end {
        ia32el::testkit::RunEnd::Exit(c) => assert_eq!(c, 42),
        other => panic!("oracle: {other:?}"),
    }
    let _ = Outcome::Exited(42);
}

/// Single-steps the interpreter over `img` and returns every EIP it
/// executed (the oracle's instruction footprint).
fn interp_visited_eips(img: &Image, max_steps: u64) -> std::collections::HashSet<u32> {
    use btgeneric::btos::{BtOs, SyscallOutcome};
    let mut mem = ia32::mem::GuestMem::new();
    let cpu = img.load(&mut mem);
    let mut os = btlib::SimOs::new();
    let mut interp = ia32::interp::Interp::new();
    interp.cpu = cpu;
    let mut visited = std::collections::HashSet::new();
    for _ in 0..max_steps {
        visited.insert(interp.cpu.eip);
        match interp.step(&mut mem) {
            Ok(ia32::interp::Event::Continue) => {}
            Ok(ia32::interp::Event::Halt) => return visited,
            Ok(ia32::interp::Event::Syscall { vector }) => {
                assert_eq!(vector, 0x80);
                match os.syscall(&mut interp.cpu, &mut mem) {
                    SyscallOutcome::Continue => {}
                    SyscallOutcome::Exit(_) => return visited,
                }
            }
            Err(trap) => panic!("oracle fault at {:#x}: {:?}", trap.eip, trap.fault),
        }
    }
    panic!("oracle did not halt in {max_steps} steps");
}

/// The exhaustive commit-point sweep (hostile-guest PR acceptance):
/// for every hot trace the 15-kernel suite promotes, every recovery
/// entry must round-trip `reconstruct_at` into a state the interpreter
/// oracle could actually have been in: a `Some` reconstruction whose
/// EIP the oracle executed, a well-formed FXCHG permutation, and every
/// `by_slot` index in range. Signals interrupt hot traces exactly at
/// these points, so a hole here is a corrupted guest on delivery.
#[test]
fn recovery_map_sweep_covers_every_commit_point() {
    let mut kernels = workloads::spec_int();
    kernels.extend(workloads::indirect_kernels());
    assert_eq!(kernels.len(), 15, "the suite covers all 15 kernels");
    let mut traces = 0usize;
    let mut points = 0usize;
    for w in &kernels {
        let scale = (w.scale / 400).max(512);
        let img = workloads::harness::build_image(w, scale);
        let visited = interp_visited_eips(&img, 500_000_000);
        let (trans, p) = run_translated(&img, hot_config(), 400_000_000);
        assert_eq!(
            trans.end,
            ia32el::testkit::RunEnd::Halt,
            "{}: must halt",
            w.name
        );
        for (eip, hot) in p.engine.hot_recovery_maps() {
            traces += 1;
            let what = format!("{} trace @{eip:#x}", w.name);
            // A trace whose micro-ops can none of them fault keeps
            // an empty map; the sweep is vacuous for it.
            for (&(ip, slot), &idx) in &hot.by_slot {
                assert!(
                    (idx as usize) < hot.recovery.len(),
                    "{what}: by_slot ({ip:#x},{slot}) -> {idx} out of range"
                );
            }
            for idx in 0..hot.recovery.len() as u32 {
                points += 1;
                let e = hot.recovery[idx as usize];
                let cpu = hot
                    .reconstruct_at(&p.engine.machine, idx)
                    .unwrap_or_else(|| panic!("{what}: entry {idx} failed to reconstruct"));
                assert_eq!(cpu.eip, e.ia32_ip, "{what}: entry {idx} EIP");
                let mut seen = [false; 8];
                for &b in &e.perm {
                    assert!(b < 8, "{what}: entry {idx} perm byte {b} out of range");
                    seen[b as usize] = true;
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{what}: entry {idx} perm {:?} is not a permutation",
                    e.perm
                );
                assert!(
                    visited.contains(&e.ia32_ip),
                    "{what}: entry {idx} EIP {:#x} never executed by the oracle",
                    e.ia32_ip
                );
            }
        }
    }
    assert!(traces > 0, "the suite never promoted a hot trace");
    assert!(points > 0, "the suite recorded no commit points");
    eprintln!("swept {points} commit points across {traces} hot traces");
}
