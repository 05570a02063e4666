//! Fault injection and the degradation ladder: the engine must survive
//! corrupted translations, escaped speculation, misalignment residue,
//! OS allocation refusals, and transient syscall failures — degrading
//! (demote, blacklist, evict, interpret) instead of panicking, while
//! the guest-visible result stays oracle-correct.

use btgeneric::chaos::{self, FaultKind, FaultPlan};
use btgeneric::engine::{BlockKind, Config, Outcome};
use btgeneric::features::Features;
use btlib::{Process, SimOs, SimOsFaults};
use ia32::asm::{Asm, Image};
use ia32::inst::{Addr, AluOp};
use ia32::regs::*;
use ia32::Cond;
use ia32el::testkit::{run_interp, RunEnd};
use ipf::inst::Op;
use ipf::regs::{Br, Gr, R0};

const DATA: u32 = 0x50_0000;
const ENTRY: u32 = 0x40_0000;

fn image(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(ENTRY);
    f(&mut a);
    Image::from_asm(&a).with_bss(DATA, 0x1_0000)
}

/// A hot-friendly checksum loop ending in a store + HLT.
fn loop_image() -> Image {
    image(|a| {
        a.mov_ri(EAX, 0);
        a.mov_ri(ECX, 400);
        let top = a.label();
        a.bind(top);
        a.alu_ri(AluOp::Add, EAX, 7);
        a.alu_ri(AluOp::Xor, EAX, 0x5A5A);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA), EAX);
        a.hlt();
    })
}

/// An outer loop over a chain of `n` tiny blocks: lots of distinct
/// blocks (translation traffic) that all get warm (hot traffic).
fn chain_image(n: u32, iters: i32) -> Image {
    image(|a| {
        a.mov_ri(EAX, 0);
        a.mov_ri(ECX, iters);
        let top = a.label();
        a.bind(top);
        for k in 0..n {
            let next = a.label();
            a.alu_ri(AluOp::Add, EAX, k as i32 + 1);
            a.alu_ri(AluOp::Xor, EAX, 0x1111);
            a.jmp(next);
            a.bind(next);
        }
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA), EAX);
        a.hlt();
    })
}

/// Interpreter-oracle result for an image that halts with its checksum
/// at `DATA`.
fn oracle(img: &Image) -> u64 {
    let r = run_interp(img, 50_000_000);
    assert_eq!(r.end, RunEnd::Halt, "oracle must halt");
    r.mem.read(DATA as u64, 4).unwrap()
}

fn guest_result(p: &Process<SimOs>) -> u64 {
    p.engine.mem.read(DATA as u64, 4).unwrap()
}

/// Latest non-evicted block registered at `eip`.
fn live_block_at(p: &Process<SimOs>, eip: u32) -> u32 {
    p.engine
        .blocks()
        .iter()
        .rev()
        .find(|b| b.eip == eip && !b.evicted)
        .expect("live block at eip")
        .id
}

/// Regression for the old `panic!("branch to non-stub address")`: a
/// corrupted entry bundle branches into the void; the ladder must
/// convert that into evict-and-retranslate, not a crash.
#[test]
fn corrupted_block_recovers_instead_of_panicking() {
    let img = loop_image();
    let want = oracle(&img);
    let cfg = Config {
        heat_threshold: 16,
        hot_candidates: 1,
        ..Config::default()
    };
    let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(p.run(100_000_000), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want);

    let id = live_block_at(&p, ENTRY);
    assert!(chaos::corrupt_block(&mut p.engine, id));
    let before = p.engine.stats.ladder_recoveries;
    assert!(matches!(p.run(100_000_000), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want, "recovered run must match oracle");
    assert!(
        p.engine.stats.ladder_recoveries > before,
        "recovery must go through the ladder"
    );
}

/// Regression for the old NaT-consumption `panic!`: patch an installed
/// block so a speculative load's NaT escapes into a non-speculative
/// consumer. The ladder retries, then evicts and retranslates.
#[test]
fn nat_consumption_recovers_instead_of_panicking() {
    let img = loop_image();
    let want = oracle(&img);
    let cfg = Config {
        heat_threshold: 0,
        ..Config::default()
    };
    let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(p.run(100_000_000), Outcome::Halted(_)));

    let id = live_block_at(&p, ENTRY);
    let entry = p.engine.block(id).range.0;
    // ld8.s r48 = [r0]  -> address 0 is unmapped, deferred to a NaT
    // mov   b6  = r48   -> non-speculative consumption: MachFault
    p.engine.machine.arena.patch_slot(
        entry,
        0,
        Op::Ld {
            sz: 8,
            d: Gr(48),
            addr: R0,
            spec: true,
        },
    );
    p.engine.machine.arena.patch_slot(
        entry,
        1,
        Op::MovToBr {
            b: Br(6),
            r: Gr(48),
        },
    );

    let before = p.engine.stats.ladder_recoveries;
    assert!(matches!(p.run(100_000_000), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want, "recovered run must match oracle");
    assert!(p.engine.stats.ladder_recoveries > before);
}

/// Regression for the old misalignment-residue `panic!`: a misalignment
/// fault whose slot does not hold an emulable memory op (the
/// arena-corruption case) walks the ladder instead of dying.
#[test]
fn misalign_residue_recovers_instead_of_panicking() {
    let img = loop_image();
    let want = oracle(&img);
    let cfg = Config {
        heat_threshold: 0,
        ..Config::default()
    };
    let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(p.run(100_000_000), Outcome::Halted(_)));

    let id = live_block_at(&p, ENTRY);
    assert!(
        chaos::misalign_residue_probe(&mut p.engine, &mut p.os, id),
        "residue fault must be absorbed by the ladder"
    );
    assert!(matches!(p.run(100_000_000), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want, "recovered run must match oracle");
}

/// Verify-on-dispatch: per-extent checksums catch a corrupted block at
/// the dispatch boundary and evict it before it executes.
#[test]
fn verify_on_dispatch_catches_corruption() {
    let img = loop_image();
    let want = oracle(&img);
    let cfg = Config {
        heat_threshold: 0,
        verify_on_dispatch: true,
        ..Config::default()
    };
    let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(p.run(100_000_000), Outcome::Halted(_)));

    let id = live_block_at(&p, ENTRY);
    assert!(chaos::corrupt_block(&mut p.engine, id));
    assert!(matches!(p.run(100_000_000), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want);
    assert!(
        p.engine.stats.integrity_evictions > 0,
        "the checksum must have caught the corruption before execution"
    );
}

/// The acceptance-criterion ladder policy at engine level: a
/// blacklisted EIP is not re-promoted while its backoff runs, and *is*
/// re-promoted after it expires.
#[test]
fn blacklisted_block_repromotes_only_after_backoff() {
    let img = loop_image();
    let cfg = Config {
        heat_threshold: 16,
        hot_candidates: 1,
        ..Config::default()
    };

    // Which EIPs go hot organically?
    let mut pa = Process::launch_with(&img, SimOs::new(), cfg.clone()).expect("launch");
    assert!(matches!(pa.run(100_000_000), Outcome::Halted(_)));
    let hot_eips: Vec<u32> = pa
        .engine
        .blocks()
        .iter()
        .filter(|b| b.kind == BlockKind::Hot && !b.evicted)
        .map(|b| b.eip)
        .collect();
    assert!(!hot_eips.is_empty(), "the loop must heat up");

    // Backoff far beyond the run length: promotion stays blocked.
    let blocked_cfg = Config {
        blacklist_backoff_cycles: 1 << 40,
        ..cfg.clone()
    };
    let mut pb = Process::launch_with(&img, SimOs::new(), blocked_cfg).expect("launch");
    for &e in &hot_eips {
        pb.engine.blacklist_mut().strike(e, 0);
    }
    assert!(matches!(pb.run(100_000_000), Outcome::Halted(_)));
    assert!(
        !pb.engine
            .blocks()
            .iter()
            .any(|b| b.kind == BlockKind::Hot && hot_eips.contains(&b.eip)),
        "blacklisted EIPs must not re-promote inside the backoff window"
    );
    assert!(
        pb.engine.stats.blacklist_hits > 0,
        "heat must have been suppressed"
    );

    // Short backoff: the same strikes expire mid-run and the loop goes
    // hot again.
    let expiring_cfg = Config {
        blacklist_backoff_cycles: 2_000,
        ..cfg
    };
    let mut pc = Process::launch_with(&img, SimOs::new(), expiring_cfg).expect("launch");
    for &e in &hot_eips {
        pc.engine.blacklist_mut().strike(e, 0);
    }
    assert!(matches!(pc.run(100_000_000), Outcome::Halted(_)));
    assert!(
        pc.engine
            .blocks()
            .iter()
            .any(|b| b.kind == BlockKind::Hot && hot_eips.contains(&b.eip)),
        "the blacklist must release the EIP once its backoff expires"
    );
}

/// Injected translation failures ride the `InterpStep` safety net and
/// still produce the oracle result.
#[test]
fn translate_faults_fall_back_to_interp() {
    let img = chain_image(20, 10);
    let want = oracle(&img);
    let cfg = Config {
        heat_threshold: 0,
        ..Config::default()
    };
    let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    p.engine.chaos = Some(FaultPlan::new(9).with(FaultKind::Translate, 1000, 8));
    assert!(matches!(p.run(200_000_000), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want);
    assert_eq!(p.engine.stats.faults_injected, 8, "budget must drain");
    assert_eq!(p.engine.stats.interp_fallbacks, 8);
    assert!(
        p.engine.stats.interp_steps > 0,
        "the net must have caught them"
    );
    assert!(
        p.engine.stats.interp_cycles > 0,
        "fallback time must be charged"
    );
}

/// The OS refusing translator-side allocations (ENOMEM) degrades the
/// engine — shared overflow profile slots — without changing the guest
/// result.
#[test]
fn os_allocation_failure_degrades_gracefully() {
    let img = chain_image(300, 2);
    let want = oracle(&img);
    let os = SimOs::with_faults(SimOsFaults {
        fail_allocs: 1_000,
        fail_syscalls: 0,
    });
    let cfg = Config {
        heat_threshold: 0,
        ..Config::default()
    };
    let mut p = Process::launch_with(&img, os, cfg).expect("launch");
    assert!(matches!(p.run(200_000_000), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want);
    assert!(
        p.os.denied_allocs > 0,
        "the 300-block chain must outgrow the mapped profile region"
    );
    assert_eq!(p.engine.stats.os_alloc_failures, p.os.denied_allocs);
}

/// A guest that retries on EAGAIN survives transient syscall failures.
#[test]
fn guest_retries_transient_syscall_failures() {
    let mut a = Asm::new(ENTRY);
    a.mov_ri(EAX, 0x0A6B6F); // "ok\n"
    a.alu_ri(AluOp::Sub, ESP, 4);
    a.mov_store(Addr::base(ESP), EAX);
    let retry = a.label();
    a.bind(retry);
    a.mov_ri(EAX, 4); // write(1, esp, 3)
    a.mov_ri(EBX, 1);
    a.mov_rr(ECX, ESP);
    a.mov_ri(EDX, 3);
    a.int(0x80);
    a.cmp_ri(EAX, 0);
    a.jcc(Cond::S, retry); // negative result (EAGAIN): try again
    a.hlt();
    let img = Image::from_asm(&a);

    let os = SimOs::with_faults(SimOsFaults {
        fail_allocs: 0,
        fail_syscalls: 2,
    });
    let mut p = Process::launch_with(&img, os, Config::default()).expect("launch");
    assert!(matches!(p.run(10_000_000), Outcome::Halted(_)));
    assert_eq!(p.os.denied_syscalls, 2, "both armed refusals must fire");
    assert_eq!(
        p.os.stdout_string(),
        "ok\n",
        "the retried write must land once"
    );
}

/// A misalignment storm rebuilds its victims only where the rebuild can
/// avoid something: with avoidance on, a hot victim is demoted or a
/// cold one retrained; with it off, the rebuilt block would take the
/// same faults, so the injected faults are counted and charged and
/// nothing is rebuilt. Both runs stay oracle-correct.
#[test]
fn misalign_storms_rebuild_nothing_with_avoidance_off() {
    let img = image(|a| {
        a.mov_ri(EAX, 0);
        a.mov_ri(ECX, 4_000);
        let top = a.label();
        a.bind(top);
        a.alu_ri(AluOp::Add, EAX, 7);
        a.alu_ri(AluOp::Xor, EAX, 0x5A5A);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA), EAX);
        a.hlt();
    });
    let want = oracle(&img);
    let run = |misalign_avoidance: bool| {
        let cfg = Config {
            features: Features {
                misalign_avoidance,
                ..Features::default()
            },
            ..Config::default()
        };
        let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
        p.engine.chaos = Some(FaultPlan::new(5).with(FaultKind::MisalignStorm, 1000, 6));
        assert!(matches!(p.run(200_000_000), Outcome::Halted(_)));
        assert_eq!(guest_result(&p), want, "avoidance {misalign_avoidance}");
        p.engine.stats.clone()
    };
    let on = run(true);
    assert!(
        on.misalign_retrains + on.demotions > 0,
        "the storm must reach a victim: {on:?}"
    );
    let off = run(false);
    assert!(
        off.faults_injected > 0 && off.misalign_faults > 0,
        "{off:?}"
    );
    assert_eq!(
        (off.misalign_retrains, off.demotions),
        (0, 0),
        "nothing to rebuild without avoidance"
    );
}

/// Same workload, same `FaultPlan` seed: byte-identical statistics and
/// cycle counts. The harness is exactly reproducible.
#[test]
fn chaos_runs_are_deterministic() {
    let img = chain_image(20, 50);
    let run = |seed: u64| {
        let plan = FaultPlan::storm(seed);
        let os = SimOs::with_faults(SimOsFaults {
            fail_allocs: plan.os_alloc_failures,
            fail_syscalls: 0,
        });
        let cfg = Config {
            heat_threshold: 16,
            hot_candidates: 1,
            verify_on_dispatch: true,
            hot_session_budget: 100_000,
            ..Config::default()
        };
        let mut p = Process::launch_with(&img, os, cfg).expect("launch");
        p.engine.chaos = Some(plan);
        assert!(matches!(p.run(200_000_000), Outcome::Halted(_)));
        (
            p.engine.stats.clone(),
            p.engine.machine.cycles,
            guest_result(&p),
        )
    };
    let (s1, c1, r1) = run(1234);
    let (s2, c2, r2) = run(1234);
    assert!(s1.faults_injected > 0, "the storm must actually fire");
    assert_eq!(s1, s2, "statistics must be byte-identical");
    assert_eq!(c1, c2, "cycle counts must be byte-identical");
    assert_eq!(r1, r2);
    assert_eq!(r1, oracle(&img), "and still oracle-correct");
}

/// The indirect-acceleration structures (inline caches, shadow stack,
/// 2-way table, demotion counters) must not introduce nondeterminism:
/// a call/ret-heavy workload under a fault storm produces byte-identical
/// `Stats` — including every indirect counter — on a re-run with the
/// same seed, and never diverges from the oracle. Three fixed seeds.
#[test]
fn indirect_accel_chaos_is_deterministic_and_oracle_correct() {
    let img = image(|a| {
        a.mov_ri(ECX, 300);
        a.mov_ri(EAX, 0);
        let top = a.label();
        a.bind(top);
        // Alternate between two indirect-call targets, then return.
        a.mov_rr(EBX, ECX);
        a.alu_ri(AluOp::And, EBX, 1);
        a.inst(ia32::Inst::ImulRmImm {
            dst: EBX,
            src: ia32::inst::Rm::Reg(EBX),
            imm: 0x100,
        });
        a.alu_ri(AluOp::Add, EBX, 0x40_1000);
        a.call_r(EBX);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(Addr::abs(DATA), EAX);
        a.hlt();
        while a.here() < 0x40_1000 {
            a.nop();
        }
        a.alu_ri(AluOp::Add, EAX, 3);
        a.ret();
        while a.here() < 0x40_1100 {
            a.nop();
        }
        a.alu_ri(AluOp::Add, EAX, 7);
        a.ret();
    });
    let want = oracle(&img);
    for seed in [11u64, 22, 33] {
        let run = || {
            let plan = FaultPlan::storm(seed);
            let os = SimOs::with_faults(SimOsFaults {
                fail_allocs: plan.os_alloc_failures,
                fail_syscalls: 0,
            });
            let cfg = Config {
                heat_threshold: 16,
                hot_candidates: 2,
                verify_on_dispatch: true,
                hot_session_budget: 100_000,
                ..Config::default()
            };
            let mut p = Process::launch_with(&img, os, cfg).expect("launch");
            p.engine.chaos = Some(plan);
            assert!(matches!(p.run(200_000_000), Outcome::Halted(_)));
            p.engine.collect_indirect_stats();
            (
                p.engine.stats.clone(),
                p.engine.machine.cycles,
                guest_result(&p),
            )
        };
        let (s1, c1, r1) = run();
        let (s2, c2, r2) = run();
        assert_eq!(s1, s2, "seed {seed}: statistics must be byte-identical");
        assert_eq!(c1, c2, "seed {seed}: cycle counts must be byte-identical");
        assert_eq!(r1, r2, "seed {seed}: results must match across runs");
        assert_eq!(r1, want, "seed {seed}: diverged from the oracle");
        assert!(
            s1.shadow_hits + s1.ic_hits + s1.indirect_misses > 0,
            "seed {seed}: the indirect machinery must have been exercised"
        );
    }
}
