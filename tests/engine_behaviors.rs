//! Engine-level behaviors: translation-cache garbage collection, hot
//! side-exit accounting, the indirect-branch lookup table under
//! collisions, and instruction-budget handling.

use btgeneric::chaos::FaultPlan;
use btgeneric::engine::Outcome;
use btgeneric::stats::TimeDistribution;
use btlib::{Process, SimOs};
use ia32::asm::{Asm, Image};
use ia32::inst::AluOp;
use ia32::regs::*;
use ia32::Cond;
use ia32el::testkit::{cold_config, differential, hot_config};

const DATA: u32 = 0x50_0000;

fn image(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(0x40_0000);
    f(&mut a);
    Image::from_asm(&a).with_bss(DATA, 0x1_0000)
}

/// A chain of many small blocks looping 40 times — enough churn to
/// overflow a tiny translation cache many times over.
fn churn_image() -> Image {
    image(|a| {
        a.mov_ri(EAX, 0);
        a.mov_ri(ECX, 40);
        let top = a.label();
        a.bind(top);
        // A chain of small blocks (each jmp ends a block).
        for k in 0..24 {
            let l = a.label();
            a.alu_ri(AluOp::Add, EAX, k + 1);
            a.alu_ri(AluOp::Xor, EAX, 0x1111);
            a.jmp(l);
            a.bind(l);
        }
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(ia32::inst::Addr::abs(DATA), EAX);
        a.hlt();
    })
}

#[test]
fn cache_eviction_preserves_correctness() {
    // A program with many blocks run under a tiny cache: incremental
    // eviction and retranslation must not change behaviour, and the
    // pressure must be absorbed entirely by evictions — the full-flush
    // fallback must never fire.
    let img = churn_image();
    let mut tiny = cold_config();
    tiny.max_cache_bundles = 100;
    let p = differential(&img, tiny, &[(DATA, 8)], "tiny-cache");
    assert!(
        p.engine.stats.evictions > 0,
        "the tiny cache must have evicted"
    );
    assert_eq!(
        p.engine.stats.cache_flushes, 0,
        "eviction must absorb the pressure without a full flush"
    );
    assert!(p.engine.stats.evicted_bundles >= p.engine.stats.evictions);
    // Same program with hot phase + tiny cache.
    let mut tiny_hot = hot_config();
    tiny_hot.max_cache_bundles = 150;
    let p = differential(&img, tiny_hot, &[(DATA, 8)], "tiny-cache-hot");
    assert!(p.engine.stats.evictions > 0);
    assert_eq!(p.engine.stats.cache_flushes, 0);
}

#[test]
fn cache_flush_fallback_preserves_correctness() {
    // With eviction disabled the engine falls back to the paper's
    // wholesale garbage collection: constant flushing and
    // retranslation must not change behaviour either.
    let img = churn_image();
    let mut tiny = cold_config();
    tiny.max_cache_bundles = 100;
    tiny.enable_eviction = false;
    let p = differential(&img, tiny, &[(DATA, 8)], "tiny-cache-flush");
    assert!(
        p.engine.stats.cache_flushes > 0,
        "the tiny cache must have flushed"
    );
    assert_eq!(p.engine.stats.evictions, 0);
}

#[test]
fn region_cycles_account_for_every_engine_cycle() {
    // Cycle-attribution audit: every simulated cycle the engine spends
    // must land in exactly one region (hot/cold/overhead/other/...), so
    // the per-region attribution sums to the machine's total clock even
    // under cache eviction, the degradation ladder, and fault
    // injection. Figures 6/7 depend on this invariant.
    let img = churn_image();
    let mut cfg = hot_config();
    cfg.max_cache_bundles = 150;
    let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    p.engine.chaos = Some(FaultPlan::storm(5));
    match p.run(200_000_000) {
        Outcome::Halted(_) => {}
        other => panic!("{other:?}"),
    }
    assert!(
        p.engine.stats.evictions > 0 && p.engine.stats.faults_injected > 0,
        "the run must exercise eviction and the ladder"
    );
    let m = &p.engine.machine;
    let sum: u64 = m.region_cycles.values().sum();
    assert_eq!(sum, m.cycles, "region attribution must cover the clock");
    // And every charged region is one of the Figure 6/7 categories —
    // nothing leaks into an unreported bucket.
    let dist = TimeDistribution::from_region_cycles(&m.region_cycles);
    assert_eq!(dist.total(), m.cycles);
    assert!(dist.hot > 0 && dist.cold > 0 && dist.overhead > 0);
}

#[test]
fn hot_side_exits_are_counted() {
    // A hot loop with a rare inner branch: the off-trace direction is a
    // side exit and must be counted.
    let img = image(|a| {
        a.mov_ri(ECX, 4000);
        a.mov_ri(EAX, 0);
        let top = a.label();
        let rare = a.label();
        let back = a.label();
        a.bind(top);
        a.inc(EAX);
        a.mov_rr(EBX, ECX);
        a.alu_ri(AluOp::And, EBX, 0x3F); // ~1.5% of iterations
        a.cmp_ri(EBX, 0);
        a.jcc(Cond::E, rare);
        a.bind(back);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(ia32::inst::Addr::abs(DATA), EAX);
        a.hlt();
        a.bind(rare);
        a.alu_ri(AluOp::Add, EAX, 1000);
        a.jmp(back);
    });
    let mut p = Process::launch_with(&img, SimOs::new(), hot_config()).unwrap();
    match p.run(u64::MAX / 2) {
        Outcome::Halted(_) => {}
        other => panic!("{other:?}"),
    }
    p.engine.collect_hot_exit_stats();
    assert!(p.engine.stats.hot_traces > 0);
    assert!(
        p.engine.stats.hot_side_exits > 10,
        "rare branch must register as side exits, got {}",
        p.engine.stats.hot_side_exits
    );
    // And the result must still be right (4000 + 62 * 1000).
    let v = p.engine.mem.read(DATA as u64, 4).unwrap();
    assert_eq!(v, 4000 + 1000 * (4000 / 64));
}

#[test]
fn lookup_table_collisions_are_correct() {
    // Two indirect-call targets whose EIPs collide in the direct-mapped
    // lookup table: correctness must survive constant overwriting.
    // Build with a landing pad such that both functions map to the same
    // slot: slots hash on bits 2..14, so addresses 16 KiB apart collide.
    let mut a = Asm::new(0x40_0000);
    let f1 = a.label();
    a.mov_ri(ECX, 600);
    a.mov_ri(EAX, 0);
    let top = a.label();
    a.bind(top);
    // Alternate targets every iteration.
    a.mov_rr(EBX, ECX);
    a.alu_ri(AluOp::And, EBX, 1);
    a.inst(ia32::Inst::ImulRmImm {
        dst: EBX,
        src: ia32::inst::Rm::Reg(EBX),
        imm: 0x4000,
    });
    a.alu_ri(AluOp::Add, EBX, 0x40_1000);
    a.call_r(EBX);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(ia32::inst::Addr::abs(DATA), EAX);
    a.hlt();
    let _ = f1;
    // Function at 0x40_1000 and its 16KiB-offset twin at 0x40_5000.
    while a.here() < 0x40_1000 {
        a.nop();
    }
    a.alu_ri(AluOp::Add, EAX, 3);
    a.ret();
    while a.here() < 0x40_5000 {
        a.nop();
    }
    a.alu_ri(AluOp::Add, EAX, 7);
    a.ret();
    let img = Image::from_asm(&a).with_bss(DATA, 0x1000);
    let p = differential(&img, cold_config(), &[(DATA, 8)], "lookup-collide");
    assert!(
        p.engine.stats.indirect_misses >= 2,
        "colliding entries must keep missing"
    );
}

#[test]
fn evicted_lookup_slots_never_serve_stale_entries() {
    // Indirect calls through the lookup table under heavy cache
    // pressure: when a call target's block is evicted, its lookup slot
    // must be purged (or already overwritten by the colliding twin) —
    // an indirect branch must never land in reclaimed code. The
    // differential harness catches any stale dispatch as a state
    // mismatch; padding blocks between calls force constant eviction.
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(ECX, 120);
    a.mov_ri(EAX, 0);
    let top = a.label();
    a.bind(top);
    // Alternate between two 16 KiB-apart targets (same lookup slot).
    a.mov_rr(EBX, ECX);
    a.alu_ri(AluOp::And, EBX, 1);
    a.inst(ia32::Inst::ImulRmImm {
        dst: EBX,
        src: ia32::inst::Rm::Reg(EBX),
        imm: 0x4000,
    });
    a.alu_ri(AluOp::Add, EBX, 0x40_1000);
    a.call_r(EBX);
    // Filler block chain: churns the tiny cache so the call targets
    // themselves get evicted between iterations.
    for k in 0..12 {
        let l = a.label();
        a.alu_ri(AluOp::Add, EAX, k);
        a.jmp(l);
        a.bind(l);
    }
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(ia32::inst::Addr::abs(DATA), EAX);
    a.hlt();
    while a.here() < 0x40_1000 {
        a.nop();
    }
    a.alu_ri(AluOp::Add, EAX, 3);
    a.ret();
    while a.here() < 0x40_5000 {
        a.nop();
    }
    a.alu_ri(AluOp::Add, EAX, 7);
    a.ret();
    let img = Image::from_asm(&a).with_bss(DATA, 0x1000);
    let mut tiny = cold_config();
    tiny.max_cache_bundles = 120;
    let p = differential(&img, tiny, &[(DATA, 8)], "evict-lookup-collide");
    assert!(p.engine.stats.evictions > 0, "cache must be under pressure");
    assert!(
        p.engine.stats.indirect_misses >= 2,
        "evicted/colliding entries must keep missing"
    );
}

#[test]
fn hot_exit_collection_is_idempotent() {
    // collect_hot_exit_stats assigns (not accumulates): harvesting
    // twice — as run_el and figure code paths may — must not
    // double-count side exits.
    let img = image(|a| {
        a.mov_ri(ECX, 4000);
        a.mov_ri(EAX, 0);
        let top = a.label();
        let rare = a.label();
        let back = a.label();
        a.bind(top);
        a.inc(EAX);
        a.mov_rr(EBX, ECX);
        a.alu_ri(AluOp::And, EBX, 0x3F);
        a.cmp_ri(EBX, 0);
        a.jcc(Cond::E, rare);
        a.bind(back);
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        a.mov_store(ia32::inst::Addr::abs(DATA), EAX);
        a.hlt();
        a.bind(rare);
        a.alu_ri(AluOp::Add, EAX, 1000);
        a.jmp(back);
    });
    let mut p = Process::launch_with(&img, SimOs::new(), hot_config()).unwrap();
    match p.run(u64::MAX / 2) {
        Outcome::Halted(_) => {}
        other => panic!("{other:?}"),
    }
    p.engine.collect_hot_exit_stats();
    let once = p.engine.stats.hot_side_exits;
    assert!(once > 0);
    p.engine.collect_hot_exit_stats();
    p.engine.collect_hot_exit_stats();
    assert_eq!(
        p.engine.stats.hot_side_exits, once,
        "repeated harvests must not double-count"
    );
}

#[test]
fn inst_limit_returns_cleanly() {
    let img = image(|a| {
        let top = a.label();
        a.bind(top);
        a.inc(EAX);
        a.jmp(top); // infinite loop
    });
    let mut p = Process::launch_with(&img, SimOs::new(), cold_config()).unwrap();
    assert_eq!(p.run(50_000), Outcome::InstLimit);
}

#[test]
fn gettick_syscall_works_translated() {
    let img = image(|a| {
        a.mov_ri(EAX, btlib::sys::GETTICK as i32);
        a.int(0x80);
        a.mov_rr(EBX, EAX);
        a.mov_ri(EAX, btlib::sys::GETTICK as i32);
        a.int(0x80);
        a.alu_rr(AluOp::Sub, EAX, EBX);
        a.mov_rr(EBX, EAX);
        a.mov_ri(EAX, btlib::sys::EXIT as i32);
        a.int(0x80);
    });
    let mut p = Process::launch_with(&img, SimOs::new(), cold_config()).unwrap();
    assert_eq!(p.run(1_000_000), Outcome::Exited(1), "ticks are monotonic");
}

/// Every prediction the indirect-acceleration structures hold — shared
/// lookup-table ways, shadow-stack return predictions, per-site inline
/// caches — must point into a *live* translated extent, even after the
/// cache has churned through many evictions and retranslations. A
/// stale prediction is a branch into reclaimed memory.
#[test]
fn indirect_predictions_stay_coherent_under_eviction() {
    use btgeneric::layout;

    // Calls through a register (two alternating targets) plus a filler
    // chain that keeps the tiny cache evicting; a low heat threshold
    // also drags blocks through promotion/demotion.
    let mut a = Asm::new(0x40_0000);
    a.mov_ri(ECX, 300);
    a.mov_ri(EAX, 0);
    let top = a.label();
    a.bind(top);
    a.mov_rr(EBX, ECX);
    a.alu_ri(AluOp::And, EBX, 1);
    a.inst(ia32::Inst::ImulRmImm {
        dst: EBX,
        src: ia32::inst::Rm::Reg(EBX),
        imm: 0x100,
    });
    a.alu_ri(AluOp::Add, EBX, 0x40_1000);
    a.call_r(EBX);
    for k in 0..10 {
        let l = a.label();
        a.alu_ri(AluOp::Add, EAX, k);
        a.jmp(l);
        a.bind(l);
    }
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(ia32::inst::Addr::abs(DATA), EAX);
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
    let img = Image::from_asm(&a).with_bss(DATA, 0x1000);

    let mut cfg = hot_config();
    cfg.max_cache_bundles = 150;
    let mut p = differential(&img, cfg, &[(DATA, 8)], "indirect-coherence");
    p.engine.collect_indirect_stats();
    assert!(p.engine.stats.evictions > 0, "cache must be under pressure");
    assert!(
        p.engine.stats.shadow_hits + p.engine.stats.ic_hits > 0,
        "the acceleration must have been exercised"
    );

    let live: Vec<(u64, u64)> = p
        .engine
        .blocks()
        .iter()
        .filter(|b| !b.evicted)
        .flat_map(|b| b.extents.iter().copied())
        .collect();
    let in_live = |t: u64| live.iter().any(|&(s, e)| t >= s && t < e);

    for set in 0..layout::LOOKUP_SETS {
        for way in 0..layout::LOOKUP_WAYS {
            let ea =
                layout::LOOKUP_BASE + (set * layout::LOOKUP_WAYS + way) * layout::LOOKUP_ENTRY_SIZE;
            let key = p.engine.mem.read(ea, 8).unwrap();
            // The table starts zero-filled; 0 and the explicit empty
            // key both mean "no prediction here".
            if key == layout::LOOKUP_EMPTY_KEY || key == 0 {
                continue;
            }
            let target = p.engine.mem.read(ea + 8, 8).unwrap();
            assert!(
                in_live(target),
                "lookup set {set} way {way}: stale target {target:#x} for eip {key:#x}"
            );
        }
    }
    for i in 0..layout::SHADOW_ENTRIES {
        let ea = layout::SHADOW_BASE + i * layout::SHADOW_ENTRY_SIZE;
        let key = p.engine.mem.read(ea, 8).unwrap();
        if key == layout::LOOKUP_EMPTY_KEY {
            continue;
        }
        let target = p.engine.mem.read(ea + 8, 8).unwrap();
        assert!(
            in_live(target),
            "shadow slot {i}: stale prediction {target:#x} for ret eip {key:#x}"
        );
    }
    for slot in p.engine.ic_slots() {
        let pred = p.engine.mem.read(slot, 8).unwrap();
        if pred == layout::LOOKUP_EMPTY_KEY {
            continue;
        }
        let target = p.engine.mem.read(slot + 8, 8).unwrap();
        assert!(
            in_live(target),
            "inline cache {slot:#x}: stale entry {target:#x} for eip {pred:#x}"
        );
    }
}
