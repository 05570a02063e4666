//! Cross-tenant coherence for the shared translation cache:
//! tenants attached to the same namespace must reuse each other's
//! translations, and one tenant's invalidation traffic — SMC, cache
//! eviction, the SMC-thrash governor — must never hand a peer a stale
//! extent. Correctness is judged against the interpreter oracle per
//! tenant; whole-fleet determinism is judged byte-for-byte on `Stats`.

use std::sync::Arc;

use btgeneric::engine::{Config, Outcome};
use btgeneric::serving::{namespace_key, SharedCache, DEFAULT_SHARDS};
use btlib::serve::Scheduler;
use btlib::{Process, SimOs};
use ia32::asm::{Asm, Image};
use ia32::inst::{Addr, AluOp};
use ia32::regs::*;
use ia32::Cond;
use ia32el::testkit::{run_interp, RunEnd};

const DATA: u32 = 0x50_0000;
const ENTRY: u32 = 0x40_0000;

/// An outer loop over a chain of tiny blocks: enough distinct EIPs
/// that sharing, eviction, and the records they pull are all
/// observable.
fn chain_image() -> Image {
    let mut a = Asm::new(ENTRY);
    a.mov_ri(EAX, 0);
    a.mov_ri(ECX, 300);
    let top = a.label();
    a.bind(top);
    for k in 0..8u32 {
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
    Image::from_asm(&a).with_bss(DATA, 0x1_0000)
}

/// A self-modifying loop: each iteration patches the immediate of its
/// own body, so every pass invalidates the code page it runs from.
fn smc_loop_image(iters: i32) -> Image {
    // Layout probe to find the patched immediate's address.
    let mut probe = Asm::new(ENTRY);
    probe.mov_ri(EAX, 0);
    probe.mov_ri(ECX, 0);
    probe.mov_ri(EBX, 0);
    let body_addr = probe.here() - 5; // mov_ri EBX is 5 bytes

    let mut a = Asm::new(ENTRY);
    a.mov_ri(EAX, 0);
    a.mov_ri(ECX, iters);
    let top = a.label();
    a.bind(top);
    a.mov_ri(EBX, 0); // immediate patched below
    a.alu_rr(AluOp::Add, EAX, EBX);
    a.mov_store(Addr::abs(body_addr + 1), ECX); // SMC store
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA), EAX);
    a.hlt();
    Image::from_asm(&a)
        .with_bss(DATA, 0x1000)
        .with_writable_code()
}

/// Two binaries with identical block shapes (same instruction
/// lengths, same `src_range`s) but different immediates — a forced
/// namespace-key collision whose records differ only in source bytes.
fn variant_image(add_const: i32, xor_const: i32) -> Image {
    let mut a = Asm::new(ENTRY);
    a.mov_ri(EAX, 0);
    a.mov_ri(ECX, 50);
    let top = a.label();
    a.bind(top);
    a.alu_ri(AluOp::Add, EAX, add_const);
    a.alu_ri(AluOp::Xor, EAX, xor_const);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA), EAX);
    a.hlt();
    Image::from_asm(&a).with_bss(DATA, 0x1000)
}

fn oracle(img: &Image) -> u64 {
    let r = run_interp(img, 50_000_000);
    assert_eq!(r.end, RunEnd::Halt, "oracle must halt");
    r.mem.read(DATA as u64, 4).unwrap()
}

fn guest_result(p: &Process<SimOs>) -> u64 {
    p.engine.mem.read(DATA as u64, 4).unwrap()
}

fn base_cfg() -> Config {
    Config {
        heat_threshold: 64,
        hot_candidates: 2,
        ..Config::default()
    }
}

/// Launches a tenant attached to `cache` under `binary_id`'s
/// namespace. Tenants of the same (config, binary_id) share.
fn launch_tenant(
    img: &Image,
    cfg: &Config,
    cache: &Arc<SharedCache>,
    binary_id: u64,
) -> Process<SimOs> {
    let mut p = Process::launch_with(img, SimOs::new(), cfg.clone()).expect("launch");
    p.engine
        .attach_shared(cache.tenant(namespace_key(cfg, binary_id)));
    p
}

#[test]
fn tenants_share_cold_translations_and_reheat() {
    let img = chain_image();
    let want = oracle(&img);
    let cfg = base_cfg();
    let cache = SharedCache::new(DEFAULT_SHARDS);

    // First tenant translates organically and publishes.
    let mut a = launch_tenant(&img, &cfg, &cache, 1);
    assert!(matches!(a.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&a), want, "first tenant must match oracle");
    assert!(a.engine.stats.shared_publishes > 0, "publishes expected");
    assert_eq!(a.engine.stats.shared_installs, 0, "nothing to import yet");
    a.engine.shared_sync(); // push the earned heat profile

    // Second tenant imports instead of re-translating.
    let mut b = launch_tenant(&img, &cfg, &cache, 1);
    assert!(matches!(b.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&b), want, "second tenant must match oracle");
    assert!(b.engine.stats.shared_installs > 0, "imports expected");
    assert!(
        b.engine.stats.cold_blocks < a.engine.stats.cold_blocks,
        "sharing must displace organic translation: {} vs {}",
        b.engine.stats.cold_blocks,
        a.engine.stats.cold_blocks
    );
    assert!(
        b.engine.stats.profile_heat_restored > 0,
        "synced profile must re-heat the importing tenant"
    );
    assert_eq!(cache.namespaces(), 1);
    assert!(cache.unique_eips() > 0);
}

#[test]
fn generation_bump_rejects_stale_entries() {
    let img = chain_image();
    let want = oracle(&img);
    let cfg = base_cfg();
    let cache = SharedCache::new(DEFAULT_SHARDS);
    let key = namespace_key(&cfg, 2);

    let mut a = launch_tenant(&img, &cfg, &cache, 2);
    assert!(matches!(a.run(u64::MAX / 2), Outcome::Halted(_)));
    assert!(a.engine.stats.shared_publishes > 0);

    // Every record is pulled — as after a peer's full cache flush.
    let ns = cache.namespace(key);
    let published = ns.unique_eips();
    assert!(published > 0);
    assert_eq!(ns.pull_all(), published);
    assert_eq!(ns.unique_eips(), 0, "every record is pulled");

    // Nothing is left to import; the tenant falls back to organic
    // translation and re-publishes.
    let mut b = launch_tenant(&img, &cfg, &cache, 2);
    assert!(matches!(b.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&b), want);
    assert_eq!(b.engine.stats.shared_installs, 0, "no pulled imports");
    assert!(b.engine.stats.shared_publishes > 0, "re-publish expected");

    // The re-published records serve the next tenant again.
    let mut c = launch_tenant(&img, &cfg, &cache, 2);
    assert!(matches!(c.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&c), want);
    assert!(c.engine.stats.shared_installs > 0, "sharing must resume");
}

#[test]
fn smc_invalidation_mid_run_stays_coherent() {
    let img = smc_loop_image(200);
    let want = oracle(&img);
    let cfg = Config {
        smc_thrash_threshold: 0, // governor off: pure invalidation churn
        ..base_cfg()
    };
    let cache = SharedCache::new(DEFAULT_SHARDS);

    // Two tenants of the same self-patching binary, interleaved on a
    // short quantum: each one's SMC invalidations land mid-run while
    // the other is dispatching into the same namespace.
    let mut sched = Scheduler::new(500, 2);
    for tag in 0..2 {
        sched.admit(tag, launch_tenant(&img, &cfg, &cache, 3), u64::MAX / 2);
    }
    sched.drain(100_000);
    let done = sched.take_completed();
    assert_eq!(done.len(), 2);

    let mut pulls = 0;
    for (tag, p, out) in &done {
        assert!(matches!(out, Outcome::Halted(_)), "tenant {tag}: {out:?}");
        assert_eq!(guest_result(p), want, "tenant {tag} must match oracle");
        assert!(p.engine.stats.smc_events > 0, "SMC must fire per tenant");
        pulls += p.engine.stats.shared_pulls;
    }
    assert!(pulls > 0, "SMC invalidations must pull shared records");
    assert!(
        sched.slices() > done.len() as u64,
        "the quantum must actually interleave the tenants"
    );
}

#[test]
fn eviction_pressure_keeps_peers_correct() {
    let img = chain_image();
    let want = oracle(&img);
    // A cache too small for the working set: translations are evicted
    // and re-made throughout the run, and every eviction must pull the
    // shared record.
    let cfg = Config {
        max_cache_bundles: 48,
        ..base_cfg()
    };
    let cache = SharedCache::new(DEFAULT_SHARDS);

    let mut a = launch_tenant(&img, &cfg, &cache, 4);
    assert!(matches!(a.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&a), want);
    assert!(a.engine.stats.evictions > 0, "pressure must evict");
    assert!(
        a.engine.stats.shared_pulls > 0,
        "evictions must invalidate the shared records"
    );

    // A peer under the same churn still resolves to the oracle result:
    // whatever mix of imports, rejects, and organic translation it
    // sees, no stale extent is ever executed.
    let mut b = launch_tenant(&img, &cfg, &cache, 4);
    assert!(matches!(b.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&b), want);
}

#[test]
fn governor_blacklist_denies_page_for_peers() {
    let img = smc_loop_image(40);
    let want = oracle(&img);
    let cfg = Config {
        smc_thrash_threshold: 2, // hair-trigger governor
        ..base_cfg()
    };
    let cache = SharedCache::new(DEFAULT_SHARDS);

    // The first tenant thrashes its code page until the governor
    // blacklists it — which must also deny the page namespace-wide.
    let mut a = launch_tenant(&img, &cfg, &cache, 5);
    assert!(matches!(a.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&a), want);
    assert!(a.engine.stats.smc_blacklists > 0, "governor must trip");
    assert!(a.engine.stats.shared_pulls > 0, "denial pulls the page");

    // A later tenant of the same binary is told not to import from the
    // page the guest keeps rewriting: consults are denied, nothing is
    // installed, and it still reaches the oracle result on its own.
    let mut b = launch_tenant(&img, &cfg, &cache, 5);
    assert!(matches!(b.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&b), want);
    assert!(b.engine.stats.shared_gen_rejects > 0, "denied consults");
    assert_eq!(b.engine.stats.shared_installs, 0, "denied page imports");
}

#[test]
fn same_key_different_bytes_is_checksum_rejected() {
    // Two different binaries forced into one namespace (a caller
    // passing the same binary id): the namespace offers the record,
    // but the per-record source checksum is the true gate.
    let img_a = variant_image(3, 0x1111);
    let img_b = variant_image(7, 0x2222);
    let cfg = base_cfg();
    let cache = SharedCache::new(DEFAULT_SHARDS);

    let mut a = launch_tenant(&img_a, &cfg, &cache, 6);
    assert!(matches!(a.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&a), oracle(&img_a));
    assert!(a.engine.stats.shared_publishes > 0);

    let mut b = launch_tenant(&img_b, &cfg, &cache, 6);
    assert!(matches!(b.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(
        guest_result(&b),
        oracle(&img_b),
        "foreign records must never change this tenant's result"
    );
    assert!(
        b.engine.stats.shared_stale_rejects > 0,
        "checksum mismatch must reject the foreign record"
    );
    // The loop tail (store + hlt) is byte-identical in both variants,
    // so importing it is legitimate — the gate is the source bytes,
    // not the caller-supplied id. Only the differing blocks matter.
    assert!(
        b.engine.stats.shared_installs < a.engine.stats.shared_publishes,
        "the differing blocks must not be imported"
    );
}

#[test]
fn seeded_fleets_are_byte_identical() {
    let img = chain_image();
    let want = oracle(&img);
    let fleet = || {
        let cfg = base_cfg();
        let cache = SharedCache::new(DEFAULT_SHARDS);
        let mut sched = Scheduler::new(700, 3);
        for tag in 0..6 {
            sched.admit(tag, launch_tenant(&img, &cfg, &cache, 7), u64::MAX / 2);
        }
        sched.drain(100_000);
        sched
            .take_completed()
            .into_iter()
            .map(|(tag, p, out)| {
                assert!(matches!(out, Outcome::Halted(_)));
                assert_eq!(guest_result(&p), want, "tenant {tag} matches oracle");
                (tag, p.engine.machine.cycles, p.engine.stats.clone())
            })
            .collect::<Vec<_>>()
    };
    let a = fleet();
    let b = fleet();
    assert_eq!(a.len(), 6);
    assert_eq!(
        a, b,
        "same fleet, same shared cache state, byte-identical stats"
    );
}
