//! Warm start end-to-end: a cold run saves a translation image, a
//! warm run loads it and must produce the same guest-visible result
//! as the interpreter oracle — including when the image on disk is
//! corrupted, truncated, stale, or built under a different codegen
//! configuration. A damaged image may cost performance, never
//! correctness, and never a panic.

use std::path::{Path, PathBuf};

use btgeneric::chaos::{corrupt_image, ImageFaultKind};
use btgeneric::engine::{Config, Outcome};
use btlib::{Process, SimOs};
use ia32::asm::{Asm, Image};
use ia32::inst::{Addr, AluOp};
use ia32::regs::*;
use ia32::Cond;
use ia32el::testkit::{run_interp, RunEnd};

const DATA: u32 = 0x50_0000;
const ENTRY: u32 = 0x40_0000;

/// An outer loop over a chain of tiny blocks: enough distinct blocks
/// that per-extent rejection (one bad record among many good ones) is
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

fn oracle(img: &Image) -> u64 {
    let r = run_interp(img, 50_000_000);
    assert_eq!(r.end, RunEnd::Halt, "oracle must halt");
    r.mem.read(DATA as u64, 4).unwrap()
}

fn guest_result(p: &Process<SimOs>) -> u64 {
    p.engine.mem.read(DATA as u64, 4).unwrap()
}

/// Per-test scratch path so parallel tests never share an image file.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ia32el_persist_{}_{name}.img", std::process::id()))
}

fn base_cfg() -> Config {
    Config {
        heat_threshold: 64,
        hot_candidates: 2,
        ..Config::default()
    }
}

/// Cold run that writes an image to `path` and returns its result.
fn save_run(img: &Image, path: &Path) -> u64 {
    let cfg = Config {
        save_image: Some(path.to_path_buf()),
        ..base_cfg()
    };
    let mut p = Process::launch_with(img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(p.run(u64::MAX / 2), Outcome::Halted(_)));
    assert!(p.engine.stats.image_saves > 0, "autosave must fire");
    assert!(
        p.engine.stats.image_blocks_saved > 0,
        "image must be non-empty"
    );
    guest_result(&p)
}

/// Warm run against whatever is on disk at `path`; returns the
/// finished process for counter inspection.
fn warm_run(img: &Image, path: &Path) -> Process<SimOs> {
    let cfg = Config {
        load_image: Some(path.to_path_buf()),
        ..base_cfg()
    };
    let mut p = Process::launch_with(img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(p.run(u64::MAX / 2), Outcome::Halted(_)));
    p
}

#[test]
fn save_load_roundtrip_matches_oracle() {
    let img = chain_image();
    let want = oracle(&img);
    let path = scratch("roundtrip");

    let cold = save_run(&img, &path);
    assert_eq!(cold, want, "cold run must match oracle");

    let warm = warm_run(&img, &path);
    assert_eq!(guest_result(&warm), want, "warm run must match oracle");
    assert!(
        warm.engine.stats.image_blocks_loaded > 0,
        "image must be used"
    );
    assert_eq!(warm.engine.stats.image_rejects, 0);
    assert_eq!(warm.engine.stats.image_blocks_rejected, 0);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_runs_are_deterministic() {
    let img = chain_image();
    let path = scratch("determinism");
    save_run(&img, &path);

    let a = warm_run(&img, &path);
    let b = warm_run(&img, &path);
    assert_eq!(
        a.engine.stats, b.engine.stats,
        "two warm runs from the same image must be bit-identical"
    );
    assert_eq!(a.engine.machine.cycles, b.engine.machine.cycles);

    let _ = std::fs::remove_file(&path);
}

/// Damages the saved image with `kind`, reruns warm, and checks the
/// run completes with the oracle result. Returns the finished process
/// so callers can assert the counter shape for their fault.
fn damaged_run(kind: ImageFaultKind, tag: &str) -> Process<SimOs> {
    let img = chain_image();
    let want = oracle(&img);
    let path = scratch(tag);
    save_run(&img, &path);

    let mut bytes = std::fs::read(&path).expect("image readable");
    assert!(corrupt_image(&mut bytes, kind, 0x5EED), "fault must apply");
    std::fs::write(&path, &bytes).expect("image writable");

    let warm = warm_run(&img, &path);
    assert_eq!(
        guest_result(&warm),
        want,
        "{tag}: damaged image must not change the guest result"
    );
    let _ = std::fs::remove_file(&path);
    warm
}

#[test]
fn corrupted_header_rejects_wholesale() {
    let p = damaged_run(ImageFaultKind::Header, "header");
    assert!(
        p.engine.stats.image_rejects > 0,
        "wholesale reject expected"
    );
    assert_eq!(p.engine.stats.image_blocks_loaded, 0);
}

#[test]
fn truncated_body_rejects_missing_records() {
    let p = damaged_run(ImageFaultKind::Truncate, "truncate");
    assert_eq!(p.engine.stats.image_rejects, 0, "header is intact");
    assert!(
        p.engine.stats.image_blocks_rejected > 0,
        "cut-off records must be counted as rejected"
    );
}

#[test]
fn stale_extent_checksum_retranslates_only_that_extent() {
    let p = damaged_run(ImageFaultKind::StaleExtent, "stale");
    assert_eq!(p.engine.stats.image_rejects, 0, "header is intact");
    assert!(
        p.engine.stats.image_blocks_rejected >= 1,
        "the stale extent must be rejected"
    );
    assert!(
        p.engine.stats.image_blocks_loaded >= 1,
        "the other extents must still load"
    );
}

#[test]
fn config_fingerprint_mismatch_rejects_wholesale() {
    let img = chain_image();
    let want = oracle(&img);
    let path = scratch("fingerprint");

    // Save under one code shape...
    let cfg = Config {
        save_image: Some(path.clone()),
        ..base_cfg()
    };
    let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(p.run(u64::MAX / 2), Outcome::Halted(_)));
    assert!(p.engine.stats.image_saves > 0);

    // ...load under another: the image must be refused wholesale.
    let mut cfg = Config {
        load_image: Some(path.clone()),
        ..base_cfg()
    };
    cfg.features.fusion = false;
    let mut p = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(p.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want);
    assert!(
        p.engine.stats.image_rejects > 0,
        "fingerprint must gate the load"
    );
    assert_eq!(p.engine.stats.image_blocks_loaded, 0);

    let _ = std::fs::remove_file(&path);
}

/// The four ablation knobs moved from separate `Config` fields into
/// one `Features` value without changing a fingerprint: images saved
/// by builds with the separate fields still load. Pinned for the
/// default configuration and for each knob off alone (the values
/// follow `persist::VERSION` and the layout constants too, so a change
/// to either must update them).
#[test]
fn fingerprints_survive_the_features_regrouping() {
    use btgeneric::features::Features;
    use btgeneric::persist::fingerprint;

    assert_eq!(fingerprint(&Config::default()), 0xcbe1_91c2_99e1_4f05);
    let pinned = [
        ("no-flag-liveness", 0x5a90_11ca_e64c_d12c),
        ("no-fusion", 0xc33e_e0c2_94ff_1346),
        ("no-misalign-avoidance", 0xcbe4_f5c2_99e4_2ec8),
        ("no-fp-spec", 0xcbe1_90c2_99e1_4d52),
    ];
    for ((knob, features), (name, want)) in Features::ablations().into_iter().zip(pinned) {
        assert_eq!(knob, name);
        let cfg = Config {
            features,
            ..Config::default()
        };
        assert_eq!(fingerprint(&cfg), want, "{knob}");
    }
}

/// Images written by builds that still had the indirect-acceleration
/// and learned-superinstruction switches hashed seven codegen flag
/// bytes into their fingerprint (the two sat after the FP speculation
/// flag, in that order); this build hashes five. Those builds also wrote format
/// version 3, whose header counts a mined-idiom section (13 bytes an
/// idiom plus an FNV trailer) that sits before the records. An
/// otherwise intact image carrying the old fingerprint, or stamped
/// version 3 with or without such a section, must be refused wholesale,
/// and the run must still be right.
#[test]
fn image_with_the_old_seven_flag_fingerprint_is_rejected_wholesale() {
    use btgeneric::persist::ImageError;
    use btgeneric::{layout, persist};

    let img = chain_image();
    let want = oracle(&img);
    let path = scratch("old_fingerprint");
    save_run(&img, &path);

    let cfg = base_cfg();
    let mut recipe = Vec::new();
    recipe.extend_from_slice(&persist::VERSION.to_le_bytes());
    for c in [
        layout::TC_BASE,
        layout::STUB_BASE,
        layout::LOOKUP_BASE,
        layout::SHADOW_BASE,
        layout::COUNTERS_BASE,
        layout::PROFILE_BASE,
    ] {
        recipe.extend_from_slice(&c.to_le_bytes());
    }
    recipe.extend_from_slice(&cfg.heat_threshold.to_le_bytes());
    let new_flags = [
        cfg.features.flag_liveness,
        cfg.features.fusion,
        cfg.features.misalign_avoidance,
        cfg.features.fp_spec,
    ];
    let mut new_recipe = recipe.clone();
    new_recipe.extend(new_flags.map(u8::from));
    let ours = persist::fingerprint(&cfg);
    assert_eq!(
        persist::fnv64(&new_recipe),
        ours,
        "this test must track the live fingerprint recipe"
    );
    // The three deleted switches, at their defaults.
    let mut old_flags = vec![true];
    old_flags.extend(new_flags);
    old_flags.extend([true, false]);
    recipe.extend(old_flags.into_iter().map(u8::from));
    let old_fingerprint = persist::fnv64(&recipe);

    let saved = std::fs::read(&path).expect("saved image");
    // Re-stamp the saved image as an old build would have written it,
    // re-sealing the header FNV (over 0..32, at 32..40) each time.
    let reseal = |bytes: &mut [u8]| {
        let seal = persist::fnv64(&bytes[0..32]);
        bytes[32..40].copy_from_slice(&seal.to_le_bytes());
    };
    let mut old_recipe = saved.clone();
    old_recipe[16..24].copy_from_slice(&old_fingerprint.to_le_bytes());
    reseal(&mut old_recipe);
    let mut v3 = saved.clone();
    v3[8..12].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut v3);
    let mut v3_idioms = v3.clone();
    v3_idioms[24..26].copy_from_slice(&2u16.to_le_bytes());
    let section = [0x5A; 2 * 13];
    let mut tail = section.to_vec();
    tail.extend_from_slice(&persist::fnv64(&section).to_le_bytes());
    v3_idioms.splice(persist::HEADER_LEN..persist::HEADER_LEN, tail);
    reseal(&mut v3_idioms);

    for (what, bytes, refusal) in [
        (
            "seven-flag fingerprint",
            old_recipe,
            ImageError::FingerprintMismatch {
                image: old_fingerprint,
                ours,
            },
        ),
        ("version 3", v3, ImageError::BadVersion(3)),
        (
            "version 3 with an idiom section",
            v3_idioms,
            ImageError::BadVersion(3),
        ),
    ] {
        assert_eq!(persist::decode(&bytes, ours), Err(refusal), "{what}");
        std::fs::write(&path, &bytes).expect("write re-stamped image");
        let warm = warm_run(&img, &path);
        assert_eq!(guest_result(&warm), want, "{what}");
        assert!(
            warm.engine.stats.image_rejects > 0,
            "{what} must gate the load"
        );
        assert_eq!(warm.engine.stats.image_blocks_loaded, 0, "{what}");
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_image_is_a_clean_miss() {
    let img = chain_image();
    let want = oracle(&img);
    let path = scratch("missing");
    let _ = std::fs::remove_file(&path);

    let warm = warm_run(&img, &path);
    assert_eq!(guest_result(&warm), want);
    assert!(
        warm.engine.stats.image_rejects > 0,
        "unreadable image counts as a reject"
    );
    assert_eq!(warm.engine.stats.image_blocks_loaded, 0);
}

/// A hot loop around a monomorphic indirect call: enough iterations to
/// cross `base_cfg`'s heat threshold and train the call site's inline
/// cache, so the saved image carries both heat counters and an IC hint.
fn hot_indirect_image() -> Image {
    let mut a = Asm::new(ENTRY);
    a.mov_ri(EAX, 0);
    a.mov_ri(ECX, 400);
    a.mov_ri(EBX, 0x40_1000);
    let top = a.label();
    a.bind(top);
    a.call_r(EBX);
    a.alu_ri(AluOp::Xor, EAX, 0x0F0F);
    a.dec(ECX);
    a.jcc(Cond::Ne, top);
    a.mov_store(Addr::abs(DATA), EAX);
    a.hlt();
    while a.here() < 0x40_1000 {
        a.nop();
    }
    a.alu_ri(AluOp::Add, EAX, 5);
    a.ret();
    Image::from_asm(&a).with_bss(DATA, 0x1_0000)
}

#[test]
fn warm_boot_restores_profile_and_reheats() {
    let img = hot_indirect_image();
    let want = oracle(&img);
    let path = scratch("profile");

    // Cold run: profiles from zero, promotes, and saves heat counters
    // plus the monomorphic IC hint alongside the translations.
    let cfg = Config {
        save_image: Some(path.clone()),
        ..base_cfg()
    };
    let mut cold = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(cold.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&cold), want, "cold run must match oracle");
    assert!(
        cold.engine.stats.hot_traces > 0,
        "workload must heat in the cold run"
    );

    // Warm run: the profile rides back in with the image...
    let warm = warm_run(&img, &path);
    assert_eq!(guest_result(&warm), want, "warm run must match oracle");
    assert!(warm.engine.stats.image_blocks_loaded > 0);
    assert!(
        warm.engine.stats.profile_heat_restored > 0,
        "saved heat counters must be written back into profile slots"
    );
    assert!(
        warm.engine.stats.profile_ic_restored > 0,
        "the monomorphic call site's IC hint must be re-trained"
    );
    // ...so the warm boot re-heats: promotion resumes from the saved
    // counters and the run is strictly cheaper than profiling and
    // translating from scratch.
    assert!(
        warm.engine.stats.hot_traces > 0,
        "warm boot must still reach the hot phase"
    );
    assert!(
        warm.engine.machine.cycles < cold.engine.machine.cycles,
        "warm start with a restored profile must beat the cold run \
         (warm {} vs cold {})",
        warm.engine.machine.cycles,
        cold.engine.machine.cycles
    );

    // With restore_profiles off the translations still load, but the
    // profile starts from zero: no heat write-back, no IC re-training.
    let cfg = Config {
        load_image: Some(path.clone()),
        restore_profiles: false,
        ..base_cfg()
    };
    let mut flat = Process::launch_with(&img, SimOs::new(), cfg).expect("launch");
    assert!(matches!(flat.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&flat), want, "gated run must match oracle");
    assert!(flat.engine.stats.image_blocks_loaded > 0);
    assert_eq!(
        flat.engine.stats.profile_heat_restored, 0,
        "restore_profiles: false must suppress heat write-back"
    );
    assert_eq!(
        flat.engine.stats.profile_ic_restored, 0,
        "restore_profiles: false must suppress IC hint re-training"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn pretranslation_covers_the_static_cfg() {
    let img = chain_image();
    let want = oracle(&img);
    let mut p = Process::launch_with(&img, SimOs::new(), base_cfg()).expect("launch");
    let entry = p.cpu.eip;
    let translated = btgeneric::persist::pretranslate(&mut p.engine, &mut p.os, entry);
    assert!(
        translated > 0,
        "the static walk must translate ahead of execution"
    );
    assert!(matches!(p.run(u64::MAX / 2), Outcome::Halted(_)));
    assert_eq!(guest_result(&p), want);
}
