//! Deterministic fault injection and the degradation-ladder policy.
//!
//! IA-32 EL was a production translator: the paper's machinery (SMC
//! detection, misalignment retraining, speculation with
//! recovery-and-retranslate, exception filtering) exists so the system
//! survives hostile guest behaviour. This module makes that robustness
//! *testable*: a seeded [`FaultPlan`] names the injection points the
//! engine consults at deterministic moments (dispatch boundaries,
//! translation entry, hot-session start), and the [`Blacklist`] holds
//! the re-promotion backoff policy the engine's degradation ladder
//! applies to repeat-offender blocks.
//!
//! Everything here is driven by the same xorshift64 generator as the
//! in-tree property/fuzz harness — no external dependencies, and a run
//! is byte-for-byte reproducible from its seed.

use crate::btos::BtOs;
use crate::engine::Engine;
use crate::layout::CORRUPT_SENTINEL;
use ipf::bundle::Bundle;
use ipf::inst::{Op, Target};
use ipf::machine::MachFault;
use std::collections::HashMap;

/// xorshift64 step (never yields 0 for a non-zero state) — the same
/// scheme as `tests/properties.rs` and the `hunt` fuzzer.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Number of engine-side fault kinds.
pub const NUM_KINDS: usize = 6;

/// A named injection point the engine consults.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum FaultKind {
    /// Transient translation failure (e.g. the guest code page faulted
    /// under the translator's reader): the block falls back to the
    /// `InterpStep` safety net for this entry.
    Translate = 0,
    /// Misalignment storm against a block: enough back-to-back
    /// misalignment faults to push it over the retrain/demote limit.
    MisalignStorm = 1,
    /// A self-modifying-code write landing on the current page mid-run:
    /// every translation on the page is invalidated.
    SmcInvalidate = 2,
    /// Bit-flip corruption of an installed arena extent (the victim's
    /// entry bundle is clobbered; see [`corrupt_block`]).
    BitFlip = 3,
    /// Hot-session budget exhaustion: the optimization session is
    /// aborted by the watchdog and the cold code kept.
    HotBudget = 4,
    /// An asynchronous signal raised against the guest (delivered
    /// through the OS layer's pending queue; the engine interrupts at
    /// the next commit point or state boundary).
    AsyncSignal = 5,
}

impl FaultKind {
    /// All kinds, indexed by discriminant.
    pub const ALL: [FaultKind; NUM_KINDS] = [
        FaultKind::Translate,
        FaultKind::MisalignStorm,
        FaultKind::SmcInvalidate,
        FaultKind::BitFlip,
        FaultKind::HotBudget,
        FaultKind::AsyncSignal,
    ];

    /// Short display name (figures output).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Translate => "xlate-fail",
            FaultKind::MisalignStorm => "misalign-storm",
            FaultKind::SmcInvalidate => "smc-write",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::HotBudget => "hot-budget",
            FaultKind::AsyncSignal => "async-signal",
        }
    }
}

/// A deterministic, seeded fault schedule.
///
/// Each injection point is consulted with [`FaultPlan::roll`] at
/// deterministic moments in the engine's control flow; the roll
/// advances the generator once, so the whole schedule is a pure
/// function of the seed and the (deterministic) consultation sequence.
/// Per-kind budgets bound the total damage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was built from (reporting).
    pub seed: u64,
    state: u64,
    /// Injection probability per consultation, in per-mille.
    rate: [u16; NUM_KINDS],
    /// Remaining injections per kind (decremented on injection).
    budget: [u32; NUM_KINDS],
    /// Injections delivered per kind.
    pub injected: [u64; NUM_KINDS],
    /// SimOs translator-allocation failures to arm (ENOMEM); consumed
    /// by the OS layer, not the engine.
    pub os_alloc_failures: u32,
    /// SimOs transient syscall failures to arm (EAGAIN); consumed by
    /// the OS layer, not the engine.
    pub os_syscall_failures: u32,
}

impl FaultPlan {
    /// An empty plan (no faults) over the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            rate: [0; NUM_KINDS],
            budget: [0; NUM_KINDS],
            injected: [0; NUM_KINDS],
            os_alloc_failures: 0,
            os_syscall_failures: 0,
        }
    }

    /// Arms one fault kind with a per-mille rate and an injection
    /// budget (builder style).
    #[must_use]
    pub fn with(mut self, kind: FaultKind, per_mille: u16, budget: u32) -> FaultPlan {
        self.rate[kind as usize] = per_mille;
        self.budget[kind as usize] = budget;
        self
    }

    /// Arms the SimOs-side failure counters (builder style).
    #[must_use]
    pub fn with_os_faults(mut self, allocs: u32, syscalls: u32) -> FaultPlan {
        self.os_alloc_failures = allocs;
        self.os_syscall_failures = syscalls;
        self
    }

    /// The full storm: every engine-side kind armed, plus SimOs
    /// allocation/syscall failures. The preset behind the `chaos` bench
    /// experiment and the CI fault-injection job.
    pub fn storm(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with(FaultKind::Translate, 150, 60)
            .with(FaultKind::MisalignStorm, 120, 45)
            .with(FaultKind::SmcInvalidate, 70, 25)
            .with(FaultKind::BitFlip, 50, 20)
            .with(FaultKind::HotBudget, 400, 8)
            .with(FaultKind::AsyncSignal, 40, 16)
            .with_os_faults(8, 4)
    }

    /// Consults one injection point: returns true when a fault should
    /// be injected here. Advances the generator once per armed
    /// consultation (unarmed kinds are free, keeping disjoint plans
    /// independent).
    pub fn roll(&mut self, kind: FaultKind) -> bool {
        let k = kind as usize;
        if self.rate[k] == 0 || self.budget[k] == 0 {
            return false;
        }
        if xorshift(&mut self.state) % 1000 < self.rate[k] as u64 {
            self.budget[k] -= 1;
            self.injected[k] += 1;
            return true;
        }
        false
    }

    /// Deterministically picks an index in `0..n` (victim selection).
    pub fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (xorshift(&mut self.state) % n as u64) as usize
    }

    /// Total injections delivered across all engine-side kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Number of kinds that delivered at least one injection.
    pub fn kinds_hit(&self) -> usize {
        self.injected.iter().filter(|&&n| n > 0).count()
    }
}

/// One blacklist record: strikes so far and the cycle until which
/// re-promotion is blocked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Strike {
    count: u32,
    until: u64,
}

/// The re-promotion blacklist with exponential backoff.
///
/// When the degradation ladder demotes a hot block (repeated faults,
/// failed speculation, corruption), its guest EIP is struck: the block
/// may not be re-promoted until `base_backoff << (strikes - 1)` cycles
/// of simulated time have passed (capped at `max_exponent` doublings).
/// The time base is the machine's deterministic cycle counter, so the
/// policy is exactly reproducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Blacklist {
    base_backoff: u64,
    max_exponent: u32,
    entries: HashMap<u32, Strike>,
}

impl Blacklist {
    /// A blacklist with the given base backoff (simulated cycles).
    pub fn new(base_backoff: u64) -> Blacklist {
        Blacklist {
            base_backoff: base_backoff.max(1),
            max_exponent: 10,
            entries: HashMap::new(),
        }
    }

    /// Records a demotion strike against `eip` at time `now`; returns
    /// the cycle until which the EIP is blocked. Each strike doubles
    /// the backoff (capped).
    pub fn strike(&mut self, eip: u32, now: u64) -> u64 {
        let e = self.entries.entry(eip).or_default();
        e.count += 1;
        let exp = (e.count - 1).min(self.max_exponent);
        e.until = now.saturating_add(self.base_backoff << exp);
        e.until
    }

    /// Is `eip` blocked from re-promotion at time `now`?
    pub fn is_blocked(&self, eip: u32, now: u64) -> bool {
        self.entries.get(&eip).is_some_and(|e| now < e.until)
    }

    /// Strikes recorded against `eip`.
    pub fn strikes(&self, eip: u32) -> u32 {
        self.entries.get(&eip).map_or(0, |e| e.count)
    }

    /// Number of EIPs ever struck.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no EIP was ever struck.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every key ever struck, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.keys().copied()
    }
}

/// Corrupts the latest generation of a block in place: its entry
/// bundle's first slot is clobbered into a branch to
/// [`CORRUPT_SENTINEL`] (an address that is neither arena nor stub).
///
/// This models a flipped cache line at block granularity. Detection has
/// two independent paths: verify-on-dispatch catches the checksum
/// mismatch before execution, and without it the corrupt entry exits to
/// a non-stub address, which the degradation ladder converts into
/// evict-and-retranslate instead of executing garbage.
///
/// Returns false when the block does not exist or is already evicted.
pub fn corrupt_block(engine: &mut Engine, id: u32) -> bool {
    let Some(b) = engine.blocks().get(id as usize) else {
        return false;
    };
    if b.evicted {
        return false;
    }
    let entry = b.range.0;
    engine.machine.arena.patch_slot(
        entry,
        0,
        Op::Br {
            target: Target::Abs(CORRUPT_SENTINEL),
        },
    );
    true
}

/// Delivers a synthetic misalignment fault against a non-memory slot of
/// block `id` — the arena-corruption case behind
/// `EngineError::MisalignResidue`. A real misalignment fault always
/// names a memory op (the machine raised it from one), so the residue
/// arm of the handler is reachable only when the arena was damaged
/// between fault and emulation; this probe is how the regression test
/// drives it without threads.
///
/// Returns true when the engine absorbed the fault through the
/// degradation ladder (no panic, recovery counted).
pub fn misalign_residue_probe(engine: &mut Engine, os: &mut dyn BtOs, id: u32) -> bool {
    let Some(b) = engine.blocks().get(id as usize) else {
        return false;
    };
    if b.evicted {
        return false;
    }
    let (start, end) = b.range;
    // Find an installed slot holding neither a memory op nor a branch.
    let mut site = None;
    let mut addr = start;
    'scan: while addr < end {
        if let Some(bu) = engine.machine.arena.bundle_at(addr) {
            for (s, slot) in bu.slots.iter().enumerate() {
                if !slot.op.is_mem() && !slot.op.is_branch() {
                    site = Some((addr, s as u8));
                    break 'scan;
                }
            }
        }
        addr += Bundle::SIZE;
    }
    let Some((ip, slot)) = site else {
        return false;
    };
    let before = engine.stats.ladder_recoveries;
    let _ = engine.handle_fault(
        os,
        MachFault::Misalign {
            addr: 1,
            size: 4,
            write: false,
        },
        ip,
        slot,
    );
    engine.stats.ladder_recoveries > before
}

/// How to damage an encoded warm-start image (see [`corrupt_image`]).
///
/// Deliberately *not* a [`FaultKind`]: images are corrupted offline,
/// between runs, not injected mid-run from a `FaultPlan` — and adding a
/// seventh in-run kind would perturb every seeded storm's fault
/// sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ImageFaultKind {
    /// Flip one byte inside the header: the image must be rejected
    /// wholesale (`Stats::image_rejects`), falling back to a fully
    /// cold run.
    Header,
    /// Cut the record stream short (always leaving a partial body):
    /// records past the cut are rejected individually and retranslated
    /// on demand.
    Truncate,
    /// Flip one record's stored *source* checksum, re-sealing the
    /// record trailer so it still parses: load-time source validation
    /// rejects just that extent while the rest of the image loads.
    StaleExtent,
}

/// Damages an encoded warm-start image in place, deterministically from
/// `seed` — the offline counterpart of the in-run fault plan, covering
/// the persistence layer's validation ladder. Returns `false` when the
/// buffer is too small to damage meaningfully (no header, or no
/// records to truncate/stale).
pub fn corrupt_image(bytes: &mut Vec<u8>, kind: ImageFaultKind, seed: u64) -> bool {
    let mut s = if seed == 0 { 0x9E37_79B9 } else { seed };
    let hdr = crate::persist::HEADER_LEN;
    match kind {
        ImageFaultKind::Header => {
            if bytes.len() < hdr {
                return false;
            }
            let at = (xorshift(&mut s) as usize) % hdr;
            bytes[at] ^= 1 << (xorshift(&mut s) % 8);
            true
        }
        ImageFaultKind::Truncate => {
            if bytes.len() <= hdr + 1 {
                return false;
            }
            // Keep the header plus a nonempty partial body, so the
            // damage exercises per-record rejection, not the wholesale
            // header path.
            let body = bytes.len() - hdr - 1;
            let keep = hdr + 1 + (xorshift(&mut s) as usize) % body;
            bytes.truncate(keep);
            true
        }
        ImageFaultKind::StaleExtent => {
            let nth = xorshift(&mut s) as usize;
            crate::persist::flip_extent_checksum(bytes, nth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let mut a = FaultPlan::storm(42);
        let mut b = FaultPlan::storm(42);
        for _ in 0..5000 {
            for k in FaultKind::ALL {
                assert_eq!(a.roll(k), b.roll(k));
            }
        }
        assert_eq!(a.injected, b.injected);
        assert!(a.total_injected() > 0, "storm must inject something");
    }

    #[test]
    fn budgets_bound_injections() {
        let mut p = FaultPlan::new(7).with(FaultKind::BitFlip, 1000, 3);
        let mut hits = 0;
        for _ in 0..100 {
            if p.roll(FaultKind::BitFlip) {
                hits += 1;
            }
        }
        assert_eq!(hits, 3, "budget caps injections");
        assert_eq!(p.injected[FaultKind::BitFlip as usize], 3);
    }

    #[test]
    fn blacklist_blocks_until_backoff_expires() {
        let mut bl = Blacklist::new(1000);
        let until = bl.strike(0x40_0000, 10_000);
        assert_eq!(until, 11_000);
        assert!(bl.is_blocked(0x40_0000, 10_000));
        assert!(bl.is_blocked(0x40_0000, 10_999));
        assert!(
            !bl.is_blocked(0x40_0000, 11_000),
            "re-promotion allowed once the backoff expires"
        );
        assert!(!bl.is_blocked(0x50_0000, 10_500), "other EIPs unaffected");
    }

    #[test]
    fn blacklist_backoff_is_exponential_and_capped() {
        let mut bl = Blacklist::new(100);
        assert_eq!(bl.strike(1, 0), 100);
        assert_eq!(bl.strike(1, 0), 200);
        assert_eq!(bl.strike(1, 0), 400);
        assert_eq!(bl.strikes(1), 3);
        for _ in 0..40 {
            bl.strike(1, 0);
        }
        assert_eq!(bl.strike(1, 0), 100 << 10, "backoff growth is capped");
    }
}
