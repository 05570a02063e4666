//! Address-space layout of the translator: translation cache, exit
//! stubs, and the profile-data region.
//!
//! IA-32 EL lives in the translated process's own (64-bit) address
//! space; the IA-32 application owns the low 4 GiB, and everything the
//! translator allocates sits above it.

use ia32::mem::GuestMem;

/// Base of the translation cache (code arena).
pub const TC_BASE: u64 = 0x8000_0000_0000;

/// Base of the exit-stub address range. Branching anywhere in
/// `[STUB_BASE, STUB_BASE + 16*NUM_STUBS)` leaves the arena and returns
/// control to the translator with the stub kind encoded in the address.
pub const STUB_BASE: u64 = 0xE000_0000_0000;

/// Sentinel branch target used by fault injection to model a corrupted
/// cache line: inside neither the arena nor the stub range, so a
/// clobbered bundle that branches here is caught by the engine's
/// degradation ladder instead of silently executing.
pub const CORRUPT_SENTINEL: u64 = 0xDEAD_0000_0000;

/// Base of the translator's profile-data region (counters, lookup
/// table), mapped as ordinary guest memory above 4 GiB.
pub const PROFILE_BASE: u64 = 0x1_0000_0000;

/// Size of the profile-data region.
pub const PROFILE_SIZE: u64 = 0x100_0000;

/// Base of the indirect-branch lookup table (inside the profile region).
pub const LOOKUP_BASE: u64 = PROFILE_BASE;

/// Total lookup-table entries (must be a power of 2).
pub const LOOKUP_ENTRIES: u64 = 4096;

/// Associativity of the lookup table.
pub const LOOKUP_WAYS: u64 = 2;

/// Number of 2-way sets.
pub const LOOKUP_SETS: u64 = LOOKUP_ENTRIES / LOOKUP_WAYS;

/// Bytes per lookup entry: `(eip: u64, target: u64)`.
pub const LOOKUP_ENTRY_SIZE: u64 = 16;

/// Key value marking a lookup-table entry empty. No guest EIP is
/// `u64::MAX`, so inline lookup code can never match an empty slot.
pub const LOOKUP_EMPTY_KEY: u64 = u64::MAX;

/// Base of the simulated return-address shadow stack (a 64-entry ring
/// of `(ret_eip: u64, target_entry: u64)` pairs), after the table.
pub const SHADOW_BASE: u64 = LOOKUP_BASE + LOOKUP_ENTRIES * LOOKUP_ENTRY_SIZE;

/// Shadow-stack ring depth (power of 2 so the emitted pop can mask).
pub const SHADOW_ENTRIES: u64 = 64;

/// Bytes per shadow entry: `(ret_eip: u64, target_entry: u64)`.
pub const SHADOW_ENTRY_SIZE: u64 = 16;

/// Top-of-stack ring index cell (one u64).
pub const SHADOW_TOS: u64 = SHADOW_BASE + SHADOW_ENTRIES * SHADOW_ENTRY_SIZE;

/// Memory cells bumped by emitted code on indirect events; harvested
/// into `Stats` by `Engine::collect_indirect_stats`. Kept adjacent to
/// `SHADOW_TOS` so the shadow pop sequence reaches them with one add.
pub const CELL_SHADOW_HITS: u64 = SHADOW_TOS + 8;
/// Shadow pops that found an empty (consumed or never-seeded) slot.
pub const CELL_SHADOW_UNDERFLOWS: u64 = SHADOW_TOS + 16;
/// Shadow pops whose recorded return EIP did not match the actual one.
pub const CELL_SHADOW_MISPREDICTS: u64 = SHADOW_TOS + 24;
/// Inline-cache misses (site fell through to the shared table probe).
pub const CELL_IC_MISSES: u64 = SHADOW_TOS + 32;
/// Hot-trace devirtualization guard failures (side exits taken).
pub const CELL_DEVIRT_FAILS: u64 = SHADOW_TOS + 40;

/// Base of the hot-phase register-allocator spill area: a small block
/// of always-mapped u64 slots the constraint-driven allocator spills
/// general registers to under pressure (`hot/regalloc.rs`).
pub const SPILL_BASE: u64 = SHADOW_TOS + 48;

/// Number of spill slots. Traces needing more stay cold.
pub const SPILL_SLOTS: u64 = 16;

/// Start of per-block profile slots (counters), after the lookup table,
/// shadow stack, event cells, and the spill area.
pub const COUNTERS_BASE: u64 = SPILL_BASE + SPILL_SLOTS * 8;

/// Whether `key` names a guest EIP in a prediction: a lookup-table way,
/// a shadow-stack entry or an inline cache. Empty-keyed entries and
/// zero keys (freshly mapped, never written) predict nothing.
pub(crate) fn is_live_key(key: u64) -> bool {
    key != LOOKUP_EMPTY_KEY && key != 0
}

/// One block's profile record: the slot the engine hands out per guest
/// EIP in the profile region, which the block's translations bump and
/// the hot phase, the warm-start image and the shared namespace read.
/// This type is the only code that knows the record's layout:
///
/// | offset | words | contents |
/// |-------:|------:|----------|
/// | 0      | 1     | use counter |
/// | 8      | 1     | taken-edge counter (also the hot exit counter) |
/// | 16     | 1     | fall-through-edge counter |
/// | 24     | 64    | one misalignment word per indexed access |
/// | 536    | 3     | inline-cache slot `(pred_eip, pred_entry, hits)` |
///
/// The inline-cache slot opens with a `(key, entry)` prediction pair
/// laid out like a lookup-table way, so the walks that purge or refresh
/// predictions treat both alike.
///
/// Records are handed out contiguously: the shared overflow record at
/// [`COUNTERS_BASE`] first, then one per EIP up to the allocation
/// cursor.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Profile(u64);

/// An indirect site's inline cache — its predicted EIP
/// ([`LOOKUP_EMPTY_KEY`] if never trained or emptied) and its hits —
/// read with the uses of the block it ends.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Site {
    pub pred: u64,
    pub hits: u64,
    pub uses: u64,
}

impl Site {
    /// Whether the site counts as monomorphic: its inline cache hit on
    /// at least half the block's executions. The single shared
    /// predicate for the devirtualization gate and the megamorphic
    /// checks, so the boundary `hits * 2 == uses` (exactly 50%) belongs
    /// to exactly one side: it *is* monomorphic — promoted by the gate,
    /// never demoted.
    pub fn is_monomorphic(&self) -> bool {
        self.hits.saturating_mul(2) >= self.uses
    }
}

/// The profile hints a record exports to a warm-start image or the
/// shared namespace: the use count, the edge counts and the inline
/// cache's prediction with its hits, the last three saturated to `u32`.
/// The prediction is 0 unless the site is trained and monomorphic — a
/// rotating site's last-seen target would only mistrain every importer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hints {
    pub heat: u64,
    pub edges: (u32, u32),
    pub ic_pred: u32,
    pub ic_hits: u32,
}

impl Profile {
    const USES: u64 = 0;
    const TAKEN: u64 = 8;
    const FALL: u64 = 16;
    const MISALIGN: u64 = 24;
    /// Misalignment words per record: the most indexed accesses a cold
    /// block may make. A further access would record into the
    /// inline-cache slot.
    pub(crate) const MISALIGN_WORDS: u16 = 64;
    const IC: u64 = Self::MISALIGN + Self::MISALIGN_WORDS as u64 * 8;
    const SIZE: u64 = Self::IC + 24;
    /// Offset of the hit counter within the inline-cache slot, for the
    /// emitted probe that bumps it.
    pub(crate) const IC_HITS: i64 = 16;

    /// The shared record of every EIP whose own could not be allocated
    /// (colliding counters cost profile quality, never correctness).
    pub(crate) const OVERFLOW: Profile = Profile(COUNTERS_BASE);

    /// The record's first byte.
    pub(crate) fn base(self) -> u64 {
        self.0
    }

    /// The record following this one.
    pub(crate) fn next(self) -> Profile {
        Profile(self.0 + Self::SIZE)
    }

    /// Every record handed out before `cursor`, the next free one: the
    /// overflow record first, then in allocation order.
    pub(crate) fn handed_out(cursor: Profile) -> impl Iterator<Item = Profile> {
        (COUNTERS_BASE..cursor.0)
            .step_by(Self::SIZE as usize)
            .map(Profile)
    }

    /// Whether this is a record [`Profile::handed_out`] yields.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn is_handed_out(self, cursor: Profile) -> bool {
        let at = self.0.checked_sub(COUNTERS_BASE);
        at.is_some_and(|at| at % Self::SIZE == 0) && self.0 < cursor.0
    }

    /// Address of the use counter.
    pub(crate) fn uses_addr(self) -> u64 {
        self.0 + Self::USES
    }

    /// Address of the taken-edge counter of a conditional exit.
    pub(crate) fn taken_addr(self) -> u64 {
        self.0 + Self::TAKEN
    }

    /// Address of the fall-through-edge counter.
    pub(crate) fn fall_addr(self) -> u64 {
        self.0 + Self::FALL
    }

    /// Address of the hot exit counter a trace's side exits bump. It is
    /// the same word as [`Profile::taken_addr`]: a promoted block's
    /// taken count is its cold taken edges plus its hot side exits.
    pub(crate) fn hot_exits_addr(self) -> u64 {
        self.taken_addr()
    }

    /// Address of the misalignment word of indexed access `i`.
    pub(crate) fn misalign_addr(self, i: u16) -> u64 {
        self.0 + Self::MISALIGN + i as u64 * 8
    }

    /// Address of the inline-cache slot.
    pub(crate) fn ic_addr(self) -> u64 {
        self.0 + Self::IC
    }

    /// Address of the inline cache's hit counter.
    pub(crate) fn ic_hits_addr(self) -> u64 {
        self.ic_addr() + Self::IC_HITS as u64
    }

    /// The inline-cache site with the block's uses: the one reading
    /// every gate on a site's stability goes through.
    pub(crate) fn site(self, mem: &GuestMem) -> Site {
        let word = |addr: u64| mem.read(addr, 8).unwrap_or(0);
        Site {
            pred: mem.read(self.ic_addr(), 8).unwrap_or(LOOKUP_EMPTY_KEY),
            hits: word(self.ic_hits_addr()),
            uses: word(self.uses_addr()),
        }
    }

    /// The hints this record exports: its heat, saturated edges, and
    /// the site's prediction if it is trained and monomorphic.
    pub(crate) fn hints(self, mem: &GuestMem) -> Hints {
        let sat = |addr: u64| mem.read(addr, 8).unwrap_or(0).min(u32::MAX as u64) as u32;
        let site = self.site(mem);
        let (ic_pred, ic_hits) = match is_live_key(site.pred) && site.is_monomorphic() {
            true => (site.pred as u32, site.hits.min(u32::MAX as u64) as u32),
            false => (0, 0),
        };
        Hints {
            heat: site.uses,
            edges: (sat(self.taken_addr()), sat(self.fall_addr())),
            ic_pred,
            ic_hits,
        }
    }

    /// Max-merges restored heat and edge counts into the record, so a
    /// restore never lowers what this process already counted.
    pub(crate) fn merge_counts(self, mem: &mut GuestMem, heat: u64, edges: (u32, u32)) {
        for (addr, v) in [
            (self.uses_addr(), heat),
            (self.taken_addr(), edges.0 as u64),
            (self.fall_addr(), edges.1 as u64),
        ] {
            let cur = mem.read(addr, 8).unwrap_or(0);
            let _ = mem.write(addr, 8, cur.max(v));
        }
    }

    /// Trains the inline cache to `pred` at `entry`, max-merging its
    /// hit count with `hits`.
    pub(crate) fn merge_site(self, mem: &mut GuestMem, pred: u32, entry: u64, hits: u32) {
        let cur = mem.read(self.ic_hits_addr(), 8).unwrap_or(0);
        let _ = mem.write(self.ic_addr(), 8, pred as u64);
        let _ = mem.write(self.ic_addr() + 8, 8, entry);
        let _ = mem.write(self.ic_hits_addr(), 8, cur.max(hits as u64));
    }
}

/// Tag bit in the `IndirectMiss` payload1 marking a shadow-stack pop
/// miss: the low 32 bits then carry the *ret block's* id (not an
/// inline-cache slot address), so the dispatcher can count per-block
/// pop misses and demote chronically mispredicting ret blocks back to
/// a plain table probe. Bit 62 cannot collide with a slot address
/// (profile memory sits far below 2^62).
pub const RET_MISS_TAG: u64 = 1 << 62;

/// Why translated code exited to the translator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum StubKind {
    /// Guest executed `HLT` (bare-metal exit).
    Exit = 0,
    /// Guest executed `INT n`; payload0 = vector, state register = next EIP.
    Syscall = 1,
    /// Direct branch to a not-yet-translated EIP; payload0 = target EIP.
    Untranslated = 2,
    /// Indirect branch missed the lookup table; payload0 = target EIP.
    IndirectMiss = 3,
    /// A block's use counter hit the heating threshold; payload0 = block id.
    Heat = 4,
    /// Stage-1 misalignment probe fired; payload0 = block id.
    MisalignRetrain = 5,
    /// Self-modifying-code prologue check failed; payload0 = block id.
    SmcFail = 6,
    /// FP TOS speculation check failed; payload0 = block id.
    TosFix = 7,
    /// FP tag-word speculation check failed; payload0 = block id.
    TagFix = 8,
    /// FP/MMX aliasing-mode check failed; payload0 = block id.
    MmxFix = 9,
    /// XMM format check failed; payload0 = block id.
    XmmFix = 10,
    /// Integer divide by zero detected; state register = faulting EIP.
    DivZero = 11,
    /// x87 stack fault detected; state register = faulting EIP.
    FpStackFault = 12,
    /// Hot-code `chk.s` failed: deoptimize; payload0 = block id,
    /// payload1 = recovery index.
    Deopt = 13,
    /// Rare slow path: single-step this instruction in the reference
    /// interpreter (64/32 divides, pop-to-memory, …); state register
    /// holds the instruction's EIP.
    InterpStep = 14,
    /// `UD2` or an undecodable instruction: raise `#UD`.
    InvalidOp = 15,
    /// An invalidated block's entry was patched to this stub: the engine
    /// re-dispatches by mapping the branching bundle back to its block.
    Reenter = 16,
}

impl StubKind {
    /// All kinds, indexed by discriminant.
    pub const ALL: [StubKind; 17] = [
        StubKind::Exit,
        StubKind::Syscall,
        StubKind::Untranslated,
        StubKind::IndirectMiss,
        StubKind::Heat,
        StubKind::MisalignRetrain,
        StubKind::SmcFail,
        StubKind::TosFix,
        StubKind::TagFix,
        StubKind::MmxFix,
        StubKind::XmmFix,
        StubKind::DivZero,
        StubKind::FpStackFault,
        StubKind::Deopt,
        StubKind::InterpStep,
        StubKind::InvalidOp,
        StubKind::Reenter,
    ];

    /// The stub address for this kind.
    pub fn addr(self) -> u64 {
        STUB_BASE + (self as u64) * 16
    }

    /// Decodes a stub address back to its kind.
    pub fn from_addr(addr: u64) -> Option<StubKind> {
        if !(STUB_BASE..STUB_BASE + Self::ALL.len() as u64 * 16).contains(&addr) {
            return None;
        }
        if !addr.is_multiple_of(16) {
            return None;
        }
        Some(Self::ALL[((addr - STUB_BASE) / 16) as usize])
    }
}

/// Cycle-attribution region ids used for Figures 6/7.
pub mod region {
    /// Dispatch / engine bookkeeping / fix-up time ("other").
    pub const OTHER: u32 = 0;
    /// Cold translated code.
    pub const COLD: u32 = 1;
    /// Hot translated code.
    pub const HOT: u32 = 2;
    /// Translation work itself (charged synthetically; "overhead").
    pub const OVERHEAD: u32 = 3;
    /// Native (untranslated) code: OS kernel / drivers in the Sysmark
    /// model.
    pub const NATIVE: u32 = 4;
    /// Idle time (Sysmark model).
    pub const IDLE: u32 = 5;
}

/// Set index for `eip` in the 2-way table. XOR-folding the high bits
/// in keeps targets 2^14 bytes apart (common for page- or
/// table-aligned function pointers) from aliasing, which a plain
/// `eip >> 2` index would.
pub fn lookup_hash(eip: u32) -> u64 {
    let e = eip as u64;
    (e ^ (e >> 12)) & (LOOKUP_SETS - 1)
}

/// The address of way 0 of the lookup set for `eip` (way 1 is at
/// `+LOOKUP_ENTRY_SIZE`).
pub fn lookup_slot(eip: u32) -> u64 {
    LOOKUP_BASE + lookup_hash(eip) * LOOKUP_WAYS * LOOKUP_ENTRY_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the gate/demotion boundary: the devirt gate
    /// used `hits*2 > uses` while megamorphic demotion used
    /// `hits*2 < uses`, so a site at exactly 50% was neither promoted
    /// nor demoted and re-attempted promotion forever. The shared
    /// predicate assigns the boundary to the monomorphic side.
    #[test]
    fn monomorphic_boundary_is_promoted_not_demoted() {
        let site_is_monomorphic = |hits, uses| {
            let pred = 0x40_1000;
            Site { pred, hits, uses }.is_monomorphic()
        };
        // Exactly 50%: monomorphic (promoted by the devirt gate, and
        // `maybe_demote_megamorphic` must leave it alone).
        assert!(site_is_monomorphic(8, 16));
        assert!(site_is_monomorphic(1, 2));
        // Strictly above and below.
        assert!(site_is_monomorphic(9, 16));
        assert!(!site_is_monomorphic(7, 16));
        // A site never probed (cold call site warming up) counts as
        // monomorphic: no evidence of polymorphism yet.
        assert!(site_is_monomorphic(0, 0));
        // The multiply saturates instead of wrapping to a false
        // "megamorphic" verdict.
        assert!(site_is_monomorphic(u64::MAX, u64::MAX));
    }

    /// The exported hints at their boundaries, each read through a real
    /// record in guest memory.
    #[test]
    fn hints_export_only_trained_monomorphic_sites_and_saturate() {
        let p = Profile::OVERFLOW.next();
        assert!(p.next().base() <= PROFILE_BASE + 0x2_0000);
        let hints = |uses: u64, edges: (u64, u64), pred: u64, hits: u64| {
            let mut mem = GuestMem::new();
            mem.map(PROFILE_BASE, 0x2_0000, ia32::mem::Prot::rw());
            mem.write(p.uses_addr(), 8, uses).unwrap();
            mem.write(p.taken_addr(), 8, edges.0).unwrap();
            mem.write(p.fall_addr(), 8, edges.1).unwrap();
            mem.write(p.ic_addr(), 8, pred).unwrap();
            mem.write(p.ic_hits_addr(), 8, hits).unwrap();
            assert_eq!(p.site(&mem).hits, hits);
            let h = p.hints(&mem);
            (h.heat, h.edges, h.ic_pred, h.ic_hits)
        };
        let pred = 0x40_1000;
        // An emptied or never-trained site exports no prediction.
        assert_eq!(hints(16, (3, 4), LOOKUP_EMPTY_KEY, 16), (16, (3, 4), 0, 0));
        assert_eq!(hints(16, (3, 4), 0, 16), (16, (3, 4), 0, 0));
        // Exactly half the uses hit: monomorphic, exported.
        assert_eq!(hints(16, (3, 4), pred, 8), (16, (3, 4), 0x40_1000, 8));
        // Fewer: megamorphic, not exported.
        assert_eq!(hints(16, (3, 4), pred, 7), (16, (3, 4), 0, 0));
        // Edges and hits past `u32::MAX` saturate; heat does not.
        let big = u32::MAX as u64 + 5;
        assert_eq!(
            hints(big, (big, big + 1), pred, big),
            (big, (u32::MAX, u32::MAX), 0x40_1000, u32::MAX)
        );
    }

    #[test]
    fn records_are_handed_out_contiguously_after_the_overflow_record() {
        let cursor = Profile::OVERFLOW.next().next().next();
        let all: Vec<Profile> = Profile::handed_out(cursor).collect();
        assert_eq!(
            all,
            [
                Profile::OVERFLOW,
                Profile::OVERFLOW.next(),
                Profile::OVERFLOW.next().next()
            ]
        );
        assert!(all.iter().all(|p| p.is_handed_out(cursor)));
        assert!(!cursor.is_handed_out(cursor));
        assert!(!Profile(Profile::OVERFLOW.next().base() + 8).is_handed_out(cursor));
        // The last misalignment word ends where the inline cache starts.
        let p = Profile::OVERFLOW.next();
        assert_eq!(p.misalign_addr(Profile::MISALIGN_WORDS), p.ic_addr());
        assert_eq!(p.hot_exits_addr(), p.taken_addr());
        assert!(p.next().base() <= PROFILE_BASE + PROFILE_SIZE);
    }

    #[test]
    fn stub_addr_roundtrip() {
        for k in StubKind::ALL {
            assert_eq!(StubKind::from_addr(k.addr()), Some(k));
        }
        assert_eq!(StubKind::from_addr(STUB_BASE - 16), None);
        assert_eq!(StubKind::from_addr(STUB_BASE + 17 * 16), None);
        assert_eq!(StubKind::from_addr(STUB_BASE + 8), None);
    }

    #[test]
    fn lookup_slots_in_region() {
        // The probe's footprint (a whole set) must stay inside the
        // table.
        for eip in [0u32, 4, 0x40_0000, 0xFFFF_FFFF] {
            let s = lookup_slot(eip);
            assert!(s >= LOOKUP_BASE);
            assert!(s + LOOKUP_WAYS * LOOKUP_ENTRY_SIZE <= SHADOW_BASE);
            assert_eq!(s % 16, 0);
        }
    }

    #[test]
    fn lookup_hash_mixes_high_bits() {
        // A plain `>> 2` index over 4096 entries aliases addresses
        // exactly 16 KiB apart; the mixed hash must separate them.
        let (a, b) = (0x40_1000u32, 0x40_1000 + (1 << 14));
        assert_ne!(lookup_slot(a), lookup_slot(b));
    }

    #[test]
    fn shadow_region_disjoint_from_table_and_counters() {
        const { assert!(SHADOW_BASE >= LOOKUP_BASE + LOOKUP_SETS * LOOKUP_WAYS * LOOKUP_ENTRY_SIZE) };
        const { assert!(SHADOW_TOS == SHADOW_BASE + SHADOW_ENTRIES * SHADOW_ENTRY_SIZE) };
        const { assert!(COUNTERS_BASE > CELL_DEVIRT_FAILS) };
        const { assert!(COUNTERS_BASE < PROFILE_BASE + PROFILE_SIZE) };
    }

    #[test]
    fn regions_disjoint() {
        const { assert!(TC_BASE > PROFILE_BASE + PROFILE_SIZE) };
        const { assert!(STUB_BASE > TC_BASE) };
    }
}
