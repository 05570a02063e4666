//! Address-space layout of the translator: translation cache, exit
//! stubs, and the profile-data region.
//!
//! IA-32 EL lives in the translated process's own (64-bit) address
//! space; the IA-32 application owns the low 4 GiB, and everything the
//! translator allocates sits above it.

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
