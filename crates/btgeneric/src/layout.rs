//! Address-space layout of the translator: translation cache, exit
//! stubs, and the profile-data region.
//!
//! IA-32 EL lives in the translated process's own (64-bit) address
//! space; the IA-32 application owns the low 4 GiB, and everything the
//! translator allocates sits above it.

use crate::state::{GR_PAYLOAD0, GR_PAYLOAD1};
use crate::templates::Sink;
use ia32::mem::GuestMem;
use ipf::inst::{CmpRel, Op, ShiftKind, Src, Target};
use ipf::regs::{Br, Gr, Pr, P0, R0};

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

/// Base of the hot-phase register-allocator spill area: a small block
/// of always-mapped u64 slots the constraint-driven allocator spills
/// general registers to under pressure (`hot/regalloc.rs`).
///
/// The 40 bytes after the ring's top-of-stack word stay unused, so that
/// [`COUNTERS_BASE`], which warm-start images fingerprint, does not
/// move.
pub const SPILL_BASE: u64 = SHADOW_TOS + 48;

/// Number of spill slots. Traces needing more stay cold.
pub const SPILL_SLOTS: u64 = 16;

/// Start of per-block profile slots (counters), after the lookup table,
/// shadow stack and the spill area.
pub const COUNTERS_BASE: u64 = SPILL_BASE + SPILL_SLOTS * 8;

/// The address-space layout a warm-start image is generated under, in
/// the order `persist::fingerprint` hashes it.
pub(crate) const FINGERPRINTED: [u64; 6] = [
    TC_BASE,
    STUB_BASE,
    LOOKUP_BASE,
    SHADOW_BASE,
    COUNTERS_BASE,
    PROFILE_BASE,
];

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

    /// Whether the inline cache has been trained since it was last
    /// emptied (an indirect jmp/call site that has run).
    pub fn is_trained(&self) -> bool {
        self.pred != LOOKUP_EMPTY_KEY
    }

    /// A site whose inline cache was never trained, or was emptied.
    #[cfg(test)]
    pub(crate) fn untrained(hits: u64, uses: u64) -> Site {
        Site {
            pred: LOOKUP_EMPTY_KEY,
            hits,
            uses,
        }
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

/// A profile word in registers: its address, and the count loaded
/// from it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Counter {
    pub at: Gr,
    pub count: Gr,
}

impl Counter {
    /// Emits `count += 1`.
    pub(crate) fn emit_bump(self, sink: &mut Sink) {
        sink.emit(Op::Add {
            d: self.count,
            a: Src::Imm(1),
            b: self.count,
        });
    }

    /// Emits, under `qp`, the store of the count back to its word.
    pub(crate) fn emit_store(self, sink: &mut Sink, qp: Pr) {
        sink.emit_pred(
            qp,
            Op::St {
                sz: 8,
                addr: self.at,
                val: self.count,
            },
        );
    }
}

/// An inline cache's words in registers, loaded for its probe
/// ([`Predictions::emit_ic_probe`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct IcWords {
    /// The predicted EIP.
    pub key: Gr,
    /// Its translated entry.
    pub entry: Gr,
    /// The hit counter.
    pub hits: Counter,
}

/// Which words of its profile record a cold block's exit reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ExitWords {
    /// None.
    None,
    /// The taken and fall-through edge counters of a conditional jump.
    Edges,
    /// The inline cache of an indirect `jmp` or `call`.
    Ic,
}

/// The words of its profile record a cold block's head loaded
/// ([`Profile::emit_head_loads`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct HeadWords {
    /// The use counter, when the block tests its heat.
    pub uses: Option<Counter>,
    /// The taken and fall-through edge counters.
    pub edges: Option<[Counter; 2]>,
    /// The inline cache.
    pub ic: Option<IcWords>,
}

/// Emits the loads of `words`, each `(offset, address, value)` off
/// `base`: the addresses `adds` off it, then the loads. A word at
/// offset 0 is read at `base` itself and loaded first, so that its load
/// issues beside the `adds`.
fn emit_loads(sink: &mut Sink, base: Gr, words: &[(u64, Gr, Gr)]) {
    let load = |sink: &mut Sink, addr: Gr, d: Gr| {
        sink.emit(Op::Ld {
            sz: 8,
            d,
            addr,
            spec: false,
        })
    };
    debug_assert!(words.iter().all(|&(off, at, _)| (off == 0) == (at == base)));
    for &(_, _, val) in words.iter().filter(|w| w.0 == 0) {
        load(sink, base, val);
    }
    for &(off, at, _) in words.iter().filter(|w| w.0 != 0) {
        sink.emit(Op::Add {
            d: at,
            a: Src::Imm(off as i64),
            b: base,
        });
    }
    for &(_, at, val) in words.iter().filter(|w| w.0 != 0) {
        load(sink, at, val);
    }
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
    /// Offset of the hit counter within the inline-cache slot.
    const IC_HITS: u64 = 16;

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
        self.ic_addr() + Self::IC_HITS
    }

    /// The loads of the inline-cache slot at `base + off`: its key and
    /// entry into `ic`'s registers through the address registers
    /// `key_at` and `entry_at`, its hits into `ic.hits`. `key_at` must
    /// be `base` when `off` is 0.
    fn ic_loads(off: u64, key_at: Gr, entry_at: Gr, ic: IcWords) -> [(u64, Gr, Gr); 3] {
        [
            (off, key_at, ic.key),
            // The cache opens with a pair laid out like a way.
            (off + 8, entry_at, ic.entry),
            (off + Self::IC_HITS, ic.hits.at, ic.hits.count),
        ]
    }

    /// Emits a cold block's head loads of the record's words it bumps
    /// or reads at its exit, all off one base: the base's `movl`, the
    /// other words' addresses `adds` off it, then the loads (the use
    /// counter's first, beside the `adds`). The use counter's registers
    /// are the head's virtuals; the words `exit` reads go to `bank`,
    /// whose registers no lowering allocates, so that they live through
    /// the block's body. Emits nothing when nothing is wanted.
    pub(crate) fn emit_head_loads(
        self,
        sink: &mut Sink,
        uses: bool,
        exit: ExitWords,
        bank: [Gr; 4],
    ) -> HeadWords {
        let mut words = HeadWords::default();
        if !uses && exit == ExitWords::None {
            return words;
        }
        let base = sink.vg();
        sink.emit(Op::Movl {
            d: base,
            imm: self.0,
        });
        let mut loads = Vec::with_capacity(3);
        if uses {
            let c = Counter {
                at: base,
                count: sink.vg(),
            };
            loads.push((Self::USES, c.at, c.count));
            words.uses = Some(c);
        }
        let [b0, b1, b2, b3] = bank;
        match exit {
            ExitWords::None => {}
            ExitWords::Edges => {
                let [taken, fall] = [(b0, b1), (b2, b3)].map(|(at, count)| Counter { at, count });
                loads.push((Self::TAKEN, taken.at, taken.count));
                loads.push((Self::FALL, fall.at, fall.count));
                words.edges = Some([taken, fall]);
            }
            ExitWords::Ic => {
                let ic = IcWords {
                    key: b0,
                    entry: b1,
                    hits: Counter { at: b2, count: b3 },
                };
                let (key_at, entry_at) = (sink.vg(), sink.vg());
                loads.extend(Self::ic_loads(Self::IC, key_at, entry_at, ic));
                words.ic = Some(ic);
            }
        }
        emit_loads(sink, base, &loads);
        words
    }

    /// The inline-cache site with the block's uses: the one reading
    /// every gate on a site's stability goes through.
    pub(crate) fn site(self, mem: &GuestMem) -> Site {
        let word = |addr: u64| mem.read(addr, 8).unwrap_or(0);
        Site {
            pred: Predictions::pair(mem, self.ic_addr()).0,
            hits: word(self.ic_hits_addr()),
            uses: word(self.uses_addr()),
        }
    }

    /// The hints this record exports: its heat, saturated edges, and
    /// the site's prediction if it is trained and monomorphic.
    pub(crate) fn hints(self, mem: &GuestMem) -> Hints {
        let sat = |addr: u64| mem.read(addr, 8).unwrap_or(0).min(u32::MAX as u64) as u32;
        let site = self.site(mem);
        let (ic_pred, ic_hits) = match Predictions::is_live(site.pred) && site.is_monomorphic() {
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
        Predictions::train(mem, self.ic_addr(), pred as u64, entry);
        let _ = mem.write(self.ic_hits_addr(), 8, cur.max(hits as u64));
    }
}

/// The indirect-branch predictions (paper §5.2): the shared 2-way
/// lookup table, the return-address shadow ring with its top-of-stack
/// word, the events the emitted probes tap, and — for reading,
/// training and emptying — the `(key, entry)` pair that opens each
/// [`Profile`]'s inline cache. This type is the only code that knows
/// their layout, on the Rust side and in the code it emits:
///
/// | at | contents |
/// |----|----------|
/// | [`LOOKUP_BASE`] | [`LOOKUP_SETS`] sets of [`LOOKUP_WAYS`] `(eip, entry)` ways |
/// | [`SHADOW_BASE`] | a ring of [`SHADOW_ENTRIES`] `(ret_eip, entry)` pairs |
/// | [`SHADOW_TOS`] | the ring's top-of-stack index |
///
/// Its invariant (DESIGN §10, "Coherence"): every pair with a live key
/// names a live translated entry. [`Predictions::purge`] is the one
/// walk that keeps it when code is orphaned, evicted or flushed.
pub(crate) struct Predictions;

/// Which predictions [`Predictions::purge`] empties.
#[derive(Clone, Copy)]
pub(crate) enum Stale<'a> {
    /// Those keyed on an EIP that left the registry while its code
    /// stays (an SMC orphan): its table ways and the inline caches
    /// keyed on it, so its next transfer goes through dispatch.
    Eip(u32),
    /// Those that could reach freed code (an eviction): the EIP's ways
    /// into the code, ring entries into it, and inline caches keyed on
    /// the EIP or into the code. A newer way for the EIP survives.
    Code(u32, &'a dyn Fn(u64) -> bool),
    /// Every one, and the ring's top resets: no translated code is left
    /// (a flush, or a fresh engine).
    All,
}

/// The lookup-set shift of [`Predictions::set`]: the hash folds the
/// bits from here up into the set index.
const HASH_SHIFT: u64 = 12;

impl Predictions {
    /// Whether `key` names a guest EIP. Empty keys and zero keys
    /// (freshly mapped, never written) predict nothing.
    fn is_live(key: u64) -> bool {
        key != LOOKUP_EMPTY_KEY && key != 0
    }

    /// The ways of `eip`'s lookup set, way 0 first. The set index
    /// XOR-folds the high bits in, which keeps targets 2^14 bytes apart
    /// (page- or table-aligned function pointers) from aliasing as a
    /// plain `eip >> 2` index would.
    fn set(eip: u32) -> [u64; LOOKUP_WAYS as usize] {
        let e = eip as u64;
        let set = (e ^ (e >> HASH_SHIFT)) & (LOOKUP_SETS - 1);
        let way0 = LOOKUP_BASE + set * LOOKUP_WAYS * LOOKUP_ENTRY_SIZE;
        std::array::from_fn(|w| way0 + w as u64 * LOOKUP_ENTRY_SIZE)
    }

    /// The `(key, entry)` pair at `slot`; an unmapped one is empty.
    fn pair(mem: &GuestMem, slot: u64) -> (u64, u64) {
        let key = mem.read(slot, 8).unwrap_or(LOOKUP_EMPTY_KEY);
        (key, mem.read(slot + 8, 8).unwrap_or(0))
    }

    /// Points the pair at `slot` (a way or an inline cache) at `entry`
    /// for guest EIP `key`.
    pub(crate) fn train(mem: &mut GuestMem, slot: u64, key: u64, entry: u64) {
        let _ = mem.write(slot, 8, key);
        let _ = mem.write(slot + 8, 8, entry);
    }

    /// Empties the pair at `slot`.
    pub(crate) fn empty(mem: &mut GuestMem, slot: u64) {
        let _ = mem.write(slot, 8, LOOKUP_EMPTY_KEY);
    }

    /// Inserts `eip -> entry` into the lookup table: a matching way is
    /// updated in place, an empty way is filled, and a full set demotes
    /// way 0 into way 1 and claims way 0 (newest-first pseudo-LRU).
    /// Returns `(collision, conflict)`: whether the set already held a
    /// live foreign key, and whether a live entry was displaced.
    pub(crate) fn insert(mem: &mut GuestMem, eip: u32, entry: u64) -> (bool, bool) {
        let [s0, s1] = Self::set(eip);
        let ((k0, t0), (k1, _)) = (Self::pair(mem, s0), Self::pair(mem, s1));
        let (slot, collision, conflict) = if k0 == eip as u64 {
            (s0, false, false)
        } else if k1 == eip as u64 {
            (s1, false, false)
        } else if !Self::is_live(k0) {
            (s0, Self::is_live(k1), false)
        } else if !Self::is_live(k1) {
            (s1, true, false)
        } else {
            Self::train(mem, s1, k0, t0);
            (s0, true, true)
        };
        Self::train(mem, slot, eip as u64, entry);
        (collision, conflict)
    }

    /// The pairs keyed on `eip`: its lookup ways, then the inline
    /// caches among `ic_slots` naming it.
    pub(crate) fn predicting(
        mem: &GuestMem,
        eip: u32,
        ic_slots: impl Iterator<Item = u64>,
    ) -> Vec<u64> {
        let keyed = |&s: &u64| Self::pair(mem, s).0 == eip as u64;
        Self::set(eip)
            .into_iter()
            .chain(ic_slots)
            .filter(keyed)
            .collect()
    }

    /// Empties the `stale` predictions among the table, the ring and
    /// the inline caches at `ic_slots`. Returns how many table ways it
    /// emptied.
    pub(crate) fn purge(
        mem: &mut GuestMem,
        stale: Stale<'_>,
        ic_slots: impl Iterator<Item = u64>,
    ) -> u64 {
        #[derive(PartialEq)]
        enum At {
            Way,
            Ring,
            Ic,
        }
        let ways = match stale {
            Stale::Eip(eip) | Stale::Code(eip, _) => Self::set(eip).to_vec(),
            Stale::All => {
                // Every way and ring entry goes: empty them wholesale
                // (entries too), which a fresh engine pays per launch.
                let table_and_ring = (SHADOW_TOS - LOOKUP_BASE) as usize;
                mem.write_forced(LOOKUP_BASE, &vec![0xFF; table_and_ring]);
                let _ = mem.write(SHADOW_TOS, 8, 0);
                Vec::new()
            }
        };
        let ring = (SHADOW_BASE..SHADOW_TOS).step_by(SHADOW_ENTRY_SIZE as usize);
        let slots = ways.into_iter().map(|s| (At::Way, s));
        let slots = slots.chain(ring.map(|s| (At::Ring, s)));
        let mut ways_emptied = 0;
        for (at, slot) in slots.chain(ic_slots.map(|s| (At::Ic, s))) {
            let (key, entry) = Self::pair(mem, slot);
            let doomed = match stale {
                Stale::Eip(eip) => at != At::Ring && key == eip as u64,
                Stale::Code(eip, code) => match at {
                    At::Way => key == eip as u64 && code(entry),
                    At::Ring => code(entry),
                    At::Ic => key == eip as u64 || code(entry),
                },
                Stale::All => true,
            };
            if doomed {
                Self::empty(mem, slot);
                ways_emptied += (at == At::Way) as u64;
            }
        }
        ways_emptied
    }

    /// Every live-keyed `(key, entry)` pair: the table's ways, the
    /// ring's entries, then the inline caches at `ic_slots`.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn pairs(mem: &GuestMem, ic_slots: impl Iterator<Item = u64>) -> Vec<(u64, u64)> {
        // The ring follows the table, and its entries are ways' size.
        let table_and_ring = (LOOKUP_BASE..SHADOW_TOS).step_by(LOOKUP_ENTRY_SIZE as usize);
        let pairs = table_and_ring.chain(ic_slots).map(|s| Self::pair(mem, s));
        pairs.filter(|&(key, _)| Self::is_live(key)).collect()
    }

    /// Assigns the counts of the events the probes tap, out of the
    /// machine's `taps`, to `stats`.
    pub(crate) fn harvest(taps: &[u64; ipf::Tap::EVENTS], stats: &mut crate::stats::Stats) {
        let count = |e: Event| taps[e as usize];
        stats.ic_misses = count(Event::IcMiss);
        stats.shadow_hits = count(Event::ShadowHit);
        stats.shadow_underflows = count(Event::ShadowUnderflow);
        stats.shadow_mispredicts = count(Event::ShadowMispredict);
        stats.devirt_guard_fails = count(Event::DevirtFail);
        stats.hot_side_exits = count(Event::HotExit);
        stats.hot_trace_ends = count(Event::TraceEnd);
    }

    /// Branches into a hot trace's exit blocks that `taps` counted; a
    /// debug build taps them ([`Event::ExitTaken`]).
    #[cfg(debug_assertions)]
    pub(crate) fn exits_taken(taps: &[u64; ipf::Tap::EVENTS]) -> u64 {
        taps[Event::ExitTaken as usize]
    }

    /// The ret block a shadow-pop miss's `IndirectMiss` payload1 names,
    /// if it is one (else payload1 is an inline-cache slot, or 0).
    pub(crate) fn ret_miss_block(payload1: u64) -> Option<u32> {
        (payload1 & RET_MISS_TAG != 0).then_some(payload1 as u32)
    }

    /// Emits the load of the ring's top-of-stack index: `(its cell's
    /// address, the index)`.
    fn emit_tos(sink: &mut Sink) -> (Gr, Gr) {
        let sb = sink.vg();
        sink.emit(Op::Movl {
            d: sb,
            imm: SHADOW_TOS,
        });
        let tos = sink.vg();
        sink.emit(Op::Ld {
            sz: 8,
            d: tos,
            addr: sb,
            spec: false,
        });
        (sb, tos)
    }

    /// Emits the move of the ring's top by `step` entries (modulo the
    /// ring) from index `tos`, stored to its cell at `sb`; returns the
    /// new index.
    fn emit_step_tos(sink: &mut Sink, sb: Gr, tos: Gr, step: u64) -> Gr {
        let t2 = sink.vg();
        sink.emit(Op::Add {
            d: t2,
            a: Src::Imm(step as i64),
            b: tos,
        });
        sink.emit(Op::And {
            d: t2,
            a: Src::Imm((SHADOW_ENTRIES - 1) as i64),
            b: t2,
        });
        sink.emit(Op::St {
            sz: 8,
            addr: sb,
            val: t2,
        });
        t2
    }

    /// Emits the address of the ring entry whose index is in `index`.
    fn emit_ring_slot(sink: &mut Sink, index: Gr) -> Gr {
        let shb = sink.vg();
        sink.emit(Op::Movl {
            d: shb,
            imm: SHADOW_BASE,
        });
        let off = sink.vg();
        sink.emit(Op::Shift {
            kind: ShiftKind::Shl,
            d: off,
            a: index,
            count: Src::Imm(SHADOW_ENTRY_SIZE.trailing_zeros() as i64),
        });
        let ea = sink.vg();
        sink.emit(Op::Add {
            d: ea,
            a: Src::Reg(shb),
            b: off,
        });
        ea
    }

    /// Emits, under `qp`, the store of the pair `(key, entry)` at the
    /// address in `slot`.
    fn emit_train(sink: &mut Sink, qp: Pr, slot: Gr, key: Gr, entry: Gr) {
        sink.emit_pred(
            qp,
            Op::St {
                sz: 8,
                addr: slot,
                val: key,
            },
        );
        let entry_at = sink.vg();
        sink.emit_pred(
            qp,
            Op::Add {
                d: entry_at,
                a: Src::Imm(8),
                b: slot,
            },
        );
        sink.emit_pred(
            qp,
            Op::St {
                sz: 8,
                addr: entry_at,
                val: entry,
            },
        );
    }

    /// Emits the probe of way `way` of the set whose way 0 is at `set`:
    /// loads its key and compares it with `eip`. Returns the way's address and the hit
    /// predicate.
    fn emit_way(sink: &mut Sink, set: Gr, way: u64, eip: Gr) -> (Gr, Pr) {
        let slot = if way == 0 {
            set
        } else {
            let s = sink.vg();
            sink.emit(Op::Add {
                d: s,
                a: Src::Imm((way * LOOKUP_ENTRY_SIZE) as i64),
                b: set,
            });
            s
        };
        let k = sink.vg();
        sink.emit(Op::Ld {
            sz: 8,
            d: k,
            addr: slot,
            spec: false,
        });
        let (hit, miss) = (sink.vp(), sink.vp());
        sink.emit(Op::Cmp {
            rel: CmpRel::Eq,
            pt: hit,
            pf: miss,
            a: Src::Reg(k),
            b: eip,
        });
        (slot, hit)
    }

    /// Pushes a `(ret_eip, predicted_entry)` pair onto the shadow ring.
    /// The predicted translated entry is seeded from the lookup table at
    /// the call's translation-time constant return set; when the table
    /// has no entry yet the pair is pushed empty, the matching `ret`
    /// underflows once, the dispatcher fills the table, and later
    /// pushes predict.
    pub(crate) fn emit_shadow_push(sink: &mut Sink, ret: u32) {
        let (sb, tos) = Self::emit_tos(sink);
        let ea = Self::emit_ring_slot(sink, tos);
        Self::emit_step_tos(sink, sb, tos, 1);
        // Probe both ways of the return EIP's lookup set for a prediction.
        let s0 = sink.vg();
        sink.emit(Op::Movl {
            d: s0,
            imm: Self::set(ret)[0],
        });
        let rr = sink.vg();
        sink.mov_imm(rr, ret as u64);
        let ways: [(Gr, Pr); LOOKUP_WAYS as usize] =
            std::array::from_fn(|w| Self::emit_way(sink, s0, w as u64, rr));
        // Default: empty pair; a way hit overwrites both halves.
        let key = sink.vg();
        sink.emit(Op::Movl {
            d: key,
            imm: LOOKUP_EMPTY_KEY,
        });
        let tg = sink.vg();
        sink.emit(Op::Add {
            d: tg,
            a: Src::Imm(0),
            b: R0,
        });
        for (slot, hit) in ways {
            let t = sink.vg();
            sink.emit_pred(
                hit,
                Op::Add {
                    d: t,
                    a: Src::Imm(8),
                    b: slot,
                },
            );
            sink.emit_pred(
                hit,
                Op::Ld {
                    sz: 8,
                    d: tg,
                    addr: t,
                    spec: false,
                },
            );
            sink.emit_pred(
                hit,
                Op::Add {
                    d: key,
                    a: Src::Imm(0),
                    b: rr,
                },
            );
        }
        Self::emit_train(sink, P0, ea, key, tg);
    }

    /// Pops the shadow ring and guard-compares the recorded return EIP
    /// against the actual one in `eip`; a hit branches straight to the
    /// recorded translated entry. The popped entry is consumed (emptied)
    /// either way so an evicted target can never be re-entered through a
    /// stale slot. A miss, tapped as an underflow or a mispredict, drains
    /// to the `IndirectMiss` stub with payload1 naming block `block_id`
    /// ([`Predictions::ret_miss_block`]), so the dispatcher can count
    /// per-block pop misses and demote the block.
    pub(crate) fn emit_shadow_pop(sink: &mut Sink, eip: Gr, block_id: u32) {
        let (sb, tos) = Self::emit_tos(sink);
        let top = Self::emit_step_tos(sink, sb, tos, SHADOW_ENTRIES - 1);
        let ea = Self::emit_ring_slot(sink, top);
        let k = sink.vg();
        sink.emit(Op::Ld {
            sz: 8,
            d: k,
            addr: ea,
            spec: false,
        });
        let emp = sink.vg();
        sink.emit(Op::Movl {
            d: emp,
            imm: LOOKUP_EMPTY_KEY,
        });
        sink.emit(Op::St {
            sz: 8,
            addr: ea,
            val: emp,
        });
        let (p_hit, p_miss) = (sink.vp(), sink.vp());
        sink.emit(Op::Cmp {
            rel: CmpRel::Eq,
            pt: p_hit,
            pf: p_miss,
            a: Src::Reg(k),
            b: eip,
        });
        let ea8 = sink.vg();
        sink.emit(Op::Add {
            d: ea8,
            a: Src::Imm(8),
            b: ea,
        });
        let tg = sink.vg();
        sink.emit_pred(
            p_hit,
            Op::Ld {
                sz: 8,
                d: tg,
                addr: ea8,
                spec: false,
            },
        );
        sink.emit_pred(p_hit, Op::MovToBr { b: Br(1), r: tg });
        sink.emit_pred(p_hit, Op::BrRet { b: Br(1) });
        sink.tap(Event::ShadowHit.tap(true));
        // Only reached on a miss: an empty slot underflowed, any other
        // mispredicted.
        let p_u = sink.vp();
        sink.emit(Op::Cmp {
            rel: CmpRel::Eq,
            pt: p_u,
            pf: P0,
            a: Src::Reg(k),
            b: emp,
        });
        sink.emit(Op::Add {
            d: GR_PAYLOAD0,
            a: Src::Imm(0),
            b: eip,
        });
        sink.emit(Op::Movl {
            d: GR_PAYLOAD1,
            imm: RET_MISS_TAG | block_id as u64,
        });
        let miss = Op::Br {
            target: Target::Abs(StubKind::IndirectMiss.addr()),
        };
        sink.emit_pred(p_u, miss);
        sink.tap(Event::ShadowUnderflow.tap(true));
        sink.emit(miss);
        sink.tap(Event::ShadowMispredict.tap(true));
    }

    /// Emits the loads of the inline cache at `ic_slot` into virtuals,
    /// for [`Predictions::emit_ic_probe`]. (A cold block loads its own
    /// in its head, [`Profile::emit_head_loads`].)
    pub(crate) fn emit_ic_load(sink: &mut Sink, ic_slot: u64) -> IcWords {
        let base = sink.vg();
        sink.emit(Op::Movl {
            d: base,
            imm: ic_slot,
        });
        let ic = IcWords {
            key: sink.vg(),
            entry: sink.vg(),
            hits: Counter {
                at: sink.vg(),
                count: sink.vg(),
            },
        };
        let entry_at = sink.vg();
        emit_loads(sink, base, &Profile::ic_loads(0, base, entry_at, ic));
        ic
    }

    /// Per-site monomorphic inline cache, its words loaded in `ic`:
    /// guard-compare the site's last observed target EIP and branch
    /// straight to its translated entry on a hit, storing the site's
    /// bumped hit count in the branch's group (hot-phase
    /// devirtualization reads it as a stability signal). Falls through
    /// to the shared table on a miss.
    pub(crate) fn emit_ic_probe(sink: &mut Sink, eip: Gr, ic: IcWords) {
        let (p_ic, _miss) = (sink.vp(), sink.vp());
        sink.emit(Op::Cmp {
            rel: CmpRel::Eq,
            pt: p_ic,
            pf: _miss,
            a: Src::Reg(ic.key),
            b: eip,
        });
        sink.emit(Op::MovToBr {
            b: Br(1),
            r: ic.entry,
        });
        ic.hits.emit_bump(sink);
        ic.hits.emit_store(sink, p_ic);
        sink.emit_pred(p_ic, Op::BrRet { b: Br(1) });
        // Its predicate off, the branch is a miss.
        sink.tap(Event::IcMiss.tap(false));
    }

    /// Probes `eip`'s lookup set (the hash of [`Predictions::set`],
    /// computed at run time), then leaves through the `IndirectMiss`
    /// stub. `ic_slot` (0 for rets) rides in payload1 so the dispatcher
    /// can retrain the site's inline cache.
    pub(crate) fn emit_table_probe2(sink: &mut Sink, eip: Gr, ic_slot: u64) {
        let hs = sink.vg();
        sink.emit(Op::Shift {
            kind: ShiftKind::ShrU,
            d: hs,
            a: eip,
            count: Src::Imm(HASH_SHIFT as i64),
        });
        let h = sink.vg();
        sink.emit(Op::Xor {
            d: h,
            a: Src::Reg(eip),
            b: hs,
        });
        sink.emit(Op::And {
            d: h,
            a: Src::Imm((LOOKUP_SETS - 1) as i64),
            b: h,
        });
        let off = sink.vg();
        sink.emit(Op::Shift {
            kind: ShiftKind::Shl,
            d: off,
            a: h,
            count: Src::Imm((LOOKUP_WAYS * LOOKUP_ENTRY_SIZE).trailing_zeros() as i64),
        });
        let base = sink.vg();
        sink.emit(Op::Movl {
            d: base,
            imm: LOOKUP_BASE,
        });
        let sl = sink.vg();
        sink.emit(Op::Add {
            d: sl,
            a: Src::Reg(base),
            b: off,
        });
        // A table hit is also a teaching moment for the site's inline
        // cache: without this, a site whose target entered the table via
        // *another* site would miss its IC forever (the dispatcher, the
        // only other retrainer, is never reached on a table hit).
        let ics = if ic_slot != 0 {
            let r = sink.vg();
            sink.emit(Op::Movl { d: r, imm: ic_slot });
            Some(r)
        } else {
            None
        };
        for way in 0..LOOKUP_WAYS {
            let (slw, p_hit) = Self::emit_way(sink, sl, way, eip);
            let s2 = sink.vg();
            sink.emit_pred(
                p_hit,
                Op::Add {
                    d: s2,
                    a: Src::Imm(8),
                    b: slw,
                },
            );
            let tg = sink.vg();
            sink.emit_pred(
                p_hit,
                Op::Ld {
                    sz: 8,
                    d: tg,
                    addr: s2,
                    spec: false,
                },
            );
            if let Some(ics) = ics {
                Self::emit_train(sink, p_hit, ics, eip, tg);
            }
            sink.emit_pred(p_hit, Op::MovToBr { b: Br(1), r: tg });
            sink.emit_pred(p_hit, Op::BrRet { b: Br(1) });
        }
        sink.emit(Op::Add {
            d: GR_PAYLOAD0,
            a: Src::Imm(0),
            b: eip,
        });
        if ic_slot != 0 {
            sink.emit(Op::Movl {
                d: GR_PAYLOAD1,
                imm: ic_slot,
            });
        } else {
            sink.emit(Op::Add {
                d: GR_PAYLOAD1,
                a: Src::Imm(0),
                b: R0,
            });
        }
        sink.emit(Op::Br {
            target: Target::Abs(StubKind::IndirectMiss.addr()),
        });
    }

    /// Taps the branch just pushed, a hot trace's devirtualization-guard
    /// exit, as a guard failure.
    pub(crate) fn tap_devirt_fail(cb: &mut ipf::asm::CodeBuilder) {
        cb.tap(Event::DevirtFail.tap(true));
    }
}

/// The events translated code taps ([`ipf::Tap`]): each is one of
/// `Machine::taps`, harvested into `Stats` by [`Predictions::harvest`].
/// Nothing in translated code reads them, so translated code does not
/// pay for them.
#[derive(Clone, Copy)]
pub(crate) enum Event {
    /// A shadow-ring pop whose recorded return EIP matched.
    ShadowHit,
    /// A shadow-ring pop that found its slot empty.
    ShadowUnderflow,
    /// A shadow-ring pop whose recorded return EIP did not match.
    ShadowMispredict,
    /// An inline-cache probe that missed and fell through to the table.
    IcMiss,
    /// A hot trace's devirtualization guard that failed.
    DevirtFail,
    /// A hot trace's conditional side exit taken: its exit block's
    /// branch.
    HotExit,
    /// A hot trace run that reached the branch closing the trace: the
    /// loop's back edge or the main exit block's branch. A trace that
    /// ends in an inline dispatch has no such branch.
    TraceEnd,
    /// A branch of a hot trace's body into one of its exit blocks,
    /// tapped in debug builds only, where it checks that the exit
    /// blocks' own taps miss no entry.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    ExitTaken,
}

impl Event {
    /// The tap that counts this event on a slot executing with its
    /// predicate equal to `when`.
    pub(crate) fn tap(self, when: bool) -> ipf::Tap {
        ipf::Tap {
            event: self as u8,
            when,
        }
    }
}

/// Tag bit in the `IndirectMiss` payload1 marking a shadow-stack pop
/// miss: the low 32 bits then carry the *ret block's* id (not an
/// inline-cache slot address), so the dispatcher can count per-block
/// pop misses and demote chronically mispredicting ret blocks back to
/// a plain table probe. Bit 62 cannot collide with a slot address
/// (profile memory sits far below 2^62).
const RET_MISS_TAG: u64 = 1 << 62;

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
            let [s, last] = Predictions::set(eip);
            assert!(s >= LOOKUP_BASE);
            assert!(last + LOOKUP_ENTRY_SIZE <= SHADOW_BASE);
            assert_eq!(s % 16, 0);
        }
    }

    #[test]
    fn lookup_hash_mixes_high_bits() {
        // A plain `>> 2` index over 4096 entries aliases addresses
        // exactly 16 KiB apart; the mixed hash must separate them.
        let (a, b) = (0x40_1000u32, 0x40_1000 + (1 << 14));
        assert_ne!(Predictions::set(a), Predictions::set(b));
    }

    /// The code of `sink` as `hot::eval` runs it.
    fn insts(sink: &Sink) -> Vec<ipf::Inst> {
        let inst = |item: &crate::templates::IlItem| match item {
            crate::templates::IlItem::Inst(e) => e.inst,
            crate::templates::IlItem::Bind(_) => panic!("a probe binds no label"),
        };
        sink.items.iter().map(inst).collect()
    }

    /// The emitted table probe and shadow push checked against the
    /// owner's Rust-side walk ([`Predictions::predicting`]). Seeded EIPs
    /// crowd into eight sets, so ways collide and get displaced; each
    /// emitted probe, run on `hot::eval`'s machine over the same table
    /// contents, must branch to the entry of exactly the way the Rust
    /// side finds (or to the `IndirectMiss` stub where it finds none),
    /// and each push must record that way's pair.
    #[test]
    fn emitted_probes_hit_the_way_the_owner_finds() {
        use crate::hot::eval::{self, EventKind};
        let mut mem = GuestMem::new();
        let len = COUNTERS_BASE - PROFILE_BASE;
        mem.map(PROFILE_BASE, len, ia32::mem::Prot::rw());
        Predictions::purge(&mut mem, Stale::All, std::iter::empty());
        // `a << 12 | b` with a, b < 8: 64 EIPs in eight sets.
        let mut eips: Vec<u32> = (0..64u32).map(|i| (i >> 3) << 12 | (i & 7)).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..eips.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            eips.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let eips: Vec<u32> = eips.iter().map(|e| 0x40_0000 | e).collect();
        for (i, &eip) in eips[..32].iter().enumerate() {
            Predictions::insert(&mut mem, eip, TC_BASE + 16 * i as u64);
        }
        // The live ways and the ring's top, stored into the evaluator's
        // (otherwise seeded) memory; returns the number of stores.
        let preset = |sink: &mut Sink, tos: u64| {
            let mut words = vec![(SHADOW_TOS, tos)];
            for slot in (LOOKUP_BASE..SHADOW_BASE).step_by(16) {
                let (key, entry) = Predictions::pair(&mem, slot);
                if Predictions::is_live(key) {
                    words.extend([(slot, key), (slot + 8, entry)]);
                }
            }
            for &(addr, val) in &words {
                let (a, v) = (sink.vg(), sink.vg());
                sink.mov_imm(a, addr);
                sink.mov_imm(v, val);
                sink.emit(Op::St {
                    sz: 8,
                    addr: a,
                    val: v,
                });
            }
            words.len()
        };
        let mut hits = [0; LOOKUP_WAYS as usize + 1];
        for (seed, &eip) in eips.iter().enumerate() {
            let way = Predictions::predicting(&mem, eip, std::iter::empty())
                .first()
                .copied();
            hits[way.map_or(2, |s| ((s - LOOKUP_BASE) / 16 % 2) as usize)] += 1;
            let (key, entry) = way.map_or((LOOKUP_EMPTY_KEY, 0), |s| Predictions::pair(&mem, s));

            let mut sink = Sink::new();
            preset(&mut sink, 0);
            let r = sink.vg();
            sink.mov_imm(r, eip as u64);
            Predictions::emit_table_probe2(&mut sink, r, 0);
            let run = eval::run(&insts(&sink), seed as u64);
            let first = run.events.iter().find_map(|e| match e.1 {
                EventKind::Left(to) => Some(to),
                _ => None,
            });
            let want = way.map_or(StubKind::IndirectMiss.addr(), |_| entry);
            assert_eq!(first, Some(want), "the emitted probe of {eip:#x}");

            let tos = seed as u64 % SHADOW_ENTRIES;
            let mut sink = Sink::new();
            let preset_stores = preset(&mut sink, tos);
            Predictions::emit_shadow_push(&mut sink, eip);
            let run = eval::run(&insts(&sink), seed as u64);
            let slot = SHADOW_BASE + tos * SHADOW_ENTRY_SIZE;
            let pushed = [
                (SHADOW_TOS, 8, (tos + 1) % SHADOW_ENTRIES),
                (slot, 8, key),
                (slot + 8, 8, entry),
            ];
            assert_eq!(run.stores[preset_stores..], pushed, "the push of {eip:#x}");
        }
        assert!(hits.iter().all(|&n| n > 0), "way 0, way 1, miss: {hits:?}");
    }

    #[test]
    fn shadow_region_disjoint_from_table_and_counters() {
        const { assert!(SHADOW_BASE >= LOOKUP_BASE + LOOKUP_SETS * LOOKUP_WAYS * LOOKUP_ENTRY_SIZE) };
        const { assert!(SHADOW_TOS == SHADOW_BASE + SHADOW_ENTRIES * SHADOW_ENTRY_SIZE) };
        const { assert!(SHADOW_ENTRY_SIZE == LOOKUP_ENTRY_SIZE) };
        const { assert!(SPILL_BASE > SHADOW_TOS) };
        const { assert!(COUNTERS_BASE < PROFILE_BASE + PROFILE_SIZE) };
    }

    #[test]
    fn regions_disjoint() {
        const { assert!(TC_BASE > PROFILE_BASE + PROFILE_SIZE) };
        const { assert!(STUB_BASE > TC_BASE) };
    }
}
