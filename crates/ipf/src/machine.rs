//! The Itanium machine: functional execution plus a dispersal-based
//! cycle model.
//!
//! Functional semantics are exact (the translator's differential tests
//! depend on them); timing is approximate but shape-preserving: in-order
//! EPIC issue of instruction groups delimited by stop bits, port limits
//! (2M/2I/2F/3B, ≤6 per cycle), scoreboard stalls on operand readiness,
//! and a taken-branch bubble.
//!
//! Faults stop the machine with all earlier slots committed and the
//! faulting slot unexecuted — the translator's precise-exception
//! machinery builds on this.

use crate::asm::Relocatable;
use crate::bundle::Bundle;
use crate::inst::{
    FFmt, FXfer, FmaKind, Inst, LatClass, Op, Reg, ShiftKind, SlotMeta, Src, Target, Unit, SB_LEN,
    SB_NONE,
};
use crate::regs::{NUM_BR, NUM_FR, NUM_GR, NUM_PR};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// Errors a [`Bus`] access can produce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusError {
    /// No memory mapped at the address.
    Unmapped,
    /// Read permission missing.
    NoRead,
    /// Write permission missing.
    NoWrite,
    /// Store hit a write-protected translated-code page.
    Smc,
}

/// Data memory seen by the machine. Alignment is checked by the machine
/// itself (misalignment is an architectural fault here, unlike IA-32).
pub trait Bus {
    /// Reads `size` bytes (≤ 8), little-endian.
    ///
    /// # Errors
    ///
    /// Any [`BusError`].
    fn read(&mut self, addr: u64, size: u32) -> Result<u64, BusError>;

    /// Writes the low `size` bytes of `val`.
    ///
    /// # Errors
    ///
    /// Any [`BusError`].
    fn write(&mut self, addr: u64, size: u32, val: u64) -> Result<(), BusError>;
}

/// Machine-level faults.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachFault {
    /// A bus (page/protection) fault.
    Bus {
        /// What the bus reported.
        err: BusError,
        /// Faulting data address.
        addr: u64,
        /// True for stores.
        write: bool,
    },
    /// Misaligned data access (high-cost, OS-visible on Itanium).
    Misalign {
        /// Faulting address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// True for stores.
        write: bool,
    },
    /// Consumption of a NaT (deferred speculation fault) by a
    /// non-speculative instruction.
    NatConsumption,
}

impl std::fmt::Display for MachFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachFault::Bus { err, addr, write } => write!(
                f,
                "bus fault {err:?} on {} at {addr:#x}",
                if *write { "write" } else { "read" }
            ),
            MachFault::Misalign { addr, size, write } => write!(
                f,
                "misaligned {}-byte {} at {addr:#x}",
                size,
                if *write { "write" } else { "read" }
            ),
            MachFault::NatConsumption => write!(f, "NaT consumption"),
        }
    }
}

/// Why [`Machine::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// Control left the code arena (stub/exit branch); `target` is the
    /// branch destination and `from` the address of the branching bundle.
    ExternalBranch {
        /// Destination address (outside the arena).
        target: u64,
        /// Bundle address the branch came from.
        from: u64,
    },
    /// An architectural fault at `ip`/`slot` (that slot did not execute).
    Fault {
        /// The fault.
        fault: MachFault,
        /// Bundle address of the faulting slot.
        ip: u64,
        /// Slot index within the bundle.
        slot: u8,
    },
    /// The instruction limit was reached.
    InstLimit,
}

/// Timing parameters for the Itanium 2-like core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Timing {
    /// Clock in MHz (the paper measures on 1.0 and 1.5 GHz parts).
    pub clock_mhz: u32,
    /// Integer load-to-use latency.
    pub lat_ld: u32,
    /// FP load-to-use latency.
    pub lat_ldf: u32,
    /// FP arithmetic latency.
    pub lat_fp: u32,
    /// `getf`/`setf` cross-file latency.
    pub lat_xfer: u32,
    /// Taken-branch bubble cycles.
    pub taken_branch: u32,
    /// Extra bubble for indirect branches.
    pub indirect_branch: u32,
}

impl Default for Timing {
    fn default() -> Timing {
        Timing {
            clock_mhz: 1500,
            lat_ld: 2,
            lat_ldf: 6,
            lat_fp: 4,
            lat_xfer: 5,
            taken_branch: 1,
            indirect_branch: 3,
        }
    }
}

impl Timing {
    /// Result latency in cycles of a latency class.
    pub fn latency(&self, class: LatClass) -> u32 {
        match class {
            LatClass::One => 1,
            LatClass::Two => 2,
            LatClass::Ld => self.lat_ld,
            LatClass::Ldf => self.lat_ldf,
            LatClass::Fp => self.lat_fp,
            LatClass::Xfer => self.lat_xfer,
        }
    }
}

/// Id a slot carries once the intern table is full: its metadata is
/// derived when needed instead of looked up.
const META_UNINTERNED: u16 = u16::MAX;

/// The distinct [`SlotMeta`] values of an arena's code. Installed code
/// is highly repetitive (a few thousand distinct values across millions
/// of slots), so slots store a 2-byte id into this table rather than
/// the 16-byte value.
#[derive(Debug, Default)]
struct MetaTable {
    metas: Vec<SlotMeta>,
    ids: crate::hash::HashMap<u64, u16>,
}

impl MetaTable {
    fn intern(&mut self, inst: &Inst) -> u16 {
        let meta = inst.slot_meta();
        let key = meta.key();
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        if self.metas.len() >= META_UNINTERNED as usize {
            return META_UNINTERNED;
        }
        let id = self.metas.len() as u16;
        self.metas.push(meta);
        self.ids.insert(key, id);
        id
    }

    fn intern_bundle(&mut self, b: &Bundle) -> [u16; 3] {
        b.slots.each_ref().map(|inst| self.intern(inst))
    }

    /// The metadata behind `id`, which was interned for `inst`.
    #[inline]
    fn get(&self, id: u16, inst: &Inst) -> SlotMeta {
        match id {
            META_UNINTERNED => inst.slot_meta(),
            id => self.metas[id as usize],
        }
    }
}

/// Longest issue group, in slots, the arena summarizes. Cold code
/// closes a group every three or four slots, but hot traces issue a
/// dozen independent ops at once and the bundler's `nop` padding counts
/// (every `movl` brings two), so their groups reach twenty slots; a
/// longer one is accounted slot by slot. A summary's size does not
/// depend on this, only how far `summary_at` looks for the stop bit.
const GROUP_MAX_SLOTS: usize = 24;
/// Most distinct scoreboard entries a summary reads.
const GROUP_MAX_READS: usize = 16;
/// Scoreboard writes a group records; later ones are dropped.
const GROUP_MAX_WRITES: usize = 8;

/// Id of a group the machine has not run since the code there last
/// changed (what a zeroed [`BundleTag`] holds).
const GROUP_UNKNOWN: u16 = 0;
/// Id of a group that has no summary — too long, too many distinct
/// reads, or the id space was full — and is accounted slot by slot.
const GROUP_NONE: u16 = u16::MAX;

/// Why a group has no summary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NoSummary {
    /// More than [`GROUP_MAX_SLOTS`] slots or [`GROUP_MAX_READS`]
    /// distinct reads.
    TooBig,
    /// The arena ends before the group's stop bit.
    OffEnd,
}

/// Everything [`IssueModel`] needs to issue one whole stop-bit-delimited
/// group in a single step: what [`IssueModel::account`] over its slots
/// and [`IssueModel::close`] would have gathered, which is a function of
/// the installed code alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct GroupSummary {
    /// The distinct scoreboard entries the group reads (`SB_NONE`
    /// dropped; the first `nreads` are valid, the rest hold `SB_NONE`).
    reads: [u16; GROUP_MAX_READS],
    /// The group's first [`GROUP_MAX_WRITES`] scoreboard writes in slot
    /// order, duplicates kept (the last one wins, as in `close`).
    writes: [(u16, LatClass); GROUP_MAX_WRITES],
    nreads: u8,
    nwrites: u8,
    /// Cycles the group occupies the issue ports.
    width: u8,
    /// Slots in the group.
    slots: u8,
    /// Of those, `nop`s.
    nops: u8,
    /// Whether any of its slots carries a [`Tap`].
    tapped: bool,
}

impl Hash for GroupSummary {
    /// Feeds the summary to the hasher as seven packed words rather
    /// than field by field.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for four in self.reads.chunks_exact(4) {
            state.write_u64(four.iter().fold(0, |k, &r| k << 16 | r as u64));
        }
        for four in self.writes.chunks_exact(4) {
            state.write_u64(four.iter().fold(0, |k, &(w, _)| k << 16 | w as u64));
        }
        let lats = self.writes.iter().fold(0, |k, &(_, l)| k << 3 | l as u64);
        let counts = [
            self.nreads,
            self.nwrites,
            self.width,
            self.slots,
            self.nops,
            self.tapped as u8,
        ];
        state.write_u64(counts.iter().fold(lats, |k, &c| k << 8 | c as u64));
    }
}

/// The distinct [`GroupSummary`] values of an arena's code, interned
/// like the slot metadata: a slot stores the 2-byte id of the group
/// that starts at it.
#[derive(Debug, Default)]
struct GroupTable {
    groups: Vec<GroupSummary>,
    ids: crate::hash::HashMap<GroupSummary, u16>,
}

impl GroupTable {
    /// The id of `group`, or [`GROUP_NONE`] once the id space is full.
    fn intern(&mut self, group: GroupSummary) -> u16 {
        if let Some(&id) = self.ids.get(&group) {
            return id;
        }
        // Ids run from 1: 0 is `GROUP_UNKNOWN`.
        let id = self.groups.len() as u16 + 1;
        if id == GROUP_NONE {
            return GROUP_NONE;
        }
        self.groups.push(group);
        self.ids.insert(group, id);
        id
    }

    /// The summary behind `id`, if it names one.
    #[inline]
    fn get(&self, id: u16) -> Option<&GroupSummary> {
        match id {
            GROUP_UNKNOWN | GROUP_NONE => None,
            id => Some(&self.groups[id as usize - 1]),
        }
    }
}

/// What the arena keeps per bundle beside the bundle itself.
#[derive(Clone, Copy, Debug, Default)]
struct BundleTag {
    /// Cycle-attribution region.
    region: u32,
    /// Per slot, the id of its issue metadata in the [`MetaTable`].
    meta: [u16; 3],
    /// Per slot, the id in the [`GroupTable`] of the issue group that
    /// *starts* there, [`GROUP_UNKNOWN`] or [`GROUP_NONE`].
    group: [u16; 3],
    /// Per slot, its [`Tap`] as [`Tap::code`] stores it (0: none).
    taps: [u8; 3],
}

/// A tap: the slot it marks counts `event` in [`Machine::taps`] each
/// time it executes with its qualifying predicate equal to `when` —
/// host-side, at no simulated cost: the slot issues exactly as it would
/// untapped. The translator counts this way what only a report reads,
/// instead of emitting a load, an add and a store that translated code
/// would pay for.
///
/// A tapped slot ends its issue group (a branch does) and writes no
/// predicate it reads, so the machine looks only at the last slot of a
/// group that carries a tap, after the group has run. A tap is
/// installed with its code ([`crate::asm::CodeBuilder::tap`]), goes
/// when the slot is released or truncated away, and stays when
/// [`CodeArena::patch_slot`] retargets the slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tap {
    /// Which counter of [`Machine::taps`].
    pub event: u8,
    /// The predicate value that counts.
    pub when: bool,
}

impl Tap {
    /// Counters a machine keeps.
    pub const EVENTS: usize = 8;

    /// The tap as a slot's tag stores it: never 0.
    fn code(self) -> u8 {
        assert!(
            (self.event as usize) < Self::EVENTS,
            "tap event out of range"
        );
        1 + (self.event << 1 | self.when as u8)
    }

    /// The tap a non-zero [`Tap::code`] stores.
    fn decode(code: u8) -> Tap {
        Tap {
            event: (code - 1) >> 1,
            when: (code - 1) & 1 != 0,
        }
    }
}

/// Tags per page of a [`TagTable`].
const TAG_PAGE: usize = 1024;

/// The per-bundle tags, parallel to the bundles, in fixed-size pages.
/// Growing a paged table never moves what it holds. A `Vec` of this
/// size does, and the copies it leaves behind in the allocator (and
/// the allocator's reaction to freeing so large a block) cost the
/// 600k-bundle arena of the benchmark more resident memory than the
/// tags themselves.
#[derive(Debug, Default)]
struct TagTable {
    pages: Vec<Box<[BundleTag; TAG_PAGE]>>,
    len: usize,
}

impl TagTable {
    fn push(&mut self, tag: BundleTag) {
        if self.len == self.pages.len() * TAG_PAGE {
            self.pages.push(Box::new([BundleTag::default(); TAG_PAGE]));
        }
        self.pages[self.len / TAG_PAGE][self.len % TAG_PAGE] = tag;
        self.len += 1;
    }

    fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
        self.pages.truncate(self.len.div_ceil(TAG_PAGE));
    }
}

impl std::ops::Index<usize> for TagTable {
    type Output = BundleTag;

    fn index(&self, i: usize) -> &BundleTag {
        assert!(i < self.len, "tag index past the arena");
        &self.pages[i / TAG_PAGE][i % TAG_PAGE]
    }
}

impl std::ops::IndexMut<usize> for TagTable {
    fn index_mut(&mut self, i: usize) -> &mut BundleTag {
        assert!(i < self.len, "tag index past the arena");
        &mut self.pages[i / TAG_PAGE][i % TAG_PAGE]
    }
}

/// A contiguous region of bundles at a base address, with a per-bundle
/// *region id* used for cycle attribution (the translator tags bundles
/// as cold code, hot code, stubs, …).
///
/// The arena also keeps a free list of reclaimable extents so the
/// translator can evict individual blocks and reuse their space instead
/// of flushing wholesale: [`CodeArena::release`] returns an extent to
/// the free list and [`CodeArena::install`] puts position-independent
/// code into the best-fitting hole, or at the end when none is large
/// enough.
///
/// Beside the bundles the arena caches each slot's issue metadata
/// ([`Inst::slot_meta`]) so the machine decodes a slot once, not once
/// per execution, and — one level up — a summary of the issue group
/// that starts at each slot, so the machine accounts a group once, not
/// once per slot. Summaries are built when the machine first runs a
/// group. `bundles` is private and written at exactly five places —
/// `append`, `place`, `release`, `truncate`, `patch_slot` — each of
/// which updates `tags` in the same breath: the metadata of the slots
/// it writes, and the group ids of those slots *and* of the slots
/// before them whose groups reach into what it wrote. `install` is
/// `append` or `place` after a rebase; `place` and the free-list carve
/// `alloc` are private, so code that must go where there is room has
/// that one way in.
#[derive(Debug, Default)]
pub struct CodeArena {
    base: u64,
    bundles: Vec<Bundle>,
    /// Region, metadata ids and group ids per bundle (parallel to
    /// `bundles`).
    tags: TagTable,
    metas: MetaTable,
    groups: GroupTable,
    /// Free extents as `(bundle_index, bundle_count)`, kept sorted by
    /// index and coalesced.
    free: Vec<(usize, usize)>,
}

impl CodeArena {
    /// An empty arena based at `base` (must be 16-byte aligned).
    pub fn new(base: u64) -> CodeArena {
        assert_eq!(base % Bundle::SIZE, 0, "arena base must be bundle-aligned");
        CodeArena {
            base,
            ..CodeArena::default()
        }
    }

    /// Base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.bundles.len() as u64 * Bundle::SIZE
    }

    /// Appends bundles tagged with `region`, returning their start
    /// address.
    pub fn append(&mut self, bundles: Vec<Bundle>, region: u32) -> u64 {
        let addr = self.end();
        // No cached group reaches the old end (`summarize` never caches
        // one that runs off it), so there is nothing to forget.
        for b in &bundles {
            let meta = self.metas.intern_bundle(b);
            self.tags.push(BundleTag {
                region,
                meta,
                group: [GROUP_UNKNOWN; 3],
                taps: [0; 3],
            });
        }
        self.bundles.extend(bundles);
        addr
    }

    /// Installs position-independent code tagged with `region` where
    /// there is room — the smallest free extent that holds it, else the
    /// end — rebased to that address, which is returned.
    pub fn install(&mut self, mut code: Relocatable, region: u32) -> u64 {
        let taps = std::mem::take(&mut code.taps);
        let addr = match self.alloc(code.len()) {
            Some(hole) => self.place(hole, code.at(hole).0, region),
            None => self.append(code.at(self.end()).0, region),
        };
        let idx = self.index_of(addr).unwrap_or(0);
        for (bundle, slot, tap) in taps {
            let (i, s) = (idx + bundle as usize, slot as usize);
            let inst = &self.bundles[i].slots[s];
            assert!(
                self.bundles[i].stops[s] && !inst.op.defs().contains(&Reg::P(inst.qp)),
                "a tap must end its issue group and not write its own predicate: {inst}"
            );
            self.tags[i].taps[s] = tap.code();
        }
        addr
    }

    /// The tap on `slot` of the bundle at `addr`, if it has one.
    #[cfg(test)]
    fn tap_at(&self, addr: u64, slot: usize) -> Option<Tap> {
        let code = self.tags[self.index_of(addr)?].taps[slot];
        (code != 0).then(|| Tap::decode(code))
    }

    /// Truncates the arena back to `addr` (translation-cache flush).
    /// The free list is cleared: everything past `addr` is gone and
    /// everything before it is live again.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not within the arena or misaligned.
    pub fn truncate(&mut self, addr: u64) {
        assert!(addr >= self.base && addr <= self.end());
        let n = ((addr - self.base) / Bundle::SIZE) as usize;
        self.bundles.truncate(n);
        self.tags.truncate(n);
        self.forget_groups_reaching(n * 3);
        self.free.clear();
    }

    /// Returns the extent `[start, end)` to the free list, overwriting
    /// its bundles with all-nop bundles (region 0) so stale control flow
    /// into it is inert, and coalescing with adjacent free extents.
    ///
    /// # Panics
    ///
    /// Panics if the extent is misaligned or out of bounds.
    pub fn release(&mut self, start: u64, end: u64) {
        assert!(start <= end, "inverted extent");
        if start == end {
            return;
        }
        let idx = self.index_of(start).expect("release start inside arena");
        assert_eq!((end - start) % Bundle::SIZE, 0, "misaligned extent end");
        let count = ((end - start) / Bundle::SIZE) as usize;
        assert!(idx + count <= self.bundles.len(), "extent past arena end");
        let nops = Bundle::nops();
        let freed = BundleTag {
            region: 0,
            meta: self.metas.intern_bundle(&nops),
            group: [GROUP_UNKNOWN; 3],
            taps: [0; 3],
        };
        for i in idx..idx + count {
            self.tags[i] = freed;
        }
        self.bundles[idx..idx + count].fill(nops);
        self.forget_groups_reaching(idx * 3);
        let pos = self.free.partition_point(|&(i, _)| i < idx);
        debug_assert!(
            self.free.get(pos).is_none_or(|&(i, _)| idx + count <= i)
                && (pos == 0 || {
                    let (pi, pn) = self.free[pos - 1];
                    pi + pn <= idx
                }),
            "double release"
        );
        self.free.insert(pos, (idx, count));
        // Coalesce with the neighbours.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
    }

    /// Carves `count` bundles out of the free list (best fit), returning
    /// the hole's start address, or `None` if no free extent is large
    /// enough.
    fn alloc(&mut self, count: usize) -> Option<u64> {
        if count == 0 {
            return None;
        }
        let best = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, &(_, n))| n >= count)
            .min_by_key(|(_, &(_, n))| n)?
            .0;
        let (idx, n) = self.free[best];
        if n == count {
            self.free.remove(best);
        } else {
            self.free[best] = (idx + count, n - count);
        }
        Some(self.base + idx as u64 * Bundle::SIZE)
    }

    /// Writes bundles into a hole `alloc` returned, returning their
    /// start address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the arena or the bundles overrun it.
    fn place(&mut self, addr: u64, bundles: Vec<Bundle>, region: u32) -> u64 {
        let idx = self.index_of(addr).expect("place address inside arena");
        assert!(
            idx + bundles.len() <= self.bundles.len(),
            "placed code overruns the arena"
        );
        for (k, b) in bundles.into_iter().enumerate() {
            let meta = self.metas.intern_bundle(&b);
            self.tags[idx + k] = BundleTag {
                region,
                meta,
                group: [GROUP_UNKNOWN; 3],
                taps: [0; 3],
            };
            self.bundles[idx + k] = b;
        }
        self.forget_groups_reaching(idx * 3);
        addr
    }

    /// Number of bundles currently on the free list.
    pub fn free_bundles(&self) -> usize {
        self.free.iter().map(|&(_, n)| n).sum()
    }

    /// The free list as `[start, end)` address extents, in address
    /// order (the translator's cache audit checks nothing live overlaps
    /// them).
    pub fn free_extents(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let at = |i: usize| self.base + i as u64 * Bundle::SIZE;
        self.free.iter().map(move |&(i, n)| (at(i), at(i + n)))
    }

    /// Number of live (allocated) bundles: total minus free.
    pub fn live_len(&self) -> usize {
        self.bundles.len() - self.free_bundles()
    }

    /// Index of the bundle at `addr`, if inside the arena.
    pub fn index_of(&self, addr: u64) -> Option<usize> {
        if addr < self.base || addr >= self.end() || !addr.is_multiple_of(Bundle::SIZE) {
            return None;
        }
        Some(((addr - self.base) / Bundle::SIZE) as usize)
    }

    /// The bundle at `addr`.
    pub fn bundle_at(&self, addr: u64) -> Option<&Bundle> {
        self.index_of(addr).map(|i| &self.bundles[i])
    }

    /// Replaces one slot's operation (used to patch exit branches into
    /// direct block-to-block branches).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the arena.
    pub fn patch_slot(&mut self, addr: u64, slot: usize, op: Op) {
        let idx = self.index_of(addr).expect("patch address inside arena");
        let inst = &mut self.bundles[idx].slots[slot];
        inst.op = op;
        let tag = &mut self.tags[idx];
        tag.meta[slot] = self.metas.intern(inst);
        tag.group[slot] = GROUP_UNKNOWN;
        self.forget_groups_reaching(idx * 3 + slot);
    }

    /// Forgets every cached group that starts before slot position
    /// `pos` (bundle index × 3 + slot) and reaches it, because the code
    /// from `pos` on has just changed or gone: the slots back to the
    /// previous stop bit. A group that starts more than
    /// [`GROUP_MAX_SLOTS`] slots back and still reaches `pos` is too
    /// long to have a summary whatever follows, so the walk stops there.
    fn forget_groups_reaching(&mut self, pos: usize) {
        for p in (pos.saturating_sub(GROUP_MAX_SLOTS)..pos).rev() {
            if self.bundles[p / 3].stops[p % 3] {
                break;
            }
            self.tags[p / 3].group[p % 3] = GROUP_UNKNOWN;
        }
    }

    /// The id of the issue group that starts at `slot` of bundle `idx`,
    /// summarizing it if the machine has not run it since the code
    /// there last changed.
    #[inline]
    fn group_id(&mut self, idx: usize, slot: usize) -> u16 {
        match self.tags[idx].group[slot] {
            GROUP_UNKNOWN => self.summarize(idx, slot),
            id => id,
        }
    }

    /// Summarizes the group that starts at `slot` of bundle `idx`,
    /// interns the summary and caches its id — unless the group runs
    /// off the arena's end, where code may yet be appended: that is not
    /// its final shape.
    fn summarize(&mut self, idx: usize, slot: usize) -> u16 {
        let id = match self.summary_at(idx, slot) {
            Ok(group) => self.groups.intern(group),
            Err(NoSummary::TooBig) => GROUP_NONE,
            Err(NoSummary::OffEnd) => return GROUP_NONE,
        };
        self.tags[idx].group[slot] = id;
        id
    }

    /// The summary of the group that starts at `slot` of bundle `idx`:
    /// its slots up to the first stop bit, put through the same
    /// [`GroupPorts::add`] that [`IssueModel::account`] puts them
    /// through.
    fn summary_at(&self, idx: usize, slot: usize) -> Result<GroupSummary, NoSummary> {
        let mut ports = GroupPorts::default();
        let mut reads = [SB_NONE; GROUP_MAX_READS];
        let mut nreads = 0;
        let mut seen = [0u64; SB_LEN.div_ceil(64)];
        for (meta, stop, _) in self.slots_from(idx, slot) {
            if ports.slots as usize == GROUP_MAX_SLOTS {
                return Err(NoSummary::TooBig);
            }
            for r in meta.reads {
                let (word, bit) = (r as usize / 64, 1u64 << (r % 64));
                if r == SB_NONE || seen[word] & bit != 0 {
                    continue;
                }
                seen[word] |= bit;
                if nreads == GROUP_MAX_READS {
                    return Err(NoSummary::TooBig);
                }
                reads[nreads] = r;
                nreads += 1;
            }
            ports.add(&meta);
            if stop {
                let start = idx * 3 + slot;
                let tapped = (start..start + ports.slots as usize)
                    .any(|p| self.tags[p / 3].taps[p % 3] != 0);
                return Ok(GroupSummary {
                    reads,
                    writes: ports.writes,
                    nreads: nreads as u8,
                    nwrites: ports.nwrites as u8,
                    width: ports.width() as u8,
                    slots: ports.slots as u8,
                    nops: ports.nops as u8,
                    tapped,
                });
            }
        }
        Err(NoSummary::OffEnd)
    }

    /// The slots from `slot` of bundle `idx` to the arena's end, in
    /// execution order: each one's cached issue metadata, its stop bit
    /// and its bundle's region.
    fn slots_from(
        &self,
        idx: usize,
        slot: usize,
    ) -> impl Iterator<Item = (SlotMeta, bool, u32)> + '_ {
        (idx * 3 + slot..self.bundles.len() * 3).map(|pos| {
            let (i, s) = (pos / 3, pos % 3);
            let (bundle, tag) = (&self.bundles[i], &self.tags[i]);
            let meta = self.metas.get(tag.meta[s], &bundle.slots[s]);
            debug_assert_eq!(
                meta,
                bundle.slots[s].slot_meta(),
                "stale issue metadata at bundle {i} slot {s}"
            );
            (meta, bundle.stops[s], tag.region)
        })
    }

    /// Accounts the `n` slots from `slot` of bundle `idx` on, one by
    /// one, into `model`'s open group — whether or not their predicates
    /// held: a predicated-off slot still occupies its port.
    fn replay(&self, model: &mut IssueModel, idx: usize, slot: usize, n: u64) {
        for (meta, _, region) in self.slots_from(idx, slot).take(n as usize) {
            model.account(&meta, region);
        }
    }

    /// FNV-1a checksum over the bundles in `[start, end)`, in their
    /// textual (assembly) form. Used by the engine's verify-on-dispatch
    /// integrity mode: a patched or corrupted slot changes the sum.
    pub fn checksum_range(&self, start: u64, end: u64) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        let mut addr = start;
        while addr < end {
            if let Some(b) = self.bundle_at(addr) {
                write!(h, "{b}").expect("the hash sink never fails");
            }
            addr += Bundle::SIZE;
        }
        h.0
    }

    /// Number of bundles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// True if the arena holds no bundles.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }
}

/// FNV-1a over whatever text is written into it.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// The static half of an issue group — the ports its slots occupy and
/// the scoreboard entries it writes. [`IssueModel::account`] and the
/// arena's group summaries both build it through [`GroupPorts::add`],
/// so the two cannot disagree.
#[derive(Clone, Copy, Debug)]
struct GroupPorts {
    m: u32,
    i: u32,
    f: u32,
    b: u32,
    slots: u32,
    nops: u32,
    nwrites: usize,
    /// `(scoreboard entry, latency class)` of the first `nwrites`
    /// register writes.
    writes: [(u16, LatClass); GROUP_MAX_WRITES],
}

impl Default for GroupPorts {
    fn default() -> GroupPorts {
        GroupPorts {
            m: 0,
            i: 0,
            f: 0,
            b: 0,
            slots: 0,
            nops: 0,
            nwrites: 0,
            writes: [(SB_NONE, LatClass::One); GROUP_MAX_WRITES],
        }
    }
}

impl GroupPorts {
    /// Adds one slot. Order matters twice over: an A-type slot goes to
    /// whichever of M and I is less loaded *so far*, and only the
    /// group's first [`GROUP_MAX_WRITES`] writes are recorded.
    #[inline]
    fn add(&mut self, meta: &SlotMeta) {
        for &w in &meta.writes[..meta.nwrites as usize] {
            if self.nwrites < GROUP_MAX_WRITES {
                self.writes[self.nwrites] = (w, meta.lat);
                self.nwrites += 1;
            }
        }
        match meta.unit {
            Unit::M => self.m += 1,
            Unit::I | Unit::L => self.i += 1,
            Unit::F => self.f += 1,
            Unit::B => self.b += 1,
            Unit::A => {
                // Disperse A-type to the less-loaded of M/I.
                if self.m <= self.i {
                    self.m += 1;
                } else {
                    self.i += 1;
                }
            }
        }
        self.slots += 1;
        self.nops += meta.nop as u32;
    }

    /// Cycles the group occupies the issue ports: what its most
    /// oversubscribed port class needs (2M/2I/2F/3B, 6 slots).
    #[inline]
    fn width(&self) -> u32 {
        [
            self.m.div_ceil(2),
            self.i.div_ceil(2),
            self.f.div_ceil(2),
            self.b.div_ceil(3),
            self.slots.div_ceil(6),
            1,
        ]
        .into_iter()
        .max()
        .expect("six candidates")
    }
}

/// Where cycles went: the time groups occupied the issue ports, waited
/// for an operand, and lost to taken branches, beside the time let pass
/// outside any group (what the translator charges). The four cycle
/// counts sum to the cycles they split.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CycleSplit {
    /// Cycles groups occupied the issue ports: what their most
    /// oversubscribed port class needs.
    pub issue_cycles: u64,
    /// Cycles groups waited for an operand before issuing.
    pub stall_cycles: u64,
    /// Dead cycles after taken branches.
    pub bubble_cycles: u64,
    /// Cycles charged for work outside the code ([`Machine::charge`]).
    pub charged_cycles: u64,
    /// `nop` slots issued (a subset of the slots, not of the cycles).
    pub nop_slots: u64,
}

impl CycleSplit {
    /// The cycles split.
    pub fn cycles(&self) -> u64 {
        self.issue_cycles + self.stall_cycles + self.bubble_cycles + self.charged_cycles
    }
}

impl std::ops::AddAssign for CycleSplit {
    fn add_assign(&mut self, o: CycleSplit) {
        self.issue_cycles += o.issue_cycles;
        self.stall_cycles += o.stall_cycles;
        self.bubble_cycles += o.bubble_cycles;
        self.charged_cycles += o.charged_cycles;
        self.nop_slots += o.nop_slots;
    }
}

impl std::ops::Sub for CycleSplit {
    type Output = CycleSplit;

    fn sub(self, o: CycleSplit) -> CycleSplit {
        CycleSplit {
            issue_cycles: self.issue_cycles - o.issue_cycles,
            stall_cycles: self.stall_cycles - o.stall_cycles,
            bubble_cycles: self.bubble_cycles - o.bubble_cycles,
            charged_cycles: self.charged_cycles - o.charged_cycles,
            nop_slots: self.nop_slots - o.nop_slots,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct GroupAcc {
    read_ready_max: u64,
    region: u32,
    active: bool,
    ports: GroupPorts,
}

/// The cycle model proper: in-order issue of stop-bit-delimited groups
/// against an operand-ready scoreboard. A group issues once every
/// operand it reads is ready, occupies as many cycles as its most
/// oversubscribed port class needs (2M/2I/2F/3B, 6 slots), and its
/// writes become ready their latency after issue.
///
/// [`Machine`] drives one of these from the arena's cached metadata —
/// a whole group at a time where the arena has a summary of it, slot by
/// slot otherwise; the translator's hot scheduler drives its own, slot
/// by slot, to price candidate code. The per-slot path is the one
/// definition, which is what keeps the two from disagreeing.
///
/// Two properties are part of the model and deliberately kept:
/// a group records at most 8 scoreboard writes (later ones are
/// dropped), and a predicated-off slot is accounted like any other.
///
/// Both issue paths also keep count of where the cycles went
/// ([`IssueModel::split`]): how long groups waited for an operand past
/// the clock, the dead cycles after them, and their `nop` slots.
#[derive(Clone, Debug)]
pub struct IssueModel {
    ready: [u64; SB_LEN],
    lat: [u32; LatClass::ALL.len()],
    next_cycle: u64,
    /// The latest cycle any scoreboard entry becomes ready at. Once
    /// `next_cycle` has passed it no read can stall, so
    /// [`IssueModel::issue_group`] need not look at what a group reads.
    horizon: u64,
    group: GroupAcc,
    /// Since cycle 0: cycles groups waited for an operand, dead cycles
    /// after groups, `nop` slots issued, and cycles let pass outside any
    /// group. What is left of `next_cycle` is issue width.
    stalled: u64,
    bubbles: u64,
    nops: u64,
    advanced: u64,
}

impl IssueModel {
    /// An idle model at cycle 0 with every operand ready.
    pub fn new(timing: &Timing) -> IssueModel {
        IssueModel {
            ready: [0; SB_LEN],
            lat: LatClass::ALL.map(|class| timing.latency(class)),
            next_cycle: 0,
            horizon: 0,
            group: GroupAcc::default(),
            stalled: 0,
            bubbles: 0,
            nops: 0,
            advanced: 0,
        }
    }

    /// Cycles elapsed up to the last closed group.
    pub fn now(&self) -> u64 {
        self.next_cycle
    }

    /// Where the cycles up to [`IssueModel::now`] went; its
    /// [`CycleSplit::cycles`] is `now()`.
    pub fn split(&self) -> CycleSplit {
        CycleSplit {
            issue_cycles: self.next_cycle - self.stalled - self.bubbles - self.advanced,
            stall_cycles: self.stalled,
            bubble_cycles: self.bubbles,
            charged_cycles: self.advanced,
            nop_slots: self.nops,
        }
    }

    /// Lets `cycles` pass outside any group.
    pub fn advance(&mut self, cycles: u64) {
        self.next_cycle += cycles;
        self.advanced += cycles;
    }

    /// Adds one slot to the open issue group, opening one (attributed
    /// to `region`) if none is open.
    #[inline]
    pub fn account(&mut self, meta: &SlotMeta, region: u32) {
        let g = &mut self.group;
        if !g.active {
            *g = GroupAcc {
                region,
                active: true,
                ..GroupAcc::default()
            };
        }
        let ready = &self.ready;
        let [r0, r1, r2, r3] = meta.reads;
        let t = (ready[r0 as usize].max(ready[r1 as usize]))
            .max(ready[r2 as usize].max(ready[r3 as usize]));
        if t > g.read_ready_max {
            g.read_ready_max = t;
        }
        g.ports.add(meta);
    }

    /// Closes the open group, followed by `extra_bubble` dead cycles;
    /// returns the region the elapsed cycles belong to and their count.
    #[inline]
    pub fn close(&mut self, extra_bubble: u32) -> (u32, u64) {
        let g = &self.group;
        if !g.active {
            // A bubble landing on an already-closed group must still be
            // attributed to a region, or the per-region cycles would
            // drift below the total.
            self.next_cycle += extra_bubble as u64;
            self.bubbles += extra_bubble as u64;
            return (g.region, extra_bubble as u64);
        }
        let issue = self.next_cycle.max(g.read_ready_max);
        for &(entry, class) in &g.ports.writes[..g.ports.nwrites] {
            let at = issue + self.lat[class as usize] as u64;
            self.ready[entry as usize] = at;
            self.horizon = self.horizon.max(at);
        }
        let (region, width, nops) = (g.region, g.ports.width(), g.ports.nops);
        self.group = GroupAcc::default();
        (region, self.issue_at(issue, width, extra_bubble, nops))
    }

    /// Issues one whole group from its summary, followed by
    /// `extra_bubble` dead cycles: exactly what [`IssueModel::account`]
    /// over the group's slots and then [`IssueModel::close`] do to the
    /// model, in one step. No group may be open.
    #[inline]
    pub(crate) fn issue_group(
        &mut self,
        group: &GroupSummary,
        region: u32,
        extra_bubble: u32,
    ) -> (u32, u64) {
        debug_assert!(!self.group.active, "a group is already open");
        let mut issue = self.next_cycle;
        if self.horizon > issue {
            for &r in &group.reads[..group.nreads as usize] {
                issue = issue.max(self.ready[r as usize]);
            }
        }
        let mut horizon = self.horizon;
        for &(entry, class) in &group.writes[..group.nwrites as usize] {
            let at = issue + self.lat[class as usize] as u64;
            self.ready[entry as usize] = at;
            horizon = horizon.max(at);
        }
        self.horizon = horizon;
        let spent = self.issue_at(issue, group.width as u32, extra_bubble, group.nops as u32);
        (region, spent)
    }

    /// Moves the clock past a group of `nops` `nop` slots that issues at
    /// cycle `issue`, occupies the ports `width` cycles and is followed
    /// by `extra_bubble` dead ones; returns the cycles spent.
    #[inline]
    fn issue_at(&mut self, issue: u64, width: u32, extra_bubble: u32, nops: u32) -> u64 {
        let after = issue + width as u64 + extra_bubble as u64;
        let spent = after - self.next_cycle;
        self.stalled += issue - self.next_cycle;
        self.bubbles += extra_bubble as u64;
        self.nops += nops as u64;
        self.next_cycle = after;
        spent
    }
}

/// The Itanium machine state and executor.
pub struct Machine {
    /// General registers (`r0` reads 0; writes to it are ignored).
    pub gr: [u64; NUM_GR as usize],
    /// NaT bits for the general registers.
    pub gr_nat: [bool; NUM_GR as usize],
    /// FP registers as raw 64-bit payloads (see [`crate::inst`] for the
    /// format conventions). `f0` = +0.0 and `f1` = +1.0 are enforced.
    pub fr: [u64; NUM_FR as usize],
    /// NaT-val bits for FP registers (speculative FP loads).
    pub fr_nat: [bool; NUM_FR as usize],
    /// Predicate registers (`p0` reads true).
    pub pr: [bool; NUM_PR as usize],
    /// Branch registers.
    pub br: [u64; NUM_BR as usize],
    /// Current bundle address.
    pub ip: u64,
    /// Current slot within the bundle.
    pub slot: u8,
    /// The code arena.
    pub arena: CodeArena,
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Instructions (slots, including predicated-off) executed.
    pub inst_count: u64,
    /// Cycles attributed per region id.
    pub region_cycles: HashMap<u32, u64>,
    /// Per region id, where its cycles went; each entry's
    /// [`CycleSplit::cycles`] is that region's `region_cycles`.
    pub region_split: HashMap<u32, CycleSplit>,
    /// Issue groups accounted in one step from a cached summary.
    pub summary_groups: u64,
    /// Slots retired in those groups (of `inst_count`).
    pub summary_slots: u64,
    /// Issue groups accounted slot by slot: cut short by a branch, a
    /// fault, the instruction limit or the arena's end, or without a
    /// summary.
    pub replayed_groups: u64,
    /// Per [`Tap::event`], the tapped slots' executions it counted.
    pub taps: [u64; Tap::EVENTS],
    timing: Timing,
    issue: IssueModel,
    /// The region of the groups issued since the issue model's split
    /// was last `split_mark`, whose cycles are not yet in
    /// `region_cycles` and `region_split`: consecutive groups almost
    /// always share a region, so the maps are touched on region changes
    /// and before `run` returns rather than once per group.
    region_pending: u32,
    split_mark: CycleSplit,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Machine {{ ip: {:#x}.{}, cycles: {}, insts: {} }}",
            self.ip, self.slot, self.cycles, self.inst_count
        )
    }
}

impl Machine {
    /// A fresh machine with the given arena and timing.
    pub fn new(arena: CodeArena, timing: Timing) -> Machine {
        let mut m = Machine {
            gr: [0; NUM_GR as usize],
            gr_nat: [false; NUM_GR as usize],
            fr: [0; NUM_FR as usize],
            fr_nat: [false; NUM_FR as usize],
            pr: [false; NUM_PR as usize],
            br: [0; NUM_BR as usize],
            ip: 0,
            slot: 0,
            arena,
            cycles: 0,
            inst_count: 0,
            region_cycles: HashMap::new(),
            region_split: HashMap::new(),
            summary_groups: 0,
            summary_slots: 0,
            replayed_groups: 0,
            taps: [0; Tap::EVENTS],
            timing,
            issue: IssueModel::new(&timing),
            region_pending: 0,
            split_mark: CycleSplit::default(),
        };
        m.fr[1] = 1.0f64.to_bits();
        m.pr[0] = true;
        m
    }

    /// The timing parameters.
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Adds `cycles` attributed to `region` (the translator charges its
    /// own translation overhead this way).
    pub fn charge(&mut self, region: u32, cycles: u64) {
        self.cycles += cycles;
        self.issue.advance(cycles);
        let split = CycleSplit {
            charged_cycles: cycles,
            ..CycleSplit::default()
        };
        self.add_region_cycles(region, split);
    }

    /// Sets the resume point.
    pub fn set_ip(&mut self, ip: u64, slot: u8) {
        self.ip = ip;
        self.slot = slot;
    }

    // ---- timing ---------------------------------------------------------

    /// Makes `region` the one the next groups' cycles are booked to.
    fn enter_region(&mut self, region: u32) {
        if region != self.region_pending {
            self.flush_region_cycles();
            self.region_pending = region;
        }
    }

    /// Books the cycles the issue model has spent since the last flush
    /// to the pending region. What was charged in between was booked
    /// where it was charged.
    fn flush_region_cycles(&mut self) {
        let now = self.issue.split();
        let split = CycleSplit {
            charged_cycles: 0,
            ..now - self.split_mark
        };
        self.split_mark = now;
        if split.cycles() > 0 {
            self.add_region_cycles(self.region_pending, split);
        }
    }

    /// Adds `split` to `region`'s entries of both per-region maps.
    fn add_region_cycles(&mut self, region: u32, split: CycleSplit) {
        let cycles = self.region_cycles.entry(region).or_default();
        *cycles += split.cycles();
        let total = self.region_split.entry(region).or_default();
        *total += split;
        debug_assert_eq!(
            total.cycles(),
            *cycles,
            "region {region}: issue + stall + bubble + charged cycles differ from its cycles"
        );
    }

    // ---- execution ------------------------------------------------------

    /// Runs until an external branch, fault, or `max_insts` slots.
    pub fn run(&mut self, bus: &mut dyn Bus, max_insts: u64) -> StopReason {
        let stop = self.run_slots(bus, max_insts);
        self.flush_region_cycles();
        stop
    }

    /// One iteration per issue group, execute then account: the slots
    /// run straight out of the arena, and the group is then issued in
    /// one step from its cached summary if all of it ran, slot by slot
    /// if it was cut short or has none. `exec_op` reads no cycle state
    /// and the bus cannot see the machine, so the order is unobservable.
    fn run_slots(&mut self, bus: &mut dyn Bus, max_insts: u64) -> StopReason {
        let mut executed = 0u64;
        loop {
            let Some(idx) = self.arena.index_of(self.ip) else {
                let t = self.ip;
                return StopReason::ExternalBranch { target: t, from: t };
            };
            let slot = self.slot as usize;
            let id = self.arena.group_id(idx, slot);
            let mut regs = Regs {
                gr: &mut self.gr,
                gr_nat: &mut self.gr_nat,
                fr: &mut self.fr,
                fr_nat: &mut self.fr_nat,
                pr: &mut self.pr,
                br: &mut self.br,
                ip: self.ip,
                slot: self.slot,
            };
            // At least one slot runs, whatever the limit.
            let budget = max_insts.saturating_sub(executed).max(1);
            let (n, end) = regs.exec_group(&self.arena, bus, idx, budget);
            (self.ip, self.slot) = (regs.ip, regs.slot);
            self.inst_count += n;
            executed += n;

            let (whole, bubble) = match end {
                GroupEnd::Stop => (true, 0),
                GroupEnd::Taken {
                    whole, indirect, ..
                } => (
                    whole,
                    if indirect {
                        self.timing.indirect_branch
                    } else {
                        self.timing.taken_branch
                    },
                ),
                GroupEnd::Fault(_) | GroupEnd::Cut => (false, 0),
            };
            let region = self.arena.tags[idx].region;
            self.enter_region(region);
            // Whether the group may carry a tap: its summary knows.
            let ((booked_to, _), tapped) = match self.arena.groups.get(id) {
                Some(group) if whole => {
                    debug_assert_eq!(group.slots as u64, n, "stale group summary");
                    self.summary_groups += 1;
                    self.summary_slots += n;
                    // A debug build also accounts every summarized group
                    // slot by slot, on a clone, and the two must agree.
                    let reference = cfg!(debug_assertions).then(|| {
                        let mut model = self.issue.clone();
                        self.arena.replay(&mut model, idx, slot, n);
                        let spent = model.close(bubble);
                        (model, spent)
                    });
                    let spent = self.issue.issue_group(group, region, bubble);
                    if let Some((model, want)) = reference {
                        assert!(
                            model.ready == self.issue.ready
                                && model.next_cycle == self.issue.next_cycle
                                && model.split() == self.issue.split()
                                && want == spent,
                            "group summary at {idx}.{slot} disagrees with per-slot accounting"
                        );
                    }
                    (spent, group.tapped)
                }
                _ => {
                    self.replayed_groups += 1;
                    self.arena.replay(&mut self.issue, idx, slot, n);
                    (self.issue.close(bubble), true)
                }
            };
            // A tap ends its group, so in a group that may carry one only
            // the last slot that ran (and did not fault) can be a tap.
            if tapped && !matches!(end, GroupEnd::Fault(_)) {
                self.count_tap(idx * 3 + slot + n as usize - 1);
            }
            debug_assert_eq!(
                booked_to, region,
                "a group's cycles belong to its first slot"
            );
            self.cycles = self.issue.now();

            match end {
                GroupEnd::Taken { from, .. } if self.arena.index_of(self.ip).is_none() => {
                    let target = self.ip;
                    return StopReason::ExternalBranch { target, from };
                }
                GroupEnd::Fault(fault) => {
                    return StopReason::Fault {
                        fault,
                        ip: self.ip,
                        slot: self.slot,
                    };
                }
                _ => {}
            }
            if executed >= max_insts {
                return StopReason::InstLimit;
            }
        }
    }

    /// Advances past the current (faulting) slot — used when the runtime
    /// emulates a misaligned access and resumes.
    pub fn skip_slot(&mut self) {
        next_slot(&mut self.ip, &mut self.slot);
    }

    /// Counts the tap on the slot at position `pos` (bundle index × 3 +
    /// slot), the last of its group to run, if it has one and ran with
    /// the tap's predicate value. The slot ended its group and writes no
    /// predicate it reads (`CodeArena::install` checks both), so its
    /// predicate still holds the value it ran with.
    fn count_tap(&mut self, pos: usize) {
        let (idx, slot) = (pos / 3, pos % 3);
        let code = self.arena.tags[idx].taps[slot];
        if code != 0 {
            let tap = Tap::decode(code);
            let qp = self.arena.bundles[idx].slots[slot].qp;
            self.taps[tap.event as usize] += u64::from(self.pr[qp.phys()] == tap.when);
        }
    }
}

/// Advances a resume point by one slot.
#[inline]
fn next_slot(ip: &mut u64, slot: &mut u8) {
    *slot += 1;
    if *slot == 3 {
        *slot = 0;
        *ip += Bundle::SIZE;
    }
}

/// How the execution of an issue group ended.
enum GroupEnd {
    /// The slot carrying the group's stop bit ran and fell through.
    Stop,
    /// A branch was taken to `regs.ip`.
    Taken {
        /// Address of the branching bundle.
        from: u64,
        /// The branch pays the indirect bubble, not the plain one.
        indirect: bool,
        /// The branching slot carries the group's stop bit, so the
        /// whole group ran.
        whole: bool,
    },
    /// The last slot counted faulted and did not execute; `regs.ip` and
    /// `regs.slot` name it.
    Fault(MachFault),
    /// Cut short by the slot budget or the arena's end.
    Cut,
}

/// The architectural registers and resume point of a [`Machine`],
/// borrowed apart from its arena so that slots execute in place, out of
/// the installed code.
struct Regs<'m> {
    gr: &'m mut [u64; NUM_GR as usize],
    gr_nat: &'m mut [bool; NUM_GR as usize],
    fr: &'m mut [u64; NUM_FR as usize],
    fr_nat: &'m mut [bool; NUM_FR as usize],
    pr: &'m mut [bool; NUM_PR as usize],
    br: &'m mut [u64; NUM_BR as usize],
    ip: u64,
    slot: u8,
}

impl Regs<'_> {
    fn rd_gr(&self, r: crate::regs::Gr) -> u64 {
        self.gr[r.phys()]
    }

    fn wr_gr(&mut self, r: crate::regs::Gr, v: u64, nat: bool) {
        let i = r.phys();
        if i != 0 {
            self.gr[i] = v;
            self.gr_nat[i] = nat;
        }
    }

    fn rd_fr_f64(&self, r: crate::regs::Fr) -> f64 {
        f64::from_bits(self.fr[r.phys()])
    }

    fn rd_fr_raw(&self, r: crate::regs::Fr) -> u64 {
        self.fr[r.phys()]
    }

    /// Packed-single read: registers f0/f1 read as broadcast 0.0/1.0, as
    /// the architecture defines for parallel FP.
    fn rd_fr_packed(&self, r: crate::regs::Fr) -> (f32, f32) {
        match r.phys() {
            0 => (0.0, 0.0),
            1 => (1.0, 1.0),
            i => {
                let raw = self.fr[i];
                (
                    f32::from_bits(raw as u32),
                    f32::from_bits((raw >> 32) as u32),
                )
            }
        }
    }

    fn wr_fr(&mut self, r: crate::regs::Fr, raw: u64, nat: bool) {
        let i = r.phys();
        if i > 1 {
            self.fr[i] = raw;
            self.fr_nat[i] = nat;
        }
    }

    fn wr_pr(&mut self, r: crate::regs::Pr, v: bool) {
        let i = r.phys();
        if i != 0 {
            self.pr[i] = v;
        }
    }

    fn gr_nat_of(&self, r: crate::regs::Gr) -> bool {
        self.gr_nat[r.phys()]
    }

    /// A register-or-immediate source: its value and NaT bit.
    fn src(&self, s: Src) -> (u64, bool) {
        match s {
            Src::Reg(r) => (self.rd_gr(r), self.gr_nat_of(r)),
            Src::Imm(imm) => (imm as u64, false),
        }
    }

    /// `d = a op b` for an ALU op; a NaT in either register taints `d`.
    #[inline(always)]
    fn alu(
        &mut self,
        d: crate::regs::Gr,
        a: Src,
        b: crate::regs::Gr,
        op: impl Fn(u64, u64) -> u64,
    ) {
        let (x, nat) = self.src(a);
        let v = op(x, self.rd_gr(b));
        self.wr_gr(d, v, nat || self.gr_nat_of(b));
    }

    /// Executes slots from `self.slot` of bundle `idx` (at `self.ip`)
    /// until the issue group they start ends — at its stop bit or a
    /// taken branch — or is cut short, running at most `budget` of
    /// them. Returns how many slots it counted and how it ended;
    /// `ip`/`slot` are left at the resume point.
    ///
    /// Inlined into the run loop by force: `exec_op` is inlined here,
    /// and as a call per group its register spills cost a tenth of
    /// `spec_int`'s run time.
    #[inline(always)]
    fn exec_group(
        &mut self,
        arena: &CodeArena,
        bus: &mut dyn Bus,
        mut idx: usize,
        budget: u64,
    ) -> (u64, GroupEnd) {
        let mut n = 0u64;
        while let Some(bundle) = arena.bundles.get(idx) {
            // The slots of this bundle, until control leaves it.
            loop {
                let slot = self.slot as usize;
                let inst = &bundle.slots[slot];
                n += 1;
                let taken = if self.pr[inst.qp.phys()] {
                    match self.exec_op(bus, &inst.op) {
                        Ok(taken) => taken,
                        Err(fault) => return (n, GroupEnd::Fault(fault)),
                    }
                } else {
                    None
                };
                let stop = bundle.stops[slot];
                if let Some(target) = taken {
                    let from = self.ip;
                    (self.ip, self.slot) = (target, 0);
                    let meta = arena.metas.get(arena.tags[idx].meta[slot], inst);
                    let end = GroupEnd::Taken {
                        from,
                        indirect: meta.indirect,
                        whole: stop,
                    };
                    return (n, end);
                }
                next_slot(&mut self.ip, &mut self.slot);
                if stop {
                    return (n, GroupEnd::Stop);
                }
                if n >= budget {
                    return (n, GroupEnd::Cut);
                }
                if self.slot == 0 {
                    break;
                }
            }
            idx += 1;
        }
        (n, GroupEnd::Cut)
    }

    fn mem_read(
        &mut self,
        bus: &mut dyn Bus,
        addr: u64,
        size: u8,
        spec: bool,
    ) -> Result<Option<u64>, MachFault> {
        if !addr.is_multiple_of(size as u64) {
            if spec {
                return Ok(None); // deferred to NaT
            }
            return Err(MachFault::Misalign {
                addr,
                size,
                write: false,
            });
        }
        match bus.read(addr, size as u32) {
            Ok(v) => Ok(Some(v)),
            Err(e) if spec => {
                let _ = e;
                Ok(None)
            }
            Err(err) => Err(MachFault::Bus {
                err,
                addr,
                write: false,
            }),
        }
    }

    fn mem_write(
        &mut self,
        bus: &mut dyn Bus,
        addr: u64,
        size: u8,
        val: u64,
    ) -> Result<(), MachFault> {
        if !addr.is_multiple_of(size as u64) {
            return Err(MachFault::Misalign {
                addr,
                size,
                write: true,
            });
        }
        bus.write(addr, size as u32, val)
            .map_err(|err| MachFault::Bus {
                err,
                addr,
                write: true,
            })
    }

    /// Executes one operation; returns a taken-branch target if any.
    fn exec_op(&mut self, bus: &mut dyn Bus, op: &Op) -> Result<Option<u64>, MachFault> {
        use Op::*;
        // Integer ops propagate NaT from their GR sources.
        let nat2 = |m: &Regs<'_>, a, b| m.gr_nat_of(a) || m.gr_nat_of(b);
        match *op {
            Add { d, a, b } => self.alu(d, a, b, u64::wrapping_add),
            Sub { d, a, b } => self.alu(d, a, b, u64::wrapping_sub),
            And { d, a, b } => self.alu(d, a, b, |x, y| x & y),
            Or { d, a, b } => self.alu(d, a, b, |x, y| x | y),
            Xor { d, a, b } => self.alu(d, a, b, |x, y| x ^ y),
            AndCm { d, a, b } => self.alu(d, a, b, |x, y| x & !y),
            Shladd { d, a, count, b } => {
                let v = (self.rd_gr(a) << count).wrapping_add(self.rd_gr(b));
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Cmp { rel, pt, pf, a, b } => {
                let (x, nat) = self.src(a);
                if nat || self.gr_nat_of(b) {
                    self.wr_pr(pt, false);
                    self.wr_pr(pf, false);
                } else {
                    let r = rel.eval(x, self.rd_gr(b));
                    self.wr_pr(pt, r);
                    self.wr_pr(pf, !r);
                }
            }
            Tbit { pt, pf, r, pos } => {
                if self.gr_nat_of(r) {
                    self.wr_pr(pt, false);
                    self.wr_pr(pf, false);
                } else {
                    let bit = (self.rd_gr(r) >> pos) & 1 != 0;
                    self.wr_pr(pt, bit);
                    self.wr_pr(pf, !bit);
                }
            }
            Padd { sub, sz, d, a, b } => {
                let v = lanewise(self.rd_gr(a), self.rd_gr(b), sz, |x, y| {
                    if sub {
                        x.wrapping_sub(y)
                    } else {
                        x.wrapping_add(y)
                    }
                });
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Pmpy2 { d, a, b } => {
                let v = lanewise(self.rd_gr(a), self.rd_gr(b), 2, |x, y| {
                    ((x as u16 as i16 as i32).wrapping_mul(y as u16 as i16 as i32)) as u32
                });
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Shift { kind, d, a, count } => {
                let (n, nat) = self.src(count);
                let x = self.rd_gr(a);
                let v = match kind {
                    ShiftKind::Shl if n >= 64 => 0,
                    ShiftKind::Shl => x << n,
                    ShiftKind::Shr => shr64(x, n, true),
                    ShiftKind::ShrU => shr64(x, n, false),
                };
                self.wr_gr(d, v, self.gr_nat_of(a) || nat);
            }
            Extr {
                d,
                a,
                pos,
                len,
                signed,
            } => {
                let raw = self.rd_gr(a) >> pos;
                let v = if len >= 64 {
                    raw
                } else if signed {
                    let shift = 64 - len;
                    (((raw << shift) as i64) >> shift) as u64
                } else {
                    raw & ((1u64 << len) - 1)
                };
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            Dep {
                d,
                src,
                target,
                pos,
                len,
            } => {
                let mask = if len >= 64 {
                    u64::MAX
                } else {
                    (1u64 << len) - 1
                };
                let v = (self.rd_gr(target) & !(mask << pos)) | ((self.rd_gr(src) & mask) << pos);
                self.wr_gr(d, v, nat2(self, src, target));
            }
            DepZ { d, src, pos, len } => {
                let mask = if len >= 64 {
                    u64::MAX
                } else {
                    (1u64 << len) - 1
                };
                let v = (self.rd_gr(src) & mask) << pos;
                self.wr_gr(d, v, self.gr_nat_of(src));
            }
            Xt { signed, d, a, size } => {
                // Both extensions, then a pick: the width and the kind
                // vary slot to slot, so a branch on them mispredicts.
                let v = self.rd_gr(a);
                let (zxt, sxt) = match size {
                    1 => (v as u8 as u64, v as i8 as u64),
                    2 => (v as u16 as u64, v as i16 as u64),
                    _ => (v as u32 as u64, v as i32 as u64),
                };
                self.wr_gr(d, if signed { sxt } else { zxt }, self.gr_nat_of(a));
            }
            Popcnt { d, a } => {
                let v = self.rd_gr(a).count_ones() as u64;
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            MovToBr { b, r } => {
                if self.gr_nat_of(r) {
                    return Err(MachFault::NatConsumption);
                }
                self.br[b.phys()] = self.rd_gr(r);
            }
            MovFromBr { d, b } => {
                let v = self.br[b.phys()];
                self.wr_gr(d, v, false);
            }
            MovFromIp { d } => self.wr_gr(d, self.ip, false),
            Movl { d, imm } => self.wr_gr(d, imm, false),
            Ld { sz, d, addr, spec } => {
                if self.gr_nat_of(addr) {
                    if spec {
                        self.wr_gr(d, 0, true);
                        return Ok(None);
                    }
                    return Err(MachFault::NatConsumption);
                }
                let a = self.rd_gr(addr);
                match self.mem_read(bus, a, sz, spec)? {
                    Some(v) => self.wr_gr(d, v, false),
                    None => self.wr_gr(d, 0, true),
                }
            }
            St { sz, addr, val } => {
                if self.gr_nat_of(addr) || self.gr_nat_of(val) {
                    return Err(MachFault::NatConsumption);
                }
                let a = self.rd_gr(addr);
                let v = self.rd_gr(val);
                let v = if sz == 8 {
                    v
                } else {
                    v & ((1u64 << (sz as u32 * 8)) - 1)
                };
                self.mem_write(bus, a, sz, v)?;
            }
            ChkS { r, target } => {
                if self.gr_nat_of(r) {
                    return Ok(Some(resolve(target, self.br)));
                }
            }
            Ldf { fmt, f, addr, spec } => {
                if self.gr_nat_of(addr) {
                    if spec {
                        self.wr_fr(f, 0, true);
                        return Ok(None);
                    }
                    return Err(MachFault::NatConsumption);
                }
                let a = self.rd_gr(addr);
                let read = self.mem_read(bus, a, fmt.bytes() as u8, spec)?;
                match read {
                    Some(raw) => {
                        let bits = match fmt {
                            FFmt::S => (f32::from_bits(raw as u32) as f64).to_bits(),
                            FFmt::D | FFmt::Raw => raw,
                        };
                        self.wr_fr(f, bits, false);
                    }
                    None => self.wr_fr(f, 0, true),
                }
            }
            Stf { fmt, f, addr } => {
                if self.gr_nat_of(addr) || self.fr_nat[f.phys()] {
                    return Err(MachFault::NatConsumption);
                }
                let a = self.rd_gr(addr);
                let raw = self.rd_fr_raw(f);
                match fmt {
                    FFmt::S => {
                        let bits = (f64::from_bits(raw) as f32).to_bits() as u64;
                        self.mem_write(bus, a, 4, bits)?;
                    }
                    FFmt::D | FFmt::Raw => self.mem_write(bus, a, 8, raw)?,
                }
            }
            Setf { kind, f, r } => {
                if self.gr_nat_of(r) {
                    return Err(MachFault::NatConsumption);
                }
                let v = self.rd_gr(r);
                let bits = match kind {
                    FXfer::Sig | FXfer::D => v,
                    FXfer::S => (f32::from_bits(v as u32) as f64).to_bits(),
                };
                self.wr_fr(f, bits, false);
            }
            Getf { kind, d, f } => {
                if self.fr_nat[f.phys()] {
                    return Err(MachFault::NatConsumption);
                }
                let raw = self.rd_fr_raw(f);
                let v = match kind {
                    FXfer::Sig | FXfer::D => raw,
                    FXfer::S => (f64::from_bits(raw) as f32).to_bits() as u64,
                };
                self.wr_gr(d, v, false);
            }
            Mf => {}
            Fma { kind, d, a, b, c } => {
                let (x, y) = (self.rd_fr_f64(a), self.rd_fr_f64(b));
                let v = if kind == FmaKind::Fma && c.phys() == 0 {
                    // `fma d = a, b, f0` is the `fmpy` pseudo-op: a pure
                    // multiply (adding +0 would destroy a -0 product).
                    // `fms` and `fnma` have no such form.
                    x * y
                } else {
                    let (nx, nz) = fma_signs(kind, SIGN);
                    let z = self.rd_fr_f64(c);
                    f64::from_bits(x.to_bits() ^ nx).mul_add(y, f64::from_bits(z.to_bits() ^ nz))
                };
                self.wr_fr(d, v.to_bits(), false);
            }
            Fminmax {
                max,
                parallel,
                d,
                a,
                b,
            } => {
                // `b` on NaN or a tie, as SSE `MINSS`/`MAXSS` do.
                fn pick<T: PartialOrd>(max: bool, x: T, y: T) -> T {
                    if (max && x > y) || (!max && x < y) {
                        x
                    } else {
                        y
                    }
                }
                let v = if parallel {
                    let (a0, a1) = self.rd_fr_packed(a);
                    let (b0, b1) = self.rd_fr_packed(b);
                    let lo = pick(max, a0, b0).to_bits() as u64;
                    let hi = pick(max, a1, b1).to_bits() as u64;
                    lo | (hi << 32)
                } else {
                    pick(max, self.rd_fr_f64(a), self.rd_fr_f64(b)).to_bits()
                };
                self.wr_fr(d, v, false);
            }
            Fcmp { rel, pt, pf, a, b } => {
                let r = rel.eval(self.rd_fr_f64(a), self.rd_fr_f64(b));
                self.wr_pr(pt, r);
                self.wr_pr(pf, !r);
            }
            FcvtFx { d, a, trunc } => {
                let v = self.rd_fr_f64(a);
                let i: i64 =
                    if v.is_nan() || !(-9.223372036854776e18..9.223372036854776e18).contains(&v) {
                        i64::MIN
                    } else if trunc {
                        v as i64
                    } else {
                        v.round_ties_even() as i64
                    };
                self.wr_fr(d, i as u64, false);
            }
            FcvtXf { d, a } => {
                let v = self.rd_fr_raw(a) as i64 as f64;
                self.wr_fr(d, v.to_bits(), false);
            }
            Fmerge { neg, d, a, b } => {
                let sign = (self.rd_fr_raw(a) ^ if neg { SIGN } else { 0 }) & SIGN;
                self.wr_fr(d, sign | (self.rd_fr_raw(b) & !SIGN), false);
            }
            Frcpa { d, p, a, b } => {
                let (x, y) = (self.rd_fr_f64(a), self.rd_fr_f64(b));
                if x.is_nan()
                    || y.is_nan()
                    || x.is_infinite()
                    || y.is_infinite()
                    || x == 0.0
                    || y == 0.0
                {
                    // Special operands: deliver the IEEE quotient, clear p.
                    self.wr_fr(d, (x / y).to_bits(), false);
                    self.wr_pr(p, false);
                } else {
                    let approx = trunc_mantissa((1.0 / y).to_bits(), 40);
                    self.wr_fr(d, approx, false);
                    self.wr_pr(p, true);
                }
            }
            Frsqrta { d, p, a } => {
                let x = self.rd_fr_f64(a);
                if x.is_nan() || x <= 0.0 || x.is_infinite() {
                    self.wr_fr(d, x.sqrt().to_bits(), false);
                    self.wr_pr(p, false);
                } else {
                    let approx = trunc_mantissa((1.0 / x.sqrt()).to_bits(), 40);
                    self.wr_fr(d, approx, false);
                    self.wr_pr(p, true);
                }
            }
            Fsqrt { d, a } => {
                let v = self.rd_fr_f64(a).sqrt();
                self.wr_fr(d, v.to_bits(), false);
            }
            FnormS { d, a } => {
                let v = self.rd_fr_f64(a) as f32 as f64;
                self.wr_fr(d, v.to_bits(), false);
            }
            Fpma { kind, d, a, b, c } => {
                let (a0, a1) = self.rd_fr_packed(a);
                let (b0, b1) = self.rd_fr_packed(b);
                let (c0, c1) = self.rd_fr_packed(c);
                // The `fpmpy` pseudo-op and the sign flips of `Fma`.
                let fpmpy = kind == FmaKind::Fma && c.phys() == 0;
                let (nx, nz) = fma_signs(kind, 1 << 31);
                let (nx, nz) = (nx as u32, nz as u32);
                let lane = |x: f32, y: f32, z: f32| {
                    let v = if fpmpy {
                        x * y
                    } else {
                        f32::from_bits(x.to_bits() ^ nx)
                            .mul_add(y, f32::from_bits(z.to_bits() ^ nz))
                    };
                    v.to_bits() as u64
                };
                self.wr_fr(d, lane(a0, b0, c0) | (lane(a1, b1, c1) << 32), false);
            }
            Fpdiv { d, a, b } => {
                let (a0, a1) = self.rd_fr_packed(a);
                let (b0, b1) = self.rd_fr_packed(b);
                let lo = (a0 / b0).to_bits() as u64;
                let hi = (a1 / b1).to_bits() as u64;
                self.wr_fr(d, lo | (hi << 32), false);
            }
            Xma { d, a, b, c, high } => {
                let (x, y, z) = (
                    self.rd_fr_raw(a) as u128,
                    self.rd_fr_raw(b) as u128,
                    self.rd_fr_raw(c) as u128,
                );
                let p = x.wrapping_mul(y).wrapping_add(z);
                let v = if high { (p >> 64) as u64 } else { p as u64 };
                self.wr_fr(d, v, false);
            }
            Br { target } => return Ok(Some(resolve(target, self.br))),
            BrCall { b_save, target } => {
                let ret = self.ip + Bundle::SIZE;
                let t = resolve(target, self.br);
                self.br[b_save.phys()] = ret;
                return Ok(Some(t));
            }
            BrRet { b } => return Ok(Some(self.br[b.phys()])),
            Nop { .. } => {}
        }
        Ok(None)
    }
}

const SIGN: u64 = 1 << 63;

/// What makes an `fma` an `fms` (the addend's sign flipped) or an
/// `fnma` (the product's), as `(product, addend)` masks on a float whose
/// sign bit is `sign`: FP code interleaves the three, and a dispatch on
/// the kind would mispredict where a flip costs nothing.
fn fma_signs(kind: FmaKind, sign: u64) -> (u64, u64) {
    match kind {
        FmaKind::Fma => (0, 0),
        FmaKind::Fms => (0, sign),
        FmaKind::Fnma => (sign, 0),
    }
}

fn resolve(t: Target, br: &[u64; NUM_BR as usize]) -> u64 {
    match t {
        Target::Abs(a) => a,
        Target::Reg(b) => br[b.phys()],
        Target::Label(l) => panic!("unpatched label L{l} reached execution"),
    }
}

fn shr64(v: u64, count: u64, signed: bool) -> u64 {
    if count >= 64 {
        if signed && (v as i64) < 0 {
            u64::MAX
        } else {
            0
        }
    } else if signed {
        ((v as i64) >> count) as u64
    } else {
        v >> count
    }
}

fn lanewise(a: u64, b: u64, lane_bytes: u8, f: impl Fn(u32, u32) -> u32) -> u64 {
    let bits = lane_bytes as u32 * 8;
    let lanes = 64 / bits;
    let mask = if bits == 32 {
        u32::MAX as u64
    } else {
        (1u64 << bits) - 1
    };
    let mut out = 0u64;
    for i in 0..lanes {
        let sh = i * bits;
        let x = ((a >> sh) & mask) as u32;
        let y = ((b >> sh) & mask) as u32;
        out |= ((f(x, y) as u64) & mask) << sh;
    }
    out
}

/// Clears the low `bits` mantissa bits of an `f64` bit pattern
/// (simulates the limited precision of `frcpa`/`frsqrta` deterministically).
fn trunc_mantissa(bits: u64, low_bits: u32) -> u64 {
    bits & !((1u64 << low_bits) - 1)
}

/// A trivial in-memory [`Bus`] for unit tests.
#[derive(Debug, Default)]
pub struct VecBus {
    /// Backing storage (address 0-based).
    pub data: Vec<u8>,
}

impl VecBus {
    /// A bus with `size` zero bytes.
    pub fn new(size: usize) -> VecBus {
        VecBus {
            data: vec![0; size],
        }
    }
}

impl Bus for VecBus {
    fn read(&mut self, addr: u64, size: u32) -> Result<u64, BusError> {
        let mut v = 0u64;
        for i in 0..size as u64 {
            let b = *self
                .data
                .get((addr + i) as usize)
                .ok_or(BusError::Unmapped)?;
            v |= (b as u64) << (i * 8);
        }
        Ok(v)
    }

    fn write(&mut self, addr: u64, size: u32, val: u64) -> Result<(), BusError> {
        for i in 0..size as u64 {
            let slot = self
                .data
                .get_mut((addr + i) as usize)
                .ok_or(BusError::Unmapped)?;
            *slot = (val >> (i * 8)) as u8;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{CodeBuilder, Label, LabelAddrs};
    use crate::inst::CmpRel;
    use crate::regs::*;

    const BASE: u64 = 0x10000;

    fn build(f: impl FnOnce(&mut CodeBuilder)) -> Machine {
        let mut cb = CodeBuilder::new();
        f(&mut cb);
        // Exit by branching to an external address.
        cb.push(Op::Br {
            target: Target::Abs(0xDEAD0000),
        });
        let (bundles, _) = cb.assemble(BASE);
        let mut arena = CodeArena::new(BASE);
        arena.append(bundles, 0);
        let mut m = Machine::new(arena, Timing::default());
        m.set_ip(BASE, 0);
        m
    }

    fn run(m: &mut Machine) -> StopReason {
        let mut bus = VecBus::new(0x1000);
        m.run(&mut bus, 100_000)
    }

    #[test]
    fn alu_and_movl() {
        let mut m = build(|cb| {
            cb.push(Op::Movl {
                d: Gr(32),
                imm: 0x1234_5678_9ABC_DEF0,
            });
            cb.stop();
            cb.push(Op::Add {
                d: Gr(33),
                a: Src::Imm(0x10),
                b: Gr(32),
            });
            cb.stop();
            cb.push(Op::Sub {
                d: Gr(34),
                a: Src::Reg(Gr(33)),
                b: Gr(32),
            });
            cb.stop();
        });
        let r = run(&mut m);
        assert!(matches!(
            r,
            StopReason::ExternalBranch {
                target: 0xDEAD0000,
                ..
            }
        ));
        assert_eq!(m.gr[32], 0x1234_5678_9ABC_DEF0);
        assert_eq!(m.gr[33], 0x1234_5678_9ABC_DF00);
        assert_eq!(m.gr[34], 0x10);
    }

    #[test]
    fn r0_reads_zero_writes_ignored() {
        let mut m = build(|cb| {
            cb.push(Op::Add {
                d: Gr(0),
                a: Src::Imm(99),
                b: R0,
            });
            cb.stop();
            cb.push(Op::Add {
                d: Gr(32),
                a: Src::Reg(R0),
                b: R0,
            });
            cb.stop();
        });
        run(&mut m);
        assert_eq!(m.gr[0], 0);
        assert_eq!(m.gr[32], 0);
    }

    /// What a reg/imm or sub-opcode form of a folded op computes, down
    /// to its NaT bit and the `f0` addend.
    #[test]
    fn folded_forms_keep_their_semantics() {
        let mut m = build(|cb| {
            // r40 carries a NaT, r39 holds 7.
            let (imm, r39) = (Src::Imm, Src::Reg(Gr(39)));
            cb.push(Op::Sub {
                d: Gr(50),
                a: imm(10),
                b: Gr(39),
            });
            cb.push(Op::Sub {
                d: Gr(51),
                a: r39,
                b: Gr(40),
            });
            cb.push(Op::Add {
                d: Gr(52),
                a: imm(5),
                b: Gr(40),
            });
            cb.stop();
            cb.push(Op::Cmp {
                rel: CmpRel::Eq,
                pt: Pr(1),
                pf: Pr(2),
                a: Src::Imm(0),
                b: Gr(40),
            });
            cb.push(Op::Shift {
                kind: ShiftKind::Shl,
                d: Gr(53),
                a: Gr(39),
                count: Src::Imm(64),
            });
            cb.push(Op::Shift {
                kind: ShiftKind::Shr,
                d: Gr(54),
                a: Gr(39),
                count: Src::Reg(Gr(40)),
            });
            cb.stop();
            cb.push(Op::Movl {
                d: Gr(42),
                imm: (-1.0f64).to_bits(),
            });
            cb.stop();
            cb.push(Op::Setf {
                kind: FXfer::D,
                f: Fr(32),
                r: Gr(42),
            });
            cb.stop();
            // -1 × +0 is -0: `fma` with `f0` is `fmpy` and keeps it;
            // `fnma` has no such form, so -(1 × +0) + 0 is +0.
            let fma = |kind, d, a| Op::Fma {
                kind,
                d: Fr(d),
                a,
                b: F0,
                c: F0,
            };
            cb.push(fma(FmaKind::Fma, 33, Fr(32)));
            cb.push(fma(FmaKind::Fnma, 34, F1));
            cb.stop();
        });
        (m.gr[39], m.gr_nat[40]) = (7, true);
        (m.pr[1], m.pr[2]) = (true, true);
        run(&mut m);
        assert_eq!((m.gr[50], m.gr_nat[50]), (3, false), "sub imm is imm - r");
        assert!(
            m.gr_nat[51] && m.gr_nat[52],
            "a NaT source taints either form"
        );
        assert!(!m.pr[1] && !m.pr[2], "a NaT compare clears both predicates");
        assert_eq!(m.gr[53], 0, "a count of 64 shifts everything out");
        assert!(m.gr_nat[54], "a NaT count taints the shift");
        assert_eq!(m.fr[33], (-0.0f64).to_bits());
        assert_eq!(m.fr[34], 0.0f64.to_bits());
    }

    #[test]
    fn predication_gates_execution() {
        let mut m = build(|cb| {
            cb.push(Op::Cmp {
                rel: CmpRel::Eq,
                pt: Pr(1),
                pf: Pr(2),
                a: Src::Imm(0),
                b: R0,
            });
            cb.stop();
            cb.push_pred(
                Pr(1),
                Op::Add {
                    d: Gr(32),
                    a: Src::Imm(11),
                    b: R0,
                },
            );
            cb.push_pred(
                Pr(2),
                Op::Add {
                    d: Gr(33),
                    a: Src::Imm(22),
                    b: R0,
                },
            );
            cb.stop();
        });
        run(&mut m);
        assert_eq!(m.gr[32], 11, "true-predicated executed");
        assert_eq!(m.gr[33], 0, "false-predicated skipped");
    }

    #[test]
    fn memory_and_misalignment() {
        let mut m = build(|cb| {
            cb.push(Op::Add {
                d: Gr(32),
                a: Src::Imm(0x100),
                b: R0,
            });
            cb.stop();
            cb.push(Op::Movl {
                d: Gr(33),
                imm: 0xAABBCCDD,
            });
            cb.stop();
            cb.push(Op::St {
                sz: 4,
                addr: Gr(32),
                val: Gr(33),
            });
            cb.stop();
            cb.push(Op::Ld {
                sz: 4,
                d: Gr(34),
                addr: Gr(32),
                spec: false,
            });
            cb.stop();
            // Misaligned access: 0x101.
            cb.push(Op::Add {
                d: Gr(35),
                a: Src::Imm(0x101),
                b: R0,
            });
            cb.stop();
            cb.push(Op::Ld {
                sz: 4,
                d: Gr(36),
                addr: Gr(35),
                spec: false,
            });
            cb.stop();
        });
        let r = run(&mut m);
        assert_eq!(m.gr[34], 0xAABBCCDD);
        match r {
            StopReason::Fault {
                fault: MachFault::Misalign { addr, size, write },
                ..
            } => {
                assert_eq!(addr, 0x101);
                assert_eq!(size, 4);
                assert!(!write);
            }
            other => panic!("expected misalign fault, got {other:?}"),
        }
    }

    #[test]
    fn speculative_load_defers_and_chk_branches() {
        let mut m = build(|cb| {
            // ld.s from unmapped address -> NaT, then chk.s branches to
            // recovery, which sets r40 = 7.
            let recovery = cb.label();
            let done = cb.label();
            cb.push(Op::Movl {
                d: Gr(32),
                imm: 0xFFFF_0000,
            });
            cb.stop();
            cb.push(Op::Ld {
                sz: 8,
                d: Gr(33),
                addr: Gr(32),
                spec: true,
            });
            cb.stop();
            cb.push(Op::ChkS {
                r: Gr(33),
                target: Target::Label(recovery.0),
            });
            cb.push(Op::Br {
                target: Target::Label(done.0),
            });
            cb.bind(recovery);
            cb.push(Op::Add {
                d: Gr(40),
                a: Src::Imm(7),
                b: R0,
            });
            cb.stop();
            cb.bind(done);
        });
        run(&mut m);
        assert!(m.gr_nat[33], "speculative load set NaT");
        assert_eq!(m.gr[40], 7, "recovery code ran");
    }

    #[test]
    fn fp_basics() {
        let mut m = build(|cb| {
            // f32 = 2.0 * 3.0 + 1.0 via fma.
            cb.push(Op::Movl {
                d: Gr(32),
                imm: 2.0f64.to_bits(),
            });
            cb.push(Op::Movl {
                d: Gr(33),
                imm: 3.0f64.to_bits(),
            });
            cb.stop();
            cb.push(Op::Setf {
                kind: FXfer::D,
                f: Fr(32),
                r: Gr(32),
            });
            cb.push(Op::Setf {
                kind: FXfer::D,
                f: Fr(33),
                r: Gr(33),
            });
            cb.stop();
            cb.push(Op::Fma {
                kind: FmaKind::Fma,
                d: Fr(34),
                a: Fr(32),
                b: Fr(33),
                c: F1,
            });
            cb.stop();
            cb.push(Op::Getf {
                kind: FXfer::D,
                d: Gr(34),
                f: Fr(34),
            });
            cb.stop();
        });
        run(&mut m);
        assert_eq!(f64::from_bits(m.gr[34]), 7.0);
    }

    #[test]
    fn frcpa_division_sequence_is_exact() {
        // The full Newton-Raphson + Markstein correction sequence the
        // FDIV template emits must produce exactly a/b.
        let cases: &[(f64, f64)] = &[
            (1.0, 3.0),
            (2.0, 7.0),
            (-5.5, 1.25),
            (1e300, 3.7),
            (1.0, 0.1),
            (123456789.0, 0.000987654321),
            (6.0, 3.0),
            (f64::MIN_POSITIVE, 3.0),
        ];
        for &(a, b) in cases {
            let mut m = build(|cb| {
                cb.push(Op::Movl {
                    d: Gr(32),
                    imm: a.to_bits(),
                });
                cb.push(Op::Movl {
                    d: Gr(33),
                    imm: b.to_bits(),
                });
                cb.stop();
                cb.push(Op::Setf {
                    kind: FXfer::D,
                    f: Fr(32),
                    r: Gr(32),
                });
                cb.push(Op::Setf {
                    kind: FXfer::D,
                    f: Fr(33),
                    r: Gr(33),
                });
                cb.stop();
                emit_fdiv(cb, Fr(40), Fr(32), Fr(33), Pr(1), Fr(41), Fr(42));
                cb.push(Op::Getf {
                    kind: FXfer::D,
                    d: Gr(40),
                    f: Fr(40),
                });
                cb.stop();
            });
            run(&mut m);
            assert_eq!(
                f64::from_bits(m.gr[40]),
                a / b,
                "frcpa sequence mismatch for {a} / {b}"
            );
        }
    }

    /// Reference FDIV sequence used by the translator templates (tested
    /// here against IEEE division).
    pub fn emit_fdiv(cb: &mut CodeBuilder, d: Fr, a: Fr, b: Fr, p: Pr, t1: Fr, t2: Fr) {
        let fma = |kind, d, a, b, c| Op::Fma { kind, d, a, b, c };
        use FmaKind::{Fma, Fnma};
        // d = approx 1/b (or the final special result, with p cleared).
        cb.push(Op::Frcpa { d, p, a, b });
        cb.stop();
        // Three NR iterations: y <- y + y*(1 - b*y).
        for _ in 0..3 {
            cb.push_pred(p, fma(Fnma, t1, b, d, F1));
            cb.stop();
            cb.push_pred(p, fma(Fma, d, d, t1, d));
            cb.stop();
        }
        // q0 = a*y; r = a - b*q0; q = q0 + r*y (Markstein correction).
        cb.push_pred(p, fma(Fma, t2, a, d, F0));
        cb.stop();
        cb.push_pred(p, fma(Fnma, t1, b, t2, a));
        cb.stop();
        cb.push_pred(p, fma(Fma, d, t1, d, t2));
        cb.stop();
    }

    #[test]
    fn frcpa_special_cases() {
        for (a, b) in [(1.0f64, 0.0f64), (0.0, 5.0), (f64::INFINITY, 2.0)] {
            let mut m = build(|cb| {
                cb.push(Op::Movl {
                    d: Gr(32),
                    imm: a.to_bits(),
                });
                cb.push(Op::Movl {
                    d: Gr(33),
                    imm: b.to_bits(),
                });
                cb.stop();
                cb.push(Op::Setf {
                    kind: FXfer::D,
                    f: Fr(32),
                    r: Gr(32),
                });
                cb.push(Op::Setf {
                    kind: FXfer::D,
                    f: Fr(33),
                    r: Gr(33),
                });
                cb.stop();
                tests::emit_fdiv(cb, Fr(40), Fr(32), Fr(33), Pr(1), Fr(41), Fr(42));
                cb.push(Op::Getf {
                    kind: FXfer::D,
                    d: Gr(40),
                    f: Fr(40),
                });
                cb.stop();
            });
            run(&mut m);
            let got = f64::from_bits(m.gr[40]);
            let want = a / b;
            assert!(
                got == want || (got.is_nan() && want.is_nan()),
                "special case {a}/{b}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn packed_fp_lanes() {
        let lo = 1.5f32.to_bits() as u64;
        let hi = (2.5f32.to_bits() as u64) << 32;
        let mut m = build(|cb| {
            cb.push(Op::Movl {
                d: Gr(32),
                imm: lo | hi,
            });
            cb.stop();
            cb.push(Op::Setf {
                kind: FXfer::Sig,
                f: Fr(32),
                r: Gr(32),
            });
            cb.stop();
            // Packed add with itself: fpma d = a, f1, a.
            cb.push(Op::Fpma {
                kind: FmaKind::Fma,
                d: Fr(33),
                a: Fr(32),
                b: F1,
                c: Fr(32),
            });
            cb.stop();
            cb.push(Op::Getf {
                kind: FXfer::Sig,
                d: Gr(33),
                f: Fr(33),
            });
            cb.stop();
        });
        run(&mut m);
        let raw = m.gr[33];
        assert_eq!(f32::from_bits(raw as u32), 3.0);
        assert_eq!(f32::from_bits((raw >> 32) as u32), 5.0);
    }

    #[test]
    fn xma_integer_multiply() {
        let mut m = build(|cb| {
            cb.push(Op::Movl {
                d: Gr(32),
                imm: 0xFFFF_FFFF,
            });
            cb.push(Op::Movl {
                d: Gr(33),
                imm: 0x1_0001,
            });
            cb.stop();
            cb.push(Op::Setf {
                kind: FXfer::Sig,
                f: Fr(32),
                r: Gr(32),
            });
            cb.push(Op::Setf {
                kind: FXfer::Sig,
                f: Fr(33),
                r: Gr(33),
            });
            cb.stop();
            cb.push(Op::Xma {
                d: Fr(34),
                a: Fr(32),
                b: Fr(33),
                c: F0,
                high: false,
            });
            cb.stop();
            cb.push(Op::Getf {
                kind: FXfer::Sig,
                d: Gr(34),
                f: Fr(34),
            });
            cb.stop();
        });
        run(&mut m);
        assert_eq!(m.gr[34], 0xFFFF_FFFFu64 * 0x1_0001);
    }

    #[test]
    fn call_and_return() {
        let mut m = build(|cb| {
            let func = cb.label();
            let after = cb.label();
            cb.push(Op::BrCall {
                b_save: Br(1),
                target: Target::Label(func.0),
            });
            cb.bind(after);
            cb.push(Op::Add {
                d: Gr(33),
                a: Src::Imm(1),
                b: Gr(32),
            });
            cb.stop();
            let done = cb.label();
            cb.push(Op::Br {
                target: Target::Label(done.0),
            });
            cb.bind(func);
            cb.push(Op::Add {
                d: Gr(32),
                a: Src::Imm(41),
                b: R0,
            });
            cb.stop();
            cb.push(Op::BrRet { b: Br(1) });
            cb.bind(done);
        });
        run(&mut m);
        assert_eq!(m.gr[33], 42);
    }

    #[test]
    fn cycles_accumulate_with_stalls() {
        // A dependent load-use chain must cost more than independent adds.
        let mut dependent = build(|cb| {
            cb.push(Op::Add {
                d: Gr(32),
                a: Src::Imm(0x100),
                b: R0,
            });
            cb.stop();
            for _ in 0..10 {
                cb.push(Op::Ld {
                    sz: 8,
                    d: Gr(33),
                    addr: Gr(32),
                    spec: false,
                });
                cb.stop();
                cb.push(Op::Add {
                    d: Gr(34),
                    a: Src::Imm(1),
                    b: Gr(33),
                });
                cb.stop();
            }
        });
        run(&mut dependent);
        let dep_cycles = dependent.cycles;

        let mut independent = build(|cb| {
            for i in 0..20u16 {
                cb.push(Op::Add {
                    d: Gr(32 + (i % 8)),
                    a: Src::Imm(1),
                    b: R0,
                });
            }
            cb.stop();
        });
        run(&mut independent);
        assert!(
            dep_cycles > independent.cycles * 2,
            "dep {dep_cycles} vs indep {}",
            independent.cycles
        );
    }

    #[test]
    fn region_cycle_attribution() {
        let mut cb1 = CodeBuilder::new();
        for _ in 0..30 {
            cb1.push(Op::Add {
                d: Gr(32),
                a: Src::Imm(1),
                b: Gr(32),
            });
            cb1.stop();
        }
        cb1.push(Op::Br {
            target: Target::Abs(0xDEAD0000),
        });
        let (b1, _) = cb1.assemble(BASE);
        let mut arena = CodeArena::new(BASE);
        arena.append(b1, 7);
        let mut m = Machine::new(arena, Timing::default());
        m.set_ip(BASE, 0);
        let mut bus = VecBus::new(16);
        m.run(&mut bus, 10_000);
        assert!(*m.region_cycles.get(&7).unwrap() >= 30);
        assert_eq!(m.gr[32], 30);
    }

    #[test]
    fn patch_slot_redirects_branch() {
        let mut cb = CodeBuilder::new();
        cb.push(Op::Br {
            target: Target::Abs(0xAAA0000),
        });
        let (bundles, _) = cb.assemble(BASE);
        let mut arena = CodeArena::new(BASE);
        arena.append(bundles, 0);
        // Find the branch slot.
        let slot = arena
            .bundle_at(BASE)
            .unwrap()
            .slots
            .iter()
            .position(|s| s.op.is_branch())
            .unwrap();
        arena.patch_slot(
            BASE,
            slot,
            Op::Br {
                target: Target::Abs(0xBBB0000),
            },
        );
        let mut m = Machine::new(arena, Timing::default());
        m.set_ip(BASE, 0);
        let mut bus = VecBus::new(16);
        let r = m.run(&mut bus, 100);
        assert!(matches!(
            r,
            StopReason::ExternalBranch {
                target: 0xBBB0000,
                ..
            }
        ));
    }

    /// Asserts that, for every slot the arena holds, the cached issue
    /// metadata equals a fresh derivation and the cached group id, if
    /// there is one, names a fresh summarization of the code now there.
    fn assert_meta_coherent(arena: &CodeArena) {
        assert_eq!(arena.tags.len, arena.bundles.len());
        let table_full = arena.groups.groups.len() == GROUP_NONE as usize - 1;
        for (idx, b) in arena.bundles.iter().enumerate() {
            for (slot, inst) in b.slots.iter().enumerate() {
                let at = format!("bundle {idx} slot {slot}: {inst:?}");
                assert_eq!(
                    arena.metas.get(arena.tags[idx].meta[slot], inst),
                    inst.slot_meta(),
                    "{at}"
                );
                let fresh = arena.summary_at(idx, slot);
                match arena.tags[idx].group[slot] {
                    GROUP_UNKNOWN => {}
                    GROUP_NONE => assert!(
                        fresh == Err(NoSummary::TooBig) || (table_full && fresh.is_ok()),
                        "{at}: no summary cached for {fresh:?}"
                    ),
                    id => assert_eq!(arena.groups.get(id).copied(), fresh.ok(), "{at}"),
                }
            }
        }
    }

    /// Asks for the group id of about two slots in three, as a machine
    /// running that code would.
    fn warm_groups(arena: &mut CodeArena, x: &mut u64) {
        for idx in 0..arena.len() {
            for slot in 0..3 {
                if !xorshift(x).is_multiple_of(3) {
                    arena.group_id(idx, slot);
                }
            }
        }
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// A pseudo-random physical-register instruction covering every
    /// unit, latency class and operand shape the metadata encodes.
    fn random_inst(x: &mut u64) -> Inst {
        let mut next = |n: u64| (xorshift(x) % n) as u16;
        let (g, f, p, b) = (next(128), next(128), next(64), next(8) as u8);
        let (g2, f2, p2) = (next(128), next(128), next(64));
        let op = match next(12) {
            0 => Op::Add {
                d: Gr(g),
                a: Src::Reg(Gr(g2)),
                b: Gr(next(128)),
            },
            1 => Op::Cmp {
                rel: CmpRel::Ltu,
                pt: Pr(p),
                pf: Pr(p2),
                a: Src::Reg(Gr(g)),
                b: Gr(g2),
            },
            2 => Op::Ld {
                sz: 4,
                d: Gr(g),
                addr: Gr(g2),
                spec: false,
            },
            3 => Op::Stf {
                fmt: FFmt::D,
                f: Fr(f),
                addr: Gr(g),
            },
            4 => Op::Fma {
                kind: FmaKind::Fma,
                d: Fr(f),
                a: Fr(f2),
                b: Fr(next(128)),
                c: Fr(next(128)),
            },
            5 => Op::Frcpa {
                d: Fr(f),
                p: Pr(p),
                a: Fr(f2),
                b: Fr(next(128)),
            },
            6 => Op::Getf {
                kind: FXfer::Sig,
                d: Gr(g),
                f: Fr(f),
            },
            7 => Op::MovToBr { b: Br(b), r: Gr(g) },
            8 => Op::Br {
                target: Target::Reg(Br(b)),
            },
            9 => Op::BrCall {
                b_save: Br(b),
                target: Target::Abs(0x4000),
            },
            10 => Op::Movl {
                d: Gr(g),
                imm: g2 as u64,
            },
            _ => Op::Nop { unit: Unit::F },
        };
        Inst::pred(Pr(next(64)), op)
    }

    /// Random bundles with a stop bit after one slot in four, so that
    /// groups straddle bundles (and extents) and some outgrow a summary.
    fn random_bundles(x: &mut u64, n: usize) -> Vec<Bundle> {
        (0..n)
            .map(|_| {
                let slots = [random_inst(x), random_inst(x), random_inst(x)];
                Bundle {
                    slots,
                    stops: [*x >> 30, *x >> 34, *x >> 38].map(|bits| bits % 4 == 0),
                    ..Bundle::nops()
                }
            })
            .collect()
    }

    #[test]
    fn cached_metadata_survives_every_arena_mutation() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut arena = CodeArena::new(BASE);
        // Live extents as (start address, bundle count).
        let mut live: Vec<(u64, usize)> = Vec::new();
        for step in 0..600 {
            let n = 1 + (step * 7 + 3) % 9;
            match xorshift(&mut x) % 16 {
                0..=4 => {
                    let code = random_bundles(&mut x, n);
                    live.push((arena.append(code, step as u32), n));
                }
                5..=6 => {
                    if let Some(addr) = arena.alloc(n) {
                        let code = random_bundles(&mut x, n);
                        live.push((arena.place(addr, code, step as u32), n));
                    }
                }
                7 => {
                    let code = Relocatable {
                        bundles: random_bundles(&mut x, n),
                        label_slots: Vec::new(),
                        labels: LabelAddrs(Vec::new()),
                        placements: Vec::new(),
                        taps: Vec::new(),
                    };
                    live.push((arena.install(code, step as u32), n));
                }
                8..=10 if !live.is_empty() => {
                    let (start, n) = live.swap_remove(x as usize % live.len());
                    arena.release(start, start + n as u64 * Bundle::SIZE);
                }
                11..=14 if !live.is_empty() => {
                    let (start, n) = live[x as usize % live.len()];
                    let addr = start + (x >> 8) % n as u64 * Bundle::SIZE;
                    let slot = (x >> 20) as usize % 3;
                    arena.patch_slot(addr, slot, random_inst(&mut x).op);
                }
                15 if arena.len() > 4 => {
                    // Cuts the last quarter at most, so code accumulates.
                    let keep = arena.len() as u64 - (x >> 8) % (arena.len() as u64 / 4);
                    let cut = arena.base() + keep * Bundle::SIZE;
                    arena.truncate(cut);
                    live.retain(|&(start, n)| start + n as u64 * Bundle::SIZE <= cut);
                }
                _ => {}
            }
            assert_meta_coherent(&arena);
            warm_groups(&mut arena, &mut x);
            assert_meta_coherent(&arena);
        }
        assert!(arena.len() > 100, "the walk must leave real code behind");
        assert!(arena.metas.metas.len() > 100);
        assert!(arena.groups.groups.len() > 100);
        let ids = || (0..arena.len()).flat_map(|i| arena.tags[i].group);
        assert!(ids().any(|id| id == GROUP_NONE), "some group is too big");

        // The streamed checksum is the one the per-bundle strings gave.
        let mut by_strings: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &arena.bundles {
            for byte in format!("{b}").bytes() {
                by_strings ^= byte as u64;
                by_strings = by_strings.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(arena.checksum_range(arena.base(), arena.end()), by_strings);
    }

    /// A pseudo-random [`CodeBuilder`] program and what was pushed into
    /// it, in order, for a reader to resolve by hand: instructions
    /// (branches to labels and to absolute addresses among them — the
    /// latter inside and outside `[near, near + 0x400)`, where the test
    /// makes the code land, and inside the offsets the code spans at
    /// base 0) and label binds, mid-stream and trailing.
    fn random_program(x: &mut u64, near: u64) -> (CodeBuilder, Vec<Result<Inst, Label>>) {
        let mut cb = CodeBuilder::new();
        let labels: Vec<Label> = (0..1 + xorshift(x) % 4).map(|_| cb.label()).collect();
        let mut unbound = labels.clone();
        let mut pushed = Vec::new();
        for _ in 0..4 + xorshift(x) % 40 {
            let r = xorshift(x);
            let (g, p) = (Gr(32 + (r >> 8) as u16 % 64), Pr((r >> 16) as u16 % 8));
            let label = Target::Label(labels[(r >> 24) as usize % labels.len()].0);
            let abs = Target::Abs(match (r >> 32) % 4 {
                0 => near + (r >> 40) % 0x40 * Bundle::SIZE,
                1 => (r >> 40) % 0x40 * Bundle::SIZE,
                2 => near - 0x1000 + (r >> 40) % 0x40 * Bundle::SIZE,
                _ => 0x7000_0000 + (r >> 40) % 0x40 * Bundle::SIZE,
            });
            let op = match r % 12 {
                0 if !unbound.is_empty() => {
                    let l = unbound.swap_remove((r >> 8) as usize % unbound.len());
                    cb.bind(l);
                    pushed.push(Err(l));
                    continue;
                }
                0..=2 => Op::Br { target: label },
                3 => Op::Br { target: abs },
                4 => Op::ChkS {
                    r: g,
                    target: label,
                },
                5 => Op::BrCall {
                    b_save: Br(1),
                    target: abs,
                },
                6 => Op::Movl { d: g, imm: r },
                7 => Op::Ld {
                    sz: 8,
                    d: g,
                    addr: Gr(33),
                    spec: false,
                },
                8 => Op::Fma {
                    kind: FmaKind::Fma,
                    d: Fr(40),
                    a: Fr(41),
                    b: Fr(42),
                    c: Fr(43),
                },
                _ => Op::Add {
                    d: g,
                    a: Src::Imm(1),
                    b: g,
                },
            };
            let inst = Inst::pred(p, op);
            cb.push_inst(inst);
            pushed.push(Ok(inst));
            if r >> 60 < 5 {
                cb.stop();
            }
        }
        for l in unbound {
            cb.bind(l);
            pushed.push(Err(l));
        }
        (cb, pushed)
    }

    /// A tapped slot counts its event each time it executes with its
    /// predicate equal to the tap's `when` — here p1 under `when` true
    /// and false, p2 under true, each op ending its group as a tap must
    /// — and the machine spends on the tapped code exactly what it
    /// spends on the same code untapped.
    #[test]
    fn a_tap_counts_under_its_predicate_and_costs_no_cycle() {
        let code = |tapped: bool| {
            let mut cb = CodeBuilder::new();
            cb.push(Op::Cmp {
                rel: CmpRel::Eq,
                pt: Pr(1),
                pf: Pr(2),
                a: Src::Reg(Gr(32)),
                b: Gr(33),
            });
            cb.stop();
            let taps = [(Pr(1), 0, true), (Pr(2), 1, true), (Pr(1), 2, false)];
            for (k, (qp, event, when)) in taps.into_iter().enumerate() {
                let d = Gr(40 + k as u16);
                cb.push_pred(
                    qp,
                    Op::Add {
                        d,
                        a: Src::Imm(1),
                        b: d,
                    },
                );
                if tapped {
                    cb.tap(Tap { event, when });
                }
                cb.stop();
            }
            cb.push(Op::Br {
                target: Target::Abs(0xDEAD0000),
            });
            cb.stop();
            cb.assemble_relocatable()
        };
        let run_from = |code: Relocatable, equal: bool| {
            let mut arena = CodeArena::new(BASE);
            let entry = arena.install(code, 0);
            let mut m = Machine::new(arena, Timing::default());
            m.gr[32] = 5;
            m.gr[33] = if equal { 5 } else { 6 };
            m.set_ip(entry, 0);
            assert!(matches!(run(&mut m), StopReason::ExternalBranch { .. }));
            m
        };
        for equal in [true, false] {
            let (with, without) = (run_from(code(true), equal), run_from(code(false), equal));
            let (p1, p2) = (equal as u64, !equal as u64);
            assert_eq!(with.taps[..3], [p1, p2, p2], "p1 is {equal}");
            assert_eq!(with.taps[3..], [0; Tap::EVENTS - 3]);
            assert_eq!(without.taps, [0; Tap::EVENTS]);
            assert_eq!(with.gr, without.gr);
            assert_eq!(
                (with.cycles, with.inst_count, &with.region_split),
                (without.cycles, without.inst_count, &without.region_split)
            );
        }
    }

    /// A tap lives and dies with its slot: `patch_slot` retargets the
    /// slot and keeps it, `release` and `truncate` drop it, and code
    /// installed where tapped code was carries only its own taps.
    #[test]
    fn taps_follow_release_truncate_and_patch_slot() {
        let tap = Tap {
            event: 4,
            when: true,
        };
        let exit = |tapped: bool| {
            let mut cb = CodeBuilder::new();
            cb.push(Op::Br {
                target: Target::Abs(0xDEAD0000),
            });
            if tapped {
                cb.tap(tap);
            }
            cb.stop();
            cb.assemble_relocatable()
        };
        let (bundle, slot) = exit(true).placements[0];
        let slot = slot as usize;
        assert_eq!(bundle, 0);
        let size = exit(true).len() as u64 * Bundle::SIZE;
        let mut arena = CodeArena::new(BASE);
        let a = arena.install(exit(true), 0);
        let b = arena.install(exit(true), 0);
        assert_eq!(arena.tap_at(a, slot), Some(tap));
        assert_eq!(arena.tap_at(b, slot), Some(tap));
        let other = (0..3).filter(|&s| s != slot);
        assert!(other.clone().all(|s| arena.tap_at(a, s).is_none()));
        arena.patch_slot(
            a,
            slot,
            Op::Br {
                target: Target::Abs(0xBEEF0000),
            },
        );
        assert_eq!(arena.tap_at(a, slot), Some(tap), "patched");
        arena.release(a, a + size);
        assert_eq!(arena.tap_at(a, slot), None, "released");
        assert_eq!(arena.install(exit(false), 0), a, "into the hole");
        assert_eq!(arena.tap_at(a, slot), None, "untapped code in the hole");
        arena.release(a, a + size);
        assert_eq!(arena.install(exit(true), 0), a);
        assert_eq!(arena.tap_at(a, slot), Some(tap), "tapped code in the hole");
        arena.truncate(b);
        assert_eq!(arena.tap_at(b, slot), None, "truncated");
        assert_eq!(arena.append(exit(false).bundles, 0), b);
        assert_eq!(arena.tap_at(b, slot), None, "appended where it was");
    }

    /// `install` is `assemble(addr)` + `place`/`append` at the address
    /// `alloc` would have picked, bundle for bundle — checked on twin
    /// arenas — and, resolved by hand from what was pushed: every
    /// instruction sits at its placement, a label is where the next
    /// instruction's bundle starts (one past the end for a trailing
    /// one), a label target is that address, and an absolute target is
    /// what the program said, wherever it points.
    #[test]
    fn install_equals_assembling_at_the_address_it_picks() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let (mut in_hole, mut at_end) = (0, 0);
        for round in 0..300 {
            // Twin arenas with the same code and the same holes.
            let mut twins = [CodeArena::new(BASE), CodeArena::new(BASE)];
            let mut seed = x;
            let extents: Vec<(u64, usize)> = (0..1 + xorshift(&mut x) % 6)
                .map(|_| {
                    let n = 1 + xorshift(&mut seed) as usize % 24;
                    let code = random_bundles(&mut seed, n);
                    let [a, b] = &mut twins;
                    b.append(code.clone(), 1);
                    (a.append(code, 1), n)
                })
                .collect();
            for &(start, n) in &extents {
                if xorshift(&mut x).is_multiple_of(2) {
                    for arena in &mut twins {
                        arena.release(start, start + n as u64 * Bundle::SIZE);
                    }
                }
            }
            let [arena, reference] = &mut twins;

            let near = match round % 2 {
                0 => extents[0].0,
                _ => arena.end(),
            };
            let (cb, pushed) = random_program(&mut x, near);
            let code = cb.assemble_relocatable();
            let (n, offsets, placements) =
                (code.len(), code.labels.clone(), code.placements.clone());

            let want = reference.alloc(n).unwrap_or(reference.end());
            let (bundles, labels) = cb.assemble(want);
            if want == reference.end() {
                at_end += 1;
                reference.append(bundles, 9);
            } else {
                in_hole += 1;
                reference.place(want, bundles, 9);
            }
            let got = arena.install(code, 9);
            assert_eq!(got, want, "round {round}");
            assert_eq!(arena.bundles, reference.bundles, "round {round}");
            assert_eq!(arena.free, reference.free, "round {round}");
            for i in 0..arena.len() {
                assert_eq!(arena.tags[i].region, reference.tags[i].region);
            }
            assert_meta_coherent(arena);

            // By hand, from what was pushed.
            let at = |k: usize| {
                let (idx, slot) = placements[k];
                (got + idx as u64 * Bundle::SIZE, slot as usize)
            };
            let insts = pushed.iter().filter(|p| p.is_ok()).count();
            let mut k = 0;
            for p in &pushed {
                let &Err(l) = p else {
                    k += 1;
                    continue;
                };
                let here = match k < insts {
                    true => at(k).0,
                    false => got + n as u64 * Bundle::SIZE,
                };
                assert_eq!(labels[l], here, "round {round}: L{}", l.0);
                assert_eq!(offsets[l] + got, here);
            }
            for (k, inst) in pushed.iter().filter_map(|p| p.ok()).enumerate() {
                let mut want = inst;
                if let Some(Target::Label(l)) = want.op.target() {
                    want.op.set_target(Target::Abs(labels[Label(l)]));
                }
                let (addr, slot) = at(k);
                let found = arena.bundle_at(addr).expect("placed inside the arena");
                assert_eq!(found.slots[slot], want, "round {round}: push {k}");
            }
        }
        assert!(
            in_hole > 50 && at_end > 50,
            "{in_hole} in holes, {at_end} at the end"
        );
    }

    /// `n` slots of `add r32 = 1, r32`, a multiple of three of them,
    /// with a stop bit after each slot position in `stops`.
    fn adds(n: usize, stops: &[usize]) -> Vec<Bundle> {
        let add = Inst::new(Op::Add {
            d: Gr(32),
            a: Src::Imm(1),
            b: Gr(32),
        });
        let code: Vec<(Inst, bool)> = (0..n).map(|k| (add, stops.contains(&k))).collect();
        pack(&code)
    }

    #[test]
    fn group_ids_follow_code_that_changes_under_a_group() {
        let at = |idx: u64| BASE + idx * Bundle::SIZE;
        // One group over slots 1..=7, cached from each of its slots.
        let mut arena = CodeArena::new(BASE);
        arena.append(adds(9, &[0, 7, 8]), 0);
        let warm = |arena: &mut CodeArena| {
            (0..arena.len() * 3)
                .map(|p| arena.group_id(p / 3, p % 3))
                .collect::<Vec<u16>>()
        };
        let before = warm(&mut arena);
        assert!(before.iter().all(|&id| id != GROUP_UNKNOWN));
        let cached = |arena: &CodeArena| {
            (0..arena.len() * 3)
                .map(|p| arena.tags[p / 3].group[p % 3] != GROUP_UNKNOWN)
                .collect::<Vec<bool>>()
        };

        // Patching slot 5 forgets the groups that start at 1..=5 and
        // keeps the ones behind it and the one before the stop at 0.
        arena.patch_slot(at(1), 2, Op::Nop { unit: Unit::I });
        assert_eq!(
            cached(&arena),
            [true, false, false, false, false, false, true, true, true]
        );
        assert_meta_coherent(&arena);
        assert_ne!(warm(&mut arena)[1], before[1], "the group reads less now");

        // Releasing the last bundle changes what slots 1..=5 run into;
        // placing code there does so again.
        arena.release(at(2), at(3));
        assert_eq!(
            cached(&arena)[..6],
            [true, false, false, false, false, false]
        );
        assert_meta_coherent(&arena);
        warm(&mut arena);
        let hole = arena.alloc(1).expect("the released bundle");
        arena.place(hole, adds(3, &[0]), 0);
        assert_eq!(
            cached(&arena)[..6],
            [true, false, false, false, false, false]
        );
        assert_meta_coherent(&arena);
        let placed = arena.group_id(0, 1);
        assert_eq!(arena.groups.get(placed).map(|g| g.slots), Some(6));

        // A group that runs off the arena's end is not cached, so code
        // appended behind it is seen.
        let mut arena = CodeArena::new(BASE);
        arena.append(adds(3, &[0]), 0);
        assert_eq!(arena.group_id(0, 1), GROUP_NONE);
        assert_eq!(arena.tags[0].group[1], GROUP_UNKNOWN);
        arena.append(adds(3, &[1]), 0);
        let whole = arena.group_id(0, 1);
        assert_eq!(arena.groups.get(whole).map(|g| g.slots), Some(4));
        assert_meta_coherent(&arena);

        // Truncating through the middle of that cached group forgets it.
        arena.truncate(at(1));
        assert_eq!(arena.tags[0].group, [GROUP_UNKNOWN; 3]);
        assert_eq!(arena.group_id(0, 1), GROUP_NONE);
        assert_meta_coherent(&arena);
    }

    #[test]
    fn full_intern_table_falls_back_to_derivation() {
        // More distinct metadata values than ids: the overflow slots
        // carry the sentinel and still read back exactly.
        let distinct = META_UNINTERNED as usize + 3000;
        let code: Vec<Bundle> = (0..distinct.div_ceil(3))
            .map(|k| {
                let slot = |j: usize| {
                    let v = k * 3 + j;
                    Inst::new(Op::Add {
                        d: Gr((v & 127) as u16),
                        a: Src::Reg(Gr((v >> 7 & 127) as u16)),
                        b: Gr((v >> 14 & 127) as u16),
                    })
                };
                Bundle {
                    slots: [slot(0), slot(1), slot(2)],
                    ..Bundle::nops()
                }
            })
            .collect();
        let mut arena = CodeArena::new(BASE);
        arena.append(code, 0);
        assert_eq!(arena.metas.metas.len(), META_UNINTERNED as usize);
        let last = arena.tags[arena.len() - 1];
        assert!(last.meta.contains(&META_UNINTERNED));
        assert_meta_coherent(&arena);
    }

    #[test]
    fn full_group_table_falls_back_to_per_slot_accounting() {
        // More distinct one-slot groups than ids: the overflow ones
        // carry the sentinel, and the machine accounts them slot by slot
        // to the same cycles.
        let distinct = GROUP_NONE as usize + 3000;
        let code: Vec<(Inst, bool)> = (0..distinct.next_multiple_of(3))
            .map(|v| {
                let add = Op::Add {
                    d: Gr((32 + (v & 63)) as u16),
                    a: Src::Reg(Gr((v >> 6 & 127) as u16)),
                    b: Gr((v >> 13 & 127) as u16),
                };
                (Inst::new(add), true)
            })
            .collect();
        let mut arena = CodeArena::new(BASE);
        arena.append(pack(&code), 4);
        let mut m = Machine::new(arena, Timing::default());
        m.set_ip(BASE, 0);
        let end = m.arena.end();
        assert_eq!(
            m.run(&mut VecBus::new(16), u64::MAX),
            StopReason::ExternalBranch {
                target: end,
                from: end
            }
        );
        assert_eq!(m.arena.groups.groups.len(), GROUP_NONE as usize - 1);
        assert_eq!(m.summary_groups, GROUP_NONE as u64 - 1);
        assert_eq!(m.summary_groups + m.replayed_groups, code.len() as u64);
        assert_eq!(m.arena.tags[m.arena.len() - 1].group, [GROUP_NONE; 3]);
        assert_meta_coherent(&m.arena);
        let groups: Vec<_> = (0..code.len()).map(|k| (4, k..k + 1, 0)).collect();
        assert_accounted_like(&m, &code, &groups);
    }

    /// Packs `(instruction, stop bit)` slots, a multiple of three of
    /// them, into bundles.
    fn pack(slots: &[(Inst, bool)]) -> Vec<Bundle> {
        assert_eq!(slots.len() % 3, 0);
        slots
            .chunks_exact(3)
            .map(|c| Bundle {
                slots: [c[0].0, c[1].0, c[2].0],
                stops: [c[0].1, c[1].1, c[2].1],
                ..Bundle::nops()
            })
            .collect()
    }

    /// Asserts the machine's cycles, per-region cycles, scoreboard and
    /// slot count are what driving [`IssueModel::account`] and
    /// [`IssueModel::close`] by hand leaves behind, given the groups the
    /// machine should have formed: each the region of its first slot,
    /// the slots of `code` it executed, and the bubble that closed it.
    fn assert_accounted_like(
        m: &Machine,
        code: &[(Inst, bool)],
        groups: &[(u32, std::ops::Range<usize>, u32)],
    ) {
        let mut model = IssueModel::new(&Timing::default());
        let mut regions: HashMap<u32, u64> = HashMap::new();
        let mut splits: HashMap<u32, CycleSplit> = HashMap::new();
        let mut slots = 0;
        for (region, executed, bubble) in groups {
            for (inst, _) in &code[executed.clone()] {
                model.account(&inst.slot_meta(), *region);
                slots += 1;
            }
            let before = model.split();
            let (region, spent) = model.close(*bubble);
            *regions.entry(region).or_default() += spent;
            *splits.entry(region).or_default() += model.split() - before;
        }
        assert_eq!(m.cycles, model.now());
        assert_eq!(m.region_cycles, regions);
        assert_eq!(m.region_split, splits);
        assert!(m.issue.ready == model.ready, "scoreboards differ");
        assert_eq!(m.inst_count, slots);
    }

    const EXIT: u64 = 0xDEAD_0000;

    fn addi(d: u16, a: u16) -> Inst {
        Inst::new(Op::Add {
            d: Gr(d),
            a: Src::Imm(1),
            b: Gr(a),
        })
    }

    fn ld(d: u16, addr: u16) -> Inst {
        Inst::new(Op::Ld {
            sz: 8,
            d: Gr(d),
            addr: Gr(addr),
            spec: false,
        })
    }

    /// A machine over `code`, its first `split` slots in region 1 and
    /// the rest in region 2, with `r40` a valid data address, `r41` a
    /// misaligned one and `p1` set.
    fn machine_over(code: &[(Inst, bool)], split: usize) -> Machine {
        let mut arena = CodeArena::new(BASE);
        arena.append(pack(&code[..split]), 1);
        arena.append(pack(&code[split..]), 2);
        let mut m = Machine::new(arena, Timing::default());
        m.set_ip(BASE, 0);
        m.gr[40] = 0x100;
        m.gr[41] = 0x101;
        m.pr[1] = true;
        m
    }

    fn off_the_end(m: &Machine) -> StopReason {
        StopReason::ExternalBranch {
            target: m.arena.end(),
            from: m.arena.end(),
        }
    }

    #[test]
    fn side_exit_taken_mid_group_is_accounted_up_to_the_branch() {
        for (target, bubble) in [
            (Target::Abs(EXIT), Timing::default().taken_branch),
            (Target::Reg(Br(1)), Timing::default().indirect_branch),
        ] {
            let exit = Inst::pred(Pr(1), Op::Br { target });
            let code = [
                (ld(33, 40), true),
                (addi(34, 33), false),
                (exit, false),
                (addi(35, 34), true),
                (addi(36, 35), true),
                (addi(37, 36), true),
            ];
            let mut m = machine_over(&code, 3);
            m.br[1] = EXIT;
            assert_eq!(
                m.run(&mut VecBus::new(0x1000), u64::MAX),
                StopReason::ExternalBranch {
                    target: EXIT,
                    from: BASE
                }
            );
            assert_eq!((m.gr[34], m.gr[35]), (1, 0), "nothing past the exit ran");
            assert_eq!((m.summary_groups, m.replayed_groups), (1, 1));
            assert_accounted_like(&m, &code, &[(1, 0..1, 0), (1, 1..3, bubble)]);
        }
    }

    #[test]
    fn faulting_slot_is_accounted_but_not_executed_and_skip_slot_resumes() {
        let code = [
            (addi(33, 0), false),
            (ld(34, 41), false),
            (addi(35, 33), true),
            (addi(36, 35), false),
            (addi(37, 36), false),
            (addi(38, 37), true),
        ];
        let mut m = machine_over(&code, 3);
        let mut bus = VecBus::new(0x1000);
        let stop = m.run(&mut bus, u64::MAX);
        assert!(
            matches!(
                stop,
                StopReason::Fault {
                    fault: MachFault::Misalign { addr: 0x101, .. },
                    ip: BASE,
                    slot: 1
                }
            ),
            "{stop:?}"
        );
        assert_eq!((m.gr[33], m.gr[35]), (1, 0));
        assert_accounted_like(&m, &code, &[(1, 0..2, 0)]);

        // The runtime emulates the access and resumes behind it, in the
        // middle of the bundle and of the static group.
        m.skip_slot();
        assert_eq!(m.run(&mut bus, u64::MAX), off_the_end(&m));
        assert_eq!(m.gr[38], 5);
        assert_eq!((m.summary_groups, m.replayed_groups), (2, 1));
        assert_accounted_like(&m, &code, &[(1, 0..2, 0), (1, 2..3, 0), (2, 3..6, 0)]);
    }

    #[test]
    fn inst_limit_mid_group_resumes_mid_bundle() {
        let code = [
            (ld(33, 40), false),
            (addi(34, 0), false),
            (addi(35, 0), false),
            (addi(36, 33), true),
            (addi(37, 36), false),
            (addi(38, 35), true),
        ];
        let mut m = machine_over(&code, 3);
        let mut bus = VecBus::new(0x1000);
        assert_eq!(m.run(&mut bus, 2), StopReason::InstLimit);
        assert_eq!((m.ip, m.slot), (BASE, 2));
        assert_eq!((m.summary_groups, m.replayed_groups), (0, 1));
        assert_accounted_like(&m, &code, &[(1, 0..2, 0)]);

        // The rest of the cut group is a group of its own now, in the
        // region of the bundle it starts in.
        assert_eq!(m.run(&mut bus, 2), StopReason::InstLimit);
        assert_eq!((m.ip, m.slot), (BASE + Bundle::SIZE, 1));
        assert_eq!(m.run(&mut bus, u64::MAX), off_the_end(&m));
        assert_eq!((m.summary_groups, m.replayed_groups), (2, 1));
        assert_accounted_like(&m, &code, &[(1, 0..2, 0), (1, 2..4, 0), (2, 4..6, 0)]);
    }

    #[test]
    fn writes_past_the_eighth_of_a_group_are_dropped() {
        // Nine loads in one group: the ninth result is never marked
        // busy, so its consumer does not wait for it; the eighth's does.
        let mut code: Vec<(Inst, bool)> = (0..9).map(|k| (ld(42 + k, 40), k == 8)).collect();
        code.extend([
            (addi(60, 50), true),
            (addi(61, 49), true),
            (addi(62, 0), true),
        ]);
        let mut m = machine_over(&code, 9);
        assert_eq!(m.run(&mut VecBus::new(0x1000), u64::MAX), off_the_end(&m));
        assert_eq!((m.summary_groups, m.replayed_groups), (4, 0));
        let nine = m.arena.group_id(0, 0);
        assert_eq!(m.arena.groups.get(nine).map(|g| g.nwrites), Some(8));
        assert_accounted_like(
            &m,
            &code,
            &[(1, 0..9, 0), (2, 9..10, 0), (2, 10..11, 0), (2, 11..12, 0)],
        );
    }

    #[test]
    fn groups_too_big_for_a_summary_are_accounted_slot_by_slot() {
        // One slot too many, then six slots reading eighteen registers.
        let n = GROUP_MAX_SLOTS + 1;
        let mut code: Vec<(Inst, bool)> = (0..n)
            .map(|k| (addi(42 + k as u16, 40), k == n - 1))
            .collect();
        code.extend((0..6).map(|k| {
            let add = Op::Add {
                d: Gr(70 + k),
                a: Src::Reg(Gr(80 + k)),
                b: Gr(90 + k),
            };
            (Inst::pred(Pr(10 + k), add), k == 5)
        }));
        code.extend([(addi(33, 0), false), (addi(34, 0), true)]);
        let mut m = machine_over(&code, n - 1);
        assert_eq!(m.run(&mut VecBus::new(0x1000), u64::MAX), off_the_end(&m));
        assert_eq!((m.summary_groups, m.replayed_groups), (1, 2));
        assert_eq!(m.arena.tags[0].group[0], GROUP_NONE);
        assert_eq!(m.arena.tags[n / 3].group[n % 3], GROUP_NONE);
        assert_accounted_like(
            &m,
            &code,
            &[(1, 0..n, 0), (2, n..n + 6, 0), (2, n + 6..n + 8, 0)],
        );
    }

    #[test]
    fn predicated_off_branch_carrying_the_stop_closes_a_whole_group() {
        let exit = Op::Br {
            target: Target::Abs(EXIT),
        };
        let code = [
            (ld(33, 40), false),
            (Inst::pred(Pr(2), exit), true),
            (addi(34, 33), false),
            (Inst::pred(Pr(1), exit), true),
            (addi(35, 0), false),
            (addi(36, 0), true),
        ];
        let mut m = machine_over(&code, 3);
        assert_eq!(
            m.run(&mut VecBus::new(0x1000), u64::MAX),
            StopReason::ExternalBranch {
                target: EXIT,
                from: BASE + Bundle::SIZE
            }
        );
        // Both groups ran whole: the first fell through its branch, the
        // second left by a branch in its last slot and pays the bubble.
        assert_eq!((m.summary_groups, m.replayed_groups), (2, 0));
        let bubble = Timing::default().taken_branch;
        assert_accounted_like(&m, &code, &[(1, 0..2, 0), (1, 2..4, bubble)]);
    }

    #[test]
    fn region_cycles_are_complete_when_run_returns() {
        // Two regions, alternating through a loop: whatever the lazy
        // accumulation holds back must be in the map after every `run`,
        // including runs cut short by the instruction limit.
        let mut cb = CodeBuilder::new();
        for _ in 0..4 {
            cb.push(Op::Add {
                d: Gr(32),
                a: Src::Imm(1),
                b: Gr(32),
            });
            cb.stop();
        }
        let (b0, _) = cb.assemble(BASE);
        let second = BASE + b0.len() as u64 * Bundle::SIZE;
        let mut cb = CodeBuilder::new();
        cb.push(Op::Add {
            d: Gr(33),
            a: Src::Imm(1),
            b: Gr(33),
        });
        cb.stop();
        cb.push(Op::Br {
            target: Target::Abs(BASE),
        });
        let (b1, _) = cb.assemble(second);
        let mut arena = CodeArena::new(BASE);
        arena.append(b0, 5);
        arena.append(b1, 9);
        let mut m = Machine::new(arena, Timing::default());
        m.set_ip(BASE, 0);
        let mut bus = VecBus::new(16);
        for limit in [1, 2, 7, 50, 333] {
            assert_eq!(m.run(&mut bus, limit), StopReason::InstLimit);
            assert_eq!(m.region_cycles.values().sum::<u64>(), m.cycles);
        }
        m.charge(2, 10);
        assert_eq!(m.region_cycles.values().sum::<u64>(), m.cycles);
        assert!(m.region_cycles[&5] > 0 && m.region_cycles[&9] > 0);
        assert_eq!(m.region_cycles[&2], 10);
    }

    #[test]
    fn cycle_split_names_issue_stall_bubble_charge_and_nops() {
        let nop = Inst::new(Op::Nop { unit: Unit::I });
        let exit = Inst::new(Op::Br {
            target: Target::Abs(EXIT),
        });
        // Region 1: a load, then a group that waits one cycle for it;
        // region 2: a group that leaves by a taken branch.
        let code = [
            (ld(33, 40), true),
            (nop, false),
            (addi(34, 33), true),
            (addi(35, 0), false),
            (nop, false),
            (exit, true),
        ];
        let mut m = machine_over(&code, 3);
        let stop = m.run(&mut VecBus::new(0x1000), u64::MAX);
        assert_eq!(
            stop,
            StopReason::ExternalBranch {
                target: EXIT,
                from: BASE + Bundle::SIZE
            }
        );
        m.charge(2, 10);
        let split = |issue, stall, bubble, charged| CycleSplit {
            issue_cycles: issue,
            stall_cycles: stall,
            bubble_cycles: bubble,
            charged_cycles: charged,
            nop_slots: 1,
        };
        let bubble = Timing::default().taken_branch as u64;
        assert_eq!(m.region_split[&1], split(2, 1, 0, 0));
        assert_eq!(m.region_split[&2], split(1, 0, bubble, 10));
        for (region, split) in &m.region_split {
            assert_eq!(split.cycles(), m.region_cycles[region]);
        }
        assert_eq!(m.cycles, 3 + 1 + bubble + 10);
    }

    #[test]
    fn inst_limit_stops() {
        let mut cb = CodeBuilder::new();
        let top = cb.label();
        cb.bind(top);
        cb.push(Op::Add {
            d: Gr(32),
            a: Src::Imm(1),
            b: Gr(32),
        });
        cb.stop();
        cb.push(Op::Br {
            target: Target::Label(top.0),
        });
        let (bundles, _) = cb.assemble(BASE);
        let mut arena = CodeArena::new(BASE);
        arena.append(bundles, 0);
        let mut m = Machine::new(arena, Timing::default());
        m.set_ip(BASE, 0);
        let mut bus = VecBus::new(16);
        assert_eq!(m.run(&mut bus, 1000), StopReason::InstLimit);
    }
}
