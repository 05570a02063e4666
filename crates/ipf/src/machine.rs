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

use crate::bundle::Bundle;
use crate::inst::{FFmt, FXfer, Inst, LatClass, Op, SlotMeta, Target, Unit, SB_LEN};
use crate::regs::{NUM_BR, NUM_FR, NUM_GR, NUM_PR};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// Hashes an already well-spread [`SlotMeta::key`] with one multiply.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, k: u64) {
        // Fold the high half down: the table indexes by the low bits,
        // where a bare multiply carries nothing of the key's top fields.
        let h = (self.0 ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
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
    ids: HashMap<u64, u16, BuildHasherDefault<KeyHasher>>,
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

/// What the arena keeps per bundle beside the bundle itself.
#[derive(Clone, Copy, Debug, Default)]
struct BundleTag {
    /// Cycle-attribution region.
    region: u32,
    /// Per slot, the id of its issue metadata in the [`MetaTable`].
    meta: [u16; 3],
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
/// the free list, [`CodeArena::alloc`] carves a hole back out, and
/// [`CodeArena::place`] installs fresh bundles into it.
///
/// Beside the bundles the arena caches each slot's issue metadata
/// ([`Inst::slot_meta`]) so the machine decodes a slot once, not once
/// per execution. `bundles` is private and written at exactly five
/// places — `append`, `place`, `release`, `truncate`, `patch_slot` —
/// each of which updates `tags` in the same breath.
#[derive(Debug, Default)]
pub struct CodeArena {
    base: u64,
    bundles: Vec<Bundle>,
    /// Region and metadata ids per bundle (parallel to `bundles`).
    tags: TagTable,
    metas: MetaTable,
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
        for b in &bundles {
            let meta = self.metas.intern_bundle(b);
            self.tags.push(BundleTag { region, meta });
        }
        self.bundles.extend(bundles);
        addr
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
        };
        for i in idx..idx + count {
            self.tags[i] = freed;
        }
        self.bundles[idx..idx + count].fill(nops);
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
    /// enough. Use [`CodeArena::place`] to install code there.
    pub fn alloc(&mut self, count: usize) -> Option<u64> {
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

    /// Installs bundles into a hole previously returned by
    /// [`CodeArena::alloc`], returning their start address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the arena or the bundles overrun it.
    pub fn place(&mut self, addr: u64, bundles: Vec<Bundle>, region: u32) -> u64 {
        let idx = self.index_of(addr).expect("place address inside arena");
        assert!(
            idx + bundles.len() <= self.bundles.len(),
            "placed code overruns the arena"
        );
        for (k, b) in bundles.into_iter().enumerate() {
            let meta = self.metas.intern_bundle(&b);
            self.tags[idx + k] = BundleTag { region, meta };
            self.bundles[idx + k] = b;
        }
        addr
    }

    /// Number of bundles currently on the free list.
    pub fn free_bundles(&self) -> usize {
        self.free.iter().map(|&(_, n)| n).sum()
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
        self.tags[idx].meta[slot] = self.metas.intern(inst);
    }

    /// FNV-1a checksum over the bundles in `[start, end)`, in their
    /// textual (assembly) form. Used by the engine's verify-on-dispatch
    /// integrity mode: a patched or corrupted slot changes the sum.
    pub fn checksum_range(&self, start: u64, end: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut addr = start;
        while addr < end {
            if let Some(b) = self.bundle_at(addr) {
                for byte in format!("{b}").bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
            addr += Bundle::SIZE;
        }
        h
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

#[derive(Clone, Copy, Debug, Default)]
struct GroupAcc {
    read_ready_max: u64,
    m: u32,
    i: u32,
    f: u32,
    b: u32,
    slots: u32,
    nwrites: usize,
    region: u32,
    active: bool,
}

/// The cycle model proper: in-order issue of stop-bit-delimited groups
/// against an operand-ready scoreboard. A group issues once every
/// operand it reads is ready, occupies as many cycles as its most
/// oversubscribed port class needs (2M/2I/2F/3B, 6 slots), and its
/// writes become ready their latency after issue.
///
/// [`Machine`] drives one of these from the arena's cached metadata;
/// the translator's hot scheduler drives its own to price candidate
/// code, which is what keeps the two from disagreeing.
///
/// Two properties are part of the model and deliberately kept:
/// a group records at most 8 scoreboard writes (later ones are
/// dropped), and a predicated-off slot is accounted like any other.
#[derive(Clone, Debug)]
pub struct IssueModel {
    ready: [u64; SB_LEN],
    lat: [u32; LatClass::ALL.len()],
    next_cycle: u64,
    group: GroupAcc,
    /// `(scoreboard entry, latency)` of the open group's first
    /// `group.nwrites` register writes.
    writes: [(u16, u32); 8],
}

impl IssueModel {
    /// An idle model at cycle 0 with every operand ready.
    pub fn new(timing: &Timing) -> IssueModel {
        IssueModel {
            ready: [0; SB_LEN],
            lat: LatClass::ALL.map(|class| timing.latency(class)),
            next_cycle: 0,
            group: GroupAcc::default(),
            writes: [(0, 0); 8],
        }
    }

    /// Cycles elapsed up to the last closed group.
    pub fn now(&self) -> u64 {
        self.next_cycle
    }

    /// Lets `cycles` pass outside any group.
    pub fn advance(&mut self, cycles: u64) {
        self.next_cycle += cycles;
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
        if meta.nwrites != 0 {
            let lat = self.lat[meta.lat as usize];
            for &w in &meta.writes[..meta.nwrites as usize] {
                if g.nwrites < self.writes.len() {
                    self.writes[g.nwrites] = (w, lat);
                    g.nwrites += 1;
                }
            }
        }
        match meta.unit {
            Unit::M => g.m += 1,
            Unit::I | Unit::L => g.i += 1,
            Unit::F => g.f += 1,
            Unit::B => g.b += 1,
            Unit::A => {
                // Disperse A-type to the less-loaded of M/I.
                if g.m <= g.i {
                    g.m += 1;
                } else {
                    g.i += 1;
                }
            }
        }
        g.slots += 1;
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
            return (g.region, extra_bubble as u64);
        }
        let issue = self.next_cycle.max(g.read_ready_max);
        let width = [
            g.m.div_ceil(2),
            g.i.div_ceil(2),
            g.f.div_ceil(2),
            g.b.div_ceil(3),
            g.slots.div_ceil(6),
            1,
        ]
        .into_iter()
        .max()
        .unwrap() as u64;
        for &(entry, lat) in &self.writes[..g.nwrites] {
            self.ready[entry as usize] = issue + lat as u64;
        }
        let after = issue + width + extra_bubble as u64;
        let spent = after - self.next_cycle;
        let region = g.region;
        self.next_cycle = after;
        self.group = GroupAcc::default();
        (region, spent)
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
    timing: Timing,
    issue: IssueModel,
    /// `(region, cycles)` spent since the region last changed, not yet
    /// added to `region_cycles`: consecutive groups almost always share
    /// a region, so the map is touched on region changes and before
    /// `run` returns rather than once per group.
    region_pending: (u32, u64),
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
            timing,
            issue: IssueModel::new(&timing),
            region_pending: (0, 0),
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
        *self.region_cycles.entry(region).or_default() += cycles;
    }

    /// Sets the resume point.
    pub fn set_ip(&mut self, ip: u64, slot: u8) {
        self.ip = ip;
        self.slot = slot;
    }

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

    // ---- timing ---------------------------------------------------------

    fn close_group(&mut self, extra_bubble: u32) {
        let (region, spent) = self.issue.close(extra_bubble);
        self.cycles = self.issue.now();
        if spent == 0 {
            return;
        }
        if region != self.region_pending.0 {
            self.flush_region_cycles();
            self.region_pending.0 = region;
        }
        self.region_pending.1 += spent;
    }

    fn flush_region_cycles(&mut self) {
        let (region, cycles) = self.region_pending;
        if cycles > 0 {
            *self.region_cycles.entry(region).or_default() += cycles;
            self.region_pending.1 = 0;
        }
    }

    // ---- execution ------------------------------------------------------

    /// Runs until an external branch, fault, or `max_insts` slots.
    pub fn run(&mut self, bus: &mut dyn Bus, max_insts: u64) -> StopReason {
        let stop = self.run_slots(bus, max_insts);
        self.flush_region_cycles();
        stop
    }

    fn run_slots(&mut self, bus: &mut dyn Bus, max_insts: u64) -> StopReason {
        let mut executed = 0u64;
        loop {
            let bundle_idx = match self.arena.index_of(self.ip) {
                Some(i) => i,
                None => {
                    let t = self.ip;
                    self.close_group(0);
                    return StopReason::ExternalBranch { target: t, from: t };
                }
            };
            let tag = self.arena.tags[bundle_idx];
            // The slots of this bundle, until control leaves it.
            loop {
                let slot = self.slot as usize;
                let bundle = &self.arena.bundles[bundle_idx];
                let inst = bundle.slots[slot];
                let stop = bundle.stops[slot];
                let meta = self.arena.metas.get(tag.meta[slot], &inst);
                debug_assert_eq!(
                    meta,
                    inst.slot_meta(),
                    "stale issue metadata at {:#x}.{slot}",
                    self.ip
                );
                self.inst_count += 1;
                executed += 1;
                // Accounted before the predicate is looked at: a
                // predicated-off slot still occupies its port.
                self.issue.account(&meta, tag.region);

                let taken = if self.pr[inst.qp.phys()] {
                    match self.exec_op(bus, &inst.op) {
                        Ok(t) => t,
                        Err(fault) => {
                            self.close_group(0);
                            return StopReason::Fault {
                                fault,
                                ip: self.ip,
                                slot: self.slot,
                            };
                        }
                    }
                } else {
                    None
                };

                let left_bundle = match taken {
                    Some(target) => {
                        let bubble = if meta.indirect {
                            self.timing.indirect_branch
                        } else {
                            self.timing.taken_branch
                        };
                        self.close_group(bubble);
                        let from = self.ip;
                        self.ip = target;
                        self.slot = 0;
                        if self.arena.index_of(target).is_none() {
                            return StopReason::ExternalBranch { target, from };
                        }
                        true
                    }
                    None => {
                        if stop {
                            self.close_group(0);
                        }
                        self.slot += 1;
                        if self.slot == 3 {
                            self.slot = 0;
                            self.ip += Bundle::SIZE;
                        }
                        self.slot == 0
                    }
                };
                if executed >= max_insts {
                    self.close_group(0);
                    return StopReason::InstLimit;
                }
                if left_bundle {
                    break;
                }
            }
        }
    }

    /// Advances past the current (faulting) slot — used when the runtime
    /// emulates a misaligned access and resumes.
    pub fn skip_slot(&mut self) {
        self.slot += 1;
        if self.slot == 3 {
            self.slot = 0;
            self.ip += Bundle::SIZE;
        }
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
        let nat2 = |m: &Machine, a, b| m.gr_nat_of(a) || m.gr_nat_of(b);
        match *op {
            Add { d, a, b } => {
                let v = self.rd_gr(a).wrapping_add(self.rd_gr(b));
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Sub { d, a, b } => {
                let v = self.rd_gr(a).wrapping_sub(self.rd_gr(b));
                self.wr_gr(d, v, nat2(self, a, b));
            }
            AddImm { d, imm, a } => {
                let v = self.rd_gr(a).wrapping_add(imm as u64);
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            SubImm { d, imm, a } => {
                let v = (imm as u64).wrapping_sub(self.rd_gr(a));
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            And { d, a, b } => {
                let v = self.rd_gr(a) & self.rd_gr(b);
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Or { d, a, b } => {
                let v = self.rd_gr(a) | self.rd_gr(b);
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Xor { d, a, b } => {
                let v = self.rd_gr(a) ^ self.rd_gr(b);
                self.wr_gr(d, v, nat2(self, a, b));
            }
            AndCm { d, a, b } => {
                let v = self.rd_gr(a) & !self.rd_gr(b);
                self.wr_gr(d, v, nat2(self, a, b));
            }
            AndImm { d, imm, a } => {
                let v = self.rd_gr(a) & imm as u64;
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            OrImm { d, imm, a } => {
                let v = self.rd_gr(a) | imm as u64;
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            XorImm { d, imm, a } => {
                let v = self.rd_gr(a) ^ imm as u64;
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            Shladd { d, a, count, b } => {
                let v = (self.rd_gr(a) << count).wrapping_add(self.rd_gr(b));
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Cmp { rel, pt, pf, a, b } => {
                if nat2(self, a, b) {
                    self.wr_pr(pt, false);
                    self.wr_pr(pf, false);
                } else {
                    let r = rel.eval(self.rd_gr(a), self.rd_gr(b));
                    self.wr_pr(pt, r);
                    self.wr_pr(pf, !r);
                }
            }
            CmpImm {
                rel,
                pt,
                pf,
                imm,
                b,
            } => {
                if self.gr_nat_of(b) {
                    self.wr_pr(pt, false);
                    self.wr_pr(pf, false);
                } else {
                    let r = rel.eval(imm as u64, self.rd_gr(b));
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
            Padd { sz, d, a, b } => {
                let v = lanewise(self.rd_gr(a), self.rd_gr(b), sz, |x, y| x.wrapping_add(y));
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Psub { sz, d, a, b } => {
                let v = lanewise(self.rd_gr(a), self.rd_gr(b), sz, |x, y| x.wrapping_sub(y));
                self.wr_gr(d, v, nat2(self, a, b));
            }
            Pmpy2 { d, a, b } => {
                let v = lanewise(self.rd_gr(a), self.rd_gr(b), 2, |x, y| {
                    ((x as u16 as i16 as i32).wrapping_mul(y as u16 as i16 as i32)) as u32
                });
                self.wr_gr(d, v, nat2(self, a, b));
            }
            ShlImm { d, a, count } => {
                let v = if count >= 64 {
                    0
                } else {
                    self.rd_gr(a) << count
                };
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            ShlVar { d, a, c } => {
                let cnt = self.rd_gr(c);
                let v = if cnt >= 64 { 0 } else { self.rd_gr(a) << cnt };
                self.wr_gr(d, v, nat2(self, a, c));
            }
            ShrImm {
                d,
                a,
                count,
                signed,
            } => {
                let v = shr64(self.rd_gr(a), count as u64, signed);
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            ShrVar { d, a, c, signed } => {
                let v = shr64(self.rd_gr(a), self.rd_gr(c), signed);
                self.wr_gr(d, v, nat2(self, a, c));
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
            Sxt { d, a, size } => {
                let v = self.rd_gr(a);
                let v = match size {
                    1 => v as u8 as i8 as i64 as u64,
                    2 => v as u16 as i16 as i64 as u64,
                    _ => v as u32 as i32 as i64 as u64,
                };
                self.wr_gr(d, v, self.gr_nat_of(a));
            }
            Zxt { d, a, size } => {
                let v = self.rd_gr(a);
                let v = match size {
                    1 => v as u8 as u64,
                    2 => v as u16 as u64,
                    _ => v as u32 as u64,
                };
                self.wr_gr(d, v, self.gr_nat_of(a));
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
                    return Ok(Some(resolve(target, &self.br)));
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
            Fma { d, a, b, c } => {
                // `fma d = a, b, f0` is the `fmpy` pseudo-op: a pure
                // multiply (adding +0 would destroy a -0 product).
                let v = if c.phys() == 0 {
                    self.rd_fr_f64(a) * self.rd_fr_f64(b)
                } else {
                    self.rd_fr_f64(a)
                        .mul_add(self.rd_fr_f64(b), self.rd_fr_f64(c))
                };
                self.wr_fr(d, v.to_bits(), false);
            }
            Fms { d, a, b, c } => {
                let v = self
                    .rd_fr_f64(a)
                    .mul_add(self.rd_fr_f64(b), -self.rd_fr_f64(c));
                self.wr_fr(d, v.to_bits(), false);
            }
            Fnma { d, a, b, c } => {
                let v = (-self.rd_fr_f64(a)).mul_add(self.rd_fr_f64(b), self.rd_fr_f64(c));
                self.wr_fr(d, v.to_bits(), false);
            }
            Fmin { d, a, b } => {
                let (x, y) = (self.rd_fr_f64(a), self.rd_fr_f64(b));
                let v = if x < y { x } else { y };
                self.wr_fr(d, v.to_bits(), false);
            }
            Fmax { d, a, b } => {
                let (x, y) = (self.rd_fr_f64(a), self.rd_fr_f64(b));
                let v = if x > y { x } else { y };
                self.wr_fr(d, v.to_bits(), false);
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
            FmergeS { d, a, b } => {
                let v = (self.rd_fr_raw(a) & SIGN) | (self.rd_fr_raw(b) & !SIGN);
                self.wr_fr(d, v, false);
            }
            FmergeNs { d, a, b } => {
                let v = ((self.rd_fr_raw(a) ^ SIGN) & SIGN) | (self.rd_fr_raw(b) & !SIGN);
                self.wr_fr(d, v, false);
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
            Fpma { d, a, b, c } => {
                let (a0, a1) = self.rd_fr_packed(a);
                let (b0, b1) = self.rd_fr_packed(b);
                let (lo, hi) = if c.phys() == 0 {
                    // `fpmpy` pseudo-op (see `Fma`).
                    ((a0 * b0).to_bits() as u64, (a1 * b1).to_bits() as u64)
                } else {
                    let (c0, c1) = self.rd_fr_packed(c);
                    (
                        a0.mul_add(b0, c0).to_bits() as u64,
                        a1.mul_add(b1, c1).to_bits() as u64,
                    )
                };
                self.wr_fr(d, lo | (hi << 32), false);
            }
            Fpms { d, a, b, c } => {
                let (a0, a1) = self.rd_fr_packed(a);
                let (b0, b1) = self.rd_fr_packed(b);
                let (c0, c1) = self.rd_fr_packed(c);
                let lo = a0.mul_add(b0, -c0).to_bits() as u64;
                let hi = a1.mul_add(b1, -c1).to_bits() as u64;
                self.wr_fr(d, lo | (hi << 32), false);
            }
            Fpmin { d, a, b } => {
                let (a0, a1) = self.rd_fr_packed(a);
                let (b0, b1) = self.rd_fr_packed(b);
                let lo = (if a0 < b0 { a0 } else { b0 }).to_bits() as u64;
                let hi = (if a1 < b1 { a1 } else { b1 }).to_bits() as u64;
                self.wr_fr(d, lo | (hi << 32), false);
            }
            Fpmax { d, a, b } => {
                let (a0, a1) = self.rd_fr_packed(a);
                let (b0, b1) = self.rd_fr_packed(b);
                let lo = (if a0 > b0 { a0 } else { b0 }).to_bits() as u64;
                let hi = (if a1 > b1 { a1 } else { b1 }).to_bits() as u64;
                self.wr_fr(d, lo | (hi << 32), false);
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
            Br { target } => return Ok(Some(resolve(target, &self.br))),
            BrCall { b_save, target } => {
                let ret = self.ip + Bundle::SIZE;
                let t = resolve(target, &self.br);
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
    use crate::asm::CodeBuilder;
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
            cb.push(Op::AddImm {
                d: Gr(33),
                imm: 0x10,
                a: Gr(32),
            });
            cb.stop();
            cb.push(Op::Sub {
                d: Gr(34),
                a: Gr(33),
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
            cb.push(Op::AddImm {
                d: Gr(0),
                imm: 99,
                a: R0,
            });
            cb.stop();
            cb.push(Op::Add {
                d: Gr(32),
                a: R0,
                b: R0,
            });
            cb.stop();
        });
        run(&mut m);
        assert_eq!(m.gr[0], 0);
        assert_eq!(m.gr[32], 0);
    }

    #[test]
    fn predication_gates_execution() {
        let mut m = build(|cb| {
            cb.push(Op::CmpImm {
                rel: CmpRel::Eq,
                pt: Pr(1),
                pf: Pr(2),
                imm: 0,
                b: R0,
            });
            cb.stop();
            cb.push_pred(
                Pr(1),
                Op::AddImm {
                    d: Gr(32),
                    imm: 11,
                    a: R0,
                },
            );
            cb.push_pred(
                Pr(2),
                Op::AddImm {
                    d: Gr(33),
                    imm: 22,
                    a: R0,
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
            cb.push(Op::AddImm {
                d: Gr(32),
                imm: 0x100,
                a: R0,
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
            cb.push(Op::AddImm {
                d: Gr(35),
                imm: 0x101,
                a: R0,
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
            cb.push(Op::AddImm {
                d: Gr(40),
                imm: 7,
                a: R0,
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
        use crate::inst::Op::*;
        // d = approx 1/b (or the final special result, with p cleared).
        cb.push(Frcpa { d, p, a, b });
        cb.stop();
        // Three NR iterations: y <- y + y*(1 - b*y).
        for _ in 0..3 {
            cb.push_pred(
                p,
                Fnma {
                    d: t1,
                    a: b,
                    b: d,
                    c: F1,
                },
            );
            cb.stop();
            cb.push_pred(
                p,
                Fma {
                    d,
                    a: d,
                    b: t1,
                    c: d,
                },
            );
            cb.stop();
        }
        // q0 = a*y; r = a - b*q0; q = q0 + r*y (Markstein correction).
        cb.push_pred(
            p,
            Fma {
                d: t2,
                a,
                b: d,
                c: F0,
            },
        );
        cb.stop();
        cb.push_pred(
            p,
            Fnma {
                d: t1,
                a: b,
                b: t2,
                c: a,
            },
        );
        cb.stop();
        cb.push_pred(
            p,
            Fma {
                d,
                a: t1,
                b: d,
                c: t2,
            },
        );
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
            cb.push(Op::AddImm {
                d: Gr(33),
                imm: 1,
                a: Gr(32),
            });
            cb.stop();
            let done = cb.label();
            cb.push(Op::Br {
                target: Target::Label(done.0),
            });
            cb.bind(func);
            cb.push(Op::AddImm {
                d: Gr(32),
                imm: 41,
                a: R0,
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
            cb.push(Op::AddImm {
                d: Gr(32),
                imm: 0x100,
                a: R0,
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
                cb.push(Op::AddImm {
                    d: Gr(34),
                    imm: 1,
                    a: Gr(33),
                });
                cb.stop();
            }
        });
        run(&mut dependent);
        let dep_cycles = dependent.cycles;

        let mut independent = build(|cb| {
            for i in 0..20u16 {
                cb.push(Op::AddImm {
                    d: Gr(32 + (i % 8)),
                    imm: 1,
                    a: R0,
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
            cb1.push(Op::AddImm {
                d: Gr(32),
                imm: 1,
                a: Gr(32),
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

    /// Asserts the arena's cached issue metadata equals a fresh
    /// derivation for every slot it holds.
    fn assert_meta_coherent(arena: &CodeArena) {
        assert_eq!(arena.tags.len, arena.bundles.len());
        for (idx, b) in arena.bundles.iter().enumerate() {
            for (slot, inst) in b.slots.iter().enumerate() {
                assert_eq!(
                    arena.metas.get(arena.tags[idx].meta[slot], inst),
                    inst.slot_meta(),
                    "bundle {idx} slot {slot}: {inst:?}"
                );
            }
        }
    }

    /// A pseudo-random physical-register instruction covering every
    /// unit, latency class and operand shape the metadata encodes.
    fn random_inst(x: &mut u64) -> Inst {
        let mut next = |n: u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            (*x % n) as u16
        };
        let (g, f, p, b) = (next(128), next(128), next(64), next(8) as u8);
        let (g2, f2, p2) = (next(128), next(128), next(64));
        let op = match next(12) {
            0 => Op::Add {
                d: Gr(g),
                a: Gr(g2),
                b: Gr(next(128)),
            },
            1 => Op::Cmp {
                rel: CmpRel::Ltu,
                pt: Pr(p),
                pf: Pr(p2),
                a: Gr(g),
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

    fn random_bundles(x: &mut u64, n: usize) -> Vec<Bundle> {
        (0..n)
            .map(|_| Bundle {
                slots: [random_inst(x), random_inst(x), random_inst(x)],
                ..Bundle::nops()
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
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 16 {
                0..=4 => {
                    let code = random_bundles(&mut x, n);
                    live.push((arena.append(code, step as u32), n));
                }
                5..=7 => {
                    if let Some(addr) = arena.alloc(n) {
                        let code = random_bundles(&mut x, n);
                        live.push((arena.place(addr, code, step as u32), n));
                    }
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
        }
        assert!(arena.len() > 100, "the walk must leave real code behind");
        assert!(arena.metas.metas.len() > 100);
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
                        a: Gr((v >> 7 & 127) as u16),
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
    fn region_cycles_are_complete_when_run_returns() {
        // Two regions, alternating through a loop: whatever the lazy
        // accumulation holds back must be in the map after every `run`,
        // including runs cut short by the instruction limit.
        let mut cb = CodeBuilder::new();
        for _ in 0..4 {
            cb.push(Op::AddImm {
                d: Gr(32),
                imm: 1,
                a: Gr(32),
            });
            cb.stop();
        }
        let (b0, _) = cb.assemble(BASE);
        let second = BASE + b0.len() as u64 * Bundle::SIZE;
        let mut cb = CodeBuilder::new();
        cb.push(Op::AddImm {
            d: Gr(33),
            imm: 1,
            a: Gr(33),
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
    fn inst_limit_stops() {
        let mut cb = CodeBuilder::new();
        let top = cb.label();
        cb.bind(top);
        cb.push(Op::AddImm {
            d: Gr(32),
            imm: 1,
            a: Gr(32),
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
