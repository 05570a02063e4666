//! The translation engine: the dispatch loop tying the translation
//! cache, the Itanium machine, the OS layer, and the two translation
//! phases together (paper Figure 2).

use crate::btos::{BtOs, ExceptionOutcome, GuestException, SyscallOutcome};
use crate::chaos::{Blacklist, FaultKind, FaultPlan};
use crate::cold::discover::discover;
use crate::cold::gen::{generate, ColdGenInput, SpecSeed};
use crate::cold::liveness::analyze;
use crate::cost;
use crate::layout::{self, region, StubKind};
use crate::policy;
use crate::registry::Registry;
use crate::state::{self, GR_PAYLOAD0, GR_STATE};
use crate::stats::Stats;
use crate::templates::{AccessMode, MisalignPlan};
use crate::trace::{EventData, EventKind, Phase, Rung, SpanToken, TraceConfig, Tracer};
use ia32::cpu::Cpu;
use ia32::interp::{Event, Interp};
use ia32::mem::{GuestMem, MemFaultKind, Prot};
use ipf::asm::Relocatable;
use ipf::inst::{FFmt, Op, Target};
use ipf::machine::{Bus, BusError, CodeArena, MachFault, Machine, StopReason};
use std::collections::{HashMap, HashSet};

/// Engine configuration — the knobs the benchmarks and ablations turn.
/// Charges and thresholds nothing varies are constants in
/// [`crate::cost`] and [`crate::policy`].
///
/// No longer `Copy`: the warm-start fields (`save_image`,
/// `load_image`) carry heap-allocated paths, so pass clones where a
/// config is reused.
#[derive(Clone, Debug)]
pub struct Config {
    /// Heating threshold (power of two). 0 disables hot translation.
    pub heat_threshold: u64,
    /// Optimization session trigger: this many registered candidates
    /// (or one block registering twice) starts hot translation.
    pub hot_candidates: usize,
    /// Master switch for the hot phase.
    pub enable_hot: bool,
    /// EFlags liveness analysis (ablation knob).
    pub enable_flag_liveness: bool,
    /// Compare+branch fusion (ablation knob).
    pub enable_fusion: bool,
    /// Misalignment detection and avoidance (ablation knob; off = every
    /// misaligned access takes the OS-handled fault).
    pub enable_misalign_avoidance: bool,
    /// FP TOS/tag/mode/format speculation (off = inline checks).
    pub enable_fp_spec: bool,
    /// Machine timing parameters.
    pub timing: ipf::Timing,
    /// Translation-cache capacity in bundles. 0 = unbounded. Exceeding
    /// it evicts cold, low-use blocks incrementally (see
    /// `enable_eviction`), falling back to a full flush when nothing is
    /// evictable.
    pub max_cache_bundles: usize,
    /// Incremental, generation-aware eviction under cache pressure.
    /// Off = the paper's wholesale garbage collection (every capacity
    /// overflow discards the entire cache, FX!32-style).
    pub enable_eviction: bool,
    /// Verify each block's arena checksum before dispatching into it;
    /// a mismatch (corrupted cache line) evicts and retranslates
    /// instead of executing garbage. Opt-in: costs
    /// [`cost::INTEGRITY_CHECK_CYCLES`] per dispatch.
    pub verify_on_dispatch: bool,
    /// Cycle budget (OVERHEAD region) for one hot optimization session;
    /// the watchdog aborts the session past it and keeps the cold
    /// code. 0 = unbounded.
    pub hot_session_budget: u64,
    /// Base re-promotion backoff (simulated cycles) after a demotion;
    /// doubles per strike.
    pub blacklist_backoff_cycles: u64,
    /// SMC-thrash governor: invalidation events tolerated per guest
    /// code page within [`policy::SMC_THRASH_WINDOW`] cycles before the page is
    /// blacklisted to interpret-only execution. 0 disables the
    /// governor.
    pub smc_thrash_threshold: u32,
    /// Observability knobs: lifecycle tracing and per-block profiling
    /// (off by default — zero cost when disabled).
    pub trace: TraceConfig,
    /// Serialize the translation cache into a warm-start image at this
    /// path on a clean exit (`Halted`/`Exited`). See
    /// [`crate::persist`].
    pub save_image: Option<std::path::PathBuf>,
    /// Load a warm-start image from this path before the first
    /// dispatch. A stale or damaged image degrades (per extent or
    /// wholesale) to ordinary on-demand translation — it never aborts
    /// the run.
    pub load_image: Option<std::path::PathBuf>,
    /// Statically pre-translate the guest CFG reachable from the entry
    /// point before the first dispatch, merging with any loaded image
    /// (already-installed blocks are skipped).
    pub pretranslate: bool,
    /// Restore persisted hot-phase profiles (heat/edge counters,
    /// inline-cache hints) when loading a warm-start image or
    /// importing from a shared namespace. On (the default), a warm
    /// boot resumes hot promotion where the saved profile left off —
    /// the right policy for long-lived processes, where the promotion
    /// investment amortizes. Off, translations still load but profile
    /// from zero: the right policy for short-lived processes whose
    /// start-up window can never amortize an eager hot compile.
    pub restore_profiles: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            heat_threshold: 1024,
            hot_candidates: 4,
            enable_hot: true,
            enable_flag_liveness: true,
            enable_fusion: true,
            enable_misalign_avoidance: true,
            enable_fp_spec: true,
            timing: ipf::Timing::default(),
            max_cache_bundles: 0,
            enable_eviction: true,
            verify_on_dispatch: false,
            hot_session_budget: 0,
            blacklist_backoff_cycles: 100_000,
            smc_thrash_threshold: 8,
            trace: TraceConfig::default(),
            save_image: None,
            load_image: None,
            pretranslate: false,
            restore_profiles: true,
        }
    }
}

/// Whether an indirect site whose inline cache hit `hits` times over
/// `uses` executions counts as monomorphic. The single shared predicate
/// for both the devirtualization gate (hot selection) and the
/// megamorphic demotion check, so the boundary `hits * 2 == uses`
/// (exactly 50%) belongs to exactly one side: it *is* monomorphic —
/// promoted by the gate, never demoted.
pub(crate) fn site_is_monomorphic(hits: u64, uses: u64) -> bool {
    hits.saturating_mul(2) >= uses
}

/// A translator-internal failure (organic or injected) that the
/// degradation ladder recovers from instead of panicking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// Translated code branched out of the arena to a non-stub address
    /// (corrupted or mispatched code).
    NonStubBranch {
        /// The bad branch target.
        target: u64,
        /// Arena address of the branching bundle.
        from: u64,
    },
    /// A NaT-flagged value was consumed (failed control/data
    /// speculation that escaped its `chk.s`).
    NatConsumption {
        /// Faulting arena address.
        ip: u64,
        /// Faulting slot.
        slot: u8,
    },
    /// A misalignment fault was taken on a bundle the engine cannot
    /// emulate (clobbered code or a non-memory op).
    MisalignResidue {
        /// Faulting arena address.
        ip: u64,
        /// Faulting slot.
        slot: u8,
    },
}

impl EngineError {
    /// The arena `(bundle address, slot)` the failure was raised at.
    fn site(self) -> (u64, u8) {
        match self {
            EngineError::NonStubBranch { from, .. } => (from, 0),
            EngineError::NatConsumption { ip, slot }
            | EngineError::MisalignResidue { ip, slot } => (ip, slot),
        }
    }
}

/// Why the engine returned.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Guest executed `HLT`.
    Halted(Box<Cpu>),
    /// Guest exited via a syscall.
    Exited(i32),
    /// An unhandled guest exception terminated the process.
    Terminated {
        /// The exception.
        exc: GuestException,
        /// Precise IA-32 state at the exception.
        cpu: Box<Cpu>,
    },
    /// The guest-instruction budget ran out.
    InstLimit,
}

/// Block translation phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockKind {
    /// Cold, misalignment stage 1 (probes).
    ColdV1,
    /// Cold, misalignment stage 2 (detect + avoid + record).
    ColdV2,
    /// Hot trace.
    Hot,
}

/// Per-block bookkeeping.
#[derive(Debug)]
pub struct BlockInfo {
    /// Block id (index).
    pub id: u32,
    /// Guest entry address.
    pub eip: u32,
    /// Current entry in the translation cache.
    pub entry: u64,
    /// Arena range `[start, end)` of the *latest* version.
    pub range: (u64, u64),
    /// Arena extents of *every* generation of this block (oldest first,
    /// latest last). Superseded generations stay allocated — their entry
    /// bundles forward to the latest — until the block is evicted, when
    /// all of them are reclaimed together.
    pub extents: Vec<(u64, u64)>,
    /// True once the block has been evicted from the cache: its extents
    /// are on the arena free list and it must not be executed.
    pub evicted: bool,
    /// Kind/stage.
    pub kind: BlockKind,
    /// Profile slots.
    pub counter_addr: u64,
    /// Taken/fallthrough edge counters.
    pub edge_counters: (u64, u64),
    /// Per-access misalignment-info slots.
    pub misinfo_base: u64,
    /// Per-site inline-cache slot `(pred_eip, pred_entry, hit_count)`
    /// for an indirect jmp/call terminator.
    pub ic_slot: u64,
    /// Demoted to the plain table probe: the block's inline cache or
    /// shadow pop proved chronically wrong, so its translations carry
    /// no per-site acceleration (see [`crate::policy::MEGAMORPHIC_DEMOTE_USES`]
    /// and [`crate::policy::SHADOW_DEMOTE_MISSES`]).
    pub indirect_plain: bool,
    /// Shadow-stack pop misses observed by the dispatcher for this
    /// (ret-terminated) block.
    pub pop_misses: u32,
    /// Number of indexed accesses.
    pub accesses: u16,
    /// Speculation seeds used at translation time.
    pub spec: SpecSeed,
    /// Speculated FP/MMX entry mode.
    pub entry_mmx: bool,
    /// Inline FP checks variant (post-TagFix).
    pub inline_fp: bool,
    /// IA-32 instructions covered.
    pub ia32_insts: usize,
    /// Learned per-access misalignment modes.
    pub misalign_overrides: HashMap<u16, AccessMode>,
    /// Misalignment faults taken inside this block since (re)generation.
    pub misalign_faults: u32,
    /// Heat registrations (for the "registered twice" trigger).
    pub registrations: u32,
    /// Degradation-ladder failures charged to this generation.
    pub failures: u32,
    /// Speculation (NaT) failures charged to this generation.
    pub spec_failures: u32,
    /// FNV-1a checksum of the latest generation's bundles (maintained
    /// only under `Config::verify_on_dispatch`).
    pub checksum: u64,
    /// Guest source byte span `[start, end)` this block was translated
    /// from (per-extent SMC invalidation checks it).
    pub src_range: (u32, u32),
    /// FNV-1a checksum of the source bytes at translation time. A store
    /// to the block's page orphans the block only when this changes.
    pub src_fnv: u64,
    /// Hot recovery data (commit maps), if this is a hot block.
    pub hot: Option<crate::hot::HotData>,
}

/// FNV-1a over guest source bytes (the per-extent SMC invalidation
/// key; same construction as the arena's bundle checksum).
pub(crate) fn src_checksum(mem: &GuestMem, range: (u32, u32)) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut addr = range.0 as u64;
    while addr < range.1 as u64 {
        // One page at a time: a page that cannot be fetched from hashes
        // as zeros (the chunk stays as it was), whatever its neighbours.
        let page_end = (addr | (ia32::mem::PAGE_SIZE - 1)) + 1;
        let mut chunk = [0u8; 64];
        let n = (page_end.min(range.1 as u64) - addr).min(chunk.len() as u64) as usize;
        let _ = mem.fetch_into(addr, &mut chunk[..n]);
        for &byte in &chunk[..n] {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        addr += n as u64;
    }
    h
}

/// Why a cold translation is happening — decides what the block is
/// charged and which speculation seed it is generated under.
#[derive(Clone, Copy, Debug)]
pub(crate) enum XlateOrigin {
    /// Ordinary on-demand translation at dispatch time.
    Demand,
    /// Static pre-translation pass before first dispatch (full cold
    /// cost, paid up front).
    Pretranslate,
    /// Materialization of a validated record — from a warm-start
    /// image, or published to the shared multi-tenant namespace
    /// ([`crate::serving`]) by a peer tenant: reuse the saved FP
    /// speculation seed and indirect-dispatch shape, and charge only
    /// the flat [`crate::cost::IMAGE_LOAD_CYCLES`].
    Record {
        /// FP speculation seed the block was originally generated under.
        spec: SpecSeed,
        /// Saved `indirect_plain` (demoted-to-plain indirect dispatch).
        plain: bool,
        /// Where the record came from.
        source: RecordSource,
    },
}

/// Where a materialized record came from: decides which counters its
/// install and its rejection bump, and whether the block is published
/// (a namespace import's record is already current there).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RecordSource {
    /// A warm-start image ([`crate::persist::load`]).
    Image,
    /// The shared namespace, consulted on a translation miss.
    Namespace,
}

/// Adapts [`GuestMem`] to the machine's bus.
pub struct MemBus<'a>(pub &'a mut GuestMem);

impl Bus for MemBus<'_> {
    fn read(&mut self, addr: u64, size: u32) -> Result<u64, BusError> {
        self.0.read(addr, size).map_err(|f| match f.kind {
            MemFaultKind::Unmapped => BusError::Unmapped,
            MemFaultKind::NoRead | MemFaultKind::NoExec => BusError::NoRead,
            MemFaultKind::NoWrite => BusError::NoWrite,
            MemFaultKind::SmcWrite => BusError::Smc,
        })
    }

    fn write(&mut self, addr: u64, size: u32, val: u64) -> Result<(), BusError> {
        self.0.write(addr, size, val).map_err(|f| match f.kind {
            MemFaultKind::SmcWrite => BusError::Smc,
            MemFaultKind::Unmapped => BusError::Unmapped,
            MemFaultKind::NoWrite => BusError::NoWrite,
            _ => BusError::NoRead,
        })
    }
}

/// The shareable code-cache half of an engine: every bookkeeping
/// structure that describes *translations* rather than the guest
/// running through them. This is the state the multi-tenant serving
/// layer shares across sessions (at the generation-metadata level,
/// through [`crate::serving::SharedCache`]): the block table, the
/// [`Registry`] of indices over it, profile/heat allocation, and the
/// SMC governor. Pulling it out of [`Engine`] makes the per-guest /
/// shareable boundary explicit and gives invalidation paths a single
/// seam to notify the shared namespace from.
#[derive(Debug)]
pub(crate) struct CodeCache {
    /// The degradation ladder's re-promotion blacklist.
    pub(crate) blacklist: Blacklist,
    /// Every block ever translated, by id (including evicted ones).
    pub(crate) blocks: Vec<BlockInfo>,
    /// Every index over `blocks`: where each translation is, which
    /// pages it came from, and what points at it.
    pub(crate) registry: Registry,
    /// Next free per-block profile slot.
    pub(crate) profile_cursor: u64,
    /// Pages that have modified translated code at least once
    /// (translations get an explicit snapshot-check prologue).
    pub(crate) smc_pages: HashSet<u32>,
    /// SMC-thrash governor state: page -> (window start, invalidation
    /// events inside the window).
    pub(crate) smc_window: HashMap<u32, (u64, u32)>,
    /// Pages blacklisted to interpret-only by the SMC-thrash governor
    /// (exponential un-blacklist backoff, keyed by page number).
    pub(crate) smc_blacklist: Blacklist,
    /// Profile slot per guest EIP, persistent across retranslation and
    /// eviction so re-heated blocks promote quickly.
    pub(crate) profile_of: HashMap<u32, u64>,
    /// End of the currently mapped prefix of the profile region (grown
    /// on demand through `BtOs::alloc_pages`).
    pub(crate) profile_mapped: u64,
    /// Every allocated inline-cache slot address (one per profile slot,
    /// shared overflow slot included once). Eviction, SMC invalidation,
    /// and flushing scan this list to purge stale predictions;
    /// `collect_indirect_stats` sums the per-site hit counters over it.
    pub(crate) ic_slots: Vec<u64>,
}

/// The per-guest half of an engine: session-scoped state that must
/// never be shared between tenants. The IA-32 register file, EFLAGS
/// home, shadow return stack, and inline-cache training state live in
/// the session's own `Machine`/`GuestMem` (fixed translator addresses
/// inside per-guest memory); this struct carries the per-session
/// scalars alongside them plus the session's attachment to a shared
/// translation namespace.
#[derive(Debug)]
pub(crate) struct GuestContext {
    /// Dynamic nesting depth of recovery operations (degradation
    /// ladder, SMC invalidation). > 0 while already recovering; a
    /// failure at depth >= 1 is re-entrant.
    pub(crate) recovery_depth: u32,
    /// Block whose code the engine may still patch or resume in the
    /// current exit handling — never an eviction victim.
    pub(crate) pinned_block: Option<u32>,
    /// Whether the warm-boot sequence (image load + pre-translation)
    /// has already run; `run` performs it exactly once, before the
    /// first dispatch.
    pub(crate) warm_booted: bool,
    /// This session's handle into a shared, sharded translation-cache
    /// namespace (None = single-tenant).
    pub(crate) shared: Option<crate::serving::SharedTenant>,
}

/// The IA-32 Execution Layer engine: one guest session
/// (`GuestContext` + its `GuestMem`/`Machine`) over a code cache
/// (`CodeCache`) that may be backed by a shared namespace.
pub struct Engine {
    /// Guest memory (application + translator data).
    pub mem: GuestMem,
    /// The Itanium machine (owns the translation cache arena).
    pub machine: Machine,
    /// Configuration.
    pub cfg: Config,
    /// Execution statistics.
    pub stats: Stats,
    /// Attached fault-injection schedule (None = no chaos).
    pub chaos: Option<FaultPlan>,
    /// The lifecycle tracer / flight recorder (inert unless
    /// `Config::trace.enabled`).
    pub tracer: Tracer,
    /// The shareable code-cache state.
    pub(crate) cache: CodeCache,
    /// The per-guest session state.
    pub(crate) ctx: GuestContext,
}

/// Per-block profile slot: 8-byte use counter, two 8-byte edge
/// counters, 64 misalignment-info words, then the 24-byte inline-cache
/// slot `(pred_eip, pred_entry, hit_count)`.
const IC_OFFSET: u64 = 24 + 64 * 8;

const PROFILE_STRIDE: u64 = IC_OFFSET + 24;

/// Granularity of on-demand profile-region mapping (page-aligned).
const PROFILE_CHUNK: u64 = 0x1_0000;

impl Engine {
    /// Creates an engine over the given guest memory.
    pub fn new(mut mem: GuestMem, cfg: Config) -> Engine {
        // Map only the lookup table plus one reserved overflow profile
        // slot up front; per-block profile slots are allocated on
        // demand through `BtOs::alloc_pages` so the OS can refuse them.
        let head = (layout::COUNTERS_BASE + PROFILE_STRIDE - layout::PROFILE_BASE)
            .next_multiple_of(PROFILE_CHUNK);
        mem.map(layout::PROFILE_BASE, head, Prot::rw());
        // Empty-key the shadow stack and the shared overflow inline
        // cache so freshly mapped (zeroed) slots can never match a
        // guest EIP.
        for i in 0..layout::SHADOW_ENTRIES {
            let _ = mem.write(
                layout::SHADOW_BASE + i * layout::SHADOW_ENTRY_SIZE,
                8,
                layout::LOOKUP_EMPTY_KEY,
            );
        }
        let _ = mem.write(
            layout::COUNTERS_BASE + IC_OFFSET,
            8,
            layout::LOOKUP_EMPTY_KEY,
        );
        let arena = CodeArena::new(layout::TC_BASE);
        let machine = Machine::new(arena, cfg.timing);
        let tracer = Tracer::new(cfg.trace);
        Engine {
            mem,
            machine,
            stats: Stats::default(),
            chaos: None,
            tracer,
            cache: CodeCache {
                blacklist: Blacklist::new(cfg.blacklist_backoff_cycles),
                blocks: Vec::new(),
                registry: Registry::default(),
                profile_cursor: layout::COUNTERS_BASE + PROFILE_STRIDE,
                smc_pages: HashSet::new(),
                smc_window: HashMap::new(),
                smc_blacklist: Blacklist::new(policy::SMC_BACKOFF_CYCLES),
                profile_of: HashMap::new(),
                profile_mapped: layout::PROFILE_BASE + head,
                ic_slots: vec![layout::COUNTERS_BASE + IC_OFFSET],
            },
            ctx: GuestContext {
                recovery_depth: 0,
                pinned_block: None,
                warm_booted: false,
                shared: None,
            },
            cfg,
        }
    }

    /// Every allocated inline-cache slot (coherence tests scan these).
    pub fn ic_slots(&self) -> &[u64] {
        &self.cache.ic_slots
    }

    /// The re-promotion blacklist (inspection for tests/figures).
    pub fn blacklist(&self) -> &Blacklist {
        &self.cache.blacklist
    }

    /// Mutable blacklist access (tests drive the policy directly).
    pub fn blacklist_mut(&mut self) -> &mut Blacklist {
        &mut self.cache.blacklist
    }

    /// Block info by id.
    pub fn block(&self, id: u32) -> &BlockInfo {
        &self.cache.blocks[id as usize]
    }

    /// All blocks (stats/tests).
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.cache.blocks
    }

    /// Audits the code cache after a registry transition (debug builds
    /// only; a release build compiles this to nothing).
    fn audited(&self) {
        #[cfg(debug_assertions)]
        if let Err(broken) = self.audit_transition() {
            panic!("code-cache audit: {broken}");
        }
    }

    fn current_spec(&self) -> SpecSeed {
        SpecSeed {
            tos: (self.machine.gr[state::GR_FPTOP.0 as usize] & 7) as u8,
            mmx_mode: self.machine.gr[state::GR_FPMODE.0 as usize] & 1 != 0,
            xmm_fmt: self.machine.gr[state::GR_XMMFMT.0 as usize] as u8,
        }
    }

    /// Allocates one per-block profile slot, growing the mapped profile
    /// region through the OS on demand. When the region is exhausted or
    /// the OS refuses the mapping (ENOMEM), degrades to the shared
    /// overflow slot at `COUNTERS_BASE` — colliding use counters cost
    /// profile quality, never correctness.
    fn alloc_profile(&mut self, os: &mut dyn BtOs) -> u64 {
        let p = self.cache.profile_cursor;
        let end = p + PROFILE_STRIDE;
        if end > layout::PROFILE_BASE + layout::PROFILE_SIZE {
            self.stats.os_alloc_failures += 1;
            return layout::COUNTERS_BASE;
        }
        while end > self.cache.profile_mapped {
            if !os.alloc_pages(&mut self.mem, self.cache.profile_mapped, PROFILE_CHUNK) {
                self.stats.os_alloc_failures += 1;
                return layout::COUNTERS_BASE;
            }
            self.cache.profile_mapped += PROFILE_CHUNK;
        }
        self.cache.profile_cursor = end;
        let _ = self.mem.write(p + IC_OFFSET, 8, layout::LOOKUP_EMPTY_KEY);
        self.cache.ic_slots.push(p + IC_OFFSET);
        p
    }

    /// Renders the translated code of a block as annotated assembly
    /// (bundles, stop bits, and templates) — the debugging view a
    /// translator developer lives in.
    pub fn disassemble_block(&self, id: u32) -> String {
        use std::fmt::Write;
        let Some(b) = self.cache.blocks.get(id as usize) else {
            return String::from("<no such block>");
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "block {} @ guest {:#x} ({:?}, {} IA-32 insts)",
            b.id, b.eip, b.kind, b.ia32_insts
        );
        let mut addr = b.range.0;
        while addr < b.range.1 {
            if let Some(bundle) = self.machine.arena.bundle_at(addr) {
                let _ = writeln!(out, "  {addr:#x}: {bundle}");
            }
            addr += ipf::Bundle::SIZE;
        }
        out
    }

    /// Flushes the entire translation cache (the paper's garbage
    /// collection: "cold blocks may be recycled due to
    /// garbage-collection"): every block is discarded, the lookup table
    /// cleared, and code pages un-protected; translation restarts on
    /// demand. Profile counters persist, so re-heated blocks promote
    /// quickly.
    pub fn flush_cache(&mut self) {
        self.stats.cache_flushes += 1;
        self.machine.arena.truncate(layout::TC_BASE);
        self.cache.blocks.clear();
        self.ctx.pinned_block = None;
        for page in self.cache.registry.clear() {
            self.mem.set_code_protect((page as u64) << 12, false);
        }
        // All translated code is gone: no lookup way, shadow-stack
        // prediction or inline-cache entry may survive (their targets
        // are arena addresses). Hit counters persist like use counters.
        let ways = (0..layout::LOOKUP_ENTRIES)
            .map(|i| layout::LOOKUP_BASE + i * layout::LOOKUP_ENTRY_SIZE);
        let shadow = (0..layout::SHADOW_ENTRIES)
            .map(|i| layout::SHADOW_BASE + i * layout::SHADOW_ENTRY_SIZE);
        for key in ways
            .chain(shadow)
            .chain(self.cache.ic_slots.iter().copied())
        {
            let _ = self.mem.write(key, 8, layout::LOOKUP_EMPTY_KEY);
        }
        let _ = self.mem.write(layout::SHADOW_TOS, 8, 0);
        // A flush drops every local translation at once: bump every
        // shard generation so peers re-validate (conservatively) and
        // this tenant's re-publishes re-seed the namespace.
        self.shared_notify(|ns, c| ns.bump_all(c));
        self.audited();
    }

    /// Harvests the indirect-acceleration memory cells into the
    /// statistics. Idempotent like [`Engine::collect_hot_exit_stats`]:
    /// every counter is *assigned* from its cell, and the inline-cache
    /// hit total is an order-independent sum over all site slots.
    pub fn collect_indirect_stats(&mut self) {
        let cell = |mem: &GuestMem, a: u64| mem.read(a, 8).unwrap_or(0);
        let mut ic_hits = 0;
        for &s in &self.cache.ic_slots {
            ic_hits += cell(&self.mem, s + 16);
        }
        self.stats.ic_hits = ic_hits;
        self.stats.ic_misses = cell(&self.mem, layout::CELL_IC_MISSES);
        self.stats.shadow_hits = cell(&self.mem, layout::CELL_SHADOW_HITS);
        self.stats.shadow_underflows = cell(&self.mem, layout::CELL_SHADOW_UNDERFLOWS);
        self.stats.shadow_mispredicts = cell(&self.mem, layout::CELL_SHADOW_MISPREDICTS);
        self.stats.devirt_guard_fails = cell(&self.mem, layout::CELL_DEVIRT_FAILS);
    }

    /// Harvests the hot side-exit counters into the statistics (call
    /// after a run; the counters live in translator memory).
    ///
    /// Idempotent: the counters are *assigned*, not accumulated, so the
    /// bench harness may call this any number of times without
    /// double-counting `hot_side_exits`.
    pub fn collect_hot_exit_stats(&mut self) {
        let mut side = 0;
        for b in &self.cache.blocks {
            if b.kind == BlockKind::Hot && !b.evicted {
                side += self.mem.read(b.edge_counters.0, 8).unwrap_or(0);
            }
        }
        self.stats.hot_side_exits = side;
    }

    /// Every live hot trace's recovery map, keyed by the trace's guest
    /// EIP — the surface the exhaustive commit-point sweep test walks
    /// to round-trip `reconstruct_at` against the interpreter oracle.
    pub fn hot_recovery_maps(&self) -> Vec<(u32, &crate::hot::HotData)> {
        self.cache
            .blocks
            .iter()
            .filter(|b| !b.evicted && b.kind == BlockKind::Hot)
            .filter_map(|b| b.hot.as_ref().map(|h| (b.eip, h)))
            .collect()
    }

    /// The live block translated from `eip`, if any.
    pub(crate) fn live_block(&self, eip: u32) -> Option<&BlockInfo> {
        let id = self.cache.registry.live(eip)?;
        Some(&self.cache.blocks[id as usize])
    }

    /// Entry address for `eip` if already translated (no translation).
    pub fn entry_of_existing(&self, eip: u32) -> Option<u64> {
        self.live_block(eip).map(|b| b.entry)
    }

    /// Offers one lifecycle event to the tracer, charging
    /// [`TraceConfig::event_cycles`] to the `OTHER` region iff the event
    /// was actually recorded — the honest, visible cost of a trace
    /// write. With tracing disabled this is a single branch and charges
    /// nothing, so an untraced run is cycle-identical to a build that
    /// never had tracing (the zero-cost-when-off contract).
    pub(crate) fn trace_emit(&mut self, data: EventData) {
        if !self.cfg.trace.enabled {
            return;
        }
        if self.tracer.offer(self.machine.cycles, data) {
            self.machine
                .charge(region::OTHER, self.cfg.trace.event_cycles);
        }
    }

    /// Opens a traced phase span (`None` when tracing is off).
    fn trace_phase_enter(&mut self, phase: Phase) -> Option<SpanToken> {
        if !self.cfg.trace.enabled {
            return None;
        }
        let (token, recorded) = self.tracer.phase_enter(self.machine.cycles, phase);
        if recorded {
            self.machine
                .charge(region::OTHER, self.cfg.trace.event_cycles);
        }
        Some(token)
    }

    /// Closes a traced phase span opened by [`Engine::trace_phase_enter`].
    fn trace_phase_exit(&mut self, token: Option<SpanToken>) {
        let Some(token) = token else {
            return;
        };
        if self.tracer.phase_exit(self.machine.cycles, token) {
            self.machine
                .charge(region::OTHER, self.cfg.trace.event_cycles);
        }
    }

    /// Feeds the profile table (free: profiles are engine bookkeeping,
    /// only ring writes are charged).
    fn trace_profile(&mut self, f: impl FnOnce(&mut Tracer)) {
        if self.cfg.trace.enabled {
            f(&mut self.tracer);
        }
    }

    /// Cycles accumulated so far in machine region `r`.
    fn region_cycle(&self, r: u32) -> u64 {
        self.machine.region_cycles.get(&r).copied().unwrap_or(0)
    }

    /// Renders the tracer's human-readable report: recorder counters,
    /// per-kind observed counts, and the top-10 hot-path table.
    pub fn trace_summary(&self) -> String {
        let mut s = self.tracer.summary();
        s.push('\n');
        s.push_str(&self.tracer.hot_path_table(10));
        s
    }

    /// Installs a hot trace as the new version of `block_id`. `hot`
    /// comes as [`Engine::install_generation`] takes it.
    pub(crate) fn install_hot(
        &mut self,
        block_id: u32,
        code: Relocatable,
        hot: crate::hot::HotData,
        ia32_insts: usize,
    ) {
        let commit_points = hot.recovery.len() as u64;
        let b = &mut self.cache.blocks[block_id as usize];
        b.ia32_insts = ia32_insts;
        b.misalign_faults = 0;
        b.failures = 0;
        b.spec_failures = 0;
        let eip = b.eip;
        // The promoted candidate may be a stale generation whose cold
        // registration was already swept (an SMC orphan between the
        // heat event and this promotion). The trace itself is fresh —
        // selection decoded current guest bytes — so it is registered
        // like any other generation, or page invalidation sweeps would
        // never find it and a later rewrite of its source would leave
        // it running stale (reachable through the dispatch lookup table).
        let entry = self.install_generation(block_id, code, BlockKind::Hot, Some(hot));
        // Refresh the indirect-branch lookup entry and any inline
        // cache predicting this EIP if it pointed at the old version —
        // the forward keeps stale entries correct, but direct is faster.
        for s in self.predictions_of(eip) {
            let _ = self.mem.write(s + 8, 8, entry);
        }
        self.trace_emit(EventData::BlockPromoted {
            id: block_id,
            eip,
            commit_points,
        });
        self.trace_profile(|t| t.profile_lifecycle(eip, EventKind::BlockPromoted));
    }

    /// The one way translated code becomes the current generation of
    /// block `id`, whichever phase produced it. The block's record
    /// exists and still names what it had before (`entry` the previous
    /// generation's, or the Untranslated stub for a first translation).
    /// Places `code` where the arena has room, forwards the previous
    /// entry to it, points the record at it, makes it the live
    /// translation of its EIP (a trace under every page of `hot.spans`,
    /// a cold block under its own source's), and returns its entry.
    ///
    /// `hot` is the recovery data of a trace, its `by_slot` keyed by
    /// byte offset into `code`: it is rebased along with the code.
    fn install_generation(
        &mut self,
        id: u32,
        code: Relocatable,
        kind: BlockKind,
        hot: Option<crate::hot::HotData>,
    ) -> u64 {
        let len = code.len() as u64 * ipf::Bundle::SIZE;
        let region = match kind {
            BlockKind::Hot => region::HOT,
            BlockKind::ColdV1 | BlockKind::ColdV2 => region::COLD,
        };
        let entry = self.machine.arena.install(code, region);
        let range = (entry, entry + len);
        self.forward(self.cache.blocks[id as usize].entry, entry);
        let b = &mut self.cache.blocks[id as usize];
        b.entry = entry;
        b.range = range;
        b.kind = kind;
        b.hot = hot.map(|mut hot| {
            let rebased = hot
                .by_slot
                .drain()
                .map(|((at, slot), rec)| ((entry + at, slot), rec));
            hot.by_slot = rebased.collect();
            hot
        });
        self.register(id);
        if kind == BlockKind::Hot {
            // Hot exits were chained at emission time: record them all,
            // so eviction of a target can un-link them.
            for (target, site) in self.chained_branches(range.0, range.1, id) {
                self.cache.registry.link(target, site);
            }
        }
        if self.cfg.verify_on_dispatch {
            self.cache.blocks[id as usize].checksum =
                self.machine.arena.checksum_range(range.0, range.1);
        }
        self.audited();
        entry
    }

    /// The single caller of [`Registry::install`]: block `id`'s record
    /// already names its new generation. Write-protects every page of
    /// its source (unless a page is read-only or already in
    /// explicit-check mode) and sends whatever block the new one
    /// displaced back through dispatch.
    fn register(&mut self, id: u32) {
        let (mem, smc_pages) = (&self.mem, &self.cache.smc_pages);
        let protectable = |page: u32| {
            mem.prot_of((page as u64) << 12).map(|p| p.write) == Some(true)
                && !smc_pages.contains(&page)
        };
        let b = &mut self.cache.blocks[id as usize];
        let done = self.cache.registry.install(b, protectable);
        for page in done.protect {
            self.mem.set_code_protect((page as u64) << 12, true);
        }
        if let Some(old) = done.displaced {
            let entry = self.cache.blocks[old as usize].entry;
            self.forward(entry, StubKind::Reenter.addr());
        }
    }

    /// Returns the entry address for `eip`, translating a cold block if
    /// necessary.
    pub fn entry_of(&mut self, os: &mut dyn BtOs, eip: u32) -> Result<u64, GuestException> {
        if let Some(entry) = self.entry_of_existing(eip) {
            return Ok(entry);
        }
        // SMC-thrashed pages are interpret-only until their backoff
        // expires: retranslating code the guest is busy rewriting is
        // pure churn (the thrash governor's bound on retranslation
        // storms).
        if self
            .cache
            .smc_blacklist
            .is_blocked(eip >> 12, self.machine.cycles)
        {
            self.stats.smc_interp_blocks += 1;
            return Ok(self.interp_stub_for(eip));
        }
        // Injected transient translation failure (the guest code page
        // faulted under the translator's reader): single-step this
        // entry through the safety net; the next dispatch retries.
        if self
            .chaos
            .as_mut()
            .is_some_and(|p| p.roll(FaultKind::Translate))
        {
            self.stats.faults_injected += 1;
            self.stats.ladder_recoveries += 1;
            self.trace_emit(EventData::FaultInjected {
                kind: FaultKind::Translate,
            });
            self.note_interp_fallback(eip);
            return Ok(self.interp_stub_for(eip));
        }
        if self.cfg.max_cache_bundles > 0
            && self.machine.arena.live_len() >= self.cfg.max_cache_bundles
        {
            if self.cfg.enable_eviction {
                self.make_room();
            } else {
                self.flush_cache();
            }
        }
        // A local translation miss is the one place the shared
        // multi-tenant namespace is consulted — the read-only dispatch
        // fast path above never touches a shard lock.
        if let Some(entry) = self.shared_consult(os, eip) {
            return Ok(entry);
        }
        self.translate_cold(os, eip, BlockKind::ColdV1, false, HashMap::new())
    }

    /// Frees cache space by evicting cold, low-use blocks until live
    /// usage drops to ¾ of capacity (incremental garbage collection).
    /// Registered heat candidates and the pinned block are never
    /// victims; hot blocks are spared by the first pass and evicted
    /// only as a last resort (their use counters persist, so they
    /// re-heat quickly). If even that leaves the cache full, falls back
    /// to a full flush (the emergency path in `Stats::cache_flushes`).
    fn make_room(&mut self) {
        let cap = self.cfg.max_cache_bundles;
        let target = cap - cap / 4;
        self.evict_pass(target, false);
        if self.machine.arena.live_len() > target {
            self.evict_pass(target, true);
        }
        if self.machine.arena.live_len() >= cap {
            self.flush_cache();
        }
    }

    /// One eviction sweep toward `target` live bundles, over cold
    /// blocks only or (`include_hot`) hot blocks too.
    fn evict_pass(&mut self, target: usize, include_hot: bool) {
        // Victims coldest-first: blocks orphaned by SMC invalidation (no
        // longer in the registry) count as use 0; live blocks sort by
        // their profile use counter. Every unevicted block has a live
        // extent, so the extent index enumerates exactly those (once
        // per live generation — deduplicated after the sort).
        let mut victims: Vec<(u64, u32)> = self
            .cache
            .registry
            .unevicted()
            .map(|id| &self.cache.blocks[id as usize])
            .filter(|b| {
                (include_hot == (b.kind == BlockKind::Hot))
                    && Some(b.id) != self.ctx.pinned_block
                    && !self.cache.registry.candidates().contains(&b.id)
            })
            .map(|b| {
                let uses = if self.cache.registry.is_registered(b) {
                    self.mem.read(b.counter_addr, 8).unwrap_or(0)
                } else {
                    0
                };
                (uses, b.id)
            })
            .collect();
        victims.sort_unstable();
        victims.dedup();
        for (_, id) in victims {
            if self.machine.arena.live_len() <= target {
                break;
            }
            self.evict_block(id);
        }
    }

    /// Surgically removes one block from the translation cache:
    /// re-points inbound chained branches at the Untranslated stub,
    /// purges its indirect-branch lookup entry, scrubs bookkeeping that
    /// references its code, and returns every generation's extent to
    /// the arena free list.
    pub(crate) fn evict_block(&mut self, id: u32) {
        let b = &mut self.cache.blocks[id as usize];
        let eip = b.eip;
        let crate::registry::Retired { extents, inbound } = self.cache.registry.retire(b);
        let in_extents = |addr: u64| extents.iter().any(|&(s, e)| addr >= s && addr < e);
        // Un-link inbound edges. The chaining bundle's trampoline movl
        // (payload = target EIP) is still upstream of the branch, so
        // re-pointing the branch at the stub restores the original
        // dispatch semantics exactly.
        for from in inbound {
            self.unlink_branch(from, &extents);
        }
        // Purge lookup entries — only where the slot both keys on this
        // EIP and still targets the victim's code; a colliding or newer
        // entry in the same set must survive.
        for w in 0..layout::LOOKUP_WAYS {
            let slot = layout::lookup_slot(eip) + w * layout::LOOKUP_ENTRY_SIZE;
            if self.mem.read(slot, 8) == Ok(eip as u64) {
                let tgt = self.mem.read(slot + 8, 8).unwrap_or(0);
                if in_extents(tgt) {
                    let _ = self.mem.write(slot, 8, layout::LOOKUP_EMPTY_KEY);
                    self.stats.lookup_purges += 1;
                }
            }
        }
        // The victim's code must be unreachable through every
        // acceleration path: null shadow-stack predictions and
        // inline-cache entries that name it. (Forwarded old generations
        // are kept alive until eviction precisely so this is the only
        // purge point.)
        for i in 0..layout::SHADOW_ENTRIES {
            let ea = layout::SHADOW_BASE + i * layout::SHADOW_ENTRY_SIZE;
            let tgt = self.mem.read(ea + 8, 8).unwrap_or(0);
            if in_extents(tgt) {
                let _ = self.mem.write(ea, 8, layout::LOOKUP_EMPTY_KEY);
            }
        }
        for i in 0..self.cache.ic_slots.len() {
            let s = self.cache.ic_slots[i];
            let k = self.mem.read(s, 8).unwrap_or(layout::LOOKUP_EMPTY_KEY);
            let tgt = self.mem.read(s + 8, 8).unwrap_or(0);
            if k == eip as u64 || in_extents(tgt) {
                let _ = self.mem.write(s, 8, layout::LOOKUP_EMPTY_KEY);
            }
        }
        let mut freed = 0;
        for &(s, e) in &extents {
            freed += (e - s) / ipf::Bundle::SIZE;
            self.machine.arena.release(s, e);
        }
        // The ladder may evict the very block whose exit it is handling.
        if self.ctx.pinned_block == Some(id) {
            self.ctx.pinned_block = None;
        }
        self.stats.evictions += 1;
        self.stats.evicted_bundles += freed;
        // Tell the shared namespace: peers must never import a record
        // whose publisher has reclaimed the backing extents (gen bump).
        self.shared_notify(|ns, c| ns.invalidate(eip, c) as u64);
        self.trace_emit(EventData::BlockEvicted {
            id,
            eip,
            bundles: freed,
        });
        self.trace_profile(|t| t.profile_lifecycle(eip, EventKind::BlockEvicted));
        self.audited();
    }

    /// Scans the code in `[start, end)` for branches chained straight
    /// to the entry of an unevicted block other than `skip`: `(target
    /// block, bundle address)` each. Cold translation records its
    /// trampolines one by one as it patches them; hot installation
    /// chains exits at emission time and records what this finds. An
    /// unrecorded chain is a use-after-free in waiting: evicting the
    /// target releases — and eventually reuses — the arena space the
    /// branch still lands in.
    fn chained_branches(&self, start: u64, end: u64, skip: u32) -> Vec<(u32, u64)> {
        let mut found = Vec::new();
        for addr in (start..end).step_by(ipf::Bundle::SIZE as usize) {
            if let Some(b) = self.machine.arena.bundle_at(addr) {
                for s in &b.slots {
                    if let Some(Target::Abs(t)) = s.op.target() {
                        // A block's entry lies in its own latest extent,
                        // so the extent's owner is the only candidate.
                        let tid = self.cache.registry.owner_of(t).filter(|&tid| {
                            tid != skip && self.cache.blocks[tid as usize].entry == t
                        });
                        found.extend(tid.map(|tid| (tid, addr)));
                    }
                }
            }
        }
        found
    }

    /// Re-points every branch slot in the bundle at `addr` that targets
    /// one of `extents` back at the Untranslated stub.
    fn unlink_branch(&mut self, addr: u64, extents: &[(u64, u64)]) {
        let Some(b) = self.machine.arena.bundle_at(addr) else {
            return;
        };
        let mut patches = Vec::new();
        for (i, s) in b.slots.iter().enumerate() {
            if let Some(Target::Abs(t)) = s.op.target() {
                if extents.iter().any(|&(st, en)| t >= st && t < en) {
                    patches.push(i);
                }
            }
        }
        for i in patches {
            self.machine.arena.patch_slot(
                addr,
                i,
                Op::Br {
                    target: Target::Abs(StubKind::Untranslated.addr()),
                },
            );
            self.stats.chain_unlinks += 1;
        }
        self.note_patched(addr);
    }

    /// Inserts `eip -> entry` into the 2-way lookup table: a matching
    /// way is updated in place, an empty way is filled, and a full set
    /// demotes way 0 into way 1 and claims way 0 (newest-first
    /// pseudo-LRU). `lookup_collisions` counts inserts into a set
    /// already holding a live foreign key; `lookup_way_conflicts`
    /// counts the displacements of a live entry.
    pub(crate) fn lookup_insert(&mut self, eip: u32, entry: u64) {
        let s0 = layout::lookup_slot(eip);
        let s1 = s0 + layout::LOOKUP_ENTRY_SIZE;
        let k0 = self.mem.read(s0, 8).unwrap_or(layout::LOOKUP_EMPTY_KEY);
        let k1 = self.mem.read(s1, 8).unwrap_or(layout::LOOKUP_EMPTY_KEY);
        // Zero keys are freshly mapped, never-written entries.
        let is_empty = |k: u64| k == layout::LOOKUP_EMPTY_KEY || k == 0;
        let slot = if k0 == eip as u64 {
            s0
        } else if k1 == eip as u64 {
            s1
        } else if is_empty(k0) {
            if !is_empty(k1) {
                self.stats.lookup_collisions += 1;
            }
            s0
        } else if is_empty(k1) {
            self.stats.lookup_collisions += 1;
            s1
        } else {
            self.stats.lookup_collisions += 1;
            self.stats.lookup_way_conflicts += 1;
            let t0 = self.mem.read(s0 + 8, 8).unwrap_or(0);
            let _ = self.mem.write(s1, 8, k0);
            let _ = self.mem.write(s1 + 8, 8, t0);
            s0
        };
        let _ = self.mem.write(slot, 8, eip as u64);
        let _ = self.mem.write(slot + 8, 8, entry);
    }

    /// Addresses of every `(eip, entry)` prediction currently keyed on
    /// `eip`: its lookup-table ways, then the inline caches naming it.
    fn predictions_of(&self, eip: u32) -> Vec<u64> {
        let ways = (0..layout::LOOKUP_WAYS)
            .map(|w| layout::lookup_slot(eip) + w * layout::LOOKUP_ENTRY_SIZE);
        ways.chain(self.cache.ic_slots.iter().copied())
            .filter(|&s| self.mem.read(s, 8) == Ok(eip as u64))
            .collect()
    }

    /// Cold-translates the block at `eip` on demand (a specific
    /// version), updating the registry and patching pending links via
    /// the forwarding rule.
    fn translate_cold(
        &mut self,
        os: &mut dyn BtOs,
        eip: u32,
        kind: BlockKind,
        inline_fp: bool,
        overrides: HashMap<u16, AccessMode>,
    ) -> Result<u64, GuestException> {
        self.translate(os, eip, kind, inline_fp, overrides, XlateOrigin::Demand)
    }

    /// Cold-translates the block at `eip` for `origin` — on demand,
    /// ahead of first dispatch, or re-materializing an image or shared
    /// record (the deterministic generator re-run at the current arena
    /// position is the relocation mechanism) — bracketed by a
    /// [`Phase::ColdTranslate`] trace span.
    pub(crate) fn translate(
        &mut self,
        os: &mut dyn BtOs,
        eip: u32,
        kind: BlockKind,
        inline_fp: bool,
        overrides: HashMap<u16, AccessMode>,
        origin: XlateOrigin,
    ) -> Result<u64, GuestException> {
        let span = self.trace_phase_enter(Phase::ColdTranslate);
        let r = self.translate_cold_inner(os, eip, kind, inline_fp, overrides, origin);
        self.trace_phase_exit(span);
        r
    }

    fn translate_cold_inner(
        &mut self,
        os: &mut dyn BtOs,
        eip: u32,
        kind: BlockKind,
        inline_fp: bool,
        overrides: HashMap<u16, AccessMode>,
        origin: XlateOrigin,
    ) -> Result<u64, GuestException> {
        let region_g = discover(&self.mem, eip);
        let Some(disc) = region_g.block_at(eip) else {
            return Err(GuestException::PageFault {
                addr: eip,
                write: false,
            });
        };
        let src_range = (eip, disc.end_ip());
        let src_fnv = src_checksum(&self.mem, src_range);
        let liveness = analyze(&region_g);
        let (id, profile, prev, indirect_plain, pop_misses) = match self.live_block(eip) {
            Some(b) => (
                b.id,
                b.counter_addr,
                Some((b.entry, b.range)),
                b.indirect_plain,
                b.pop_misses,
            ),
            None => {
                let id = self.cache.blocks.len() as u32;
                // Profile slots are keyed by guest EIP and survive both
                // eviction and flushing, so a re-translated block keeps
                // its use counter and re-heats quickly.
                let profile = match self.cache.profile_of.get(&eip) {
                    Some(&p) => p,
                    None => {
                        let p = self.alloc_profile(os);
                        self.cache.profile_of.insert(eip, p);
                        p
                    }
                };
                let plain = match origin {
                    XlateOrigin::Record { plain, .. } => plain,
                    _ => false,
                };
                (id, profile, None, plain, 0)
            }
        };
        let spec = match origin {
            // A record carries the FP speculation seed the block was
            // generated under — reusing it keeps the regenerated code
            // byte-identical in shape to what was validated and
            // saved/published.
            XlateOrigin::Record { spec, .. } => spec,
            _ if self.cfg.enable_fp_spec => self.current_spec(),
            _ => SpecSeed::default(),
        };
        let default_mode = match kind {
            BlockKind::ColdV1 if self.cfg.enable_misalign_avoidance => AccessMode::Probe,
            BlockKind::ColdV2 => AccessMode::DetectAvoid,
            _ => AccessMode::Fast,
        };
        let misalign = MisalignPlan {
            default: default_mode,
            overrides: overrides.clone(),
            info_base: profile + 24,
            block_id: id,
        };
        // SMC-aware prologue for pages that have already modified code.
        let page = eip >> 12;
        let smc_check = if self.cache.smc_pages.contains(&page) {
            let snapshot = self.mem.read(eip as u64, 8).unwrap_or(0);
            Some((eip as u64, snapshot))
        } else {
            None
        };
        let input = ColdGenInput {
            region: &region_g,
            liveness: &liveness,
            entry: eip,
            block_id: id,
            counter_addr: profile,
            edge_counters: (profile + 8, profile + 16),
            heat_threshold: if self.cfg.enable_hot {
                self.cfg.heat_threshold
            } else {
                0
            },
            misalign,
            spec,
            flag_liveness: self.cfg.enable_flag_liveness,
            fuse: self.cfg.enable_fusion,
            inline_fp_checks: inline_fp || !self.cfg.enable_fp_spec,
            smc_check,
            ic_slot: profile + IC_OFFSET,
            plain: indirect_plain,
        };
        let gen = match generate(&input) {
            Ok(g) => g,
            Err(_) => {
                // Unlowerable block: a stub that single-steps from here
                // (the bottom rung of the degradation ladder). Nothing
                // is registered for the EIP, so every dispatch to it
                // comes back here — to the one stub it already has.
                self.note_interp_fallback(eip);
                return Ok(self.interp_stub_for(eip));
            }
        };
        // Charge translation overhead. A materialized record pays only
        // the flat validate-and-install cost, not the per-instruction
        // translation cost — that asymmetry is the entire warm-start
        // speedup, and the multi-tenant dedup win.
        match origin {
            XlateOrigin::Record { source, .. } => {
                self.machine
                    .charge(region::OVERHEAD, cost::IMAGE_LOAD_CYCLES);
                match source {
                    RecordSource::Image => self.stats.image_blocks_loaded += 1,
                    RecordSource::Namespace => self.stats.shared_installs += 1,
                }
            }
            _ => {
                self.machine.charge(
                    region::OVERHEAD,
                    (gen.ia32_insts as u64).max(1) * cost::COLD_XLATE_CYCLES,
                );
                self.stats.cold_blocks += 1;
                self.stats.cold_ia32_insts += gen.ia32_insts as u64;
                self.stats.cold_native_insts += gen.native_insts as u64;
                if matches!(origin, XlateOrigin::Pretranslate) {
                    self.stats.pretranslated_blocks += 1;
                }
            }
        }
        // The block's record, still naming what stood here before — a
        // live block's generation, which stays allocated (its entry
        // will forward to the new one; eviction reclaims the whole list
        // at once), or nothing.
        let (entry, range, extents) = match prev {
            Some((entry, range)) => {
                let extents = std::mem::take(&mut self.cache.blocks[id as usize].extents);
                (entry, range, extents)
            }
            None => (StubKind::Untranslated.addr(), (0, 0), Vec::new()),
        };
        let info = BlockInfo {
            id,
            eip,
            entry,
            range,
            extents,
            evicted: false,
            kind,
            counter_addr: profile,
            edge_counters: (profile + 8, profile + 16),
            misinfo_base: profile + 24,
            ic_slot: profile + IC_OFFSET,
            indirect_plain,
            pop_misses,
            accesses: gen.accesses,
            spec,
            entry_mmx: gen.entry_mmx,
            inline_fp,
            ia32_insts: gen.ia32_insts,
            misalign_overrides: overrides,
            misalign_faults: 0,
            registrations: 0,
            failures: 0,
            spec_failures: 0,
            checksum: 0,
            src_range,
            src_fnv,
            hot: None,
        };
        match prev {
            Some(_) => self.cache.blocks[id as usize] = info,
            None => self.cache.blocks.push(info),
        }
        let n_bundles = gen.code.len() as u64;
        let entry = self.install_generation(id, gen.code, kind, None);
        let end = entry + n_bundles * ipf::Bundle::SIZE;
        // Register this block's untranslated-target trampolines and
        // proactively chain the ones whose target already exists, so
        // the block never round-trips through the dispatcher for them
        // and eviction can find every inbound edge later.
        for &(texit, tramp) in &gen.exits {
            let Some(br) = self.exit_branch_bundle(entry + tramp, end) else {
                continue;
            };
            match self.cache.registry.live(texit) {
                Some(tid) => self.chain(br, tid),
                None => self.cache.registry.await_target(texit, br),
            }
        }
        // Chain every trampoline that was already waiting for this EIP.
        for br in self.cache.registry.take_waiting(eip) {
            self.chain(br, id);
        }
        self.trace_emit(EventData::BlockTranslated {
            id,
            eip,
            stage2: kind == BlockKind::ColdV2,
            bundles: n_bundles,
        });
        self.trace_profile(|t| t.profile_lifecycle(eip, EventKind::BlockTranslated));
        // Export the freshly validated generation metadata to the
        // shared namespace so peer tenants skip this translation.
        // Imports themselves are not re-published (their record is
        // already current); organic retranslation after a generation
        // bump is exactly how invalidated entries become current again.
        if !matches!(
            origin,
            XlateOrigin::Record {
                source: RecordSource::Namespace,
                ..
            }
        ) {
            self.shared_publish(eip);
        }
        Ok(entry)
    }

    /// Attaches this session to a shared multi-tenant translation
    /// namespace (see [`crate::serving`]). From now on, translation
    /// misses consult the namespace before paying the cold-translation
    /// cost, fresh translations are published to it, and every local
    /// invalidation path (SMC, eviction, governor blacklist, flush)
    /// notifies it. Attach before the first dispatch; tenants of the
    /// same namespace must run the same binary under the same config
    /// (the namespace key — [`crate::serving::namespace_key`] — encodes
    /// both, and the per-record source checksums enforce it).
    pub fn attach_shared(&mut self, tenant: crate::serving::SharedTenant) {
        self.ctx.shared = Some(tenant);
    }

    /// Consults the shared namespace for `eip` on a local translation
    /// miss and materializes a current entry at this tenant's arena
    /// position, profile hints included. Returns the installed entry,
    /// or `None` to fall through to ordinary cold translation.
    fn shared_consult(&mut self, os: &mut dyn BtOs, eip: u32) -> Option<u64> {
        let tenant = self.ctx.shared.clone()?;
        let mut contention = 0;
        let consult = tenant.ns.consult(eip, &mut contention);
        self.stats.shared_lock_contention += contention;
        match consult {
            crate::serving::Consult::Hit(e) => {
                let record = std::slice::from_ref(&e.block);
                self.materialize(os, record, RecordSource::Namespace).entry
            }
            crate::serving::Consult::GenStale | crate::serving::Consult::Denied => {
                self.stats.shared_gen_rejects += 1;
                None
            }
            crate::serving::Consult::Miss => None,
        }
    }

    /// Publishes the current translation of `eip` (its generation
    /// metadata + profile hints) to the shared namespace, if attached.
    /// Hot traces are not published — like warm-start images, the
    /// shared record is always the cold base a peer re-heats from.
    fn shared_publish(&mut self, eip: u32) {
        let Some(tenant) = self.ctx.shared.clone() else {
            return;
        };
        // A block already stale against our own memory is not exported:
        // it would only hand peers a guaranteed reject.
        let Some(b) = self.live_block(eip).filter(|b| {
            b.kind != BlockKind::Hot && src_checksum(&self.mem, b.src_range) == b.src_fnv
        }) else {
            return;
        };
        let rec = crate::persist::record_of(self, b);
        let mut contention = 0;
        if tenant.ns.publish(rec, &mut contention) {
            self.stats.shared_publishes += 1;
        }
        self.stats.shared_lock_contention += contention;
    }

    /// End-of-slice profile sync: pushes this tenant's current heat /
    /// edge / inline-cache observations into the shared namespace
    /// (max-merge, so sync order between tenants cannot flap the stored
    /// profile). The scheduler calls this when a session is harvested,
    /// so later tenants start with the hottest profile any peer earned.
    pub fn shared_sync(&mut self) {
        let Some(tenant) = self.ctx.shared.clone() else {
            return;
        };
        let mut contention = 0;
        for (eip, id) in self.cache.registry.registered() {
            let b = &self.cache.blocks[id as usize];
            let heat = self.mem.read(b.counter_addr, 8).unwrap_or(0);
            let taken = self.mem.read(b.edge_counters.0, 8).unwrap_or(0);
            let fall = self.mem.read(b.edge_counters.1, 8).unwrap_or(0);
            let pred = self
                .mem
                .read(b.ic_slot, 8)
                .unwrap_or(layout::LOOKUP_EMPTY_KEY);
            let hits = self.mem.read(b.ic_slot + 16, 8).unwrap_or(0);
            let ic =
                if pred != layout::LOOKUP_EMPTY_KEY && pred != 0 && site_is_monomorphic(hits, heat)
                {
                    (pred as u32, hits.min(u32::MAX as u64) as u32)
                } else {
                    (0, 0)
                };
            tenant.ns.refresh_profile(
                eip,
                heat,
                (
                    taken.min(u32::MAX as u64) as u32,
                    fall.min(u32::MAX as u64) as u32,
                ),
                ic,
                &mut contention,
            );
        }
        self.stats.shared_lock_contention += contention;
    }

    /// Tells the shared namespace, if attached, about a local
    /// invalidation: `pull` removes what peers must no longer import
    /// (one record on eviction or a ladder strike, a page's on SMC or a
    /// governor blacklist, nothing but the generations on a flush) and
    /// returns how many shard generations it bumped.
    fn shared_notify(&mut self, pull: impl FnOnce(&crate::serving::Namespace, &mut u64) -> u64) {
        let Some(tenant) = self.ctx.shared.clone() else {
            return;
        };
        let mut contention = 0;
        self.stats.shared_gen_bumps += pull(&tenant.ns, &mut contention);
        self.stats.shared_lock_contention += contention;
    }

    /// Finds the bundle holding a trampoline's branch to the
    /// Untranslated stub: trampoline labels are bundle-aligned, so the
    /// first stub-targeting branch at or after `tramp` (bounded by the
    /// block's end) belongs to that trampoline.
    fn exit_branch_bundle(&self, tramp: u64, end: u64) -> Option<u64> {
        let stub = Some(Target::Abs(StubKind::Untranslated.addr()));
        (tramp..end)
            .step_by(ipf::Bundle::SIZE as usize)
            .find(|&addr| {
                let bundle = self.machine.arena.bundle_at(addr);
                bundle.is_some_and(|b| b.slots.iter().any(|s| s.op.target() == stub))
            })
    }

    /// Counts and traces one trip to the degradation ladder's bottom
    /// rung: the instruction at `eip` goes through the interpreter.
    fn note_interp_fallback(&mut self, eip: u32) {
        self.stats.interp_fallbacks += 1;
        self.trace_emit(EventData::LadderRung {
            rung: Rung::Interpret,
            eip,
        });
        self.trace_emit(EventData::InterpFallback { eip });
    }

    /// Returns (emitting on first use) the interpreter stub for `eip`.
    /// Interpret-only pages, and blocks that cannot be translated,
    /// re-dispatch the same EIPs over and over, so stubs are cached per
    /// EIP (cleared on cache flush). Nothing is registered for the EIP:
    /// a later successful translation still wins, because dispatch asks
    /// `entry_of_existing` first.
    pub(crate) fn interp_stub_for(&mut self, eip: u32) -> u64 {
        if let Some(addr) = self.cache.registry.interp_stub(eip) {
            return addr;
        }
        let addr = self.emit_interp_stub(eip);
        self.cache.registry.remember_stub(eip, addr);
        addr
    }

    /// Emits a tiny stub that single-steps the instruction at `eip`.
    fn emit_interp_stub(&mut self, eip: u32) -> u64 {
        let mut cb = ipf::asm::CodeBuilder::new();
        cb.push(Op::Movl {
            d: GR_STATE,
            imm: eip as u64,
        });
        cb.stop();
        cb.push(Op::Br {
            target: Target::Abs(StubKind::InterpStep.addr()),
        });
        let code = cb.assemble_relocatable();
        self.machine.arena.install(code, region::OTHER)
    }

    /// Patches the entry bundle of an old block version to branch to the
    /// new version ("block forwarding").
    fn forward(&mut self, old_entry: u64, new_entry: u64) {
        // A block that had no code yet "enters" at a stub.
        if self.machine.arena.index_of(old_entry).is_none() {
            return;
        }
        let mut cb = ipf::asm::CodeBuilder::new();
        cb.push(Op::Br {
            target: Target::Abs(new_entry),
        });
        let (bundles, _) = cb.assemble(old_entry);
        let b = bundles.into_iter().next().expect("one bundle");
        // Replace all three slots.
        for (slot, inst) in b.slots.iter().enumerate() {
            self.machine.arena.patch_slot(old_entry, slot, inst.op);
        }
        self.note_patched(old_entry);
    }

    /// Maps an arena address back to the block whose *latest*
    /// generation contains it (an address in a superseded generation
    /// answers `None`).
    fn block_at_addr(&self, addr: u64) -> Option<u32> {
        let id = self.cache.registry.owner_of(addr).filter(|&id| {
            let (s, e) = self.cache.blocks[id as usize].range;
            addr >= s && addr < e
        });
        debug_assert_eq!(id, self.scan_for_owner(addr, false));
        id
    }

    /// Maps an arena address back to the owning block, searching every
    /// live generation (the degradation ladder must attribute failures
    /// in superseded extents too — live extents are disjoint).
    fn block_at_addr_any(&self, addr: u64) -> Option<u32> {
        let id = self.cache.registry.owner_of(addr);
        debug_assert_eq!(id, self.scan_for_owner(addr, true));
        id
    }

    /// The linear scan over every block ever translated that the extent
    /// index replaces, kept as the reference `debug_assert!` (and the
    /// index tests) compare each answer with.
    fn scan_for_owner(&self, addr: u64, any_generation: bool) -> Option<u32> {
        let within = |&(s, e): &(u64, u64)| addr >= s && addr < e;
        self.cache
            .blocks
            .iter()
            .find(|b| {
                if any_generation {
                    !b.evicted && b.extents.iter().any(within)
                } else {
                    within(&b.range)
                }
            })
            .map(|b| b.id)
    }

    /// Re-records the owning block's checksum after a *legitimate* code
    /// patch (chaining, unlinking, forwarding), so verify-on-dispatch
    /// flags only unsanctioned modifications.
    fn note_patched(&mut self, addr: u64) {
        if !self.cfg.verify_on_dispatch {
            return;
        }
        if let Some(id) = self.block_at_addr(addr) {
            let (s, e) = self.cache.blocks[id as usize].range;
            self.cache.blocks[id as usize].checksum = self.machine.arena.checksum_range(s, e);
        }
    }

    /// Verify-on-dispatch: checks the target block's checksum before
    /// entering it. On a mismatch the corrupted block is evicted (the
    /// caller falls back to the slow path, which retranslates) and
    /// false is returned.
    fn verify_dispatch(&mut self, eip: u32) -> bool {
        let Some(id) = self.cache.registry.live(eip) else {
            return true;
        };
        self.machine
            .charge(region::OTHER, cost::INTEGRITY_CHECK_CYCLES);
        let b = &self.cache.blocks[id as usize];
        if self.machine.arena.checksum_range(b.range.0, b.range.1) == b.checksum {
            return true;
        }
        self.stats.integrity_evictions += 1;
        self.stats.ladder_recoveries += 1;
        self.evict_block(id);
        false
    }

    /// Reconstructs the precise IA-32 state at a fault (paper §4).
    pub fn reconstruct(&self, ip: u64, slot: u8) -> Cpu {
        if let Some(id) = self.block_at_addr(ip) {
            let b = &self.cache.blocks[id as usize];
            if let Some(hot) = &b.hot {
                if let Some(cpu) = hot.reconstruct(&self.machine, ip, slot) {
                    return cpu;
                }
            }
        }
        // Cold code: the IA-32 state register holds the faulting EIP and
        // all state is in its canonical home.
        let eip = self.machine.gr[GR_STATE.0 as usize] as u32;
        state::machine_to_cpu(&self.machine, eip)
    }

    /// Runs the guest from `cpu` until exit/trap/limit.
    ///
    /// On the first call this performs the warm-boot sequence: load a
    /// warm-start image if [`Config::load_image`] is set (a stale or
    /// damaged image degrades to on-demand translation, it never aborts
    /// the run), then statically pre-translate the CFG reachable from
    /// the entry point if [`Config::pretranslate`] is set. On a clean
    /// exit (`Halted`/`Exited`), the translation cache is serialized to
    /// [`Config::save_image`] if set.
    pub fn run(&mut self, os: &mut dyn BtOs, cpu: Cpu, max_slots: u64) -> Outcome {
        if !self.ctx.warm_booted {
            self.ctx.warm_booted = true;
            // Install the entry state first so pre-translation sees the
            // same FP speculation seeds the first dispatch would.
            state::cpu_to_machine(&cpu, &mut self.machine);
            if let Some(path) = self.cfg.load_image.clone() {
                match std::fs::read(&path) {
                    Ok(bytes) => {
                        crate::persist::load(self, os, &bytes);
                    }
                    Err(_) => {
                        // Missing/unreadable image: a warm start that
                        // cannot happen, not an error — run cold.
                        self.stats.image_rejects += 1;
                    }
                }
            }
            if self.cfg.pretranslate {
                crate::persist::pretranslate(self, os, cpu.eip);
            }
        }
        let out = self.run_loop(os, Some(cpu), max_slots);
        self.autosave(&out);
        out
    }

    /// Serializes the translation cache to [`Config::save_image`] on a
    /// clean exit (shared by [`Engine::run`] and [`Engine::resume`] —
    /// a time-sliced session saves when its final slice exits).
    fn autosave(&mut self, out: &Outcome) {
        if matches!(out, Outcome::Halted(_) | Outcome::Exited(_)) {
            if let Some(path) = self.cfg.save_image.clone() {
                let image = crate::persist::snapshot(self);
                let blocks = image.blocks.len() as u64;
                if std::fs::write(&path, crate::persist::encode(&image)).is_ok() {
                    self.stats.image_saves += 1;
                    self.stats.image_blocks_saved += blocks;
                }
            }
        }
    }

    /// Continues a run that stopped on [`Outcome::InstLimit`] without
    /// resetting machine state: the machine picks up at the exact next
    /// unexecuted slot, mid-block, with no dispatch-boundary work (the
    /// same mechanism the signal quantum already relies on). This is
    /// what lets a cooperative scheduler (`btlib`'s serving layer)
    /// time-slice thousands of sessions over shared translations.
    /// Calling it before [`Engine::run`] has established machine state
    /// is a caller bug; the guest would dispatch from EIP 0.
    pub fn resume(&mut self, os: &mut dyn BtOs, max_slots: u64) -> Outcome {
        let out = self.run_loop(os, None, max_slots);
        self.autosave(&out);
        out
    }

    fn run_loop(&mut self, os: &mut dyn BtOs, start: Option<Cpu>, max_slots: u64) -> Outcome {
        // Resuming (start == None): machine state is live from the
        // previous slice — re-importing the CPU or re-dispatching would
        // clobber a mid-block stop. Skip the boundary section once and
        // let the machine continue at its next unexecuted slot.
        let mut resuming = start.is_none();
        let mut eip = match start {
            Some(cpu) => {
                state::cpu_to_machine(&cpu, &mut self.machine);
                cpu.eip
            }
            // Attribution EIP for traces until the next real dispatch:
            // the state register holds the current block's guest EIP.
            None => self.machine.gr[GR_STATE.0 as usize] as u32,
        };
        let mut remaining = max_slots;
        'dispatch: loop {
            if resuming {
                resuming = false;
            } else {
                self.trace_profile(|t| t.profile_dispatch(eip));
                // Dispatch latency: cycles from this boundary to the
                // resolved translated entry, translation work included.
                let boundary_cycles = self.machine.cycles;
                // Fault injection is consulted at the dispatch boundary:
                // the precise EIP is known and all guest state is in its
                // canonical home, so every injected failure is recoverable.
                if self.chaos.is_some() {
                    self.inject_faults(os, eip);
                }
                // Asynchronous signal delivery at the dispatch boundary: all
                // guest state is canonical and EIP is precise, so a pending
                // signal can be delivered without any reconstruction.
                if let Some(handler) = os.poll_signal(self.machine.cycles) {
                    let cpu = state::machine_to_cpu(&self.machine, eip);
                    match self.deliver_signal(handler, cpu) {
                        ExitAction::Dispatch(e) => {
                            eip = e;
                            continue 'dispatch;
                        }
                        ExitAction::Done(out) => return out,
                        ExitAction::Continue(_) => unreachable!("signal delivery never resumes"),
                    }
                }
                // Chained-dispatch fast path: a registry hit needs no
                // translation work and only minimal state traffic, so it is
                // charged a reduced round-trip cost. Under
                // verify-on-dispatch a checksum mismatch evicts the target
                // and falls back to the slow path (retranslation).
                let fast = match self.entry_of_existing(eip) {
                    Some(e) if !self.cfg.verify_on_dispatch || self.verify_dispatch(eip) => Some(e),
                    _ => None,
                };
                let entry = if let Some(e) = fast {
                    self.machine
                        .charge(region::OTHER, cost::DISPATCH_FAST_CYCLES);
                    self.stats.dispatch_fast_hits += 1;
                    e
                } else {
                    self.machine.charge(region::OTHER, cost::DISPATCH_CYCLES);
                    match self.entry_of(os, eip) {
                        Ok(e) => e,
                        Err(exc) => {
                            let at = self.machine.gr[GR_STATE.0 as usize] as u32;
                            let cpu = state::machine_to_cpu(&self.machine, at);
                            match self.deliver_action(os, exc, cpu) {
                                ExitAction::Dispatch(new_eip) => {
                                    eip = new_eip;
                                    continue 'dispatch;
                                }
                                ExitAction::Done(out) => return out,
                                ExitAction::Continue(_) => unreachable!("never resumes in place"),
                            }
                        }
                    }
                };
                self.stats
                    .dispatch_hist
                    .record(self.machine.cycles - boundary_cycles);
                self.machine.set_ip(entry, 0);
            }
            loop {
                let before = self.machine.inst_count;
                // Profiled runs attribute executed COLD/HOT region
                // cycles to the current dispatch target (chained
                // successors included — a documented approximation).
                let exec0 = if self.cfg.trace.enabled {
                    (
                        self.region_cycle(region::COLD),
                        self.region_cycle(region::HOT),
                    )
                } else {
                    (0, 0)
                };
                // With signals pending, bound the burst to the signal
                // quantum so a long-running hot trace reaches a stop
                // near the arrival cycle instead of at the next natural
                // exit (which a tight loop may never take).
                let step = if os.signals_pending() {
                    remaining.min(policy::SIGNAL_QUANTUM)
                } else {
                    remaining
                };
                let stop = {
                    let mut bus = MemBus(&mut self.mem);
                    self.machine.run(&mut bus, step)
                };
                if self.cfg.trace.enabled {
                    let dc = self.region_cycle(region::COLD) - exec0.0;
                    let dh = self.region_cycle(region::HOT) - exec0.1;
                    if dc | dh != 0 {
                        self.tracer.profile_exec(eip, dc, dh);
                    }
                }
                let used = self.machine.inst_count - before;
                remaining = remaining.saturating_sub(used);
                match stop {
                    StopReason::InstLimit => {
                        if remaining == 0 {
                            return Outcome::InstLimit;
                        }
                        // Signal-quantum expiry mid-trace. If a signal
                        // is due, hunt forward to the next commit point
                        // (or state boundary) and deliver there;
                        // otherwise just resume — the machine restarts
                        // at the exact next unexecuted slot.
                        if os.signal_due(self.machine.cycles) {
                            match self.hunt_commit_point(os, &mut remaining) {
                                Some(ExitAction::Dispatch(new_eip)) => {
                                    eip = new_eip;
                                    continue 'dispatch;
                                }
                                Some(ExitAction::Done(out)) => return out,
                                Some(ExitAction::Continue(_)) | None => {
                                    // Keep hunting next quantum.
                                }
                            }
                        }
                    }
                    StopReason::ExternalBranch { target, from } => {
                        match self.handle_exit(os, target, from) {
                            ExitAction::Continue(addr) => {
                                self.machine.set_ip(addr, 0);
                            }
                            ExitAction::Dispatch(new_eip) => {
                                eip = new_eip;
                                continue 'dispatch;
                            }
                            ExitAction::Done(out) => return out,
                        }
                    }
                    StopReason::Fault { fault, ip, slot } => {
                        match self.handle_fault(os, fault, ip, slot) {
                            ExitAction::Continue(_) => { /* resumed in place */ }
                            ExitAction::Dispatch(new_eip) => {
                                eip = new_eip;
                                continue 'dispatch;
                            }
                            ExitAction::Done(out) => return out,
                        }
                    }
                }
            }
        }
    }

    fn handle_exit(&mut self, os: &mut dyn BtOs, target: u64, from: u64) -> ExitAction {
        // Pin the block owning `from`: its bundles may be patched or
        // resumed below and must survive any eviction that entry_of
        // triggers while handling this exit.
        self.ctx.pinned_block = self.block_at_addr(from);
        let act = self.handle_exit_stub(os, target, from);
        self.ctx.pinned_block = None;
        act
    }

    fn handle_exit_stub(&mut self, os: &mut dyn BtOs, target: u64, from: u64) -> ExitAction {
        let Some(kind) = StubKind::from_addr(target) else {
            // A branch left the arena to a non-stub address: corrupted
            // or mispatched code. Walk the degradation ladder instead
            // of executing garbage (or dying).
            return self.degrade(os, EngineError::NonStubBranch { target, from });
        };
        let payload = self.machine.gr[GR_PAYLOAD0.0 as usize];
        match kind {
            StubKind::Exit => {
                let eip = self.machine.gr[GR_STATE.0 as usize] as u32;
                ExitAction::Done(Outcome::Halted(Box::new(state::machine_to_cpu(
                    &self.machine,
                    eip,
                ))))
            }
            StubKind::Syscall => {
                let next_eip = self.machine.gr[GR_STATE.0 as usize] as u32;
                let vector = payload as u8;
                let cpu = state::machine_to_cpu(&self.machine, next_eip);
                self.syscall(os, vector, cpu)
            }
            StubKind::Untranslated => {
                let eip = payload as u32;
                match self.entry_of(os, eip) {
                    Ok(entry) => {
                        // Patch the trampoline's branch (the bundle that
                        // exited) to go straight to the new block (or to
                        // the interpreter stub standing in for it).
                        match self.cache.registry.live(eip) {
                            Some(tid) => self.chain(from, tid),
                            None => {
                                self.patch_branch(from, StubKind::Untranslated.addr(), entry);
                            }
                        }
                        ExitAction::Continue(entry)
                    }
                    Err(exc) => {
                        let cpu = state::machine_to_cpu(&self.machine, eip);
                        self.deliver_action(os, exc, cpu)
                    }
                }
            }
            StubKind::IndirectMiss => {
                let eip = payload as u32;
                self.stats.indirect_misses += 1;
                // Payload1 carries the missing site's inline-cache slot
                // (0 for devirt guard exits without a site), or a
                // `RET_MISS_TAG`-tagged block id for shadow-stack pop
                // misses.
                let mut site = self.machine.gr[state::GR_PAYLOAD1.0 as usize];
                if site & layout::RET_MISS_TAG != 0 {
                    // A ret block's shadow pop missed. Count it; a
                    // chronically mispredicting ret block is demoted to
                    // the plain table probe so it stops paying (and
                    // re-missing) the pop on every execution.
                    let id = (site & 0xFFFF_FFFF) as u32;
                    site = 0;
                    if (id as usize) < self.cache.blocks.len() {
                        self.cache.blocks[id as usize].pop_misses += 1;
                        if self.cache.blocks[id as usize].pop_misses >= policy::SHADOW_DEMOTE_MISSES
                            && !self.cache.blocks[id as usize].indirect_plain
                        {
                            self.demote_indirect(os, id);
                        }
                    }
                }
                match self.entry_of(os, eip) {
                    Ok(entry) => {
                        self.lookup_insert(eip, entry);
                        if site != 0 {
                            // Retrain the site's inline cache to its
                            // newest observed target.
                            let _ = self.mem.write(site, 8, eip as u64);
                            let _ = self.mem.write(site + 8, 8, entry);
                            self.stats.ic_retrains += 1;
                            self.trace_emit(EventData::IndirectRetrain { eip, site });
                            self.trace_profile(|t| {
                                t.profile_lifecycle(eip, EventKind::IndirectRetrain)
                            });
                        }
                        ExitAction::Continue(entry)
                    }
                    Err(exc) => {
                        let cpu = state::machine_to_cpu(&self.machine, eip);
                        self.deliver_action(os, exc, cpu)
                    }
                }
            }
            StubKind::Heat => {
                let id = payload as u32;
                self.stats.heat_events += 1;
                let b = &mut self.cache.blocks[id as usize];
                b.registrations += 1;
                let twice = b.registrations >= 2;
                let eip = b.eip;
                // Demoted blocks sit out their re-promotion backoff:
                // no candidacy until the blacklist releases them.
                if self.cache.blacklist.is_blocked(eip, self.machine.cycles) {
                    self.stats.blacklist_hits += 1;
                    return ExitAction::Dispatch(eip);
                }
                self.cache.registry.nominate(id);
                if self.cache.registry.candidates().len() >= self.cfg.hot_candidates || twice {
                    self.run_hot_session(os);
                }
                ExitAction::Dispatch(eip)
            }
            StubKind::MisalignRetrain => {
                let id = payload as u32;
                self.stats.misalign_retrains += 1;
                let eip = self.cache.blocks[id as usize].eip;
                let overrides = self.cache.blocks[id as usize].misalign_overrides.clone();
                let _ = self.translate_cold(os, eip, BlockKind::ColdV2, false, overrides);
                // Continue at the interrupted instruction.
                let cur = self.machine.gr[GR_STATE.0 as usize] as u32;
                ExitAction::Dispatch(cur)
            }
            StubKind::SmcFail => {
                let id = payload as u32;
                self.stats.smc_events += 1;
                let eip = self.cache.blocks[id as usize].eip;
                // Snapshot-mode pages are unprotected, so their writes
                // never reach `handle_smc_store` — the prologue
                // detection is their governor feed. A thrashing page
                // goes back to interpret-only instead of retranslating.
                if self.note_smc_disturbance(eip >> 12) {
                    return ExitAction::Dispatch(eip);
                }
                let _ = self.translate_cold(os, eip, BlockKind::ColdV1, false, HashMap::new());
                ExitAction::Dispatch(eip)
            }
            StubKind::TosFix => {
                let id = payload as u32;
                self.stats.tos_fixes += 1;
                self.machine.charge(region::OTHER, cost::FIX_CYCLES);
                self.fix_tos(id);
                ExitAction::Continue(self.cache.blocks[id as usize].entry)
            }
            StubKind::TagFix => {
                let id = payload as u32;
                self.stats.tag_fixes += 1;
                self.machine.charge(region::OTHER, cost::FIX_CYCLES);
                // Rebuild the "special block" with inline checks.
                let eip = self.cache.blocks[id as usize].eip;
                let overrides = self.cache.blocks[id as usize].misalign_overrides.clone();
                let kind = self.cache.blocks[id as usize].kind;
                let _ = self.translate_cold(os, eip, kind, true, overrides);
                ExitAction::Dispatch(eip)
            }
            StubKind::MmxFix => {
                let id = payload as u32;
                self.stats.mmx_fixes += 1;
                self.machine.charge(region::OTHER, cost::FIX_CYCLES);
                self.fix_mmx_mode(self.cache.blocks[id as usize].entry_mmx);
                ExitAction::Continue(self.cache.blocks[id as usize].entry)
            }
            StubKind::XmmFix => {
                let id = payload as u32;
                self.stats.xmm_fixes += 1;
                self.machine.charge(region::OTHER, cost::FIX_CYCLES);
                self.fix_xmm_formats(id);
                ExitAction::Continue(self.cache.blocks[id as usize].entry)
            }
            StubKind::DivZero => {
                let eip = self.machine.gr[GR_STATE.0 as usize] as u32;
                let cpu = state::machine_to_cpu(&self.machine, eip);
                self.deliver_action(os, GuestException::DivideError, cpu)
            }
            StubKind::FpStackFault => {
                let eip = self.machine.gr[GR_STATE.0 as usize] as u32;
                let mut cpu = state::machine_to_cpu(&self.machine, eip);
                // Set the stack-fault status bits like the oracle does.
                cpu.fpu.status |= ia32::fpu::status::SF | ia32::fpu::status::IE;
                self.deliver_action(os, GuestException::FpStackFault, cpu)
            }
            StubKind::Deopt => {
                let id = payload as u32;
                let rec = self.machine.gr[state::GR_PAYLOAD1.0 as usize] as u32;
                self.stats.deopts += 1;
                self.trace_emit(EventData::CommitPointTaken { id, recovery: rec });
                let cpu = match &self.cache.blocks[id as usize].hot {
                    Some(h) => h.reconstruct_at(&self.machine, rec),
                    None => None,
                };
                match cpu {
                    Some(c) => {
                        state::cpu_to_machine(&c, &mut self.machine);
                        ExitAction::Dispatch(c.eip)
                    }
                    None => {
                        let eip = self.machine.gr[GR_STATE.0 as usize] as u32;
                        ExitAction::Dispatch(eip)
                    }
                }
            }
            StubKind::InterpStep => {
                let eip = self.machine.gr[GR_STATE.0 as usize] as u32;
                self.interp_one(os, eip)
            }
            StubKind::Reenter => match self.block_at_addr(from) {
                Some(id) => ExitAction::Dispatch(self.cache.blocks[id as usize].eip),
                None => {
                    let eip = self.machine.gr[GR_STATE.0 as usize] as u32;
                    ExitAction::Dispatch(eip)
                }
            },
            StubKind::InvalidOp => {
                let eip = self.machine.gr[GR_STATE.0 as usize] as u32;
                let cpu = state::machine_to_cpu(&self.machine, eip);
                self.deliver_action(os, GuestException::InvalidOpcode, cpu)
            }
        }
    }

    /// `int vector` with the guest at `cpu` (past the instruction),
    /// from translated code or a single-stepped instruction alike: the
    /// OS layer serves vector 0x80, anything else is an invalid opcode.
    fn syscall(&mut self, os: &mut dyn BtOs, vector: u8, mut cpu: Cpu) -> ExitAction {
        if vector != 0x80 {
            return self.deliver_action(os, GuestException::InvalidOpcode, cpu);
        }
        self.stats.syscalls += 1;
        match os.syscall(&mut cpu, &mut self.mem) {
            SyscallOutcome::Continue => {
                state::cpu_to_machine(&cpu, &mut self.machine);
                ExitAction::Dispatch(cpu.eip)
            }
            SyscallOutcome::Exit(code) => ExitAction::Done(Outcome::Exited(code)),
        }
    }

    /// Single-steps one instruction with the reference interpreter (the
    /// rare-case escape hatch: 64/32-bit divides, pop-to-memory, …).
    fn interp_one(&mut self, os: &mut dyn BtOs, eip: u32) -> ExitAction {
        self.stats.interp_steps += 1;
        self.stats.interp_cycles += cost::INTERP_STEP_CYCLES;
        self.machine.charge(region::OTHER, cost::INTERP_STEP_CYCLES);
        let step_cycles = cost::INTERP_STEP_CYCLES;
        self.trace_profile(|t| t.profile_interp(eip, step_cycles));
        let cpu = state::machine_to_cpu(&self.machine, eip);
        let mut interp = Interp::new();
        interp.cpu = cpu;
        match interp.step(&mut self.mem) {
            Ok(Event::Continue) => {
                state::cpu_to_machine(&interp.cpu, &mut self.machine);
                ExitAction::Dispatch(interp.cpu.eip)
            }
            Ok(Event::Halt) => ExitAction::Done(Outcome::Halted(Box::new(interp.cpu))),
            Ok(Event::Syscall { vector }) => self.syscall(os, vector, interp.cpu),
            Err(trap) => {
                // A store onto a write-protected code page is translator
                // housekeeping, not a guest-visible exception: the guest
                // mapped this page writable. Delivering it as a page
                // fault would run the guest's handler for a fault that
                // does not exist architecturally (and its `sigreturn`
                // would pop a frame nobody pushed).
                if let ia32::Fault::Mem(m) = trap.fault {
                    if m.kind == MemFaultKind::SmcWrite {
                        return self.smc_from_interp(os, eip, m.addr);
                    }
                }
                let exc = match trap.fault {
                    ia32::Fault::Mem(m) => GuestException::PageFault {
                        addr: m.addr as u32,
                        write: m.write,
                    },
                    ia32::Fault::Divide => GuestException::DivideError,
                    ia32::Fault::FpStack(_) => GuestException::FpStackFault,
                    ia32::Fault::InvalidOpcode => GuestException::InvalidOpcode,
                };
                self.deliver_action(os, exc, interp.cpu)
            }
        }
    }

    pub(crate) fn handle_fault(
        &mut self,
        os: &mut dyn BtOs,
        fault: MachFault,
        ip: u64,
        slot: u8,
    ) -> ExitAction {
        match fault {
            MachFault::Misalign { .. } => {
                self.stats.misalign_faults += 1;
                self.machine
                    .charge(region::OTHER, cost::MISALIGN_FAULT_CYCLES);
                if let Some(id) = self.block_at_addr(ip) {
                    let b = &mut self.cache.blocks[id as usize];
                    b.misalign_faults += 1;
                    if b.kind == BlockKind::Hot
                        && b.misalign_faults > policy::HOT_MISALIGN_TOLERANCE
                    {
                        // Discard the hot block; regenerate everything
                        // with detection and avoidance (paper §5 stage 3
                        // final paragraph) and blacklist re-promotion
                        // until the backoff expires.
                        let cpu = self.reconstruct(ip, slot);
                        self.demote_block(os, id);
                        state::cpu_to_machine(&cpu, &mut self.machine);
                        return ExitAction::Dispatch(cpu.eip);
                    }
                }
                match self.emulate_misaligned(ip, slot) {
                    Ok(()) => {
                        self.machine.skip_slot();
                        ExitAction::Continue(self.machine.ip)
                    }
                    Err(MisEmu::Guest(exc)) => {
                        let cpu = self.reconstruct(ip, slot);
                        self.deliver_action(os, exc, cpu)
                    }
                    // A misaligned self-modifying store: the part-writes
                    // already landed are idempotent (the interpreter
                    // re-executes the whole store from unchanged
                    // register state), so the ordinary SMC recovery
                    // applies as if the store had not run at all.
                    Err(MisEmu::Smc(addr)) => self.handle_smc_store(os, ip, slot, addr),
                    Err(MisEmu::Residue) => {
                        self.degrade(os, EngineError::MisalignResidue { ip, slot })
                    }
                }
            }
            MachFault::Bus { err, addr, write } => match err {
                BusError::Smc => self.handle_smc_store(os, ip, slot, addr),
                _ => {
                    let cpu = self.reconstruct(ip, slot);
                    // A split-store probe reads before writing; report
                    // the fault with the IA-32 instruction's intent.
                    let write = write || self.inst_writes_mem(cpu.eip);
                    let exc = GuestException::PageFault {
                        addr: addr as u32,
                        write,
                    };
                    self.deliver_action(os, exc, cpu)
                }
            },
            MachFault::NatConsumption => {
                // Failed speculation escaped its chk.s (or the code was
                // corrupted): recover through the ladder.
                self.degrade(os, EngineError::NatConsumption { ip, slot })
            }
        }
    }

    fn inst_writes_mem(&self, eip: u32) -> bool {
        let Some((inst, _)) = ia32::decode::decode_at(&self.mem, eip) else {
            return false;
        };
        use ia32::inst::Inst as I;
        matches!(
            inst,
            I::Mov {
                dst: ia32::inst::Rm::Mem(_),
                ..
            } | I::Alu {
                dst: ia32::inst::Rm::Mem(_),
                ..
            } | I::Push { .. }
                | I::Call { .. }
                | I::CallInd { .. }
                | I::Movs { .. }
                | I::Stos { .. }
                | I::Fst { .. }
                | I::Fistp { .. }
                | I::IncDec {
                    dst: ia32::inst::Rm::Mem(_),
                    ..
                }
                | I::Neg {
                    dst: ia32::inst::Rm::Mem(_),
                    ..
                }
                | I::Not {
                    dst: ia32::inst::Rm::Mem(_),
                    ..
                }
                | I::Shift {
                    dst: ia32::inst::Rm::Mem(_),
                    ..
                }
                | I::Setcc {
                    dst: ia32::inst::Rm::Mem(_),
                    ..
                }
                | I::Xchg {
                    rm: ia32::inst::Rm::Mem(_),
                    ..
                }
        )
    }

    /// Emulates a misaligned access in parts (the "OS handler" path).
    fn emulate_misaligned(&mut self, ip: u64, slot: u8) -> Result<(), MisEmu> {
        let Some(bundle) = self.machine.arena.bundle_at(ip) else {
            return Err(MisEmu::Residue);
        };
        let op = bundle.slots[slot as usize].op;
        let read_parts = |mem: &GuestMem, addr: u64, size: u32| -> Result<u64, MisEmu> {
            let mut v = 0u64;
            for i in 0..size as u64 {
                let b = mem.read(addr + i, 1).map_err(|f| {
                    MisEmu::Guest(GuestException::PageFault {
                        addr: f.addr as u32,
                        write: false,
                    })
                })?;
                v |= b << (i * 8);
            }
            Ok(v)
        };
        let write_parts = |mem: &mut GuestMem, addr: u64, v: u64, size: u64| {
            (0..size).try_for_each(|i| {
                mem.write(addr + i, 1, (v >> (i * 8)) & 0xFF)
                    .map_err(|f| match f.kind {
                        MemFaultKind::SmcWrite => MisEmu::Smc(f.addr),
                        _ => MisEmu::Guest(GuestException::PageFault {
                            addr: f.addr as u32,
                            write: true,
                        }),
                    })
            })
        };
        match op {
            Op::Ld { sz, d, addr, .. } => {
                let a = self.machine.gr[addr.phys()];
                let v = read_parts(&self.mem, a, sz as u32)?;
                if d.phys() != 0 {
                    self.machine.gr[d.phys()] = v;
                    self.machine.gr_nat[d.phys()] = false;
                }
            }
            Op::St { sz, addr, val } => {
                let a = self.machine.gr[addr.phys()];
                let v = self.machine.gr[val.phys()];
                write_parts(&mut self.mem, a, v, sz as u64)?;
            }
            Op::Ldf { fmt, f, addr, .. } => {
                let a = self.machine.gr[addr.phys()];
                let raw = read_parts(&self.mem, a, fmt.bytes())?;
                let bits = match fmt {
                    FFmt::S => (f32::from_bits(raw as u32) as f64).to_bits(),
                    _ => raw,
                };
                self.machine.fr[f.phys()] = bits;
            }
            Op::Stf { fmt, f, addr } => {
                let a = self.machine.gr[addr.phys()];
                let raw = self.machine.fr[f.phys()];
                let (v, n) = match fmt {
                    FFmt::S => ((f64::from_bits(raw) as f32).to_bits() as u64, 4),
                    _ => (raw, 8),
                };
                write_parts(&mut self.mem, a, v, n)?;
            }
            // A misalignment fault on a non-memory op means the code at
            // `ip` is not what the translator emitted: residue for the
            // degradation ladder.
            _ => return Err(MisEmu::Residue),
        }
        Ok(())
    }

    /// A store hit a write-protected translated-code page. The store has
    /// NOT executed. Reconstruct the precise state at the storing
    /// instruction, single-step it in the reference interpreter with
    /// protection lifted (full IA-32 semantics, e.g. for `xchg`/`push`),
    /// then invalidate *per extent*: only blocks whose source bytes
    /// actually changed (FNV recheck against the translation-time
    /// checksum) are orphaned — a guest JIT patching one function does
    /// not throw away its neighbors on the same page. Hot traces span
    /// guest blocks beyond their recorded source range, so they are
    /// orphaned unconditionally. A thrash governor counts disturbances
    /// per page and demotes chronically rewritten pages to
    /// interpret-only with exponential backoff.
    ///
    /// Runs under the re-entrant recovery guard: an SMC fault taken
    /// while already recovering (e.g. on the handler's own page during
    /// signal delivery) descends rather than recursing unboundedly.
    fn handle_smc_store(&mut self, os: &mut dyn BtOs, ip: u64, slot: u8, addr: u64) -> ExitAction {
        let cpu = self.reconstruct(ip, slot);
        state::cpu_to_machine(&cpu, &mut self.machine);
        self.smc_from_interp(os, cpu.eip, addr)
    }

    /// An SMC store reached the interpreter escape hatch directly (the
    /// ladder's interpret floor, or the interpret-only gate of a page
    /// whose neighbor is still protected) and tripped write protection
    /// there instead of in translated code. Same recipe as
    /// [`Self::handle_smc_store`] minus the machine-state
    /// reconstruction: the interpreter already had precise state.
    fn smc_from_interp(&mut self, os: &mut dyn BtOs, eip: u32, addr: u64) -> ExitAction {
        self.recovery_enter();
        self.stats.smc_events += 1;
        let page = (addr >> 12) as u32;
        self.mem.set_code_protect(addr, false);
        let act = self.interp_one(os, eip);
        self.smc_invalidate_extents(page);
        // The governor may blacklist the page (leaving it unprotected
        // and interpret-only); otherwise re-arm write protection.
        if !self.note_smc_disturbance(page) {
            self.mem.set_code_protect(addr, true);
        }
        self.recovery_exit();
        act
    }

    /// Post-store, compares each registered block's source bytes
    /// against its translation-time checksum. Unchanged cold blocks
    /// keep their translations (and their registration); changed blocks
    /// and hot traces (whose source span exceeds their recorded range)
    /// are orphaned.
    fn smc_invalidate_extents(&mut self, page: u32) {
        // The guest rewrote this page: whatever any tenant published
        // for it is stale. Sweep the namespace first so a peer racing
        // this invalidation sees the generation bump.
        self.shared_notify(|ns, c| ns.invalidate_page(page, c));
        for id in self.cache.registry.on_page(page).to_vec() {
            let b = &self.cache.blocks[id as usize];
            if b.kind != BlockKind::Hot && src_checksum(&self.mem, b.src_range) == b.src_fnv {
                self.stats.smc_extent_keeps += 1;
            } else {
                self.stats.smc_extent_orphans += 1;
                self.orphan_block(id);
            }
        }
    }

    /// The single caller of [`Registry::orphan`]: block `id` leaves the
    /// registry, its entry forwards to the re-enter stub (code already
    /// inside it runs on to its next exit), and every lookup way and
    /// inline cache keyed on its EIP is emptied so the next transfer
    /// goes through dispatch.
    fn orphan_block(&mut self, id: u32) {
        let b = &self.cache.blocks[id as usize];
        let (eip, entry) = (b.eip, b.entry);
        self.cache.registry.orphan(b);
        self.forward(entry, StubKind::Reenter.addr());
        for s in self.predictions_of(eip) {
            let _ = self.mem.write(s, 8, layout::LOOKUP_EMPTY_KEY);
        }
        self.audited();
    }

    /// True when `eip` lives on a page the SMC governor has seen
    /// thrash (blacklisted now, or in snapshot-check mode after the
    /// backoff). Cold blocks on such pages carry a snapshot-check
    /// prologue; hot traces have no per-entry staleness check, so the
    /// selector must not walk onto these pages.
    pub(crate) fn smc_churn_page(&self, eip: u32) -> bool {
        self.cache.smc_pages.contains(&(eip >> 12))
    }

    /// Counts one SMC disturbance against `page` for the thrash
    /// governor. Over the threshold within the window, the page is
    /// blacklisted to interpret-only with exponential backoff (all its
    /// surviving translations orphaned, write protection dropped) and
    /// `true` is returned. After the backoff expires, fresh translations
    /// are built in snapshot-check mode (`smc_pages`), so the page never
    /// pays the protection-fault storm again.
    fn note_smc_disturbance(&mut self, page: u32) -> bool {
        if self.cfg.smc_thrash_threshold == 0 {
            return false;
        }
        let now = self.machine.cycles;
        let w = self.cache.smc_window.entry(page).or_insert((now, 0));
        if now.saturating_sub(w.0) > policy::SMC_THRASH_WINDOW {
            *w = (now, 0);
        }
        w.1 += 1;
        if w.1 < self.cfg.smc_thrash_threshold {
            return false;
        }
        self.cache.smc_window.remove(&page);
        let _until = self.cache.smc_blacklist.strike(page, now);
        let strikes = self.cache.smc_blacklist.strikes(page);
        self.stats.smc_blacklists += 1;
        self.trace_emit(EventData::SmcBlacklist { page, strikes });
        // Orphan every surviving translation on the page: dispatches
        // must miss the registry so they reach the interpret-only gate.
        for id in self.cache.registry.on_page(page).to_vec() {
            self.orphan_block(id);
        }
        // Snapshot-check mode for post-backoff retranslations; writes
        // to the unprotected page are then caught by the SmcFail
        // prologue instead of protection faults.
        self.cache.smc_pages.insert(page);
        self.mem.set_code_protect((page as u64) << 12, false);
        // Deny the page in the shared namespace: peers must not import
        // translations of code this guest is busy rewriting.
        self.shared_notify(|ns, c| ns.deny_page(page, c));
        true
    }

    fn fix_tos(&mut self, id: u32) {
        let b = &self.cache.blocks[id as usize];
        let want = b.spec.tos;
        let cur = (self.machine.gr[state::GR_FPTOP.0 as usize] & 7) as u8;
        if want == cur {
            return;
        }
        // Rotate values so the block's static ST(k) -> FR mapping holds.
        let tags = self.machine.gr[state::GR_FPTAG.0 as usize] as u8;
        let mut new_fr = [0u64; 8];
        let mut new_tags = 0u8;
        for p in 0..8u8 {
            // Value at logical position k = (p - cur) mod 8 moves to
            // physical (want + k) mod 8.
            let k = p.wrapping_sub(cur) & 7;
            let np = (want + k) & 7;
            new_fr[np as usize] = self.machine.fr[(state::FR_X87 + p as u16) as usize];
            if tags & (1 << p) != 0 {
                new_tags |= 1 << np;
            }
        }
        for p in 0..8u8 {
            self.machine.fr[(state::FR_X87 + p as u16) as usize] = new_fr[p as usize];
        }
        self.machine.gr[state::GR_FPTAG.0 as usize] = new_tags as u64;
        self.machine.gr[state::GR_FPTOP.0 as usize] = want as u64;
    }

    fn fix_mmx_mode(&mut self, want_mmx: bool) {
        let cur = self.machine.gr[state::GR_FPMODE.0 as usize] & 1 != 0;
        if cur == want_mmx {
            return;
        }
        if want_mmx {
            for i in 0..8u16 {
                self.machine.gr[(state::GR_MMX + i) as usize] =
                    self.machine.fr[(state::FR_X87 + i) as usize];
            }
            self.machine.gr[state::GR_FPTOP.0 as usize] = 0;
            self.machine.gr[state::GR_FPMODE.0 as usize] = 1;
        } else {
            for i in 0..8u16 {
                // MMX values are invisible to FP reads (NaN view).
                self.machine.fr[(state::FR_X87 + i) as usize] = f64::NAN.to_bits();
            }
            self.machine.gr[state::GR_FPMODE.0 as usize] = 0;
        }
    }

    fn fix_xmm_formats(&mut self, id: u32) {
        let want = self.cache.blocks[id as usize].spec.xmm_fmt;
        let cur = self.machine.gr[state::GR_XMMFMT.0 as usize] as u8;
        for n in 0..8u8 {
            let w = want & (1 << n) != 0;
            let c = cur & (1 << n) != 0;
            if w == c {
                continue;
            }
            self.stats.xmm_conversions += 1;
            if w {
                // packed -> scalar
                let lo = self.machine.fr[state::xmm_lo_fr(n).0 as usize];
                let lane0 = f32::from_bits(lo as u32) as f64;
                self.machine.fr[state::xmm_scalar_fr(n).0 as usize] = lane0.to_bits();
            } else {
                // scalar -> packed
                let sc = f64::from_bits(self.machine.fr[state::xmm_scalar_fr(n).0 as usize]);
                let lane0 = (sc as f32).to_bits() as u64;
                let lo = self.machine.fr[state::xmm_lo_fr(n).0 as usize];
                self.machine.fr[state::xmm_lo_fr(n).0 as usize] = (lo & !0xFFFF_FFFF) | lane0;
            }
        }
        self.machine.gr[state::GR_XMMFMT.0 as usize] = want as u64;
    }

    /// Chains the exit bundle `site` — still branching to the
    /// Untranslated stub — straight to the entry of block `target`, and
    /// records the edge so eviction of the target can un-link it.
    fn chain(&mut self, site: u64, target: u32) {
        let entry = self.cache.blocks[target as usize].entry;
        if self.patch_branch(site, StubKind::Untranslated.addr(), entry) {
            self.cache.registry.link(target, site);
        }
    }

    /// Re-points every branch to `old_target` in the bundle at
    /// `bundle_addr` at `new_target`; whether there was one (an exit
    /// already chained elsewhere — to an interpreter stub, say — is
    /// left alone).
    fn patch_branch(&mut self, bundle_addr: u64, old_target: u64, new_target: u64) -> bool {
        let mut patches = Vec::new();
        if let Some(b) = self.machine.arena.bundle_at(bundle_addr) {
            for (i, s) in b.slots.iter().enumerate() {
                if s.op.target() == Some(Target::Abs(old_target)) {
                    patches.push(i);
                }
            }
        }
        for &i in &patches {
            self.machine.arena.patch_slot(
                bundle_addr,
                i,
                Op::Br {
                    target: Target::Abs(new_target),
                },
            );
        }
        self.note_patched(bundle_addr);
        !patches.is_empty()
    }

    fn run_hot_session(&mut self, os: &mut dyn BtOs) {
        let span = self.trace_phase_enter(Phase::HotSession);
        // Injected budget exhaustion: the watchdog kills the whole
        // session before it starts; every candidate keeps its cold code.
        if self
            .chaos
            .as_mut()
            .is_some_and(|p| p.roll(FaultKind::HotBudget))
        {
            self.stats.faults_injected += 1;
            self.stats.watchdog_aborts += 1;
            self.stats.ladder_recoveries += 1;
            self.trace_emit(EventData::FaultInjected {
                kind: FaultKind::HotBudget,
            });
            self.cache.registry.take_candidates();
            self.trace_phase_exit(span);
            return;
        }
        let budget = self.cfg.hot_session_budget;
        let start = self.region_cycle(region::OVERHEAD);
        for id in self.cache.registry.take_candidates() {
            let eip = self.cache.blocks[id as usize].eip;
            if self.cache.blacklist.is_blocked(eip, self.machine.cycles) {
                self.stats.blacklist_hits += 1;
                continue;
            }
            if !crate::hot::promote(self, id) {
                self.maybe_demote_megamorphic(os, id);
            }
            if budget > 0 && self.region_cycle(region::OVERHEAD) - start > budget {
                // The session blew its cycle budget: abort the rest,
                // keeping their cold code (they can re-register later).
                self.stats.watchdog_aborts += 1;
                break;
            }
        }
        self.trace_phase_exit(span);
    }

    /// Opens a recovery scope. Depth is tracked so a failure raised
    /// *while already recovering* (re-entrant SMC, fault during a
    /// rebuild, injected translation death inside a demotion) is
    /// visible to the ladder instead of recursing blind.
    fn recovery_enter(&mut self) {
        self.ctx.recovery_depth += 1;
        if self.ctx.recovery_depth > 1 {
            self.stats.reentrant_recoveries += 1;
        }
        self.stats.recovery_depth_max = self
            .stats
            .recovery_depth_max
            .max(self.ctx.recovery_depth as u64);
    }

    fn recovery_exit(&mut self) {
        self.ctx.recovery_depth -= 1;
    }

    /// The degradation ladder entry point, re-entrancy-guarded: at
    /// [`policy::MAX_RECOVERY_DEPTH`] nested failures the engine stops trusting
    /// translated code entirely and takes the interpret-only floor —
    /// one precisely reconstructed instruction through the safety net,
    /// which cannot itself raise an `EngineError`.
    fn degrade(&mut self, os: &mut dyn BtOs, err: EngineError) -> ExitAction {
        self.recovery_enter();
        let act = if self.ctx.recovery_depth >= policy::MAX_RECOVERY_DEPTH {
            self.stats.ladder_recoveries += 1;
            let (site, slot) = err.site();
            let cpu = self.reconstruct(site, slot);
            self.note_interp_fallback(cpu.eip);
            state::cpu_to_machine(&cpu, &mut self.machine);
            self.interp_one(os, cpu.eip)
        } else {
            self.degrade_inner(os, err)
        };
        self.recovery_exit();
        act
    }

    /// The degradation ladder: maps a translator-internal failure to a
    /// precise guest state and a bounded recovery action (retry ->
    /// demote/evict + blacklist -> retranslate) — never a panic.
    fn degrade_inner(&mut self, os: &mut dyn BtOs, err: EngineError) -> ExitAction {
        self.stats.ladder_recoveries += 1;
        let (site, slot) = err.site();
        let id = self.block_at_addr_any(site);
        // Precise state: a block entry is a state boundary (everything
        // in its canonical home, EIP = the block's EIP); inside a block
        // the recovery maps / state register reconstruct it.
        let cpu = match id {
            Some(id) => {
                let b = &self.cache.blocks[id as usize];
                if b.extents.iter().any(|&(s, _)| s == site) {
                    state::machine_to_cpu(&self.machine, b.eip)
                } else {
                    self.reconstruct(site, slot)
                }
            }
            None => self.reconstruct(site, slot),
        };
        let rung = if let Some(id) = id {
            let is_spec = matches!(err, EngineError::NatConsumption { .. });
            if is_spec && self.cache.blocks[id as usize].kind == BlockKind::Hot {
                // Failed speculation: bounded retries, then rebuild
                // without the speculative assumptions (inline checks).
                let b = &mut self.cache.blocks[id as usize];
                b.spec_failures += 1;
                if b.spec_failures > policy::SPEC_RETRY_CAP {
                    b.inline_fp = true;
                    self.stats.spec_retry_exhaustions += 1;
                    self.demote_block(os, id);
                    Rung::Demote
                } else {
                    Rung::Retry
                }
            } else {
                self.note_failure(os, id)
            }
        } else {
            Rung::Retry
        };
        self.trace_emit(EventData::LadderRung { rung, eip: cpu.eip });
        state::cpu_to_machine(&cpu, &mut self.machine);
        ExitAction::Dispatch(cpu.eip)
    }

    /// Charges one ladder failure to a block. Below the cap the block
    /// is simply retried (a transient fault may clear); past it the
    /// block is demoted (hot) or evicted (cold), its EIP blacklisted,
    /// and the next dispatch rebuilds fresh code from the unchanged
    /// guest bytes. Returns the rung taken (for the trace).
    fn note_failure(&mut self, os: &mut dyn BtOs, id: u32) -> Rung {
        let b = &mut self.cache.blocks[id as usize];
        if b.evicted {
            return Rung::Retry;
        }
        b.failures += 1;
        if b.failures <= policy::BLOCK_FAILURE_CAP {
            return Rung::Retry;
        }
        if b.kind == BlockKind::Hot {
            self.demote_block(os, id);
            Rung::Demote
        } else {
            let eip = self.cache.blocks[id as usize].eip;
            let until = self.cache.blacklist.strike(eip, self.machine.cycles);
            self.trace_emit(EventData::Blacklisted { eip, until });
            self.evict_block(id);
            Rung::Evict
        }
    }

    /// Demotes a hot (or repeatedly failing) block back to stage-2 cold
    /// code and blacklists its EIP from re-promotion with exponential
    /// backoff.
    fn demote_block(&mut self, os: &mut dyn BtOs, id: u32) {
        let eip = self.cache.blocks[id as usize].eip;
        self.stats.demotions += 1;
        let until = self.cache.blacklist.strike(eip, self.machine.cycles);
        let strikes = self.cache.blacklist.strikes(eip);
        // A ladder strike means this EIP's published record is suspect
        // (repeated faults under it): pull it and bump the generation
        // until a clean retranslation re-publishes.
        self.shared_notify(|ns, c| ns.invalidate(eip, c) as u64);
        self.trace_emit(EventData::BlockDemoted { id, eip, strikes });
        self.trace_emit(EventData::Blacklisted { eip, until });
        self.trace_profile(|t| t.profile_lifecycle(eip, EventKind::BlockDemoted));
        if self.live_block(eip).is_some_and(|b| b.id == id) {
            // Injected translation death *during the demotion rebuild*:
            // a failure inside a recovery action. Descend re-entrantly
            // — evict and blacklist rather than loop demote→rebuild —
            // under the depth guard so the descent is visible in
            // `recovery_depth_max` / `reentrant_recoveries`.
            if self
                .chaos
                .as_mut()
                .is_some_and(|p| p.roll(FaultKind::Translate))
            {
                self.recovery_enter();
                self.stats.faults_injected += 1;
                self.stats.ladder_recoveries += 1;
                self.trace_emit(EventData::FaultInjected {
                    kind: FaultKind::Translate,
                });
                self.trace_emit(EventData::LadderRung {
                    rung: Rung::Evict,
                    eip,
                });
                self.evict_block(id);
                self.recovery_exit();
                return;
            }
            let inline_fp = self.cache.blocks[id as usize].inline_fp;
            let overrides = self.cache.blocks[id as usize].misalign_overrides.clone();
            let _ = self.translate_cold(os, eip, BlockKind::ColdV2, inline_fp, overrides);
        } else {
            // An orphaned generation (superseded via SMC): nothing to
            // rebuild, just reclaim it.
            self.evict_block(id);
        }
    }

    /// A failed promotion is the checkpoint for megamorphic-site
    /// demotion: if the block's inline cache has been trained (pred
    /// set) but hit on fewer than half of a meaningful number of
    /// executions, the site is polymorphic and the IC/shadow machinery
    /// is pure per-execution overhead — demote to the plain probe.
    fn maybe_demote_megamorphic(&mut self, os: &mut dyn BtOs, id: u32) {
        let b = &self.cache.blocks[id as usize];
        if b.indirect_plain || b.evicted || b.kind == BlockKind::Hot {
            return;
        }
        let slot = b.ic_slot;
        let counter = b.counter_addr;
        let pred = self.mem.read(slot, 8).unwrap_or(layout::LOOKUP_EMPTY_KEY);
        if pred == layout::LOOKUP_EMPTY_KEY {
            // Not an inline-cache-probing terminator (or never ran).
            return;
        }
        let uses = self.mem.read(counter, 8).unwrap_or(0);
        let hits = self.mem.read(slot + 16, 8).unwrap_or(0);
        if uses >= policy::MEGAMORPHIC_DEMOTE_USES && !site_is_monomorphic(hits, uses) {
            self.demote_indirect(os, id);
        }
    }

    /// Demotes a block whose per-site acceleration keeps mispredicting
    /// (megamorphic inline cache, or a ret whose shadow pops chronically
    /// miss) to the plain 2-way table probe and retranslates it in
    /// place. One-way: the block keeps its kind and profile slots; only
    /// the accel emission changes. The stale prediction is emptied so
    /// hot selection can never devirtualize through a site that no
    /// longer maintains it.
    fn demote_indirect(&mut self, os: &mut dyn BtOs, id: u32) {
        let b = &self.cache.blocks[id as usize];
        if b.indirect_plain || b.evicted || b.kind == BlockKind::Hot {
            return;
        }
        let eip = b.eip;
        let kind = b.kind;
        let inline_fp = b.inline_fp;
        let overrides = b.misalign_overrides.clone();
        let slot = b.ic_slot;
        self.cache.blocks[id as usize].indirect_plain = true;
        let _ = self.mem.write(slot, 8, layout::LOOKUP_EMPTY_KEY);
        let _ = self.mem.write(slot + 16, 8, 0);
        self.stats.indirect_demotions += 1;
        self.trace_emit(EventData::IndirectDemote { eip, id });
        self.trace_profile(|t| t.profile_lifecycle(eip, EventKind::IndirectDemote));
        if self.live_block(eip).is_some_and(|b| b.id == id) {
            let _ = self.translate_cold(os, eip, kind, inline_fp, overrides);
        }
    }

    /// Consults the attached `FaultPlan` at a dispatch boundary and
    /// applies any injected faults. Every injection damages only
    /// *translations*, which the ladder rebuilds from unchanged guest
    /// code — guest-visible semantics are preserved by construction
    /// (the differential oracle in the chaos bench checks this).
    fn inject_faults(&mut self, os: &mut dyn BtOs, eip: u32) {
        let Some(mut plan) = self.chaos.take() else {
            return;
        };
        // Misalignment storm: push a victim over its fault tolerance.
        if plan.roll(FaultKind::MisalignStorm) {
            if let Some(victim) = self.pick_victim(&mut plan, true) {
                self.stats.faults_injected += 1;
                self.stats.ladder_recoveries += 1;
                self.trace_emit(EventData::FaultInjected {
                    kind: FaultKind::MisalignStorm,
                });
                let n = policy::HOT_MISALIGN_TOLERANCE + 1;
                self.stats.misalign_faults += n as u64;
                self.machine
                    .charge(region::OTHER, cost::MISALIGN_FAULT_CYCLES * n as u64);
                self.cache.blocks[victim as usize].misalign_faults += n;
                if self.cache.blocks[victim as usize].kind == BlockKind::Hot {
                    self.demote_block(os, victim);
                } else {
                    // Retrain: regenerate with detection and avoidance.
                    self.stats.misalign_retrains += 1;
                    let veip = self.cache.blocks[victim as usize].eip;
                    let overrides = self.cache.blocks[victim as usize]
                        .misalign_overrides
                        .clone();
                    let _ = self.translate_cold(os, veip, BlockKind::ColdV2, false, overrides);
                }
            }
        }
        // SMC write landing on the current page: invalidate all of its
        // translations. Guest bytes are unchanged, so the retranslation
        // is identical — only the recovery machinery is exercised.
        if plan.roll(FaultKind::SmcInvalidate) {
            self.stats.faults_injected += 1;
            self.stats.smc_events += 1;
            self.trace_emit(EventData::FaultInjected {
                kind: FaultKind::SmcInvalidate,
            });
            self.machine.charge(region::OTHER, cost::FIX_CYCLES);
            for id in self.cache.registry.on_page(eip >> 12).to_vec() {
                self.orphan_block(id);
            }
        }
        // Bit-flip: clobber a victim's entry bundle. Detected by the
        // checksum (verify-on-dispatch) or, without it, by the
        // non-stub-branch rung of the ladder — never executed as-is
        // beyond the clobbered slot.
        if plan.roll(FaultKind::BitFlip) {
            if let Some(victim) = self.pick_victim(&mut plan, false) {
                self.stats.faults_injected += 1;
                self.trace_emit(EventData::FaultInjected {
                    kind: FaultKind::BitFlip,
                });
                let entry = self.cache.blocks[victim as usize].range.0;
                self.machine.arena.patch_slot(
                    entry,
                    0,
                    Op::Br {
                        target: Target::Abs(layout::CORRUPT_SENTINEL),
                    },
                );
                // No note_patched(): this modification is unsanctioned,
                // exactly what the checksum must catch.
            }
        }
        // Asynchronous signal: enqueue one at the current cycle. The
        // boundary poll right after injection (or a mid-trace commit
        // point, if the guest is already executing) delivers it.
        // Guests with no handler registered ignore the roll.
        if plan.roll(FaultKind::AsyncSignal) && os.raise_signal() {
            self.stats.faults_injected += 1;
            self.trace_emit(EventData::FaultInjected {
                kind: FaultKind::AsyncSignal,
            });
        }
        self.chaos = Some(plan);
    }

    /// Picks a live, registered injection victim — preferring hot
    /// blocks when asked (so storms exercise demotion).
    fn pick_victim(&mut self, plan: &mut FaultPlan, prefer_hot: bool) -> Option<u32> {
        let mut pool: Vec<u32> = self.cache.registry.registered().map(|(_, id)| id).collect();
        pool.sort_unstable();
        let is_hot = |id: &u32| self.cache.blocks[*id as usize].kind == BlockKind::Hot;
        if prefer_hot && pool.iter().any(is_hot) {
            pool.retain(is_hot);
        }
        (!pool.is_empty()).then(|| pool[plan.pick(pool.len())])
    }

    /// Delivers an asynchronous signal to `handler` from the precise
    /// interrupted state `cpu`. The frame is three words — `[esp]` =
    /// interrupted EIP, `[esp+4]` = EFLAGS, `[esp+8]` = EAX — popped by
    /// the guest's SIGRETURN syscall; the synchronous-trap frame (one
    /// word, popped by `ret`) is unchanged. EFLAGS/EAX ride in the frame
    /// because an async handler interrupts *between* instructions of
    /// arbitrary code, so the handler prologue cannot know what is live.
    fn deliver_signal(&mut self, handler: u32, mut cpu: Cpu) -> ExitAction {
        self.machine
            .charge(region::OTHER, cost::SIGNAL_DELIVER_CYCLES);
        let esp = cpu.esp().wrapping_sub(12);
        let ok = self.mem.write(esp as u64, 4, cpu.eip as u64).is_ok()
            && self.mem.write(esp as u64 + 4, 4, cpu.eflags as u64).is_ok()
            && self.mem.write(esp as u64 + 8, 4, cpu.gpr[0] as u64).is_ok();
        if !ok {
            // Unwritable stack: the guest cannot take the signal.
            return ExitAction::Done(Outcome::Terminated {
                exc: GuestException::PageFault {
                    addr: esp,
                    write: true,
                },
                cpu: Box::new(cpu),
            });
        }
        self.stats.signals_delivered += 1;
        self.trace_emit(EventData::SignalDelivered {
            eip: cpu.eip,
            handler,
        });
        cpu.set_esp(esp);
        cpu.eip = handler;
        state::cpu_to_machine(&cpu, &mut self.machine);
        ExitAction::Dispatch(handler)
    }

    /// Precise IA-32 state if the machine currently sits exactly on a
    /// hot-trace commit point — the (bundle, slot) sites the recovery
    /// maps already prove reconstructible for precise faults.
    fn commit_point_state(&self) -> Option<Cpu> {
        let id = self.block_at_addr(self.machine.ip)?;
        let hot = self.cache.blocks[id as usize].hot.as_ref()?;
        hot.reconstruct(&self.machine, self.machine.ip, self.machine.slot)
    }

    /// Precise IA-32 state if `addr` is the entry of a live block: a
    /// block entry is a state boundary (everything in its canonical
    /// home, EIP = the block's EIP) — the same argument the degradation
    /// ladder relies on.
    fn entry_boundary_state(&self, addr: u64) -> Option<Cpu> {
        let id = self.block_at_addr(addr)?;
        let b = &self.cache.blocks[id as usize];
        if b.entry == addr && !b.evicted {
            Some(state::machine_to_cpu(&self.machine, b.eip))
        } else {
            None
        }
    }

    /// The signal quantum expired mid-trace with a signal due. Single-
    /// step the machine (bounded by [`policy::SIGNAL_STEP_CAP`]) until it reaches
    /// a site where precise IA-32 state exists — a hot-trace commit
    /// point, a chained block entry, or any dispatcher exit — and
    /// deliver there. Returns `None` if the cap ran out first (the
    /// caller resumes and hunts again next quantum) and `Some(action)`
    /// once the signal was delivered or execution left the trace.
    fn hunt_commit_point(&mut self, os: &mut dyn BtOs, remaining: &mut u64) -> Option<ExitAction> {
        for _ in 0..policy::SIGNAL_STEP_CAP {
            if let Some(cpu) = self.commit_point_state() {
                let handler = os.poll_signal(self.machine.cycles)?;
                return Some(self.deliver_signal(handler, cpu));
            }
            if *remaining == 0 {
                return Some(ExitAction::Done(Outcome::InstLimit));
            }
            let before = self.machine.inst_count;
            let stop = {
                let mut bus = MemBus(&mut self.mem);
                self.machine.run(&mut bus, 1)
            };
            *remaining = remaining.saturating_sub(self.machine.inst_count - before);
            match stop {
                StopReason::InstLimit => {}
                StopReason::ExternalBranch { target, from } => {
                    match self.handle_exit(os, target, from) {
                        ExitAction::Continue(addr) => {
                            self.machine.set_ip(addr, 0);
                            if let Some(cpu) = self.entry_boundary_state(addr) {
                                let handler = os.poll_signal(self.machine.cycles)?;
                                return Some(self.deliver_signal(handler, cpu));
                            }
                        }
                        // A dispatch lands back at the loop top, where
                        // the boundary poll delivers the signal.
                        act @ (ExitAction::Dispatch(_) | ExitAction::Done(_)) => return Some(act),
                    }
                }
                StopReason::Fault { fault, ip, slot } => {
                    match self.handle_fault(os, fault, ip, slot) {
                        ExitAction::Continue(_) => {}
                        act @ (ExitAction::Dispatch(_) | ExitAction::Done(_)) => return Some(act),
                    }
                }
            }
        }
        None
    }

    /// Converts the Itanium-side condition into an IA-32 exception and
    /// lets the OS layer decide (paper Figure 3 D).
    fn deliver_action(
        &mut self,
        os: &mut dyn BtOs,
        exc: GuestException,
        mut cpu: Cpu,
    ) -> ExitAction {
        self.stats.exceptions += 1;
        match os.exception(exc, &cpu) {
            ExceptionOutcome::DeliverTo(handler) => {
                // SimOs signal ABI: push the faulting EIP like a call,
                // then enter the handler.
                let new_esp = cpu.esp().wrapping_sub(4);
                if self.mem.write(new_esp as u64, 4, cpu.eip as u64).is_err() {
                    return ExitAction::Done(Outcome::Terminated {
                        exc,
                        cpu: Box::new(cpu),
                    });
                }
                cpu.set_esp(new_esp);
                cpu.eip = handler;
                state::cpu_to_machine(&cpu, &mut self.machine);
                ExitAction::Dispatch(handler)
            }
            ExceptionOutcome::Terminate => ExitAction::Done(Outcome::Terminated {
                exc,
                cpu: Box::new(cpu),
            }),
        }
    }
}

pub(crate) enum ExitAction {
    /// Resume the machine at this arena address.
    Continue(u64),
    /// Re-dispatch at this guest EIP.
    Dispatch(u32),
    /// Return to the caller.
    Done(Outcome),
}

/// Outcome of part-wise misaligned-access emulation.
enum MisEmu {
    /// A real guest exception surfaced (unmapped page, …).
    Guest(GuestException),
    /// A part-write hit a write-protected translated-code page: a
    /// misaligned self-modifying store. Must take the SMC recovery
    /// path, not a guest fault (the protection is ours, not the
    /// guest's). Carries the faulting address.
    Smc(u64),
    /// The faulting bundle is not an emulable memory op — the code is
    /// not what the translator emitted; residue for the ladder.
    Residue,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::site_is_monomorphic;

    /// Regression test for the gate/demotion boundary: the devirt gate
    /// used `hits*2 > uses` while megamorphic demotion used
    /// `hits*2 < uses`, so a site at exactly 50% was neither promoted
    /// nor demoted and re-attempted promotion forever. The shared
    /// predicate assigns the boundary to the monomorphic side.
    #[test]
    fn monomorphic_boundary_is_promoted_not_demoted() {
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

    use super::*;
    use crate::btos::{Version, BTOS_MAJOR, BTOS_MINOR};

    /// An OS layer that offers nothing: degradation must never need
    /// cooperation from the personality to reach its floor.
    pub(crate) struct NullOs;
    impl BtOs for NullOs {
        fn version(&self) -> Version {
            Version {
                major: BTOS_MAJOR,
                minor: BTOS_MINOR,
            }
        }
        fn syscall(&mut self, _: &mut Cpu, _: &mut GuestMem) -> SyscallOutcome {
            SyscallOutcome::Exit(0)
        }
        fn exception(&mut self, _: GuestException, _: &Cpu) -> ExceptionOutcome {
            ExceptionOutcome::Terminate
        }
    }

    fn halt_engine() -> Engine {
        let mut a = ia32::asm::Asm::new(0x40_0000);
        a.hlt();
        let image = ia32::asm::Image::from_asm(&a);
        let mut mem = ia32::mem::GuestMem::new();
        let cpu = image.load(&mut mem);
        let mut engine = Engine::new(mem, Config::default());
        state::cpu_to_machine(&cpu, &mut engine.machine);
        engine
    }

    /// Below the depth cap the ladder hands back a dispatch (retry /
    /// demote); *at* the cap it stops trusting translated code and
    /// takes the interpret-only floor, counting the re-entrancy.
    #[test]
    fn ladder_floor_is_interpret_only_and_counts_reentrancy() {
        let mut os = NullOs;

        // First failure at depth 0: an ordinary ladder rung, not the
        // floor. The unknown site reconstructs from the state register.
        let mut engine = halt_engine();
        let err = EngineError::NonStubBranch {
            target: 0xdead,
            from: 0xbeef,
        };
        match engine.degrade(&mut os, err) {
            ExitAction::Dispatch(eip) => assert_eq!(eip, 0x40_0000),
            _ => panic!("shallow failure must re-dispatch, not halt"),
        }
        assert_eq!(engine.stats.ladder_recoveries, 1);
        assert_eq!(engine.stats.interp_fallbacks, 0, "floor not reached");
        assert_eq!(engine.stats.reentrant_recoveries, 0);
        assert_eq!(engine.stats.recovery_depth_max, 1);

        // A failure raised while already MAX_RECOVERY_DEPTH-1 deep in
        // recovery scopes: the ladder must not recurse into another
        // rebuild; it interprets exactly one instruction (the hlt).
        let mut engine = halt_engine();
        engine.ctx.recovery_depth = policy::MAX_RECOVERY_DEPTH - 1;
        let err = EngineError::NonStubBranch {
            target: 0xdead,
            from: 0xbeef,
        };
        match engine.degrade(&mut os, err) {
            // The interpreter retires the hlt, so EIP sits past it.
            ExitAction::Done(Outcome::Halted(cpu)) => assert_eq!(cpu.eip, 0x40_0001),
            _ => panic!("floor must step the interpreter through the hlt"),
        }
        assert_eq!(
            engine.stats.interp_fallbacks, 1,
            "interpret-only floor taken"
        );
        assert!(engine.stats.reentrant_recoveries > 0);
        assert_eq!(
            engine.stats.recovery_depth_max,
            u64::from(policy::MAX_RECOVERY_DEPTH)
        );
        // The scope unwound: the faked outer depth is all that remains.
        assert_eq!(engine.ctx.recovery_depth, policy::MAX_RECOVERY_DEPTH - 1);
    }

    /// The hot phase's only failure mode is "the block stays cold".
    /// Fourteen independent `frcpa` division chains (seven `divss`,
    /// seven `fdiv`) keep more Newton-Raphson temporaries live than the
    /// floating pool holds, and floating registers have no spill path,
    /// so `regalloc::allocate` refuses the trace. A refused promotion
    /// must leave the cache exactly as it found it, the loop must keep
    /// running its cold code to the interpreter's result, and nothing
    /// may retry beyond the cold code's own heat re-registrations.
    #[test]
    fn unallocatable_trace_stays_cold_and_matches_the_interpreter() {
        use ia32::flags::Cond;
        use ia32::inst::{Addr, FpArithForm, FpArithOp, FpOperand, Inst, Rm, SseOp, XmmM};
        use ia32::regs::{Xmm, EAX, ECX};

        const DATA: u32 = 0x50_0000;
        const ITERS: u64 = 40;
        const THRESHOLD: u64 = 8;
        let mut a = ia32::asm::Asm::new(0x40_0000);
        // xmm_k = k + 2 (xmm7 = 9 divides the rest); ST(0) = 3 over
        // seven 1.0s.
        for k in 0..8u8 {
            a.mov_ri(EAX, k as i32 + 2);
            a.inst(Inst::Cvtsi2ss {
                dst: Xmm::new(k),
                src: Rm::Reg(EAX),
            });
            a.inst(Inst::Fld1);
        }
        a.mov_mi(Addr::abs(DATA), 3);
        a.inst(Inst::Fst {
            dst: FpOperand::St(0),
            pop: true,
        });
        a.inst(Inst::Fild {
            src: Addr::abs(DATA),
        });
        a.mov_ri(ECX, ITERS as i32);
        let top = a.label();
        a.bind(top);
        let loop_eip = a.here();
        for k in 0..7u8 {
            a.inst(Inst::SseArith {
                op: SseOp::Div,
                scalar: true,
                dst: Xmm::new(k),
                src: XmmM::Reg(Xmm::new(7)),
            });
        }
        for i in 1..8u8 {
            a.inst(Inst::Farith {
                op: FpArithOp::Div,
                form: FpArithForm::StiSt0 { i, pop: false },
            });
        }
        a.dec(ECX);
        a.jcc(Cond::Ne, top);
        for k in 0..7u8 {
            a.inst(Inst::Movss {
                xmm: Xmm::new(k),
                rm: XmmM::Mem(Addr::abs(DATA + 4 * k as u32)),
                to_xmm: false,
            });
        }
        for i in 0..8u32 {
            a.inst(Inst::Fst {
                dst: FpOperand::M64(Addr::abs(DATA + 32 + 8 * i)),
                pop: true,
            });
        }
        a.hlt();
        let image = ia32::asm::Image::from_asm(&a).with_bss(DATA, 0x1000);

        // The oracle: the reference interpreter on its own memory.
        let mut omem = ia32::mem::GuestMem::new();
        let mut interp = Interp::new();
        interp.cpu = image.load(&mut omem);
        while interp.step(&mut omem).expect("oracle traps nowhere") != Event::Halt {}

        let mut mem = ia32::mem::GuestMem::new();
        let cpu = image.load(&mut mem);
        let cfg = Config {
            heat_threshold: THRESHOLD,
            hot_candidates: 1,
            ..Config::default()
        };
        let mut engine = Engine::new(mem, cfg);
        let mut os = NullOs;
        // Stop mid-loop, after the cold code has heated at least once.
        assert_eq!(engine.run(&mut os, cpu, 6_000), Outcome::InstLimit);
        assert!(engine.stats.heat_events > 0, "the loop never heated");
        let id = engine
            .cache
            .registry
            .live(loop_eip)
            .expect("the loop is live");

        let snapshot = |e: &Engine| {
            let b = &e.cache.blocks[id as usize];
            let table: Vec<u64> = (layout::LOOKUP_BASE..layout::SHADOW_BASE)
                .step_by(8)
                .map(|addr| e.mem.read(addr, 8).unwrap())
                .collect();
            (
                (b.kind, b.entry, b.range, b.extents.clone(), b.hot.is_some()),
                (e.cache.blocks.len(), e.cache.registry.clone(), table),
                (e.machine.arena.end(), e.machine.cycles, e.stats.clone()),
            )
        };
        let before = snapshot(&engine);
        assert!(
            !crate::hot::promote(&mut engine, id),
            "a trace over the floating pool must be refused"
        );
        assert!(
            before == snapshot(&engine),
            "a refused promotion changed the cache"
        );

        match engine.resume(&mut os, u64::MAX / 2) {
            Outcome::Halted(c) => {
                assert_eq!(c.gpr, interp.cpu.gpr);
            }
            other => panic!("expected halt, got {other:?}"),
        }
        for off in (0..96).step_by(4) {
            let addr = (DATA + off) as u64;
            assert_eq!(
                engine.mem.read(addr, 4).unwrap(),
                omem.read(addr, 4).unwrap(),
                "result word at +{off} differs from the interpreter's"
            );
        }
        assert_eq!(engine.stats.hot_traces, 0);
        assert!(engine.cache.blocks.iter().all(|b| b.kind != BlockKind::Hot));
        assert!(
            engine.stats.heat_events <= ITERS / THRESHOLD,
            "promotion churn: {} heat events",
            engine.stats.heat_events
        );
    }

    /// A guest of one counted loop followed by a chain of `n` one-add
    /// blocks, loaded into a fresh engine: `(engine, entry cpu, loop
    /// EIP, chain EIPs)`. The chain's adds carry a 32-bit immediate at
    /// `eip + 1` for tests that rewrite guest code. The loop starts two
    /// bytes before page 0x401, so its block — and its trace — has
    /// source on two pages; so has block `n / 2` of the chain, whose
    /// immediate straddles pages 0x401 and 0x402.
    pub(crate) fn loop_and_chain(n: usize, cfg: Config) -> (Engine, Cpu, u32, Vec<u32>) {
        use ia32::inst::AluOp;
        use ia32::regs::{EAX, ECX};
        let mut a = ia32::asm::Asm::new(0x40_0000);
        let pad_to = |a: &mut ia32::asm::Asm, addr: u32| {
            while a.here() < addr {
                a.nop();
            }
            assert_eq!(a.here(), addr);
        };
        a.mov_ri(ECX, 400);
        a.mov_ri(EAX, 0);
        let top = a.label();
        a.jmp(top);
        pad_to(&mut a, 0x40_0FFE);
        a.bind(top);
        let loop_eip = a.here();
        a.alu_rr(AluOp::Add, EAX, ECX);
        // A load, so the loop's trace has a commit point to recover at.
        a.alu_rm(AluOp::Add, EAX, ia32::inst::Addr::abs(0x40_0000));
        a.dec(ECX);
        a.jcc(ia32::Cond::Ne, top);
        let labels: Vec<_> = (0..n).map(|_| a.label()).collect();
        let mut chain = Vec::new();
        for (k, l) in labels.into_iter().enumerate() {
            a.jmp(l);
            if k == n / 2 {
                pad_to(&mut a, 0x40_1FFD);
            }
            a.bind(l);
            chain.push(a.here());
            a.alu_ri(AluOp::Add, EAX, 0x1234_5678);
        }
        a.hlt();
        let image = ia32::asm::Image::from_asm(&a).with_writable_code();
        let mut mem = ia32::mem::GuestMem::new();
        let cpu = image.load(&mut mem);
        let mut engine = Engine::new(mem, cfg);
        state::cpu_to_machine(&cpu, &mut engine.machine);
        (engine, cpu, loop_eip, chain)
    }

    /// The extent index against the linear scans it replaced, at every
    /// bundle address of the arena, after every step of a seeded walk
    /// through the cache's whole lifecycle: cold translation,
    /// retranslation of a live EIP (a superseding generation), hot
    /// promotion, eviction (chosen victims and `make_room` under a
    /// small cap), SMC orphaning and retranslation, interpreter stubs,
    /// and full flushes. Every step also passes the whole-cache audit.
    /// The loop's trace and one chain block have source on two pages,
    /// and the walk rewrites that block on either.
    #[test]
    fn extent_index_matches_the_linear_scan_through_the_cache_lifecycle() {
        let cfg = Config {
            heat_threshold: 16,
            max_cache_bundles: 200,
            ..Config::default()
        };
        let (mut engine, cpu, loop_eip, chain) = loop_and_chain(40, cfg);
        let mut os = NullOs;

        let check = |e: &Engine, step: &str| {
            let arena = &e.machine.arena;
            let mut addr = arena.base();
            while addr < arena.end() {
                for any in [false, true] {
                    let got = if any {
                        e.block_at_addr_any(addr)
                    } else {
                        e.block_at_addr(addr)
                    };
                    assert_eq!(
                        got,
                        e.scan_for_owner(addr, any),
                        "{addr:#x} (any generation: {any}) after {step}"
                    );
                }
                addr += ipf::Bundle::SIZE;
            }
            // Stubs live outside the arena and belong to no block.
            let stub = StubKind::Untranslated.addr();
            assert_eq!(e.block_at_addr(stub), None);
            assert_eq!(e.block_at_addr_any(stub), None);
            assert_eq!(e.audit(), Ok(()), "after {step}");
        };

        // The guest's own run: cold blocks, a heat event, a promotion.
        assert_eq!(engine.run(&mut os, cpu, 4_000), Outcome::InstLimit);
        assert!(engine.stats.hot_traces > 0, "the loop never promoted");
        check(&engine, "the guest's run");
        let hot = engine
            .cache
            .registry
            .live(loop_eip)
            .expect("the loop is live");
        for page in [0x400, 0x401] {
            let listed = engine.cache.registry.on_page(page);
            assert!(listed.contains(&hot), "the trace has source on {page:#x}");
        }
        let straddler = chain[chain.len() / 2];
        let (cold_gen, hot_gen) = {
            let b = &engine.cache.blocks[hot as usize];
            assert!(b.extents.len() >= 2, "promotion keeps the cold generation");
            (b.extents[0].0, b.range.0)
        };
        assert_eq!(engine.block_at_addr(hot_gen), Some(hot));
        assert_eq!(
            engine.block_at_addr(cold_gen),
            None,
            "superseded generation"
        );
        assert_eq!(engine.block_at_addr_any(cold_gen), Some(hot));

        // A generation placed in a hole is code rebased, not code
        // regenerated: every branch in it must land in its own extent,
        // at a stub or at a live block's entry, and every recovery key
        // of a trace inside it.
        let resolves_in_place = |e: &Engine, id: u32| {
            let b = e.block(id);
            let own = b.range.0..b.range.1;
            for addr in own.clone().step_by(ipf::Bundle::SIZE as usize) {
                for t in e.branches_at(addr) {
                    let entered = e.cache.registry.owner_of(t).map(|o| e.block(o).entry);
                    assert!(
                        own.contains(&t) || StubKind::from_addr(t).is_some() || entered == Some(t),
                        "block {id} at {:#x?}: the branch at {addr:#x} goes to {t:#x}",
                        b.range
                    );
                }
            }
            let keys = b.hot.iter().flat_map(|h| h.by_slot.keys());
            assert!(keys.clone().all(|(ip, _)| own.contains(ip)), "block {id}");
            assert_eq!(b.kind == BlockKind::Hot, keys.count() > 0);
        };

        let (mut superseded, mut evicted, mut orphaned, mut refilled) = (0, 0, 0, 0);
        let mut second_page = 0;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..160 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let eip = match step % 8 {
                0 => straddler,
                _ => chain[(x >> 8) as usize % chain.len()],
            };
            let live = engine.cache.registry.live(eip);
            let what = match ((x >> 40) % 16, live) {
                (0..=5, _) => {
                    let holes = engine.machine.arena.free_bundles();
                    engine
                        .entry_of(&mut os, eip)
                        .expect("chain blocks translate");
                    if live.is_none() && engine.machine.arena.free_bundles() < holes {
                        let id = engine.cache.registry.live(eip).expect("just translated");
                        resolves_in_place(&engine, id);
                        refilled += 1;
                    }
                    "cold translation"
                }
                (6..=8, Some(id)) => {
                    engine
                        .translate_cold(&mut os, eip, BlockKind::ColdV2, false, HashMap::new())
                        .expect("retranslates");
                    let b = &engine.cache.blocks[id as usize];
                    let old = b.extents[0].0;
                    assert_eq!(engine.block_at_addr(old), None);
                    assert_eq!(engine.block_at_addr_any(old), Some(id));
                    superseded += 1;
                    "retranslation of a live EIP"
                }
                (9..=10, Some(id)) => {
                    let freed = engine.cache.blocks[id as usize].extents[0].0;
                    engine.evict_block(id);
                    assert_eq!(engine.block_at_addr_any(freed), None, "freed hole");
                    evicted += 1;
                    "eviction"
                }
                (11..=12, Some(id)) => {
                    // The guest rewrites a byte of the add: its second,
                    // or the straddler's first on page 0x402.
                    let at = if eip == straddler {
                        0x40_2000
                    } else {
                        eip as u64 + 1
                    };
                    let was = engine.mem.read(at, 1).expect("code is readable") as u8;
                    engine.mem.write_forced(at, &[!was]);
                    engine.smc_invalidate_extents((at >> 12) as u32);
                    second_page += u32::from(at >> 12 != eip as u64 >> 12);
                    let b = &engine.cache.blocks[id as usize];
                    assert!(!b.evicted && !engine.cache.registry.is_registered(b));
                    assert_eq!(
                        engine.block_at_addr(b.range.0),
                        Some(id),
                        "orphans keep code"
                    );
                    orphaned += 1;
                    "SMC orphaning"
                }
                (13, _) => {
                    let stub = engine.emit_interp_stub(eip);
                    assert_eq!(engine.block_at_addr_any(stub), None, "stubs have no block");
                    "an interpreter stub"
                }
                (14, _) if step % 3 == 0 => {
                    engine.flush_cache();
                    assert_eq!(engine.block_at_addr_any(layout::TC_BASE), None);
                    "a full flush"
                }
                (15, _) => {
                    let id = engine.cache.registry.live(loop_eip);
                    if let Some(id) = id.filter(|&id| engine.block(id).kind != BlockKind::Hot) {
                        crate::hot::promote(&mut engine, id);
                    } else {
                        engine.entry_of(&mut os, loop_eip).expect("loop translates");
                    }
                    "hot promotion"
                }
                _ => continue,
            };
            check(&engine, what);
        }
        assert!(superseded > 0 && evicted > 0 && orphaned > 0);
        assert!(refilled > 0, "no cold block landed in a hole");
        assert!(second_page > 0, "never rewrote the straddler's second page");
        assert!(
            engine.stats.evictions > evicted,
            "make_room never evicted ({} live bundles)",
            engine.machine.arena.live_len()
        );
        assert!(engine.stats.cache_flushes > 0);

        // A trace into a hole (the walk's holes are a block or two
        // wide): neighbouring chain blocks, then the loop's cold block
        // behind them; the chain evicted leaves one hole to promote into.
        engine.flush_cache();
        for &eip in chain[..12].iter().chain([&loop_eip]) {
            engine.entry_of(&mut os, eip).expect("translates");
        }
        for &eip in &chain[..12] {
            engine.evict_block(engine.cache.registry.live(eip).expect("just translated"));
        }
        let (id, end) = (
            engine.cache.registry.live(loop_eip).expect("the loop"),
            engine.machine.arena.end(),
        );
        assert!(crate::hot::promote(&mut engine, id), "the loop promotes");
        assert!(
            engine.block(id).range.1 <= end,
            "the trace landed in the hole"
        );
        assert_eq!(engine.machine.arena.end(), end);
        resolves_in_place(&engine, id);
        check(&engine, "promotion into a hole");

        engine.flush_cache();
        check(&engine, "the last flush");
        assert_eq!(engine.cache.registry.unevicted().count(), 0);
    }

    /// `chained_branches` finds its targets through the extent index;
    /// the map of every live block's entry it used to build per call is
    /// the reference. The evicted block's entry is the
    /// Untranslated stub, which every unchained exit branches to: none
    /// of those may be recorded as an edge.
    #[test]
    fn inbound_links_match_the_entry_map_they_used_to_be_built_from() {
        let (mut engine, _, _, chain) = loop_and_chain(3, Config::default());
        let mut os = NullOs;
        // Targets first, so each later block chains straight to them.
        for &eip in chain.iter().rev() {
            engine.entry_of(&mut os, eip).expect("translates");
        }
        let ids: Vec<u32> = chain
            .iter()
            .map(|&e| engine.cache.registry.live(e).expect("translated above"))
            .collect();
        engine.evict_block(ids[2]);
        let (start, end) = (engine.machine.arena.base(), engine.machine.arena.end());

        for skip in [ids[0], ids[1], u32::MAX] {
            let entry_to_id: HashMap<u64, u32> = engine
                .cache
                .blocks
                .iter()
                .filter(|b| !b.evicted && b.id != skip)
                .map(|b| (b.entry, b.id))
                .collect();
            let mut want: HashMap<u32, Vec<u64>> = HashMap::new();
            let mut addr = start;
            while addr < end {
                let bundle = engine.machine.arena.bundle_at(addr).expect("inside arena");
                for s in &bundle.slots {
                    if let Some(Target::Abs(t)) = s.op.target() {
                        if let Some(&tid) = entry_to_id.get(&t) {
                            want.entry(tid).or_default().push(addr);
                        }
                    }
                }
                addr += ipf::Bundle::SIZE;
            }
            let mut got: HashMap<u32, Vec<u64>> = HashMap::new();
            for (tid, site) in engine.chained_branches(start, end, skip) {
                got.entry(tid).or_default().push(site);
            }
            assert_eq!(got, want, "skip {skip}");
            assert!(!want.contains_key(&ids[2]), "edge into an evicted block");
            if skip == u32::MAX {
                assert_eq!(want.len(), 1, "chain[0] -> chain[1] is the one live edge");
                assert_eq!(want[&ids[1]].len(), 1);
            }
        }
    }
}
