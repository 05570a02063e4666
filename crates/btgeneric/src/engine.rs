//! The translation engine: the dispatch loop tying the translation
//! cache, the Itanium machine, the OS layer, and the two translation
//! phases together (paper Figure 2).

use crate::btos::{BtOs, GuestException, SyscallOutcome};
use crate::chaos::{FaultKind, FaultPlan};
use crate::cold::discover::discover;
use crate::cold::gen::{generate, ColdGenInput, SpecSeed};
use crate::cost;
use crate::features::Features;
use crate::layout::{self, region, Predictions, Profile, StubKind};
use crate::policy;
use crate::registry::Registry;
use crate::serving::Tenant;
use crate::state::{self, GR_PAYLOAD0, GR_STATE};
use crate::stats::Stats;
use crate::templates::{AccessMode, MisalignPlan};
use crate::trace::{EventData, Phase, SpanToken, TraceConfig, Tracer};
use ia32::cpu::Cpu;
use ia32::interp::{Event, Interp};
use ia32::mem::{GuestMem, MemFault, MemFaultKind};
use ipf::asm::Relocatable;
use ipf::machine::{Bus, BusError, CodeArena, Machine, StopReason};
use std::collections::HashMap;

mod dispatch;
mod fixups;
mod ladder;
mod signals;
mod smc;

use dispatch::Dispatch;
pub use ladder::EngineError;
use ladder::Ladder;
use smc::SmcGovernor;

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
    /// The paper's ablation knobs (all on by default).
    pub features: Features,
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
            features: Features::default(),
            max_cache_bundles: 0,
            enable_eviction: true,
            verify_on_dispatch: false,
            hot_session_budget: 0,
            blacklist_backoff_cycles: 100_000,
            smc_thrash_threshold: 8,
            trace: TraceConfig::default(),
            save_image: None,
            load_image: None,
            restore_profiles: true,
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
    /// The profile record: use and edge counters, per-access
    /// misalignment words, and the inline cache of an indirect jmp/call
    /// terminator.
    pub profile: Profile,
    /// Demoted to the plain table probe: the block's inline cache or
    /// shadow pop proved chronically wrong, so its translations carry
    /// no per-site acceleration (see [`crate::policy::MEGAMORPHIC_DEMOTE_USES`]
    /// and [`crate::policy::POP_DEMOTE_MISSES`]).
    pub indirect_plain: bool,
    /// Shadow-stack pop misses observed by the dispatcher for this
    /// (ret-terminated) block.
    pub pop_misses: u32,
    /// The IA-32 instruction each indexed access belongs to, by access
    /// index.
    pub access_ips: Box<[u32]>,
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

/// The guest pages the source span `[start, end)` touches.
pub(crate) fn source_pages((start, end): (u32, u32)) -> std::ops::RangeInclusive<u32> {
    (start >> 12)..=(end.saturating_sub(1).max(start) >> 12)
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
        self.0.read(addr, size).map_err(bus_error)
    }

    fn write(&mut self, addr: u64, size: u32, val: u64) -> Result<(), BusError> {
        self.0.write(addr, size, val).map_err(bus_error)
    }
}

/// The machine's view of a guest-memory fault.
fn bus_error(f: MemFault) -> BusError {
    match f.kind {
        MemFaultKind::Unmapped => BusError::Unmapped,
        MemFaultKind::NoRead | MemFaultKind::NoExec => BusError::NoRead,
        MemFaultKind::NoWrite => BusError::NoWrite,
        MemFaultKind::SmcWrite => BusError::Smc,
    }
}

/// The IA-32 Execution Layer engine: one guest session — its memory,
/// its machine and its code cache — with each seam's state in one
/// owner field. Tenants never share an `Engine`; they share published
/// records through [`crate::serving::SharedCache`].
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
    /// Every block ever translated, by id (including evicted ones).
    pub(crate) blocks: Vec<BlockInfo>,
    /// Every index over `blocks`: where each translation is, which
    /// pages it came from, and what points at it.
    pub(crate) registry: Registry,
    /// Whether the warm-boot sequence (image load + pre-translation)
    /// has already run; `run` performs it exactly once, before the
    /// first dispatch.
    warm_booted: bool,
    /// The degradation ladder's blacklist and recovery depth.
    pub(crate) ladder: Ladder,
    /// The SMC-thrash governor.
    pub(crate) smc: SmcGovernor,
    /// Profile slots and the pinned block.
    pub(crate) dispatch: Dispatch,
    /// This session's attachment to a shared namespace.
    pub(crate) tenant: Tenant,
}

impl Engine {
    /// Creates an engine over the given guest memory.
    pub fn new(mut mem: GuestMem, cfg: Config) -> Engine {
        let dispatch = Dispatch::new(&mut mem);
        let arena = CodeArena::new(layout::TC_BASE);
        let machine = Machine::new(arena, ipf::Timing::default());
        let tracer = Tracer::new(cfg.trace);
        Engine {
            mem,
            machine,
            stats: Stats::default(),
            chaos: None,
            tracer,
            blocks: Vec::new(),
            registry: Registry::default(),
            warm_booted: false,
            ladder: Ladder::new(cfg.blacklist_backoff_cycles),
            smc: SmcGovernor::new(cfg.smc_thrash_threshold),
            dispatch,
            tenant: Tenant::default(),
            cfg,
        }
    }

    /// Block info by id.
    pub fn block(&self, id: u32) -> &BlockInfo {
        &self.blocks[id as usize]
    }

    /// All blocks (stats/tests).
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
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

    /// Renders the translated code of a block as annotated assembly
    /// (bundles, stop bits, and templates) — the debugging view a
    /// translator developer lives in.
    pub fn disassemble_block(&self, id: u32) -> String {
        use std::fmt::Write;
        let Some(b) = self.blocks.get(id as usize) else {
            return String::from("<no such block>");
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "block {} @ guest {:#x} ({:?}, {} IA-32 insts)",
            b.id, b.eip, b.kind, b.ia32_insts
        );
        for addr in (b.range.0..b.range.1).step_by(ipf::Bundle::SIZE as usize) {
            if let Some(bundle) = self.machine.arena.bundle_at(addr) {
                let _ = writeln!(out, "  {addr:#x}: {bundle}");
            }
        }
        out
    }

    /// Harvests the hot side exits and trace ends the machine tapped
    /// into the statistics (call after a run).
    ///
    /// Idempotent: the counts are *assigned*, not accumulated, so the
    /// bench harness may call this any number of times without
    /// double-counting `hot_side_exits`.
    pub fn collect_hot_exit_stats(&mut self) {
        Predictions::harvest(&self.machine.taps, &mut self.stats);
    }

    /// The branches into hot traces' exit blocks a debug build tapped:
    /// each entry of an exit block, counted where the trace body leaves.
    #[cfg(debug_assertions)]
    pub fn exit_block_entries(&self) -> u64 {
        Predictions::exits_taken(&self.machine.taps)
    }

    /// Every live hot trace's recovery map, keyed by the trace's guest
    /// EIP — the surface the exhaustive commit-point sweep test walks
    /// to round-trip `reconstruct_at` against the interpreter oracle.
    pub fn hot_recovery_maps(&self) -> Vec<(u32, &crate::hot::HotData)> {
        self.blocks
            .iter()
            .filter(|b| !b.evicted && b.kind == BlockKind::Hot)
            .filter_map(|b| b.hot.as_ref().map(|h| (b.eip, h)))
            .collect()
    }

    /// Offers one lifecycle event to the tracer, charging
    /// [`TraceConfig::event_cycles`] to the `OTHER` region iff the event
    /// was actually recorded — the honest, visible cost of a trace
    /// write. With tracing disabled this is a single branch and charges
    /// nothing, so an untraced run is cycle-identical to a build that
    /// never had tracing (the zero-cost-when-off contract). A block's
    /// translation, promotion, demotion and eviction also count in its
    /// profile row.
    pub(crate) fn trace_emit(&mut self, data: EventData) {
        if !self.cfg.trace.enabled {
            return;
        }
        if self.tracer.offer(self.machine.cycles, data) {
            self.machine
                .charge(region::OTHER, self.cfg.trace.event_cycles);
        }
        if let EventData::BlockTranslated { eip, .. }
        | EventData::BlockPromoted { eip, .. }
        | EventData::BlockDemoted { eip, .. }
        | EventData::BlockEvicted { eip, .. } = data
        {
            self.tracer.profile_lifecycle(eip, data.kind());
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
        let b = &mut self.blocks[block_id as usize];
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
        for s in Predictions::predicting(&self.mem, eip, self.ic_slots()) {
            Predictions::train(&mut self.mem, s, eip as u64, entry);
        }
        self.trace_emit(EventData::BlockPromoted {
            id: block_id,
            eip,
            commit_points,
        });
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
        self.forward(self.blocks[id as usize].entry, entry);
        let b = &mut self.blocks[id as usize];
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
                self.registry.link(target, site);
            }
        }
        if self.cfg.verify_on_dispatch {
            self.blocks[id as usize].checksum = self.machine.arena.checksum_range(range.0, range.1);
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
        let (mem, smc) = (&self.mem, &self.smc);
        let protectable = |page: u32| {
            mem.prot_of((page as u64) << 12).map(|p| p.write) == Some(true)
                && !smc.is_snapshot(page)
        };
        let b = &mut self.blocks[id as usize];
        let done = self.registry.install(b, protectable);
        for page in done.protect {
            self.mem.set_code_protect((page as u64) << 12, true);
        }
        if let Some(old) = done.displaced {
            let entry = self.blocks[old as usize].entry;
            self.forward(entry, StubKind::Reenter.addr());
        }
    }

    /// Regenerates block `id` from its guest bytes as a cold block of
    /// `kind`, keeping its learned misalignment modes: a misalignment
    /// retrain, a TagFix rebuild with inline FP checks, a demotion.
    fn retranslate(&mut self, os: &mut dyn BtOs, id: u32, kind: BlockKind, inline_fp: bool) {
        let b = &self.blocks[id as usize];
        let (eip, overrides) = (b.eip, b.misalign_overrides.clone());
        let _ = self.translate(os, eip, kind, inline_fp, overrides, XlateOrigin::Demand);
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
        let (id, profile, prev, indirect_plain, pop_misses) = match self.live_block(eip) {
            Some(b) => (
                b.id,
                b.profile,
                Some((b.entry, b.range)),
                b.indirect_plain,
                b.pop_misses,
            ),
            None => {
                let id = self.blocks.len() as u32;
                let profile = self.profile_slot(os, eip);
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
            _ => self.cfg.features.spec_seed(self.current_spec()),
        };
        let misalign = MisalignPlan {
            default: self.cfg.features.access_mode(kind),
            overrides: overrides.clone(),
            by_ip: HashMap::new(),
            profile,
            block_id: id,
        };
        // No write protection watches a span that touches a snapshot-mode
        // page: the block checks its own bytes on entry instead.
        let smc_check = if self.smc.governs(src_range) {
            smc::source_words(&self.mem, src_range)
        } else {
            Vec::new()
        };
        let input = ColdGenInput {
            region: &region_g,
            entry: eip,
            block_id: id,
            profile,
            heat_threshold: self.cfg.heat_threshold,
            misalign,
            spec,
            features: self.cfg.features,
            inline_fp,
            smc_check,
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
            }
        }
        // The block's record, still naming what stood here before — a
        // live block's generation, which stays allocated (its entry
        // will forward to the new one; eviction reclaims the whole list
        // at once), or nothing.
        let (entry, range, extents) = match prev {
            Some((entry, range)) => {
                let extents = std::mem::take(&mut self.blocks[id as usize].extents);
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
            profile,
            indirect_plain,
            pop_misses,
            access_ips: gen.access_ips,
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
            Some(_) => self.blocks[id as usize] = info,
            None => self.blocks.push(info),
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
            match self.registry.live(texit) {
                Some(tid) => self.chain(br, tid),
                None => self.registry.await_target(texit, br),
            }
        }
        // Chain every trampoline that was already waiting for this EIP.
        for br in self.registry.take_waiting(eip) {
            self.chain(br, id);
        }
        self.trace_emit(EventData::BlockTranslated {
            id,
            eip,
            stage2: kind == BlockKind::ColdV2,
            bundles: n_bundles,
        });
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

    /// The guest EIP the IA-32 state register holds.
    fn state_eip(&self) -> u32 {
        self.machine.gr[GR_STATE.0 as usize] as u32
    }

    /// The IA-32 state at the state register's EIP, everything in its
    /// canonical home (cold code, a dispatcher exit).
    fn state_cpu(&self) -> Cpu {
        state::machine_to_cpu(&self.machine, self.state_eip())
    }

    /// Reconstructs the precise IA-32 state at a fault (paper §4).
    pub fn reconstruct(&self, ip: u64, slot: u8) -> Cpu {
        if let Some(id) = self.block_at_addr(ip) {
            let b = &self.blocks[id as usize];
            if let Some(hot) = &b.hot {
                if let Some(cpu) = hot.reconstruct(&self.machine, ip, slot) {
                    return cpu;
                }
            }
        }
        // Cold code: the IA-32 state register holds the faulting EIP and
        // all state is in its canonical home.
        self.state_cpu()
    }

    /// Runs the guest from `cpu` until exit/trap/limit.
    ///
    /// On the first call this performs the warm-boot sequence: load a
    /// warm-start image if [`Config::load_image`] is set (a stale or
    /// damaged image degrades to on-demand translation, it never aborts
    /// the run). On a clean exit (`Halted`/`Exited`), the translation
    /// cache is serialized to [`Config::save_image`] if set.
    pub fn run(&mut self, os: &mut dyn BtOs, cpu: Cpu, max_slots: u64) -> Outcome {
        if !self.warm_booted {
            self.warm_booted = true;
            // Install the entry state first so loaded blocks see the
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
            None => self.state_eip(),
        };
        let mut remaining = max_slots;
        'dispatch: loop {
            if resuming {
                resuming = false;
            } else {
                match self.dispatch_boundary(os, eip) {
                    ExitAction::Continue(entry) => self.machine.set_ip(entry, 0),
                    ExitAction::Dispatch(e) => {
                        eip = e;
                        continue;
                    }
                    ExitAction::Done(out) => return out,
                }
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
                let act = match stop {
                    StopReason::InstLimit => {
                        if remaining == 0 {
                            return Outcome::InstLimit;
                        }
                        // Signal-quantum expiry mid-trace. If a signal
                        // is due, hunt forward to the next commit point
                        // (or state boundary) and deliver there;
                        // otherwise just resume — the machine restarts
                        // at the exact next unexecuted slot.
                        if !os.signal_due(self.machine.cycles) {
                            continue;
                        }
                        match self.hunt_commit_point(os, &mut remaining) {
                            Some(act @ (ExitAction::Dispatch(_) | ExitAction::Done(_))) => act,
                            // Keep hunting next quantum.
                            _ => continue,
                        }
                    }
                    StopReason::ExternalBranch { target, from } => {
                        self.handle_exit(os, target, from)
                    }
                    StopReason::Fault { fault, ip, slot } => {
                        match self.handle_fault(os, fault, ip, slot) {
                            // Resumed in place.
                            ExitAction::Continue(_) => continue,
                            act => act,
                        }
                    }
                };
                match act {
                    ExitAction::Continue(addr) => self.machine.set_ip(addr, 0),
                    ExitAction::Dispatch(e) => {
                        eip = e;
                        continue 'dispatch;
                    }
                    ExitAction::Done(out) => return out,
                }
            }
        }
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
            StubKind::Exit => ExitAction::Done(Outcome::Halted(Box::new(self.state_cpu()))),
            StubKind::Syscall => self.syscall(os, payload as u8, self.state_cpu()),
            StubKind::Untranslated => {
                let eip = payload as u32;
                match self.entry_of(os, eip) {
                    Ok(entry) => {
                        // Patch the trampoline's branch (the bundle that
                        // exited) to go straight to the new block (or to
                        // the interpreter stub standing in for it).
                        match self.registry.live(eip) {
                            Some(tid) => self.chain(from, tid),
                            None => {
                                self.patch_branch(
                                    from,
                                    |t| t == StubKind::Untranslated.addr(),
                                    entry,
                                );
                            }
                        }
                        ExitAction::Continue(entry)
                    }
                    Err(exc) => {
                        self.deliver_action(os, exc, state::machine_to_cpu(&self.machine, eip))
                    }
                }
            }
            StubKind::IndirectMiss => {
                let eip = payload as u32;
                self.stats.indirect_misses += 1;
                // Payload1 carries the missing site's inline-cache slot
                // (0 for devirt guard exits without a site), or names
                // the ret block whose shadow-stack pop missed.
                let mut site = self.machine.gr[state::GR_PAYLOAD1.0 as usize];
                if let Some(id) = Predictions::ret_miss_block(site) {
                    // A ret block's shadow pop missed. Count it; a
                    // chronically mispredicting ret block is demoted to
                    // the plain table probe so it stops paying (and
                    // re-missing) the pop on every execution.
                    site = 0;
                    if let Some(b) = self.blocks.get_mut(id as usize) {
                        b.pop_misses += 1;
                        if b.pop_misses >= policy::POP_DEMOTE_MISSES && !b.indirect_plain {
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
                            Predictions::train(&mut self.mem, site, eip as u64, entry);
                            self.stats.ic_retrains += 1;
                            self.trace_emit(EventData::IndirectRetrain { eip, site });
                        }
                        ExitAction::Continue(entry)
                    }
                    Err(exc) => {
                        self.deliver_action(os, exc, state::machine_to_cpu(&self.machine, eip))
                    }
                }
            }
            StubKind::Heat => {
                let id = payload as u32;
                self.stats.heat_events += 1;
                let b = &mut self.blocks[id as usize];
                b.registrations += 1;
                let twice = b.registrations >= 2;
                let eip = b.eip;
                // Demoted blocks sit out their re-promotion backoff:
                // no candidacy until the blacklist releases them.
                if self.blacklist().is_blocked(eip, self.machine.cycles) {
                    self.stats.blacklist_hits += 1;
                    return ExitAction::Dispatch(eip);
                }
                self.registry.nominate(id);
                if self.registry.candidates().len() >= self.cfg.hot_candidates || twice {
                    self.run_hot_session(os);
                }
                ExitAction::Dispatch(eip)
            }
            StubKind::MisalignRetrain => {
                let id = payload as u32;
                self.stats.misalign_retrains += 1;
                self.retranslate(os, id, BlockKind::ColdV2, false);
                // Continue at the interrupted instruction.
                ExitAction::Dispatch(self.state_eip())
            }
            StubKind::SmcFail => self.smc_check_failed(payload as u32),
            StubKind::TosFix | StubKind::TagFix | StubKind::MmxFix | StubKind::XmmFix => {
                self.fp_fix(os, kind, payload as u32)
            }
            StubKind::DivZero => {
                self.deliver_action(os, GuestException::DivideError, self.state_cpu())
            }
            StubKind::FpStackFault => {
                let mut cpu = self.state_cpu();
                // Set the stack-fault status bits like the oracle does.
                cpu.fpu.status |= ia32::fpu::status::SF | ia32::fpu::status::IE;
                self.deliver_action(os, GuestException::FpStackFault, cpu)
            }
            StubKind::Deopt => {
                let id = payload as u32;
                let rec = self.machine.gr[state::GR_PAYLOAD1.0 as usize] as u32;
                self.stats.deopts += 1;
                self.trace_emit(EventData::CommitPointTaken { id, recovery: rec });
                let cpu = match &self.blocks[id as usize].hot {
                    Some(h) => h.reconstruct_at(&self.machine, rec),
                    None => None,
                };
                match cpu {
                    Some(c) => {
                        state::cpu_to_machine(&c, &mut self.machine);
                        ExitAction::Dispatch(c.eip)
                    }
                    None => ExitAction::Dispatch(self.state_eip()),
                }
            }
            StubKind::InterpStep => self.interp_one(os, self.state_eip()),
            StubKind::Reenter => match self.block_at_addr(from) {
                Some(id) => ExitAction::Dispatch(self.blocks[id as usize].eip),
                None => ExitAction::Dispatch(self.state_eip()),
            },
            StubKind::InvalidOp => {
                self.deliver_action(os, GuestException::InvalidOpcode, self.state_cpu())
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

    fn run_hot_session(&mut self, os: &mut dyn BtOs) {
        let span = self.trace_phase_enter(Phase::HotSession);
        // Injected budget exhaustion: the watchdog kills the whole
        // session before it starts; every candidate keeps its cold code.
        if self.inject(FaultKind::HotBudget) {
            self.stats.watchdog_aborts += 1;
            self.stats.ladder_recoveries += 1;
            self.registry.take_candidates();
            self.trace_phase_exit(span);
            return;
        }
        let budget = self.cfg.hot_session_budget;
        let start = self.region_cycle(region::OVERHEAD);
        for id in self.registry.take_candidates() {
            let eip = self.blocks[id as usize].eip;
            if self.blacklist().is_blocked(eip, self.machine.cycles) {
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
}

pub(crate) enum ExitAction {
    /// Resume the machine at this arena address.
    Continue(u64),
    /// Re-dispatch at this guest EIP.
    Dispatch(u32),
    /// Return to the caller.
    Done(Outcome),
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::btos::{ExceptionOutcome, Version, BTOS_MAJOR, BTOS_MINOR};
    use ipf::inst::Target;

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
        fn nested<R>(e: &mut Engine, depth: u32, f: impl FnOnce(&mut Engine) -> R) -> R {
            match depth {
                0 => f(e),
                _ => e.recovering(|e| nested(e, depth - 1, f)),
            }
        }
        let mut engine = halt_engine();
        let err = EngineError::NonStubBranch {
            target: 0xdead,
            from: 0xbeef,
        };
        let (act, depth) = nested(&mut engine, policy::MAX_RECOVERY_DEPTH - 1, |e| {
            (e.degrade(&mut os, err), e.ladder.depth())
        });
        match act {
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
        // The floor's scope unwound inside the outer ones, and they did.
        assert_eq!(depth, policy::MAX_RECOVERY_DEPTH - 1);
        assert_eq!(engine.ladder.depth(), 0);
    }

    /// The floor's one instruction may store onto translated code. The
    /// SMC scope it opens runs at the floor's depth, so the ladder
    /// never goes deeper than its cap, and the audit the orphaning runs
    /// on the way agrees.
    #[test]
    fn a_store_onto_code_from_the_floor_stays_at_the_cap() {
        let mut os = NullOs;
        let mut a = ia32::asm::Asm::new(0x40_0000);
        // Rewrites its own first bytes, so the block is orphaned.
        a.mov_store(ia32::inst::Addr::abs(0x40_0000), ia32::regs::EAX);
        let next = a.here();
        a.hlt();
        let image = ia32::asm::Image::from_asm(&a).with_writable_code();
        let mut mem = GuestMem::new();
        let cpu = image.load(&mut mem);
        let mut engine = Engine::new(mem, Config::default());
        state::cpu_to_machine(&cpu, &mut engine.machine);
        engine.entry_of(&mut os, 0x40_0000).expect("translates");
        assert!(engine.mem.prot_of(0x40_0000).unwrap().write_protect_code);

        let err = EngineError::NonStubBranch {
            target: 0xdead,
            from: 0xbeef,
        };
        let mut nested =
            |e: &mut Engine| e.recovering(|e| e.recovering(|e| e.degrade(&mut os, err)));
        assert_eq!(policy::MAX_RECOVERY_DEPTH, 3, "two scopes reach the floor");
        let act = nested(&mut engine);
        assert!(matches!(act, ExitAction::Dispatch(eip) if eip == next));
        assert_eq!(engine.stats.interp_fallbacks, 1, "floor taken");
        assert_eq!(engine.stats.smc_events, 1);
        assert_eq!(engine.stats.smc_extent_orphans, 1);
        assert_eq!(
            engine.stats.recovery_depth_max,
            u64::from(policy::MAX_RECOVERY_DEPTH)
        );
        assert_eq!(engine.ladder.depth(), 0);
        assert_eq!(engine.audit(), Ok(()));
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
        let id = engine.registry.live(loop_eip).expect("the loop is live");

        let snapshot = |e: &Engine| {
            let b = &e.blocks[id as usize];
            let table = Predictions::pairs(&e.mem, e.ic_slots());
            (
                (b.kind, b.entry, b.range, b.extents.clone(), b.hot.is_some()),
                (e.blocks.len(), e.registry.clone(), table),
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
        assert!(engine.blocks.iter().all(|b| b.kind != BlockKind::Hot));
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
        let hot = engine.registry.live(loop_eip).expect("the loop is live");
        for page in [0x400, 0x401] {
            let listed = engine.registry.on_page(page);
            assert!(listed.contains(&hot), "the trace has source on {page:#x}");
        }
        let straddler = chain[chain.len() / 2];
        let (cold_gen, hot_gen) = {
            let b = &engine.blocks[hot as usize];
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
                    let entered = e.registry.owner_of(t).map(|o| e.block(o).entry);
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
            let live = engine.registry.live(eip);
            let what = match ((x >> 40) % 16, live) {
                (0..=5, _) => {
                    let holes = engine.machine.arena.free_bundles();
                    engine
                        .entry_of(&mut os, eip)
                        .expect("chain blocks translate");
                    if live.is_none() && engine.machine.arena.free_bundles() < holes {
                        let id = engine.registry.live(eip).expect("just translated");
                        resolves_in_place(&engine, id);
                        refilled += 1;
                    }
                    "cold translation"
                }
                (6..=8, Some(id)) => {
                    let fresh = HashMap::new();
                    engine
                        .translate(
                            &mut os,
                            eip,
                            BlockKind::ColdV2,
                            false,
                            fresh,
                            XlateOrigin::Demand,
                        )
                        .expect("retranslates");
                    let b = &engine.blocks[id as usize];
                    let old = b.extents[0].0;
                    assert_eq!(engine.block_at_addr(old), None);
                    assert_eq!(engine.block_at_addr_any(old), Some(id));
                    superseded += 1;
                    "retranslation of a live EIP"
                }
                (9..=10, Some(id)) => {
                    let freed = engine.blocks[id as usize].extents[0].0;
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
                    let b = &engine.blocks[id as usize];
                    assert!(!b.evicted && !engine.registry.is_registered(b));
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
                    let id = engine.registry.live(loop_eip);
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
            engine.evict_block(engine.registry.live(eip).expect("just translated"));
        }
        let (id, end) = (
            engine.registry.live(loop_eip).expect("the loop"),
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
        assert_eq!(engine.registry.unevicted().count(), 0);
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
            .map(|&e| engine.registry.live(e).expect("translated above"))
            .collect();
        engine.evict_block(ids[2]);
        let (start, end) = (engine.machine.arena.base(), engine.machine.arena.end());

        for skip in [ids[0], ids[1], u32::MAX] {
            let entry_to_id: HashMap<u64, u32> = engine
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
