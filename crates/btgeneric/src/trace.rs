//! Structured lifecycle tracing and per-block profiling — the
//! observability layer behind policy tuning.
//!
//! The paper's two-phase design is driven by visibility into block
//! lifecycles: use counters decide heating, edge counters shape traces,
//! misalignment instrumentation picks access modes. This module makes
//! those lifecycles *observable* without a debugger:
//!
//! - a fixed-capacity **ring buffer** of typed [`TraceEvent`]s (block
//!   translated / promoted / demoted / evicted / blacklisted, trace
//!   selected, commit point taken, fault injected, ladder rung entered,
//!   interp fallback, phase spans), each stamped with the engine's
//!   **simulated cycle clock** — never wall time, so the same seed and
//!   workload produce a byte-identical event stream, composing with the
//!   chaos harness's determinism guarantee;
//! - a [`ProfileTable`] of per-block [`BlockProfile`]s (dispatch
//!   counts, cycles attributed cold vs hot vs interp, translation /
//!   promotion / demotion / eviction history);
//! - a span-style scope API ([`Tracer::phase_enter`] /
//!   [`Tracer::phase_exit`]) bracketing translation and optimization
//!   sessions;
//! - reporting surfaces: a deterministic text rendering
//!   ([`Tracer::render_text`]), a collapsed-stack file consumable by
//!   standard flamegraph tooling ([`Tracer::collapsed_stacks`]), and a
//!   `chrome://tracing` JSON exporter ([`Tracer::chrome_trace_json`]).
//!
//! ## Cost contract
//!
//! Tracing is **zero-cost when off**: with
//! [`TraceConfig::enabled`]`== false` (the default) the engine performs
//! a single branch per potential event and charges nothing, so a run
//! with tracing disabled is cycle-identical to one that never knew
//! about tracing. When enabled, each event recorded into the ring is
//! charged [`TraceConfig::event_cycles`] simulated cycles to the
//! `OTHER` region — the `trace_overhead` bench experiment holds the
//! total below 2% of run cycles on the gcc workload.
//!
//! ## Determinism contract
//!
//! Events are stamped with [`ipf::machine::Machine::cycles`] (the
//! simulated clock) and a per-tracer sequence number. No wall time, no
//! host allocation addresses, no iteration over unordered maps at
//! record time. Consequently `same seed + same workload + same config ⇒
//! byte-identical [`Tracer::render_text`] output`, faults included.

use crate::chaos::FaultKind;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Number of distinct [`EventKind`]s.
pub const NUM_EVENT_KINDS: usize = 15;

/// The kind of a lifecycle event (one bit each in an [`EventMask`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum EventKind {
    /// A cold block was (re)translated and installed.
    BlockTranslated = 0,
    /// A block was promoted to a hot trace.
    BlockPromoted = 1,
    /// A hot block was demoted back to cold by the degradation ladder.
    BlockDemoted = 2,
    /// A block was evicted from the translation cache.
    BlockEvicted = 3,
    /// An EIP was struck on the re-promotion blacklist.
    Blacklisted = 4,
    /// The hot optimizer selected a trace over the profile counters.
    TraceSelected = 5,
    /// A commit point was *taken*: hot code deoptimized through its
    /// recovery map.
    CommitPointTaken = 6,
    /// The attached [`FaultPlan`](crate::chaos::FaultPlan) delivered an
    /// injection.
    FaultInjected = 7,
    /// The degradation ladder entered a recovery rung.
    LadderRung = 8,
    /// Execution fell back to the `InterpStep` safety net.
    InterpFallback = 9,
    /// A translation/session phase span was entered or exited.
    Phase = 10,
    /// The dispatcher retrained an indirect-branch inline cache (the
    /// site's prediction was repointed at its newest observed target).
    IndirectRetrain = 11,
    /// A block was demoted to the plain table probe (megamorphic
    /// inline cache or chronically missing shadow pops).
    IndirectDemote = 12,
    /// An asynchronous signal was delivered to the guest handler.
    SignalDelivered = 13,
    /// The SMC-thrash governor demoted a page to interpret-only.
    SmcBlacklist = 14,
}

impl EventKind {
    /// All kinds, indexed by discriminant.
    pub const ALL: [EventKind; NUM_EVENT_KINDS] = [
        EventKind::BlockTranslated,
        EventKind::BlockPromoted,
        EventKind::BlockDemoted,
        EventKind::BlockEvicted,
        EventKind::Blacklisted,
        EventKind::TraceSelected,
        EventKind::CommitPointTaken,
        EventKind::FaultInjected,
        EventKind::LadderRung,
        EventKind::InterpFallback,
        EventKind::Phase,
        EventKind::IndirectRetrain,
        EventKind::IndirectDemote,
        EventKind::SignalDelivered,
        EventKind::SmcBlacklist,
    ];

    /// Short display name (reports, chrome trace).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::BlockTranslated => "translate",
            EventKind::BlockPromoted => "promote",
            EventKind::BlockDemoted => "demote",
            EventKind::BlockEvicted => "evict",
            EventKind::Blacklisted => "blacklist",
            EventKind::TraceSelected => "trace-select",
            EventKind::CommitPointTaken => "commit-taken",
            EventKind::FaultInjected => "fault",
            EventKind::LadderRung => "ladder",
            EventKind::InterpFallback => "interp",
            EventKind::Phase => "phase",
            EventKind::IndirectRetrain => "ind-retrain",
            EventKind::IndirectDemote => "ind-demote",
            EventKind::SignalDelivered => "signal",
            EventKind::SmcBlacklist => "smc-blacklist",
        }
    }

    /// The mask containing only this kind.
    pub const fn mask(self) -> EventMask {
        EventMask(1 << self as u16)
    }
}

/// A set of [`EventKind`]s the tracer records (one bit per kind).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EventMask(pub u16);

impl EventMask {
    /// Record nothing.
    pub const NONE: EventMask = EventMask(0);
    /// Record every kind.
    pub const ALL: EventMask = EventMask((1 << NUM_EVENT_KINDS as u16) - 1);

    /// Does the mask contain `kind`?
    pub const fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u16) != 0
    }

    /// This mask with `kind` added (builder style).
    #[must_use]
    pub const fn with(self, kind: EventKind) -> EventMask {
        EventMask(self.0 | (1 << kind as u16))
    }

    /// This mask with `kind` removed (builder style).
    #[must_use]
    pub const fn without(self, kind: EventKind) -> EventMask {
        EventMask(self.0 & !(1 << kind as u16))
    }
}

impl Default for EventMask {
    fn default() -> EventMask {
        EventMask::ALL
    }
}

/// Tracing knobs, carried inside
/// [`Config`](crate::engine::Config)`::trace`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceConfig {
    /// Master switch. Off (the default) means zero recorded events and
    /// zero charged cycles — the run is cycle-identical to a build that
    /// never had tracing.
    pub enabled: bool,
    /// Ring-buffer capacity in events. When full, the oldest event is
    /// overwritten and counted in [`Tracer::dropped`] (flight-recorder
    /// semantics: the most recent history survives).
    pub capacity: usize,
    /// Which event kinds to record.
    pub event_mask: EventMask,
    /// Sampling stride over mask-passing events: 1 records every event,
    /// `n` records every n-th (per-kind counters still count them all).
    pub sample_stride: u64,
    /// Simulated cycles charged (to the `OTHER` region) per event
    /// actually recorded into the ring — the honest cost of a trace
    /// write. The `trace_overhead` experiment bounds the total.
    pub event_cycles: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            capacity: 4096,
            event_mask: EventMask::ALL,
            sample_stride: 1,
            event_cycles: 10,
        }
    }
}

impl TraceConfig {
    /// A config with tracing switched on and everything else default.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// A translation/session phase bracketed by a span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// One cold translation (discover → liveness → generate → install).
    ColdTranslate,
    /// One hot optimization session (select → build → schedule →
    /// install, over all candidates).
    HotSession,
}

impl Phase {
    /// Short display name (reports, chrome trace).
    pub fn name(self) -> &'static str {
        match self {
            Phase::ColdTranslate => "cold-translate",
            Phase::HotSession => "hot-session",
        }
    }
}

/// A recovery rung of the degradation ladder (DESIGN.md §8).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rung {
    /// Rung 1: retry the block unchanged (a transient fault may clear).
    Retry,
    /// Rung 2: demote the hot block to cold and blacklist its EIP.
    Demote,
    /// Rung 3: evict the block and blacklist its EIP.
    Evict,
    /// Rung 4: single-step through the `InterpStep` safety net.
    Interpret,
}

impl Rung {
    /// Short display name (reports).
    pub fn name(self) -> &'static str {
        match self {
            Rung::Retry => "retry",
            Rung::Demote => "demote",
            Rung::Evict => "evict",
            Rung::Interpret => "interpret",
        }
    }
}

/// The payload of one lifecycle event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventData {
    /// A cold block was (re)translated and installed.
    BlockTranslated {
        /// Block id.
        id: u32,
        /// Guest entry EIP.
        eip: u32,
        /// True for a stage-2 (detect+avoid) regeneration.
        stage2: bool,
        /// Bundles installed.
        bundles: u64,
    },
    /// A block was promoted to a hot trace.
    BlockPromoted {
        /// Block id.
        id: u32,
        /// Guest entry EIP.
        eip: u32,
        /// Commit points recorded in the new hot code.
        commit_points: u64,
    },
    /// A hot block was demoted back to cold.
    BlockDemoted {
        /// Block id.
        id: u32,
        /// Guest entry EIP.
        eip: u32,
        /// Blacklist strikes against the EIP after this demotion.
        strikes: u32,
    },
    /// A block was evicted from the translation cache.
    BlockEvicted {
        /// Block id.
        id: u32,
        /// Guest entry EIP.
        eip: u32,
        /// Bundles reclaimed (all generations).
        bundles: u64,
    },
    /// An EIP was struck on the re-promotion blacklist.
    Blacklisted {
        /// The struck guest EIP.
        eip: u32,
        /// Simulated cycle until which re-promotion is blocked.
        until: u64,
    },
    /// The hot optimizer selected a trace.
    TraceSelected {
        /// Seed block id.
        id: u32,
        /// Guest entry EIP.
        eip: u32,
        /// Steps in the selected trace.
        steps: u32,
    },
    /// Hot code deoptimized through a commit-point recovery map.
    CommitPointTaken {
        /// Block id.
        id: u32,
        /// Recovery-map index taken.
        recovery: u32,
    },
    /// The attached fault plan delivered an injection.
    FaultInjected {
        /// The injected fault kind.
        kind: FaultKind,
    },
    /// The degradation ladder entered a recovery rung.
    LadderRung {
        /// The rung entered.
        rung: Rung,
        /// Guest EIP the recovery resumed at.
        eip: u32,
    },
    /// Execution fell back to the `InterpStep` safety net.
    InterpFallback {
        /// Guest EIP of the fallback entry.
        eip: u32,
    },
    /// The dispatcher retrained an indirect-branch inline cache.
    IndirectRetrain {
        /// Target guest EIP the site now predicts.
        eip: u32,
        /// Profile address of the retrained per-site IC slot (0 when
        /// the miss came from a site-less path such as `ret`).
        site: u64,
    },
    /// A block's per-site acceleration was demoted to the plain probe.
    IndirectDemote {
        /// Guest EIP of the demoted block.
        eip: u32,
        /// Block id.
        id: u32,
    },
    /// An asynchronous signal was delivered to the guest handler.
    SignalDelivered {
        /// Guest EIP that was interrupted (pushed in the frame).
        eip: u32,
        /// Handler EIP entered.
        handler: u32,
    },
    /// The SMC-thrash governor made a block interpret-only.
    SmcBlacklist {
        /// Guest EIP of the block.
        eip: u32,
        /// Strikes recorded against the block so far.
        strikes: u32,
    },
    /// A phase span opened.
    PhaseEnter {
        /// The phase.
        phase: Phase,
    },
    /// A phase span closed.
    PhaseExit {
        /// The phase.
        phase: Phase,
        /// Simulated cycles spent inside the span.
        cycles: u64,
    },
}

impl EventData {
    /// The kind of this payload (its bit in the [`EventMask`]).
    pub fn kind(&self) -> EventKind {
        match self {
            EventData::BlockTranslated { .. } => EventKind::BlockTranslated,
            EventData::BlockPromoted { .. } => EventKind::BlockPromoted,
            EventData::BlockDemoted { .. } => EventKind::BlockDemoted,
            EventData::BlockEvicted { .. } => EventKind::BlockEvicted,
            EventData::Blacklisted { .. } => EventKind::Blacklisted,
            EventData::TraceSelected { .. } => EventKind::TraceSelected,
            EventData::CommitPointTaken { .. } => EventKind::CommitPointTaken,
            EventData::FaultInjected { .. } => EventKind::FaultInjected,
            EventData::LadderRung { .. } => EventKind::LadderRung,
            EventData::InterpFallback { .. } => EventKind::InterpFallback,
            EventData::IndirectRetrain { .. } => EventKind::IndirectRetrain,
            EventData::IndirectDemote { .. } => EventKind::IndirectDemote,
            EventData::SignalDelivered { .. } => EventKind::SignalDelivered,
            EventData::SmcBlacklist { .. } => EventKind::SmcBlacklist,
            EventData::PhaseEnter { .. } | EventData::PhaseExit { .. } => EventKind::Phase,
        }
    }
}

/// One recorded lifecycle event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Simulated cycle at which the event was recorded (the machine's
    /// deterministic clock — never wall time).
    pub cycle: u64,
    /// Sequence number among mask-passing events (0-based, monotonic;
    /// gaps appear only under a sampling stride > 1).
    pub seq: u64,
    /// The payload.
    pub data: EventData,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>12}] #{:<6} ", self.cycle, self.seq)?;
        match self.data {
            EventData::BlockTranslated {
                id,
                eip,
                stage2,
                bundles,
            } => write!(
                f,
                "translate    block {id} @ {eip:#x} ({} bundles{})",
                bundles,
                if stage2 { ", stage2" } else { "" }
            ),
            EventData::BlockPromoted {
                id,
                eip,
                commit_points,
            } => write!(
                f,
                "promote      block {id} @ {eip:#x} ({commit_points} commit points)"
            ),
            EventData::BlockDemoted { id, eip, strikes } => {
                write!(f, "demote       block {id} @ {eip:#x} (strike {strikes})")
            }
            EventData::BlockEvicted { id, eip, bundles } => write!(
                f,
                "evict        block {id} @ {eip:#x} ({bundles} bundles freed)"
            ),
            EventData::Blacklisted { eip, until } => {
                write!(f, "blacklist    {eip:#x} until cycle {until}")
            }
            EventData::TraceSelected { id, eip, steps } => {
                write!(f, "trace-select block {id} @ {eip:#x} ({steps} steps)")
            }
            EventData::CommitPointTaken { id, recovery } => {
                write!(f, "commit-taken block {id} (recovery {recovery})")
            }
            EventData::FaultInjected { kind } => write!(f, "fault        {}", kind.name()),
            EventData::LadderRung { rung, eip } => {
                write!(f, "ladder       {} @ {eip:#x}", rung.name())
            }
            EventData::InterpFallback { eip } => write!(f, "interp       @ {eip:#x}"),
            EventData::IndirectRetrain { eip, site } => {
                write!(f, "ind-retrain  -> {eip:#x} (site {site:#x})")
            }
            EventData::IndirectDemote { eip, id } => {
                write!(f, "ind-demote   block {id} @ {eip:#x}")
            }
            EventData::SignalDelivered { eip, handler } => {
                write!(f, "signal       @ {eip:#x} -> handler {handler:#x}")
            }
            EventData::SmcBlacklist { eip, strikes } => {
                write!(f, "smc-blacklist @ {eip:#x} (strike {strikes})")
            }
            EventData::PhaseEnter { phase } => write!(f, "phase-enter  {}", phase.name()),
            EventData::PhaseExit { phase, cycles } => {
                write!(f, "phase-exit   {} ({cycles} cy)", phase.name())
            }
        }
    }
}

/// An open phase span; close it with [`Tracer::phase_exit`].
///
/// Token-based rather than RAII because the closing timestamp must come
/// from the machine's cycle clock, which the tracer does not own.
#[must_use = "close the span with Tracer::phase_exit"]
#[derive(Debug)]
pub struct SpanToken {
    phase: Phase,
    start: u64,
}

/// Aggregated per-block profile, keyed by guest EIP so it survives
/// retranslation and eviction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockProfile {
    /// Guest entry EIP.
    pub eip: u32,
    /// Dispatch-loop entries targeting this EIP.
    pub dispatches: u64,
    /// Cycles executed in cold translated code while this EIP was the
    /// dispatch target (chained successors are attributed to the
    /// dispatch target — see `Engine::run`).
    pub cold_cycles: u64,
    /// Cycles executed in hot translated code while this EIP was the
    /// dispatch target.
    pub hot_cycles: u64,
    /// Cycles spent single-stepping this EIP in the safety net.
    pub interp_cycles: u64,
    /// Single-stepped instructions at this EIP.
    pub interp_steps: u64,
    /// Cold (re)translations of this EIP.
    pub translations: u64,
    /// Promotions to hot.
    pub promotions: u64,
    /// Demotions back to cold.
    pub demotions: u64,
    /// Evictions from the cache.
    pub evictions: u64,
}

impl BlockProfile {
    /// Total execution cycles attributed to this block (cold + hot +
    /// interp).
    pub fn total_cycles(&self) -> u64 {
        self.cold_cycles + self.hot_cycles + self.interp_cycles
    }
}

/// The per-block profile table (keyed by guest EIP).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileTable {
    map: HashMap<u32, BlockProfile>,
}

impl ProfileTable {
    /// The profile for `eip`, if any activity was recorded.
    pub fn get(&self, eip: u32) -> Option<&BlockProfile> {
        self.map.get(&eip)
    }

    /// Number of profiled EIPs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All profiles in deterministic order (EIP ascending).
    pub fn iter_sorted(&self) -> Vec<&BlockProfile> {
        let mut v: Vec<&BlockProfile> = self.map.values().collect();
        v.sort_unstable_by_key(|p| p.eip);
        v
    }

    /// The `n` hottest profiles by attributed cycles (descending; ties
    /// broken by EIP ascending, so the order is deterministic).
    pub fn top_by_cycles(&self, n: usize) -> Vec<&BlockProfile> {
        let mut v: Vec<&BlockProfile> = self.map.values().collect();
        v.sort_unstable_by(|a, b| {
            b.total_cycles()
                .cmp(&a.total_cycles())
                .then(a.eip.cmp(&b.eip))
        });
        v.truncate(n);
        v
    }

    fn entry(&mut self, eip: u32) -> &mut BlockProfile {
        self.map.entry(eip).or_insert_with(|| BlockProfile {
            eip,
            ..BlockProfile::default()
        })
    }
}

/// The flight recorder: a fixed-capacity ring of [`TraceEvent`]s plus
/// the [`ProfileTable`], owned by the engine and fed at lifecycle
/// boundaries.
#[derive(Clone, Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    ring: Vec<TraceEvent>,
    /// Next write position once the ring is full.
    head: usize,
    /// Mask-passing events offered (recorded + sampled-out + dropped).
    seen: u64,
    /// Events overwritten by ring wraparound.
    dropped: u64,
    /// Mask-passing events skipped by the sampling stride.
    sampled_out: u64,
    /// Events observed per kind, before mask/stride filtering.
    observed: [u64; NUM_EVENT_KINDS],
    profiles: ProfileTable,
}

impl Tracer {
    /// A tracer over the given config (capacity is clamped to ≥ 1 so a
    /// misconfigured zero-capacity ring still records the latest event).
    pub fn new(cfg: TraceConfig) -> Tracer {
        let cfg = TraceConfig {
            capacity: cfg.capacity.max(1),
            sample_stride: cfg.sample_stride.max(1),
            ..cfg
        };
        Tracer {
            cfg,
            ring: Vec::new(),
            head: 0,
            seen: 0,
            dropped: 0,
            sampled_out: 0,
            observed: [0; NUM_EVENT_KINDS],
            profiles: ProfileTable::default(),
        }
    }

    /// The effective config (after clamping).
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Offers one event at simulated time `cycle`. Returns true when
    /// the event was recorded into the ring (the engine charges
    /// [`TraceConfig::event_cycles`] exactly then).
    ///
    /// Filtering is deterministic: the per-kind counter always ticks;
    /// the mask drops unobserved kinds for free; the sampling stride
    /// keeps every `stride`-th mask-passing event.
    pub fn offer(&mut self, cycle: u64, data: EventData) -> bool {
        let kind = data.kind();
        self.observed[kind as usize] += 1;
        if !self.cfg.event_mask.contains(kind) {
            return false;
        }
        let seq = self.seen;
        self.seen += 1;
        if !seq.is_multiple_of(self.cfg.sample_stride) {
            self.sampled_out += 1;
            return false;
        }
        let ev = TraceEvent { cycle, seq, data };
        if self.ring.len() < self.cfg.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.cfg.capacity;
            self.dropped += 1;
        }
        true
    }

    /// Opens a phase span (and offers a [`EventData::PhaseEnter`]
    /// event). Close with [`Tracer::phase_exit`]. The second return is
    /// whether the enter event was recorded (the caller charges its
    /// cost exactly then).
    pub fn phase_enter(&mut self, now: u64, phase: Phase) -> (SpanToken, bool) {
        let recorded = self.offer(now, EventData::PhaseEnter { phase });
        (SpanToken { phase, start: now }, recorded)
    }

    /// Closes a phase span, offering a [`EventData::PhaseExit`] event
    /// carrying the span's simulated duration. Returns whether the exit
    /// event was recorded.
    pub fn phase_exit(&mut self, now: u64, token: SpanToken) -> bool {
        self.offer(
            now,
            EventData::PhaseExit {
                phase: token.phase,
                cycles: now.saturating_sub(token.start),
            },
        )
    }

    /// Recorded events, oldest first (ring order restored).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Number of events currently held in the ring.
    pub fn recorded(&self) -> usize {
        self.ring.len()
    }

    /// Mask-passing events offered so far (recorded + dropped +
    /// sampled out).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events lost to ring wraparound (the drop counter).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Mask-passing events skipped by the sampling stride.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Events observed for `kind`, before mask/stride filtering.
    pub fn observed(&self, kind: EventKind) -> u64 {
        self.observed[kind as usize]
    }

    /// The per-block profile table.
    pub fn profiles(&self) -> &ProfileTable {
        &self.profiles
    }

    // ---- profile feeders (engine-side) -------------------------------

    /// Counts one dispatch-loop entry targeting `eip`.
    pub fn profile_dispatch(&mut self, eip: u32) {
        self.profiles.entry(eip).dispatches += 1;
    }

    /// Attributes executed cycles to `eip` (the current dispatch
    /// target), split into cold- and hot-region cycles.
    pub fn profile_exec(&mut self, eip: u32, cold_cycles: u64, hot_cycles: u64) {
        let p = self.profiles.entry(eip);
        p.cold_cycles += cold_cycles;
        p.hot_cycles += hot_cycles;
    }

    /// Attributes one single-stepped instruction at `eip`.
    pub fn profile_interp(&mut self, eip: u32, cycles: u64) {
        let p = self.profiles.entry(eip);
        p.interp_steps += 1;
        p.interp_cycles += cycles;
    }

    /// Counts one lifecycle transition for `eip` (called alongside the
    /// matching ring event).
    pub fn profile_lifecycle(&mut self, eip: u32, kind: EventKind) {
        let p = self.profiles.entry(eip);
        match kind {
            EventKind::BlockTranslated => p.translations += 1,
            EventKind::BlockPromoted => p.promotions += 1,
            EventKind::BlockDemoted => p.demotions += 1,
            EventKind::BlockEvicted => p.evictions += 1,
            _ => {}
        }
    }

    // ---- reporting surfaces ------------------------------------------

    /// Renders every recorded event, one per line, oldest first. The
    /// output is **byte-identical** across runs with the same seed,
    /// workload, and config (the determinism contract).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            let _ = writeln!(out, "{ev}");
        }
        out
    }

    /// One-line counters summary.
    pub fn summary(&self) -> String {
        let mut kinds = String::new();
        for k in EventKind::ALL {
            let n = self.observed(k);
            if n > 0 {
                if !kinds.is_empty() {
                    kinds.push_str(", ");
                }
                let _ = write!(kinds, "{} {}", k.name(), n);
            }
        }
        format!(
            "trace: {} recorded ({} seen, {} dropped, {} sampled out), {} profiled blocks [{}]",
            self.recorded(),
            self.seen(),
            self.dropped(),
            self.sampled_out(),
            self.profiles.len(),
            kinds
        )
    }

    /// Renders the profile table in the **collapsed-stack** ("folded")
    /// format consumed by standard flamegraph tooling: one line per
    /// stack, `frame;frame;frame count`, where the count is attributed
    /// simulated cycles.
    ///
    /// Stacks have three frames: the engine root, the execution tier
    /// (`cold` / `hot` / `interp`), and the block's guest EIP.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for p in self.profiles.iter_sorted() {
            if p.cold_cycles > 0 {
                let _ = writeln!(out, "el;cold;block_{:#010x} {}", p.eip, p.cold_cycles);
            }
            if p.hot_cycles > 0 {
                let _ = writeln!(out, "el;hot;block_{:#010x} {}", p.eip, p.hot_cycles);
            }
            if p.interp_cycles > 0 {
                let _ = writeln!(out, "el;interp;block_{:#010x} {}", p.eip, p.interp_cycles);
            }
        }
        out
    }

    /// Renders a top-`n` hot-path table (by attributed cycles) as
    /// aligned text.
    pub fn hot_path_table(&self, n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12} {:>12} {:>10} {:>5} {:>5} {:>5} {:>5}",
            "block", "dispatch", "cold cy", "hot cy", "interp cy", "xlat", "promo", "demo", "evict"
        );
        for p in self.profiles.top_by_cycles(n) {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>12} {:>12} {:>10} {:>5} {:>5} {:>5} {:>5}",
                format!("{:#010x}", p.eip),
                p.dispatches,
                p.cold_cycles,
                p.hot_cycles,
                p.interp_cycles,
                p.translations,
                p.promotions,
                p.demotions,
                p.evictions
            );
        }
        out
    }

    /// Exports the recorded events as `chrome://tracing` / Perfetto
    /// JSON (the "trace event format"): phase spans become `B`/`E`
    /// duration events, everything else an instant event, with the
    /// simulated cycle as the microsecond timestamp.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for ev in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            let (name, ph, args) = match ev.data {
                EventData::PhaseEnter { phase } => (phase.name().to_owned(), "B", String::new()),
                EventData::PhaseExit { phase, cycles } => {
                    (phase.name().to_owned(), "E", format!("\"cycles\":{cycles}"))
                }
                EventData::BlockTranslated { id, eip, .. } => (
                    format!("translate {eip:#x}"),
                    "i",
                    format!("\"block\":{id},\"eip\":{eip}"),
                ),
                EventData::BlockPromoted { id, eip, .. } => (
                    format!("promote {eip:#x}"),
                    "i",
                    format!("\"block\":{id},\"eip\":{eip}"),
                ),
                EventData::BlockDemoted { id, eip, strikes } => (
                    format!("demote {eip:#x}"),
                    "i",
                    format!("\"block\":{id},\"eip\":{eip},\"strikes\":{strikes}"),
                ),
                EventData::BlockEvicted { id, eip, bundles } => (
                    format!("evict {eip:#x}"),
                    "i",
                    format!("\"block\":{id},\"eip\":{eip},\"bundles\":{bundles}"),
                ),
                EventData::Blacklisted { eip, until } => (
                    format!("blacklist {eip:#x}"),
                    "i",
                    format!("\"eip\":{eip},\"until\":{until}"),
                ),
                EventData::TraceSelected { id, eip, steps } => (
                    format!("trace-select {eip:#x}"),
                    "i",
                    format!("\"block\":{id},\"eip\":{eip},\"steps\":{steps}"),
                ),
                EventData::CommitPointTaken { id, recovery } => (
                    "commit-taken".to_owned(),
                    "i",
                    format!("\"block\":{id},\"recovery\":{recovery}"),
                ),
                EventData::FaultInjected { kind } => {
                    (format!("fault {}", kind.name()), "i", String::new())
                }
                EventData::LadderRung { rung, eip } => (
                    format!("ladder {}", rung.name()),
                    "i",
                    format!("\"eip\":{eip}"),
                ),
                EventData::InterpFallback { eip } => {
                    (format!("interp {eip:#x}"), "i", format!("\"eip\":{eip}"))
                }
                EventData::IndirectRetrain { eip, site } => (
                    format!("ind-retrain {eip:#x}"),
                    "i",
                    format!("\"eip\":{eip},\"site\":{site}"),
                ),
                EventData::IndirectDemote { eip, id } => (
                    format!("ind-demote {eip:#x}"),
                    "i",
                    format!("\"eip\":{eip},\"id\":{id}"),
                ),
                EventData::SignalDelivered { eip, handler } => (
                    format!("signal {eip:#x}"),
                    "i",
                    format!("\"eip\":{eip},\"handler\":{handler}"),
                ),
                EventData::SmcBlacklist { eip, strikes } => (
                    format!("smc-blacklist {eip:#x}"),
                    "i",
                    format!("\"eip\":{eip},\"strikes\":{strikes}"),
                ),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":1",
                ev.cycle
            );
            if ph == "i" {
                out.push_str(",\"s\":\"t\"");
            }
            if !args.is_empty() {
                let _ = write!(out, ",\"args\":{{{args}}}");
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(eip: u32) -> EventData {
        EventData::InterpFallback { eip }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = Tracer::new(TraceConfig {
            enabled: true,
            capacity: 4,
            ..TraceConfig::default()
        });
        for i in 0..10u32 {
            assert!(t.offer(i as u64 * 100, ev(i)));
        }
        assert_eq!(t.recorded(), 4);
        assert_eq!(t.seen(), 10);
        assert_eq!(t.dropped(), 6);
        // Ring holds the most recent 4, oldest first.
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![600, 700, 800, 900]);
    }

    #[test]
    fn mask_filters_for_free() {
        let mut t = Tracer::new(TraceConfig {
            enabled: true,
            event_mask: EventMask::NONE.with(EventKind::BlockEvicted),
            ..TraceConfig::default()
        });
        assert!(!t.offer(1, ev(0x1000)));
        assert!(t.offer(
            2,
            EventData::BlockEvicted {
                id: 0,
                eip: 0x1000,
                bundles: 3
            }
        ));
        assert_eq!(t.seen(), 1, "masked-out events are not seen");
        assert_eq!(t.observed(EventKind::InterpFallback), 1, "but observed");
        assert_eq!(t.recorded(), 1);
    }

    #[test]
    fn stride_samples_deterministically() {
        let mut t = Tracer::new(TraceConfig {
            enabled: true,
            sample_stride: 3,
            ..TraceConfig::default()
        });
        let recorded: Vec<bool> = (0..9).map(|i| t.offer(i, ev(i as u32))).collect();
        assert_eq!(
            recorded,
            vec![true, false, false, true, false, false, true, false, false]
        );
        assert_eq!(t.sampled_out(), 6);
        assert_eq!(t.seen(), 9);
    }

    #[test]
    fn span_duration_is_cycle_delta() {
        let mut t = Tracer::new(TraceConfig::on());
        let (sp, recorded) = t.phase_enter(100, Phase::ColdTranslate);
        assert!(recorded);
        t.phase_exit(350, sp);
        let evs: Vec<&TraceEvent> = t.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[1].data,
            EventData::PhaseExit {
                phase: Phase::ColdTranslate,
                cycles: 250
            }
        );
    }

    #[test]
    fn top_by_cycles_is_deterministic() {
        let mut t = Tracer::new(TraceConfig::on());
        t.profile_exec(0x2000, 50, 0);
        t.profile_exec(0x1000, 50, 0);
        t.profile_exec(0x3000, 500, 100);
        let top = t.profiles().top_by_cycles(2);
        assert_eq!(top[0].eip, 0x3000);
        assert_eq!(top[1].eip, 0x1000, "ties break by EIP ascending");
    }

    #[test]
    fn chrome_json_is_wellformed_ish() {
        let mut t = Tracer::new(TraceConfig::on());
        let (sp, _) = t.phase_enter(10, Phase::HotSession);
        t.offer(
            20,
            EventData::FaultInjected {
                kind: FaultKind::BitFlip,
            },
        );
        t.phase_exit(30, sp);
        let j = t.chrome_trace_json();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.ends_with("]}"));
        assert_eq!(j.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(j.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(j.matches("\"ph\":\"i\"").count(), 1);
    }
}
