//! The engine's fixed policy thresholds: when a trace is long enough,
//! when a profile is trusted, when a misbehaving block or page is
//! demoted, and how far recovery may nest. Every checked-in figure was
//! measured under these values and nothing varies them, so they are
//! constants, not knobs.

/// Maximum IA-32 instructions in a hot trace (paper: ~20).
pub const MAX_TRACE_INSTS: usize = 24;

/// Misalignment faults tolerated in a hot block before it is discarded
/// and regenerated with avoidance.
pub const HOT_MISALIGN_TOLERANCE: u32 = 8;

/// Inline-cache hit count at which a site is considered stable enough
/// for hot-trace devirtualization.
pub const DEVIRT_THRESHOLD: u64 = 16;

/// Executions after which a block whose inline cache hit on fewer than
/// half of them is declared megamorphic and demoted to the plain table
/// probe (checked when its promotion fails).
pub const MEGAMORPHIC_DEMOTE_USES: u64 = 32;

/// Shadow-stack pop misses (dispatcher round-trips) tolerated per ret
/// block before it is demoted to the plain table probe.
pub const SHADOW_DEMOTE_MISSES: u32 = 8;

/// Degradation-ladder failures tolerated per block before it is demoted
/// (hot) or evicted (cold) and its EIP blacklisted.
pub const BLOCK_FAILURE_CAP: u32 = 3;

/// Speculation (NaT-consumption) failures tolerated in a hot trace
/// before its retries are exhausted and it is rebuilt with inline
/// checks.
pub const SPEC_RETRY_CAP: u32 = 32;

/// Native-instruction quantum used while asynchronous signals are
/// pending: the machine runs at most this many slots before the engine
/// re-checks the signal queue. Has no effect (and no cost) when the OS
/// layer reports no pending signals.
pub const SIGNAL_QUANTUM: u64 = 4096;

/// Single-step budget for hunting the next recovery-mapped commit point
/// after a quantum expires inside a hot trace. Exhausting it defers
/// delivery to the next dispatch boundary.
pub const SIGNAL_STEP_CAP: u32 = 512;

/// Sliding window (simulated cycles) for the SMC-thrash counter (see
/// `Config::smc_thrash_threshold`).
pub const SMC_THRASH_WINDOW: u64 = 250_000;

/// Base un-blacklist backoff (simulated cycles) for an SMC-thrashed
/// page; doubles per strike like the block blacklist.
pub const SMC_BACKOFF_CYCLES: u64 = 150_000;

/// Hard floor for re-entrant recovery: when failures nest this deep (an
/// `EngineError` raised while already recovering), the ladder stops
/// retrying/demoting and single-steps through the interpreter instead.
pub const MAX_RECOVERY_DEPTH: u32 = 3;
