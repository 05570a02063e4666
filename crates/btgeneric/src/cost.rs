//! The engine's synthetic charges, in simulated Itanium cycles: what
//! translating, dispatching, fixing up and recovering cost on top of
//! the cycles the machine model spends running translated code. They
//! calibrate the time-distribution figures (paper Figures 6/7) and are
//! part of every checked-in number, so they are constants, not knobs.

/// Synthetic translation cost charged per IA-32 instruction of cold
/// translation.
pub const COLD_XLATE_CYCLES: u64 = 120;

/// Hot translation costs this factor more per instruction (paper:
/// "about 20 times more").
pub const HOT_XLATE_FACTOR: u64 = 20;

/// Engine dispatch round-trip cost when the target must be translated
/// or looked up the slow way.
pub const DISPATCH_CYCLES: u64 = 60;

/// Dispatch round-trip cost when the target block is already
/// translated (registry hit, no translation, minimal state
/// spill/fill): the chained-dispatch fast path.
pub const DISPATCH_FAST_CYCLES: u64 = 18;

/// OS-handled misalignment fault cost (paper: "on the order of
/// several thousand cycles").
pub const MISALIGN_FAULT_CYCLES: u64 = 2500;

/// Engine-side speculation fix-up cost.
pub const FIX_CYCLES: u64 = 120;

/// Cost of single-stepping one instruction in the engine.
pub const INTERP_STEP_CYCLES: u64 = 150;

/// Cost of one `Config::verify_on_dispatch` checksum check.
pub const INTEGRITY_CHECK_CYCLES: u64 = 35;

/// Cost of validating and installing one block from a warm-start image
/// or a shared namespace (replaces the per-instruction
/// [`COLD_XLATE_CYCLES`] charge — the whole point of warm start).
pub const IMAGE_LOAD_CYCLES: u64 = 30;

/// Cost of delivering one asynchronous signal (frame push + state
/// spill).
pub const SIGNAL_DELIVER_CYCLES: u64 = 400;
