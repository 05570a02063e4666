//! Hot-code translation (paper §2, Figure 2 right side): trace
//! selection over the profile counters, IL generation from the shared
//! templates, IA-32-specific optimizations, dependency-graph scheduling
//! with renaming and commit points, and recovery maps for precise
//! exceptions.
//!
//! Selected traces compile through one pipeline: a typed IR (`ir`),
//! the optimization passes (`opt`: guest-state forwarding, the
//! demanded-bits bypass, value numbering, one dead-code pass over
//! virtuals and the guest-state homes), per-op virtual-register
//! liveness (`liveness`), constraint-driven register allocation with
//! spilling (`regalloc`), and a backend scheduling pass over the
//! allocated code (`sched`). A trace the pipeline cannot compile is not
//! installed — the block stays cold.

mod commit;
#[cfg(any(test, debug_assertions))]
pub(crate) mod eval;
mod ir;
mod liveness;
mod opt;
mod regalloc;
mod sched;
mod trace;

pub use commit::HotData;

use crate::engine::Engine;

/// Promotes a heated block into a hot trace. On any internal limitation
/// the block simply stays cold (correctness is never at stake). Returns
/// whether a trace was actually installed — the engine uses a failed
/// promotion as the checkpoint for megamorphic-site demotion.
pub fn promote(engine: &mut Engine, block_id: u32) -> bool {
    trace::promote(engine, block_id)
}

/// Test hook: from now on, a debug build of this thread's hot compiler
/// runs every trace before and after each of guest-state forwarding,
/// the demanded-bits bypass, value numbering and dead-code elimination
/// on the reference evaluator and panics, naming the pass, unless
/// registers, stores and exit states agree. Returns how many traces it
/// has checked so far (always 0 in a release build, which has no
/// evaluator).
#[doc(hidden)]
pub fn validate_passes() -> u64 {
    #[cfg(debug_assertions)]
    return eval::validate_from_now_on();
    #[cfg(not(debug_assertions))]
    0
}
