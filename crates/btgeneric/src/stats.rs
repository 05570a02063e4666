//! Execution and translation statistics — the counters behind the
//! paper's Figures 6/7 (time distribution) and the in-text numbers
//! (heating rate, block sizes, speculation success, commit density).

use crate::layout::region;
use std::collections::HashMap;

/// Aggregated statistics for one engine run.
///
/// `PartialEq`/`Eq` back the fault-injection determinism test: two runs
/// of the same workload under the same `FaultPlan` seed must produce
/// identical counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Cold blocks translated (all versions).
    pub cold_blocks: u64,
    /// IA-32 instructions covered by cold translation.
    pub cold_ia32_insts: u64,
    /// Native instructions emitted by cold translation.
    pub cold_native_insts: u64,
    /// Hot traces generated.
    pub hot_traces: u64,
    /// Hot traces compiled through the typed-IR pipeline. It is the only
    /// hot compiler, so this always equals `hot_traces`; the counter
    /// stays because `benchmark/` reads it.
    pub hot_ir_traces: u64,
    /// IA-32 instructions covered by hot traces.
    pub hot_ia32_insts: u64,
    /// Native instructions emitted by hot translation.
    pub hot_native_insts: u64,
    /// Commit points recorded in hot code.
    pub hot_commit_points: u64,
    /// Conditional side exits taken from hot traces (premature exits),
    /// tapped on their exit blocks. Devirtualization-guard failures are
    /// `devirt_guard_fails`.
    pub hot_side_exits: u64,
    /// Hot trace runs that reached the branch closing the trace (the
    /// loop's back edge or the main exit's branch); a run of a trace
    /// ending in an inline dispatch is not counted.
    pub hot_trace_ends: u64,
    /// Heating-threshold triggers.
    pub heat_events: u64,
    /// Indirect-branch lookup misses handled.
    pub indirect_misses: u64,
    /// Inline-cache hits across all indirect jmp/call sites (summed
    /// from the per-site hit counters by `collect_indirect_stats`).
    pub ic_hits: u64,
    /// Inline-cache misses (site fell through to the shared table).
    pub ic_misses: u64,
    /// Inline-cache retrains performed by the dispatcher (a missing
    /// site was repointed at its newest observed target).
    pub ic_retrains: u64,
    /// Return-address shadow-stack hits (`ret` branched straight to the
    /// predicted translated entry).
    pub shadow_hits: u64,
    /// Shadow-stack pops that found an empty slot (ring wrapped, entry
    /// consumed, or prediction not yet seeded).
    pub shadow_underflows: u64,
    /// Shadow-stack pops whose recorded return EIP did not match the
    /// actual one (stack switch, `ret` to a different frame, hot-trace
    /// call folding).
    pub shadow_mispredicts: u64,
    /// Lookup-table inserts into a set already holding a live foreign
    /// key (table-pressure signal).
    pub lookup_collisions: u64,
    /// Lookup-table inserts that displaced a live entry because every
    /// way of the set was taken.
    pub lookup_way_conflicts: u64,
    /// Hot-trace devirtualization guards that failed (side exit back
    /// through the retrain path).
    pub devirt_guard_fails: u64,
    /// Blocks demoted to the plain table probe because their inline
    /// cache proved megamorphic or their shadow pops kept missing.
    pub indirect_demotions: u64,
    /// Misalignment probes that fired (stage 1 -> stage 2 regens).
    pub misalign_retrains: u64,
    /// OS-handled misalignment faults taken.
    pub misalign_faults: u64,
    /// Self-modifying-code events.
    pub smc_events: u64,
    /// FP TOS speculation fixes.
    pub tos_fixes: u64,
    /// FP tag speculation failures (block rebuilds).
    pub tag_fixes: u64,
    /// FP/MMX mode fixes.
    pub mmx_fixes: u64,
    /// XMM format fixes (engine side).
    pub xmm_fixes: u64,
    /// Single-stepped instructions (escape hatch).
    pub interp_steps: u64,
    /// System calls serviced.
    pub syscalls: u64,
    /// Guest exceptions delivered or terminated on.
    pub exceptions: u64,
    /// Hot-code deoptimizations (chk.s failures).
    pub deopts: u64,
    /// Full translation-cache flushes. With incremental eviction
    /// enabled this is the emergency fallback only (nothing evictable
    /// under pressure); with eviction disabled it is the paper's
    /// wholesale garbage collection.
    pub cache_flushes: u64,
    /// Blocks evicted individually from the translation cache under
    /// capacity pressure (incremental, generation-aware eviction).
    pub evictions: u64,
    /// Bundles reclaimed to the arena free list by those evictions
    /// (all generations of each victim).
    pub evicted_bundles: u64,
    /// Chained direct branches un-linked on eviction: patched
    /// block-to-block branches re-pointed at the Untranslated stub so
    /// no live code targets a reclaimed extent.
    pub chain_unlinks: u64,
    /// Indirect-branch lookup-table entries surgically purged on
    /// eviction (instead of clearing the whole table).
    pub lookup_purges: u64,
    /// Dispatch-loop entries that hit an already-translated block (the
    /// fast path: no translation, reduced round-trip charge).
    pub dispatch_fast_hits: u64,
    /// Hot traces demoted back to cold by the degradation ladder
    /// (repeated faults, failed speculation, corruption).
    pub demotions: u64,
    /// Heat events suppressed because the block's EIP was blacklisted
    /// from re-promotion (backoff not yet expired).
    pub blacklist_hits: u64,
    /// Blocks whose speculation-failure retries ran out: demoted and
    /// rebuilt without the speculative assumptions.
    pub spec_retry_exhaustions: u64,
    /// Translation attempts that fell back to the `InterpStep` safety
    /// net (organic generation failure or injected translate fault).
    pub interp_fallbacks: u64,
    /// Installed extents evicted because verify-on-dispatch caught a
    /// checksum mismatch (corrupted cache line).
    pub integrity_evictions: u64,
    /// Hot optimization sessions aborted by the cycle-budget watchdog
    /// (cold code kept).
    pub watchdog_aborts: u64,
    /// Failures (injected or organic) recovered by walking the
    /// degradation ladder instead of dying.
    pub ladder_recoveries: u64,
    /// Translator-side allocation requests the OS refused (ENOMEM);
    /// the engine degraded (shared overflow profile slot) instead of
    /// aborting.
    pub os_alloc_failures: u64,
    /// Faults delivered by an attached `FaultPlan` (engine-side kinds).
    pub faults_injected: u64,
    /// Cycles charged to single-stepped instructions (the `InterpStep`
    /// safety net), so fallback time reconciles against total cycles.
    pub interp_cycles: u64,
    /// Asynchronous signals delivered to the guest handler (at a
    /// dispatch boundary or a mid-trace commit point).
    pub signals_delivered: u64,
    /// Translations orphaned by an SMC write because their source
    /// bytes actually changed (or they were hot traces, invalidated
    /// conservatively).
    pub smc_extent_orphans: u64,
    /// Translations on an SMC-written page whose source bytes were
    /// untouched and which therefore survived (per-extent invalidation
    /// paying off).
    pub smc_extent_keeps: u64,
    /// Blocks made interpret-only by the SMC-thrash governor (one per
    /// strike of a block).
    pub smc_blacklists: u64,
    /// Dispatches served by the interpreter because the target block
    /// is SMC-blacklisted (each is one guest instruction).
    pub smc_interp_blocks: u64,
    /// Recoveries entered while another recovery was already on the
    /// stack (the re-entrant descent of the ladder).
    pub reentrant_recoveries: u64,
    /// Deepest nested-recovery depth observed.
    pub recovery_depth_max: u64,
    /// Blocks materialized from a warm-start image (image hits).
    pub image_blocks_loaded: u64,
    /// Image records rejected individually — stale source checksum,
    /// corrupted record, or no cache room (each degrades to on-demand
    /// translation of just that extent).
    pub image_blocks_rejected: u64,
    /// Warm-start images rejected wholesale: unreadable file, bad
    /// magic/version, corrupted header, or config/layout fingerprint
    /// mismatch.
    pub image_rejects: u64,
    /// Warm-start images written on clean exit.
    pub image_saves: u64,
    /// Blocks serialized into saved images.
    pub image_blocks_saved: u64,
    /// Blocks whose persisted profile heat / edge counters were written
    /// back into live profile slots (warm-start image load or shared
    /// namespace import) — the re-heat-without-re-profiling counter.
    pub profile_heat_restored: u64,
    /// Inline-cache sites re-trained from a persisted monomorphic
    /// target hint (second-pass restore after all records installed).
    pub profile_ic_restored: u64,
    /// Blocks materialized from the shared multi-tenant namespace
    /// instead of being cold-translated locally (flat
    /// [`crate::cost::IMAGE_LOAD_CYCLES`] charge each — the dedup win).
    pub shared_installs: u64,
    /// Translations this tenant published to the shared namespace.
    pub shared_publishes: u64,
    /// Records this tenant pulled from the shared namespace (eviction,
    /// ladder strike, SMC page invalidation, governor blacklist, cache
    /// flush).
    pub shared_pulls: u64,
    /// Shared-namespace consults refused because the EIP's page is
    /// denied (a peer's SMC-thrash governor blacklisted it). The name
    /// is older than the meaning: the frozen `benchmark/` sums it.
    pub shared_gen_rejects: u64,
    /// Shared-namespace hits rejected by the source-checksum gate (the
    /// record does not match this tenant's guest bytes) or whose
    /// regeneration failed.
    pub shared_stale_rejects: u64,
    /// Always zero: the shared namespace is one single-owner map, but
    /// the frozen `benchmark/` still reads this. It goes when the
    /// benchmark drops it with the `superinst_*` fields below.
    pub shared_lock_contention: u64,
    /// Always zero: the learned-superinstruction subsystem is gone, but
    /// the frozen `benchmark/` still reads these three. The next
    /// `[benchmark]` PR drops them with its `superinst.*` rows.
    pub superinst_hits: u64,
    /// Always zero — see [`Stats::superinst_hits`].
    pub superinst_fused_slots: u64,
    /// Always zero — see [`Stats::superinst_hits`].
    pub superinst_eligible_slots: u64,
    /// Dispatch-latency histogram: cycles from a dispatch boundary to
    /// the resolved translated entry, including any translation work on
    /// a miss.
    pub dispatch_hist: DispatchHist,
}

/// Fixed-bucket dispatch-latency histogram: bucket `i` counts
/// dispatches whose boundary-to-entry latency was in
/// `[2^i, 2^(i+1))` cycles (bucket 0 additionally holds 0- and 1-cycle
/// dispatches; the last bucket is open-ended). Powers of two cover the
/// whole observed range — 18-cycle fast-path hits to multi-thousand
/// cold translations — in 16 buckets with no allocation, keeping
/// `Stats` cheap to clone and `Eq`-comparable for the determinism
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchHist {
    /// Per-bucket dispatch counts.
    pub buckets: [u64; DispatchHist::BUCKETS],
}

impl Default for DispatchHist {
    fn default() -> DispatchHist {
        DispatchHist {
            buckets: [0; DispatchHist::BUCKETS],
        }
    }
}

impl DispatchHist {
    /// Number of fixed buckets.
    pub const BUCKETS: usize = 16;

    /// Records one dispatch that took `cycles` from boundary to entry.
    pub fn record(&mut self, cycles: u64) {
        let b = (63 - cycles.max(1).leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[b] += 1;
    }

    /// Total dispatches recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The given percentile (e.g. `50.0`, `99.0`) as an upper-bound
    /// latency in cycles: the exclusive upper edge of the bucket
    /// holding that rank (`2^(i+1)`). Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << Self::BUCKETS
    }

    /// Merges another histogram into this one (bucket-wise sum) — how
    /// the serving bench aggregates per-session histograms.
    pub fn merge(&mut self, other: &DispatchHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl Stats {
    /// One-line cache-management summary (evictions vs. flushes) for
    /// bench/figures output.
    pub fn cache_summary(&self) -> String {
        format!(
            "evictions {} ({} bundles), unlinks {}, lookup purges {}, \
             lookup collisions {}, flushes {}, fast dispatches {}",
            self.evictions,
            self.evicted_bundles,
            self.chain_unlinks,
            self.lookup_purges,
            self.lookup_collisions,
            self.cache_flushes,
            self.dispatch_fast_hits
        )
    }

    /// One-line indirect control-transfer summary (inline caches,
    /// shadow stack, table pressure, devirtualization) for
    /// bench/figures output.
    pub fn indirect_summary(&self) -> String {
        format!(
            "indirect misses {}, ic {}/{}/{} (hit/miss/retrain), \
             shadow {}/{}/{} (hit/underflow/mispredict), \
             way conflicts {}, devirt guard fails {}, demotions {}",
            self.indirect_misses,
            self.ic_hits,
            self.ic_misses,
            self.ic_retrains,
            self.shadow_hits,
            self.shadow_underflows,
            self.shadow_mispredicts,
            self.lookup_way_conflicts,
            self.devirt_guard_fails,
            self.indirect_demotions
        )
    }

    /// One-line robustness summary (degradation-ladder activity) for
    /// bench/figures output.
    pub fn chaos_summary(&self) -> String {
        format!(
            "injected {}, recoveries {}, demotions {}, blacklist hits {}, \
             spec exhaustions {}, interp fallbacks {}, integrity evictions {}, \
             watchdog aborts {}, os alloc fails {}",
            self.faults_injected,
            self.ladder_recoveries,
            self.demotions,
            self.blacklist_hits,
            self.spec_retry_exhaustions,
            self.interp_fallbacks,
            self.integrity_evictions,
            self.watchdog_aborts,
            self.os_alloc_failures
        )
    }

    /// One-line hostile-guest summary (async signals, per-extent SMC,
    /// re-entrant recovery) for bench/figures output.
    pub fn hostile_summary(&self) -> String {
        format!(
            "signals {}, smc orphans/keeps {}/{}, smc blacklists {}, \
             interp-only dispatches {}, reentrant recoveries {} (max depth {})",
            self.signals_delivered,
            self.smc_extent_orphans,
            self.smc_extent_keeps,
            self.smc_blacklists,
            self.smc_interp_blocks,
            self.reentrant_recoveries,
            self.recovery_depth_max
        )
    }
}

/// A cycle breakdown in the paper's Figure 6/7 categories.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeDistribution {
    /// Cycles in hot translated code.
    pub hot: u64,
    /// Cycles in cold translated code.
    pub cold: u64,
    /// Translation overhead cycles.
    pub overhead: u64,
    /// Dispatch, fix-ups, emulation ("other").
    pub other: u64,
    /// Natively executed (kernel/driver) cycles.
    pub native: u64,
    /// Idle cycles.
    pub idle: u64,
}

impl TimeDistribution {
    /// Builds the distribution from a machine's per-region cycles.
    pub fn from_region_cycles(rc: &HashMap<u32, u64>) -> TimeDistribution {
        let g = |r: u32| rc.get(&r).copied().unwrap_or(0);
        TimeDistribution {
            hot: g(region::HOT),
            cold: g(region::COLD),
            overhead: g(region::OVERHEAD),
            other: g(region::OTHER),
            native: g(region::NATIVE),
            idle: g(region::IDLE),
        }
    }

    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.hot + self.cold + self.overhead + self.other + self.native + self.idle
    }

    /// Percentage of the total for each category:
    /// `(hot, cold, overhead, other, native, idle)`.
    pub fn percentages(&self) -> (f64, f64, f64, f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.hot as f64 * 100.0 / t,
            self.cold as f64 * 100.0 / t,
            self.overhead as f64 * 100.0 / t,
            self.other as f64 * 100.0 / t,
            self.native as f64 * 100.0 / t,
            self.idle as f64 * 100.0 / t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_percentages() {
        let mut rc = HashMap::new();
        rc.insert(region::HOT, 95);
        rc.insert(region::COLD, 3);
        rc.insert(region::OVERHEAD, 1);
        rc.insert(region::OTHER, 1);
        let d = TimeDistribution::from_region_cycles(&rc);
        assert_eq!(d.total(), 100);
        let (hot, cold, ovh, other, _, _) = d.percentages();
        assert!((hot - 95.0).abs() < 1e-9);
        assert!((cold - 3.0).abs() < 1e-9);
        assert!((ovh - 1.0).abs() < 1e-9);
        assert!((other - 1.0).abs() < 1e-9);
    }
}
