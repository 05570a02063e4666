//! Per-layer metrics. Counts come from the public `Stats`,
//! `machine.region_cycles` and `DispatchHist` of finished processes;
//! host costs come from spans round direct calls into each layer.

use crate::report::{ratio, Metrics};
use crate::span::{percentile, Recorder};
use crate::suite::{startup_cycles, FleetRun, Pass, Program, Suite, Unit};
use btgeneric::cold::{discover::discover, liveness};
use btgeneric::engine::{BlockKind, Config};
use btgeneric::layout::region;
use btgeneric::persist;
use btgeneric::serving::namespace_key;
use btgeneric::stats::Stats;
use btlib::{Process, SimOs};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

/// Sums over every program and session of one pass.
#[derive(Default)]
pub struct Totals {
    pub stats: Stats,
    /// OTHER, COLD, HOT, OVERHEAD cycles.
    regions: [u64; 4],
    pub cycles: u64,
    slots: u64,
    live_bundles: u64,
    unique_eips: u64,
    sigreturns: u64,
    session_cold_blocks: u64,
    pub trace_seen: u64,
    pub trace_dropped: u64,
}

macro_rules! add_fields {
    ($into:expr, $from:expr; $($f:ident),* $(,)?) => { $( $into.$f += $from.$f; )* };
}

impl Totals {
    pub fn add(&mut self, unit: Unit, p: &mut Process<SimOs>) {
        // Side-exit and inline-cache counters live in translator
        // memory until harvested.
        p.engine.collect_hot_exit_stats();
        p.engine.collect_indirect_stats();
        let s = &p.engine.stats;
        add_fields!(self.stats, s;
            cold_blocks, cold_ia32_insts, cold_native_insts,
            hot_traces, hot_ir_traces, hot_ia32_insts, hot_native_insts,
            hot_commit_points, hot_side_exits, heat_events, demotions, deopts,
            dispatch_fast_hits, indirect_misses, ic_hits, ic_misses,
            shadow_hits, shadow_underflows, shadow_mispredicts, lookup_collisions,
            evictions, evicted_bundles, cache_flushes, chain_unlinks,
            smc_events, smc_extent_keeps, smc_extent_orphans, smc_blacklists,
            signals_delivered, interp_steps, ladder_recoveries,
            misalign_retrains, misalign_faults,
            tos_fixes, tag_fixes, mmx_fixes, xmm_fixes,
            image_blocks_loaded, image_blocks_rejected,
            shared_installs, shared_publishes, shared_gen_rejects,
            shared_stale_rejects, shared_lock_contention,
            superinst_hits, superinst_fused_slots, superinst_eligible_slots,
            syscalls,
        );
        self.stats.dispatch_hist.merge(&s.dispatch_hist);
        let m = &p.engine.machine;
        for (sum, id) in self.regions.iter_mut().zip([
            region::OTHER,
            region::COLD,
            region::HOT,
            region::OVERHEAD,
        ]) {
            *sum += m.region_cycles.get(&id).copied().unwrap_or(0);
        }
        self.cycles += m.cycles;
        self.slots += m.inst_count;
        self.live_bundles += m.arena.live_len() as u64;
        let eips: BTreeSet<u32> = p.engine.blocks().iter().map(|b| b.eip).collect();
        self.unique_eips += eips.len() as u64;
        self.sigreturns += p.os.sigreturns;
        if matches!(unit, Unit::Session(_)) {
            self.session_cold_blocks += s.cold_blocks;
        }
        self.trace_seen += p.engine.tracer.seen();
        self.trace_dropped += p.engine.tracer.dropped();
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

/// Guest instructions, EL cycles and start-up cycles of each program
/// (a fleet kernel's sessions count as one program).
fn per_program(suite: &Suite, pass: &Pass) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, u64)> = suite
        .programs
        .iter()
        .zip(&pass.ran)
        .map(|(p, r)| (p.guest_insts, r.cycles))
        .collect();
    if let Some(fleet) = &suite.fleet {
        let mut cohorts = vec![(0u64, 0u64); fleet.kernels.len()];
        for (&k, r) in fleet.order.iter().zip(&pass.ran[suite.programs.len()..]) {
            cohorts[k].0 += fleet.kernels[k].guest_insts;
            cohorts[k].1 += r.cycles;
        }
        rows.extend(cohorts);
    }
    rows
}

/// The three simulated end-to-end metrics of a pass.
pub fn simulated(suite: &Suite, pass: &Pass, m: &mut Metrics) {
    let rows = per_program(suite, pass);
    m.set(
        "sim_cycles",
        pass.ran.iter().map(|r| r.cycles).sum::<u64>() as f64,
    );
    m.set(
        "sim_cpi_geomean",
        geomean(
            rows.iter()
                .map(|&(insts, cycles)| cycles as f64 / insts as f64),
        ),
    );
    m.set(
        "startup_cycles",
        pass.ran.iter().map(|r| r.startup_cycles).sum::<u64>() as f64,
    );
}

/// The count-type layer metrics of the untraced verification pass.
pub fn counts(suite: &Suite, pass: &Pass, t: &Totals, m: &mut Metrics) {
    let s = &t.stats;
    let f = |v: u64| v as f64;
    let [other, cold, hot, xlate] = t.regions.map(f);
    let total = f(t.cycles);
    let pct = |v: f64| ratio(v * 100.0, total);

    m.set("ipf.machine.el_ipc", ratio(f(t.slots), total));

    m.set("cold.blocks", f(s.cold_blocks));
    m.set("cold.ia32_insts", f(s.cold_ia32_insts));
    m.set(
        "cold.native_per_ia32",
        ratio(f(s.cold_native_insts), f(s.cold_ia32_insts)),
    );
    // Distinct block EIPs over blocks materialized by any route: below
    // 1 means the same code was translated (or imported) more than once.
    m.set(
        "cold.unique_ratio",
        ratio(
            f(t.unique_eips),
            f(s.cold_blocks + s.image_blocks_loaded + s.shared_installs),
        ),
    );
    m.set("cold.sim_cycles", cold);
    m.set("cold.sim_pct", pct(cold));

    m.set("hot.traces", f(s.hot_traces));
    m.set("hot.ir_traces", f(s.hot_ir_traces));
    m.set("hot.ia32_insts", f(s.hot_ia32_insts));
    m.set(
        "hot.native_per_ia32",
        ratio(f(s.hot_native_insts), f(s.hot_ia32_insts)),
    );
    m.set("hot.commit_points", f(s.hot_commit_points));
    m.set("hot.side_exits", f(s.hot_side_exits));
    m.set("hot.heat_events", f(s.heat_events));
    m.set(
        "hot.promote_ratio",
        ratio(f(s.hot_traces), f(s.heat_events)),
    );
    m.set("hot.demotions", f(s.demotions));
    m.set("hot.deopts", f(s.deopts));
    m.set("hot.sim_cycles", hot);
    m.set("hot.sim_pct", pct(hot));

    m.set("engine.xlate_sim_cycles", xlate);
    m.set("engine.other_sim_cycles", other);
    m.set("engine.xlate_sim_pct", pct(xlate));
    m.set("engine.dispatch_fast_hits", f(s.dispatch_fast_hits));
    m.set("engine.indirect_misses", f(s.indirect_misses));
    m.set(
        "engine.ic_hit_ratio",
        ratio(f(s.ic_hits), f(s.ic_hits + s.ic_misses)),
    );
    m.set(
        "engine.shadow_hit_ratio",
        ratio(
            f(s.shadow_hits),
            f(s.shadow_hits + s.shadow_underflows + s.shadow_mispredicts),
        ),
    );
    m.set("engine.lookup_collisions", f(s.lookup_collisions));
    m.set("engine.evictions", f(s.evictions));
    m.set("engine.evicted_bundles", f(s.evicted_bundles));
    m.set("engine.cache_flushes", f(s.cache_flushes));
    m.set("engine.chain_unlinks", f(s.chain_unlinks));
    m.set("engine.smc_events", f(s.smc_events));
    m.set(
        "engine.smc_keep_ratio",
        ratio(
            f(s.smc_extent_keeps),
            f(s.smc_extent_keeps + s.smc_extent_orphans),
        ),
    );
    m.set("engine.smc_blacklists", f(s.smc_blacklists));
    m.set("engine.signals_delivered", f(s.signals_delivered));
    m.set("engine.interp_steps", f(s.interp_steps));
    m.set("engine.ladder_recoveries", f(s.ladder_recoveries));
    m.set("engine.misalign_retrains", f(s.misalign_retrains));
    m.set("engine.misalign_faults", f(s.misalign_faults));
    m.set(
        "engine.fp_fixes",
        f(s.tos_fixes + s.tag_fixes + s.mmx_fixes + s.xmm_fixes),
    );
    m.set("engine.arena_live_bundles", f(t.live_bundles));
    m.set(
        "engine.dispatch_p50_slots",
        f(s.dispatch_hist.percentile(50.0)),
    );
    m.set(
        "engine.dispatch_p99_slots",
        f(s.dispatch_hist.percentile(99.0)),
    );

    m.set("persist.image_bytes", f(suite.image_bytes));
    m.set("persist.blocks_loaded", f(s.image_blocks_loaded));
    m.set("persist.blocks_rejected", f(s.image_blocks_rejected));
    // Start-up from an empty cache over start-up from the image.
    let warm: Vec<&Program> = suite
        .programs
        .iter()
        .filter(|p| p.cfg.load_image.is_some())
        .collect();
    let from_empty: u64 = warm
        .iter()
        .map(|p| startup_cycles(p, Config::default()))
        .sum();
    let from_image: u64 = suite
        .programs
        .iter()
        .zip(&pass.ran)
        .filter(|(p, _)| p.cfg.load_image.is_some())
        .map(|(_, r)| r.startup_cycles)
        .sum();
    m.set(
        "persist.warm_startup_ratio",
        ratio(f(from_empty), f(from_image)),
    );

    m.set("serving.shared_installs", f(s.shared_installs));
    m.set("serving.publishes", f(s.shared_publishes));
    m.set(
        "serving.dedup_ratio",
        ratio(
            f(s.shared_installs),
            f(s.shared_installs + t.session_cold_blocks),
        ),
    );
    m.set("serving.gen_rejects", f(s.shared_gen_rejects));
    m.set("serving.stale_rejects", f(s.shared_stale_rejects));
    m.set("serving.lock_contention", f(s.shared_lock_contention));
    let fleet = pass.fleet.as_ref();
    m.set("serve.rounds", fleet.map_or(0.0, |r| f(r.rounds)));
    m.set("serve.slices", fleet.map_or(0.0, |r| f(r.slices)));

    m.set("superinst.hits", f(s.superinst_hits));
    m.set(
        "superinst.hit_rate",
        ratio(f(s.superinst_fused_slots), f(s.superinst_eligible_slots)),
    );

    m.set("btlib.syscalls", f(s.syscalls));
    m.set("btlib.sigreturns", f(t.sigreturns));

    let rows = per_program(suite, pass);
    m.set("workloads.guest_insts", rows.iter().map(|r| f(r.0)).sum());
    let twins = || {
        suite
            .programs
            .iter()
            .zip(&pass.ran)
            .filter_map(|(p, r)| p.native.as_ref().map(|n| (n, r)))
    };
    m.set(
        "workloads.native_cycles",
        twins().map(|(n, _)| f(n.cycles)).sum(),
    );
    m.set(
        "ipf.machine.native_ipc",
        ratio(
            twins().map(|(n, _)| f(n.slots)).sum(),
            twins().map(|(n, _)| f(n.cycles)).sum(),
        ),
    );

    // The paper's bars, for reference only: the cycle model is not
    // validated against hardware.
    m.set(
        "paper.fig5_native_pct_geomean",
        geomean(twins().map(|(n, r)| f(n.cycles) * 100.0 / f(r.cycles))),
    );
    // EL on a 1.5 GHz Itanium 2 against IA-32 silicon at 1.6 GHz.
    let hw_s: f64 = suite
        .programs
        .iter()
        .map(|p| f(p.ia32hw_cycles) / 1600e6)
        .sum();
    let el_s: f64 = pass.ran[..suite.programs.len()]
        .iter()
        .map(|r| f(r.cycles) / 1500e6)
        .sum();
    m.set("paper.fig8_ia32hw_pct", ratio(hw_s * 100.0, el_s));
}

/// Host-cost accumulators of the direct layer probes (`trace` only).
#[derive(Default)]
pub struct Probes {
    decode: (u64, u64),
    pretranslate: (u64, u64),
    discover: (u64, u64),
    liveness: (u64, u64),
    promote_ns: u64,
    promote_traces: u64,
    promote_insts: u64,
    lookup: (u64, u64),
    snapshot_ns: u64,
    encode_ns: u64,
    decode_image_ns: u64,
    load: (u64, u64),
    /// Translated EIPs of one session per fleet kernel.
    session_eips: BTreeMap<usize, Vec<u32>>,
}

/// Blocks `hot::promote` is timed on, across the workload.
const PROMOTE_CAP: u64 = 500;
/// Block EIPs the discovery and lookup sweeps visit per program.
const SWEEP_CAP: usize = 4_096;

impl Probes {
    /// Probes every layer against one finished program. `hot::promote`
    /// changes the engine, so it runs last.
    pub fn program(&mut self, prog: &Program, p: &mut Process<SimOs>, rec: &mut Recorder) {
        let name = prog.name.as_str();

        let (insts, ns) = rec.time("layer.decode", name, || {
            let code = &prog.image.code;
            let (mut pos, mut insts) = (0, 0u64);
            while pos < code.len() {
                // Data in the code segment: step over it a byte at a time.
                pos += match ia32::decode::decode(&code[pos..], prog.image.code_base + pos as u32) {
                    Ok((inst, len)) => {
                        black_box(inst);
                        insts += 1;
                        len
                    }
                    Err(_) => 1,
                };
            }
            insts
        });
        self.decode.0 += ns;
        self.decode.1 += insts;

        // `pretranslate` stops at its 4 096-block cap, so cost is per
        // instruction actually translated.
        let clean = Config {
            load_image: None,
            ..prog.cfg.clone()
        };
        let mut fresh = prog.launch(clean.clone());
        let (_, ns) = rec.time("layer.cold_pretranslate", name, || {
            persist::pretranslate(&mut fresh.engine, &mut fresh.os, prog.image.entry)
        });
        self.pretranslate.0 += ns;
        self.pretranslate.1 += fresh.engine.stats.cold_ia32_insts;
        drop(fresh);

        let eips: Vec<u32> = {
            let live: BTreeSet<u32> = p
                .engine
                .blocks()
                .iter()
                .filter(|b| !b.evicted)
                .map(|b| b.eip)
                .collect();
            live.into_iter().take(SWEEP_CAP).collect()
        };
        let (regions, ns) = rec.time("layer.discover", name, || {
            eips.iter()
                .map(|&e| discover(&p.engine.mem, e))
                .collect::<Vec<_>>()
        });
        self.discover.0 += ns;
        self.discover.1 += eips.len() as u64;
        let (_, ns) = rec.time("layer.liveness", name, || {
            for r in &regions {
                black_box(liveness::analyze(r));
            }
        });
        self.liveness.0 += ns;
        self.liveness.1 += regions.len() as u64;
        drop(regions);

        let (_, ns) = rec.time("layer.lookup", name, || {
            for &e in &eips {
                black_box(p.engine.entry_of_existing(e));
            }
        });
        self.lookup.0 += ns;
        self.lookup.1 += eips.len() as u64;

        let (image, ns) = rec.time("layer.persist.snapshot", name, || {
            persist::snapshot(&p.engine)
        });
        self.snapshot_ns += ns;
        let (bytes, ns) = rec.time("layer.persist.encode", name, || persist::encode(&image));
        self.encode_ns += ns;
        let fp = persist::fingerprint(&clean);
        let (decoded, ns) = rec.time("layer.persist.decode", name, || persist::decode(&bytes, fp));
        self.decode_image_ns += ns;
        assert!(decoded.is_ok(), "{name}: a fresh image did not decode");
        let mut fresh = prog.launch(clean);
        let (summary, ns) = rec.time("layer.persist.load", name, || {
            persist::load(&mut fresh.engine, &mut fresh.os, &bytes)
        });
        self.load.0 += ns;
        self.load.1 += summary.loaded;
        drop(fresh);

        let still_cold: Vec<u32> = p
            .engine
            .blocks()
            .iter()
            .filter(|b| !b.evicted && b.kind != BlockKind::Hot)
            .map(|b| b.id)
            .take(PROMOTE_CAP.saturating_sub(self.promote_traces) as usize)
            .collect();
        let before = p.engine.stats.clone();
        let (_, ns) = rec.time("layer.hot_promote", name, || {
            for id in still_cold {
                black_box(btgeneric::hot::promote(&mut p.engine, id));
            }
        });
        self.promote_ns += ns;
        self.promote_traces += p.engine.stats.hot_traces - before.hot_traces;
        self.promote_insts += p.engine.stats.hot_ia32_insts - before.hot_ia32_insts;
    }

    /// Remembers what one session of each fleet kernel translated, for
    /// the namespace consult sweep.
    pub fn session(&mut self, kernel: usize, p: &Process<SimOs>) {
        self.session_eips
            .entry(kernel)
            .or_insert_with(|| p.engine.blocks().iter().map(|b| b.eip).collect());
    }

    /// The host-cost layer metrics, from the probes and the spans.
    pub fn metrics(
        &self,
        suite: &Suite,
        fleet: Option<&FleetRun>,
        rec: &mut Recorder,
        m: &mut Metrics,
    ) {
        let f = |v: u64| v as f64;
        let per = |(ns, n): (u64, u64)| ratio(f(ns), f(n));
        let span_ns = |rec: &Recorder, name: &str| f(rec.durations(name).iter().sum());

        let mut consult = (0u64, 0u64);
        if let (Some(run), Some(fl)) = (fleet, &suite.fleet) {
            for (&k, eips) in &self.session_eips {
                let ns = run
                    .shared
                    .namespace(namespace_key(&fl.kernels[k].cfg, k as u64 + 1));
                let mut contention = 0;
                let (_, t) = rec.time("layer.serving.consult", &fl.kernels[k].name, || {
                    for &e in eips {
                        black_box(ns.consult(e, &mut contention));
                    }
                });
                consult.0 += t;
                consult.1 += eips.len() as u64;
            }
        }

        let all = || {
            suite
                .programs
                .iter()
                .chain(suite.fleet.iter().flat_map(|fl| &fl.kernels))
        };
        m.set("ia32.decode.host_ns_per_inst", per(self.decode));
        m.set(
            "ia32.interp.host_ns_per_inst",
            ratio(
                span_ns(rec, "setup.oracle"),
                all().map(|p| f(p.guest_insts)).sum(),
            ),
        );
        m.set(
            "ia32.asm.build_image_host_ms",
            span_ns(rec, "setup.build_image") / 1e6,
        );
        let native_ns = span_ns(rec, "setup.native");
        let twins = || suite.programs.iter().filter_map(|p| p.native.as_ref());
        m.set(
            "ipf.machine.host_ns_per_cycle",
            ratio(native_ns, twins().map(|n| f(n.cycles)).sum()),
        );
        m.set(
            "ipf.machine.host_ns_per_slot",
            ratio(native_ns, twins().map(|n| f(n.slots)).sum()),
        );
        m.set("cold.host_ns_per_inst", per(self.pretranslate));
        m.set("cold.discover.host_ns_per_block", per(self.discover));
        m.set("cold.liveness.host_ns_per_region", per(self.liveness));
        m.set(
            "hot.host_us_per_trace",
            ratio(f(self.promote_ns) / 1e3, f(self.promote_traces)),
        );
        let hot_ns_per_inst = ratio(f(self.promote_ns), f(self.promote_insts));
        m.set("hot.host_ns_per_inst", hot_ns_per_inst);
        m.set(
            "hot.cold_host_ratio",
            ratio(hot_ns_per_inst, per(self.pretranslate)),
        );
        let launches = rec.durations("run.launch");
        m.set(
            "engine.launch_host_us",
            ratio(f(launches.iter().sum()) / 1e3, launches.len() as f64),
        );
        m.set("engine.lookup_host_ns", per(self.lookup));
        let programs = suite.programs.len() as f64;
        m.set(
            "persist.snapshot_host_us",
            ratio(f(self.snapshot_ns) / 1e3, programs),
        );
        m.set(
            "persist.encode_host_us",
            ratio(f(self.encode_ns) / 1e3, programs),
        );
        m.set(
            "persist.decode_host_us",
            ratio(f(self.decode_image_ns) / 1e3, programs),
        );
        m.set("persist.load_host_us_per_block", per(self.load) / 1e3);
        m.set("serving.consult_host_ns", per(consult));

        let mut ticks = rec.durations("run.tick");
        ticks.sort_unstable();
        m.set("serve.tick_host_us_p50", f(percentile(&ticks, 50.0)) / 1e3);
        m.set("serve.tick_host_us_p99", f(percentile(&ticks, 99.0)) / 1e3);
        m.set(
            "serve.sessions_per_host_s",
            match (fleet, &suite.fleet) {
                (Some(run), Some(fl)) => ratio(fl.order.len() as f64 * 1e9, f(run.host_ns)),
                _ => 0.0,
            },
        );
    }
}
