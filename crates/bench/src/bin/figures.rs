//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! figures [fig5|fig6|fig7|fig8|table1|hot_vs_cold|misalign|paper_stats|cache|indirect|chaos|hostile|trace|warmstart|serving|all]
//!         [--fast] [--seed=N]
//! ```
//!
//! `--fast` divides iteration counts by 20 (useful in debug builds).
//! `--seed=N` seeds the `chaos` fault-injection storm (default 1).

use bench::{
    cache_pressure, chaos_storm, figure5, figure6, figure7, figure8, hostile_suite, hot_vs_cold,
    indirect_pressure, misalign_speedup, paper_stats, serving, trace_overhead, trace_run,
    warm_start,
};
use btgeneric::engine::Config;
use btgeneric::trace::TraceConfig;

fn hot_cfg() -> Config {
    // Full runs reach the heating threshold naturally; the published
    // figures ran minutes of real workload, so scale the threshold with
    // our shorter runs.
    Config {
        heat_threshold: 256,
        hot_candidates: 2,
        ..Config::default()
    }
}

fn print_fig5(div: u32) {
    println!("== Figure 5: SPEC CPU2000 INT, IA-32 EL relative to native Itanium ==");
    println!("(native = 100%, higher is better; paper: gzip 86, vpr 69, gcc 51, mcf 104,");
    println!(" crafty 39, parser 81, eon 41, perlbmk 64, gap 62, vortex 60, bzip2 74,");
    println!(" twolf 76, GeoMean 65)");
    let (rows, geomean) = figure5(hot_cfg(), div);
    for r in &rows {
        println!(
            "  {:<8} {:>6.1}%   (EL {:>12} cy, native {:>12} cy)",
            r.name, r.relative, r.el_cycles, r.native_cycles
        );
    }
    println!("  {:<8} {:>6.1}%", "GeoMean", geomean);
}

fn print_dist(name: &str, d: &btgeneric::stats::TimeDistribution, paper: &str) {
    let (hot, cold, ovh, other, native, idle) = d.percentages();
    println!("== {name} ==");
    println!("(paper: {paper})");
    println!("  hot code  {hot:>5.1}%");
    println!("  cold code {cold:>5.1}%");
    println!("  overhead  {ovh:>5.1}%");
    println!("  other     {other:>5.1}%");
    if native + idle > 0.0 {
        println!("  native/OS {native:>5.1}%");
        println!("  idle      {idle:>5.1}%");
    }
}

fn print_fig8(div: u32) {
    println!("== Figure 8: EL on 1.5GHz Itanium 2 vs 1.6GHz Xeon ==");
    println!("(paper: CPU2000 INT 98.9%, CPU2000 FP 132.6%, Sysmark 2002 105.0%)");
    for r in figure8(hot_cfg(), div) {
        println!(
            "  {:<14} {:>6.1}%   (EL {:.4}s vs IA-32 {:.4}s)",
            r.name, r.relative, r.el_seconds, r.ia32_seconds
        );
    }
}

fn print_table1() {
    println!("== Table 1: push eax — correct vs incorrect state-update order ==");
    println!("  correct:   add r.addr = -4, r.esp ;; st4 [r.addr] = r.eax ;; mov r.esp = r.addr");
    println!("  incorrect: add r.esp = -4, r.esp ;; st4 [r.esp] = r.eax");
    println!("  Our push template stores before updating ESP; the test");
    println!("  `table1_push_does_not_move_esp_on_fault` verifies the fault");
    println!("  leaves ESP unchanged (precise exceptions, paper section 4).");
}

fn print_hot_vs_cold(div: u32) {
    let r = hot_vs_cold(div);
    println!("== In-text: hot-code vs cold-code steady-state performance ==");
    println!("(paper: hot code is ~3x better than cold code)");
    println!("  measured: hot is {r:.2}x better");
}

fn print_misalign(div: u32) {
    let (without, with, speedup) = misalign_speedup(div);
    println!("== In-text: misalignment detection and avoidance ==");
    println!("(paper: one workload went from 1236 s to 133 s, ~9.3x)");
    println!("  without avoidance: {without} cycles");
    println!("  with avoidance:    {with} cycles");
    println!("  speedup:           {speedup:.2}x");
}

fn print_paper_stats(div: u32) {
    let s = paper_stats(div);
    println!("== In-text statistics ==");
    println!(
        "  heated cold blocks:        {:>5.1}%  (paper: 5-10%)",
        s.heated_fraction * 100.0
    );
    println!(
        "  IA-32 insts / cold block:  {:>5.1}   (paper: 4-5)",
        s.cold_block_insts
    );
    println!(
        "  IA-32 insts / hot trace:   {:>5.1}   (paper: ~20)",
        s.hot_trace_insts
    );
    println!(
        "  native insts / commit pt:  {:>5.1}   (paper: ~10)",
        s.insts_per_commit
    );
    println!(
        "  speculation fix events:    {:>5.0}   (paper: 99-100% success)",
        s.spec_fix_per_kilo_entry
    );
    println!(
        "  cold expansion (native/IA-32 inst): {:>4.1}",
        s.cold_expansion
    );
    println!(
        "  hot side exits taken:      {:>5}   (paper: ~6% premature exits)",
        s.side_exits
    );
}

fn print_cache(div: u32) {
    const CAP: usize = 250;
    let cp = cache_pressure(div.max(1) * 20, CAP);
    println!("== Translation-cache management under pressure (cap {CAP} bundles) ==");
    println!("(incremental generation-aware eviction vs. flush-everything GC)");
    println!(
        "  evict: {:>12} cy, {:>6} cold blocks | {}",
        cp.evict.cycles,
        cp.evict.stats.cold_blocks,
        cp.evict.stats.cache_summary()
    );
    println!(
        "  flush: {:>12} cy, {:>6} cold blocks | {}",
        cp.flush.cycles,
        cp.flush.stats.cold_blocks,
        cp.flush.stats.cache_summary()
    );
    println!(
        "  retranslation reduced {:.2}x, total cycles reduced {:.2}x",
        cp.retranslation_ratio(),
        cp.cycle_ratio()
    );
}

fn print_chaos(div: u32, seed: u64) {
    let s = chaos_storm(div.max(1) * 10, seed);
    println!("== Fault injection: deterministic storm, seed {seed} ==");
    println!("(graceful degradation: survive every fault, stay oracle-correct)");
    for r in &s.runs {
        println!(
            "  {:<5} {} / {}  recovery overhead {:.2}x",
            r.name,
            if r.survived { "survived" } else { "DIED" },
            if r.oracle_ok {
                "oracle ok"
            } else {
                "ORACLE MISMATCH"
            },
            r.recovery_overhead
        );
        println!("        {}", r.stats.chaos_summary());
    }
    let by_kind: Vec<String> = s
        .injected_by_kind()
        .iter()
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!(
        "  total faults {} across {} kinds ({})",
        s.total_faults(),
        s.kinds_hit(),
        by_kind.join(", ")
    );
    if !s.survived() || !s.oracle_ok() {
        eprintln!("chaos: a storm run died or diverged from the oracle");
        std::process::exit(1);
    }
}

fn print_indirect(_div: u32) {
    // Always at the scale the frozen legacy rows were measured at, even
    // under `--fast`: the acceleration's win (and the per-kernel floors)
    // amortizes one-time translation charges, so short runs measure the
    // wrong regime — and the full run is only seconds.
    let sd = bench::LEGACY_INDIRECT_SCALE_DIV;
    let ip = indirect_pressure();
    println!("== Indirect control-transfer acceleration (scale_div {sd}) ==");
    println!("(inline caches + return shadow stack + devirtualized traces + 2-way table,");
    println!(" vs. the frozen rows of the legacy direct-mapped engine: bench::LEGACY_INDIRECT)");
    println!(
        "  {:<10} {:>9} {:>9}   {:>12} {:>12} {:>7}",
        "workload", "miss/off", "miss/on", "cycles/off", "cycles/on", "ratio"
    );
    for r in &ip.rows {
        println!(
            "  {:<10} {:>9} {:>9}   {:>12} {:>12} {:>6.3}x",
            r.name,
            r.before.indirect_misses,
            r.after.stats.indirect_misses,
            r.before.cycles,
            r.after.cycles,
            r.ratio()
        );
        println!("             {}", r.after.stats.indirect_summary());
        println!("             hot traces {}", r.after.stats.hot_ir_traces);
    }
    println!(
        "  IndirectMiss round-trips reduced {:.1}%, cycle geomean {:.3}x",
        ip.miss_reduction() * 100.0,
        ip.cycle_geomean()
    );
    let rows_json: Vec<String> = ip
        .rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"misses_off\": {}, \"misses_on\": {}, \
                 \"cycles_off\": {}, \"cycles_on\": {}, \"ratio\": {:.4}, \
                 \"ic_hits\": {}, \"shadow_hits\": {}, \"demotions\": {}}}",
                r.name,
                r.before.indirect_misses,
                r.after.stats.indirect_misses,
                r.before.cycles,
                r.after.cycles,
                r.ratio(),
                r.after.stats.ic_hits,
                r.after.stats.shadow_hits,
                r.after.stats.indirect_demotions
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale_div\": {sd},\n  \"miss_reduction\": {:.4},\n  \
         \"cycle_geomean\": {:.4},\n  \"rows\": [\n{}\n  ]\n}}\n",
        ip.miss_reduction(),
        ip.cycle_geomean(),
        rows_json.join(",\n")
    );
    match std::fs::write("BENCH_indirect.json", &json) {
        Ok(()) => println!("  wrote BENCH_indirect.json"),
        Err(e) => eprintln!("  could not write BENCH_indirect.json: {e}"),
    }
    let bad = ip.violations();
    if !bad.is_empty() {
        for v in &bad {
            eprintln!("indirect: {v}");
        }
        std::process::exit(1);
    }
}

/// The hostile-guest acceptance run: three kernels (signal storm,
/// guest JIT, nested handlers) x three seeds under the combined
/// signal + fault storm. Exits nonzero when any trial dies, diverges
/// from the signal-free oracle, fails to replay byte-identically,
/// never gets interrupted, leaks a signal frame, or lets the guest
/// JIT thrash unboundedly.
fn print_hostile(div: u32, seed: u64) {
    // `--fast` shrinks every kernel to the 512-iteration floor.
    let sd = if div > 1 { 200 } else { 20 };
    let hs = hostile_suite(sd, seed);
    println!("== Hostile guests: async signals, SMC storms, re-entrant recovery ==");
    println!(
        "(seeds {seed}..{}, scale_div {sd}; every gate is fatal)",
        seed + 2
    );
    for r in &hs.runs {
        println!(
            "  {:<14} seed {:#x}  {} / {} / {}  overhead {:.2}x",
            r.name,
            r.seed,
            if r.survived { "survived" } else { "DIED" },
            if r.oracle_ok {
                "oracle ok"
            } else {
                "ORACLE MISMATCH"
            },
            if r.deterministic {
                "replayed"
            } else {
                "NONDETERMINISTIC"
            },
            r.recovery_overhead
        );
        println!(
            "        sigreturns {}/{} delivered, {} deferred | {}",
            r.sigreturns,
            r.stats.signals_delivered,
            r.sig_deferrals,
            r.stats.hostile_summary()
        );
    }
    let rows_json: Vec<String> = hs
        .runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"seed\": {}, \"survived\": {}, \
                 \"oracle_ok\": {}, \"deterministic\": {}, \"overhead\": {:.4}, \
                 \"signals_delivered\": {}, \"sigreturns\": {}, \"sig_deferrals\": {}, \
                 \"smc_blacklists\": {}, \"smc_extent_orphans\": {}, \
                 \"smc_extent_keeps\": {}, \"reentrant_recoveries\": {}, \
                 \"recovery_depth_max\": {}}}",
                r.name,
                r.seed,
                r.survived,
                r.oracle_ok,
                r.deterministic,
                r.recovery_overhead,
                r.stats.signals_delivered,
                r.sigreturns,
                r.sig_deferrals,
                r.stats.smc_blacklists,
                r.stats.smc_extent_orphans,
                r.stats.smc_extent_keeps,
                r.stats.reentrant_recoveries,
                r.stats.recovery_depth_max
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale_div\": {sd},\n  \"seed\": {seed},\n  \
         \"signals_delivered\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        hs.signals_delivered(),
        rows_json.join(",\n")
    );
    match std::fs::write("BENCH_hostile.json", &json) {
        Ok(()) => println!("  wrote BENCH_hostile.json"),
        Err(e) => eprintln!("  could not write BENCH_hostile.json: {e}"),
    }
    let mut bad = false;
    if !hs.survived() {
        eprintln!("hostile: a run died");
        bad = true;
    }
    if !hs.oracle_ok() {
        eprintln!("hostile: a run diverged from the signal-free oracle");
        bad = true;
    }
    if !hs.deterministic() {
        eprintln!("hostile: a run failed to replay byte-identically");
        bad = true;
    }
    if hs.signals_delivered() == 0 {
        eprintln!("hostile: the storms never delivered a signal");
        bad = true;
    }
    if !hs.sigreturns_reconciled() {
        eprintln!("hostile: a delivered signal never sigreturned (leaked frame)");
        bad = true;
    }
    if !hs.guest_jit_bounded() {
        eprintln!("hostile: guest_jit governor never tripped or retranslations unbounded");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}

fn print_trace(div: u32) {
    let tr = trace_run(div.max(1) * 20, TraceConfig::on());
    println!("== Observability: gcc lifecycle trace ==");
    println!("  {}", tr.summary);
    println!();
    println!("-- top-10 hot paths (by attributed simulated cycles) --");
    print!("{}", tr.hot_path);
    let dir = std::path::Path::new("target/trace");
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("gcc.folded"), &tr.collapsed))
        .and_then(|()| std::fs::write(dir.join("gcc.trace.json"), &tr.chrome_json))
    {
        Ok(()) => {
            println!();
            println!(
                "  wrote {} (collapsed stacks; feed to flamegraph tooling)",
                dir.join("gcc.folded").display()
            );
            println!(
                "  wrote {} (load in chrome://tracing or Perfetto)",
                dir.join("gcc.trace.json").display()
            );
        }
        Err(e) => eprintln!("  could not write trace artifacts: {e}"),
    }
    println!();
    let o = trace_overhead(div.max(1) * 20);
    println!("-- trace_overhead --");
    println!("  tracing off:    {:>12} cycles", o.off_cycles);
    println!(
        "  masked (free):  {:>12} cycles (delta {})",
        o.masked_cycles,
        o.off_delta()
    );
    println!(
        "  tracing on:     {:>12} cycles ({:+.3}% | {} events recorded, {} seen)",
        o.on_cycles,
        o.overhead() * 100.0,
        o.events_recorded,
        o.events_seen
    );
    if o.off_delta() != 0 || o.overhead() >= 0.02 {
        eprintln!("trace: overhead contract violated");
        std::process::exit(1);
    }
}

fn print_warmstart(div: u32) {
    let ws = warm_start(div);
    println!("== Warm start: persistent translation cache (scale_div {div}) ==");
    println!("(cold-vs-warm simulated cycles to the first N native slots; warm runs load a");
    println!(" saved image before first dispatch)");
    println!(
        "  {:<10} {:>12} {:>14} {:>14} {:>7}   {:>6} {:>6}",
        "workload", "budget", "cold cycles", "warm cycles", "ratio", "loaded", "reject"
    );
    for k in &ws.kernels {
        println!(
            "  {:<10} {:>12} {:>14} {:>14} {:>6.2}x   {:>6} {:>6}{}",
            k.name,
            k.budget_slots,
            k.cold_cycles,
            k.warm_cycles,
            k.ratio,
            k.blocks_loaded,
            k.blocks_rejected,
            if k.oracle_ok { "" } else { "  ORACLE MISMATCH" }
        );
    }
    println!("  corrupted-image legs (gcc):");
    for l in &ws.chaos {
        println!(
            "    {:<12} completed {} oracle {} wholesale {} rejected {} loaded {} -> {}",
            l.kind,
            l.completed,
            l.oracle_ok,
            l.wholesale_rejects,
            l.blocks_rejected,
            l.blocks_loaded,
            if l.ok() { "ok" } else { "FAIL" }
        );
    }
    let rows_json: Vec<String> = ws
        .kernels
        .iter()
        .map(|k| {
            format!(
                "    {{\"name\": \"{}\", \"budget_slots\": {}, \"cold_cycles\": {}, \
                 \"warm_cycles\": {}, \"ratio\": {:.4}, \"oracle_ok\": {}, \
                 \"blocks_loaded\": {}, \"blocks_rejected\": {}}}",
                k.name,
                k.budget_slots,
                k.cold_cycles,
                k.warm_cycles,
                k.ratio,
                k.oracle_ok,
                k.blocks_loaded,
                k.blocks_rejected
            )
        })
        .collect();
    let chaos_json: Vec<String> = ws
        .chaos
        .iter()
        .map(|l| {
            format!(
                "    {{\"kind\": \"{}\", \"completed\": {}, \"oracle_ok\": {}, \
                 \"wholesale_rejects\": {}, \"blocks_rejected\": {}, \"blocks_loaded\": {}, \
                 \"ok\": {}}}",
                l.kind,
                l.completed,
                l.oracle_ok,
                l.wholesale_rejects,
                l.blocks_rejected,
                l.blocks_loaded,
                l.ok()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale_div\": {div},\n  \"all_faster\": {},\n  \"oracle_ok\": {},\n  \
         \"chaos_ok\": {},\n  \"kernels\": [\n{}\n  ],\n  \"chaos\": [\n{}\n  ]\n}}\n",
        ws.all_faster(),
        ws.oracle_ok(),
        ws.chaos_ok(),
        rows_json.join(",\n"),
        chaos_json.join(",\n")
    );
    match std::fs::write("BENCH_warmstart.json", &json) {
        Ok(()) => println!("  wrote BENCH_warmstart.json"),
        Err(e) => eprintln!("  could not write BENCH_warmstart.json: {e}"),
    }
    // Fatal gates: warm must beat cold everywhere, by >= 1.5x on the
    // translation-heavy gcc/mcf class, with oracle-correct warm runs
    // and graceful degradation on every corrupted image.
    let mut died = false;
    if !ws.all_faster() {
        eprintln!("warmstart: warm start must beat cold start on every kernel");
        died = true;
    }
    for name in ["gcc", "mcf"] {
        let r = ws.ratio_of(name);
        if r < 1.5 {
            eprintln!("warmstart: {name} warm-start ratio {r:.2}x below the 1.5x floor");
            died = true;
        }
    }
    if !ws.oracle_ok() {
        eprintln!("warmstart: a warm run diverged from the interpreter oracle");
        died = true;
    }
    if !ws.chaos_ok() {
        eprintln!("warmstart: a corrupted-image leg failed to degrade gracefully");
        died = true;
    }
    if died {
        std::process::exit(1);
    }
}

/// The multi-tenant serving acceptance run: N concurrent sessions over
/// the 15 INT kernels share per-kernel translation namespaces through
/// the shared cache and a cooperative scheduler. Fatal gates: shared
/// throughput >= 1.5x the N-isolated baseline at 500 sessions, dedup
/// ratio <= 1.1, shared p99 dispatch latency <= 3x single-tenant, and
/// zero cross-tenant divergence from the interpreter oracle.
fn print_serving(div: u32) {
    // Always the short-session regime: serving is a statement about
    // start-up-dominated fleets, where cold translation is the cost
    // being shared. `--fast` trims the fleet sizes, not the sessions.
    let sd = 2_000;
    let counts: &[usize] = if div > 1 {
        &[100, 500]
    } else {
        &[100, 500, 2000]
    };
    let sv = serving(sd, counts);
    println!("== Multi-tenant serving: shared translation cache (scale_div {sd}) ==");
    println!("(N sessions over 15 kernels; same-kernel cohorts share a namespace; the");
    println!(" isolated baseline gives every session a private cache)");
    println!(
        "  {:>8} {:>13} {:>13} {:>7}  {:>6} {:>9}  {:>11} {:>7}",
        "sessions",
        "shared sl/Mcy",
        "isol sl/Mcy",
        "ratio",
        "dedup",
        "imported",
        "p99 sh/iso",
        "rounds"
    );
    for p in &sv.points {
        println!(
            "  {:>8} {:>13.1} {:>13.1} {:>6.2}x  {:>6.3} {:>9}  {:>5}/{:<5} {:>7}{}",
            p.sessions,
            p.slots_per_mcycle(),
            p.iso_slots_per_mcycle(),
            p.throughput_ratio(),
            p.dedup(),
            p.shared_installs,
            p.hist.percentile(99.0),
            p.iso_hist.percentile(99.0),
            p.rounds,
            if p.oracle_ok { "" } else { "  ORACLE MISMATCH" }
        );
        println!(
            "           gen rejects {}, stale rejects {}, unique EIPs {}",
            p.gen_rejects, p.stale_rejects, p.unique_eips
        );
    }
    let rows_json: Vec<String> = sv
        .points
        .iter()
        .map(|p| {
            format!(
                "    {{\"sessions\": {}, \"shared_slots\": {}, \"shared_cycles\": {}, \
                 \"isolated_slots\": {}, \"isolated_cycles\": {}, \"throughput_ratio\": {:.4}, \
                 \"dedup\": {:.4}, \"organic_cold\": {}, \"shared_installs\": {}, \
                 \"unique_eips\": {}, \"p99_shared\": {}, \"p99_isolated\": {}, \
                 \"p50_shared\": {}, \"gen_rejects\": {}, \"stale_rejects\": {}, \
                 \"oracle_ok\": {}, \"rounds\": {}}}",
                p.sessions,
                p.shared_slots,
                p.shared_cycles,
                p.isolated_slots,
                p.isolated_cycles,
                p.throughput_ratio(),
                p.dedup(),
                p.organic_cold,
                p.shared_installs,
                p.unique_eips,
                p.hist.percentile(99.0),
                p.iso_hist.percentile(99.0),
                p.hist.percentile(50.0),
                p.gen_rejects,
                p.stale_rejects,
                p.oracle_ok,
                p.rounds
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale_div\": {sd},\n  \"throughput_ok\": {},\n  \"dedup_ok\": {},\n  \
         \"p99_ok\": {},\n  \"oracle_ok\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        sv.throughput_ok(),
        sv.dedup_ok(),
        sv.p99_ok(),
        sv.oracle_ok(),
        rows_json.join(",\n")
    );
    match std::fs::write("BENCH_serving.json", &json) {
        Ok(()) => println!("  wrote BENCH_serving.json"),
        Err(e) => eprintln!("  could not write BENCH_serving.json: {e}"),
    }
    let mut bad = false;
    if !sv.throughput_ok() {
        eprintln!("serving: shared throughput below the 1.5x floor at 500 sessions");
        bad = true;
    }
    if !sv.dedup_ok() {
        eprintln!("serving: cold-translation dedup ratio above 1.1");
        bad = true;
    }
    if !sv.p99_ok() {
        eprintln!("serving: shared p99 dispatch latency above 3x single-tenant");
        bad = true;
    }
    if !sv.oracle_ok() {
        eprintln!("serving: a tenant diverged from the interpreter oracle");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let div = if fast { 20 } else { 1 };
    let seed = args
        .iter()
        .find_map(|a| a.strip_prefix("--seed="))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    match what {
        "fig5" => print_fig5(div),
        "fig6" => print_dist(
            "Figure 6: SPEC CPU2000 execution-time distribution",
            &figure6(hot_cfg(), div),
            "hot 95%, cold 3%, overhead 1%, other 1%",
        ),
        "fig7" => print_dist(
            "Figure 7: Sysmark execution-time distribution",
            &figure7(hot_cfg(), div),
            "hot 46%, cold 5%, overhead 12%, other/OS 22%, idle 15%",
        ),
        "fig8" => print_fig8(div),
        "table1" => print_table1(),
        "hot_vs_cold" => print_hot_vs_cold(div),
        "misalign" => print_misalign(div),
        "paper_stats" => print_paper_stats(div),
        "cache" => print_cache(div),
        "indirect" => print_indirect(div),
        "chaos" => print_chaos(div, seed),
        "hostile" => print_hostile(div, seed),
        "trace" => print_trace(div),
        "warmstart" => print_warmstart(div),
        "serving" => print_serving(div),
        "all" => {
            print_table1();
            println!();
            print_fig5(div);
            println!();
            print_dist(
                "Figure 6: SPEC CPU2000 execution-time distribution",
                &figure6(hot_cfg(), div),
                "hot 95%, cold 3%, overhead 1%, other 1%",
            );
            println!();
            print_dist(
                "Figure 7: Sysmark execution-time distribution",
                &figure7(hot_cfg(), div),
                "hot 46%, cold 5%, overhead 12%, other/OS 22%, idle 15%",
            );
            println!();
            print_fig8(div);
            println!();
            print_hot_vs_cold(div);
            println!();
            print_misalign(div);
            println!();
            print_paper_stats(div);
            println!();
            print_cache(div);
            println!();
            print_indirect(div);
            println!();
            print_trace(div);
            println!();
            print_chaos(div, seed);
            println!();
            print_hostile(div, seed);
            println!();
            print_warmstart(div);
            println!();
            print_serving(div);
        }
        other => {
            eprintln!("unknown figure: {other}");
            std::process::exit(2);
        }
    }
}
