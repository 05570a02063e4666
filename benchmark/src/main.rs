//! `elbench` — the repository's one benchmark.
//!
//! ```text
//! elbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one measurement (what BENCHMARK.json runs)
//! elbench run   --workload <name|all> --seed <n> --out <file>        every workload, each in its own process
//! elbench trace --workload <name|all> --seed <n>                     the separate traced run
//! elbench compare <a.json> <b.json>                                  apply the end-to-end bounds
//! ```
//!
//! Everything is measured from outside, through public functions of the
//! crates under `../crates`; see `README.md`.

mod gen;
mod layers;
mod report;
mod span;
mod suite;

use btgeneric::trace::TraceConfig;
use layers::{Probes, Totals};
use report::{Json, Metrics, END_TO_END, PER_LAYER};
use span::{median, Recorder};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use suite::{Pass, Ran, Suite, Unit, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`; `run` and `trace` use it too.
const RUN_SECONDS: u64 = 8;
/// Set-ups per measurement; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes a measurement makes at least, however short `--seconds`.
const MIN_PASSES: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => front_end(&args[1..], false),
        Some("trace") => front_end(&args[1..], true),
        Some("compare") => compare(&args[1..]),
        _ => measure_from(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("elbench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name} <value>"))
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    let text = flag(args, name)?;
    text.parse()
        .map_err(|_| format!("{name} {text}: not a whole number"))
}

fn known(workload: &str) -> Result<(), String> {
    if WORKLOADS.iter().any(|w| w.0 == workload) {
        Ok(())
    } else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        Err(format!(
            "unknown workload {workload}; expected one of {names:?}"
        ))
    }
}

fn measure_from(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload")?;
    known(workload)?;
    let seed = number(args, "--seed")?;
    let seconds = number(args, "--seconds")?;
    let last_line = match number(args, "--trace")? {
        0 => measure(workload, seed, seconds),
        1 => measure_traced(workload, seed, seconds),
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    println!("{last_line}");
    Ok(ExitCode::SUCCESS)
}

/// Units (programs, sessions) that failed: not `Halted`/`Exited`,
/// `RESULT` off the oracle's, or a pass whose simulated numbers differ
/// from the verification pass's.
fn failures(verify: &Pass, others: &[Pass], exact: bool) -> usize {
    (0..verify.ran.len())
        .filter(|&i| {
            let v: Ran = verify.ran[i];
            !v.ok
                || others
                    .iter()
                    .any(|p| !p.ran[i].ok || (exact && p.ran[i] != v))
        })
        .count()
}

fn print_metrics(workload: &str, m: &Metrics, notes: &[(&str, String)]) {
    let all = END_TO_END
        .iter()
        .map(|e| (e.0, e.1))
        .chain(PER_LAYER.iter().map(|l| (l.0, l.1)));
    for (name, unit) in all {
        if let Some(v) = m.get(name) {
            let note = notes.iter().find(|n| n.0 == name).map_or("", |n| &n.1);
            println!("{workload} {name} {v} {unit}{note}");
        }
    }
}

/// Wall time of one pass: for each program (and the fleet loop) the
/// median over the passes, summed. Interference here comes in bursts of
/// about a second, and only ever adds time; a burst has to hit the same
/// program in most passes to move this, where it moves the median of
/// whole-pass times by landing anywhere in most passes.
fn host_run_s(passes: &[Pass]) -> f64 {
    (0..passes[0].host_s.len())
        .map(|unit| median(&passes.iter().map(|p| p.host_s[unit]).collect::<Vec<_>>()))
        .sum()
}

fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// The untraced measurement: set-up (several times), one verification
/// pass, then timed passes for `seconds`.
fn measure(workload: &str, seed: u64, seconds: u64) -> String {
    let mut rec = Recorder::new(false);
    let mut setups = Vec::new();
    let mut suite: Option<Suite> = None;
    for _ in 0..SETUPS {
        // The old suite's warm-start images share the new one's paths.
        drop(suite.take());
        let t = Instant::now();
        suite = Some(suite::setup(workload, seed, &mut rec));
        setups.push(t.elapsed().as_secs_f64());
    }
    let suite = suite.expect("SETUPS is at least 1");

    let mut totals = Totals::default();
    let verify = suite::pass(
        &suite,
        &mut rec,
        TraceConfig::default(),
        &mut |unit, _, p, _| totals.add(unit, p),
    );

    let mut passes = Vec::new();
    let t = Instant::now();
    while passes.len() < MIN_PASSES || t.elapsed().as_secs() < seconds {
        passes.push(suite::pass(
            &suite,
            &mut rec,
            TraceConfig::default(),
            &mut |_, _, _, _| {},
        ));
    }
    let rss = peak_rss_mb();

    let mut m = Metrics::default();
    layers::simulated(&suite, &verify, &mut m);
    let host: Vec<f64> = passes.iter().map(|p| p.host_s.iter().sum()).collect();
    m.set("host_run_s", host_run_s(&passes));
    m.set("peak_rss_mb", rss);
    m.set("setup_s", median(&setups));
    layers::counts(&suite, &verify, &totals, &mut m);

    let failed = failures(&verify, &passes, true);
    let spread = |v: &[f64]| {
        format!(
            "  (min {:.4} max {:.4} n {})",
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(0.0, f64::max),
            v.len()
        )
    };
    print_metrics(
        workload,
        &m,
        &[("host_run_s", spread(&host)), ("setup_s", spread(&setups))],
    );
    println!(
        "{workload} ops_failed_pct {} %  ({failed} of {})",
        failed as f64 * 100.0 / suite.units() as f64,
        suite.units()
    );
    report::result_json(
        END_TO_END.iter().map(|e| (e.0, e.1)),
        &m,
        suite.units(),
        failed,
    )
}

/// The traced measurement: one verification pass with every layer
/// probed, then pairs of untraced and traced passes for `seconds`.
fn measure_traced(workload: &str, seed: u64, seconds: u64) -> String {
    let mut rec = Recorder::new(true);
    let root = rec.open("trace", workload);
    let suite = suite::setup(workload, seed, &mut rec);

    let mut totals = Totals::default();
    let mut probes = Probes::default();
    let verify = suite::pass(
        &suite,
        &mut rec,
        TraceConfig::default(),
        &mut |unit, prog, p, rec| {
            totals.add(unit, p);
            match unit {
                Unit::Program => probes.program(prog, p, rec),
                Unit::Session(k) => probes.session(k, p),
            }
        },
    );

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traced_totals = Totals::default();
    let t = Instant::now();
    while plain.is_empty() || t.elapsed().as_secs() < seconds {
        plain.push(suite::pass(
            &suite,
            &mut rec,
            TraceConfig::default(),
            &mut |_, _, _, _| {},
        ));
        traced_totals = Totals::default();
        traced.push(suite::pass(
            &suite,
            &mut rec,
            TraceConfig::on(),
            &mut |unit, _, p, _| traced_totals.add(unit, p),
        ));
    }

    let mut m = Metrics::default();
    layers::counts(&suite, &verify, &totals, &mut m);
    probes.metrics(&suite, verify.fleet.as_ref(), &mut rec, &mut m);
    let over = |on: f64, off: f64| report::ratio((on - off) * 100.0, off);
    m.set("trace.events_seen", traced_totals.trace_seen as f64);
    m.set("trace.events_dropped", traced_totals.trace_dropped as f64);
    m.set(
        "trace.sim_overhead_pct",
        over(traced_totals.cycles as f64, totals.cycles as f64),
    );
    m.set(
        "trace.host_overhead_pct",
        over(host_run_s(&traced), host_run_s(&plain)),
    );

    let wall_ns = rec.close(root);
    let failed = failures(&verify, &plain, true).max(failures(&verify, &traced, false));
    print_metrics(workload, &m, &[]);

    // Span table: calls, total and self time, p50 and the highest
    // percentile that still has ten samples beyond it.
    let summary = rec.summary();
    let mut self_sum = 0;
    for (name, s) in &summary {
        self_sum += s.self_ns;
        let mut line = format!(
            "# span {name} n={} total_ms={:.3} self_ms={:.3} p50_us={:.1}",
            s.durs.len(),
            s.total_ns() as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            span::percentile(&s.durs, 50.0) as f64 / 1e3
        );
        if let Some(p) = span::high_percentile(s.durs.len()) {
            let _ = write!(
                line,
                " p{p}_us={:.1}",
                span::percentile(&s.durs, p) as f64 / 1e3
            );
        }
        println!("{line}");
    }
    println!(
        "# spans self-time sum {:.3} ms of {:.3} ms wall",
        self_sum as f64 / 1e6,
        wall_ns as f64 / 1e6
    );
    let path = suite::out_dir().join(format!("trace.{workload}.json"));
    std::fs::create_dir_all(suite::out_dir()).expect("benchmark/out is writable");
    std::fs::write(&path, rec.chrome_trace(workload)).expect("trace file is writable");
    println!("# chrome trace: {}", path.display());

    report::result_json(
        PER_LAYER.iter().map(|l| (l.0, l.1)),
        &m,
        suite.units(),
        failed,
    )
}

/// `run` / `trace`: each workload in its own child process, one after
/// another, so `peak_rss_mb` is per workload and never more than one
/// thread is busy.
fn front_end(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let which = flag(args, "--workload")?;
    let seed = number(args, "--seed")?;
    let out = if traced {
        None
    } else {
        Some(flag(args, "--out")?)
    };
    let names: Vec<&str> = if which == "all" {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        known(which)?;
        vec![which]
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut file = format!("{{\"seed\": {seed}, \"workloads\": {{");
    let mut clean = true;
    for (i, name) in names.iter().enumerate() {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            // One untraced/traced pair is enough for the layer numbers.
            .args([
                "--seconds",
                &if traced { 0 } else { RUN_SECONDS }.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&child.stdout);
        let (lines, result) = text
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", text.trim_end()));
        println!("{lines}");
        let parsed = Json::parse(result).ok().filter(|_| child.status.success());
        let Some(parsed) = parsed else {
            eprint!("{}", String::from_utf8_lossy(&child.stderr));
            return Err(format!("{name}: the measurement died ({})", child.status));
        };
        clean &= parsed.get("failed").and_then(Json::num) == Some(0.0);
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(file, "{sep}\n\"{name}\": {result}");
    }
    file.push_str("\n}}\n");
    if let Some(out) = out {
        std::fs::write(out, file).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: elbench compare <a.json> <b.json>".to_owned());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, regressed) = report::compare(&read(a)?, &read(b)?);
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(list: &Json) -> Vec<&str> {
        list.items()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::str)
                    .expect("every entry has a name")
            })
            .collect()
    }

    /// `BENCHMARK.json` and the benchmark agree on every name, unit,
    /// direction and bound, and the file stays inside the driver's
    /// limits.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json is at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::num),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            doc.get("paths").unwrap().items(),
            [Json::Str("benchmark".to_owned())]
        );

        let workloads = doc.get("workloads").unwrap();
        assert_eq!(names(workloads), WORKLOADS.map(|w| w.0));
        for (entry, (_, why)) in workloads.items().iter().zip(WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::str), Some(why));
            assert!(why.len() <= 200);
        }

        let field = |m: &Json, k: &str| m.get(k).and_then(Json::str).unwrap().to_owned();
        let e2e: Vec<_> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::num).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_owned(), u.to_owned(), b.to_owned(), bound))
            .collect();
        assert_eq!(e2e, ours);
        let layer: Vec<_> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(layer, ours);

        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|e| e.3 <= 0.25));
        let all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|e| e.0))
            .chain(PER_LAYER.iter().map(|l| l.0))
            .collect();
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "a name is used once"
        );
        for name in all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let units = END_TO_END
            .iter()
            .map(|e| e.1)
            .chain(PER_LAYER.iter().map(|l| l.1));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    /// Both modes emit exactly the metrics `BENCHMARK.json` names, on a
    /// real (if short) measurement of the cheapest workload.
    #[test]
    fn every_named_metric_is_emitted() {
        for (traced, wanted) in [
            (false, END_TO_END.iter().map(|e| e.0).collect::<Vec<_>>()),
            (true, PER_LAYER.iter().map(|l| l.0).collect()),
        ] {
            let line = if traced {
                measure_traced("bigcode_cold", 1, 0)
            } else {
                measure("bigcode_cold", 1, 0)
            };
            let doc = Json::parse(&line).expect("the result line parses");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(doc.get("failed").and_then(Json::num), Some(0.0));
            let emitted: Vec<&str> = doc
                .get("metrics")
                .unwrap()
                .entries()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(emitted, wanted);
        }
    }
}
