//! The metric registry (every name the benchmark emits, with its unit),
//! result output, a small JSON reader, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better, bound)`: `bound` is the share of the baseline
/// by which the metric may get worse before `compare` calls it a
/// regression.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("sim_cycles", "cycles", "lower", 0.01),
    ("sim_cpi_geomean", "cycles/inst", "lower", 0.01),
    ("startup_cycles", "cycles", "lower", 0.01),
    ("host_run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// The end-to-end metrics that come out of the simulator and therefore
/// repeat exactly for one seed.
pub const SIMULATED: [&str; 3] = ["sim_cycles", "sim_cpi_geomean", "startup_cycles"];

/// `(name, unit, better)` of every layer metric; layer = module. All are
/// emitted on every workload, `0` where the layer is idle.
pub const PER_LAYER: [(&str, &str, &str); 89] = [
    ("ia32.decode.host_ns_per_inst", "ns/inst", "lower"),
    ("ia32.interp.host_ns_per_inst", "ns/inst", "lower"),
    ("ia32.asm.build_image_host_ms", "ms", "lower"),
    ("ipf.machine.host_ns_per_cycle", "ns/cycle", "lower"),
    ("ipf.machine.host_ns_per_slot", "ns/slot", "lower"),
    ("ipf.machine.native_ipc", "slots/cycle", "higher"),
    ("ipf.machine.el_ipc", "slots/cycle", "higher"),
    ("cold.blocks", "count", "lower"),
    ("cold.ia32_insts", "count", "lower"),
    ("cold.native_per_ia32", "native/ia32", "lower"),
    ("cold.unique_ratio", "ratio", "higher"),
    ("cold.sim_cycles", "cycles", "lower"),
    ("cold.sim_pct", "%", "lower"),
    ("cold.host_ns_per_inst", "ns/inst", "lower"),
    ("cold.discover.host_ns_per_block", "ns/block", "lower"),
    ("cold.liveness.host_ns_per_region", "ns/region", "lower"),
    ("hot.traces", "count", "higher"),
    ("hot.ir_traces", "count", "higher"),
    ("hot.ia32_insts", "count", "higher"),
    ("hot.native_per_ia32", "native/ia32", "lower"),
    ("hot.commit_points", "count", "lower"),
    ("hot.side_exits", "count", "lower"),
    ("hot.heat_events", "count", "lower"),
    ("hot.promote_ratio", "ratio", "higher"),
    ("hot.demotions", "count", "lower"),
    ("hot.deopts", "count", "lower"),
    ("hot.sim_cycles", "cycles", "lower"),
    ("hot.sim_pct", "%", "higher"),
    ("hot.host_us_per_trace", "us/trace", "lower"),
    ("hot.host_ns_per_inst", "ns/inst", "lower"),
    ("hot.cold_host_ratio", "ratio", "lower"),
    ("engine.xlate_sim_cycles", "cycles", "lower"),
    ("engine.other_sim_cycles", "cycles", "lower"),
    ("engine.xlate_sim_pct", "%", "lower"),
    ("engine.dispatch_fast_hits", "count", "lower"),
    ("engine.indirect_misses", "count", "lower"),
    ("engine.ic_hit_ratio", "ratio", "higher"),
    ("engine.shadow_hit_ratio", "ratio", "higher"),
    ("engine.lookup_collisions", "count", "lower"),
    ("engine.evictions", "count", "lower"),
    ("engine.evicted_bundles", "count", "lower"),
    ("engine.cache_flushes", "count", "lower"),
    ("engine.chain_unlinks", "count", "lower"),
    ("engine.smc_events", "count", "lower"),
    ("engine.smc_keep_ratio", "ratio", "higher"),
    ("engine.smc_blacklists", "count", "lower"),
    ("engine.signals_delivered", "count", "higher"),
    ("engine.interp_steps", "count", "lower"),
    ("engine.ladder_recoveries", "count", "lower"),
    ("engine.misalign_retrains", "count", "lower"),
    ("engine.misalign_faults", "count", "lower"),
    ("engine.fp_fixes", "count", "lower"),
    ("engine.arena_live_bundles", "count", "lower"),
    ("engine.dispatch_p50_slots", "cycles", "lower"),
    ("engine.dispatch_p99_slots", "cycles", "lower"),
    ("engine.launch_host_us", "us", "lower"),
    ("engine.lookup_host_ns", "ns", "lower"),
    ("persist.image_bytes", "bytes", "lower"),
    ("persist.blocks_loaded", "count", "higher"),
    ("persist.blocks_rejected", "count", "lower"),
    ("persist.warm_startup_ratio", "ratio", "higher"),
    ("persist.snapshot_host_us", "us", "lower"),
    ("persist.encode_host_us", "us", "lower"),
    ("persist.decode_host_us", "us", "lower"),
    ("persist.load_host_us_per_block", "us/block", "lower"),
    ("serving.shared_installs", "count", "higher"),
    ("serving.publishes", "count", "lower"),
    ("serving.dedup_ratio", "ratio", "higher"),
    ("serving.gen_rejects", "count", "lower"),
    ("serving.stale_rejects", "count", "lower"),
    ("serving.lock_contention", "count", "lower"),
    ("serving.consult_host_ns", "ns", "lower"),
    ("serve.rounds", "count", "lower"),
    ("serve.slices", "count", "lower"),
    ("serve.tick_host_us_p50", "us", "lower"),
    ("serve.tick_host_us_p99", "us", "lower"),
    ("serve.sessions_per_host_s", "1/s", "higher"),
    ("superinst.hits", "count", "higher"),
    ("superinst.hit_rate", "ratio", "higher"),
    ("trace.events_seen", "count", "lower"),
    ("trace.events_dropped", "count", "lower"),
    ("trace.sim_overhead_pct", "%", "lower"),
    ("trace.host_overhead_pct", "%", "lower"),
    ("btlib.syscalls", "count", "lower"),
    ("btlib.sigreturns", "count", "lower"),
    ("workloads.guest_insts", "count", "lower"),
    ("workloads.native_cycles", "cycles", "lower"),
    ("paper.fig5_native_pct_geomean", "%", "higher"),
    ("paper.fig8_ia32hw_pct", "%", "higher"),
];

/// Metric values by registered name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`; panics on a name the registry does not hold, so
    /// a typo cannot create a metric `BENCHMARK.json` does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        let registered = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        // `+ 0.0` turns the `-0` an empty sum yields into `0`.
        self.0.insert(
            registered,
            if value.is_finite() { value + 0.0 } else { 0.0 },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `num / den`, or 0 when the layer was idle.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result object the driver reads from the last line of stdout.
/// Panics if a wanted metric was never set: every metric is emitted on
/// every workload.
pub fn result_json(
    wanted: impl Iterator<Item = (&'static str, &'static str)>,
    metrics: &Metrics,
    attempted: usize,
    failed: usize,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in wanted.enumerate() {
        let value = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing text at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }

    #[cfg(test)]
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    kv.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(kv));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of text".to_owned()),
        }
    }

    /// A string without escapes other than `\"` and `\\` (all this
    /// benchmark's files need).
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') if matches!(self.s.get(self.i + 1), Some(b'"' | b'\\')) => {
                    out.push(self.s[self.i + 1]);
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }
}

/// Applies the end-to-end bounds to two `run --out` files. Returns the
/// report and whether `b` regressed against `a` (a metric worse by more
/// than its bound, or any failed operation).
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let empty = Json::Obj(Vec::new());
    let (wa, wb) = (
        a.get("workloads").unwrap_or(&empty),
        b.get("workloads").unwrap_or(&empty),
    );
    for (workload, ra) in wa.entries() {
        let Some(rb) = wb.get(workload) else {
            let _ = writeln!(out, "{workload}: missing from the second file  REGRESSION");
            regressed = true;
            continue;
        };
        for side in [ra, rb] {
            let failed = side.get("failed").and_then(Json::num).unwrap_or(1.0);
            if failed != 0.0 {
                let _ = writeln!(out, "{workload}: {failed} operations failed  REGRESSION");
                regressed = true;
            }
        }
        for (name, unit, better, bound) in END_TO_END {
            let value = |r: &Json| r.get("metrics")?.get(name)?.get("value")?.num();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                let _ = writeln!(out, "{workload} {name}: missing  REGRESSION");
                regressed = true;
                continue;
            };
            let worse = if better == "lower" { vb - va } else { va - vb } / va.abs();
            let verdict = if worse > bound {
                regressed = true;
                "REGRESSION"
            } else if SIMULATED.contains(&name) && va == vb {
                "identical"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{workload} {name} {va} -> {vb} {unit} ({:+.2}% worse, bound {:.0}%)  {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let v = Json::parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().items()[1].num(), Some(-2500.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().str(), Some("x\"y"));
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1] 2").is_err());
    }

    fn run_file(host: f64, failed: u32) -> Json {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u, ..)| {
                let v = if *n == "host_run_s" { host } else { 100.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        Json::parse(&format!(
            "{{\"workloads\": {{\"w\": {{\"failed\": {failed}, \"metrics\": {{{}}}}}}}}}",
            metrics.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn compare_applies_bounds() {
        assert!(!compare(&run_file(1.0, 0), &run_file(1.24, 0)).1);
        assert!(compare(&run_file(1.0, 0), &run_file(1.26, 0)).1);
        assert!(!compare(&run_file(1.0, 0), &run_file(0.5, 0)).1);
        assert!(compare(&run_file(1.0, 0), &run_file(1.0, 1)).1);
    }
}
