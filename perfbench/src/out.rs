//! What a run reports: named metrics, the operation tally and the final
//! JSON line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement or count).
    pub samples: usize,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted (cells, loads, suite rounds, queries).
    pub attempted: u64,
    /// Operations whose output failed its check, or that errored.
    pub failed: u64,
    /// Failure reasons (the first 20).
    pub reasons: Vec<String>,
}

impl Ops {
    /// Counts one operation; `Err` marks it failed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(format!("{what}: {e}"));
            }
        }
    }

    /// Share of operations that passed their check.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Report {
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        debug_assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Keeps exactly the metrics named in `names`, in that order; a name
    /// the run did not measure is reported as 0 (a layer it bypassed).
    pub fn select(&self, names: &[(&str, &'static str)]) -> Report {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                self.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or(Metric {
                        name: name.to_string(),
                        value: 0.0,
                        unit,
                        samples: 0,
                    })
            })
            .collect();
        Report { metrics }
    }

    /// Human-readable table: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "# {:<36} {:>16} {:<6} n={}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.samples
            );
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self, correct: bool, ops: &Ops) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            ops.attempted, ops.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number with all its digits (Rust's shortest round-trip form).
fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// splitmix64: the benchmark's only random source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.put("setup_s", 0.25, "s", 3);
        let mut ops = Ops::default();
        ops.record("a", Ok(()));
        ops.record("b", Err("mismatch".into()));
        let line = r.json_line(false, &ops);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(ops.ok_frac(), 0.5);
    }

    #[test]
    fn select_reports_bypassed_layers_as_zero() {
        let mut r = Report::default();
        r.put("a", 1.0, "s", 1);
        let s = r.select(&[("b", "count"), ("a", "s")]);
        assert_eq!(s.metrics[0].value, 0.0);
        assert_eq!(s.metrics[1].value, 1.0);
    }

    #[test]
    fn fnv_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
