//! Machine-readable bench results: `BENCH_<name>.json`.
//!
//! Perf-tracking benches write one JSON file per run so the repo's
//! performance trajectory can be tracked across commits by diffing
//! artifacts. The schema is deliberately **commit-agnostic** — no git
//! hashes, timestamps, or hostnames — so two files differ only when the
//! measured numbers or the bench configuration differ:
//!
//! ```json
//! {
//!   "schema": "gcs-bench-result/v1",
//!   "bench": "sweep_scaling",
//!   "config": {"cores": "2", "jobs": "256", "horizon": "60"},
//!   "metrics": {"wall_seconds/workers=1": 4.21, "speedup/workers=8": 3.4}
//! }
//! ```
//!
//! `config` holds the knobs that make the numbers comparable (as strings);
//! `metrics` holds the measurements (as finite floats). Both preserve
//! insertion order. Every report starts with `cores`, the host's
//! available parallelism, so no number travels without the core count it
//! was measured on.

use std::fmt::Display;
use std::io;

/// Accumulates one bench's configuration and measurements, then renders
/// or writes the `BENCH_<name>.json` artifact.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    config: Vec<(String, String)>,
    metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// Starts a report for the bench called `name`, with `cores` set to
    /// the host's available parallelism.
    pub fn new(name: &str) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        BenchReport {
            name: name.to_string(),
            config: vec![("cores".to_string(), cores.to_string())],
            metrics: Vec::new(),
        }
    }

    /// Records one configuration knob (stringified), replacing an earlier
    /// value of the same key in place.
    pub fn config(&mut self, key: &str, value: impl Display) -> &mut Self {
        let value = value.to_string();
        match self.config.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.config.push((key.to_string(), value)),
        }
        self
    }

    /// Records one measurement.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value — a NaN measurement is a bench bug,
    /// not a result.
    pub fn metric(&mut self, name: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Renders the report as a JSON object (single line + trailing
    /// newline, stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"gcs-bench-result/v1\",\"bench\":");
        push_json_string(&mut out, &self.name);
        out.push_str(",\"config\":{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            push_json_string(&mut out, v);
        }
        out.push_str("},\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            // `{}` prints the shortest representation that round-trips.
            out.push_str(&format!("{v}"));
        }
        out.push_str("}}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into the workspace root (so artifacts
    /// from every bench crate land in one tracked place) and returns the
    /// path written.
    pub fn write(&self) -> io::Result<String> {
        // crates/bench/ → workspace root. Compile-time, so the artifact
        // lands in the repo no matter where `cargo bench` is invoked from.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench has a workspace root two levels up");
        let path = root.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path.display().to_string())
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_stable_schema() {
        let mut r = BenchReport::new("sweep_scaling");
        r.config("jobs", 256)
            .config("horizon", 60.0)
            .config("cores", 8);
        r.metric("wall_seconds/workers=1", 4.25);
        r.metric("speedup/workers=8", 3.5);
        assert_eq!(
            r.to_json(),
            "{\"schema\":\"gcs-bench-result/v1\",\"bench\":\"sweep_scaling\",\
             \"config\":{\"cores\":\"8\",\"jobs\":\"256\",\"horizon\":\"60\"},\
             \"metrics\":{\"wall_seconds/workers=1\":4.25,\"speedup/workers=8\":3.5}}\n"
        );
    }

    #[test]
    fn records_host_cores_first() {
        let json = BenchReport::new("x").config("a", 1).to_json();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(json.contains(&format!("\"config\":{{\"cores\":\"{cores}\",\"a\":\"1\"}}")));
    }

    #[test]
    fn escapes_strings() {
        let mut r = BenchReport::new("x");
        r.config("quote\"key", "a\\b\nc");
        assert!(r.to_json().contains("\"quote\\\"key\":\"a\\\\b\\nc\""));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_nan_metrics() {
        BenchReport::new("x").metric("bad", f64::NAN);
    }
}
