//! The result a run prints: named metrics with units and sample
//! counts, correctness gates, and the host/build fingerprint. The last
//! line of standard output is the machine-readable JSON object.

use std::fmt::Write as _;

use crate::fingerprint::Fingerprint;
use crate::stats::median;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: u64,
}

/// A named pass/fail check with a human-readable detail.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Measured value and the bound it was held to.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (symbols, or grid points).
    pub attempted: u64,
    /// Attempted operations whose output was wrong.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Extra `key: value` lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a gate.
    pub fn gate(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// Records a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records `setup_s` as the median of `times` (seconds, one per
    /// timed set-up or set-up unit) and lists them in a note.
    pub fn setup_s(&mut self, times: &mut [f64]) {
        self.note(format!(
            "set-ups (s): {}",
            times
                .iter()
                .map(|s| format!("{s:.6}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let n = times.len() as u64;
        self.metric("setup_s", median(times).unwrap_or(f64::NAN), "s", n);
    }

    /// Whether every gate passed, no operation failed and every
    /// metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.gates.iter().all(|g| g.passed)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable report lines.
    #[must_use]
    pub fn human(&self, fingerprint: &Fingerprint) -> String {
        let mut s = String::new();
        for (key, value) in fingerprint.fields() {
            let _ = writeln!(s, "host {key:<14} {value}");
        }
        for note in &self.notes {
            let _ = writeln!(s, "note {note}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "metric {:<34} {:>16.6} {:<7} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for g in &self.gates {
            let verdict = if g.passed { "pass" } else { "FAIL" };
            let _ = writeln!(s, "gate {verdict} {}: {}", g.name, g.detail);
        }
        let _ = writeln!(
            s,
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        s
    }

    /// The single-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            // Non-finite values are not JSON numbers; `correct` is
            // already false for them.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Formats a finite `f64` as a JSON number with every digit of its
/// shortest round-trip representation.
#[must_use]
pub fn json_number(v: f64) -> String {
    // `Debug` prints integral floats as `3.0` and large or small ones
    // in exponent form (`1e-7`, `1.5e20`), all valid JSON numbers.
    format!("{v:?}")
}

/// Escapes a string for inclusion in JSON.
#[must_use]
pub fn json_string(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.8127, "s", 5);
        o.metric("sym_per_s", 150000.0, "sym/s", 1);
        o.gate("bytes", true, "exact");
        assert!(o.correct());
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\
             \"sym_per_s\":{\"value\":150000.0,\"unit\":\"sym/s\"}}}"
        );
    }

    #[test]
    fn failed_gate_or_nan_is_incorrect() {
        let mut o = Outcome::default();
        o.gate("g", false, "x");
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.metric("m", f64::NAN, "s", 1);
        assert!(!o.correct());
        assert!(o.json().contains("\"value\":0.0"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(json_number(1e-7), "1e-7");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
