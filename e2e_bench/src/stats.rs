//! Sample summaries, the metric report and the stream digest.

use std::time::Instant;

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `level` of `values`, and whether at least
/// ten samples lie beyond it (the rule for a reportable tail).
pub fn percentile(values: &[f64], level: f64) -> (f64, bool) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (0.0, false);
    }
    let rank = ((level / 100.0) * n as f64).ceil().max(1.0) as usize;
    (sorted[rank - 1], n - rank >= 10)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a count taken once).
    pub samples: usize,
    /// Free-form detail for the human-readable table (e.g. `p95`).
    pub note: String,
}

/// What a workload run produced: metrics for the untraced or the traced
/// table, the request tally, and failures found by the oracle and the
/// guards.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable output only (per-verb splits,
    /// digests); never part of the JSON result.
    pub info: Vec<String>,
    pub attempted: u64,
    /// `ERR` frames, transport errors and oracle mismatches.
    pub failed: u64,
    /// Guard violations (regime, coverage); any makes the run incorrect.
    pub violations: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.add_noted(name, value, unit, samples, String::new());
    }

    pub fn add_noted(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note,
        });
    }

    /// Latency summary of `values` (ms): `answer_p50_ms`, the median of
    /// `central` (the values themselves, or per-query medians of them),
    /// and `answer_tail_ms`, the nearest-rank percentile `level` of
    /// `values`. Each workload fixes its level, and a minimum sample count
    /// that leaves ten samples beyond it, so the level never moves
    /// between runs.
    pub fn latency(&mut self, central: &[f64], values: &[f64], level: f64) {
        self.add("answer_p50_ms", median(central), "ms", values.len());
        let (value, supported) = percentile(values, level);
        if !supported {
            self.violate(format!(
                "answer_tail_ms: p{level} of {} samples",
                values.len()
            ));
        }
        self.add_noted(
            "answer_tail_ms",
            value,
            "ms",
            values.len(),
            format!("p{level}"),
        );
    }

    /// Record one failed request with its reason.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED: {what}");
        }
    }

    pub fn violate(&mut self, what: String) {
        eprintln!("GUARD: {what}");
        self.violations.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// FNV-1a, 64 bit: a stable digest of the generated request stream, so
/// two runs can show they replayed the same inputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Frame separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&values, 75.0), (30.0, true));
        assert_eq!(percentile(&values, 90.0), (36.0, false));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
