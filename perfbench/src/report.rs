//! Metric records, order statistics, and the hand-written JSON the
//! benchmark prints (the workspace is std-only, so there is no serde).

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported number with everything needed to read it on its own.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Observations the value summarizes.
    pub samples: u64,
    /// For a percentile: whether at least ten samples lie beyond it.
    pub supported: Option<bool>,
    /// Where the number comes from (`client`, `isolated`, `in-situ`, …).
    pub source: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, better: Better, value: f64) -> Metric {
        Metric {
            name,
            unit,
            better,
            value,
            samples: 1,
            supported: None,
            source: String::new(),
        }
    }

    pub fn samples(mut self, n: u64) -> Metric {
        self.samples = n;
        self
    }

    pub fn source(mut self, s: impl Into<String>) -> Metric {
        self.source = s.into();
        self
    }

    /// The median over `slices` of each slice's percentile `q` (samples
    /// in any order). Empty slices are left out; the percentile is
    /// flagged unsupported when any slice is empty or has fewer than ten
    /// samples beyond it.
    pub fn percentile(
        name: &'static str,
        unit: &'static str,
        slices: &[Vec<f64>],
        q: f64,
        source: &str,
    ) -> Metric {
        let mut supported = true;
        let mut per_slice = Vec::with_capacity(slices.len());
        for samples in slices {
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let beyond = ((1.0 - q) * sorted.len() as f64).floor() as u64;
            supported &= !sorted.is_empty() && (q <= 0.5 || beyond >= 10);
            if !sorted.is_empty() {
                per_slice.push(quantile_sorted(&sorted, q));
            }
        }
        Metric {
            supported: Some(supported),
            ..Metric::new(name, unit, Better::Lower, median(&per_slice))
                .samples(slices.iter().map(|s| s.len() as u64).sum())
                .source(source)
        }
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"name\":{},\"unit\":{},\"better\":\"{}\",\"value\":{},\"samples\":{}",
            json_str(self.name),
            json_str(self.unit),
            self.better.label(),
            num(self.value),
            self.samples
        );
        if let Some(ok) = self.supported {
            let _ = write!(s, ",\"percentile_supported\":{ok}");
        }
        if !self.source.is_empty() {
            let _ = write!(s, ",\"source\":{}", json_str(&self.source));
        }
        s.push('}');
        s
    }
}

/// One timed request (or in-process call): when it completed, in ns
/// since the run's epoch, how many frames it carried, its latency, and
/// whether its reply carried a decision.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub end_ns: u64,
    pub frames: u32,
    pub us: f64,
    pub decision: bool,
}

/// Groups `events` by completion time into `n` equal slices of the timed
/// phase `[start_ns, end_ns]`.
pub fn slices(events: &[Event], start_ns: u64, end_ns: u64, n: usize) -> Vec<Vec<Event>> {
    let width = (end_ns.saturating_sub(start_ns) as f64 / n as f64).max(1.0);
    let mut out = vec![Vec::new(); n];
    for e in events {
        let k = (e.end_ns.saturating_sub(start_ns) as f64 / width) as usize;
        out[k.min(n - 1)].push(*e);
    }
    out
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the output always parses.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_list(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics.iter().map(Metric::json).collect();
    format!("[{}]", items.join(","))
}

/// The contract line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        items.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_support_needs_ten_beyond_in_every_slice() {
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        let m = Metric::percentile("p99", "us", &[big.clone(), big.clone()], 0.99, "client");
        assert_eq!((m.supported, m.samples), (Some(true), 2000));
        let m = Metric::percentile("p99", "us", &[big.clone(), small], 0.99, "client");
        assert_eq!(m.supported, Some(false));
        let m = Metric::percentile("p50", "us", &[big, Vec::new()], 0.5, "client");
        assert_eq!((m.supported, m.value), (Some(false), 499.0));
    }

    #[test]
    fn slices_split_the_phase_by_completion_time() {
        let e = |end_ns| Event {
            end_ns,
            frames: 1,
            us: 1.0,
            decision: false,
        };
        let events = [e(100), e(149), e(150), e(199), e(200)];
        let s = slices(&events, 100, 200, 2);
        let ends: Vec<Vec<u64>> = s
            .iter()
            .map(|v| v.iter().map(|e| e.end_ns).collect())
            .collect();
        assert_eq!(ends, vec![vec![100, 149], vec![150, 199, 200]]);
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric::new("setup_s", "s", Better::Lower, 1.5)];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
