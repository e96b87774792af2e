//! Order statistics over rounds, and the metric records the harness
//! prints.
//!
//! Every timing the benchmark reports is computed **per round** (a
//! workload's measured stream is cut into rounds of a fixed op count,
//! the first of which is a discarded warm-up). The per-round statistic
//! is itself a median or a percentile of thousands of latencies; what
//! is reported across rounds is its **best quartile** — the 25th
//! percentile of a lower-is-better statistic, the 75th of a
//! higher-is-better one — with all three round quartiles and the
//! sample count recorded beside it.
//!
//! Why not the median over rounds: the reference box (a 2-vCPU VM)
//! flips every few seconds between a fast and a ~45% slower state that
//! no counter of ours explains (on-CPU time per op rises with it, steal
//! time does not). Ten `guard_strict` runs gave median-over-rounds p50s
//! of 32.4–44.5 µs — whichever state held more than half the rounds —
//! but lower quartiles of 30.4–34.3 µs. Interference only ever slows a
//! round down, so the best quartile estimates the undisturbed machine,
//! and a quartile of ~30 rounds does not hang on one lucky round the
//! way a minimum would. Set-up times, with three samples, stay medians.

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending slice, nearest-rank.
/// Returns 0 for an empty slice so an idle op kind reads as zero
/// rather than panicking.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` of unsorted values by linear interpolation
/// between closest ranks (zeros when empty).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Nanoseconds → microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Which way a metric improves; picks its best quartile over rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric: the value, its unit, and how it was obtained.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Round quartiles of the per-round statistic (all equal to
    /// `value` for a metric measured once).
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Rounds the quartiles were taken over (1 for a single measurement).
    pub rounds: usize,
    /// Individual observations behind the value, over all rounds.
    pub samples: usize,
}

impl Metric {
    /// A metric measured once (a count, a size, a whole-window ratio).
    pub fn single(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            q1: value,
            median: value,
            q3: value,
            rounds: 1,
            samples,
        }
    }

    /// The best quartile over rounds of a per-round statistic (see the
    /// module docs). `per_round` holds one `(statistic, samples)` pair
    /// per measured round.
    pub fn over_rounds(
        name: &'static str,
        unit: &'static str,
        better: Better,
        per_round: &[(f64, usize)],
    ) -> Metric {
        let values: Vec<f64> = per_round.iter().map(|(v, _)| *v).collect();
        let (q1, median, q3) = quartiles(&values);
        Metric {
            name,
            unit,
            value: match better {
                Better::Lower => q1,
                Better::Higher => q3,
            },
            q1,
            median,
            q3,
            rounds: per_round.len(),
            samples: per_round.iter().map(|(_, n)| n).sum(),
        }
    }

    /// The median of a few repeated measurements (set-up, boot).
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, median, q3) = quartiles(samples);
        Metric {
            name,
            unit,
            value: median,
            q1,
            median,
            q3,
            rounds: samples.len(),
            samples: samples.len(),
        }
    }
}

/// A float as JSON: finite values with all their digits, anything
/// else as 0 (JSON has no NaN, and a missing layer reads as zero).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn rounds_report_their_best_quartile() {
        let per_round: Vec<(f64, usize)> =
            [5.0, 1.0, 3.0, 2.0, 4.0].iter().map(|v| (*v, 10)).collect();
        let lat = Metric::over_rounds("l", "us", Better::Lower, &per_round);
        assert_eq!(
            (lat.value, lat.median, lat.rounds, lat.samples),
            (2.0, 3.0, 5, 50)
        );
        assert_eq!(
            Metric::over_rounds("t", "1/s", Better::Higher, &per_round).value,
            4.0
        );
        assert_eq!(Metric::median_of("s", "s", &[3.0, 1.0, 2.0]).value, 2.0);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
