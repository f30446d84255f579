//! The benchmark's own logic, kept free of the system under test so it
//! can be unit-tested: command-line parsing, workload-seed mixing,
//! percentile selection, failure counting, and the result line.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// The tail rule: a percentile is reported as a tail only when at least
/// this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// SplitMix64 finalizer (Steele et al.): a small, well-distributed bit
/// mixer for deriving seeds; not a security primitive.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes the benchmark's `--seed` into a suite entry's own generator
/// seed, so every seed draws a fresh tensor for every workload while one
/// seed always draws the same ones.
pub fn mix_seed(base: u64, seed: u64) -> u64 {
    splitmix64(base ^ splitmix64(seed))
}

/// An order-sensitive 64-bit fingerprint of `words`: a reply payload is
/// compared bitwise against its reference through the fingerprints of
/// their raw arrays (`f64`s by bit pattern), so the reference need not
/// be kept whole.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x243f_6a88_85a3_08d3, |h, w| splitmix64(h ^ w))
}

/// Where caller `caller` starts cycling a request mix of `len` entries
/// under `seed`. Callers of one seed start at distinct offsets whenever
/// the mix has room for them.
///
/// # Panics
///
/// Panics if `len == 0`.
pub fn start_offset(seed: u64, caller: usize, len: usize) -> usize {
    assert!(len > 0, "a request mix is never empty");
    let base = (splitmix64(seed) % len as u64) as usize;
    (base + caller * len.div_ceil(2)) % len
}

/// The nearest-rank `q`-quantile of ascending `sorted` samples (`None`
/// when there are none).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(r.clamp(1, n))
}

/// The highest of `candidates` (quantiles, in any order) with at least
/// [`MIN_BEYOND`] samples beyond it, with its value.
pub fn tail_percentile(sorted: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    let mut qs = candidates.to_vec();
    qs.sort_by(|a, b| b.total_cmp(a));
    qs.into_iter()
        .find(|&q| beyond(sorted.len(), q) >= MIN_BEYOND)
        .and_then(|q| percentile(sorted, q).map(|v| (q, v)))
}

/// How one timed request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A reply whose payload equals its reference.
    Ok,
    /// A transport or protocol failure (`WireError`).
    Wire,
    /// A typed refusal or fault from the server (`ServeError`).
    Serve,
    /// A reply whose payload differs from its reference.
    Mismatch,
}

/// Attempted and failed requests. Every outcome other than
/// [`Outcome::Ok`] is a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that did not end in [`Outcome::Ok`].
    pub failed: u64,
    /// Failures that were `WireError`s.
    pub wire: u64,
    /// Failures that were `ServeError`s.
    pub serve: u64,
    /// Replies that differed from their reference.
    pub mismatched: u64,
}

impl Tally {
    /// Counts one request.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => return,
            Outcome::Wire => self.wire += 1,
            Outcome::Serve => self.serve += 1,
            Outcome::Mismatch => self.mismatched += 1,
        }
        self.failed += 1;
    }

    /// The sum of two tallies.
    pub fn merge(self, o: Tally) -> Tally {
        Tally {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
            wire: self.wire + o.wire,
            serve: self.serve + o.serve,
            mismatched: self.mismatched + o.mismatched,
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The benchmark's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// Seconds the measured phase runs.
    pub seconds: u64,
    /// Whether to run the traced variant (per-layer metrics).
    pub trace: bool,
}

/// The usage line printed on a bad command line.
pub const USAGE: &str =
    "usage: e2e_bench --workload <name> --seed <n> --seconds <1..=600> --trace <0|1>";

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
/// (any order; `--seed` defaults to 0, `--seconds` to 10, `--trace` to 0).
///
/// # Errors
///
/// A message naming the offending flag or value.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its value and unit. A non-finite value
/// cannot be written as JSON; it is written as `null` and the line is
/// marked incorrect.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct && finite,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(tail_percentile(&xs, &[0.9, 0.99]), Some((0.99, 990.0)));
        // 999 samples: p99 has 9 beyond, so the tail falls back to p90.
        assert_eq!(
            tail_percentile(&xs[..999], &[0.99, 0.9]),
            Some((0.9, 900.0))
        );
        // 10 samples: not even the median has 10 beyond it.
        assert_eq!(tail_percentile(&xs[..10], &[0.5, 0.9, 0.99]), None);
        assert_eq!(tail_percentile(&xs[..20], &[0.5, 0.9]), Some((0.5, 10.0)));
    }

    #[test]
    fn every_non_ok_outcome_is_one_failure() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Wire,
            Outcome::Ok,
            Outcome::Serve,
            Outcome::Mismatch,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 6);
        assert_eq!(t.failed, 3);
        assert_eq!((t.wire, t.serve, t.mismatched), (1, 1, 1));
        assert!((t.error_rate() - 0.5).abs() < 1e-12);
        let sum = t.merge(t);
        assert_eq!((sum.attempted, sum.failed, sum.mismatched), (12, 6, 2));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn seed_mixing_is_deterministic_and_seed_sensitive() {
        assert_eq!(mix_seed(101, 7), mix_seed(101, 7));
        assert_ne!(mix_seed(101, 7), mix_seed(101, 8));
        assert_ne!(mix_seed(101, 7), mix_seed(102, 7));
        // Distinct suite entries stay distinct under one seed.
        let mixed: std::collections::BTreeSet<u64> =
            (101..123).map(|base| mix_seed(base, 3)).collect();
        assert_eq!(mixed.len(), 22);
    }

    #[test]
    fn fingerprints_see_every_bit_and_the_order() {
        let words = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let a = fingerprint(words(&[1.0, 2.0, 0.0]));
        assert_eq!(a, fingerprint(words(&[1.0, 2.0, 0.0])));
        assert_ne!(a, fingerprint(words(&[1.0, 2.0, -0.0])));
        assert_ne!(a, fingerprint(words(&[2.0, 1.0, 0.0])));
        assert_ne!(a, fingerprint(words(&[1.0, 2.0])));
    }

    #[test]
    fn start_offsets_are_in_range_and_callers_differ() {
        for seed in 0..50 {
            for len in [1, 2, 8, 44, 66] {
                let a = start_offset(seed, 0, len);
                let b = start_offset(seed, 1, len);
                assert!(a < len && b < len);
                assert_eq!(a, start_offset(seed, 0, len));
                if len > 1 {
                    assert_ne!(a, b, "seed {seed} len {len}");
                }
            }
        }
        let firsts: std::collections::BTreeSet<usize> =
            (0..50).map(|s| start_offset(s, 0, 66)).collect();
        assert!(firsts.len() > 10, "offsets must move with the seed");
    }

    #[test]
    fn command_line_parses_and_rejects() {
        let a = args("--workload mixed_wire --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "mixed_wire".into(),
                seed: 9,
                seconds: 12,
                trace: true,
            }
        );
        assert_eq!(args("--workload x").unwrap().seconds, 10);
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --seed").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut t = Tally::default();
        t.record(Outcome::Ok);
        let m = [
            Metric {
                name: "latency_p50_us",
                unit: "us",
                value: 121.5,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            },
        ];
        assert_eq!(
            result_line(true, &t, &m),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_p50_us\": {\"value\": 121.5, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let bad = [Metric {
            name: "x",
            unit: "s",
            value: f64::NAN,
        }];
        assert!(result_line(true, &t, &bad).starts_with("{\"correct\": false"));
    }
}
