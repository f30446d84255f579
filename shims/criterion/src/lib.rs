//! Offline, API-compatible shim for the subset of `criterion` this
//! workspace uses: benchmark groups, `bench_function` / `bench_with_input`,
//! `Throughput`, `BenchmarkId` and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement model: one calibration run sizes the per-sample iteration
//! count so a sample lasts ~`SAMPLE_TARGET`; the reported figure is the
//! median of `sample_size` samples (mean, min and max are also kept). With
//! `--test` on the command line (what `cargo test` passes to a
//! `harness = false` bench target) every benchmark body runs exactly once,
//! untimed. A positional (non-flag) argument filters benchmarks by
//! substring of their id, as in criterion: `cargo bench --bench intersect
//! -- planner/` runs only the `planner/*` rows (setup code outside the
//! bodies still runs).
//!
//! Machine-readable output: when the `CRITERION_JSON` environment variable
//! names a path, `criterion_main!` writes every measurement there as a JSON
//! array (see `DESIGN.md` for the schema) — unless a filter is set, so a
//! partial run never overwrites a full one.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Wall-clock time one sample aims for.
const SAMPLE_TARGET: Duration = Duration::from_millis(150);
/// Default number of samples per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 10;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A two-part benchmark identifier (`function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a displayable parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl core::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/benchmark` path.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Elements (or bytes) per iteration, if the group declared throughput.
    pub throughput: Option<u64>,
}

impl Measurement {
    /// Elements processed per second, when throughput was declared.
    pub fn elements_per_sec(&self) -> Option<f64> {
        self.throughput.map(|n| n as f64 / (self.median_ns * 1e-9))
    }
}

/// The benchmark manager handed to every `criterion_group!` function.
#[derive(Debug, Default)]
pub struct Criterion {
    measurements: Vec<Measurement>,
    test_mode: bool,
    filter: Option<String>,
}

impl Criterion {
    /// Creates a manager from the process arguments: `--test` (passed by
    /// `cargo test` to `harness = false` targets) runs each body once,
    /// untimed; the first non-flag argument is a substring filter on
    /// benchmark ids. Other flags (`--bench`) are ignored.
    pub fn new() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut c = Criterion::default();
        for arg in args {
            if arg == "--test" {
                c.test_mode = true;
            } else if !arg.starts_with('-') && c.filter.is_none() {
                c.filter = Some(arg);
            }
        }
        c
    }

    /// The benchmark-id filter, if one was given.
    pub fn filter(&self) -> Option<&str> {
        self.filter.as_deref()
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            throughput: None,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run_one(id, DEFAULT_SAMPLE_SIZE, None, f);
        self
    }

    /// All measurements recorded so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    fn run_one<F>(&mut self, id: String, sample_size: usize, throughput: Option<u64>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if self
            .filter
            .as_ref()
            .is_some_and(|f| !id.contains(f.as_str()))
        {
            return;
        }
        let mut b = Bencher {
            test_mode: self.test_mode,
            sample_size,
            samples_ns: Vec::new(),
            iters_per_sample: 0,
        };
        f(&mut b);
        if self.test_mode {
            eprintln!("test {id} ... ok (ran once, untimed)");
            return;
        }
        let mut ns = b.samples_ns;
        if ns.is_empty() {
            return;
        }
        ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = if ns.len() % 2 == 1 {
            ns[ns.len() / 2]
        } else {
            (ns[ns.len() / 2 - 1] + ns[ns.len() / 2]) / 2.0
        };
        let m = Measurement {
            id,
            median_ns: median,
            mean_ns: ns.iter().sum::<f64>() / ns.len() as f64,
            min_ns: ns[0],
            max_ns: ns[ns.len() - 1],
            iters_per_sample: b.iters_per_sample,
            samples: ns.len(),
            throughput,
        };
        let rate = match m.elements_per_sec() {
            Some(r) => format!("  ({:.3} Melem/s)", r / 1e6),
            None => String::new(),
        };
        println!(
            "{:<44} time: [{} .. {} .. {}]{}",
            m.id,
            fmt_ns(m.min_ns),
            fmt_ns(m.median_ns),
            fmt_ns(m.max_ns),
            rate
        );
        self.measurements.push(m);
    }
}

/// A group of related benchmarks sharing sample-size and throughput
/// settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Declares the work performed per iteration.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(match t {
            Throughput::Elements(n) | Throughput::Bytes(n) => n,
        });
        self
    }

    /// Benchmarks `f` under `group/name`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        self.criterion
            .run_one(full, self.sample_size, self.throughput, f);
        self
    }

    /// Benchmarks `f` with a borrowed input under `group/id`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        self.criterion
            .run_one(full, self.sample_size, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API parity; no-op in the shim).
    pub fn finish(&mut self) {}
}

/// Accepts both `&str` names and [`BenchmarkId`]s.
pub trait IntoBenchmarkId {
    /// The rendered benchmark id.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

/// Drives timed iterations of one benchmark body.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    samples_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Calibrates, then times `routine` over `sample_size` samples.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        if self.test_mode {
            std::hint::black_box(routine());
            return;
        }
        // Calibration: one run to size the sample batches.
        let t0 = Instant::now();
        std::hint::black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        self.iters_per_sample = iters;
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let ns = t.elapsed().as_nanos() as f64 / iters as f64;
            self.samples_ns.push(ns);
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Writes every measurement as a JSON array to `path`.
///
/// Schema: `[{"id", "median_ns", "mean_ns", "min_ns", "max_ns",
/// "iters_per_sample", "samples", "throughput_elems",
/// "elements_per_sec"}, ...]`.
pub fn write_json(measurements: &[Measurement], path: &str) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, m) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        let tp = match m.throughput {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        };
        let eps = match m.elements_per_sec() {
            Some(e) => format!("{e:.1}"),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "  {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"iters_per_sample\": {}, \"samples\": {}, \"throughput_elems\": {}, \"elements_per_sec\": {}}}{}\n",
            m.id.replace('"', "\\\""),
            m.median_ns,
            m.mean_ns,
            m.min_ns,
            m.max_ns,
            m.iters_per_sample,
            m.samples,
            tp,
            eps,
            sep
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Groups benchmark functions under one name, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Defines `main()`: runs every group, then honors `CRITERION_JSON`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::new();
            $($group(&mut c);)+
            if let Ok(path) = std::env::var("CRITERION_JSON") {
                if let Some(filter) = c.filter() {
                    eprintln!("filter {filter:?} set: not writing {path} (a partial run would overwrite it)");
                    return;
                }
                match $crate::write_json(c.measurements(), &path) {
                    Ok(()) => {
                        eprintln!("wrote {} measurements to {path}", c.measurements().len())
                    }
                    Err(e) => {
                        eprintln!("CRITERION_JSON write to {path} failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_formats() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3).throughput(Throughput::Elements(100));
            g.bench_function("noop", |b| b.iter(|| 1 + 1));
            g.bench_with_input(BenchmarkId::new("param", 7), &7, |b, &x| b.iter(|| x * 2));
            g.finish();
        }
        assert_eq!(c.measurements().len(), 2);
        assert_eq!(c.measurements()[0].id, "g/noop");
        assert_eq!(c.measurements()[1].id, "g/param/7");
        assert!(c.measurements()[0].median_ns >= 0.0);
        assert!(c.measurements()[0].elements_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn positional_argument_filters_by_id_substring() {
        let mut c = Criterion::from_args(["--bench", "planner/", "ignored"].map(String::from));
        assert_eq!(c.filter(), Some("planner/"));
        let mut ran = Vec::new();
        {
            let mut g = c.benchmark_group("planner");
            g.sample_size(3);
            g.bench_function("auto", |b| {
                ran.push("planner/auto");
                b.iter(|| 1 + 1)
            });
            g.finish();
        }
        c.bench_function("spmspm/spa", |b| {
            ran.push("spmspm/spa");
            b.iter(|| 1 + 1)
        });
        assert_eq!(ran, ["planner/auto"], "non-matching bodies never run");
        assert_eq!(c.measurements().len(), 1);
        assert_eq!(c.measurements()[0].id, "planner/auto");

        let unfiltered = Criterion::from_args(["--bench", "--test"].map(String::from));
        assert_eq!(unfiltered.filter(), None);
        assert!(unfiltered.test_mode);
    }

    #[test]
    fn json_schema_is_stable() {
        let m = Measurement {
            id: "a/b".into(),
            median_ns: 10.0,
            mean_ns: 11.0,
            min_ns: 9.0,
            max_ns: 13.0,
            iters_per_sample: 100,
            samples: 5,
            throughput: Some(64),
        };
        let dir = std::env::temp_dir().join("criterion_shim_test.json");
        let path = dir.to_str().unwrap();
        write_json(&[m], path).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.starts_with("[\n"));
        assert!(body.contains("\"id\": \"a/b\""));
        assert!(body.contains("\"median_ns\": 10.0"));
        assert!(body.trim_end().ends_with(']'));
    }
}
