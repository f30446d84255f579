//! End-to-end benchmark of the Tailors serving stack: three named
//! closed-loop workloads driven through the public surfaces
//! (`WireTcpServer`/`WireClient`, `ServiceRuntime`, `SimService`), every
//! reply checked against a reference, and a traced variant that reports
//! per-layer metrics. See `README.md` beside this crate.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when
//! any reply, counter ledger or simulated count is wrong.

mod live;
mod mix;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tailors_e2e_bench::{
    beyond, parse_args, percentile, result_line, start_offset, tail_percentile, Metric, Tally,
    USAGE,
};
use tailors_serve::{MailboxStats, RuntimeStats, ServeStats, SimRequest};

use live::{
    closed_loop, cold_loop, cold_sweep, sub_stats, summarize, timed_setup, ClassSummary, Entry,
    Lane, Log, Stack, Window,
};
use mix::{
    analytical_mix, oracle, seeded_suite, sim_request, small_reply_mix, work, Item, Kind,
    Sentinels, CALLERS,
};
use trace::{means, replay_items, replay_requests, write_dump, Recorder, Replay, ITEM, REQUEST};

/// How many times setup is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 31;

/// Where span dumps and stored sentinels go: this crate's directory.
const OUT_DIR: &str = env!("CARGO_MANIFEST_DIR");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Name {
    AnalyticalHot,
    MixedWire,
    SuiteCold,
}

impl Name {
    fn parse(s: &str) -> Option<Name> {
        Some(match s {
            "analytical_hot" => Name::AnalyticalHot,
            "mixed_wire" => Name::MixedWire,
            "suite_cold" => Name::SuiteCold,
            _ => return None,
        })
    }

    /// Closed-loop callers, each on a wire connection of its own except
    /// on `suite_cold`. `analytical_hot` runs one, so a round trip hands
    /// off between three threads in turn; two callers would run six on
    /// two cores and measure the scheduler. `mixed_wire` runs one per
    /// lane.
    fn callers(self) -> usize {
        match self {
            Name::AnalyticalHot => 1,
            Name::MixedWire | Name::SuiteCold => CALLERS,
        }
    }

    /// Whether the whole run stays on one core. On `analytical_hot` each
    /// hand-off then wakes a thread on the core that is already running,
    /// instead of a halted virtual CPU whose wake-up time the host sets.
    fn pinned(self) -> bool {
        self == Name::AnalyticalHot
    }

    /// The class whose rate is `throughput_rps`: on `mixed_wire` the bulk
    /// lane, where a slower bulk decode shows. The latency percentiles
    /// are always the analytical class's, where lane priority shows.
    fn rate_class(self) -> usize {
        match self {
            Name::MixedWire => Kind::Functional.class(),
            _ => Kind::Sim.class(),
        }
    }
}

/// One invocation's inputs: the seeded suite, the request mix with its
/// references, and the callers' workload lists for the cold sweep.
struct Bench {
    name: Name,
    seed: u64,
    suite: Vec<tailors_workloads::Workload>,
    items: Vec<Item>,
    entries: Vec<Entry>,
    sentinels: Sentinels,
    warm: Vec<SimRequest>,
    cold_lists: Vec<Vec<usize>>,
}

/// One live phase: the callers' log, per-class summaries, and the
/// service's lookup counters over the phase.
struct Phase {
    log: Log,
    classes: [ClassSummary; 2],
    stats: ServeStats,
}

impl Bench {
    fn new(name: Name, seed: u64) -> Bench {
        let suite = seeded_suite(seed);
        let items = match name {
            Name::AnalyticalHot | Name::SuiteCold => analytical_mix(&suite),
            Name::MixedWire => [analytical_mix(&suite), small_reply_mix(&suite)].concat(),
        };
        let (refs, sentinels) = oracle(&suite, &items);
        let entries = items
            .iter()
            .zip(refs)
            .map(|(it, reference)| Entry {
                work: work(&suite, it),
                kind: it.kind,
                reference,
            })
            .collect();
        let warm = items
            .iter()
            .map(|it| sim_request(&suite[it.wl], it.variant))
            .collect();
        let first = start_offset(seed, 0, suite.len());
        let cold_lists = (0..CALLERS)
            .map(|c| {
                (0..suite.len())
                    .filter(|p| p % CALLERS == c)
                    .map(|p| (p + first) % suite.len())
                    .collect()
            })
            .collect();
        Bench {
            name,
            seed,
            suite,
            items,
            entries,
            sentinels,
            warm,
            cold_lists,
        }
    }

    /// Runs one live phase over `stack` (absent for `suite_cold`).
    fn phase(&self, stack: Option<&mut Stack>, w: &Window) -> Phase {
        let Some(stack) = stack else {
            let (mut log, stats) = cold_loop(&self.cold_lists, &self.entries, w);
            let classes = summarize(&mut log);
            return Phase {
                log,
                classes,
                stats,
            };
        };
        let before = stack.service.stats();
        let n = self.entries.len();
        let lane = |client, range: std::ops::Range<usize>, caller| Lane {
            offset: start_offset(self.seed, caller, range.len()),
            entries: range.collect(),
            client,
        };
        let clients = &mut stack.clients;
        let lanes: Vec<Lane> = match self.name {
            Name::AnalyticalHot => vec![lane(&mut clients[0], 0..n, 0)],
            Name::MixedWire => {
                let split = 3 * self.suite.len();
                let [a, f] = &mut clients[..] else {
                    unreachable!("one client per caller")
                };
                vec![lane(a, 0..split, 0), lane(f, split..n, 1)]
            }
            Name::SuiteCold => unreachable!("suite_cold has no standing stack"),
        };
        let mut log = closed_loop(lanes, &self.entries, w);
        let classes = summarize(&mut log);
        Phase {
            log,
            classes,
            stats: sub_stats(stack.service.stats(), before),
        }
    }

    /// Builds the workload's standing stack `reps` times (a cold sweep
    /// for `suite_cold`), closing all but the last.
    fn setup(&self, reps: usize, closed: &mut Vec<RuntimeStats>) -> (Option<Stack>, Vec<f64>) {
        if self.name == Name::SuiteCold {
            let now = Window::new(Duration::ZERO, Duration::ZERO, None);
            let (_, times) = timed_setup(
                reps,
                || cold_sweep(&self.cold_lists, &self.entries, &now, None),
                |sweep| {
                    drop(sweep);
                    release_freed_heap();
                },
            );
            return (None, times);
        }
        let (stack, times) = timed_setup(
            reps,
            || Stack::build(&self.warm, self.name.callers()),
            |s| {
                closed.push(s.close());
                release_freed_heap();
            },
        );
        (Some(stack), times)
    }
}

/// Hands the heap pages freed so far back to the kernel, so memory the
/// allocator keeps after the reply oracle does not count in
/// `peak_rss_mib`, and each repeated setup starts from a trimmed heap.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap pages; it
        // has no preconditions and is safe to call from any thread.
        unsafe { malloc_trim(0) };
    }
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the first core it may run on.
fn pin_to_one_core() -> Result<(), String> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(
                pid: std::ffi::c_int,
                size: usize,
                mask: *mut u64,
            ) -> std::ffi::c_int;
            fn sched_setaffinity(
                pid: std::ffi::c_int,
                size: usize,
                mask: *const u64,
            ) -> std::ffi::c_int;
        }
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable 1024-bit CPU set of `size` bytes;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return Err("cannot read the CPU affinity".into());
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return Err("the CPU affinity is empty".into());
        };
        let mut one = [0u64; 16];
        one[word] = mask[word] & mask[word].wrapping_neg();
        // SAFETY: as above; `one` holds exactly one CPU of the old set.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return Err("cannot set the CPU affinity".into());
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    Ok(())
}

/// Resets the process's resident-set high-water mark, so `peak_rss_mib`
/// leaves out the peaks of the reply oracle and of the discarded setups.
fn reset_peak_rss() -> Result<(), String> {
    release_freed_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn describe(label: &str, p: &Phase) {
    for (kind, c) in [
        (Kind::Sim, &p.classes[0]),
        (Kind::Functional, &p.classes[1]),
    ] {
        if c.completed == 0 {
            continue;
        }
        let mut sorted: Vec<f64> = p.log.samples[kind.class()]
            .iter()
            .map(|s| f64::from(s.1))
            .collect();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_percentile(&sorted, &[0.5, 0.9, 0.99])
            .map_or("none".to_string(), |(q, v)| {
                format!("p{} = {v:.1} us", q * 100.0)
            });
        println!(
            "{label} {kind:?}: {} completed, {:.1} req/s, p50 {:.1} / p90 {:.1} / p99 {:.1} us \
             ({} samples beyond p99; highest percentile with >= 10 beyond: {tail})",
            c.completed,
            c.rps,
            c.p50_us,
            c.p90_us,
            c.p99_us,
            beyond(c.completed, 0.99),
        );
    }
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    b: &Bench,
    untraced: &Phase,
    traced: &Phase,
    rec: &Recorder,
    rep: &Replay,
    live_runtime: Option<(RuntimeStats, MailboxStats)>,
    sentinels: &Sentinels,
) -> Vec<Metric> {
    let req = means(&rec.spans, Some(REQUEST));
    let item = means(&rec.spans, Some(ITEM));
    let ns = |m: &BTreeMap<&str, (f64, u64)>, k: &str| m.get(k).map_or(f64::NAN, |v| v.0);
    // Without functional requests in the mix, `run_functional` was
    // called per item instead.
    let run_functional = req
        .get("service.run_functional")
        .or_else(|| item.get("service.run_functional"))
        .map_or(f64::NAN, |v| v.0);
    let count = |k: &str| req.get(k).map_or(0, |v| v.1) as f64;
    let service_leg = {
        let (s, f) = ("service.submit", "service.run_functional");
        let total = count(s) + count(f);
        (req.get(s).map_or(0.0, |v| v.0 * v.1 as f64)
            + req.get(f).map_or(0.0, |v| v.0 * v.1 as f64))
            / total
    };
    let codec = [
        "wire.encode_request",
        "wire.decode_request",
        "wire.encode_reply",
        "wire.decode_reply",
    ]
    .iter()
    .map(|k| ns(&req, k))
    .sum::<f64>();
    let runtime_ns = ns(&req, "runtime.submit");
    let requests = rep.requests.max(1) as f64;
    let reply_bytes = rep.reply_bytes as f64 / requests;
    let (rt, mb) = live_runtime.unwrap_or_default();
    let s = traced.stats;
    let lookups = |h: u64, m: u64| (h + m) as f64;
    let rate = |h: u64, m: u64| h as f64 / lookups(h, m);
    let (u, t) = (&untraced.classes, &traced.classes);
    let (r, l) = (b.name.rate_class(), Kind::Sim.class());
    let mut out = vec![
        metric(
            "wire.enc_req_us",
            "us",
            ns(&req, "wire.encode_request") / 1e3,
        ),
        metric(
            "wire.dec_req_us",
            "us",
            ns(&req, "wire.decode_request") / 1e3,
        ),
        metric(
            "wire.enc_reply_us",
            "us",
            ns(&req, "wire.encode_reply") / 1e3,
        ),
        metric(
            "wire.dec_reply_us",
            "us",
            ns(&req, "wire.decode_reply") / 1e3,
        ),
        metric(
            "wire.dec_reply_ns_per_byte",
            "ns/B",
            ns(&req, "wire.decode_reply") / reply_bytes,
        ),
        metric("wire.req_bytes", "B", rep.req_bytes as f64 / requests),
        metric("wire.reply_bytes", "B", reply_bytes),
        metric("wire.ping_rtt_us", "us", ns(&req, "wire.ping") / 1e3),
        metric("wire.call_us", "us", ns(&req, "wire.call") / 1e3),
        metric(
            "wire.self_us",
            "us",
            (ns(&req, "wire.call") - runtime_ns - codec) / 1e3,
        ),
        metric("runtime.submit_us", "us", runtime_ns / 1e3),
        metric("runtime.self_us", "us", (runtime_ns - service_leg) / 1e3),
        metric("runtime.rejected", "count", rt.rejected as f64),
        metric("runtime.timed_out", "count", rt.timed_out as f64),
        metric("runtime.faulted", "count", rt.faulted as f64),
        metric("mailbox.rejected_full", "count", mb.rejected_full as f64),
        metric("service.submit_us", "us", ns(&req, "service.submit") / 1e3),
        metric(
            "service.plan_hit_rate",
            "ratio",
            rate(s.plan_hits, s.plan_misses),
        ),
        metric(
            "service.plan_lookups",
            "count",
            lookups(s.plan_hits, s.plan_misses),
        ),
        metric(
            "service.profile_hit_rate",
            "ratio",
            rate(s.profile_hits, s.profile_misses),
        ),
        metric(
            "service.profile_lookups",
            "count",
            lookups(s.profile_hits, s.profile_misses),
        ),
        metric("service.run_functional_ms", "ms", run_functional / 1e6),
        metric(
            "functional.engine_ms",
            "ms",
            ns(&item, "functional.engine") / 1e6,
        ),
        metric("tensor.spmspm_ms", "ms", ns(&item, "tensor.spmspm") / 1e6),
        metric("sim.plan_us.N", "us", ns(&item, "sim.plan.N") / 1e3),
        metric("sim.plan_us.P", "us", ns(&item, "sim.plan.P") / 1e3),
        metric("sim.plan_us.OB", "us", ns(&item, "sim.plan.OB") / 1e3),
        metric(
            "sim.run_planned_us",
            "us",
            ns(&item, "sim.run_planned") / 1e3,
        ),
        metric(
            "tensor.generate_ms",
            "ms",
            ns(&item, "tensor.generate") / 1e6,
        ),
        metric(
            "tensor.content_hash_ms",
            "ms",
            ns(&item, "tensor.content_hash") / 1e6,
        ),
        metric("tensor.profile_ms", "ms", ns(&item, "tensor.profile") / 1e6),
    ];
    out.extend(
        sentinels
            .rows()
            .into_iter()
            .map(|(name, unit, v)| metric(name, unit, v)),
    );
    out.extend([
        metric("overhead.throughput_rps", "1/s", t[r].rps - u[r].rps),
        metric("overhead.latency_p50_us", "us", t[l].p50_us - u[l].p50_us),
        metric("overhead.latency_p90_us", "us", t[l].p90_us - u[l].p90_us),
        metric("overhead.latency_p99_us", "us", t[l].p99_us - u[l].p99_us),
        metric("trace.spans", "count", rec.spans.len() as f64),
    ]);
    // The ping round trip stands in for the transport and session loop.
    let ping = ns(&req, "wire.ping");
    let blocking = codec + runtime_ns + ping;
    println!(
        "blocking path: codec {:.1} + service {:.1} + runtime.self {:.1} + ping {:.1} = {:.1} us \
         vs wire.call {:.1} us ({:+.1} %)",
        codec / 1e3,
        service_leg / 1e3,
        (runtime_ns - service_leg) / 1e3,
        ping / 1e3,
        blocking / 1e3,
        ns(&req, "wire.call") / 1e3,
        100.0 * (blocking / ns(&req, "wire.call") - 1.0),
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = Name::parse(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; one of analytical_hot, mixed_wire, suite_cold\n{USAGE}",
            args.workload
        );
        return ExitCode::from(2);
    };
    // suite_cold measures generation; a disk cache would bypass it.
    std::env::remove_var("TAILORS_GEN_CACHE");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} | scale 1/64, {} closed-loop callers, \
         {cores} cores available",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        name.callers()
    );

    let mut problems: Vec<String> = Vec::new();
    if name.pinned() {
        if let Err(e) = pin_to_one_core() {
            problems.push(e);
        }
    }
    let b = Bench::new(name, args.seed);
    let mut closed: Vec<RuntimeStats> = Vec::new();
    // The live phase runs on the first setup's stack; the others are
    // timed after it, so their discarded heap does not count in
    // `peak_rss_mib`.
    let (mut stack, mut setup_times) = b.setup(1, &mut closed);
    if let Err(e) = reset_peak_rss() {
        problems.push(e);
    }

    let seconds = Duration::from_secs(args.seconds);
    let warmup = (seconds / 10).min(Duration::from_secs(1));
    let mut tally = Tally::default();
    let mut first_error = None;
    let mut absorb = |log: &Log, tally: &mut Tally| {
        *tally = tally.merge(log.tally);
        if first_error.is_none() {
            first_error.clone_from(&log.first_error);
        }
    };

    let metrics;
    let sentinels;
    if !args.trace {
        let w = Window::new(warmup, seconds, None);
        let ph = b.phase(stack.as_mut(), &w);
        absorb(&ph.log, &mut tally);
        describe("live", &ph);
        let peak_rss = peak_rss_mib();
        if let Some(s) = stack.take() {
            closed.push(s.close());
        }
        let (last, more) = b.setup(SETUP_REPS - 1, &mut closed);
        closed.extend(last.map(Stack::close));
        setup_times.extend(more);
        let setup_s = {
            let mut t = setup_times.clone();
            t.sort_by(f64::total_cmp);
            percentile(&t, 0.5).expect("setup ran")
        };
        println!("setup_s {setup_s:.4} s (median of {SETUP_REPS}: {setup_times:.4?})");
        let (rate, lat) = (ph.classes[name.rate_class()], ph.classes[Kind::Sim.class()]);
        if name == Name::MixedWire {
            let f = &ph.classes[Kind::Functional.class()];
            println!(
                "functional_rps {:.3} 1/s, functional_p50_ms {:.3} ms (mixed_wire bulk lane)",
                f.rps,
                f.p50_us / 1e3
            );
        }
        sentinels = b.sentinels;
        metrics = vec![
            metric("throughput_rps", "1/s", rate.rps),
            metric("latency_p50_us", "us", lat.p50_us),
            metric("latency_p90_us", "us", lat.p90_us),
            metric("latency_p99_us", "us", lat.p99_us),
            metric("setup_s", "s", setup_s),
            metric("peak_rss_mib", "MiB", peak_rss),
        ];
    } else {
        let half = seconds / 2;
        let untraced = b.phase(stack.as_mut(), &Window::new(warmup, half, None));
        let epoch = Instant::now();
        let mut traced = b.phase(
            stack.as_mut(),
            &Window::new(Duration::ZERO, half, Some(epoch)),
        );
        absorb(&untraced.log, &mut tally);
        absorb(&traced.log, &mut tally);
        describe("untraced", &untraced);
        describe("traced", &traced);
        let live_runtime = stack.take().map(|s| {
            let mailbox = s.runtime.mailbox_stats();
            let stats = s.close();
            closed.push(stats);
            (stats, mailbox)
        });
        let mut rec = Recorder {
            epoch,
            spans: std::mem::take(&mut traced.log.spans),
        };
        let mut rep = Replay::default();
        let mut replay_stack = Stack::build(&b.warm, 1);
        replay_requests(
            &mut replay_stack,
            &b.entries,
            start_offset(b.seed, 0, b.entries.len()),
            (Duration::from_secs(1), half),
            &mut rec,
            &mut rep,
        );
        replay_items(
            &replay_stack,
            &b.suite,
            &b.items,
            &b.entries,
            &mut rec,
            &mut rep,
        );
        closed.push(replay_stack.close());
        tally = tally.merge(rep.tally);
        if let Some(e) = rep.first_error.clone() {
            problems.push(format!("replay: {e}"));
        }
        // The analytical sentinels must agree between the oracle and the
        // replayed layer calls.
        let (o, r) = (b.sentinels, rep.sentinels);
        if o.cycles_sum.to_bits() != r.cycles_sum.to_bits()
            || o.ob_speedup_geomean.to_bits() != r.ob_speedup_geomean.to_bits()
        {
            problems.push(format!(
                "replayed simulated counts {r:?} differ from the oracle's {o:?}"
            ));
        }
        sentinels = rep.sentinels;
        let dump = Path::new(OUT_DIR)
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match write_dump(&dump, &rec.spans) {
            Ok(()) => println!("span dump: {} ({} spans)", dump.display(), rec.spans.len()),
            Err(e) => problems.push(format!("cannot write span dump {}: {e}", dump.display())),
        }
        metrics = per_layer(&b, &untraced, &traced, &rec, &rep, live_runtime, &sentinels);
    }

    if let Some(e) = first_error {
        problems.push(format!("first failed request: {e}"));
    }
    for s in &closed {
        if s.accounted() != s.submitted {
            problems.push(format!("runtime ledger does not balance: {s:?}"));
        }
    }
    for (n, _, v) in sentinels.rows() {
        println!("sentinel {n} = {v}");
    }
    let key = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    if let Err(e) = sentinels.check_persisted(&Path::new(OUT_DIR).join(".sentinels"), &key) {
        problems.push(e);
    }
    println!(
        "error_rate {} ({} failed / {} attempted: {} wire errors, {} serve errors, {} mismatched)",
        tally.error_rate(),
        tally.failed,
        tally.attempted,
        tally.wire,
        tally.serve,
        tally.mismatched
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            problems.push(format!("{} was not measured", m.name));
        }
    }
    for p in &problems {
        eprintln!("FAIL: {p}");
    }
    let correct = problems.is_empty() && tally.failed == 0;
    println!("{}", result_line(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
