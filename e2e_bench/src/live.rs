//! The serving stack under test and the closed loops that drive it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tailors_e2e_bench::{percentile, Outcome, Tally};
use tailors_serve::{
    Reply, RuntimeConfig, RuntimeStats, ServeStats, ServiceRuntime, SimRequest, SimService,
    WireClient, WireTcpServer, Work,
};

use crate::mix::{Kind, Reference, CALLERS};
use crate::trace::Span;

/// One request of a run: what is sent, its class, and the payload it
/// must come back with.
pub struct Entry {
    pub work: Work,
    pub kind: Kind,
    pub reference: Reference,
}

/// The public serving surfaces, wired as a deployment would: a
/// [`SimService`] behind a [`ServiceRuntime`] (default config, 2
/// workers) behind a [`WireTcpServer`] on loopback, with one
/// [`WireClient`] per connection.
pub struct Stack {
    pub service: Arc<SimService>,
    pub runtime: Arc<ServiceRuntime>,
    pub server: WireTcpServer,
    pub clients: Vec<WireClient>,
}

impl Stack {
    /// Builds the stack with `connections` clients and makes it plan-hot
    /// for `warm`.
    pub fn build(warm: &[SimRequest], connections: usize) -> Stack {
        let service = Arc::new(SimService::new());
        let runtime = Arc::new(ServiceRuntime::over(
            Arc::clone(&service),
            RuntimeConfig::default(),
        ));
        let server = WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0")
            .expect("binding an ephemeral loopback port");
        let clients = (0..connections)
            .map(|_| WireClient::connect(server.addr()).expect("connecting over loopback"))
            .collect();
        service.submit_batch(warm, CALLERS);
        Stack {
            service,
            runtime,
            server,
            clients,
        }
    }

    /// Closes clients, server and runtime; returns the runtime's final
    /// outcome counters.
    pub fn close(mut self) -> RuntimeStats {
        self.clients.clear();
        self.server.stop();
        self.runtime.shutdown().stats
    }
}

/// Builds with `build` `reps` times, timing each; keeps the last result
/// and passes each earlier one to `discard` (untimed) before the next
/// build starts. Returns it with the setup times in seconds.
pub fn timed_setup<T>(
    reps: usize,
    build: impl Fn() -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one setup repetition"), times)
}

/// The timing window of a live phase: requests started before `start`
/// warm up and are not timed; timing lasts `length` from where it
/// begins. Spans are recorded relative to `epoch` when tracing.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub length: Duration,
    pub epoch: Option<Instant>,
}

impl Window {
    /// A window opening after `warm` and lasting `length`.
    pub fn new(warm: Duration, length: Duration, epoch: Option<Instant>) -> Window {
        Window {
            start: Instant::now() + warm,
            length,
            epoch,
        }
    }
}

/// What callers saw.
#[derive(Default)]
pub struct Log {
    /// Completion time and latency (µs) of timed, correct replies, per
    /// class.
    pub samples: [Vec<Sample>; 2],
    pub tally: Tally,
    pub spans: Vec<Span>,
    /// The timed stretches, one per caller (one for a cold loop).
    pub stretches: Vec<Stretch>,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

/// One timed reply: when it completed, in µs after the window opened, and
/// its latency in µs. Eight bytes, so the callers' log adds little to the
/// resident set that `peak_rss_mib` reports.
pub type Sample = (u32, f32);

/// `t` in whole µs after `origin` (0 when earlier).
fn micros(origin: Instant, t: Instant) -> u32 {
    t.saturating_duration_since(origin).as_micros() as u32
}

/// A timed stretch of whole sweeps: correct replies per class completed
/// between `begin` and `end`.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    pub begin: Instant,
    pub end: Instant,
    pub done: [usize; 2],
}

impl Stretch {
    fn at(t: Instant) -> Stretch {
        Stretch {
            begin: t,
            end: t,
            done: [0; 2],
        }
    }
}

impl Log {
    /// Counts one finished request started at `t0`; a timed one also
    /// adds its latency, its span when tracing, and its completion to
    /// `stretch`.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        stretch: Option<&mut Stretch>,
        w: &Window,
        rid: u64,
        layer: &'static str,
        kind: Kind,
        (t0, t1): (Instant, Instant),
        outcome: Outcome,
        error: impl FnOnce() -> String,
    ) {
        self.tally.record(outcome);
        if outcome != Outcome::Ok && self.first_error.is_none() {
            self.first_error = Some(error());
        }
        let Some(stretch) = stretch else { return };
        if outcome == Outcome::Ok {
            let latency_us = (t1 - t0).as_secs_f64() * 1e6;
            self.samples[kind.class()].push((micros(w.start, t1), latency_us as f32));
            stretch.done[kind.class()] += 1;
        }
        stretch.end = t1;
        if let Some(epoch) = w.epoch {
            self.spans.push(Span::new(rid, layer, None, epoch, t0, t1));
        }
    }

    fn merge(mut self, o: Log) -> Log {
        for (a, b) in self.samples.iter_mut().zip(o.samples) {
            a.extend(b);
        }
        self.tally = self.tally.merge(o.tally);
        self.spans.extend(o.spans);
        self.stretches.extend(o.stretches);
        self.first_error = self.first_error.or(o.first_error);
        self
    }
}

/// One caller's traffic: its wire connection, the entries it cycles (one
/// sweep), and where it starts.
pub struct Lane<'a> {
    pub client: &'a mut WireClient,
    pub entries: Vec<usize>,
    pub offset: usize,
}

/// Runs the closed loop: each lane on its own thread sends its next
/// request only after the previous reply arrived. A caller times whole
/// sweeps of its lane, so every entry weighs the same in its rate and
/// percentiles: from its first sweep boundary at or after the window
/// opens to the first boundary at least the window's length later.
pub fn closed_loop(lanes: Vec<Lane<'_>>, entries: &[Entry], w: &Window) -> Log {
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(caller, lane)| {
                s.spawn(move || {
                    let mut log = Log::default();
                    let mut stretch = None;
                    let len = lane.entries.len();
                    for (seq, i) in (lane.offset..).enumerate() {
                        if seq % len == 0 {
                            let now = Instant::now();
                            match &stretch {
                                None if now >= w.start => stretch = Some(Stretch::at(now)),
                                Some(s) if now >= s.begin + w.length => break,
                                _ => {}
                            }
                        }
                        let e = &entries[lane.entries[i % len]];
                        let t0 = Instant::now();
                        let res = lane.client.call(&e.work);
                        let t1 = Instant::now();
                        let (outcome, err) = match res {
                            Ok(Ok(r)) if e.reference.matches(&r) => (Outcome::Ok, String::new()),
                            Ok(Ok(_)) => {
                                (Outcome::Mismatch, "reply differs from its reference".into())
                            }
                            Ok(Err(e)) => (Outcome::Serve, e.to_string()),
                            Err(e) => (Outcome::Wire, e.to_string()),
                        };
                        let rid = ((caller as u64) << 32) | seq as u64;
                        let timed = stretch.as_mut();
                        log.record(
                            timed,
                            w,
                            rid,
                            "wire.call",
                            e.kind,
                            (t0, t1),
                            outcome,
                            || err,
                        );
                    }
                    log.stretches.extend(stretch);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller threads do not panic"))
            .fold(Log::default(), Log::merge)
    })
}

/// The cold suite sweep: a fresh [`SimService`]; each caller submits
/// N, P, OB of its workloads in that order (entries `3w..3w+3`). Timed
/// when `stretch` is given. Returns the callers' log and the fresh
/// service's counters.
pub fn cold_sweep(
    lists: &[Vec<usize>],
    entries: &[Entry],
    w: &Window,
    stretch: Option<Stretch>,
) -> (Log, ServeStats) {
    let service = SimService::new();
    let log = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(caller, list)| {
                let service = &service;
                let mut stretch = stretch;
                s.spawn(move || {
                    let mut log = Log::default();
                    let sweep = list.iter().flat_map(|&wl| &entries[3 * wl..3 * wl + 3]);
                    for (seq, e) in sweep.enumerate() {
                        let Work::Sim(req) = &e.work else {
                            unreachable!("the cold sweep is analytical")
                        };
                        let t0 = Instant::now();
                        let resp = service.submit(req);
                        let t1 = Instant::now();
                        let outcome = if e.reference.matches(&Reply::Sim(resp)) {
                            Outcome::Ok
                        } else {
                            Outcome::Mismatch
                        };
                        let rid = ((caller as u64) << 32) | seq as u64;
                        let timed = stretch.as_mut();
                        log.record(
                            timed,
                            w,
                            rid,
                            "service.submit",
                            e.kind,
                            (t0, t1),
                            outcome,
                            || "reply differs from its reference".into(),
                        );
                    }
                    log.stretches.extend(stretch);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller threads do not panic"))
            .fold(Log::default(), Log::merge)
    });
    (log, service.stats())
}

/// Repeats [`cold_sweep`] until the window has lasted its length; sweeps that start
/// before the window opens warm up. The timed sweeps form one stretch.
/// Returns the log and the summed counters of the timed sweeps' services.
pub fn cold_loop(lists: &[Vec<usize>], entries: &[Entry], w: &Window) -> (Log, ServeStats) {
    let mut log = Log::default();
    let mut stats = ServeStats::default();
    let mut total: Option<Stretch> = None;
    loop {
        let t0 = Instant::now();
        if t0 >= w.start + w.length {
            break;
        }
        let timed = t0 >= w.start;
        let (mut l, s) = cold_sweep(lists, entries, w, timed.then(|| Stretch::at(t0)));
        for part in l.stretches.drain(..) {
            let t = total.get_or_insert(Stretch::at(t0));
            t.end = t.end.max(part.end);
            t.done[0] += part.done[0];
            t.done[1] += part.done[1];
        }
        log = log.merge(l);
        if timed {
            stats = add_stats(stats, s);
        }
    }
    log.stretches.extend(total);
    (log, stats)
}

/// Counter-wise `a + b` of the lookup counters.
pub fn add_stats(a: ServeStats, b: ServeStats) -> ServeStats {
    ServeStats {
        requests: a.requests + b.requests,
        functional_requests: a.functional_requests + b.functional_requests,
        profile_hits: a.profile_hits + b.profile_hits,
        profile_misses: a.profile_misses + b.profile_misses,
        plan_hits: a.plan_hits + b.plan_hits,
        plan_misses: a.plan_misses + b.plan_misses,
        ..ServeStats::default()
    }
}

/// Counter-wise `after - before` of the lookup counters.
pub fn sub_stats(after: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        requests: after.requests - before.requests,
        functional_requests: after.functional_requests - before.functional_requests,
        profile_hits: after.profile_hits - before.profile_hits,
        profile_misses: after.profile_misses - before.profile_misses,
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        ..ServeStats::default()
    }
}

/// Latency and throughput of one request class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassSummary {
    pub completed: usize,
    pub rps: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

/// Replies per chunk: the completion stream of a class is cut into
/// consecutive chunks of this many replies, and each latency percentile
/// is the mean of its per-chunk values. A shared host runs the VM fast
/// or slow for seconds at a time; the mean weighs the two by how long
/// each lasted, where a median or a pooled percentile jumps from one to
/// the other. A chunk leaves 10 samples beyond p99.
pub const CHUNK: usize = 1000;

/// Per-class summaries of a finished loop: the rate is correct replies
/// over each timed stretch, summed over stretches. A class with at least
/// four chunks of replies reports each percentile as its mean over
/// chunks; a smaller one reports it over every reply.
pub fn summarize(log: &mut Log) -> [ClassSummary; 2] {
    std::array::from_fn(|class| {
        let rps = log
            .stretches
            .iter()
            .map(|s| s.done[class] as f64 / (s.end - s.begin).as_secs_f64())
            .sum();
        let samples = &mut log.samples[class];
        if samples.len() < 4 * CHUNK {
            return ClassSummary::of(samples, rps);
        }
        samples.sort_by_key(|s| s.0);
        let chunks: Vec<ClassSummary> = samples
            .chunks_exact(CHUNK)
            .map(|chunk| ClassSummary::of(chunk, rps))
            .collect();
        let mean =
            |f: fn(&ClassSummary) -> f64| chunks.iter().map(f).sum::<f64>() / chunks.len() as f64;
        ClassSummary {
            completed: samples.len(),
            rps,
            p50_us: mean(|c| c.p50_us),
            p90_us: mean(|c| c.p90_us),
            p99_us: mean(|c| c.p99_us),
        }
    })
}

impl ClassSummary {
    /// The figures of `samples` completed at `rps`.
    fn of(samples: &[Sample], rps: f64) -> ClassSummary {
        let mut lat: Vec<f64> = samples.iter().map(|s| f64::from(s.1)).collect();
        lat.sort_by(f64::total_cmp);
        let p = |q| percentile(&lat, q).unwrap_or(f64::NAN);
        ClassSummary {
            completed: lat.len(),
            rps,
            p50_us: p(0.5),
            p90_us: p(0.9),
            p99_us: p(0.99),
        }
    }
}
