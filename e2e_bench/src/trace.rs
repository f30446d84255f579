//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions, and the replay that produces them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

use tailors_e2e_bench::{Outcome, Tally};
use tailors_serve::wire::{
    decode_reply, decode_request_line, encode_reply_into, encode_request_into,
};
use tailors_serve::{MatrixId, Reply, WireRequest, Work};
use tailors_sim::functional::run_with_threads;
use tailors_sim::{ExecutionPlan, GridMode, RunMetrics};
use tailors_tensor::ops::spmspm_a_at;
use tailors_workloads::Workload;

use crate::live::{Entry, Stack};
use crate::mix::{
    arch, distinct_workloads, functional_config, functional_request, variants, Engine, Item, Kind,
    Reference, Sentinels, BUDGET,
};

/// Parent of every span of one replayed request.
pub const REQUEST: &str = "replay.request";
/// Parent of every span of one replayed workload's layer calls.
pub const ITEM: &str = "replay.item";

/// One timed call: the request (or workload) id it served, the layer
/// function, the span that caused it, and its interval in nanoseconds
/// since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub rid: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn new(
        rid: u64,
        name: &'static str,
        parent: Option<&'static str>,
        epoch: Instant,
        t0: Instant,
        t1: Instant,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        Span {
            rid,
            name,
            parent,
            start_ns: ns(t0),
            end_ns: ns(t1),
        }
    }

    fn nanos(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// Writes `spans` as JSON lines, one span per line.
pub fn write_dump(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"rid\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.rid, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Mean duration (ns) and count of the spans under `parent`, by name.
pub fn means(spans: &[Span], parent: Option<&str>) -> BTreeMap<&'static str, (f64, u64)> {
    let mut sums: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == parent) {
        let e = sums.entry(s.name).or_default();
        e.0 += s.nanos();
        e.1 += 1;
    }
    for v in sums.values_mut() {
        v.0 /= v.1 as f64;
    }
    sums
}

/// Collects spans relative to one epoch.
pub struct Recorder {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Times `f` as span `name` of request `rid` under `parent`.
    pub fn time<R>(
        &mut self,
        rid: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.spans
            .push(Span::new(rid, name, Some(parent), self.epoch, t0, t1));
        r
    }
}

/// What the replay counted besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub tally: Tally,
    pub requests: u64,
    pub req_bytes: u64,
    pub reply_bytes: u64,
    /// Sentinels recomputed from the layer calls.
    pub sentinels: Sentinels,
    pub first_error: Option<String>,
}

impl Replay {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally
            .record(if ok { Outcome::Ok } else { Outcome::Mismatch });
        if !ok && self.first_error.is_none() {
            self.first_error = Some(what());
        }
    }
}

/// Replays `entries` from `offset` one request at a time through each
/// layer's public calls in turn — request codec, runtime, service, reply
/// codec, a full wire call, a ping — until at least `min` has passed and
/// every entry was replayed once, or `cap` has passed (at least one
/// request either way). Every payload is checked against its reference.
pub fn replay_requests(
    stack: &mut Stack,
    entries: &[Entry],
    offset: usize,
    (min, cap): (Duration, Duration),
    rec: &mut Recorder,
    out: &mut Replay,
) {
    let Stack {
        service,
        runtime,
        clients,
        ..
    } = stack;
    let client = &mut clients[0];
    let (mut line, mut reply_line) = (String::new(), String::new());
    let start = Instant::now();
    for (n, i) in (offset..).enumerate() {
        let elapsed = start.elapsed();
        if n > 0 && (elapsed >= cap || (elapsed >= min && n >= entries.len())) {
            break;
        }
        let e = &entries[i % entries.len()];
        let rid = n as u64;
        let t0 = Instant::now();
        rec.time(rid, "wire.encode_request", REQUEST, || {
            encode_request_into(rid, &e.work, &mut line)
        });
        let decoded = rec.time(rid, "wire.decode_request", REQUEST, || {
            decode_request_line(&line)
        });
        out.check(
            matches!(decoded, Ok((id, WireRequest::Work { .. })) if id == rid),
            || "request line did not decode to its work".into(),
        );
        let owned = e.work.clone();
        let outcome = rec.time(rid, "runtime.submit", REQUEST, || runtime.submit(owned));
        out.check(
            outcome.as_ref().is_ok_and(|r| e.reference.matches(r)),
            || {
                format!(
                    "runtime reply differs from its reference: {:?}",
                    outcome.as_ref().err()
                )
            },
        );
        let direct = match &e.work {
            Work::Sim(r) => Some(Reply::Sim(
                rec.time(rid, "service.submit", REQUEST, || service.submit(r)),
            )),
            Work::Functional(r) => rec
                .time(rid, "service.run_functional", REQUEST, || {
                    service.run_functional(r)
                })
                .ok()
                .map(|f| Reply::Functional(Box::new(f))),
        };
        out.check(
            direct.as_ref().is_some_and(|r| e.reference.matches(r)),
            || "service reply differs from its reference".into(),
        );
        rec.time(rid, "wire.encode_reply", REQUEST, || {
            encode_reply_into(Some(rid), &outcome, &mut reply_line)
        });
        let decoded = rec.time(rid, "wire.decode_reply", REQUEST, || {
            decode_reply(&reply_line)
        });
        out.check(
            matches!(&decoded, Ok((Some(id), Ok(r))) if *id == rid && e.reference.matches(r)),
            || "reply line did not decode to its reference".into(),
        );
        let called = rec.time(rid, "wire.call", REQUEST, || client.call(&e.work));
        out.check(
            matches!(&called, Ok(Ok(r)) if e.reference.matches(r)),
            || format!("wire call failed or differs: {:?}", called.as_ref().err()),
        );
        let pong = rec.time(rid, "wire.ping", REQUEST, || client.ping());
        out.check(pong.is_ok(), || format!("ping failed: {:?}", pong.err()));
        rec.spans
            .push(Span::new(rid, REQUEST, None, rec.epoch, t0, Instant::now()));
        out.requests += 1;
        out.req_bytes += line.len() as u64;
        out.reply_bytes += reply_line.len() as u64;
    }
}

/// Calls the layers below the service once per distinct workload of
/// `items` — generation, content hashing, profiling, the bare `A·Aᵀ`
/// kernel, and planning plus `run_planned` for N, P and OB — and the
/// functional engine once per item. When the mix has no functional
/// request, so the request replay never reached
/// `SimService::run_functional`, the hot service's is called per item.
/// Recomputes the sentinels from these calls.
pub fn replay_items(
    stack: &Stack,
    suite: &[Workload],
    items: &[Item],
    entries: &[Entry],
    rec: &mut Recorder,
    out: &mut Replay,
) {
    let functional_fallback = items.iter().all(|it| it.kind == Kind::Sim);
    let arch = arch();
    let mut runs: Vec<[RunMetrics; 3]> = Vec::new();
    let mut functional = Sentinels::default();
    for w in distinct_workloads(items) {
        let rid = w as u64;
        let wl = &suite[w];
        let a = rec.time(rid, "tensor.generate", ITEM, || wl.generate());
        black_box(rec.time(rid, "tensor.content_hash", ITEM, || MatrixId::of(&a)));
        let profile = rec.time(rid, "tensor.profile", ITEM, || a.profile());
        black_box(
            rec.time(rid, "tensor.spmspm", ITEM, || spmspm_a_at(&a))
                .nnz(),
        );
        let planned =
            [("sim.plan.N", 0), ("sim.plan.P", 1), ("sim.plan.OB", 2)].map(|(name, v)| {
                let v = variants()[v];
                let (tile, exec) = rec.time(rid, name, ITEM, || {
                    let tile = v.plan(&profile, &arch);
                    let exec = ExecutionPlan::for_tile_plan(
                        profile.nrows(),
                        profile.ncols(),
                        &tile,
                        BUDGET,
                    );
                    (tile, exec)
                });
                let m = rec.time(rid, "sim.run_planned", ITEM, || {
                    v.run_planned(&profile, &arch, &tile, &exec, GridMode::Panels)
                });
                (tile, m)
            });
        runs.push(planned.map(|(_, m)| m));
        for (it, e) in items.iter().zip(entries).filter(|(it, _)| it.wl == w) {
            let v = variants()
                .iter()
                .position(|v| v.cache_key() == it.variant.cache_key())
                .expect("mixes use the three suite variants");
            let config = functional_config(&planned[v].0, &arch);
            let result = rec.time(rid, "functional.engine", ITEM, || {
                run_with_threads(&a, &config, 1)
            });
            let Ok(result) = result else {
                out.check(false, || format!("engine failed on {}", wl.name));
                continue;
            };
            let engine = Engine::of(&result);
            functional.add_functional(&engine);
            if let Reference::Functional { engine: r, .. } = &e.reference {
                out.check(*r == engine, || {
                    format!("engine result differs on {}", wl.name)
                });
            }
            if functional_fallback {
                let req = functional_request(wl, it.variant);
                let served = rec.time(rid, "service.run_functional", ITEM, || {
                    stack.service.run_functional(&req)
                });
                out.check(
                    served.is_ok_and(|s| s.result == result && s.config == config),
                    || format!("served functional result differs on {}", wl.name),
                );
            }
        }
    }
    out.sentinels = Sentinels {
        dram_a_fetches: functional.dram_a_fetches,
        dram_b_fetches: functional.dram_b_fetches,
        overbooked_a_tiles: functional.overbooked_a_tiles,
        ..Sentinels::from_runs(&runs)
    };
}
