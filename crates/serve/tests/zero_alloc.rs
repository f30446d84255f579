//! Zero-alloc steady-state regression pin, behind `--features alloc-count`.
//!
//! A counting `#[global_allocator]` wraps the system allocator and tallies
//! every `alloc`/`realloc`/`alloc_zeroed` call in the process. With the
//! profile and plan tiers warm and the generation cache pinned, serving
//! the full suite batch again must perform **zero** heap allocations —
//! the entire hot path (cache lookups, `run_planned` replay, response
//! construction) runs on plain data and pre-resolved `Arc`s.
//!
//! The wire codec's encode side is pinned the same way: a plan-hot sim
//! request and its reply, encoded into line buffers that already hold a
//! message of the same size, perform zero heap allocations.
//!
//! The functional path cannot be literally zero-alloc (each response
//! carries a freshly assembled result matrix the caller keeps), so its
//! pin is relative: a steady-state request through a warm scratch pool
//! allocates strictly less than the same request right after the pool is
//! cleared — the kernel + output-assembly scratch comes from recycled
//! pool inventory instead of the allocator.
//!
//! Tests in this binary serialize on a mutex: the counters are global, so
//! a concurrently running test would pollute a measurement window.

#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tailors_serve::wire::{encode_reply_into, encode_request_into};
use tailors_serve::{FunctionalRequest, Reply, ServeError, SimRequest, SimService, Work};
use tailors_sim::functional::clear_scratch_pool;
use tailors_sim::{ArchConfig, GridMode, MemBudget, Variant};

/// Tallies allocator calls; frees are deliberately not counted (dropping
/// a warmed response between windows must not perturb the measurement).
struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump,
// which cannot itself allocate or violate layout requirements.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System` in `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation;
        // `new_size` obeys the caller's `GlobalAlloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Serializes the measurement windows (counters are process-global).
static WINDOW: Mutex<()> = Mutex::new(());

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::SeqCst)
}

fn suite_requests(scale: f64) -> Vec<SimRequest> {
    let arch = ArchConfig::extensor().scaled(scale);
    tailors_workloads::suite()
        .iter()
        .flat_map(|wl| {
            [
                Variant::ExTensorN,
                Variant::ExTensorP,
                Variant::default_ob(),
            ]
            .map(|variant| SimRequest {
                workload: wl.scaled(scale),
                variant,
                arch,
                budget: MemBudget::Unbounded,
                grid: GridMode::Panels,
                auto_plan: false,
            })
        })
        .collect()
}

/// The acceptance pin: with every cache tier warm, re-serving the whole
/// suite batch performs exactly zero heap allocations.
#[test]
fn hot_served_suite_batch_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let reqs = suite_requests(1.0 / 64.0);
    let service = SimService::new();
    // Two warm passes: the first fills the profile/plan tiers, the
    // second flushes any one-time lazy work so the window sees only the
    // steady state.
    for req in &reqs {
        black_box(service.submit(req));
    }
    for req in &reqs {
        black_box(service.submit(req));
    }

    let before = allocs();
    for req in &reqs {
        black_box(service.submit(req));
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "hot suite batch must not touch the allocator ({} requests)",
        reqs.len()
    );
}

/// The wire encode pin: every plan-hot suite request and its sim reply
/// encode into warmed line buffers without a single allocation.
#[test]
fn hot_sim_request_and_reply_encode_into_warm_buffers_without_allocating() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let service = SimService::new();
    let exchanges: Vec<(Work, Result<Reply, ServeError>)> = suite_requests(1.0 / 64.0)
        .into_iter()
        .map(|req| {
            service.submit(&req);
            let reply = Ok(Reply::Sim(service.submit(&req)));
            (Work::Sim(req), reply)
        })
        .collect();
    let (mut line, mut reply_line) = (String::new(), String::new());
    let mut encode_all = || {
        for (id, (work, reply)) in (1u64..).zip(&exchanges) {
            encode_request_into(id, work, &mut line);
            encode_reply_into(Some(id), reply, &mut reply_line);
            black_box((&line, &reply_line));
        }
    };
    // One pass ratchets both buffers up to the largest line.
    encode_all();

    let before = allocs();
    encode_all();
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "encoding hot sim requests and replies must not touch the allocator \
         ({} exchanges)",
        exchanges.len()
    );
}

/// The functional steady state: pooled scratch makes a warm request
/// allocate strictly less than the identical request from a cleared pool.
/// (The residual pooled allocations are the response's own result
/// buffers, which the caller keeps — those can never come from a pool.)
#[test]
fn pooled_functional_request_allocates_less_than_fresh() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let scale = 1.0 / 64.0;
    let wl = tailors_workloads::suite()[0].scaled(scale);
    let req = FunctionalRequest {
        workload: wl,
        variant: Variant::default_ob(),
        arch: ArchConfig::extensor().scaled(scale),
        budget: MemBudget::bytes(1 << 20),
        grid: GridMode::Panels,
        auto_plan: false,
        threads: 1,
    };
    let pinned = tailors_workloads::generate_cached(&req.workload);
    let service = SimService::new();

    for _ in 0..2 {
        service.run_functional(&req).expect("warm pooled serve");
    }
    let before = allocs();
    black_box(service.run_functional(&req).expect("pooled serve"));
    let pooled = allocs() - before;

    // `threads: 1` runs the engine on this thread, so clearing this
    // thread's pool makes the next request allocate its scratch afresh.
    clear_scratch_pool();
    let before = allocs();
    black_box(service.run_functional(&req).expect("fresh serve"));
    let fresh = allocs() - before;

    assert!(
        pooled < fresh,
        "pooled steady state must allocate less than fresh-alloc \
         (pooled {pooled} vs fresh {fresh})"
    );
    drop(pinned);
}
