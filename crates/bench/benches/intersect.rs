//! Criterion benchmarks for the compute substrate: the reference SpMSpM,
//! the functional engine and its planner, the analytical simulator itself,
//! suite tensor generation and hashing, and the serving layers.
//!
//! The `spmspm` group tracks the dense-scratch (SPA) rewrite against the
//! retained seed kernels — `seed_hashmap_a_at_2k` and
//! `seed_functional_engine_a_at_2k` are the before, everything else is the
//! after. Run with `CRITERION_JSON=$PWD/BENCH_spmspm.json cargo bench --bench
//! intersect` (absolute path: benches run from `crates/bench/`) to refresh
//! the machine-readable trajectory file (schema in
//! `DESIGN.md`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tailors_serve::{SimRequest, SimService};
use tailors_sim::functional::{
    auto_execution_plan, reference_run, run_with_threads, FunctionalConfig,
};
use tailors_sim::{ArchConfig, GridMode, MemBudget, Variant};
use tailors_tensor::gen::GenSpec;
use tailors_tensor::ops::{self, count_work, spmspm_a_at, spmspm_into, SpmspmScratch};
use tailors_workloads::WorkloadClass;

fn bench_spmspm(c: &mut Criterion) {
    let a = GenSpec::power_law(2_000, 2_000, 20_000).seed(3).generate();
    let at = a.transpose();
    let mut g = c.benchmark_group("spmspm");
    g.sample_size(10);
    // Before: the seed's HashMap-accumulator Gustavson.
    g.bench_function("seed_hashmap_a_at_2k", |bch| {
        bch.iter(|| black_box(ops::reference::spmspm_a_at(&a)))
    });
    // After: the dense-scratch SPA kernel (same public entry point).
    g.bench_function("reference_a_at_2k", |bch| {
        bch.iter(|| black_box(spmspm_a_at(&a)))
    });
    // After, allocation-reusing: scratch and transpose hoisted out.
    g.bench_function("spa_into_a_at_2k", |bch| {
        let mut scratch = SpmspmScratch::new();
        bch.iter(|| black_box(spmspm_into(&a, &at, &mut scratch).unwrap()))
    });
    // Work counting: symbolic marker pass vs materializing the product.
    g.bench_function("count_work_symbolic_2k", |bch| {
        bch.iter(|| black_box(count_work(&a, &at).unwrap()))
    });

    let config = FunctionalConfig {
        capacity: 2_048,
        fifo_region: 256,
        rows_a: 256,
        cols_b: 256,
        overbooking: true,
        mem_budget: MemBudget::Unbounded,
        grid: GridMode::Panels,
        auto_plan: false,
    };
    // The parallel row runs the full 2-D (panel × block) grid: a 1 MiB
    // budget groups the 256-col tiles in pairs (4 blocks × 8 panels = 32
    // independently schedulable units instead of 8 skew-bound panels).
    // Results are bit-identical to `config` and to the seed engine.
    let grid_config = FunctionalConfig {
        mem_budget: MemBudget::bytes(256 * 512 * 8),
        grid: GridMode::Grid2D,
        auto_plan: false,
        ..config
    };
    // Before: the seed engine (tile materialization + per-element searches
    // + HashMap output accumulator).
    g.bench_function("seed_functional_engine_a_at_2k", |bch| {
        bch.iter(|| black_box(reference_run(&a, &config).unwrap()))
    });
    // After: CSR-slice walking, one cursor walk over B per column block,
    // bitmask-blocked panel scratch, 2-D grid fan-out across all available
    // threads.
    g.bench_function("functional_engine_a_at_2k", |bch| {
        bch.iter(|| {
            black_box(run_with_threads(&a, &grid_config, rayon::current_num_threads()).unwrap())
        })
    });
    // After, pinned serial: the deterministic --threads 1 panels path.
    g.bench_function("functional_engine_serial_a_at_2k", |bch| {
        bch.iter(|| black_box(run_with_threads(&a, &config, 1).unwrap()))
    });
    // Serial panels at ExTensor-OB's 32×32 global-buffer tile, the shape
    // served functional requests run: 63 streamed tiles per panel.
    let small_tiles = FunctionalConfig {
        rows_a: 32,
        cols_b: 32,
        ..config
    };
    // Serial 2-D grid with single-tile blocks (256×32 tiles at 64 KiB):
    // every item but a panel's first starts mid-row, so each pays one
    // B-row search per panel element.
    let one_tile_blocks = FunctionalConfig {
        cols_b: 32,
        mem_budget: MemBudget::bytes(64 << 10),
        grid: GridMode::Grid2D,
        ..config
    };
    for (name, cfg) in [
        ("functional_engine_serial_32x32_a_at_2k", small_tiles),
        ("functional_engine_grid2d_1tile_a_at_2k", one_tile_blocks),
    ] {
        assert_eq!(
            run_with_threads(&a, &cfg, 1).unwrap(),
            reference_run(&a, &cfg).unwrap(),
            "{name} must be bit-identical to the seed engine"
        );
        g.bench_function(name, |bch| {
            bch.iter(|| black_box(run_with_threads(&a, &cfg, 1).unwrap()))
        });
    }
    g.finish();
}

fn bench_planner(c: &mut Criterion) {
    // The budget-aware auto planner vs the fixed-height plan it replaces,
    // at a tight (64 KiB) scratch budget on the 2 k point with 32-column
    // streamed tiles: the fixed 256-row panels overbook the 2048-slot
    // operand buffer and leave 63 single-tile column blocks, so every
    // output row is drained 63 times; the cost model halves the panels
    // (128 rows), which doubles the block width (32 blocks), stops the
    // overbooking, and fits the budget exactly. Both runs are
    // bit-identical to `reference_run` at their own tiling — the rows
    // measure what the plan *shape* costs.
    let a = GenSpec::power_law(2_000, 2_000, 20_000).seed(3).generate();
    let fixed = FunctionalConfig {
        capacity: 2_048,
        fifo_region: 256,
        rows_a: 256,
        cols_b: 32,
        overbooking: true,
        mem_budget: MemBudget::bytes(64 << 10),
        grid: GridMode::Panels,
        auto_plan: false,
    };
    let auto = FunctionalConfig {
        auto_plan: true,
        ..fixed
    };
    let fixed_plan = fixed.execution_plan(a.nrows(), a.ncols());
    let auto_plan = auto_execution_plan(&a, &auto);
    println!(
        "planner/auto_vs_fixed at 64KiB: fixed {} rows x {} blocks \
         ({} row-drain passes) -> auto {} rows x {} blocks ({} passes)",
        fixed_plan.rows_a(),
        fixed_plan.n_col_blocks(),
        a.nrows() * fixed_plan.n_col_blocks(),
        auto_plan.rows_a(),
        auto_plan.n_col_blocks(),
        a.nrows() * auto_plan.n_col_blocks(),
    );
    assert!(
        auto_plan.n_col_blocks() < fixed_plan.n_col_blocks(),
        "the auto planner must strictly reduce extraction passes here"
    );
    let mut g = c.benchmark_group("planner");
    g.sample_size(10);
    g.bench_function("auto_vs_fixed_fixed_64KiB_2k", |bch| {
        bch.iter(|| black_box(run_with_threads(&a, &fixed, 1).unwrap()))
    });
    g.bench_function("auto_vs_fixed_auto_64KiB_2k", |bch| {
        bch.iter(|| black_box(run_with_threads(&a, &auto, 1).unwrap()))
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let profile = GenSpec::power_law(200_000, 200_000, 2_000_000)
        .seed(4)
        .generate()
        .profile();
    let arch = ArchConfig::extensor();
    let mut g = c.benchmark_group("analytical_simulator");
    g.sample_size(20);
    for v in [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ] {
        g.bench_function(v.name(), |bch| {
            bch.iter(|| black_box(v.run(&profile, &arch)))
        });
    }
    g.finish();
}

fn bench_tensor(c: &mut Criterion) {
    // The cold path's rungs, uncached: generating all 22 suite tensors at
    // 1/64 scale, their `pattern_hash` identities, and the pattern-only
    // stream that yields profile and identity without building a tensor,
    // one row per generator family (banded linear systems, power-law
    // graphs, the clustered road network) since each family draws its
    // entries its own way. A cold analytical `suite_cold` request pays
    // only the pattern rows; the other two are the functional and figure
    // paths' cost.
    let suite: Vec<_> = tailors_workloads::suite()
        .iter()
        .map(|wl| wl.scaled(1.0 / 64.0))
        .collect();
    let mut g = c.benchmark_group("tensor");
    g.sample_size(10);
    g.bench_function("generate_suite_1_64", |bch| {
        bch.iter(|| {
            for wl in &suite {
                black_box(wl.generate());
            }
        })
    });
    for (family, class) in [
        ("banded", WorkloadClass::LinearSystem),
        ("power_law", WorkloadClass::Graph),
        ("clustered", WorkloadClass::RoadNetwork),
    ] {
        let members: Vec<_> = suite.iter().filter(|wl| wl.class == class).collect();
        g.bench_function(format!("pattern_{family}_1_64"), |bch| {
            bch.iter(|| {
                for wl in &members {
                    black_box(wl.pattern());
                }
            })
        });
    }
    let tensors: Vec<_> = suite.iter().map(|wl| wl.generate()).collect();
    g.bench_function("pattern_hash_suite_1_64", |bch| {
        bch.iter(|| {
            for m in &tensors {
                black_box(m.pattern_hash());
            }
        })
    });
    g.finish();
}

fn bench_suite(c: &mut Criterion) {
    // The 22-workload suite: generation (cached after the first pass) +
    // three variant runs per workload, serial vs cost-chunked parallel
    // fan-out. The 1/64 point is where per-workload simulation cost is
    // large and skewed enough for the chunking to matter — uniform splits
    // tie serial there because one bin inherits all the giants.
    let mut g = c.benchmark_group("suite");
    g.sample_size(10);
    g.bench_function("simulate_suite_serial_1_256", |bch| {
        bch.iter(|| black_box(tailors_bench::simulate_suite_with_threads(1.0 / 256.0, 1)))
    });
    g.bench_function("simulate_suite_parallel_1_256", |bch| {
        let threads = rayon::current_num_threads();
        bch.iter(|| {
            black_box(tailors_bench::simulate_suite_with_threads(
                1.0 / 256.0,
                threads,
            ))
        })
    });
    g.bench_function("simulate_suite_serial_1_64", |bch| {
        bch.iter(|| black_box(tailors_bench::simulate_suite_with_threads(1.0 / 64.0, 1)))
    });
    g.bench_function("simulate_suite_parallel_1_64", |bch| {
        let threads = rayon::current_num_threads();
        bch.iter(|| {
            black_box(tailors_bench::simulate_suite_with_threads(
                1.0 / 64.0,
                threads,
            ))
        })
    });
    g.finish();
}

fn bench_serving(c: &mut Criterion) {
    // Cold vs hot request latency through the serving layer: one batch of
    // 22 workloads × 3 variants at 1/64 scale. The cold row measures the
    // serving layer's whole per-request work on a fresh service — the
    // generators' pattern-only streams (profile and identity, no tensor),
    // tile/execution planning — and the hot row what remains once the
    // profile and plan tiers answer (the pure `run_planned` replay). The
    // gap is the construction cost every steady-state request skips.
    let scale = 1.0 / 64.0;
    let arch = ArchConfig::extensor().scaled(scale);
    let reqs: Vec<SimRequest> = tailors_workloads::suite()
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
        .collect();
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    g.throughput(Throughput::Elements(reqs.len() as u64));
    g.bench_function("suite_batch_cold_1_64", |bch| {
        bch.iter(|| {
            let service = SimService::new();
            black_box(service.submit_batch(&reqs, 1))
        })
    });
    let service = std::sync::Arc::new(SimService::new());
    service.submit_batch(&reqs, 1);
    g.bench_function("suite_batch_hot_1_64", |bch| {
        bch.iter(|| black_box(service.submit_batch(&reqs, 1)))
    });
    // The zero-alloc steady state: the same warm batch served one
    // request at a time, the loop `tests/zero_alloc.rs` pins at exactly
    // zero allocator calls (no response vector, no scheduler bin — the
    // pure hot path a long-lived session sees per request).
    g.bench_function("suite_batch_hot_pooled_1_64", |bch| {
        bch.iter(|| {
            for req in &reqs {
                black_box(service.submit(req));
            }
        })
    });
    // The same hot batch pushed through the full service runtime — JSON
    // codec, loopback TCP, bounded mailbox, worker pool — against the
    // same warmed cache tiers. The gap to `suite_batch_hot_1_64` is the
    // wire front door's per-request overhead.
    let runtime = std::sync::Arc::new(tailors_serve::ServiceRuntime::over(
        std::sync::Arc::clone(&service),
        tailors_serve::RuntimeConfig::default(),
    ));
    let mut server =
        tailors_serve::WireTcpServer::spawn(std::sync::Arc::clone(&runtime), "127.0.0.1:0")
            .expect("bind wire server");
    let mut client = tailors_serve::WireClient::connect(server.addr()).expect("connect");
    g.bench_function("wire_overhead_hot_1_64", |bch| {
        bch.iter(|| {
            for req in &reqs {
                black_box(
                    client
                        .sim(req)
                        .expect("wire protocol")
                        .expect("request served"),
                );
            }
        })
    });
    // The same hot batch through the consistent-hash shard router over
    // three in-process wire shards (each its own runtime + cache tiers,
    // warmed by one routed pass). The gap to `wire_overhead_hot_1_64` is
    // the routing layer itself: identity memo + ring lookup, per-shard
    // LPT fan-out, and reply reassembly.
    let mut shard_runtimes = Vec::new();
    let mut shard_servers = Vec::new();
    for _ in 0..3 {
        let rt = std::sync::Arc::new(tailors_serve::ServiceRuntime::new(
            tailors_serve::RuntimeConfig::default(),
        ));
        shard_servers.push(
            tailors_serve::WireTcpServer::spawn(std::sync::Arc::clone(&rt), "127.0.0.1:0")
                .expect("bind shard server"),
        );
        shard_runtimes.push(rt);
    }
    let endpoints: Vec<String> = shard_servers.iter().map(|s| s.addr().to_string()).collect();
    let router =
        tailors_serve::ShardRouter::connect(&endpoints, tailors_serve::RouterConfig::default())
            .expect("router dials shards");
    let works: Vec<tailors_serve::Work> =
        reqs.iter().cloned().map(tailors_serve::Work::Sim).collect();
    for outcome in router.submit_batch(&works) {
        outcome.expect("warming pass served");
    }
    g.bench_function("router_overhead_hot_1_64", |bch| {
        bch.iter(|| {
            for outcome in router.submit_batch(&works) {
                black_box(outcome.expect("request served"));
            }
        })
    });
    g.finish();
    drop(router);
    for mut s in shard_servers {
        s.stop();
    }
    for rt in &shard_runtimes {
        rt.shutdown();
    }
    server.stop();
    runtime.shutdown();
}

criterion_group!(
    benches,
    bench_spmspm,
    bench_planner,
    bench_simulator,
    bench_tensor,
    bench_suite,
    bench_serving
);
criterion_main!(benches);
