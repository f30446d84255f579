//! Request mixes, the reply oracle, and the simulated-count sentinels.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tailors_e2e_bench::{fingerprint, mix_seed};
use tailors_serve::{FunctionalRequest, Reply, SimRequest, Work};
use tailors_sim::functional::{run_with_threads, FunctionalConfig, FunctionalResult};
use tailors_sim::{ArchConfig, GridMode, MemBudget, RunMetrics, TilePlan, Variant};
use tailors_tensor::CsrMatrix;
use tailors_workloads::Workload;

/// Every workload runs at 1/64 of Table 2, architecture scaled alike.
pub const SCALE: f64 = 1.0 / 64.0;

/// Per-thread dense-scratch budget of every request. `Unbounded` would
/// size each engine thread's scratch to every output column (gigabytes
/// for the larger suite entries, retained by the thread-local pools).
pub const BUDGET: MemBudget = MemBudget::mib(8);

/// Closed-loop callers (and oracle threads): one per core of the 2-core
/// runner the benchmark is sized for.
pub const CALLERS: usize = 2;

/// The suite workloads whose 1/64 ExTensor-OB functional reply is at
/// most about 2.5 MB of JSON: the bulk lane of `mixed_wire`.
pub const SMALL_REPLY: [&str; 8] = [
    "sx-mathoverflow",
    "email-Enron",
    "soc-Epinions1",
    "p2p-Gnutella31",
    "patents_main",
    "email-EuAll",
    "sx-askubuntu",
    "mac_econ_fwd500",
];

/// ExTensor-N, ExTensor-P and ExTensor-OB (paper defaults), in that order.
pub fn variants() -> [Variant; 3] {
    [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ]
}

/// The scaled architecture every request plans against.
pub fn arch() -> ArchConfig {
    ArchConfig::extensor().scaled(SCALE)
}

/// The 22 suite workloads at [`SCALE`], each with `seed` mixed into its
/// generator seed.
pub fn seeded_suite(seed: u64) -> Vec<Workload> {
    tailors_workloads::suite()
        .into_iter()
        .map(|w| {
            let mut w = w.scaled(SCALE);
            w.seed = mix_seed(w.seed, seed);
            w
        })
        .collect()
}

/// Which service entry point a request takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Work::Sim`: the analytical model (high-priority lane).
    Sim,
    /// `Work::Functional`: the functional engine (low-priority lane).
    Functional,
}

impl Kind {
    /// Index of the class in per-class tables.
    pub fn class(self) -> usize {
        match self {
            Kind::Sim => 0,
            Kind::Functional => 1,
        }
    }
}

/// One request of a mix: a suite workload (index into the seeded suite),
/// the variant, and the entry point.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    pub wl: usize,
    pub variant: Variant,
    pub kind: Kind,
}

/// The 66-request analytical mix: every workload under N, P and OB, in
/// suite order (so item `3 * w + v` is workload `w`, variant `v`).
pub fn analytical_mix(suite: &[Workload]) -> Vec<Item> {
    (0..suite.len())
        .flat_map(|wl| {
            variants().map(|variant| Item {
                wl,
                variant,
                kind: Kind::Sim,
            })
        })
        .collect()
}

/// ExTensor-OB functional requests for the [`SMALL_REPLY`] workloads.
pub fn small_reply_mix(suite: &[Workload]) -> Vec<Item> {
    SMALL_REPLY
        .iter()
        .map(|name| Item {
            wl: suite
                .iter()
                .position(|w| w.name == *name)
                .expect("every small-reply workload is in the suite"),
            variant: Variant::default_ob(),
            kind: Kind::Functional,
        })
        .collect()
}

/// The analytical request for a suite entry: [`BUDGET`], Panels, fixed
/// tiling.
pub fn sim_request(wl: &Workload, variant: Variant) -> SimRequest {
    SimRequest {
        workload: wl.clone(),
        variant,
        arch: arch(),
        budget: BUDGET,
        grid: GridMode::Panels,
        auto_plan: false,
    }
}

/// The functional request for a suite entry at the same settings, on one
/// engine thread.
pub fn functional_request(wl: &Workload, variant: Variant) -> FunctionalRequest {
    FunctionalRequest {
        workload: wl.clone(),
        variant,
        arch: arch(),
        budget: BUDGET,
        grid: GridMode::Panels,
        auto_plan: false,
        threads: 1,
    }
}

/// The work an item sends.
pub fn work(suite: &[Workload], item: &Item) -> Work {
    let wl = &suite[item.wl];
    match item.kind {
        Kind::Sim => Work::Sim(sim_request(wl, item.variant)),
        Kind::Functional => Work::Functional(Box::new(functional_request(wl, item.variant))),
    }
}

/// The engine configuration a functional request is served at: the
/// variant's tile plan sizing the tiling, the architecture sizing the
/// buffer and the Tailors FIFO region.
pub fn functional_config(tile: &TilePlan, arch: &ArchConfig) -> FunctionalConfig {
    FunctionalConfig {
        capacity: (arch.tile_capacity() as usize).max(1),
        fifo_region: arch.gb_fifo_region() as usize,
        rows_a: tile.gb_rows_a,
        cols_b: tile.gb_cols_b,
        overbooking: tile.overbooking,
        mem_budget: BUDGET,
        grid: GridMode::Panels,
        auto_plan: false,
    }
}

/// What the service must answer for one item.
#[derive(Debug)]
pub enum Reference {
    /// A cold `Variant::run_gridded` on a freshly built profile.
    Sim(RunMetrics),
    /// `functional::run_with_threads` at the served configuration, kept
    /// as its configuration and [`Engine`] summary.
    Functional {
        config: FunctionalConfig,
        engine: Engine,
    },
}

/// A functional result reduced to its traffic counts and a bitwise
/// fingerprint of the output matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    pub z: u64,
    pub dram_a_fetches: u64,
    pub dram_b_fetches: u64,
    pub overbooked_a_tiles: usize,
}

impl Engine {
    pub fn of(r: &FunctionalResult) -> Engine {
        Engine {
            z: z_fingerprint(&r.z),
            dram_a_fetches: r.dram_a_fetches,
            dram_b_fetches: r.dram_b_fetches,
            overbooked_a_tiles: r.overbooked_a_tiles,
        }
    }
}

/// The fingerprint of a matrix's shape and raw CSR arrays, values by bit
/// pattern.
pub fn z_fingerprint(z: &CsrMatrix) -> u64 {
    let shape = [z.nrows() as u64, z.ncols() as u64, z.nnz() as u64];
    fingerprint(
        shape
            .into_iter()
            .chain(z.row_ptr().iter().map(|&p| p as u64))
            .chain(z.col_indices().iter().map(|&c| u64::from(c)))
            .chain(z.values().iter().map(|v| v.to_bits())),
    )
}

impl Reference {
    /// Whether `reply` carries exactly this payload: analytical metrics
    /// compared field by field (`f64`s with `==`, so a NaN never
    /// matches), functional results bitwise through [`Engine`].
    pub fn matches(&self, reply: &Reply) -> bool {
        match (self, reply) {
            (Reference::Sim(m), Reply::Sim(r)) => r.metrics == *m,
            (Reference::Functional { config, engine }, Reply::Functional(r)) => {
                r.config == *config && Engine::of(&r.result) == *engine
            }
            _ => false,
        }
    }
}

/// Simulated counts. They depend only on the workload and the seed, so
/// every run of one seed must reproduce them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sentinels {
    /// Σ cycles of N, P and OB over the mix's distinct workloads.
    pub cycles_sum: f64,
    /// Geometric mean of OB's speedup over N across those workloads.
    pub ob_speedup_geomean: f64,
    /// Σ `dram_a_fetches` over the functional results.
    pub dram_a_fetches: u64,
    /// Σ `dram_b_fetches` over the functional results.
    pub dram_b_fetches: u64,
    /// Σ `overbooked_a_tiles` over the functional results.
    pub overbooked_a_tiles: u64,
}

impl Sentinels {
    /// The analytical sentinels from each workload's N, P, OB metrics.
    pub fn from_runs(runs: &[[RunMetrics; 3]]) -> Sentinels {
        let ln_sum: f64 = runs.iter().map(|r| r[2].speedup_over(&r[0]).ln()).sum();
        Sentinels {
            cycles_sum: runs.iter().flatten().map(|m| m.cycles).sum(),
            ob_speedup_geomean: (ln_sum / runs.len().max(1) as f64).exp(),
            ..Sentinels::default()
        }
    }

    /// Adds one functional result's counts.
    pub fn add_functional(&mut self, e: &Engine) {
        self.dram_a_fetches += e.dram_a_fetches;
        self.dram_b_fetches += e.dram_b_fetches;
        self.overbooked_a_tiles += e.overbooked_a_tiles as u64;
    }

    /// Name and value of every sentinel.
    pub fn rows(&self) -> [(&'static str, &'static str, f64); 5] {
        [
            ("sim.cycles_sum", "cycles", self.cycles_sum),
            ("sim.ob_speedup_geomean", "x", self.ob_speedup_geomean),
            (
                "functional.dram_a_fetches",
                "count",
                self.dram_a_fetches as f64,
            ),
            (
                "functional.dram_b_fetches",
                "count",
                self.dram_b_fetches as f64,
            ),
            (
                "functional.overbooked_a_tiles",
                "count",
                self.overbooked_a_tiles as f64,
            ),
        ]
    }

    /// Compares against the sentinels an earlier run of the same key
    /// stored under `dir`, or stores them if none did.
    ///
    /// # Errors
    ///
    /// The stored and current renderings when they differ, or an I/O
    /// failure.
    pub fn check_persisted(&self, dir: &std::path::Path, key: &str) -> Result<(), String> {
        let mut text = String::new();
        for (name, _, v) in self.rows() {
            text += &format!("{name} {:016x} {v}\n", v.to_bits());
        }
        let path = dir.join(format!("{key}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(stored) if stored == text => Ok(()),
            Ok(stored) => Err(format!(
                "simulated counts differ from an earlier run ({}):\nstored:\n{stored}now:\n{text}",
                path.display()
            )),
            Err(_) => std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, text))
                .map_err(|e| format!("cannot store sentinels at {}: {e}", path.display())),
        }
    }
}

/// Maps `f` over `xs` on `threads` scoped threads, results in input
/// order.
pub fn par_map<T: Sync, R: Send>(xs: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..xs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(x) = xs.get(i) else { break };
                let r = f(x);
                out.lock().expect("no oracle thread panics")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("no oracle thread panics")
        .into_iter()
        .map(|r| r.expect("every index was mapped"))
        .collect()
}

/// The distinct suite workloads `items` use, in suite order.
pub fn distinct_workloads(items: &[Item]) -> Vec<usize> {
    let mut ws: Vec<usize> = items.iter().map(|i| i.wl).collect();
    ws.sort_unstable();
    ws.dedup();
    ws
}

/// The reply oracle: a reference payload per item, computed from scratch
/// (fresh tensors and profiles, no service), plus the sentinels.
pub fn oracle(suite: &[Workload], items: &[Item]) -> (Vec<Reference>, Sentinels) {
    let arch = arch();
    let per_workload = par_map(&distinct_workloads(items), CALLERS, |&w| {
        let a = suite[w].generate();
        let profile = a.profile();
        let runs = variants().map(|v| v.run_gridded(&profile, &arch, BUDGET, GridMode::Panels));
        let refs: Vec<(usize, Reference)> = items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.wl == w)
            .map(|(i, it)| {
                let r = match it.kind {
                    Kind::Sim => Reference::Sim(it.variant.run_gridded(
                        &profile,
                        &arch,
                        BUDGET,
                        GridMode::Panels,
                    )),
                    Kind::Functional => {
                        let config = functional_config(&it.variant.plan(&profile, &arch), &arch);
                        let result = run_with_threads(&a, &config, 1)
                            .expect("suite workloads are well-formed engine inputs");
                        Reference::Functional {
                            config,
                            engine: Engine::of(&result),
                        }
                    }
                };
                (i, r)
            })
            .collect();
        (runs, refs)
    });
    let runs: Vec<[RunMetrics; 3]> = per_workload.iter().map(|(r, _)| *r).collect();
    let mut sentinels = Sentinels::from_runs(&runs);
    let mut refs: Vec<Option<Reference>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in per_workload.into_iter().flat_map(|(_, refs)| refs) {
        if let Reference::Functional { engine, .. } = &r {
            sentinels.add_functional(engine);
        }
        refs[i] = Some(r);
    }
    let refs = refs
        .into_iter()
        .map(|r| r.expect("every item has a reference"))
        .collect();
    (refs, sentinels)
}
