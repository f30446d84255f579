//! The protocol's bytes, pinned: every message kind the wire carries is
//! encoded from hand-built values and compared against a literal line.
//!
//! The round-trip suites prove encode and decode agree with each other;
//! this transcript proves they agree with the *deployed* protocol, so a
//! codec refactor that changes key order, number rendering or escaping
//! fails here even when it round-trips. Each literal is also decoded and
//! re-encoded, which pins the decoder to the same bytes.

use std::time::Duration;

use tailors_serve::wire::{
    decode_reply, decode_request_line, encode_ping_into, encode_pong_into, encode_reply,
    encode_request, serve_lines,
};
use tailors_serve::{
    CacheHits, FunctionalRequest, FunctionalResponse, OverloadReason, Reply, RuntimeConfig,
    RuntimeStats, ServeError, ServiceRuntime, SimRequest, SimResponse, WireRequest, Work,
};
use tailors_sim::functional::{FunctionalConfig, FunctionalResult};
use tailors_sim::{
    ActivityCounts, ArchConfig, DramBreakdown, GridMode, MemBudget, ReuseStats, RunMetrics,
    ScratchStats, TilePlan, Variant,
};
use tailors_tensor::CsrMatrix;
use tailors_workloads::{Workload, WorkloadClass};

fn arch() -> ArchConfig {
    ArchConfig {
        gb_bytes: 1 << 20,
        pe_buf_bytes: 4096,
        pe_count: 128,
        bytes_per_element: 12,
        dram_bytes_per_cycle: 68.0,
        gb_elems_per_cycle: 32.5,
        isect_coords_per_cycle: 0.1,
        macs_per_pe_per_cycle: 1.0,
        operand_fraction: 0.5,
        dram_latency_cycles: 100,
        gb_latency_cycles: 2,
    }
}

fn sim_request() -> SimRequest {
    SimRequest {
        workload: Workload {
            name: "email-Enron",
            nrows: 1000,
            ncols: 1001,
            target_nnz: 5000,
            class: WorkloadClass::Graph,
            paper_sparsity: 0.999,
            variability: 1.5,
            seed: 7,
        },
        variant: Variant::ExTensorOB { y: 0.1, k: 10 },
        arch: arch(),
        budget: MemBudget::Bytes(1 << 20),
        grid: GridMode::Grid2D,
        auto_plan: true,
    }
}

fn functional_request() -> FunctionalRequest {
    FunctionalRequest {
        workload: Workload {
            // Escapes on the way out, interned on the way back in.
            name: "odd \"name\"\t\\1",
            nrows: 64,
            ncols: 32,
            target_nnz: 0,
            class: WorkloadClass::LinearSystem,
            paper_sparsity: -0.0,
            variability: f64::INFINITY,
            seed: u64::MAX,
        },
        variant: Variant::ExTensorP,
        arch: arch(),
        budget: MemBudget::Unbounded,
        grid: GridMode::Panels,
        auto_plan: false,
        threads: 3,
    }
}

fn road_request() -> SimRequest {
    let mut req = sim_request();
    req.workload.class = WorkloadClass::RoadNetwork;
    req.variant = Variant::ExTensorN;
    req.budget = MemBudget::Unbounded;
    req
}

fn sim_response() -> SimResponse {
    SimResponse {
        name: "email-Enron",
        metrics: RunMetrics {
            cycles: 12345.5,
            energy_pj: f64::NAN,
            activity: ActivityCounts {
                dram_elems: u128::from(u64::MAX) + 1,
                gb_accesses: 2,
                pe_buf_accesses: 3,
                macs: 4,
                isect_coords: 5,
            },
            dram: DramBreakdown {
                total: 100,
                baseline: 80,
                overbook_extra: 20,
            },
            reuse: ReuseStats {
                bumped_fraction: 0.25,
                reused_fraction: 0.75,
                overbooked_a_tiles: 1,
                total_a_tiles: 10,
                overbooked_b_tiles: 0,
                total_b_tiles: 9,
            },
            plan: TilePlan {
                gb_rows_a: 16,
                gb_cols_b: 32,
                pe_rows_a: 2,
                pe_cols_b: 4,
                full_k: true,
                overbooking: false,
            },
            scratch: ScratchStats {
                col_blocks: 3,
                block_cols: 11,
                bytes_per_thread: 8192,
                fits_budget: true,
                grid: GridMode::Grid2D,
                parallel_units: 6,
            },
            bound_by: "global-buffer",
        },
        hits: CacheHits {
            tensor: true,
            profile: false,
            plan: true,
        },
    }
}

fn functional_response() -> FunctionalResponse {
    FunctionalResponse {
        config: FunctionalConfig {
            capacity: 2048,
            fifo_region: 256,
            rows_a: 8,
            cols_b: 32,
            overbooking: true,
            mem_budget: MemBudget::Bytes(65536),
            grid: GridMode::Panels,
            auto_plan: true,
        },
        result: FunctionalResult {
            z: CsrMatrix::from_parts(2, 3, vec![0, 1, 3], vec![2, 0, 1], vec![1.5, -2.0, 0.25])
                .unwrap(),
            dram_a_fetches: 17,
            dram_b_fetches: 19,
            overbooked_a_tiles: 1,
        },
        hits: CacheHits::default(),
    }
}

fn serve_errors() -> [ServeError; 8] {
    [
        ServeError::Overloaded(OverloadReason::MailboxFull { capacity: 64 }),
        ServeError::Overloaded(OverloadReason::TensorBytes {
            estimated: 10_000_000_000,
            limit: 1 << 30,
        }),
        ServeError::Timeout {
            deadline: Duration::from_millis(1500),
        },
        ServeError::Faulted {
            panic: true,
            message: "injected fault: worker panic".into(),
        },
        ServeError::Faulted {
            panic: false,
            message: "line\nbreak".into(),
        },
        ServeError::BadRequest("no \"such\" workload".into()),
        ServeError::TooLarge { limit: 1 << 20 },
        ServeError::Shutdown,
    ]
}

/// Asserts a request line, then decodes and re-encodes it.
fn pin_request(id: u64, work: &Work, expected: &str) {
    let line = encode_request(id, work);
    assert_eq!(line, expected);
    let (rid, WireRequest::Work { work }) = decode_request_line(expected).unwrap() else {
        panic!("work line decoded as a ping")
    };
    assert_eq!(encode_request(rid, &work), expected);
}

/// Asserts a reply line, then decodes and re-encodes it.
fn pin_reply(id: Option<u64>, outcome: &Result<Reply, ServeError>, expected: &str) {
    assert_eq!(encode_reply(id, outcome), expected);
    let (rid, decoded) = decode_reply(expected).unwrap();
    assert_eq!(encode_reply(rid, &decoded), expected);
}

#[test]
fn request_lines_match_the_transcript() {
    pin_request(
        1,
        &Work::Sim(sim_request()),
        r#"{"id":1,"kind":"sim","req":{"workload":{"name":"email-Enron","nrows":1000,"ncols":1001,"target_nnz":5000,"class":"graph","paper_sparsity":4607173411600762667,"variability":4609434218613702656,"seed":7},"variant":{"kind":"ob","y":4591870180066957722,"k":10},"arch":{"gb_bytes":1048576,"pe_buf_bytes":4096,"pe_count":128,"bytes_per_element":12,"dram_bytes_per_cycle":4634485491540951040,"gb_elems_per_cycle":4629770785681047552,"isect_coords_per_cycle":4591870180066957722,"macs_per_pe_per_cycle":4607182418800017408,"operand_fraction":4602678819172646912,"dram_latency_cycles":100,"gb_latency_cycles":2},"budget":1048576,"grid":"grid2d","auto_plan":true}}"#,
    );
    pin_request(
        2,
        &Work::Functional(Box::new(functional_request())),
        r#"{"id":2,"kind":"functional","req":{"workload":{"name":"odd \"name\"\t\\1","nrows":64,"ncols":32,"target_nnz":0,"class":"linear-system","paper_sparsity":9223372036854775808,"variability":9218868437227405312,"seed":18446744073709551615},"variant":{"kind":"p"},"arch":{"gb_bytes":1048576,"pe_buf_bytes":4096,"pe_count":128,"bytes_per_element":12,"dram_bytes_per_cycle":4634485491540951040,"gb_elems_per_cycle":4629770785681047552,"isect_coords_per_cycle":4591870180066957722,"macs_per_pe_per_cycle":4607182418800017408,"operand_fraction":4602678819172646912,"dram_latency_cycles":100,"gb_latency_cycles":2},"budget":"unbounded","grid":"panels","auto_plan":false,"threads":3}}"#,
    );
    pin_request(
        3,
        &Work::Sim(road_request()),
        r#"{"id":3,"kind":"sim","req":{"workload":{"name":"email-Enron","nrows":1000,"ncols":1001,"target_nnz":5000,"class":"road-network","paper_sparsity":4607173411600762667,"variability":4609434218613702656,"seed":7},"variant":{"kind":"n"},"arch":{"gb_bytes":1048576,"pe_buf_bytes":4096,"pe_count":128,"bytes_per_element":12,"dram_bytes_per_cycle":4634485491540951040,"gb_elems_per_cycle":4629770785681047552,"isect_coords_per_cycle":4591870180066957722,"macs_per_pe_per_cycle":4607182418800017408,"operand_fraction":4602678819172646912,"dram_latency_cycles":100,"gb_latency_cycles":2},"budget":"unbounded","grid":"grid2d","auto_plan":true}}"#,
    );
}

#[test]
fn ping_and_pong_match_the_transcript() {
    let mut line = String::new();
    encode_ping_into(5, &mut line);
    assert_eq!(line, r#"{"id":5,"kind":"ping"}"#);
    assert!(matches!(
        decode_request_line(&line).unwrap(),
        (5, WireRequest::Ping)
    ));
    let stats = RuntimeStats {
        submitted: 11,
        completed: 1,
        rejected: 2,
        timed_out: 3,
        faulted: 4,
        panics_isolated: 5,
        retries: 6,
        injected_panics: 7,
        injected_latency: 8,
        injected_rejects: 9,
        injected_drops: 10,
    };
    encode_pong_into(5, &stats, &mut line);
    assert_eq!(
        line,
        r#"{"id":5,"ok":{"kind":"pong","stats":{"submitted":11,"completed":1,"rejected":2,"timed_out":3,"faulted":4,"panics_isolated":5,"retries":6,"injected_panics":7,"injected_latency":8,"injected_rejects":9,"injected_drops":10}}}"#
    );
}

#[test]
fn result_replies_match_the_transcript() {
    pin_reply(
        Some(1),
        &Ok(Reply::Sim(sim_response())),
        r#"{"id":1,"ok":{"kind":"sim","resp":{"name":"email-Enron","metrics":{"cycles":4668012624728817664,"energy_pj":9221120237041090560,"activity":{"dram_elems":18446744073709551616,"gb_accesses":2,"pe_buf_accesses":3,"macs":4,"isect_coords":5},"dram":{"total":100,"baseline":80,"overbook_extra":20},"reuse":{"bumped_fraction":4598175219545276416,"reused_fraction":4604930618986332160,"overbooked_a_tiles":1,"total_a_tiles":10,"overbooked_b_tiles":0,"total_b_tiles":9},"plan":{"gb_rows_a":16,"gb_cols_b":32,"pe_rows_a":2,"pe_cols_b":4,"full_k":true,"overbooking":false},"scratch":{"col_blocks":3,"block_cols":11,"bytes_per_thread":8192,"fits_budget":true,"grid":"grid2d","parallel_units":6},"bound_by":"global-buffer"},"hits":{"tensor":true,"profile":false,"plan":true}}}}"#,
    );
    pin_reply(
        Some(2),
        &Ok(Reply::Functional(Box::new(functional_response()))),
        r#"{"id":2,"ok":{"kind":"functional","resp":{"config":{"capacity":2048,"fifo_region":256,"rows_a":8,"cols_b":32,"overbooking":true,"mem_budget":65536,"grid":"panels","auto_plan":true},"result":{"z":{"nrows":2,"ncols":3,"row_ptr":[0,1,3],"cols":[2,0,1],"vals":[4609434218613702656,13835058055282163712,4598175219545276416]},"dram_a_fetches":17,"dram_b_fetches":19,"overbooked_a_tiles":1},"hits":{"tensor":false,"profile":false,"plan":false}}}}"#,
    );
}

#[test]
fn error_replies_match_the_transcript() {
    let expected = [
        r#"{"id":3,"err":{"code":"overloaded","reason":"mailbox-full","capacity":64}}"#,
        r#"{"id":3,"err":{"code":"overloaded","reason":"tensor-bytes","estimated":10000000000,"limit":1073741824}}"#,
        r#"{"id":3,"err":{"code":"timeout","deadline_secs":1,"deadline_nanos":500000000}}"#,
        r#"{"id":3,"err":{"code":"faulted","panic":true,"message":"injected fault: worker panic"}}"#,
        r#"{"id":3,"err":{"code":"faulted","panic":false,"message":"line\nbreak"}}"#,
        r#"{"id":3,"err":{"code":"bad-request","message":"no \"such\" workload"}}"#,
        r#"{"id":3,"err":{"code":"too-large","limit":1048576}}"#,
        r#"{"id":3,"err":{"code":"shutdown"}}"#,
    ];
    for (err, line) in serve_errors().into_iter().zip(expected) {
        pin_reply(Some(3), &Err(err), line);
    }
    // An id-less reply (the server's answer to an oversized line).
    pin_reply(
        None,
        &Err(ServeError::TooLarge { limit: 1 << 20 }),
        r#"{"id":null,"err":{"code":"too-large","limit":1048576}}"#,
    );
}

#[test]
fn malformed_lines_get_the_transcript_replies() {
    let runtime = ServiceRuntime::new(RuntimeConfig::default());
    // A sim request missing its workload, then one whose id is a string.
    let input = concat!(
        r#"{"id":4,"kind":"sim","req":{"variant":{"kind":"n"}}}"#,
        "\n",
        r#"{"id":"4","kind":"ping"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let report = serve_lines(&runtime, input.as_bytes(), &mut out).unwrap();
    assert_eq!(report.protocol_errors, 2);
    assert_eq!(
        std::str::from_utf8(&out).unwrap(),
        concat!(
            r#"{"id":null,"err":{"code":"malformed","message":"malformed wire message: missing field \"workload\""}}"#,
            "\n",
            r#"{"id":null,"err":{"code":"malformed","message":"malformed wire message: expected a number, got Str(\"4\")"}}"#,
            "\n",
        )
    );
    assert_eq!(runtime.stats().submitted, 0);
}
