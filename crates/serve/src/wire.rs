//! The wire front door: a line-delimited JSON protocol over stdio or
//! TCP, hand-rolled (no serde — the container pins the dependency set)
//! on top of the [`crate::runtime::ServiceRuntime`].
//!
//! # Protocol
//!
//! One request per line, one reply per line, in order:
//!
//! ```text
//! → {"id":1,"kind":"sim","req":{...}}
//! ← {"id":1,"ok":{"kind":"sim","resp":{...}}}
//! → {"id":2,"kind":"functional","req":{...}}
//! ← {"id":2,"err":{"code":"overloaded","reason":"mailbox-full",...}}
//! → not json at all
//! ← {"id":null,"err":{"code":"malformed","message":"..."}}
//! ```
//!
//! A malformed or truncated line gets a *protocol-level error reply*
//! (`code: "malformed"`, `id: null`) — the connection stays up and later
//! well-formed requests are served; nothing panics and nothing is
//! dropped. A line longer than the session's cap gets one `id: null`
//! reply with `code: "too-large"` and the cap in `limit`, and ends the
//! session (the rest of the line is never read). Every server-side
//! failure travels back as the typed [`ServeError`] it was, so a wire
//! client sees exactly the outcomes an in-process caller sees.
//!
//! # Bit-exactness
//!
//! Every `f64` crosses the wire as the decimal rendering of its
//! [`f64::to_bits`] pattern (and `u128` counters as plain decimal), so a
//! decoded reply is **bit-identical** to the in-process response — the
//! serving layer's determinism contract survives the transport, which
//! the wire determinism suite asserts against cold in-process runs.
//! A welcome side effect: the codec never parses or prints floating
//! point, so there is no rounding to reason about.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tailors_sim::functional::{FunctionalConfig, FunctionalResult};
use tailors_sim::{
    ActivityCounts, ArchConfig, DramBreakdown, GridMode, MemBudget, ReuseStats, RunMetrics,
    ScratchStats, TilePlan, Variant,
};
use tailors_tensor::CsrMatrix;
use tailors_workloads::{Workload, WorkloadClass};

use crate::runtime::{
    OverloadReason, Reply, RetryPolicy, RuntimeStats, ServeError, ServiceRuntime, Work,
};
use crate::service::{CacheHits, FunctionalRequest, FunctionalResponse, SimRequest, SimResponse};

/// Transport- and protocol-level failures (distinct from [`ServeError`],
/// which is a *successful* protocol exchange reporting a service
/// failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The line was not a well-formed protocol message.
    Malformed(String),
    /// The underlying transport failed.
    Io(String),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed wire message: {m}"),
            WireError::Io(m) => write!(f, "wire transport error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// A minimal JSON value model: numbers stay raw decimal tokens, which is
// all this protocol emits (every float is carried as its bit pattern).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Public so the codec round-trip property tests can
/// exercise the parser directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (this protocol only emits decimal
    /// integers).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in emission order. Keys are `Cow` so the encoders
    /// borrow their `'static` field names (no per-key allocation on the
    /// hot reply path) while the parser stores owned keys.
    Obj(Vec<(std::borrow::Cow<'static, str>, Json)>),
}

/// Nesting depth bound — protocol messages nest ~5 deep; anything deeper
/// is hostile or corrupt and is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] with a position-carrying description;
    /// never panics, for any input.
    pub fn parse(input: &str) -> Result<Json, WireError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(malformed(format!(
                "trailing bytes at offset {} of {:?}",
                p.pos,
                truncate_for_error(input)
            )));
        }
        Ok(v)
    }

    /// Serializes to a single line (no internal newlines, ever — the
    /// framing depends on it).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Serializes into a caller-owned buffer, clearing it first. The
    /// buffer's capacity survives across calls, so a session that reuses
    /// one buffer renders every steady-state reply without touching the
    /// allocator (capacity only ever ratchets up to the largest message
    /// seen).
    pub fn render_into(&self, out: &mut String) {
        out.clear();
        self.write(out);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    // -- typed accessors; every failure is a Malformed with context --

    fn get(&self, key: &str) -> Result<&Json, WireError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| malformed(format!("missing field {key:?}"))),
            _ => Err(malformed(format!("expected an object with field {key:?}"))),
        }
    }

    fn opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str_(&self) -> Result<&str, WireError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(malformed(format!("expected a string, got {other:?}"))),
        }
    }

    fn bool_(&self) -> Result<bool, WireError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(malformed(format!("expected a bool, got {other:?}"))),
        }
    }

    fn num_tok(&self) -> Result<&str, WireError> {
        match self {
            Json::Num(tok) => Ok(tok),
            other => Err(malformed(format!("expected a number, got {other:?}"))),
        }
    }

    fn u64_(&self) -> Result<u64, WireError> {
        let tok = self.num_tok()?;
        tok.parse()
            .map_err(|_| malformed(format!("number {tok:?} is not a u64")))
    }

    fn u128_(&self) -> Result<u128, WireError> {
        let tok = self.num_tok()?;
        tok.parse()
            .map_err(|_| malformed(format!("number {tok:?} is not a u128")))
    }

    fn usize_(&self) -> Result<usize, WireError> {
        let tok = self.num_tok()?;
        tok.parse()
            .map_err(|_| malformed(format!("number {tok:?} is not a usize")))
    }

    fn u32_(&self) -> Result<u32, WireError> {
        let tok = self.num_tok()?;
        tok.parse()
            .map_err(|_| malformed(format!("number {tok:?} is not a u32")))
    }

    /// An `f64` carried as the decimal rendering of its bit pattern.
    fn f64_bits(&self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64_()?))
    }

    fn arr(&self) -> Result<&[Json], WireError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(malformed(format!("expected an array, got {other:?}"))),
        }
    }
}

fn truncate_for_error(s: &str) -> String {
    const LIMIT: usize = 80;
    if s.len() <= LIMIT {
        s.to_string()
    } else {
        let mut end = LIMIT;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, msg: &str) -> WireError {
        malformed(format!("{msg} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.fail("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.fail("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key.into(), value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.fail("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.fail("unexpected byte")),
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.fail("expected digits"));
        }
        // Accept (but never emit) fraction/exponent syntax so foreign
        // senders fail at typed decoding, not tokenization.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac {
                return Err(self.fail("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp {
                return Err(self.fail("expected exponent digits"));
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid utf-8 in number"))?;
        Ok(Json::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // A high surrogate must pair with \uDC00..
                                if !(self.eat_keyword("\\u")) {
                                    return Err(self.fail("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.fail("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.fail("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.fail("invalid escape code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.fail("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // boundaries are valid; find the next one).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.fail("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.fail("eof"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.fail("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.fail("invalid utf-8 in \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.fail("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Interning: wire messages carry owned strings, but `Workload::name`,
// `SimResponse::name`, and `RunMetrics::bound_by` are `&'static str`.
// Suite names resolve back to their existing statics (a scan of the
// Table 2 rows; the suite itself is never built); anything else is
// leaked once into a deduplicating pool (bounded by the number of
// distinct names a process ever decodes).
// ---------------------------------------------------------------------------

fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock, PoisonError};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut pool = pool.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

fn intern_workload_name(s: &str) -> &'static str {
    match tailors_workloads::by_name(s) {
        Some(w) => w.name,
        None => intern(s),
    }
}

fn intern_bound_by(s: &str) -> &'static str {
    match s {
        "dram" => "dram",
        "global-buffer" => "global-buffer",
        "intersection" => "intersection",
        "compute" => "compute",
        other => intern(other),
    }
}

// ---------------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------------

fn num_u64(v: u64) -> Json {
    Json::Num(v.to_string())
}

fn num_u128(v: u128) -> Json {
    Json::Num(v.to_string())
}

fn num_usize(v: usize) -> Json {
    Json::Num(v.to_string())
}

fn bits(v: f64) -> Json {
    Json::Num(v.to_bits().to_string())
}

// Field names are compile-time literals, so the arena borrows them:
// building an envelope allocates only the (exact-sized) field vector,
// never the keys.
fn obj(fields: Vec<(&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (std::borrow::Cow::Borrowed(k), v))
            .collect(),
    )
}

fn encode_workload(wl: &Workload) -> Json {
    let class = match wl.class {
        WorkloadClass::LinearSystem => "linear-system",
        WorkloadClass::Graph => "graph",
        WorkloadClass::RoadNetwork => "road-network",
    };
    obj(vec![
        ("name", Json::Str(wl.name.to_string())),
        ("nrows", num_usize(wl.nrows)),
        ("ncols", num_usize(wl.ncols)),
        ("target_nnz", num_usize(wl.target_nnz)),
        ("class", Json::Str(class.to_string())),
        ("paper_sparsity", bits(wl.paper_sparsity)),
        ("variability", bits(wl.variability)),
        ("seed", num_u64(wl.seed)),
    ])
}

fn decode_workload(v: &Json) -> Result<Workload, WireError> {
    let class = match v.get("class")?.str_()? {
        "linear-system" => WorkloadClass::LinearSystem,
        "graph" => WorkloadClass::Graph,
        "road-network" => WorkloadClass::RoadNetwork,
        other => return Err(malformed(format!("unknown workload class {other:?}"))),
    };
    Ok(Workload {
        name: intern_workload_name(v.get("name")?.str_()?),
        nrows: v.get("nrows")?.usize_()?,
        ncols: v.get("ncols")?.usize_()?,
        target_nnz: v.get("target_nnz")?.usize_()?,
        class,
        paper_sparsity: v.get("paper_sparsity")?.f64_bits()?,
        variability: v.get("variability")?.f64_bits()?,
        seed: v.get("seed")?.u64_()?,
    })
}

fn encode_variant(v: Variant) -> Json {
    match v {
        Variant::ExTensorN => obj(vec![("kind", Json::Str("n".into()))]),
        Variant::ExTensorP => obj(vec![("kind", Json::Str("p".into()))]),
        Variant::ExTensorOB { y, k } => obj(vec![
            ("kind", Json::Str("ob".into())),
            ("y", bits(y)),
            ("k", num_usize(k)),
        ]),
        // `Variant` is non_exhaustive upstream; refuse rather than
        // silently mis-encode a future variant.
        other => unreachable!("unencodable variant {other:?}"),
    }
}

fn decode_variant(v: &Json) -> Result<Variant, WireError> {
    match v.get("kind")?.str_()? {
        "n" => Ok(Variant::ExTensorN),
        "p" => Ok(Variant::ExTensorP),
        "ob" => Ok(Variant::ExTensorOB {
            y: v.get("y")?.f64_bits()?,
            k: v.get("k")?.usize_()?,
        }),
        other => Err(malformed(format!("unknown variant kind {other:?}"))),
    }
}

fn encode_arch(a: &ArchConfig) -> Json {
    obj(vec![
        ("gb_bytes", num_u64(a.gb_bytes)),
        ("pe_buf_bytes", num_u64(a.pe_buf_bytes)),
        ("pe_count", num_u64(a.pe_count)),
        ("bytes_per_element", num_u64(a.bytes_per_element)),
        ("dram_bytes_per_cycle", bits(a.dram_bytes_per_cycle)),
        ("gb_elems_per_cycle", bits(a.gb_elems_per_cycle)),
        ("isect_coords_per_cycle", bits(a.isect_coords_per_cycle)),
        ("macs_per_pe_per_cycle", bits(a.macs_per_pe_per_cycle)),
        ("operand_fraction", bits(a.operand_fraction)),
        ("dram_latency_cycles", num_u64(a.dram_latency_cycles)),
        ("gb_latency_cycles", num_u64(a.gb_latency_cycles)),
    ])
}

fn decode_arch(v: &Json) -> Result<ArchConfig, WireError> {
    Ok(ArchConfig {
        gb_bytes: v.get("gb_bytes")?.u64_()?,
        pe_buf_bytes: v.get("pe_buf_bytes")?.u64_()?,
        pe_count: v.get("pe_count")?.u64_()?,
        bytes_per_element: v.get("bytes_per_element")?.u64_()?,
        dram_bytes_per_cycle: v.get("dram_bytes_per_cycle")?.f64_bits()?,
        gb_elems_per_cycle: v.get("gb_elems_per_cycle")?.f64_bits()?,
        isect_coords_per_cycle: v.get("isect_coords_per_cycle")?.f64_bits()?,
        macs_per_pe_per_cycle: v.get("macs_per_pe_per_cycle")?.f64_bits()?,
        operand_fraction: v.get("operand_fraction")?.f64_bits()?,
        dram_latency_cycles: v.get("dram_latency_cycles")?.u64_()?,
        gb_latency_cycles: v.get("gb_latency_cycles")?.u64_()?,
    })
}

fn encode_budget(b: MemBudget) -> Json {
    match b.limit_bytes() {
        None => Json::Str("unbounded".into()),
        Some(n) => num_u64(n),
    }
}

fn decode_budget(v: &Json) -> Result<MemBudget, WireError> {
    match v {
        Json::Str(s) if s == "unbounded" => Ok(MemBudget::Unbounded),
        Json::Num(_) => Ok(MemBudget::Bytes(v.u64_()?)),
        other => Err(malformed(format!("invalid budget {other:?}"))),
    }
}

fn encode_grid(g: GridMode) -> Json {
    Json::Str(
        match g {
            GridMode::Panels => "panels",
            GridMode::Grid2D => "grid2d",
        }
        .into(),
    )
}

fn decode_grid(v: &Json) -> Result<GridMode, WireError> {
    GridMode::parse(v.str_()?).map_err(malformed)
}

fn encode_sim_request(r: &SimRequest) -> Json {
    obj(vec![
        ("workload", encode_workload(&r.workload)),
        ("variant", encode_variant(r.variant)),
        ("arch", encode_arch(&r.arch)),
        ("budget", encode_budget(r.budget)),
        ("grid", encode_grid(r.grid)),
        ("auto_plan", Json::Bool(r.auto_plan)),
    ])
}

fn decode_sim_request(v: &Json) -> Result<SimRequest, WireError> {
    Ok(SimRequest {
        workload: decode_workload(v.get("workload")?)?,
        variant: decode_variant(v.get("variant")?)?,
        arch: decode_arch(v.get("arch")?)?,
        budget: decode_budget(v.get("budget")?)?,
        grid: decode_grid(v.get("grid")?)?,
        auto_plan: v.get("auto_plan")?.bool_()?,
    })
}

fn encode_functional_request(r: &FunctionalRequest) -> Json {
    obj(vec![
        ("workload", encode_workload(&r.workload)),
        ("variant", encode_variant(r.variant)),
        ("arch", encode_arch(&r.arch)),
        ("budget", encode_budget(r.budget)),
        ("grid", encode_grid(r.grid)),
        ("auto_plan", Json::Bool(r.auto_plan)),
        ("threads", num_usize(r.threads)),
    ])
}

fn decode_functional_request(v: &Json) -> Result<FunctionalRequest, WireError> {
    Ok(FunctionalRequest {
        workload: decode_workload(v.get("workload")?)?,
        variant: decode_variant(v.get("variant")?)?,
        arch: decode_arch(v.get("arch")?)?,
        budget: decode_budget(v.get("budget")?)?,
        grid: decode_grid(v.get("grid")?)?,
        auto_plan: v.get("auto_plan")?.bool_()?,
        threads: v.get("threads")?.usize_()?,
    })
}

fn encode_metrics(m: &RunMetrics) -> Json {
    obj(vec![
        ("cycles", bits(m.cycles)),
        ("energy_pj", bits(m.energy_pj)),
        (
            "activity",
            obj(vec![
                ("dram_elems", num_u128(m.activity.dram_elems)),
                ("gb_accesses", num_u128(m.activity.gb_accesses)),
                ("pe_buf_accesses", num_u128(m.activity.pe_buf_accesses)),
                ("macs", num_u128(m.activity.macs)),
                ("isect_coords", num_u128(m.activity.isect_coords)),
            ]),
        ),
        (
            "dram",
            obj(vec![
                ("total", num_u128(m.dram.total)),
                ("baseline", num_u128(m.dram.baseline)),
                ("overbook_extra", num_u128(m.dram.overbook_extra)),
            ]),
        ),
        (
            "reuse",
            obj(vec![
                ("bumped_fraction", bits(m.reuse.bumped_fraction)),
                ("reused_fraction", bits(m.reuse.reused_fraction)),
                ("overbooked_a_tiles", num_usize(m.reuse.overbooked_a_tiles)),
                ("total_a_tiles", num_usize(m.reuse.total_a_tiles)),
                ("overbooked_b_tiles", num_usize(m.reuse.overbooked_b_tiles)),
                ("total_b_tiles", num_usize(m.reuse.total_b_tiles)),
            ]),
        ),
        (
            "plan",
            obj(vec![
                ("gb_rows_a", num_usize(m.plan.gb_rows_a)),
                ("gb_cols_b", num_usize(m.plan.gb_cols_b)),
                ("pe_rows_a", num_usize(m.plan.pe_rows_a)),
                ("pe_cols_b", num_usize(m.plan.pe_cols_b)),
                ("full_k", Json::Bool(m.plan.full_k)),
                ("overbooking", Json::Bool(m.plan.overbooking)),
            ]),
        ),
        (
            "scratch",
            obj(vec![
                ("col_blocks", num_usize(m.scratch.col_blocks)),
                ("block_cols", num_usize(m.scratch.block_cols)),
                ("bytes_per_thread", num_u64(m.scratch.bytes_per_thread)),
                ("fits_budget", Json::Bool(m.scratch.fits_budget)),
                ("grid", encode_grid(m.scratch.grid)),
                ("parallel_units", num_usize(m.scratch.parallel_units)),
            ]),
        ),
        ("bound_by", Json::Str(m.bound_by.to_string())),
    ])
}

fn decode_metrics(v: &Json) -> Result<RunMetrics, WireError> {
    let a = v.get("activity")?;
    let d = v.get("dram")?;
    let r = v.get("reuse")?;
    let p = v.get("plan")?;
    let s = v.get("scratch")?;
    Ok(RunMetrics {
        cycles: v.get("cycles")?.f64_bits()?,
        energy_pj: v.get("energy_pj")?.f64_bits()?,
        activity: ActivityCounts {
            dram_elems: a.get("dram_elems")?.u128_()?,
            gb_accesses: a.get("gb_accesses")?.u128_()?,
            pe_buf_accesses: a.get("pe_buf_accesses")?.u128_()?,
            macs: a.get("macs")?.u128_()?,
            isect_coords: a.get("isect_coords")?.u128_()?,
        },
        dram: DramBreakdown {
            total: d.get("total")?.u128_()?,
            baseline: d.get("baseline")?.u128_()?,
            overbook_extra: d.get("overbook_extra")?.u128_()?,
        },
        reuse: ReuseStats {
            bumped_fraction: r.get("bumped_fraction")?.f64_bits()?,
            reused_fraction: r.get("reused_fraction")?.f64_bits()?,
            overbooked_a_tiles: r.get("overbooked_a_tiles")?.usize_()?,
            total_a_tiles: r.get("total_a_tiles")?.usize_()?,
            overbooked_b_tiles: r.get("overbooked_b_tiles")?.usize_()?,
            total_b_tiles: r.get("total_b_tiles")?.usize_()?,
        },
        plan: TilePlan {
            gb_rows_a: p.get("gb_rows_a")?.usize_()?,
            gb_cols_b: p.get("gb_cols_b")?.usize_()?,
            pe_rows_a: p.get("pe_rows_a")?.usize_()?,
            pe_cols_b: p.get("pe_cols_b")?.usize_()?,
            full_k: p.get("full_k")?.bool_()?,
            overbooking: p.get("overbooking")?.bool_()?,
        },
        scratch: ScratchStats {
            col_blocks: s.get("col_blocks")?.usize_()?,
            block_cols: s.get("block_cols")?.usize_()?,
            bytes_per_thread: s.get("bytes_per_thread")?.u64_()?,
            fits_budget: s.get("fits_budget")?.bool_()?,
            grid: decode_grid(s.get("grid")?)?,
            parallel_units: s.get("parallel_units")?.usize_()?,
        },
        bound_by: intern_bound_by(v.get("bound_by")?.str_()?),
    })
}

fn encode_hits(h: &CacheHits) -> Json {
    obj(vec![
        ("tensor", Json::Bool(h.tensor)),
        ("profile", Json::Bool(h.profile)),
        ("plan", Json::Bool(h.plan)),
    ])
}

fn decode_hits(v: &Json) -> Result<CacheHits, WireError> {
    Ok(CacheHits {
        tensor: v.get("tensor")?.bool_()?,
        profile: v.get("profile")?.bool_()?,
        plan: v.get("plan")?.bool_()?,
    })
}

fn encode_csr(m: &CsrMatrix) -> Json {
    obj(vec![
        ("nrows", num_usize(m.nrows())),
        ("ncols", num_usize(m.ncols())),
        (
            "row_ptr",
            Json::Arr(m.row_ptr().iter().map(|&p| num_usize(p)).collect()),
        ),
        (
            "cols",
            Json::Arr(
                m.col_indices()
                    .iter()
                    .map(|&c| num_u64(u64::from(c)))
                    .collect(),
            ),
        ),
        (
            "vals",
            Json::Arr(m.values().iter().map(|&x| bits(x)).collect()),
        ),
    ])
}

fn decode_csr(v: &Json) -> Result<CsrMatrix, WireError> {
    let row_ptr = v
        .get("row_ptr")?
        .arr()?
        .iter()
        .map(Json::usize_)
        .collect::<Result<Vec<_>, _>>()?;
    let cols = v
        .get("cols")?
        .arr()?
        .iter()
        .map(Json::u32_)
        .collect::<Result<Vec<_>, _>>()?;
    let vals = v
        .get("vals")?
        .arr()?
        .iter()
        .map(Json::f64_bits)
        .collect::<Result<Vec<_>, _>>()?;
    CsrMatrix::from_parts(
        v.get("nrows")?.usize_()?,
        v.get("ncols")?.usize_()?,
        row_ptr,
        cols,
        vals,
    )
    .map_err(|e| malformed(format!("invalid CSR payload: {e:?}")))
}

fn encode_functional_config(c: &FunctionalConfig) -> Json {
    obj(vec![
        ("capacity", num_usize(c.capacity)),
        ("fifo_region", num_usize(c.fifo_region)),
        ("rows_a", num_usize(c.rows_a)),
        ("cols_b", num_usize(c.cols_b)),
        ("overbooking", Json::Bool(c.overbooking)),
        ("mem_budget", encode_budget(c.mem_budget)),
        ("grid", encode_grid(c.grid)),
        ("auto_plan", Json::Bool(c.auto_plan)),
    ])
}

fn decode_functional_config(v: &Json) -> Result<FunctionalConfig, WireError> {
    Ok(FunctionalConfig {
        capacity: v.get("capacity")?.usize_()?,
        fifo_region: v.get("fifo_region")?.usize_()?,
        rows_a: v.get("rows_a")?.usize_()?,
        cols_b: v.get("cols_b")?.usize_()?,
        overbooking: v.get("overbooking")?.bool_()?,
        mem_budget: decode_budget(v.get("mem_budget")?)?,
        grid: decode_grid(v.get("grid")?)?,
        auto_plan: v.get("auto_plan")?.bool_()?,
    })
}

fn encode_sim_response(r: &SimResponse) -> Json {
    obj(vec![
        ("name", Json::Str(r.name.to_string())),
        ("metrics", encode_metrics(&r.metrics)),
        ("hits", encode_hits(&r.hits)),
    ])
}

fn decode_sim_response(v: &Json) -> Result<SimResponse, WireError> {
    Ok(SimResponse {
        name: intern_workload_name(v.get("name")?.str_()?),
        metrics: decode_metrics(v.get("metrics")?)?,
        hits: decode_hits(v.get("hits")?)?,
    })
}

fn encode_functional_response(r: &FunctionalResponse) -> Json {
    obj(vec![
        ("config", encode_functional_config(&r.config)),
        (
            "result",
            obj(vec![
                ("z", encode_csr(&r.result.z)),
                ("dram_a_fetches", num_u64(r.result.dram_a_fetches)),
                ("dram_b_fetches", num_u64(r.result.dram_b_fetches)),
                ("overbooked_a_tiles", num_usize(r.result.overbooked_a_tiles)),
            ]),
        ),
        ("hits", encode_hits(&r.hits)),
    ])
}

fn decode_functional_response(v: &Json) -> Result<FunctionalResponse, WireError> {
    let res = v.get("result")?;
    Ok(FunctionalResponse {
        config: decode_functional_config(v.get("config")?)?,
        result: FunctionalResult {
            z: decode_csr(res.get("z")?)?,
            dram_a_fetches: res.get("dram_a_fetches")?.u64_()?,
            dram_b_fetches: res.get("dram_b_fetches")?.u64_()?,
            overbooked_a_tiles: res.get("overbooked_a_tiles")?.usize_()?,
        },
        hits: decode_hits(v.get("hits")?)?,
    })
}

fn encode_serve_error(e: &ServeError) -> Json {
    match e {
        ServeError::Overloaded(OverloadReason::MailboxFull { capacity }) => obj(vec![
            ("code", Json::Str("overloaded".into())),
            ("reason", Json::Str("mailbox-full".into())),
            ("capacity", num_usize(*capacity)),
        ]),
        ServeError::Overloaded(OverloadReason::TensorBytes { estimated, limit }) => obj(vec![
            ("code", Json::Str("overloaded".into())),
            ("reason", Json::Str("tensor-bytes".into())),
            ("estimated", num_u64(*estimated)),
            ("limit", num_u64(*limit)),
        ]),
        ServeError::Timeout { deadline } => obj(vec![
            ("code", Json::Str("timeout".into())),
            ("deadline_secs", num_u64(deadline.as_secs())),
            (
                "deadline_nanos",
                num_u64(u64::from(deadline.subsec_nanos())),
            ),
        ]),
        ServeError::Faulted { panic, message } => obj(vec![
            ("code", Json::Str("faulted".into())),
            ("panic", Json::Bool(*panic)),
            ("message", Json::Str(message.clone())),
        ]),
        ServeError::BadRequest(m) => obj(vec![
            ("code", Json::Str("bad-request".into())),
            ("message", Json::Str(m.clone())),
        ]),
        ServeError::TooLarge { limit } => obj(vec![
            ("code", Json::Str("too-large".into())),
            ("limit", num_u64(*limit)),
        ]),
        ServeError::Shutdown => obj(vec![("code", Json::Str("shutdown".into()))]),
    }
}

fn decode_serve_error(v: &Json) -> Result<ServeError, WireError> {
    match v.get("code")?.str_()? {
        "overloaded" => match v.get("reason")?.str_()? {
            "mailbox-full" => Ok(ServeError::Overloaded(OverloadReason::MailboxFull {
                capacity: v.get("capacity")?.usize_()?,
            })),
            "tensor-bytes" => Ok(ServeError::Overloaded(OverloadReason::TensorBytes {
                estimated: v.get("estimated")?.u64_()?,
                limit: v.get("limit")?.u64_()?,
            })),
            other => Err(malformed(format!("unknown overload reason {other:?}"))),
        },
        "timeout" => {
            let secs = v.get("deadline_secs")?.u64_()?;
            let nanos = v.get("deadline_nanos")?.u64_()?;
            let nanos =
                u32::try_from(nanos).map_err(|_| malformed("timeout nanos out of range"))?;
            if nanos >= 1_000_000_000 {
                return Err(malformed("timeout nanos out of range"));
            }
            Ok(ServeError::Timeout {
                deadline: Duration::new(secs, nanos),
            })
        }
        "faulted" => Ok(ServeError::Faulted {
            panic: v.get("panic")?.bool_()?,
            message: v.get("message")?.str_()?.to_string(),
        }),
        "bad-request" => Ok(ServeError::BadRequest(
            v.get("message")?.str_()?.to_string(),
        )),
        "too-large" => Ok(ServeError::TooLarge {
            limit: v.get("limit")?.u64_()?,
        }),
        "shutdown" => Ok(ServeError::Shutdown),
        // A protocol-level error reply from the server: surface it as the
        // bad request it (from the server's view) was.
        "malformed" => Ok(ServeError::BadRequest(format!(
            "protocol error: {}",
            v.get("message")?.str_()?
        ))),
        other => Err(malformed(format!("unknown error code {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

/// Encodes one request line (no trailing newline).
pub fn encode_request(id: u64, work: &Work) -> String {
    let mut out = String::new();
    encode_request_into(id, work, &mut out);
    out
}

/// [`encode_request`] into a reusable buffer (cleared first): a client
/// that keeps one buffer per session renders steady-state requests
/// without allocating the line itself.
pub fn encode_request_into(id: u64, work: &Work, out: &mut String) {
    let (kind, req) = match work {
        Work::Sim(r) => ("sim", encode_sim_request(r)),
        Work::Functional(r) => ("functional", encode_functional_request(r)),
    };
    obj(vec![
        ("id", num_u64(id)),
        ("kind", Json::Str(kind.into())),
        ("req", req),
    ])
    .render_into(out);
}

/// Encodes a ping request line: `{"id":N,"kind":"ping"}` — no payload.
/// The server answers from its session loop without queueing anything,
/// so a ping is safe against a wedged worker pool and never enters the
/// outcome ledger.
pub fn encode_ping_into(id: u64, out: &mut String) {
    obj(vec![
        ("id", num_u64(id)),
        ("kind", Json::Str("ping".into())),
    ])
    .render_into(out);
}

/// Encodes the pong reply to a ping: the envelope carries a snapshot of
/// the runtime's outcome counters, so one ping both proves liveness and
/// fetches the server's stats.
pub fn encode_pong_into(id: u64, stats: &RuntimeStats, out: &mut String) {
    obj(vec![
        ("id", num_u64(id)),
        (
            "ok",
            obj(vec![
                ("kind", Json::Str("pong".into())),
                ("stats", encode_runtime_stats(stats)),
            ]),
        ),
    ])
    .render_into(out);
}

fn encode_runtime_stats(s: &RuntimeStats) -> Json {
    obj(vec![
        ("submitted", num_u64(s.submitted)),
        ("completed", num_u64(s.completed)),
        ("rejected", num_u64(s.rejected)),
        ("timed_out", num_u64(s.timed_out)),
        ("faulted", num_u64(s.faulted)),
        ("panics_isolated", num_u64(s.panics_isolated)),
        ("retries", num_u64(s.retries)),
        ("injected_panics", num_u64(s.injected_panics)),
        ("injected_latency", num_u64(s.injected_latency)),
        ("injected_rejects", num_u64(s.injected_rejects)),
        ("injected_drops", num_u64(s.injected_drops)),
    ])
}

fn decode_runtime_stats(v: &Json) -> Result<RuntimeStats, WireError> {
    Ok(RuntimeStats {
        submitted: v.get("submitted")?.u64_()?,
        completed: v.get("completed")?.u64_()?,
        rejected: v.get("rejected")?.u64_()?,
        timed_out: v.get("timed_out")?.u64_()?,
        faulted: v.get("faulted")?.u64_()?,
        panics_isolated: v.get("panics_isolated")?.u64_()?,
        retries: v.get("retries")?.u64_()?,
        injected_panics: v.get("injected_panics")?.u64_()?,
        injected_latency: v.get("injected_latency")?.u64_()?,
        injected_rejects: v.get("injected_rejects")?.u64_()?,
        injected_drops: v.get("injected_drops")?.u64_()?,
    })
}

/// A decoded request envelope: real work or a session-level ping.
///
/// The size disparity between the variants is deliberate: one value
/// exists per decoded line and is destructured immediately, so boxing
/// the work payload would buy nothing except a per-request heap
/// allocation — the exact cost the zero-alloc regression suite polices.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum WireRequest {
    /// A sim/functional request to submit to the runtime.
    Work {
        /// The decoded work.
        work: Work,
    },
    /// A liveness check, answered in the session loop with a stats pong.
    Ping,
}

/// Decodes one request line into a [`WireRequest`].
///
/// # Errors
///
/// [`WireError::Malformed`] for anything that is not a well-formed
/// request; never panics.
pub fn decode_request_line(line: &str) -> Result<(u64, WireRequest), WireError> {
    let v = Json::parse(line)?;
    let id = v.get("id")?.u64_()?;
    let kind = v.get("kind")?.str_()?;
    if kind == "ping" {
        return Ok((id, WireRequest::Ping));
    }
    let req = v.get("req")?;
    let work = match kind {
        "sim" => Work::Sim(decode_sim_request(req)?),
        "functional" => Work::Functional(Box::new(decode_functional_request(req)?)),
        other => return Err(malformed(format!("unknown request kind {other:?}"))),
    };
    Ok((id, WireRequest::Work { work }))
}

/// Encodes one reply line (no trailing newline). `id` is `None` only for
/// protocol-level (`malformed`) error replies, which answer lines whose
/// id could not be read.
pub fn encode_reply(id: Option<u64>, outcome: &Result<Reply, ServeError>) -> String {
    let mut out = String::new();
    encode_reply_into(id, outcome, &mut out);
    out
}

/// [`encode_reply`] into a reusable buffer (cleared first): the server
/// session loops keep one buffer per connection so steady-state replies
/// reuse its capacity instead of allocating a fresh line each time.
pub fn encode_reply_into(id: Option<u64>, outcome: &Result<Reply, ServeError>, out: &mut String) {
    let id_json = match id {
        Some(id) => num_u64(id),
        None => Json::Null,
    };
    let body = match outcome {
        Ok(Reply::Sim(r)) => (
            "ok",
            obj(vec![
                ("kind", Json::Str("sim".into())),
                ("resp", encode_sim_response(r)),
            ]),
        ),
        Ok(Reply::Functional(r)) => (
            "ok",
            obj(vec![
                ("kind", Json::Str("functional".into())),
                ("resp", encode_functional_response(r)),
            ]),
        ),
        Err(e) => ("err", encode_serve_error(e)),
    };
    obj(vec![("id", id_json), (body.0, body.1)]).render_into(out);
}

/// Encodes the protocol-level error reply for an undecodable line into a
/// reusable buffer (cleared first).
pub fn encode_malformed_reply_into(err: &WireError, out: &mut String) {
    obj(vec![
        ("id", Json::Null),
        (
            "err",
            obj(vec![
                ("code", Json::Str("malformed".into())),
                ("message", Json::Str(err.to_string())),
            ]),
        ),
    ])
    .render_into(out);
}

/// Decodes one reply line into `(id, outcome)`; `id` is `None` for
/// protocol-level error replies.
///
/// # Errors
///
/// [`WireError::Malformed`] for anything that is not a well-formed reply.
pub fn decode_reply(line: &str) -> Result<(Option<u64>, Result<Reply, ServeError>), WireError> {
    let v = Json::parse(line)?;
    let id = match v.get("id")? {
        Json::Null => None,
        other => Some(other.u64_()?),
    };
    if let Some(ok) = v.opt("ok") {
        let resp = ok.get("resp")?;
        let reply = match ok.get("kind")?.str_()? {
            "sim" => Reply::Sim(decode_sim_response(resp)?),
            "functional" => Reply::Functional(Box::new(decode_functional_response(resp)?)),
            other => return Err(malformed(format!("unknown reply kind {other:?}"))),
        };
        return Ok((id, Ok(reply)));
    }
    if let Some(err) = v.opt("err") {
        return Ok((id, Err(decode_serve_error(err)?)));
    }
    Err(malformed("reply has neither \"ok\" nor \"err\""))
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// What one wire session (connection or stdio stream) observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireServeReport {
    /// Well-formed requests submitted to the runtime.
    pub served: u64,
    /// Undecodable lines answered with protocol-level error replies.
    pub protocol_errors: u64,
    /// Pings answered from the session loop (never submitted, never in
    /// the runtime ledger).
    pub pings: u64,
}

/// Serves line-delimited requests from `reader`, writing one reply per
/// line to `writer`, until the reader reaches end of stream. Malformed
/// lines are answered (never dropped, never fatal); requests are
/// submitted to `runtime` in arrival order. A line longer than
/// `MAX_REQUEST_LINE_BYTES` is answered with [`ServeError::TooLarge`]
/// and ends the session.
///
/// # Errors
///
/// Only transport I/O errors; protocol problems are replies.
pub fn serve_lines<R: BufRead, W: Write>(
    runtime: &ServiceRuntime,
    reader: R,
    writer: W,
) -> std::io::Result<WireServeReport> {
    serve_session(runtime, reader, writer, None)
}

/// Longest request line a session reads, newline included. Requests
/// carry workload specs, never matrices (a suite request is a few hundred
/// bytes), so the cap only ever stops a client streaming bytes without a
/// newline from growing the session's line buffer without bound.
const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;
/// How often an idle TCP session wakes from its blocking read to check
/// the server's stop flag.
const SESSION_READ_TICK: Duration = Duration::from_millis(25);
/// Timed reads a stopping session grants a half-received request line
/// before dropping the connection.
const STOP_GRACE_READS: u32 = 40;

/// How a session's read of one request line ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LineEnd {
    Newline,
    Eof,
    TooLong,
}

/// The one session loop, behind [`serve_lines`] and every TCP connection.
///
/// With a `stop` flag the reader is expected to time out periodically
/// (TCP sessions set a read timeout): waiting for the next request then
/// wakes to honor the flag, so an idle client holding its connection
/// open cannot hold [`WireTcpServer::stop`] hostage. The in-flight
/// request (if any) always completes and its reply is written before the
/// session exits; only *waiting for the next request* is interruptible.
///
/// The `drop_conn` fault applies to every session alike: it severs the
/// session after a work request decodes, before anything reaches the
/// runtime, so the client sees EOF on an in-flight request and must
/// reconnect and resend; nothing enters the ledger. Pings are exempt, so
/// a ping still answers while a fault plan severs work requests.
fn serve_session<R: BufRead, W: Write>(
    runtime: &ServiceRuntime,
    reader: R,
    mut writer: W,
    stop: Option<&AtomicBool>,
) -> std::io::Result<WireServeReport> {
    let mut report = WireServeReport::default();
    // Every read is capped at what is left of the line budget.
    let mut reader = reader.take(0);
    // One request-line and one reply buffer per session, reused across
    // every request: in the steady state both have ratcheted up to the
    // largest message seen and the codec stops touching the allocator.
    let mut line = Vec::new();
    let mut reply = String::new();
    let mut stop_grace = 0u32;
    loop {
        line.clear();
        // Accumulate one line across read timeouts: `read_until` appends
        // whatever arrived before the timeout, so a request split across
        // TCP segments survives any number of stop-flag checks.
        let end = loop {
            reader.set_limit((MAX_REQUEST_LINE_BYTES - line.len()) as u64);
            match reader.read_until(b'\n', &mut line) {
                Ok(_) if line.ends_with(b"\n") => break LineEnd::Newline,
                Ok(_) if line.len() >= MAX_REQUEST_LINE_BYTES => break LineEnd::TooLong,
                Ok(0) => break LineEnd::Eof,
                Ok(_) => {} // mid-line: keep reading
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                        // Idle: leave at once. Mid-request: a bounded
                        // grace for the rest of the line, then give up —
                        // a half-sent request must not stall shutdown
                        // indefinitely either.
                        if line.trim_ascii().is_empty() || stop_grace >= STOP_GRACE_READS {
                            return Ok(report);
                        }
                        stop_grace += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        if end == LineEnd::TooLong {
            // The rest of the line is never read, so the session ends here.
            report.protocol_errors += 1;
            let limit = MAX_REQUEST_LINE_BYTES as u64;
            encode_reply_into(None, &Err(ServeError::TooLarge { limit }), &mut reply);
            reply.push('\n');
            writer.write_all(reply.as_bytes())?;
            writer.flush()?;
            return Ok(report);
        }
        let decoded = match std::str::from_utf8(&line) {
            Err(e) => Err(malformed(format!("request line is not UTF-8: {e}"))),
            Ok(text) if text.trim().is_empty() => {
                if end == LineEnd::Eof {
                    return Ok(report);
                }
                continue;
            }
            Ok(text) => decode_request_line(text.trim_end_matches(['\n', '\r'])),
        };
        match decoded {
            Ok((id, WireRequest::Ping)) => {
                report.pings += 1;
                encode_pong_into(id, &runtime.stats(), &mut reply);
            }
            Ok((id, WireRequest::Work { work })) => {
                if runtime.fire_conn_drop() {
                    return Ok(report);
                }
                report.served += 1;
                encode_reply_into(Some(id), &runtime.submit(work), &mut reply);
            }
            Err(e) => {
                report.protocol_errors += 1;
                encode_malformed_reply_into(&e, &mut reply);
            }
        }
        // One write per reply — a separate tiny "\n" write would incur
        // the Nagle/delayed-ACK stall `set_nodelay` exists to avoid.
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
        if end != LineEnd::Newline {
            return Ok(report);
        }
    }
}

/// A TCP front door: an accept loop on its own thread, one serving
/// thread per connection, all funnelling into one shared
/// [`ServiceRuntime`] (whose mailbox and admission control provide the
/// backpressure).
#[derive(Debug)]
pub struct WireTcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireTcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Bind/listen failures.
    pub fn spawn(runtime: Arc<ServiceRuntime>, addr: &str) -> std::io::Result<WireTcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("tailors-wire-accept".into())
            .spawn(move || {
                let mut sessions: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // The timed read is what lets sessions notice the
                    // stop flag between requests; a socket we cannot
                    // configure or clone is dropped (the client sees
                    // EOF) — it must not take the server down.
                    if stream.set_read_timeout(Some(SESSION_READ_TICK)).is_err()
                        || stream.set_nodelay(true).is_err()
                    {
                        continue;
                    }
                    let runtime = Arc::clone(&runtime);
                    let stop3 = Arc::clone(&stop2);
                    let session = std::thread::Builder::new()
                        .name("tailors-wire-conn".into())
                        .spawn(move || {
                            if let Ok(read_half) = stream.try_clone() {
                                let _ = serve_session(
                                    &runtime,
                                    BufReader::new(read_half),
                                    stream,
                                    Some(&stop3),
                                );
                            }
                        });
                    if let Ok(handle) = session {
                        // Reap sessions that already ended, so a
                        // long-lived server under connection churn keeps
                        // only live handles.
                        for done in sessions.extract_if(.., |h| h.is_finished()) {
                            let _ = done.join();
                        }
                        sessions.push(handle);
                    }
                }
                for s in sessions {
                    let _ = s.join();
                }
            })?;
        Ok(WireTcpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for in-flight *requests* to finish, and
    /// joins the accept loop. Idempotent. Sessions notice the stop
    /// between requests (their socket reads are timed), so an idle
    /// client holding its connection open cannot stall this — it simply
    /// observes EOF on its next call.
    ///
    /// The accept loop blocks in `incoming()`, so stopping pokes it awake
    /// with a throwaway connection — to the **loopback** interface at the
    /// bound port: a server bound to a wildcard address (`0.0.0.0` /
    /// `[::]`) is not connectable *at* that address, and dialing it would
    /// leave the accept loop asleep until the next real client arrived.
    /// A failed wake is reported (and logged) instead of hanging: the
    /// accept thread is left to notice the flag on its next connection
    /// rather than joined.
    pub fn stop(&mut self) -> WireStopReport {
        if self.stop.swap(true, Ordering::SeqCst) {
            return WireStopReport {
                woke: self.accept_thread.is_none(),
            };
        }
        let woke = TcpStream::connect_timeout(&self.wake_addr(), STOP_WAKE_TIMEOUT).is_ok();
        if woke {
            if let Some(h) = self.accept_thread.take() {
                let _ = h.join();
            }
        } else {
            // Surface the failure instead of blocking in `join` until the
            // next client happens to connect; the detached accept thread
            // exits on the stop flag the moment one does.
            eprintln!(
                "wire: stop() could not wake the accept loop at {} — \
                 it will exit on the next incoming connection",
                self.wake_addr()
            );
        }
        WireStopReport { woke }
    }

    /// The address the stop wake dials: the bound port on the concrete
    /// bound interface, or the same-family loopback when the server is
    /// bound to a wildcard address.
    fn wake_addr(&self) -> SocketAddr {
        use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
        let ip = match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            concrete => concrete,
        };
        SocketAddr::new(ip, self.addr.port())
    }
}

/// How long [`WireTcpServer::stop`] gives its wake connection before
/// reporting the accept loop unwakeable.
const STOP_WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// What [`WireTcpServer::stop`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStopReport {
    /// Whether the accept loop was woken (and joined). `false` means the
    /// wake connection failed; the accept thread was left running and
    /// exits on the next incoming connection.
    pub woke: bool,
}

impl Drop for WireTcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking wire client: sends one request per line and reads the
/// matching reply. The double-layered result separates transport
/// problems ([`WireError`]) from the server's typed request outcomes
/// ([`ServeError`]).
///
/// The client remembers the address it connected to, so a broken
/// transport is recoverable: [`WireClient::reconnect`] re-establishes the
/// stream in place, and [`WireClient::call_with_retry`] does so
/// automatically before retrying after an I/O failure (a server restart
/// between calls is survivable without rebuilding the client).
#[derive(Debug)]
pub struct WireClient {
    /// The peer address the stream was established to — the reconnect
    /// target after a transport failure.
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    reconnects: u64,
    // Per-session codec buffers, reused across calls so steady-state
    // requests and replies run on retained capacity.
    line: String,
    reply_line: String,
}

impl WireClient {
    /// Connects to a [`WireTcpServer`].
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<WireClient> {
        let (writer, addr) = Self::open(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(WireClient {
            addr,
            reader,
            writer,
            next_id: 1,
            reconnects: 0,
            line: String::new(),
            reply_line: String::new(),
        })
    }

    fn open<A: ToSocketAddrs>(addr: A) -> std::io::Result<(TcpStream, SocketAddr)> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply over one socket is the worst case for Nagle +
        // delayed-ACK (~40 ms stalls per exchange); every message is a
        // complete line, so there is nothing to coalesce anyway.
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok((stream, peer))
    }

    /// The peer address this client talks (and reconnects) to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reconnections performed so far (manual or via
    /// [`WireClient::call_with_retry`]).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Drops the current stream and establishes a fresh one to the same
    /// address. Any half-exchanged request on the old stream is abandoned
    /// — the protocol is strictly one reply per request, so a fresh
    /// stream starts from a clean slate (ids need not restart; the server
    /// echoes whatever id it reads).
    ///
    /// # Errors
    ///
    /// Connection failures; the client keeps the (broken) old stream in
    /// that case so a later attempt can try again.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let (writer, addr) = Self::open(self.addr)?;
        self.reader = BufReader::new(writer.try_clone()?);
        self.writer = writer;
        self.addr = addr;
        self.reconnects += 1;
        Ok(())
    }

    /// Sends `work` and blocks for its outcome.
    ///
    /// # Errors
    ///
    /// Outer: transport/protocol failure. Inner: the server's typed
    /// [`ServeError`] for this request.
    pub fn call(&mut self, work: &Work) -> Result<Result<Reply, ServeError>, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        // One syscall per message: a trailing small write of just "\n"
        // would re-trigger the Nagle stall `set_nodelay` avoids.
        encode_request_into(id, work, &mut self.line);
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| WireError::Io(e.to_string()))?;
        self.reply_line.clear();
        let n = self
            .reader
            .read_line(&mut self.reply_line)
            .map_err(|e| WireError::Io(e.to_string()))?;
        if n == 0 {
            return Err(WireError::Io("server closed the connection".into()));
        }
        let (reply_id, outcome) = decode_reply(self.reply_line.trim_end())?;
        match reply_id {
            // A protocol-level (id-less) error reply still answers *this*
            // request: the protocol is strictly one reply per line, in
            // order.
            None => Ok(outcome),
            Some(rid) if rid == id => Ok(outcome),
            Some(rid) => Err(malformed(format!(
                "reply id {rid} does not match request id {id}"
            ))),
        }
    }

    /// Sends a ping and blocks for the pong, returning the server
    /// runtime's stats snapshot. Answered in the server's session loop
    /// (never queued, never in the ledger), so a pong proves the session
    /// is alive even when the worker pool is saturated, and its round
    /// trip is the floor under every [`WireClient::call`].
    ///
    /// # Errors
    ///
    /// Transport failure, or a malformed/mismatched pong.
    pub fn ping(&mut self) -> Result<RuntimeStats, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        encode_ping_into(id, &mut self.line);
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| WireError::Io(e.to_string()))?;
        self.reply_line.clear();
        let n = self
            .reader
            .read_line(&mut self.reply_line)
            .map_err(|e| WireError::Io(e.to_string()))?;
        if n == 0 {
            return Err(WireError::Io("server closed the connection".into()));
        }
        let v = Json::parse(self.reply_line.trim_end())?;
        let rid = v.get("id")?.u64_()?;
        if rid != id {
            return Err(malformed(format!(
                "pong id {rid} does not match ping id {id}"
            )));
        }
        let ok = v.get("ok")?;
        if ok.get("kind")?.str_()? != "pong" {
            return Err(malformed("ping answered by a non-pong reply"));
        }
        decode_runtime_stats(ok.get("stats")?)
    }

    /// [`WireClient::call`] with client-side capped-exponential-backoff
    /// retries on transient ([`ServeError::retryable`]) rejections — the
    /// wire mirror of
    /// [`ServiceRuntime::submit_with_retry`](crate::runtime::ServiceRuntime::submit_with_retry)
    /// — and on transport I/O failures, which **reconnect first**: a
    /// retry on the same dead `TcpStream` can only fail again, so each
    /// I/O failure tears the stream down and dials `self.addr` afresh
    /// before the next attempt (a server restart between calls is
    /// absorbed here). Requests are pure and idempotent, so resending
    /// after an ambiguous failure (request written, connection lost
    /// before the reply) is safe. Protocol-level `Malformed` replies are
    /// never retried — a deterministic codec disagreement would just
    /// repeat.
    ///
    /// # Errors
    ///
    /// As [`WireClient::call`]; the outer/inner error is the final
    /// attempt's.
    pub fn call_with_retry(
        &mut self,
        work: &Work,
        policy: &RetryPolicy,
    ) -> Result<Result<Reply, ServeError>, WireError> {
        let mut retry = 0u32;
        // Jitter seed: the request id this exchange will use. Distinct
        // clients (and successive requests of one client) back off on
        // de-synchronized schedules, so N callers retrying a recovering
        // shard don't stampede it in lockstep — while any given request
        // id always sleeps the same amounts, keeping tests reproducible.
        let seed = self.next_id;
        loop {
            let attempts_left = retry + 1 < policy.max_attempts.max(1);
            match self.call(work) {
                Err(WireError::Io(e)) if attempts_left => {
                    std::thread::sleep(policy.backoff_jittered(retry, seed));
                    retry += 1;
                    // Reconnect failure is not final either — the server
                    // may still be coming back up; later attempts redial.
                    if let Err(re) = self.reconnect() {
                        if retry + 1 >= policy.max_attempts.max(1) {
                            return Err(WireError::Io(format!("{e}; reconnect failed: {re}")));
                        }
                    }
                }
                Err(e) => return Err(e),
                Ok(outcome) => match &outcome {
                    Err(e) if e.retryable() && attempts_left => {
                        std::thread::sleep(policy.backoff_jittered(retry, seed));
                        retry += 1;
                    }
                    _ => return Ok(outcome),
                },
            }
        }
    }

    /// Typed convenience for [`Work::Sim`].
    ///
    /// # Errors
    ///
    /// As [`WireClient::call`]; a functional reply to a sim request is a
    /// protocol error.
    pub fn sim(&mut self, req: &SimRequest) -> Result<Result<SimResponse, ServeError>, WireError> {
        match self.call(&Work::Sim(req.clone()))? {
            Ok(Reply::Sim(r)) => Ok(Ok(r)),
            Ok(Reply::Functional(_)) => Err(malformed("functional reply to a sim request")),
            Err(e) => Ok(Err(e)),
        }
    }

    /// Typed convenience for [`Work::Functional`].
    ///
    /// # Errors
    ///
    /// As [`WireClient::call`]; a sim reply to a functional request is a
    /// protocol error.
    pub fn functional(
        &mut self,
        req: &FunctionalRequest,
    ) -> Result<Result<FunctionalResponse, ServeError>, WireError> {
        match self.call(&Work::Functional(Box::new(req.clone())))? {
            Ok(Reply::Functional(r)) => Ok(Ok(*r)),
            Ok(Reply::Sim(_)) => Err(malformed("sim reply to a functional request")),
            Err(e) => Ok(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_strings_and_structure() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num("18446744073709551615".into())),
            (
                "b".into(),
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    Json::Str("x\"\\\n".into()),
                ]),
            ),
        ]);
        let line = v.render();
        assert!(!line.contains('\n'), "framing requires single-line output");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "[1,2",
            "\"unterminated",
            "nul",
            "01x",
            "{\"a\":1}trailing",
            "\"\\u12\"",
            "\"\\ud800\"",
            "--3",
            "{\"a\" 1}",
            "[,]",
            "\u{0}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is refused, not recursed into.
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn request_lines_round_trip_bitwise() {
        let req = SimRequest::suite("email-Enron", 1.0 / 256.0, Variant::default_ob()).unwrap();
        let line = encode_request(42, &Work::Sim(req.clone()));
        let (id, parsed) = decode_request_line(&line).unwrap();
        assert_eq!(id, 42);
        let WireRequest::Work {
            work: Work::Sim(decoded),
        } = parsed
        else {
            panic!("wrong kind")
        };
        assert_eq!(decoded.workload, req.workload);
        assert_eq!(decoded.arch, req.arch);
        assert_eq!(decoded.budget, req.budget);
        assert_eq!(decoded.grid, req.grid);
        assert_eq!(decoded.variant.cache_key(), req.variant.cache_key());
        // Interning preserved pointer-stable suite names.
        assert_eq!(decoded.workload.name, "email-Enron");
    }

    #[test]
    fn error_replies_round_trip() {
        for err in [
            ServeError::Overloaded(OverloadReason::MailboxFull { capacity: 64 }),
            ServeError::Overloaded(OverloadReason::TensorBytes {
                estimated: 10,
                limit: 5,
            }),
            ServeError::Timeout {
                deadline: Duration::from_millis(1500),
            },
            ServeError::Faulted {
                panic: true,
                message: "injected fault: worker panic".into(),
            },
            ServeError::BadRequest("no".into()),
            ServeError::TooLarge { limit: 1 << 20 },
            ServeError::Shutdown,
        ] {
            let line = encode_reply(Some(7), &Err(err.clone()));
            let (id, outcome) = decode_reply(&line).unwrap();
            assert_eq!(id, Some(7));
            assert_eq!(outcome.unwrap_err(), err);
        }
    }

    #[test]
    fn ping_and_warm_envelopes_round_trip() {
        // A work line decodes as Work, a ping line as Ping.
        let req = SimRequest::suite("email-Enron", 1.0 / 512.0, Variant::ExTensorP).unwrap();
        let mut line = String::new();
        encode_request_into(9, &Work::Sim(req), &mut line);
        assert!(matches!(
            decode_request_line(&line).unwrap(),
            (9, WireRequest::Work { .. })
        ));
        line.clear();
        encode_ping_into(11, &mut line);
        assert!(matches!(
            decode_request_line(&line).unwrap(),
            (11, WireRequest::Ping)
        ));
        // Pong carries the stats snapshot losslessly.
        let stats = RuntimeStats {
            submitted: 7,
            completed: 5,
            rejected: 1,
            timed_out: 1,
            faulted: 0,
            panics_isolated: 0,
            retries: 3,
            injected_panics: 0,
            injected_latency: 2,
            injected_rejects: 0,
            injected_drops: 4,
        };
        line.clear();
        encode_pong_into(11, &stats, &mut line);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().u64_().unwrap(), 11);
        let ok = v.get("ok").unwrap();
        assert_eq!(ok.get("kind").unwrap().str_().unwrap(), "pong");
        assert_eq!(
            decode_runtime_stats(ok.get("stats").unwrap()).unwrap(),
            stats
        );
    }

    #[test]
    fn serve_lines_answers_pings_outside_the_ledger() {
        let runtime = ServiceRuntime::new(crate::runtime::RuntimeConfig::default());
        let req = SimRequest::suite("email-Enron", 1.0 / 512.0, Variant::ExTensorP).unwrap();
        let mut ping = String::new();
        encode_ping_into(1, &mut ping);
        let mut work = String::new();
        encode_request_into(2, &Work::Sim(req), &mut work);
        let input = format!("{ping}\n{work}\n");
        let mut out = Vec::new();
        let report = serve_lines(&runtime, input.as_bytes(), &mut out).unwrap();
        assert_eq!(report.pings, 1);
        assert_eq!(report.served, 1);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        // The pong's stats snapshot predates the work request.
        let v = Json::parse(lines[0]).unwrap();
        let pong_stats = decode_runtime_stats(v.get("ok").unwrap().get("stats").unwrap()).unwrap();
        assert_eq!(pong_stats.submitted, 0);
        // The work request completed and is in the shard-local ledger.
        let (id, outcome) = decode_reply(lines[1]).unwrap();
        assert_eq!(id, Some(2));
        assert!(outcome.is_ok());
        let stats = runtime.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn malformed_lines_get_protocol_replies_and_the_session_survives() {
        let runtime = ServiceRuntime::new(crate::runtime::RuntimeConfig::default());
        let req = SimRequest::suite("email-Enron", 1.0 / 512.0, Variant::ExTensorP).unwrap();
        let good = encode_request(1, &Work::Sim(req));
        let input = format!("not json\n\n{good}\n{{\"id\":2,\"kind\":\"nope\",\"req\":{{}}}}\n");
        let mut out = Vec::new();
        let report = serve_lines(&runtime, input.as_bytes(), &mut out).unwrap();
        assert_eq!(report.served, 1);
        assert_eq!(report.protocol_errors, 2);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        let (id0, out0) = decode_reply(lines[0]).unwrap();
        assert_eq!(id0, None);
        assert!(matches!(out0, Err(ServeError::BadRequest(_))));
        let (id1, out1) = decode_reply(lines[1]).unwrap();
        assert_eq!(id1, Some(1));
        assert!(out1.is_ok());
        let (id2, _) = decode_reply(lines[2]).unwrap();
        assert_eq!(id2, None);
    }

    /// A newline-free line twice the request-line cap.
    const OVERSIZED: usize = 2 << 20;

    fn assert_too_large(reply: &str) {
        let (id, outcome) = decode_reply(reply).unwrap();
        assert_eq!(id, None);
        let limit = MAX_REQUEST_LINE_BYTES as u64;
        assert_eq!(outcome.unwrap_err(), ServeError::TooLarge { limit });
        let v = Json::parse(reply).unwrap();
        assert_eq!(
            v.get("err").unwrap().get("code").unwrap().str_().unwrap(),
            "too-large"
        );
    }

    #[test]
    fn oversized_line_gets_one_malformed_reply_and_ends_the_session() {
        let runtime = ServiceRuntime::new(crate::runtime::RuntimeConfig::default());
        let input = vec![b'x'; OVERSIZED];
        let mut reader = input.as_slice();
        let mut out = Vec::new();
        let report = serve_lines(&runtime, &mut reader, &mut out).unwrap();
        assert_eq!(
            report,
            WireServeReport {
                protocol_errors: 1,
                ..WireServeReport::default()
            }
        );
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 1);
        assert_too_large(lines[0]);
        // The session stopped reading at the cap.
        assert_eq!(reader.len(), OVERSIZED - MAX_REQUEST_LINE_BYTES);
    }

    #[test]
    fn oversized_line_over_tcp_gets_one_malformed_reply_and_the_connection_closes() {
        let runtime = Arc::new(ServiceRuntime::new(crate::runtime::RuntimeConfig::default()));
        let mut server = WireTcpServer::spawn(runtime, "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The server closes with the rest of the line unread, so this
        // write may fail; only the reply matters.
        let mut writer = stream.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'x'; OVERSIZED]);
        });
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_too_large(reply.trim_end());
        // Then the session is gone: EOF, or a reset for the unread bytes.
        let mut rest = String::new();
        assert!(
            matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
            "{rest:?}"
        );
        sender.join().unwrap();
        assert!(server.stop().woke);
    }
}
