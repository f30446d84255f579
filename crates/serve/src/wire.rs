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
//!
//! # Codec
//!
//! Every message type has one `Wire` impl holding both directions: `put`
//! appends the value's JSON straight to the caller's line buffer, and
//! `get` reads it back from the parsed [`Json`]. The plain-struct
//! messages declare their fields once, in the `wire_struct!` table (each
//! wire key is the Rust field name); the enum-shaped codecs and the
//! envelopes are written out by hand. Encoding builds no intermediate
//! value, so a session that reuses its line buffer encodes steady-state
//! messages without allocating. Only decoding builds a tree
//! ([`Json::parse`]).

use std::fmt::Write as _;
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
    /// An object, in the sender's field order.
    Obj(Vec<(String, Json)>),
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

    /// Any unsigned integer field; the error names the wanted type.
    fn num<T: std::str::FromStr>(&self) -> Result<T, WireError> {
        let Json::Num(tok) = self else {
            return Err(malformed(format!("expected a number, got {self:?}")));
        };
        tok.parse().map_err(|_| {
            malformed(format!(
                "number {tok:?} is not a {}",
                std::any::type_name::<T>()
            ))
        })
    }

    /// Field `key`, decoded through its type's [`Wire`] codec.
    fn field<T: Wire>(&self, key: &str) -> Result<T, WireError> {
        T::get(self.get(key)?)
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
                let _ = write!(out, "\\u{:04x}", c as u32);
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
                    fields.push((key, value));
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
// Roofline bound names and suite names resolve back to their existing
// statics (a scan of the Table 2 rows; the suite itself is never built);
// anything else is leaked once into a deduplicating pool (bounded by the
// number of distinct names a process ever decodes).
// ---------------------------------------------------------------------------

fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock, PoisonError};
    const BOUND_BY: [&str; 4] = ["dram", "global-buffer", "intersection", "compute"];
    if let Some(&bound) = BOUND_BY.iter().find(|&&b| b == s) {
        return bound;
    }
    if let Some(w) = tailors_workloads::by_name(s) {
        return w.name;
    }
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

// ---------------------------------------------------------------------------
// Codecs: one `Wire` impl per type, both directions in one place. `put`
// appends the value's JSON straight to the caller's line buffer (no
// intermediate tree, so a warmed buffer encodes without allocating);
// `get` reads the value back from a parsed `Json`.
// ---------------------------------------------------------------------------

trait Wire: Sized {
    fn put(&self, out: &mut String);
    fn get(v: &Json) -> Result<Self, WireError>;
}

macro_rules! wire_numbers {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn get(v: &Json) -> Result<Self, WireError> {
                v.num()
            }
        }
    )*};
}

wire_numbers!(u32, u64, u128, usize);

impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(malformed(format!("expected a bool, got {other:?}"))),
        }
    }
}

/// The decimal rendering of the bit pattern: bit-exact, and the codec
/// never parses or prints floating point.
impl Wire for f64 {
    fn put(&self, out: &mut String) {
        self.to_bits().put(out);
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        u64::get(v).map(f64::from_bits)
    }
}

impl Wire for &'static str {
    fn put(&self, out: &mut String) {
        write_escaped(self, out);
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        v.str_().map(intern)
    }
}

impl Wire for String {
    fn put(&self, out: &mut String) {
        write_escaped(self, out);
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        v.str_().map(str::to_owned)
    }
}

/// A reply id: `null` on protocol-level error replies.
impl Wire for Option<u64> {
    fn put(&self, out: &mut String) {
        match self {
            Some(id) => id.put(out),
            None => out.push_str("null"),
        }
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        match v {
            Json::Null => Ok(None),
            other => u64::get(other).map(Some),
        }
    }
}

fn put_seq<T: Wire>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.put(out);
    }
    out.push(']');
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut String) {
        put_seq(self, out);
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        match v {
            Json::Arr(items) => items.iter().map(T::get).collect(),
            other => Err(malformed(format!("expected an array, got {other:?}"))),
        }
    }
}

/// One field list per plain-struct message. Each wire key is the Rust
/// field name; `put` writes the fields in the listed order and `get`
/// looks each up by name.
macro_rules! wire_struct {
    ($($ty:ident { $first:ident $(, $rest:ident)* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut String) {
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                self.$first.put(out);
                $(
                    out.push_str(concat!(",\"", stringify!($rest), "\":"));
                    self.$rest.put(out);
                )*
                out.push('}');
            }
            fn get(v: &Json) -> Result<Self, WireError> {
                Ok($ty {
                    $first: v.field(stringify!($first))?,
                    $($rest: v.field(stringify!($rest))?,)*
                })
            }
        }
    )*};
}

wire_struct! {
    Workload {
        name, nrows, ncols, target_nnz, class, paper_sparsity, variability, seed,
    }
    ArchConfig {
        gb_bytes, pe_buf_bytes, pe_count, bytes_per_element, dram_bytes_per_cycle,
        gb_elems_per_cycle, isect_coords_per_cycle, macs_per_pe_per_cycle,
        operand_fraction, dram_latency_cycles, gb_latency_cycles,
    }
    SimRequest { workload, variant, arch, budget, grid, auto_plan }
    FunctionalRequest { workload, variant, arch, budget, grid, auto_plan, threads }
    ActivityCounts { dram_elems, gb_accesses, pe_buf_accesses, macs, isect_coords }
    DramBreakdown { total, baseline, overbook_extra }
    ReuseStats {
        bumped_fraction, reused_fraction, overbooked_a_tiles, total_a_tiles,
        overbooked_b_tiles, total_b_tiles,
    }
    TilePlan { gb_rows_a, gb_cols_b, pe_rows_a, pe_cols_b, full_k, overbooking }
    ScratchStats {
        col_blocks, block_cols, bytes_per_thread, fits_budget, grid, parallel_units,
    }
    RunMetrics { cycles, energy_pj, activity, dram, reuse, plan, scratch, bound_by }
    CacheHits { tensor, profile, plan }
    FunctionalConfig {
        capacity, fifo_region, rows_a, cols_b, overbooking, mem_budget, grid, auto_plan,
    }
    FunctionalResult { z, dram_a_fetches, dram_b_fetches, overbooked_a_tiles }
    SimResponse { name, metrics, hits }
    FunctionalResponse { config, result, hits }
    RuntimeStats {
        submitted, completed, rejected, timed_out, faulted, panics_isolated, retries,
        injected_panics, injected_latency, injected_rejects, injected_drops,
    }
}

impl Wire for CsrMatrix {
    fn put(&self, out: &mut String) {
        out.push_str("{\"nrows\":");
        self.nrows().put(out);
        out.push_str(",\"ncols\":");
        self.ncols().put(out);
        out.push_str(",\"row_ptr\":");
        put_seq(self.row_ptr(), out);
        out.push_str(",\"cols\":");
        put_seq(self.col_indices(), out);
        out.push_str(",\"vals\":");
        put_seq(self.values(), out);
        out.push('}');
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        CsrMatrix::from_parts(
            v.field("nrows")?,
            v.field("ncols")?,
            v.field("row_ptr")?,
            v.field("cols")?,
            v.field("vals")?,
        )
        .map_err(|e| malformed(format!("invalid CSR payload: {e:?}")))
    }
}

impl Wire for WorkloadClass {
    fn put(&self, out: &mut String) {
        out.push_str(match self {
            WorkloadClass::LinearSystem => "\"linear-system\"",
            WorkloadClass::Graph => "\"graph\"",
            WorkloadClass::RoadNetwork => "\"road-network\"",
        });
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        match v.str_()? {
            "linear-system" => Ok(WorkloadClass::LinearSystem),
            "graph" => Ok(WorkloadClass::Graph),
            "road-network" => Ok(WorkloadClass::RoadNetwork),
            other => Err(malformed(format!("unknown workload class {other:?}"))),
        }
    }
}

impl Wire for Variant {
    fn put(&self, out: &mut String) {
        match self {
            Variant::ExTensorN => out.push_str("{\"kind\":\"n\"}"),
            Variant::ExTensorP => out.push_str("{\"kind\":\"p\"}"),
            Variant::ExTensorOB { y, k } => {
                out.push_str("{\"kind\":\"ob\",\"y\":");
                y.put(out);
                out.push_str(",\"k\":");
                k.put(out);
                out.push('}');
            }
            // `Variant` is non_exhaustive upstream; refuse rather than
            // silently mis-encode a future variant.
            other => unreachable!("unencodable variant {other:?}"),
        }
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        match v.get("kind")?.str_()? {
            "n" => Ok(Variant::ExTensorN),
            "p" => Ok(Variant::ExTensorP),
            "ob" => Ok(Variant::ExTensorOB {
                y: v.field("y")?,
                k: v.field("k")?,
            }),
            other => Err(malformed(format!("unknown variant kind {other:?}"))),
        }
    }
}

impl Wire for MemBudget {
    fn put(&self, out: &mut String) {
        match self.limit_bytes() {
            None => out.push_str("\"unbounded\""),
            Some(n) => n.put(out),
        }
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        match v {
            Json::Str(s) if s == "unbounded" => Ok(MemBudget::Unbounded),
            Json::Num(_) => u64::get(v).map(MemBudget::Bytes),
            other => Err(malformed(format!("invalid budget {other:?}"))),
        }
    }
}

impl Wire for GridMode {
    fn put(&self, out: &mut String) {
        out.push_str(match self {
            GridMode::Panels => "\"panels\"",
            GridMode::Grid2D => "\"grid2d\"",
        });
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        GridMode::parse(v.str_()?).map_err(malformed)
    }
}

impl Wire for ServeError {
    fn put(&self, out: &mut String) {
        match self {
            ServeError::Overloaded(OverloadReason::MailboxFull { capacity }) => {
                out.push_str("{\"code\":\"overloaded\",\"reason\":\"mailbox-full\",\"capacity\":");
                capacity.put(out);
            }
            ServeError::Overloaded(OverloadReason::TensorBytes { estimated, limit }) => {
                out.push_str("{\"code\":\"overloaded\",\"reason\":\"tensor-bytes\",\"estimated\":");
                estimated.put(out);
                out.push_str(",\"limit\":");
                limit.put(out);
            }
            ServeError::Timeout { deadline } => {
                out.push_str("{\"code\":\"timeout\",\"deadline_secs\":");
                deadline.as_secs().put(out);
                out.push_str(",\"deadline_nanos\":");
                deadline.subsec_nanos().put(out);
            }
            ServeError::Faulted { panic, message } => {
                out.push_str("{\"code\":\"faulted\",\"panic\":");
                panic.put(out);
                out.push_str(",\"message\":");
                message.put(out);
            }
            ServeError::BadRequest(message) => {
                out.push_str("{\"code\":\"bad-request\",\"message\":");
                message.put(out);
            }
            ServeError::TooLarge { limit } => {
                out.push_str("{\"code\":\"too-large\",\"limit\":");
                limit.put(out);
            }
            ServeError::Shutdown => out.push_str("{\"code\":\"shutdown\""),
        }
        out.push('}');
    }
    fn get(v: &Json) -> Result<Self, WireError> {
        match v.get("code")?.str_()? {
            "overloaded" => match v.get("reason")?.str_()? {
                "mailbox-full" => Ok(ServeError::Overloaded(OverloadReason::MailboxFull {
                    capacity: v.field("capacity")?,
                })),
                "tensor-bytes" => Ok(ServeError::Overloaded(OverloadReason::TensorBytes {
                    estimated: v.field("estimated")?,
                    limit: v.field("limit")?,
                })),
                other => Err(malformed(format!("unknown overload reason {other:?}"))),
            },
            "timeout" => {
                let secs = v.field("deadline_secs")?;
                let nanos: u64 = v.field("deadline_nanos")?;
                let nanos = u32::try_from(nanos)
                    .ok()
                    .filter(|&n| n < 1_000_000_000)
                    .ok_or_else(|| malformed("timeout nanos out of range"))?;
                Ok(ServeError::Timeout {
                    deadline: Duration::new(secs, nanos),
                })
            }
            "faulted" => Ok(ServeError::Faulted {
                panic: v.field("panic")?,
                message: v.field("message")?,
            }),
            "bad-request" => Ok(ServeError::BadRequest(v.field("message")?)),
            "too-large" => Ok(ServeError::TooLarge {
                limit: v.field("limit")?,
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
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

/// Clears `out` and opens an envelope: `{"id":N` (or `null`).
fn open_envelope(id: Option<u64>, out: &mut String) {
    out.clear();
    out.push_str("{\"id\":");
    id.put(out);
}

/// Encodes one request line (no trailing newline).
pub fn encode_request(id: u64, work: &Work) -> String {
    let mut out = String::new();
    encode_request_into(id, work, &mut out);
    out
}

/// [`encode_request`] into a reusable buffer (cleared first): a client
/// that keeps one buffer per session encodes steady-state requests
/// without touching the allocator.
pub fn encode_request_into(id: u64, work: &Work, out: &mut String) {
    open_envelope(Some(id), out);
    match work {
        Work::Sim(r) => {
            out.push_str(",\"kind\":\"sim\",\"req\":");
            r.put(out);
        }
        Work::Functional(r) => {
            out.push_str(",\"kind\":\"functional\",\"req\":");
            r.put(out);
        }
    }
    out.push('}');
}

/// Encodes a ping request line: `{"id":N,"kind":"ping"}` — no payload.
/// The server answers from its session loop without queueing anything,
/// so a ping is safe against a wedged worker pool and never enters the
/// outcome ledger.
pub fn encode_ping_into(id: u64, out: &mut String) {
    open_envelope(Some(id), out);
    out.push_str(",\"kind\":\"ping\"}");
}

/// Encodes the pong reply to a ping: the envelope carries a snapshot of
/// the runtime's outcome counters, so one ping both proves liveness and
/// fetches the server's stats.
pub fn encode_pong_into(id: u64, stats: &RuntimeStats, out: &mut String) {
    open_envelope(Some(id), out);
    out.push_str(",\"ok\":{\"kind\":\"pong\",\"stats\":");
    stats.put(out);
    out.push_str("}}");
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
    let id = v.field("id")?;
    let kind = v.get("kind")?.str_()?;
    if kind == "ping" {
        return Ok((id, WireRequest::Ping));
    }
    let req = v.get("req")?;
    let work = match kind {
        "sim" => Work::Sim(SimRequest::get(req)?),
        "functional" => Work::Functional(Box::new(FunctionalRequest::get(req)?)),
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
/// session loops keep one buffer per connection, so steady-state replies
/// are written into its retained capacity without touching the
/// allocator.
pub fn encode_reply_into(id: Option<u64>, outcome: &Result<Reply, ServeError>, out: &mut String) {
    open_envelope(id, out);
    match outcome {
        Ok(Reply::Sim(r)) => {
            out.push_str(",\"ok\":{\"kind\":\"sim\",\"resp\":");
            r.put(out);
            out.push('}');
        }
        Ok(Reply::Functional(r)) => {
            out.push_str(",\"ok\":{\"kind\":\"functional\",\"resp\":");
            r.put(out);
            out.push('}');
        }
        Err(e) => {
            out.push_str(",\"err\":");
            e.put(out);
        }
    }
    out.push('}');
}

/// Encodes the protocol-level error reply for an undecodable line into a
/// reusable buffer (cleared first).
pub fn encode_malformed_reply_into(err: &WireError, out: &mut String) {
    open_envelope(None, out);
    out.push_str(",\"err\":{\"code\":\"malformed\",\"message\":");
    write_escaped(&err.to_string(), out);
    out.push_str("}}");
}

/// Decodes one reply line into `(id, outcome)`; `id` is `None` for
/// protocol-level error replies.
///
/// # Errors
///
/// [`WireError::Malformed`] for anything that is not a well-formed reply.
pub fn decode_reply(line: &str) -> Result<(Option<u64>, Result<Reply, ServeError>), WireError> {
    let v = Json::parse(line)?;
    let id = v.field("id")?;
    if let Some(ok) = v.opt("ok") {
        let resp = ok.get("resp")?;
        let reply = match ok.get("kind")?.str_()? {
            "sim" => Reply::Sim(SimResponse::get(resp)?),
            "functional" => Reply::Functional(Box::new(FunctionalResponse::get(resp)?)),
            other => return Err(malformed(format!("unknown reply kind {other:?}"))),
        };
        return Ok((id, Ok(reply)));
    }
    if let Some(err) = v.opt("err") {
        return Ok((id, Err(ServeError::get(err)?)));
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
        let rid: u64 = v.field("id")?;
        if rid != id {
            return Err(malformed(format!(
                "pong id {rid} does not match ping id {id}"
            )));
        }
        let ok = v.get("ok")?;
        if ok.get("kind")?.str_()? != "pong" {
            return Err(malformed("ping answered by a non-pong reply"));
        }
        ok.field("stats")
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
        // Every escape the encoder writes parses back to the same string,
        // and the line stays single-line (the framing requires it).
        let text = "x\"\\\n\r\t\u{1}é";
        let mut line = String::new();
        text.to_string().put(&mut line);
        assert!(!line.contains('\n'), "framing requires single-line output");
        assert_eq!(Json::parse(&line).unwrap(), Json::Str(text.into()));
        let v = Json::Obj(vec![
            ("a".into(), Json::Num("18446744073709551615".into())),
            (
                "b".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Str(text.into())]),
            ),
        ]);
        let doc = format!(r#"{{"a":18446744073709551615,"b":[null,true,{line}]}}"#);
        assert_eq!(Json::parse(&doc).unwrap(), v);
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
        assert_eq!(v.field::<u64>("id").unwrap(), 11);
        let ok = v.get("ok").unwrap();
        assert_eq!(ok.get("kind").unwrap().str_().unwrap(), "pong");
        assert_eq!(ok.field::<RuntimeStats>("stats").unwrap(), stats);
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
        let pong_stats: RuntimeStats = v.get("ok").unwrap().field("stats").unwrap();
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
