//! Hand-rolled JSON import/export of SDFGs (the analogue of DaCe's
//! `.sdfg` files).
//!
//! A minimal writer/reader pair is used instead of a JSON dependency (the
//! offline crate set has no `serde_json`). [`to_json`] and [`from_json`]
//! round-trip every IR construct, including `Instrument` annotations on
//! states and map scopes, nested SDFGs, and memlets (re-parsed from their
//! display form).

use crate::desc::{ArrayDesc, DataDesc, ScalarDesc, StreamDesc};
use crate::dtype::{DType, Storage};
use crate::memlet::{Memlet, Wcr};
use crate::node::{ConsumeScope, Instrument, MapScope, Node, Schedule, TaskletLang};
use crate::sdfg::{InterstateEdge, Sdfg, State};
use sdfg_graph::NodeId;
use sdfg_symbolic::{parse_expr, Expr, Subset};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes an SDFG to a JSON string.
pub fn to_json(sdfg: &Sdfg) -> String {
    let mut w = JsonWriter::new();
    write_sdfg(&mut w, sdfg);
    w.out
}

struct JsonWriter {
    out: String,
    indent: usize,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }
}

/// Escapes a string for JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn q(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Appends `data` as a JSON array. Every finite value is written with the
/// bytes of `format!("{x}")` — Rust's shortest round-trip form, so a
/// reader gets bitwise-identical doubles back — and every non-finite one
/// (unrepresentable in JSON) as `null`.
///
/// Fast path, for `|x| < 2^22`: probe `m = round(|x| * 1e9)` and accept
/// when `m / 1e9` is bit-equal to `|x|`. `m < 2^53` and `1e9` are exact
/// doubles, so the division is correctly rounded and equality means the
/// decimal `m * 10^-9` lies in `|x|`'s rounding interval. That interval is
/// at most one ulp wide, `2^-31 < 1e-9` here, so it holds no other
/// decimal with nine or fewer fractional digits; one with more would have
/// more significant digits. `m * 10^-9` without its trailing zeros is
/// therefore the unique shortest decimal that reads back as `x`: what
/// `Display` prints. Everything else goes through `Display` itself.
pub fn write_f64_array(out: &mut String, data: &[f64]) {
    out.reserve(data.len() * 12 + 2);
    out.push('[');
    for (i, &x) in data.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let a = x.abs();
        let m = (a * 1e9).round();
        if a < (1u32 << 22) as f64 && m / 1e9 == a {
            let m = m as u64;
            // "-", seven integer digits, ".", nine fractional digits.
            let mut buf = [b'0'; 18];
            let (mut int, mut frac) = (m / 1_000_000_000, (m % 1_000_000_000) as u32);
            let mut end = 8;
            if frac != 0 {
                buf[8] = b'.';
                end = 18;
                for slot in buf[9..].iter_mut().rev() {
                    *slot = b'0' + (frac % 10) as u8;
                    frac /= 10;
                }
                while buf[end - 1] == b'0' {
                    end -= 1;
                }
            }
            let mut at = 8;
            loop {
                at -= 1;
                buf[at] = b'0' + (int % 10) as u8;
                int /= 10;
                if int == 0 {
                    break;
                }
            }
            if x.is_sign_negative() {
                at -= 1;
                buf[at] = b'-';
            }
            out.push_str(std::str::from_utf8(&buf[at..end]).expect("ASCII digits"));
        } else if x.is_finite() {
            let _ = write!(out, "{x}");
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
}

fn write_sdfg(w: &mut JsonWriter, sdfg: &Sdfg) {
    w.line("{");
    w.indent += 1;
    w.line("\"type\": \"SDFG\",");
    w.line(&format!("\"name\": {},", q(&sdfg.name)));
    let syms: Vec<String> = sdfg.symbols.iter().map(|s| q(s)).collect();
    w.line(&format!("\"symbols\": [{}],", syms.join(", ")));
    w.line("\"containers\": {");
    w.indent += 1;
    let n = sdfg.data.len();
    for (i, (name, desc)) in sdfg.data.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        w.line(&format!("{}: {}{}", q(name), desc_json(desc), comma));
    }
    w.indent -= 1;
    w.line("},");
    w.line("\"states\": [");
    w.indent += 1;
    let sids: Vec<_> = sdfg.graph.node_ids().collect();
    for (i, &sid) in sids.iter().enumerate() {
        write_state(w, sdfg, sid);
        if i + 1 < sids.len() {
            w.out.pop(); // replace trailing newline with ",\n"
            w.out.push_str(",\n");
        }
    }
    w.indent -= 1;
    w.line("],");
    w.line("\"transitions\": [");
    w.indent += 1;
    let eids: Vec<_> = sdfg.graph.edge_ids().collect();
    for (i, &eid) in eids.iter().enumerate() {
        let (src, dst) = sdfg.graph.edge_endpoints(eid);
        let t = sdfg.graph.edge(eid);
        let assigns: Vec<String> = t
            .assignments
            .iter()
            .map(|(s, e)| format!("{}: {}", q(s), q(&e.to_string())))
            .collect();
        let comma = if i + 1 < eids.len() { "," } else { "" };
        w.line(&format!(
            "{{\"src\": {}, \"dst\": {}, \"condition\": {}, \"assignments\": {{{}}}}}{}",
            src.index(),
            dst.index(),
            q(&t.condition.to_string()),
            assigns.join(", "),
            comma
        ));
    }
    w.indent -= 1;
    w.line("],");
    w.line(&format!(
        "\"start_state\": {}",
        sdfg.start.map(|s| s.index() as i64).unwrap_or(-1)
    ));
    w.indent -= 1;
    w.line("}");
}

fn desc_json(desc: &DataDesc) -> String {
    match desc {
        DataDesc::Array(a) => {
            let shape: Vec<String> = a.shape.iter().map(|e| q(&e.to_string())).collect();
            let strides: Vec<String> = a.strides.iter().map(|e| q(&e.to_string())).collect();
            format!(
                "{{\"kind\": \"array\", \"dtype\": {}, \"shape\": [{}], \"strides\": [{}], \"storage\": {}, \"transient\": {}}}",
                q(&a.dtype.to_string()),
                shape.join(", "),
                strides.join(", "),
                q(&a.storage.to_string()),
                a.transient
            )
        }
        DataDesc::Stream(s) => {
            let shape: Vec<String> = s.shape.iter().map(|e| q(&e.to_string())).collect();
            format!(
                "{{\"kind\": \"stream\", \"dtype\": {}, \"shape\": [{}], \"buffer_size\": {}, \"storage\": {}, \"transient\": {}}}",
                q(&s.dtype.to_string()),
                shape.join(", "),
                s.buffer_size
                    .as_ref()
                    .map(|e| q(&e.to_string()))
                    .unwrap_or("null".into()),
                q(&s.storage.to_string()),
                s.transient
            )
        }
        DataDesc::Scalar(s) => format!(
            "{{\"kind\": \"scalar\", \"dtype\": {}, \"storage\": {}, \"transient\": {}}}",
            q(&s.dtype.to_string()),
            q(&s.storage.to_string()),
            s.transient
        ),
    }
}

fn write_state(w: &mut JsonWriter, sdfg: &Sdfg, sid: crate::StateId) {
    let state = sdfg.graph.node(sid);
    w.line("{");
    w.indent += 1;
    w.line(&format!("\"id\": {},", sid.index()));
    w.line(&format!("\"label\": {},", q(&state.label)));
    w.line(&format!(
        "\"instrument\": {},",
        q(&state.instrument.to_string())
    ));
    w.line("\"nodes\": [");
    w.indent += 1;
    let nids: Vec<_> = state.graph.node_ids().collect();
    for (i, &nid) in nids.iter().enumerate() {
        let comma = if i + 1 < nids.len() { "," } else { "" };
        w.line(&format!(
            "{{\"id\": {}, {}}}{}",
            nid.index(),
            node_json(state.graph.node(nid)),
            comma
        ));
    }
    w.indent -= 1;
    w.line("],");
    w.line("\"edges\": [");
    w.indent += 1;
    let eids: Vec<_> = state.graph.edge_ids().collect();
    for (i, &eid) in eids.iter().enumerate() {
        let (src, dst) = state.graph.edge_endpoints(eid);
        let df = state.graph.edge(eid);
        let comma = if i + 1 < eids.len() { "," } else { "" };
        w.line(&format!(
            "{{\"src\": {}, \"src_conn\": {}, \"dst\": {}, \"dst_conn\": {}, \"memlet\": {}}}{}",
            src.index(),
            df.src_conn.as_deref().map(q).unwrap_or("null".into()),
            dst.index(),
            df.dst_conn.as_deref().map(q).unwrap_or("null".into()),
            q(&df.memlet.to_string()),
            comma
        ));
    }
    w.indent -= 1;
    w.line("]");
    w.indent -= 1;
    w.line("}");
}

fn node_json(node: &Node) -> String {
    match node {
        Node::Access { data } => format!("\"kind\": \"access\", \"data\": {}", q(data)),
        Node::Tasklet {
            name,
            inputs,
            outputs,
            code,
            lang,
        } => {
            let ins: Vec<String> = inputs.iter().map(|s| q(s)).collect();
            let outs: Vec<String> = outputs.iter().map(|s| q(s)).collect();
            format!(
                "\"kind\": \"tasklet\", \"name\": {}, \"inputs\": [{}], \"outputs\": [{}], \"code\": {}, \"lang\": {}",
                q(name),
                ins.join(", "),
                outs.join(", "),
                q(code),
                q(&format!("{lang:?}"))
            )
        }
        Node::MapEntry(m) => {
            let dims: Vec<String> = m
                .iter_dims()
                .map(|(p, r)| format!("{}: {}", q(p), q(&r.to_string())))
                .collect();
            format!(
                "\"kind\": \"map_entry\", \"label\": {}, \"dims\": {{{}}}, \"schedule\": {}, \"unroll\": {}, \"vector_len\": {}, \"instrument\": {}",
                q(&m.label),
                dims.join(", "),
                q(&m.schedule.to_string()),
                m.unroll,
                m.vector_len
                    .map(|v| v.to_string())
                    .unwrap_or("null".into()),
                q(&m.instrument.to_string())
            )
        }
        Node::MapExit { entry } => {
            format!("\"kind\": \"map_exit\", \"entry\": {}", entry.index())
        }
        Node::ConsumeEntry(c) => format!(
            "\"kind\": \"consume_entry\", \"label\": {}, \"pe\": {}, \"num_pes\": {}, \"element\": {}, \"condition\": {}, \"schedule\": {}",
            q(&c.label),
            q(&c.pe_param),
            q(&c.num_pes.to_string()),
            q(&c.element),
            c.condition.as_deref().map(q).unwrap_or("null".into()),
            q(&c.schedule.to_string())
        ),
        Node::ConsumeExit { entry } => {
            format!("\"kind\": \"consume_exit\", \"entry\": {}", entry.index())
        }
        Node::Reduce { wcr, axes, identity } => format!(
            "\"kind\": \"reduce\", \"wcr\": {}, \"axes\": {}, \"identity\": {}",
            q(&wcr.to_string()),
            match axes {
                Some(a) => format!("{a:?}"),
                None => "null".into(),
            },
            match identity {
                Some(v) => format!("{v}"),
                None => "null".into(),
            }
        ),
        Node::NestedSdfg {
            sdfg,
            symbol_mapping,
            inputs,
            outputs,
        } => {
            let ins: Vec<String> = inputs.iter().map(|s| q(s)).collect();
            let outs: Vec<String> = outputs.iter().map(|s| q(s)).collect();
            let map: Vec<String> = symbol_mapping
                .iter()
                .map(|(s, e)| format!("{}: {}", q(s), q(&e.to_string())))
                .collect();
            // The inner SDFG is inlined in compact (single-line) form;
            // real newlines inside strings are escaped by `json_escape`,
            // so collapsing formatting whitespace is lossless.
            let inner: Vec<String> = to_json(sdfg)
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_string)
                .collect();
            format!(
                "\"kind\": \"nested_sdfg\", \"name\": {}, \"inputs\": [{}], \"outputs\": [{}], \"symbol_mapping\": {{{}}}, \"sdfg\": {}",
                q(&sdfg.name),
                ins.join(", "),
                outs.join(", "),
                map.join(", "),
                inner.join(" ")
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

/// Streaming 64-bit FNV-1a hasher. Unlike `std::hash`, the algorithm is
/// pinned — digests are stable across processes, platforms and Rust
/// versions, so they can key on-disk artifacts and cross-run caches.
pub struct Fnv64(u64);

impl Fnv64 {
    /// Starts a hash at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Stable 64-bit content hash of an SDFG.
///
/// The hash is FNV-1a over the canonical serialized form ([`to_json`]), so
/// its domain is exactly what serialization captures: the program name,
/// declared symbols, container descriptors (shape/stride/storage/transient
/// expressions), every state's nodes and memlets (including tasklet source,
/// map schedules and instrumentation annotations), interstate transitions,
/// and the start state — nested SDFGs included, since they serialize
/// inline. It deliberately excludes runtime bindings: symbol *values*,
/// array contents and thread counts are not part of the program identity
/// and key execution plans separately.
///
/// Determinism: `to_json` iterates `BTreeSet`/`BTreeMap` collections and
/// graph ids in index order, so structurally equal SDFGs hash equally in
/// any process. Any serialized structural edit (adding a node, changing a
/// memlet subset) changes the digest.
pub fn content_hash(sdfg: &Sdfg) -> u64 {
    let mut h = Fnv64::new();
    h.write(to_json(sdfg).as_bytes());
    h.finish()
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects keep key order (the writer emits map dims
/// in parameter order, which must survive).
///
/// Public so tooling built on this workspace (e.g. the bench harness's
/// baseline files) can parse small JSON documents without growing a
/// dependency; [`parse_json`] is the entry point.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object (`None` for other variants).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required string field of an object.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            other => Err(format!("expected string field `{key}`, got {other:?}")),
        }
    }

    /// Required numeric field of an object.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            other => Err(format!("expected number field `{key}`, got {other:?}")),
        }
    }

    /// Required boolean field of an object.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            other => Err(format!("expected bool field `{key}`, got {other:?}")),
        }
    }

    /// Required array field of an object.
    pub fn arr_field<'a>(&'a self, key: &str) -> Result<&'a [Json], String> {
        match self.get(key) {
            Some(Json::Arr(a)) => Ok(a),
            other => Err(format!("expected array field `{key}`, got {other:?}")),
        }
    }

    /// Required object field of an object.
    pub fn obj_field<'a>(&'a self, key: &str) -> Result<&'a [(String, Json)], String> {
        match self.get(key) {
            Some(Json::Obj(o)) => Ok(o),
            other => Err(format!("expected object field `{key}`, got {other:?}")),
        }
    }
}

/// Parses a standalone JSON document into a [`Json`] value.
///
/// Every parse failure reports the byte offset and 1-based line/column of
/// the offending input, so callers can surface actionable diagnostics for
/// documents received over the wire.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut r = JsonReader::new(src);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Default size limit for serialized programs received over the wire:
/// 16 MiB, far above any graph this workspace produces but small enough
/// to shed hostile payloads before parsing.
pub const DEFAULT_MAX_PROGRAM_BYTES: usize = 16 << 20;

/// Parses a JSON document from untrusted input, rejecting payloads above
/// `max_bytes` before the parser ever runs.
pub fn parse_json_limited(src: &str, max_bytes: usize) -> Result<Json, String> {
    if src.len() > max_bytes {
        return Err(format!(
            "payload of {} bytes exceeds the {}-byte limit",
            src.len(),
            max_bytes
        ));
    }
    parse_json(src)
}

/// Deserializes an SDFG from untrusted wire input with a size limit,
/// reporting typed [`crate::SdfgError`]s: oversize payloads fail with
/// `SDFG-S001` before parsing, malformed documents with a message that
/// carries the byte offset and line/column of the defect.
pub fn from_json_limited(src: &str, max_bytes: usize) -> Result<Sdfg, crate::SdfgError> {
    if src.len() > max_bytes {
        return Err(crate::SdfgError::PayloadTooLarge {
            limit: max_bytes,
            got: src.len(),
        });
    }
    from_json(src).map_err(|message| crate::SdfgError::Serialize { message })
}

/// `10^k` for `k <= 22`: every entry is an exact `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A pull reader over one JSON document: the grammar's primitives, for
/// consumers that know the shape they expect and want no intermediate
/// value. [`parse_json`] is the generic consumer (it builds the [`Json`]
/// tree); `sdfg-serve` reads invoke bodies straight into `Vec<f64>`.
/// Every error carries the byte offset and 1-based line/column.
pub struct JsonReader<'a> {
    src: &'a [u8],
    pos: usize,
    depth: usize,
}

/// How deep arrays and objects may nest. Reading recurses once per level,
/// so without a bound a few hundred kilobytes of `[` overflow the stack.
const MAX_DEPTH: usize = 128;

impl<'a> JsonReader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        JsonReader {
            src: src.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Renders `msg` with the byte offset and 1-based line/column of
    /// `pos` — every parse failure goes through here so malformed input
    /// is always reported with its position.
    fn err_at(&self, pos: usize, msg: &str) -> String {
        let pos = pos.min(self.src.len());
        let (mut line, mut col) = (1usize, 1usize);
        for &b in &self.src[..pos] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        format!("{msg} at byte {pos} (line {line}, column {col})")
    }

    /// The next non-whitespace byte, not consumed: `{`, `[`, `"`, `-` or
    /// a digit tell a consumer which primitive to call.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    /// Whether a number comes next: a value that starts with `-` or a
    /// digit is one (so `-.5` is a number and `.5` is not a value).
    pub fn at_number(&mut self) -> bool {
        matches!(self.peek(), Some(b'-' | b'0'..=b'9'))
    }

    /// Consumes the punctuation byte `b`.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err_at(
                self.pos,
                &format!(
                    "expected `{}`, found {:?}",
                    b as char,
                    other.map(|c| c as char)
                ),
            )),
        }
    }

    /// Consumes the `[` or `{` that opens an array or object, one level
    /// deeper; [`JsonReader::next_item`] steps through it and closes it.
    pub fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err_at(
                self.pos - 1,
                &format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Steps through the items of an array (`close` = `]`) or object
    /// (`}`) after [`JsonReader::open`]: `true` when an item follows,
    /// `false` once `close` has been consumed. `first` starts `true`; the
    /// reader clears it.
    pub fn next_item(&mut self, close: u8, first: &mut bool) -> Result<bool, String> {
        let c = self.peek();
        if c == Some(close) {
            self.pos += 1;
            self.depth = self.depth.saturating_sub(1);
            return Ok(false);
        }
        if std::mem::take(first) {
            return Ok(true);
        }
        if c == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(self.err_at(
            self.pos,
            &format!("expected `,` or `{}`, found {c:?}", close as char),
        ))
    }

    /// Succeeds at the end of the document; anything but whitespace left
    /// is an error.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err_at(self.pos, "trailing garbage")),
        }
    }

    /// Reads any value into a [`Json`] tree.
    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                let (mut out, mut first) = (Vec::new(), true);
                while self.next_item(b'}', &mut first)? {
                    out.push((self.key()?, self.value()?));
                }
                Ok(Json::Obj(out))
            }
            Some(b'[') => {
                self.open(b'[')?;
                let (mut out, mut first) = (Vec::new(), true);
                while self.next_item(b']', &mut first)? {
                    out.push(self.value()?);
                }
                Ok(Json::Arr(out))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) if self.at_number() => Ok(Json::Num(self.number()?)),
            other => Err(self.err_at(self.pos, &format!("unexpected {other:?}"))),
        }
    }

    /// Reads any value and discards it: accepts and rejects exactly what
    /// [`parse_json`] does, without building the tree.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                let mut first = true;
                while self.next_item(b'}', &mut first)? {
                    self.key()?;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.open(b'[')?;
                let mut first = true;
                while self.next_item(b']', &mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(_) if self.at_number() => self.number().map(drop),
            _ => self.value().map(drop),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err_at(self.pos, "invalid literal"))
        }
    }

    /// Reads a number. The grammar is the run of `[-+.eE0-9]` bytes that
    /// `str::parse::<f64>` accepts (a superset of JSON's: `-.5` and `01`
    /// pass), and so is the value, bit for bit.
    ///
    /// Fast path: a plain decimal — no exponent, at most 19 digits, so the
    /// digits fit a `u64` — whose digits `m` are at most 2^53 with at most
    /// 22 of them after the point. Then `m` and `10^k` are both exact
    /// doubles and IEEE division rounds their quotient correctly, which is
    /// the definition of the nearest double to `m / 10^k`. Anything else
    /// goes through `str::parse` on the scanned slice.
    pub fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        let rest = &self.src[start..];
        let negative = rest.first() == Some(&b'-');
        let (mut m, mut digits, mut frac, mut dot) = (0u64, 0u32, 0u32, false);
        let mut i = usize::from(negative);
        while let Some(&b) = rest.get(i) {
            match b {
                b'0'..=b'9' => {
                    m = m.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                    digits += 1;
                    frac += u32::from(dot);
                }
                b'.' if !dot => dot = true,
                _ => break,
            }
            i += 1;
        }
        let plain = !matches!(rest.get(i), Some(b'-' | b'+' | b'.' | b'e' | b'E'));
        if plain && (1..=19).contains(&digits) && m <= 1 << 53 && frac <= 22 {
            self.pos = start + i;
            let x = m as f64 / POW10[frac as usize];
            return Ok(if negative { -x } else { x });
        }
        while matches!(
            rest.get(i),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            i += 1;
        }
        self.pos = start + i;
        std::str::from_utf8(&rest[..i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| self.err_at(start, "invalid number"))
    }

    /// Reads an object key and the `:` after it.
    pub fn key(&mut self) -> Result<String, String> {
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Reads a string, unescaped.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.err_at(self.pos, "unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.src.get(self.pos) else {
                        return Err(self.err_at(self.pos, "unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err_at(self.pos, "bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err_at(self.pos, "bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err_at(self.pos, "bad \\u codepoint"))?,
                            );
                        }
                        other => {
                            return Err(self.err_at(
                                self.pos - 1,
                                &format!("bad escape `\\{}`", other as char),
                            ))
                        }
                    }
                }
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.src.len() && (self.src[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.src[start..end])
                            .map_err(|_| self.err_at(start, "invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }
}

fn parse_dtype(s: &str) -> Result<DType, String> {
    Ok(match s {
        "float32" => DType::F32,
        "float64" => DType::F64,
        "int32" => DType::I32,
        "int64" => DType::I64,
        "uint32" => DType::U32,
        "bool" => DType::Bool,
        other => return Err(format!("unknown dtype `{other}`")),
    })
}

fn parse_storage(s: &str) -> Result<Storage, String> {
    Ok(match s {
        "Default" => Storage::Default,
        "CpuHeap" => Storage::CpuHeap,
        "CpuThreadLocal" => Storage::CpuThreadLocal,
        "GpuGlobal" => Storage::GpuGlobal,
        "GpuShared" => Storage::GpuShared,
        "Register" => Storage::Register,
        "FpgaGlobal" => Storage::FpgaGlobal,
        "FpgaLocal" => Storage::FpgaLocal,
        other => return Err(format!("unknown storage `{other}`")),
    })
}

fn parse_expr_str(s: &str) -> Result<Expr, String> {
    parse_expr(s).map_err(|e| format!("invalid expression `{s}`: {e:?}"))
}

fn parse_wcr(s: &str) -> Result<Wcr, String> {
    Ok(match s {
        "Sum" => Wcr::Sum,
        "Product" => Wcr::Product,
        "Min" => Wcr::Min,
        "Max" => Wcr::Max,
        other => match other.strip_prefix("lambda old, new: ") {
            Some(code) => Wcr::Custom(code.to_string()),
            None => return Err(format!("unknown WCR `{other}`")),
        },
    })
}

/// Parses a memlet from its display form (`A(dyn)[0:N] -> [0:N] (CR: Sum)`).
pub fn parse_memlet(src: &str) -> Result<Memlet, String> {
    let mut s = src.trim();
    if s == "∅" || s.is_empty() {
        return Ok(Memlet::empty());
    }
    let mut wcr = None;
    if let Some(pos) = s.rfind(" (CR: ") {
        let tail = &s[pos + 6..];
        let inner = tail
            .strip_suffix(')')
            .ok_or_else(|| format!("unterminated CR clause in `{src}`"))?;
        wcr = Some(parse_wcr(inner)?);
        s = s[..pos].trim_end();
    }
    let mut other_subset = None;
    if let Some(pos) = s.rfind(" -> [") {
        let tail = &s[pos + 5..];
        let inner = tail
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated other-subset in `{src}`"))?;
        other_subset =
            Some(Subset::parse(inner).map_err(|e| format!("bad other-subset `{inner}`: {e:?}"))?);
        s = s[..pos].trim_end();
    }
    // Head: name [ "(" dyn-or-volume ")" ] "[" subset "]"
    let open = s
        .find(['(', '['])
        .ok_or_else(|| format!("memlet `{src}` has no subset"))?;
    let name = &s[..open];
    if name.is_empty() {
        return Err(format!("memlet `{src}` has no container name"));
    }
    let mut dynamic = false;
    let mut volume_override = None;
    let mut rest = &s[open..];
    if let Some(stripped) = rest.strip_prefix('(') {
        // Balanced-paren scan: the volume expression may contain parens.
        let mut depth = 1usize;
        let mut end = None;
        for (i, c) in stripped.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| format!("unbalanced parens in `{src}`"))?;
        let inner = &stripped[..end];
        if inner == "dyn" {
            dynamic = true;
        } else {
            volume_override = Some(parse_expr_str(inner)?);
        }
        rest = &stripped[end + 1..];
    }
    let body = rest
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("memlet `{src}` subset is not bracketed"))?;
    let subset = if body.is_empty() {
        Subset::default()
    } else {
        Subset::parse(body).map_err(|e| format!("bad subset `{body}`: {e:?}"))?
    };
    let mut m = Memlet::new(name, subset);
    if dynamic {
        m = m.dynamic();
    }
    if let Some(v) = volume_override {
        m = m.with_volume(v);
    }
    if let Some(w) = wcr {
        m = m.with_wcr(w);
    }
    if let Some(os) = other_subset {
        m = m.with_other_subset(os);
    }
    Ok(m)
}

fn desc_from_json(v: &Json) -> Result<DataDesc, String> {
    let kind = v.str_field("kind")?;
    let dtype = parse_dtype(v.str_field("dtype")?)?;
    let storage = parse_storage(v.str_field("storage")?)?;
    let transient = v.bool_field("transient")?;
    let exprs = |key: &str| -> Result<Vec<Expr>, String> {
        v.arr_field(key)?
            .iter()
            .map(|e| match e {
                Json::Str(s) => parse_expr_str(s),
                other => Err(format!("expected expr string, got {other:?}")),
            })
            .collect()
    };
    Ok(match kind {
        "array" => DataDesc::Array(ArrayDesc {
            dtype,
            shape: exprs("shape")?,
            strides: exprs("strides")?,
            storage,
            transient,
        }),
        "stream" => DataDesc::Stream(StreamDesc {
            dtype,
            shape: exprs("shape")?,
            buffer_size: match v.get("buffer_size") {
                Some(Json::Str(s)) => Some(parse_expr_str(s)?),
                _ => None,
            },
            storage,
            transient,
        }),
        "scalar" => DataDesc::Scalar(ScalarDesc {
            dtype,
            storage,
            transient,
        }),
        other => return Err(format!("unknown container kind `{other}`")),
    })
}

fn instrument_from(v: &Json, key: &str) -> Result<Instrument, String> {
    match v.get(key) {
        Some(Json::Str(s)) => s.parse(),
        None => Ok(Instrument::None), // pre-instrumentation files
        other => Err(format!("expected instrument string, got {other:?}")),
    }
}

fn node_from_json(v: &Json) -> Result<Node, String> {
    let kind = v.str_field("kind")?;
    let strings = |key: &str| -> Result<Vec<String>, String> {
        v.arr_field(key)?
            .iter()
            .map(|e| match e {
                Json::Str(s) => Ok(s.clone()),
                other => Err(format!("expected string, got {other:?}")),
            })
            .collect()
    };
    Ok(match kind {
        "access" => Node::access(v.str_field("data")?),
        "tasklet" => Node::Tasklet {
            name: v.str_field("name")?.to_string(),
            inputs: strings("inputs")?,
            outputs: strings("outputs")?,
            code: v.str_field("code")?.to_string(),
            lang: match v.str_field("lang")? {
                "Python" => TaskletLang::Python,
                "Cpp" => TaskletLang::Cpp,
                other => return Err(format!("unknown tasklet lang `{other}`")),
            },
        },
        "map_entry" => {
            let mut params = Vec::new();
            let mut ranges = Vec::new();
            for (p, r) in v.obj_field("dims")? {
                let Json::Str(r) = r else {
                    return Err(format!("expected range string for dim `{p}`"));
                };
                let sub = Subset::parse(r).map_err(|e| format!("bad map range `{r}`: {e:?}"))?;
                if sub.dims.len() != 1 {
                    return Err(format!("map range `{r}` is not one-dimensional"));
                }
                params.push(p.clone());
                ranges.push(sub.dims.into_iter().next().unwrap());
            }
            let mut scope = MapScope::new(v.str_field("label")?, params, ranges);
            scope.schedule = v.str_field("schedule")?.parse()?;
            scope.unroll = v.bool_field("unroll")?;
            scope.vector_len = match v.get("vector_len") {
                Some(Json::Num(n)) => Some(*n as u32),
                _ => None,
            };
            scope.instrument = instrument_from(v, "instrument")?;
            Node::MapEntry(scope)
        }
        // Scope-exit `entry` ids are remapped by the caller in a second
        // pass (the paired entry may have any id).
        "map_exit" => Node::MapExit {
            entry: NodeId(v.num_field("entry")? as u32),
        },
        "consume_entry" => Node::ConsumeEntry(ConsumeScope {
            label: v.str_field("label")?.to_string(),
            pe_param: v.str_field("pe")?.to_string(),
            num_pes: parse_expr_str(v.str_field("num_pes")?)?,
            element: v.str_field("element")?.to_string(),
            condition: match v.get("condition") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            },
            schedule: match v.get("schedule") {
                Some(Json::Str(s)) => s.parse()?,
                _ => Schedule::default(),
            },
        }),
        "consume_exit" => Node::ConsumeExit {
            entry: NodeId(v.num_field("entry")? as u32),
        },
        "reduce" => Node::Reduce {
            wcr: parse_wcr(v.str_field("wcr")?)?,
            axes: match v.get("axes") {
                Some(Json::Arr(a)) => Some(
                    a.iter()
                        .map(|e| match e {
                            Json::Num(n) => Ok(*n as usize),
                            other => Err(format!("expected axis number, got {other:?}")),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                ),
                _ => None,
            },
            identity: match v.get("identity") {
                Some(Json::Num(n)) => Some(*n),
                _ => None,
            },
        },
        "nested_sdfg" => {
            let inner = v
                .get("sdfg")
                .ok_or_else(|| "nested_sdfg without inner `sdfg`".to_string())?;
            let mut symbol_mapping = BTreeMap::new();
            for (s, e) in v.obj_field("symbol_mapping")? {
                let Json::Str(e) = e else {
                    return Err(format!("expected expr string for symbol `{s}`"));
                };
                symbol_mapping.insert(s.clone(), parse_expr_str(e)?);
            }
            Node::NestedSdfg {
                sdfg: Box::new(sdfg_from_value(inner)?),
                symbol_mapping,
                inputs: strings("inputs")?,
                outputs: strings("outputs")?,
            }
        }
        other => return Err(format!("unknown node kind `{other}`")),
    })
}

fn sdfg_from_value(v: &Json) -> Result<Sdfg, String> {
    let mut sdfg = Sdfg::new(v.str_field("name")?);
    sdfg.start = None; // set explicitly below, not by add_state
    for s in v.arr_field("symbols")? {
        match s {
            Json::Str(s) => sdfg.add_symbol(s.clone()),
            other => return Err(format!("expected symbol string, got {other:?}")),
        }
    }
    for (name, desc) in v.obj_field("containers")? {
        sdfg.data.insert(name.clone(), desc_from_json(desc)?);
    }
    // States: ids in the file may be non-contiguous (transformations can
    // delete states/nodes), so build explicit old-id → new-id maps.
    let mut state_map: std::collections::HashMap<usize, crate::StateId> =
        std::collections::HashMap::new();
    for sv in v.arr_field("states")? {
        let old_id = sv.num_field("id")? as usize;
        let mut state = State::new(sv.str_field("label")?);
        state.instrument = instrument_from(sv, "instrument")?;
        let mut node_map: std::collections::HashMap<usize, NodeId> =
            std::collections::HashMap::new();
        let mut exits: Vec<NodeId> = Vec::new();
        for nv in sv.arr_field("nodes")? {
            let old_nid = nv.num_field("id")? as usize;
            let node = node_from_json(nv)?;
            let is_exit = node.is_scope_exit();
            let nid = state.add_node(node);
            node_map.insert(old_nid, nid);
            if is_exit {
                exits.push(nid);
            }
        }
        // Second pass: remap scope-exit entry references.
        for nid in exits {
            let old_entry = state
                .graph
                .node(nid)
                .exit_entry()
                .expect("collected node is a scope exit")
                .index();
            let new_entry = *node_map
                .get(&old_entry)
                .ok_or_else(|| format!("scope exit references unknown node {old_entry}"))?;
            match state.graph.node_mut(nid) {
                Node::MapExit { entry } | Node::ConsumeExit { entry } => *entry = new_entry,
                _ => unreachable!(),
            }
        }
        for ev in sv.arr_field("edges")? {
            let src = *node_map
                .get(&(ev.num_field("src")? as usize))
                .ok_or_else(|| "edge references unknown src node".to_string())?;
            let dst = *node_map
                .get(&(ev.num_field("dst")? as usize))
                .ok_or_else(|| "edge references unknown dst node".to_string())?;
            let conn = |key: &str| match ev.get(key) {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            };
            let memlet = parse_memlet(ev.str_field("memlet")?)?;
            state.graph.add_edge(
                src,
                dst,
                crate::sdfg::Dataflow {
                    src_conn: conn("src_conn"),
                    dst_conn: conn("dst_conn"),
                    memlet,
                },
            );
        }
        let sid = sdfg.graph.add_node(state);
        state_map.insert(old_id, sid);
    }
    for tv in v.arr_field("transitions")? {
        let src = *state_map
            .get(&(tv.num_field("src")? as usize))
            .ok_or_else(|| "transition references unknown src state".to_string())?;
        let dst = *state_map
            .get(&(tv.num_field("dst")? as usize))
            .ok_or_else(|| "transition references unknown dst state".to_string())?;
        let cond_src = tv.str_field("condition")?;
        let condition = crate::cond::parse_cond(cond_src)
            .map_err(|e| format!("bad condition `{cond_src}`: {e:?}"))?;
        let mut assignments = Vec::new();
        for (s, e) in tv.obj_field("assignments")? {
            let Json::Str(e) = e else {
                return Err(format!("expected expr string for assignment to `{s}`"));
            };
            assignments.push((s.clone(), parse_expr_str(e)?));
        }
        sdfg.add_transition(
            src,
            dst,
            InterstateEdge {
                condition,
                assignments,
            },
        );
    }
    let start = v.num_field("start_state")?;
    sdfg.start = if start < 0.0 {
        None
    } else {
        Some(
            *state_map
                .get(&(start as usize))
                .ok_or_else(|| "start_state references unknown state".to_string())?,
        )
    };
    Ok(sdfg)
}

/// Deserializes an SDFG from the JSON produced by [`to_json`].
pub fn from_json(src: &str) -> Result<Sdfg, String> {
    let v = parse_json(src)?;
    sdfg_from_value(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memlet::Memlet;
    use crate::node::MapScope;
    use crate::DType;
    use sdfg_symbolic::SymRange;

    #[test]
    fn json_has_all_sections() {
        let mut s = Sdfg::new("json_demo");
        s.add_symbol("N");
        s.add_array("A", &["N"], DType::F64);
        s.add_stream("S", DType::F64);
        s.add_scalar("x", DType::I64, true);
        let sid = s.add_state("main");
        let st = s.state_mut(sid);
        let a = st.add_access("A");
        let (me, mx) = st.add_map(MapScope::new(
            "m",
            vec!["i".into()],
            vec![SymRange::new(0, "N")],
        ));
        let t = st.add_tasklet("t", &["v"], &["o"], "o = v + 1");
        st.add_edge(a, None, me, Some("IN_A"), Memlet::parse("A", "0:N"));
        st.add_edge(me, Some("OUT_A"), t, Some("v"), Memlet::parse("A", "i"));
        st.add_edge(t, Some("o"), mx, Some("IN_A"), Memlet::parse("A", "i"));
        let aa = st.add_access("A");
        st.add_edge(mx, Some("OUT_A"), aa, None, Memlet::parse("A", "0:N"));
        let json = to_json(&s);
        for needle in [
            "\"type\": \"SDFG\"",
            "\"name\": \"json_demo\"",
            "\"kind\": \"array\"",
            "\"kind\": \"stream\"",
            "\"kind\": \"scalar\"",
            "\"kind\": \"map_entry\"",
            "\"kind\": \"tasklet\"",
            "\"start_state\": 0",
            "\"code\": \"o = v + 1\"",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
        }
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn memlet_display_round_trips() {
        for text in [
            "A[i]",
            "A[0:N, k]",
            "S(dyn)[0]",
            "A[i] (CR: Sum)",
            "A[i] (CR: lambda old, new: old + new*new)",
            "B[0:N] -> [1:N + 1]",
            "C(N + 1)[0:N, 0:M]",
            "∅",
        ] {
            let m = parse_memlet(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(m.to_string(), text, "display of parse differs");
        }
    }

    fn instrumented_sdfg() -> Sdfg {
        let mut s = Sdfg::new("rt_demo");
        s.add_symbol("N");
        s.add_array("A", &["N"], DType::F64);
        s.add_array("B", &["N"], DType::F64);
        let sid = s.add_state("compute");
        let st = s.state_mut(sid);
        st.instrument = Instrument::Timer;
        let a = st.add_access("A");
        let b = st.add_access("B");
        let mut scope = MapScope::new("m", vec!["i".into()], vec![SymRange::new(0, "N")]);
        scope.instrument = Instrument::Counter;
        scope.vector_len = Some(4);
        let (me, mx) = st.add_map(scope);
        let t = st.add_tasklet("t", &["x"], &["y"], "y = x * 2");
        st.add_edge(a, None, me, Some("IN_A"), Memlet::parse("A", "0:N"));
        st.add_edge(me, Some("OUT_A"), t, Some("x"), Memlet::parse("A", "i"));
        st.add_edge(t, Some("y"), mx, Some("IN_B"), Memlet::parse("B", "i"));
        st.add_edge(mx, Some("OUT_B"), b, None, Memlet::parse("B", "0:N"));
        let done = s.add_state("done");
        s.add_transition(
            sid,
            done,
            InterstateEdge::when("i < N").assign("i", "i + 1"),
        );
        s
    }

    /// Satellite: an SDFG with `Instrument` annotations survives
    /// serialize → deserialize → validate unchanged.
    #[test]
    fn instrument_round_trip() {
        let s = instrumented_sdfg();
        s.validate().expect("source validates");
        let json = to_json(&s);
        assert!(json.contains("\"instrument\": \"Timer\""));
        assert!(json.contains("\"instrument\": \"Counter\""));
        let back = from_json(&json).expect("deserializes");
        back.validate().expect("round-tripped SDFG validates");
        // Field-level checks: annotations and structure survived.
        let sid = back.start.unwrap();
        assert_eq!(back.state(sid).instrument, Instrument::Timer);
        let st = back.state(sid);
        let me = st
            .graph
            .node_ids()
            .find(|&n| st.node(n).is_scope_entry())
            .unwrap();
        let Node::MapEntry(scope) = st.node(me) else {
            panic!("not a map entry")
        };
        assert_eq!(scope.instrument, Instrument::Counter);
        assert_eq!(scope.vector_len, Some(4));
        assert_eq!(scope.params, vec!["i"]);
        // Byte-level check: a second round trip is a fixed point.
        assert_eq!(to_json(&back), json);
    }

    #[test]
    fn full_ir_round_trip() {
        use crate::node::ConsumeScope;
        let mut s = Sdfg::new("full");
        s.add_symbol("N");
        s.add_array("A", &["N", "N+1"], DType::F32);
        s.add_stream("S", DType::F64);
        s.add_scalar("acc", DType::I64, true);
        let sid = s.add_state("main");
        let st = s.state_mut(sid);
        let a = st.add_access("A");
        let (ce, cx) = st.add_consume(ConsumeScope {
            label: "c".into(),
            pe_param: "p".into(),
            num_pes: crate::Expr::from("4"),
            element: "e".into(),
            condition: Some("len == 0".into()),
            schedule: crate::Schedule::Sequential,
        });
        let r = st.add_node(Node::Reduce {
            wcr: Wcr::Max,
            axes: Some(vec![0]),
            identity: Some(-1.5),
        });
        let sacc = st.add_access("S");
        st.add_edge(
            sacc,
            None,
            ce,
            Some("IN_stream"),
            Memlet::parse("S", "0").dynamic(),
        );
        st.add_edge(ce, Some("OUT_stream"), r, None, Memlet::parse("S", "0"));
        st.add_edge(r, None, cx, Some("IN_A"), Memlet::parse("A", "0, 0"));
        st.add_edge(cx, Some("OUT_A"), a, None, Memlet::parse("A", "0:N, 0"));
        let json = to_json(&s);
        let back = from_json(&json).expect("deserializes");
        assert_eq!(to_json(&back), json, "round trip is a fixed point");
    }

    #[test]
    fn nested_sdfg_round_trips() {
        let mut inner = Sdfg::new("inner");
        inner.add_symbol("K");
        inner.add_array("X", &["K"], DType::F64);
        let isid = inner.add_state("body");
        inner.state_mut(isid).instrument = Instrument::Counter;

        let mut outer = Sdfg::new("outer");
        outer.add_symbol("N");
        outer.add_array("X", &["N"], DType::F64);
        let osid = outer.add_state("main");
        let st = outer.state_mut(osid);
        let x = st.add_access("X");
        let mut mapping = std::collections::BTreeMap::new();
        mapping.insert("K".to_string(), crate::Expr::sym("N"));
        let n = st.add_node(Node::NestedSdfg {
            sdfg: Box::new(inner),
            symbol_mapping: mapping,
            inputs: vec!["X".into()],
            outputs: vec!["X".into()],
        });
        st.add_edge(x, None, n, Some("X"), Memlet::parse("X", "0:N"));
        let json = to_json(&outer);
        let back = from_json(&json).expect("deserializes");
        assert_eq!(to_json(&back), json, "round trip is a fixed point");
        let st = back.state(back.start.unwrap());
        let nid = st
            .graph
            .node_ids()
            .find(|&i| matches!(st.node(i), Node::NestedSdfg { .. }))
            .unwrap();
        let Node::NestedSdfg {
            sdfg,
            symbol_mapping,
            ..
        } = st.node(nid)
        else {
            unreachable!()
        };
        assert_eq!(sdfg.name, "inner");
        assert_eq!(
            sdfg.state(sdfg.start.unwrap()).instrument,
            Instrument::Counter
        );
        assert_eq!(symbol_mapping["K"], crate::Expr::sym("N"));
    }

    #[test]
    fn content_hash_is_stable() {
        // Structurally identical SDFGs built independently hash equally,
        // and a serialization round trip is hash-neutral.
        let a = instrumented_sdfg();
        let b = instrumented_sdfg();
        assert_eq!(content_hash(&a), content_hash(&b));
        let back = from_json(&to_json(&a)).expect("round trips");
        assert_eq!(content_hash(&a), content_hash(&back));
    }

    #[test]
    fn content_hash_sees_structural_edits() {
        let base = instrumented_sdfg();
        let h0 = content_hash(&base);

        // Adding a node changes the digest.
        let mut with_node = instrumented_sdfg();
        let sid = with_node.start.unwrap();
        with_node.state_mut(sid).add_access("A");
        assert_ne!(content_hash(&with_node), h0, "added node must rehash");

        // Changing one memlet subset changes the digest.
        let mut with_memlet = instrumented_sdfg();
        let sid = with_memlet.start.unwrap();
        let st = with_memlet.state_mut(sid);
        let e = st
            .graph
            .edge_ids()
            .find(|&e| st.graph.edge(e).memlet.to_string() == "A[i]")
            .expect("per-point memlet present");
        st.graph.edge_mut(e).memlet = Memlet::parse("A", "i + 1");
        assert_ne!(content_hash(&with_memlet), h0, "edited memlet must rehash");

        // Symbol *names* are part of the identity...
        let mut with_symbol = instrumented_sdfg();
        with_symbol.add_symbol("M");
        assert_ne!(
            content_hash(&with_symbol),
            h0,
            "declared symbol must rehash"
        );
    }

    #[test]
    fn fnv64_reference_vectors() {
        // Published FNV-1a test vectors pin the algorithm.
        let digest = |s: &str| {
            let mut h = Fnv64::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf29ce484222325);
        assert_eq!(digest("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parse_json_value_api() {
        let v = parse_json(r#"{"a": 1.5, "b": [true, null], "c": "x"}"#).unwrap();
        assert_eq!(v.num_field("a").unwrap(), 1.5);
        assert_eq!(v.arr_field("b").unwrap().len(), 2);
        assert_eq!(v.str_field("c").unwrap(), "x");
        assert!(parse_json("{} junk").is_err());
    }

    /// Nesting is bounded, for the tree builder and for `skip_value`
    /// alike: a megabyte of `[` is an error, not a stack overflow.
    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert!(JsonReader::new(&nested(MAX_DEPTH)).skip_value().is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            "nesting deeper than 128 levels at byte 128 (line 1, column 129)"
        );
        let hostile = "[{\"k\":".repeat(1 << 17);
        assert!(parse_json(&hostile).is_err());
        assert!(JsonReader::new(&hostile).skip_value().is_err());
        // Levels closed are levels given back.
        let wide = format!("[{}[]]", "[[]],".repeat(1000));
        assert!(parse_json(&wide).is_ok());
    }
}
