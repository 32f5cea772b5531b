//! The JSON-lines wire protocol (and the minimal hand-rolled JSON it
//! needs — the workspace is std-only, so there is no serde).
//!
//! Every message is one JSON object per line. Requests carry an `op`:
//!
//! ```text
//! {"op":"alloc","id":3,"fn":"<lra_ir::textio text, JSON-escaped>"}
//! {"op":"alloc","id":5,"fn":"...","trace_id":"req-5","trace":true}
//! {"op":"stats","id":7}
//! {"op":"metrics","id":8}
//! {"op":"shutdown","id":9}
//! ```
//!
//! An optional `trace_id` string is echoed verbatim in the request's
//! response (alloc rows and rejections alike) so callers can correlate
//! pipelined traffic; `trace:true` additionally asks the server to
//! trace the request's run ([`lra_core::trace`]) and return flat
//! per-phase timing fields and one `trace_<key>` field per row of
//! [`lra_core::trace::COUNTERS`]. The server ignores any other field.
//!
//! Responses echo the request `id`:
//!
//! ```text
//! {"id":3,"ok":true,"function":"gzip::f0","spill_cost":12,"rounds":2,
//!  "stores":3,"loads":5,"converged":true,"verified":true}
//! {"id":5,"ok":true,...,"trace_id":"req-5","trace_total_us":812,
//!  "phase_allocate_us":301,...,"trace_rounds":2,"trace_spill_delta":40,
//!  "trace_fuel":2500,"trace_fuel_consumed":1830,...,"trace_cache_misses":1}
//! {"id":3,"ok":false,"function":"gzip::f0","error":"..."}
//! {"id":3,"rejected":true,"reason":"queue_full"}
//! {"id":7,"ok":true,"served":27,...}
//! ```
//!
//! The `metrics` op answers with a multi-line Prometheus text
//! exposition ([`crate::ServiceMetrics::render_prometheus`]) instead
//! of a JSON line, terminated by a `# EOF` line — the one deliberate
//! departure from one-object-per-line framing.
//!
//! The JSON subset implemented here is exactly what the protocol
//! uses: one flat object per line with string / integer / float /
//! bool / null values. Strings unescape `\" \\ \/ \b \f \n \r \t`
//! and non-surrogate `\uXXXX`.

use lra_core::batch::{ReportRow, RowStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON scalar. Numbers keep their raw text so integers round-trip
/// exactly (no f64 detour for `u64` counters).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A string value.
    Str(String),
    /// A number, kept as its raw token.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses one flat JSON object line into its key → value map.
///
/// # Errors
///
/// Returns a description of the first syntax problem (including
/// nested arrays/objects, which the protocol never uses).
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Json>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            map.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing content after object".to_string());
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next().ok_or("unterminated string")? {
                b'"' => return Ok(out),
                b'\\' => match self.next().ok_or("truncated escape")? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "non-ASCII \\u escape")?;
                        self.pos += 4;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        out.push(c);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                },
                // Multi-byte UTF-8: copy the raw bytes of this char.
                b if b >= 0x80 => {
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|n| n & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                }
                b => out.push(b as char),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("missing value")? {
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true").map(|()| Json::Bool(true)),
            b'f' => self.literal("false").map(|()| Json::Bool(false)),
            b'n' => self.literal("null").map(|()| Json::Null),
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.pos += 1;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.pos += 1;
                }
                // The consumed bytes are all ASCII digits/signs, but a
                // wire parser never panics on principle: surface any
                // impossibility as a parse error instead.
                let tok = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-UTF-8 number token".to_string())?;
                // Validate: every number token must at least parse as f64.
                tok.parse::<f64>()
                    .map_err(|_| format!("bad number {tok:?}"))?;
                Ok(Json::Num(tok.to_string()))
            }
            b'{' | b'[' => Err("nested containers are not part of the protocol".to_string()),
            other => Err(format!("unexpected value start {:?}", other as char)),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word}"))
        }
    }
}

/// Builds the `alloc` request line for one function (already rendered
/// by [`lra_ir::textio::print`]) with none of the optional fields:
/// [`alloc_request_full`] with every extension unset.
pub fn alloc_request(id: u64, function_text: &str) -> String {
    alloc_request_full(id, function_text, None, false)
}

/// The `alloc` request builder: optional correlation `trace_id`
/// (echoed in the response), optional `trace:true` (the response then
/// carries flat per-phase timing fields).
pub fn alloc_request_full(
    id: u64,
    function_text: &str,
    trace_id: Option<&str>,
    trace: bool,
) -> String {
    let mut line = format!(
        "{{\"op\":\"alloc\",\"id\":{id},\"fn\":\"{}\"",
        escape(function_text)
    );
    if let Some(tid) = trace_id {
        let _ = write!(line, ",\"trace_id\":\"{}\"", escape(tid));
    }
    if trace {
        line.push_str(",\"trace\":true");
    }
    line.push('}');
    line
}

/// Builds a bare-op request line (`stats`, `metrics`, `shutdown`).
pub fn op_request(id: u64, op: &str) -> String {
    format!("{{\"op\":\"{}\",\"id\":{id}}}", escape(op))
}

/// Builds the response line for one completed request, with the
/// optional trace extensions: the request's `trace_id` echoed
/// verbatim, and — for a successful row whose request asked
/// `trace:true` — the per-phase timing report as **flat** scalar
/// fields (the protocol's parser rejects nested containers by
/// design): `trace_total_us`, one `phase_<name>_us` self-time per
/// [`lra_core::trace::Phase`], then one `trace_<key>` field per row of
/// [`lra_core::trace::COUNTERS`], in table order.
pub fn alloc_response(
    id: u64,
    row: &ReportRow,
    trace_id: Option<&str>,
    trace: Option<&lra_core::trace::TraceReport>,
) -> String {
    let mut line = match &row.outcome {
        Ok(r) => format!(
            "{{\"id\":{id},\"ok\":true,\"function\":\"{}\",\"spill_cost\":{},\"rounds\":{},\"stores\":{},\"loads\":{},\"converged\":{},\"verified\":{},\"escalated\":{}",
            escape(&row.function),
            r.spill_cost,
            r.rounds,
            r.stores,
            r.loads,
            r.converged,
            r.verified,
            r.escalated
        ),
        Err(e) => format!(
            "{{\"id\":{id},\"ok\":false,\"function\":\"{}\",\"error\":\"{}\"",
            escape(&row.function),
            escape(e)
        ),
    };
    if let Some(tid) = trace_id {
        let _ = write!(line, ",\"trace_id\":\"{}\"", escape(tid));
    }
    if let (Some(t), Ok(_)) = (trace, &row.outcome) {
        let _ = write!(line, ",\"trace_total_us\":{}", t.total_self_ns() / 1_000);
        for phase in lra_core::trace::Phase::ALL {
            let _ = write!(
                line,
                ",\"phase_{}_us\":{}",
                phase.name(),
                t.phase_self_us(phase)
            );
        }
        for (c, v) in lra_core::trace::COUNTERS.iter().zip(t.counters()) {
            let _ = write!(line, ",\"trace_{}\":{v}", c.key);
        }
    }
    line.push('}');
    line
}

/// Builds the backpressure rejection line for a request the full
/// queue turned away, echoing the request's `trace_id` (if any) so a
/// pipelined caller can correlate rejections too (a rejected request
/// has no timing to report — the pipeline never ran). The request is
/// safe to resubmit after a backoff.
pub fn rejected_response(id: u64, trace_id: Option<&str>) -> String {
    let mut line = format!("{{\"id\":{id},\"rejected\":true,\"reason\":\"queue_full\"");
    if let Some(tid) = trace_id {
        let _ = write!(line, ",\"trace_id\":\"{}\"", escape(tid));
    }
    line.push('}');
    line
}

/// Builds a protocol-error response (unparsable request, bad function
/// text, unknown op).
pub fn error_response(id: Option<u64>, msg: &str) -> String {
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}", escape(msg)),
        None => format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(msg)),
    }
}

/// Decodes a response line back into `(id, ReportRow)`, or the
/// rejection/readiness variants the client loop handles.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A completed request's row.
    Row {
        /// Echoed request id.
        id: u64,
        /// The report row.
        row: ReportRow,
    },
    /// The full queue turned the request away; resubmit after a
    /// backoff.
    Rejected {
        /// Echoed request id.
        id: u64,
    },
    /// A non-alloc reply (stats/shutdown acks) or a protocol error —
    /// the raw field map for the caller to pick over.
    Other {
        /// Echoed request id, when present.
        id: Option<u64>,
        /// The raw parsed fields.
        fields: BTreeMap<String, Json>,
    },
}

/// Parses one server response line.
///
/// # Errors
///
/// Returns a description when the line is not valid protocol JSON or
/// an `ok:true` row is missing a required column.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let fields = parse_object(line)?;
    let id = fields.get("id").and_then(Json::as_u64);
    if fields.get("rejected").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::Rejected {
            id: id.ok_or("rejected response without id")?,
        });
    }
    let function = fields.get("function").and_then(Json::as_str);
    match (fields.get("ok").and_then(Json::as_bool), function) {
        (Some(true), Some(function)) => {
            let need = |k: &str| -> Result<u64, String> {
                fields
                    .get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("response missing {k}"))
            };
            let flag = |k: &str| -> Result<bool, String> {
                fields
                    .get(k)
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("response missing {k}"))
            };
            Ok(Response::Row {
                id: id.ok_or("row response without id")?,
                row: ReportRow {
                    function: function.to_string(),
                    outcome: Ok(RowStats {
                        spill_cost: need("spill_cost")?,
                        rounds: need("rounds")? as u32,
                        stores: need("stores")? as usize,
                        loads: need("loads")? as usize,
                        converged: flag("converged")?,
                        verified: flag("verified")?,
                        escalated: flag("escalated")?,
                    }),
                },
            })
        }
        (Some(false), Some(function)) => Ok(Response::Row {
            id: id.ok_or("row response without id")?,
            row: ReportRow {
                function: function.to_string(),
                outcome: Err(fields
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string()),
            },
        }),
        _ => Ok(Response::Other { id, fields }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip() {
        let line = r#"{"op":"alloc","id":3,"fn":"fn f\nbb0: succs=-\nend\n","deep":null,"x":-1.5e3,"b":false}"#;
        let map = parse_object(line).unwrap();
        assert_eq!(map["op"].as_str(), Some("alloc"));
        assert_eq!(map["id"].as_u64(), Some(3));
        assert_eq!(map["fn"].as_str(), Some("fn f\nbb0: succs=-\nend\n"));
        assert_eq!(map["deep"], Json::Null);
        assert_eq!(map["b"].as_bool(), Some(false));
        assert_eq!(map["x"], Json::Num("-1.5e3".to_string()));
    }

    #[test]
    fn escape_and_unescape_agree() {
        let nasty = "a\"b\\c\nd\te\u{1}f ünicode 💡";
        let line = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let map = parse_object(&line).unwrap();
        assert_eq!(map["s"].as_str(), Some(nasty));
    }

    #[test]
    fn malformed_objects_are_rejected() {
        for bad in [
            "",
            "{",
            "{}x",
            r#"{"a":}"#,
            r#"{"a":[1]}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":truthy}"#,
            r#"{"a":"unterminated}"#,
            r#"{"a":1,}"#,
        ] {
            assert!(parse_object(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn alloc_responses_round_trip() {
        let ok = ReportRow {
            function: "jit::m0".to_string(),
            outcome: Ok(RowStats {
                spill_cost: 42,
                rounds: 3,
                stores: 7,
                loads: 9,
                converged: true,
                verified: true,
                escalated: false,
            }),
        };
        let err = ReportRow {
            function: "jit::m1".to_string(),
            outcome: Err("pipeline panicked: \"boom\"".to_string()),
        };
        for (id, row) in [(5u64, &ok), (6, &err)] {
            let line = alloc_response(id, row, None, None);
            match parse_response(&line).unwrap() {
                Response::Row { id: got, row: r } => {
                    assert_eq!(got, id);
                    assert_eq!(&r, row);
                }
                other => panic!("expected row, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejection_and_error_lines_parse() {
        assert_eq!(
            parse_response(&rejected_response(11, None)).unwrap(),
            Response::Rejected { id: 11 }
        );
        // Whatever reason a rejection carries, or none, it reads as
        // backpressure.
        for line in [
            r#"{"id":13,"rejected":true}"#,
            r#"{"id":13,"rejected":true,"reason":"draining"}"#,
        ] {
            assert_eq!(parse_response(line).unwrap(), Response::Rejected { id: 13 });
        }
        match parse_response(&error_response(Some(2), "bad fn")).unwrap() {
            Response::Other { id, fields } => {
                assert_eq!(id, Some(2));
                assert_eq!(fields["error"].as_str(), Some("bad fn"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_builders_emit_single_lines() {
        let req = alloc_request(0, "fn f values=1 entry=0 params=-\nbb0: succs=-\nend\n");
        assert!(!req.contains('\n'));
        let map = parse_object(&req).unwrap();
        assert_eq!(map["op"].as_str(), Some("alloc"));
        assert!(map["fn"].as_str().unwrap().contains("bb0"));
        let map = parse_object(&op_request(1, "stats")).unwrap();
        assert_eq!(map["op"].as_str(), Some("stats"));
    }

    #[test]
    fn traced_requests_and_responses_stay_flat_and_parse() {
        let req = alloc_request_full(
            5,
            "fn f values=0 entry=0 params=-\nbb0: succs=-\nend\n",
            Some("req-5"),
            true,
        );
        let map = parse_object(&req).unwrap();
        assert_eq!(map["trace_id"].as_str(), Some("req-5"));
        assert_eq!(map["trace"].as_bool(), Some(true));

        let row = ReportRow {
            function: "jit::m0".to_string(),
            outcome: Ok(RowStats {
                spill_cost: 42,
                rounds: 3,
                stores: 7,
                loads: 9,
                converged: true,
                verified: true,
                escalated: false,
            }),
        };
        let mut t = lra_core::trace::TraceReport::default();
        t.phases[lra_core::trace::Phase::Allocate as usize].self_ns = 301_000;
        t.phases[lra_core::trace::Phase::Allocate as usize].count = 3;
        let line = alloc_response(5, &row, Some("req-5"), Some(&t));
        // The extended line is still one flat object the protocol
        // parser accepts, and the standard row survives intact.
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields["trace_id"].as_str(), Some("req-5"));
        assert_eq!(fields["phase_allocate_us"].as_u64(), Some(301));
        assert_eq!(fields["trace_total_us"].as_u64(), Some(301));
        match parse_response(&line).unwrap() {
            Response::Row { id, row: parsed } => {
                assert_eq!(id, 5);
                assert_eq!(parsed, row);
            }
            other => panic!("expected row, got {other:?}"),
        }
        // An error row echoes the trace_id but carries no timing (the
        // pipeline failed; there is nothing to attribute).
        let err = ReportRow {
            function: "jit::m1".to_string(),
            outcome: Err("boom".to_string()),
        };
        let line = alloc_response(6, &err, Some("req-6"), Some(&t));
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields["trace_id"].as_str(), Some("req-6"));
        assert!(!fields.contains_key("trace_total_us"));

        let rej = rejected_response(7, Some("req-7"));
        let fields = parse_object(&rej).unwrap();
        assert_eq!(fields["trace_id"].as_str(), Some("req-7"));
        assert_eq!(parse_response(&rej).unwrap(), Response::Rejected { id: 7 });
    }

    #[test]
    fn wire_lines_are_pinned_byte_for_byte() {
        // Every request, response and rejection line the protocol
        // emits, with none of the trace extensions, with `trace_id`
        // only, and with `trace_id` plus `trace:true` timings. Any
        // change here is a wire-format change that every deployed
        // client sees.
        let text = "fn f values=1 entry=0 params=-\nbb0: succs=-\nend\n";
        let ok = ReportRow {
            function: "jit::m0".to_string(),
            outcome: Ok(RowStats {
                spill_cost: 42,
                rounds: 3,
                stores: 7,
                loads: 9,
                converged: true,
                verified: true,
                escalated: false,
            }),
        };
        let err = ReportRow {
            function: "jit::\"m1\"".to_string(),
            outcome: Err("pipeline panicked: \"boom\"".to_string()),
        };
        let mut t = lra_core::trace::TraceReport::default();
        t.phases[lra_core::trace::Phase::Allocate as usize].self_ns = 301_000;
        t.phases[lra_core::trace::Phase::Allocate as usize].count = 3;
        t.phases[lra_core::trace::Phase::Verify as usize].self_ns = 12_500;
        t.rounds = 3;
        t.spill_delta = 17;
        t.fuel = 100_000;
        t.cache_hits = 1;
        t.cache_misses = 2;
        let ok_traced = concat!(
            r#"{"id":5,"ok":true,"function":"jit::m0","spill_cost":42,"rounds":3,"stores":7,"loads":9,"converged":true,"verified":true,"escalated":false,"trace_id":"req-5""#,
            r#","trace_total_us":313,"phase_pipeline_us":0,"phase_round_us":0,"phase_analysis_us":0,"phase_spill_costs_us":0,"phase_instance_build_us":0,"phase_allocate_us":301,"phase_verify_us":12,"phase_rewrite_us":0,"phase_reanalyse_us":0,"phase_escalate_prep_us":0"#,
            r#","trace_rounds":3,"trace_spill_delta":17,"trace_fuel":100000,"trace_fuel_consumed":0"#,
            r#","trace_exact_won":0,"trace_exact_tied":0,"trace_exact_improved":0,"trace_exact_exhausted":0"#,
            r#","trace_escalation_not_splittable":0,"trace_escalation_failed":0,"trace_escalation_over_base_cost":0"#,
            r#","trace_escalation_unconverged":0,"trace_escalation_accepted":0,"trace_chordality_tests":0"#,
            r#","trace_cache_hits":1,"trace_cache_misses":2}"#,
        );
        let cases: [(String, &str); 11] = [
            (
                alloc_request(3, text),
                r#"{"op":"alloc","id":3,"fn":"fn f values=1 entry=0 params=-\nbb0: succs=-\nend\n"}"#,
            ),
            (
                alloc_request_full(4, text, Some("req-4"), false),
                r#"{"op":"alloc","id":4,"fn":"fn f values=1 entry=0 params=-\nbb0: succs=-\nend\n","trace_id":"req-4"}"#,
            ),
            (
                alloc_request_full(5, text, Some("req-5"), true),
                r#"{"op":"alloc","id":5,"fn":"fn f values=1 entry=0 params=-\nbb0: succs=-\nend\n","trace_id":"req-5","trace":true}"#,
            ),
            (
                alloc_response(5, &ok, None, None),
                r#"{"id":5,"ok":true,"function":"jit::m0","spill_cost":42,"rounds":3,"stores":7,"loads":9,"converged":true,"verified":true,"escalated":false}"#,
            ),
            (
                alloc_response(5, &ok, Some("req-5"), None),
                r#"{"id":5,"ok":true,"function":"jit::m0","spill_cost":42,"rounds":3,"stores":7,"loads":9,"converged":true,"verified":true,"escalated":false,"trace_id":"req-5"}"#,
            ),
            (alloc_response(5, &ok, Some("req-5"), Some(&t)), ok_traced),
            (
                alloc_response(6, &err, None, None),
                r#"{"id":6,"ok":false,"function":"jit::\"m1\"","error":"pipeline panicked: \"boom\""}"#,
            ),
            (
                alloc_response(6, &err, Some("req-6"), None),
                r#"{"id":6,"ok":false,"function":"jit::\"m1\"","error":"pipeline panicked: \"boom\"","trace_id":"req-6"}"#,
            ),
            // An error row carries no timings, even when asked for.
            (
                alloc_response(6, &err, Some("req-6"), Some(&t)),
                r#"{"id":6,"ok":false,"function":"jit::\"m1\"","error":"pipeline panicked: \"boom\"","trace_id":"req-6"}"#,
            ),
            (
                rejected_response(7, None),
                r#"{"id":7,"rejected":true,"reason":"queue_full"}"#,
            ),
            (
                rejected_response(7, Some("req-7")),
                r#"{"id":7,"rejected":true,"reason":"queue_full","trace_id":"req-7"}"#,
            ),
        ];
        for (i, (got, want)) in cases.iter().enumerate() {
            assert_eq!(got, want, "line {i}");
        }
    }
}
