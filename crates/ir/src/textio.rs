//! A compact, round-trippable text codec for [`Function`]s.
//!
//! [`print()`] emits a canonical text form, for people and for
//! processes alike, that [`parse`] reads back into a structurally
//! identical [`Function`] (`parse(print(f)) == f` for any function
//! whose predecessor lists are in the canonical
//! [`Function::recompute_preds`] order — which every builder- or
//! generator-produced function satisfies). The workspace is std-only,
//! so this codec is what crosses process boundaries: the `lra-service`
//! wire protocol ships functions as one escaped string of this format.
//!
//! # Format
//!
//! ```text
//! fn <name> values=<count> entry=<block> params=<%v,...|->
//! bb<i>: succs=<bb,...|->
//!   %d = <op|phi|call|load|store|copy> %u, %u
//!   <store|op|...> %u
//! ...
//! end
//! ```
//!
//! Blocks appear in index order starting at `bb0`; `-` denotes an
//! empty list; instructions without a def omit the `%d = ` prefix.
//! Function names are printed with `%XX` byte escapes for anything
//! that is not printable non-space ASCII (and for `%` itself), so a
//! name never contains whitespace and the whole header stays one
//! line. An empty name prints as the sentinel `%`.
//!
//! # Example
//!
//! ```
//! use lra_ir::builder::FunctionBuilder;
//! use lra_ir::textio;
//!
//! let mut b = FunctionBuilder::new("demo::f0");
//! let e = b.entry_block();
//! let x = b.op(e, &[]);
//! b.op(e, &[x]);
//! let f = b.finish();
//! let text = textio::print(&f);
//! assert_eq!(textio::parse(&text).unwrap(), f);
//! ```

use crate::cfg::{Block, BlockId, Function, Instr, Opcode, Value};
use std::fmt::Write as _;

/// A parse failure: the 1-based source line plus a description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number the error was detected on (0 for
    /// whole-function problems found after the last line).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for TextError {}

fn mnemonic(op: Opcode) -> &'static str {
    match op {
        Opcode::Op => "op",
        Opcode::Phi => "phi",
        Opcode::Call => "call",
        Opcode::Load => "load",
        Opcode::Store => "store",
        Opcode::Copy => "copy",
    }
}

fn opcode_of(s: &str) -> Option<Opcode> {
    Some(match s {
        "op" => Opcode::Op,
        "phi" => Opcode::Phi,
        "call" => Opcode::Call,
        "load" => Opcode::Load,
        "store" => Opcode::Store,
        "copy" => Opcode::Copy,
        _ => return None,
    })
}

/// Escapes a function name into a single whitespace-free token:
/// printable non-space ASCII passes through, everything else (and `%`)
/// becomes `%XX` byte escapes. The empty name becomes the sentinel
/// `%` (which no escaped non-empty name can produce).
fn escape_name(s: &str) -> String {
    if s.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_graphic() && b != b'%' {
            out.push(b as char);
        } else {
            let _ = write!(out, "%{b:02X}");
        }
    }
    out
}

fn unescape_name(s: &str) -> Result<String, String> {
    if s == "%" {
        return Ok(String::new());
    }
    let mut bytes = Vec::with_capacity(s.len());
    let mut it = s.bytes();
    while let Some(b) = it.next() {
        if b == b'%' {
            let hi = it.next().ok_or("truncated %XX escape in name")?;
            let lo = it.next().ok_or("truncated %XX escape in name")?;
            let hex = [hi, lo];
            let hex = std::str::from_utf8(&hex).map_err(|_| "non-ASCII escape digits")?;
            let v = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape %{hex}"))?;
            bytes.push(v);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes).map_err(|_| "name escapes decode to invalid UTF-8".to_string())
}

/// Renders `f` in the canonical codec format. The output always ends
/// with `end\n` and contains exactly one line per block header and
/// instruction, so it embeds cleanly in line-oriented protocols once
/// newline-escaped.
pub fn print(f: &Function) -> String {
    let mut out = String::new();
    let params = if f.params.is_empty() {
        "-".to_string()
    } else {
        f.params
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = writeln!(
        out,
        "fn {} values={} entry={} params={}",
        escape_name(&f.name),
        f.value_count,
        f.entry.0,
        params
    );
    for b in f.block_ids() {
        let block = f.block(b);
        let succs = if block.succs.is_empty() {
            "-".to_string()
        } else {
            block
                .succs
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(out, "bb{}: succs={}", b.0, succs);
        for instr in &block.instrs {
            let uses = instr
                .uses
                .iter()
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let m = mnemonic(instr.opcode);
            match (instr.def, uses.is_empty()) {
                (Some(d), true) => {
                    let _ = writeln!(out, "  {d} = {m}");
                }
                (Some(d), false) => {
                    let _ = writeln!(out, "  {d} = {m} {uses}");
                }
                (None, true) => {
                    let _ = writeln!(out, "  {m}");
                }
                (None, false) => {
                    let _ = writeln!(out, "  {m} {uses}");
                }
            }
        }
    }
    out.push_str("end\n");
    out
}

fn parse_value(tok: &str, line: usize) -> Result<Value, TextError> {
    let err = || TextError {
        line,
        msg: format!("expected a value like %3, got {tok:?}"),
    };
    let idx = tok.strip_prefix('%').ok_or_else(err)?;
    let n: u32 = idx.parse().map_err(|_| err())?;
    Ok(Value(n))
}

fn parse_block_id(tok: &str, line: usize) -> Result<BlockId, TextError> {
    let err = || TextError {
        line,
        msg: format!("expected a block like bb2, got {tok:?}"),
    };
    let idx = tok.strip_prefix("bb").ok_or_else(err)?;
    let n: u32 = idx.parse().map_err(|_| err())?;
    Ok(BlockId(n))
}

fn parse_list<T>(
    body: &str,
    line: usize,
    parse_one: impl Fn(&str, usize) -> Result<T, TextError>,
) -> Result<Vec<T>, TextError> {
    if body == "-" {
        return Ok(Vec::new());
    }
    body.split(',').map(|t| parse_one(t.trim(), line)).collect()
}

fn field<'a>(tok: &'a str, key: &str, line: usize) -> Result<&'a str, TextError> {
    tok.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| TextError {
            line,
            msg: format!("expected {key}=..., got {tok:?}"),
        })
}

/// Parses the canonical codec format back into a [`Function`].
///
/// The result is fully checked: structural invariants are enforced via
/// [`Function::validate`] (dangling edges, misplaced or mis-sized φs,
/// out-of-range values all fail), and predecessor lists are rebuilt in
/// canonical order, so a successful parse always yields a function the
/// allocation pipeline can run.
///
/// # Errors
///
/// Returns a [`TextError`] naming the offending line for syntax
/// problems, or a line-0 error for whole-function validation failures.
pub fn parse(text: &str) -> Result<Function, TextError> {
    let mut name: Option<String> = None;
    let mut value_count = 0u32;
    let mut entry = BlockId(0);
    let mut params: Vec<Value> = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut saw_end = false;

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if saw_end {
            return Err(TextError {
                line: line_no,
                msg: format!("unexpected content after end: {line:?}"),
            });
        }
        if name.is_none() {
            // Header: fn <name> values=N entry=N params=...
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() != 5 || toks[0] != "fn" {
                return Err(TextError {
                    line: line_no,
                    msg: "expected header: fn <name> values=N entry=N params=...".to_string(),
                });
            }
            name = Some(unescape_name(toks[1]).map_err(|msg| TextError { line: line_no, msg })?);
            value_count = field(toks[2], "values", line_no)?
                .parse()
                .map_err(|_| TextError {
                    line: line_no,
                    msg: format!("bad values count in {:?}", toks[2]),
                })?;
            entry = BlockId(
                field(toks[3], "entry", line_no)?
                    .parse()
                    .map_err(|_| TextError {
                        line: line_no,
                        msg: format!("bad entry block in {:?}", toks[3]),
                    })?,
            );
            params = parse_list(field(toks[4], "params", line_no)?, line_no, parse_value)?;
            continue;
        }
        if line == "end" {
            saw_end = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("bb") {
            if let Some((idx, tail)) = rest.split_once(':') {
                if let Ok(n) = idx.parse::<usize>() {
                    if n != blocks.len() {
                        return Err(TextError {
                            line: line_no,
                            msg: format!("block bb{n} out of order (expected bb{})", blocks.len()),
                        });
                    }
                    let tail = tail.trim();
                    let succs =
                        parse_list(field(tail, "succs", line_no)?, line_no, parse_block_id)?;
                    blocks.push(Block {
                        instrs: Vec::new(),
                        succs,
                        preds: Vec::new(),
                    });
                    continue;
                }
            }
            return Err(TextError {
                line: line_no,
                msg: format!("malformed block header {line:?}"),
            });
        }
        // Instruction line, inside the current block.
        let block = blocks.last_mut().ok_or_else(|| TextError {
            line: line_no,
            msg: "instruction before the first block header".to_string(),
        })?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        let (def, rest) = if toks.len() >= 2 && toks[1] == "=" {
            (Some(parse_value(toks[0], line_no)?), &toks[2..])
        } else {
            (None, &toks[..])
        };
        let (m, use_toks) = rest.split_first().ok_or_else(|| TextError {
            line: line_no,
            msg: "empty instruction".to_string(),
        })?;
        let opcode = opcode_of(m).ok_or_else(|| TextError {
            line: line_no,
            msg: format!("unknown mnemonic {m:?}"),
        })?;
        let uses = if use_toks.is_empty() {
            Vec::new()
        } else {
            parse_list(&use_toks.join(""), line_no, parse_value)?
        };
        block.instrs.push(Instr::new(opcode, def, uses));
    }

    let name = name.ok_or_else(|| TextError {
        line: 0,
        msg: "empty input: no fn header".to_string(),
    })?;
    if !saw_end {
        return Err(TextError {
            line: 0,
            msg: "missing end line".to_string(),
        });
    }
    if blocks.is_empty() {
        return Err(TextError {
            line: 0,
            msg: "function has no blocks".to_string(),
        });
    }
    // recompute_preds indexes straight into the block vector, so
    // dangling successors must be rejected here rather than left for
    // validate() to find.
    for (i, b) in blocks.iter().enumerate() {
        for s in &b.succs {
            if s.index() >= blocks.len() {
                return Err(TextError {
                    line: 0,
                    msg: format!("invalid function: bb{i}: successor {s} out of range"),
                });
            }
        }
    }
    let mut f = Function {
        name,
        blocks,
        entry,
        value_count,
        params,
    };
    f.recompute_preds();
    f.validate().map_err(|msg| TextError {
        line: 0,
        msg: format!("invalid function: {msg}"),
    })?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn diamond_with_phi() -> Function {
        let mut b = FunctionBuilder::new("demo::max");
        let e = b.entry_block();
        let x = b.param();
        let y = b.param();
        let l = b.block();
        let r = b.block();
        let j = b.block();
        b.op(e, &[x, y]);
        b.set_succs(e, &[l, r]);
        b.set_succs(l, &[j]);
        b.set_succs(r, &[j]);
        let m = b.phi(j, &[x, y]);
        b.call(j, &[m]);
        b.effect(j, Opcode::Store, &[m]);
        b.finish()
    }

    #[test]
    fn round_trips_a_structured_function() {
        let f = diamond_with_phi();
        let text = print(&f);
        assert_eq!(parse(&text).expect("round-trip"), f);
    }

    #[test]
    fn printed_form_is_canonical() {
        let f = diamond_with_phi();
        assert_eq!(print(&parse(&print(&f)).unwrap()), print(&f));
    }

    #[test]
    fn unused_value_indices_survive_via_the_header() {
        // A function whose value_count exceeds the mentioned values:
        // the header must carry the count, not a rescan of the body.
        let mut f = diamond_with_phi();
        f.value_count += 3;
        assert_eq!(parse(&print(&f)).unwrap().value_count, f.value_count);
    }

    #[test]
    fn names_with_spaces_and_unicode_round_trip() {
        for name in ["a b", "öffnen::f", "x%y", "tab\tname", "new\nline", ""] {
            let mut b = FunctionBuilder::new(name);
            let e = b.entry_block();
            b.op(e, &[]);
            let f = b.finish();
            let text = print(&f);
            let header = text.lines().next().unwrap();
            assert_eq!(
                header.split_whitespace().count(),
                5,
                "escaped header must stay 5 tokens: {header:?}"
            );
            assert_eq!(parse(&text).unwrap().name, name);
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        let f = diamond_with_phi();
        let good = print(&f);
        let cases: Vec<(String, &str)> = vec![
            (String::new(), "no fn header"),
            ("fn x values=1 entry=0".to_string(), "header"),
            (good.replace("end\n", ""), "missing end"),
            (format!("{good}trailing"), "after end"),
            (good.replace("bb1:", "bb7:"), "out of order"),
            (good.replace(" = op", " = frob"), "unknown mnemonic"),
            (good.replace("%2 = op", "%99 = op"), "invalid function"),
            (
                good.replace("succs=bb1,bb2", "succs=bb1,bb9"),
                "invalid function",
            ),
            ("  op %1\nend".to_string(), "expected header"),
        ];
        for (text, expect) in cases {
            let err = parse(&text).expect_err(&format!("should reject {text:?}"));
            assert!(
                err.to_string().contains(expect),
                "error {err} should mention {expect:?}"
            );
        }
    }

    #[test]
    fn instruction_before_block_is_rejected() {
        let text = "fn f values=1 entry=0 params=-\n  %0 = op\nbb0: succs=-\nend\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("before the first block"));
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let f = diamond_with_phi();
        let spaced = print(&f).replace('\n', "\n\n");
        assert_eq!(parse(&spaced).unwrap(), f);
    }

    #[test]
    fn error_display_carries_the_line() {
        let err = parse("fn f values=1 entry=0 params=-\nbb0: garbage\nend\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2:"));
    }
}
