//! Streaming serializers for SPARQL query results.
//!
//! One [`SolutionWriter`] per response: `start` writes the head (the
//! projected variables), [`SolutionWriter::write_row`] appends one
//! solution at a time, and [`SolutionWriter::finish`] closes the
//! document — so a result set is serialized row by row into any
//! [`Write`] sink without ever materializing the serialized document
//! next to the result set. All four W3C formats come out of the same
//! writer (the shape oxigraph's `sparesults` uses), selected by
//! [`ResultFormat`]:
//!
//! * **JSON** — SPARQL 1.1 Query Results JSON; unbound variables are
//!   omitted from their binding object.
//! * **XML** — SPARQL Query Results XML; unbound variables have no
//!   `<binding>` element.
//! * **TSV** — terms in N-Triples syntax (lossless: IRIs bracketed,
//!   literal escapes, language tags and datatypes kept); unbound
//!   variables are empty fields.
//! * **CSV** — RFC 4180: plain lexical values, quoting only when a
//!   field contains a comma, quote or line break (lossy by design — the
//!   spec trades type fidelity for spreadsheet friendliness).
//!
//! The inverse helpers ([`split_tsv_row`], [`parse_tsv_term`],
//! [`split_csv_row`]) exist for the round-trip property tests and the
//! HTTP benchmark's row-equality checks.

use std::io::Write;

use gstored::rdf::term::unescape_literal;
use gstored::rdf::{Literal, Term};

use crate::negotiate::ResultFormat;

/// A streaming result-set writer: head, then rows, then the tail.
///
/// Each row is encoded into one reused byte buffer — terms escaped in
/// place, byte by byte — and leaves in one `write_all`, so once the
/// buffer has grown to the widest row, writing a row allocates nothing.
/// The string formatters below ([`json_escape`], [`xml_escape_text`],
/// [`xml_escape_attr`], [`tsv_term`], [`csv_term`]) are the reference
/// the encoder is tested against, byte for byte.
#[derive(Debug)]
pub struct SolutionWriter<W: Write> {
    sink: W,
    format: ResultFormat,
    /// Per variable, the bytes that open its binding, escaped once: JSON
    /// `"name":`, XML `    <binding name="name">`; empty for TSV/CSV.
    openers: Vec<Vec<u8>>,
    /// The row being encoded.
    row: Vec<u8>,
    rows: usize,
}

impl<W: Write> SolutionWriter<W> {
    /// Open a result document over `sink` and write its head.
    pub fn start(
        mut sink: W,
        format: ResultFormat,
        variables: &[String],
    ) -> std::io::Result<SolutionWriter<W>> {
        match format {
            ResultFormat::Json => {
                let vars: Vec<String> = variables
                    .iter()
                    .map(|v| format!("\"{}\"", json_escape(v)))
                    .collect();
                write!(
                    sink,
                    "{{\"head\":{{\"vars\":[{}]}},\"results\":{{\"bindings\":[",
                    vars.join(",")
                )?;
            }
            ResultFormat::Xml => {
                sink.write_all(b"<?xml version=\"1.0\"?>\n")?;
                sink.write_all(
                    b"<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n<head>\n",
                )?;
                for v in variables {
                    writeln!(sink, "  <variable name=\"{}\"/>", xml_escape_attr(v))?;
                }
                sink.write_all(b"</head>\n<results>\n")?;
            }
            ResultFormat::Tsv => {
                let head: Vec<String> = variables.iter().map(|v| format!("?{v}")).collect();
                sink.write_all(head.join("\t").as_bytes())?;
                sink.write_all(b"\n")?;
            }
            ResultFormat::Csv => {
                let head: Vec<String> = variables.iter().map(|v| csv_field(v)).collect();
                sink.write_all(head.join(",").as_bytes())?;
                sink.write_all(b"\r\n")?;
            }
        }
        let openers = variables
            .iter()
            .map(|name| match format {
                ResultFormat::Json => format!("\"{}\":", json_escape(name)).into_bytes(),
                ResultFormat::Xml => {
                    format!("    <binding name=\"{}\">", xml_escape_attr(name)).into_bytes()
                }
                ResultFormat::Tsv | ResultFormat::Csv => Vec::new(),
            })
            .collect();
        Ok(SolutionWriter {
            sink,
            format,
            openers,
            row: Vec::new(),
            rows: 0,
        })
    }

    /// Append one solution. `row` must bind the writer's variables in
    /// projection order; `None` is an unbound variable.
    pub fn write_row(&mut self, row: &[Option<&Term>]) -> std::io::Result<()> {
        debug_assert_eq!(row.len(), self.openers.len());
        let out = &mut self.row;
        out.clear();
        let bound = self
            .openers
            .iter()
            .zip(row)
            .filter_map(|(o, t)| Some((o, (*t)?)));
        match self.format {
            ResultFormat::Json => {
                if self.rows > 0 {
                    out.push(b',');
                }
                out.push(b'{');
                for (i, (opener, term)) in bound.enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    out.extend_from_slice(opener);
                    encode_json_term(out, term);
                }
                out.push(b'}');
            }
            ResultFormat::Xml => {
                out.extend_from_slice(b"  <result>\n");
                for (opener, term) in bound {
                    out.extend_from_slice(opener);
                    encode_xml_term(out, term);
                    out.extend_from_slice(b"</binding>\n");
                }
                out.extend_from_slice(b"  </result>\n");
            }
            ResultFormat::Tsv | ResultFormat::Csv => {
                let tsv = self.format == ResultFormat::Tsv;
                for (i, term) in row.iter().enumerate() {
                    if i > 0 {
                        out.push(if tsv { b'\t' } else { b',' });
                    }
                    match term {
                        Some(term) if tsv => encode_tsv_term(out, term),
                        Some(term) => encode_csv_term(out, term),
                        None => {}
                    }
                }
                out.extend_from_slice(if tsv { b"\n" } else { b"\r\n" });
            }
        }
        self.sink.write_all(&self.row)?;
        self.rows += 1;
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Close the document and return the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        match self.format {
            ResultFormat::Json => self.sink.write_all(b"]}}")?,
            ResultFormat::Xml => self.sink.write_all(b"</results>\n</sparql>\n")?,
            ResultFormat::Tsv | ResultFormat::Csv => {}
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Append `s` to `out`, replacing each byte `escape` maps to a
/// replacement and copying the runs in between whole. Every byte the
/// escapers replace is ASCII, so a multi-byte character is never split.
fn encode_escaped(out: &mut Vec<u8>, s: &str, escape: impl Fn(u8) -> Option<&'static [u8]>) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(replacement) = escape(b) {
            out.extend_from_slice(&bytes[run..i]);
            out.extend_from_slice(replacement);
            run = i + 1;
        }
    }
    out.extend_from_slice(&bytes[run..]);
}

/// [`json_escape`], appended to `out`.
fn encode_json_string(out: &mut Vec<u8>, s: &str) {
    /// `\u00XX` for every control byte, indexed by the byte.
    const CONTROL: [[u8; 6]; 0x20] = {
        let hex = b"0123456789abcdef";
        let mut table = [[0u8; 6]; 0x20];
        let mut b = 0;
        while b < 0x20 {
            table[b] = [b'\\', b'u', b'0', b'0', hex[b >> 4], hex[b & 0xf]];
            b += 1;
        }
        table
    };
    encode_escaped(out, s, |b| {
        backslash_escape(b).or_else(|| (b < 0x20).then(|| &CONTROL[b as usize][..]))
    });
}

/// The backslash escapes JSON strings and N-Triples literal bodies
/// share.
fn backslash_escape(b: u8) -> Option<&'static [u8]> {
    match b {
        b'"' => Some(b"\\\""),
        b'\\' => Some(b"\\\\"),
        b'\n' => Some(b"\\n"),
        b'\r' => Some(b"\\r"),
        b'\t' => Some(b"\\t"),
        _ => None,
    }
}

fn encode_json_term(out: &mut Vec<u8>, term: &Term) {
    let (kind, value) = match term {
        Term::Iri(iri) => ("uri", iri),
        Term::Blank(label) => ("bnode", label),
        Term::Literal(l) => ("literal", &l.lexical),
    };
    out.extend_from_slice(b"{\"type\":\"");
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(b"\",\"value\":\"");
    encode_json_string(out, value);
    out.push(b'"');
    if let Term::Literal(l) = term {
        let annotation = match (&l.language, &l.datatype) {
            (Some(tag), _) => Some((&b",\"xml:lang\":\""[..], tag)),
            (None, Some(dt)) => Some((&b",\"datatype\":\""[..], dt)),
            (None, None) => None,
        };
        if let Some((key, value)) = annotation {
            out.extend_from_slice(key);
            encode_json_string(out, value);
            out.push(b'"');
        }
    }
    out.push(b'}');
}

/// [`xml_escape_text`] (`attr == false`) or [`xml_escape_attr`],
/// appended to `out`.
fn encode_xml_string(out: &mut Vec<u8>, s: &str, attr: bool) {
    encode_escaped(out, s, |b| match b {
        b'&' => Some(b"&amp;"),
        b'<' => Some(b"&lt;"),
        b'>' => Some(b"&gt;"),
        b'"' if attr => Some(b"&quot;"),
        _ => None,
    });
}

fn encode_xml_term(out: &mut Vec<u8>, term: &Term) {
    let (open, value, close): (&[u8], &str, &[u8]) = match term {
        Term::Iri(iri) => (b"<uri>", iri, b"</uri>"),
        Term::Blank(label) => (b"<bnode>", label, b"</bnode>"),
        Term::Literal(l) => {
            match (&l.language, &l.datatype) {
                (Some(tag), _) => {
                    out.extend_from_slice(b"<literal xml:lang=\"");
                    encode_xml_string(out, tag, true);
                    out.extend_from_slice(b"\">");
                }
                (None, Some(dt)) => {
                    out.extend_from_slice(b"<literal datatype=\"");
                    encode_xml_string(out, dt, true);
                    out.extend_from_slice(b"\">");
                }
                (None, None) => out.extend_from_slice(b"<literal>"),
            }
            (b"", &l.lexical, b"</literal>")
        }
    };
    out.extend_from_slice(open);
    encode_xml_string(out, value, false);
    out.extend_from_slice(close);
}

/// [`tsv_term`], appended to `out`.
fn encode_tsv_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push(b'<');
            out.extend_from_slice(iri.as_bytes());
            out.push(b'>');
        }
        Term::Blank(label) => {
            out.extend_from_slice(b"_:");
            out.extend_from_slice(label.as_bytes());
        }
        Term::Literal(l) => {
            out.push(b'"');
            encode_escaped(out, &l.lexical, backslash_escape);
            out.push(b'"');
            if let Some(tag) = &l.language {
                out.push(b'@');
                out.extend_from_slice(tag.as_bytes());
            } else if let Some(dt) = &l.datatype {
                out.extend_from_slice(b"^^<");
                out.extend_from_slice(dt.as_bytes());
                out.push(b'>');
            }
        }
    }
}

/// [`csv_term`], appended to `out`.
fn encode_csv_term(out: &mut Vec<u8>, term: &Term) {
    let (prefix, value): (&[u8], &str) = match term {
        Term::Iri(iri) => (b"", iri),
        Term::Blank(label) => (b"_:", label),
        Term::Literal(l) => (b"", &l.lexical),
    };
    if value.contains([',', '"', '\n', '\r']) {
        out.push(b'"');
        out.extend_from_slice(prefix);
        encode_escaped(out, value, |b| (b == b'"').then_some(&b"\"\""[..]));
        out.push(b'"');
    } else {
        out.extend_from_slice(prefix);
        out.extend_from_slice(value.as_bytes());
    }
}

/// Serialize a whole result set (variables + rows of optional terms)
/// into a byte buffer. The row-at-a-time [`SolutionWriter`] is the
/// streaming interface; this is the convenience wrapper tests and
/// benchmarks use for materialized rows.
pub fn serialize_rows<'a>(
    format: ResultFormat,
    variables: &[String],
    rows: impl IntoIterator<Item = Vec<Option<&'a Term>>>,
) -> Vec<u8> {
    let mut writer =
        SolutionWriter::start(Vec::new(), format, variables).expect("writing to a Vec cannot fail");
    for row in rows {
        writer
            .write_row(&row)
            .expect("writing to a Vec cannot fail");
    }
    writer.finish().expect("writing to a Vec cannot fail")
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escape text content for XML (`&`, `<`, `>`).
pub fn xml_escape_text(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Escape an XML attribute value (text rules plus `"`).
pub fn xml_escape_attr(s: &str) -> String {
    xml_escape_text(s).replace('"', "&quot;")
}

/// One term in TSV syntax: N-Triples, which [`Term`]'s `Display` already
/// produces (escaped literal bodies, bracketed IRIs, `_:` blanks).
pub fn tsv_term(term: &Term) -> String {
    term.to_string()
}

/// Split one TSV row into its raw fields (no unescaping — TSV escapes
/// tabs and newlines inside literal bodies, so splitting is trivial).
pub fn split_tsv_row(line: &str) -> Vec<&str> {
    line.split('\t').collect()
}

/// Parse one TSV field back into a term (`None` for an empty/unbound
/// field or a malformed term). The inverse of [`tsv_term`] — the
/// round-trip property tests pin this.
pub fn parse_tsv_term(field: &str) -> Option<Term> {
    if field.is_empty() {
        return None;
    }
    if let Some(rest) = field.strip_prefix('<') {
        return rest.strip_suffix('>').map(Term::iri);
    }
    if let Some(label) = field.strip_prefix("_:") {
        return Some(Term::blank(label));
    }
    let rest = field.strip_prefix('"')?;
    // Find the closing quote: the first unescaped `"`.
    let mut end = None;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                end = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    let end = end?;
    let lexical = unescape_literal(&rest[..end])?;
    let suffix = &rest[end + 1..];
    if suffix.is_empty() {
        Some(Term::lit(lexical))
    } else if let Some(tag) = suffix.strip_prefix('@') {
        Some(Term::lang_lit(lexical, tag))
    } else {
        let dt = suffix.strip_prefix("^^<")?.strip_suffix('>')?;
        Some(Term::Literal(Literal::typed(lexical, dt)))
    }
}

/// One term as a CSV field: the plain lexical/IRI/blank value, quoted
/// per RFC 4180 when needed.
pub fn csv_term(term: &Term) -> String {
    match term {
        Term::Iri(iri) => csv_field(iri),
        Term::Blank(label) => csv_field(&format!("_:{label}")),
        Term::Literal(l) => csv_field(&l.lexical),
    }
}

/// Quote a CSV field when it contains a comma, quote or line break
/// (doubling inner quotes), else pass it through.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Split one CSV record into unescaped fields. The record must be a
/// complete row (callers split the document on row boundaries outside
/// quotes — or, for server output, rely on terms never containing line
/// breaks unquoted). Returns `None` on unbalanced quoting.
pub fn split_csv_row(record: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = record.chars().peekable();
    let mut quoted = false;
    loop {
        match chars.next() {
            None => {
                if quoted {
                    return None;
                }
                fields.push(field);
                return Some(fields);
            }
            Some('"') if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    quoted = false;
                }
            }
            Some('"') if field.is_empty() && !quoted => quoted = true,
            Some(',') if !quoted => {
                fields.push(std::mem::take(&mut field));
            }
            Some(c) => field.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn json_shape_and_unbound() {
        let x = Term::iri("http://ex/a");
        let n = Term::lang_lit("Ann \"A\"", "en");
        let out = serialize_rows(
            ResultFormat::Json,
            &vars(&["x", "n"]),
            vec![vec![Some(&x), Some(&n)], vec![Some(&x), None]],
        );
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"head\":{\"vars\":[\"x\",\"n\"]},\"results\":{\"bindings\":[\
             {\"x\":{\"type\":\"uri\",\"value\":\"http://ex/a\"},\
             \"n\":{\"type\":\"literal\",\"value\":\"Ann \\\"A\\\"\",\"xml:lang\":\"en\"}},\
             {\"x\":{\"type\":\"uri\",\"value\":\"http://ex/a\"}}]}}"
        );
    }

    #[test]
    fn xml_escapes_markup() {
        let t = Term::lit("a<b>&c");
        let out = serialize_rows(ResultFormat::Xml, &vars(&["v"]), vec![vec![Some(&t)]]);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("<literal>a&lt;b&gt;&amp;c</literal>"));
        assert!(text.starts_with("<?xml version=\"1.0\"?>"));
        assert!(text.ends_with("</results>\n</sparql>\n"));
    }

    #[test]
    fn tsv_roundtrips_every_term_kind() {
        let terms = [
            Term::iri("http://ex/a"),
            Term::lit("tab\there\nand newline"),
            Term::lang_lit("hé", "fr"),
            Term::Literal(Literal::typed(
                "5",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
            Term::blank("b0"),
        ];
        for t in &terms {
            let field = tsv_term(t);
            assert!(!field.contains('\t') && !field.contains('\n'));
            assert_eq!(parse_tsv_term(&field).as_ref(), Some(t), "field {field:?}");
        }
        assert_eq!(parse_tsv_term(""), None, "unbound");
        assert_eq!(parse_tsv_term("<unclosed"), None);
        assert_eq!(parse_tsv_term("\"unclosed"), None);
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(
            split_csv_row("plain,\"a,b\",\"say \"\"hi\"\"\"").unwrap(),
            vec!["plain", "a,b", "say \"hi\""]
        );
        assert_eq!(split_csv_row("\"unbalanced"), None);
    }

    #[test]
    fn csv_document_shape() {
        let a = Term::iri("http://ex/a");
        let l = Term::lit("x,y");
        let out = serialize_rows(
            ResultFormat::Csv,
            &vars(&["s", "v"]),
            vec![vec![Some(&a), Some(&l)]],
        );
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "s,v\r\nhttp://ex/a,\"x,y\"\r\n"
        );
    }

    #[test]
    fn streaming_writer_counts_rows() {
        let t = Term::iri("http://ex/a");
        let mut w = SolutionWriter::start(Vec::new(), ResultFormat::Tsv, &vars(&["x"])).unwrap();
        assert_eq!(w.rows(), 0);
        w.write_row(&[Some(&t)]).unwrap();
        w.write_row(&[None]).unwrap();
        assert_eq!(w.rows(), 2);
        let out = w.finish().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "?x\n<http://ex/a>\n\n");
    }

    #[test]
    fn control_characters_escape_in_json() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    }
}
