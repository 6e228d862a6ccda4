//! Golden-file tests for the four SPARQL result serializers, plus
//! property tests that the lossless formats' escaping round-trips.
//!
//! The committed documents under `tests/golden/` pin the exact bytes the
//! server emits for a fixture covering every term kind, unbound
//! variables, characters each format must escape (quotes, commas, tabs,
//! newlines, XML markup) and non-ASCII text. A serializer change that
//! alters any byte shows up as a golden diff, reviewable in the PR.

use gstored::rdf::{Literal, Term};
use gstored_server::serializer::{
    csv_field, csv_term, json_escape, parse_tsv_term, split_csv_row, split_tsv_row, tsv_term,
    xml_escape_attr, xml_escape_text,
};
use gstored_server::{serialize_rows, ResultFormat};
use proptest::prelude::*;

/// A fixture that exercises every serializer branch: each term kind,
/// an unbound variable, quoting/escaping hazards and unicode.
fn fixture() -> (Vec<String>, Vec<Vec<Option<Term>>>) {
    let variables = ["s", "name", "age", "note"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows = vec![
        vec![
            Some(Term::iri("http://example.org/alice")),
            Some(Term::lang_lit("Ali\u{e9}nor \"the 1st\"", "fr")),
            Some(Term::Literal(Literal::typed(
                "42",
                "http://www.w3.org/2001/XMLSchema#integer",
            ))),
            Some(Term::lit("line one\nline two\ttabbed")),
        ],
        vec![
            Some(Term::blank("b0")),
            Some(Term::lit("comma, separated & <tagged>")),
            None,
            Some(Term::lit("")),
        ],
        vec![
            Some(Term::iri("http://example.org/caf\u{e9}")),
            None,
            None,
            None,
        ],
    ];
    (variables, rows)
}

fn serialize_fixture(format: ResultFormat) -> String {
    let (variables, rows) = fixture();
    let borrowed = rows
        .iter()
        .map(|row| row.iter().map(|t| t.as_ref()).collect::<Vec<_>>());
    String::from_utf8(serialize_rows(format, &variables, borrowed)).unwrap()
}

/// Compare against (or, with `UPDATE_GOLDEN=1`, rewrite) a committed
/// golden document.
fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    assert_eq!(actual, expected, "{name} drifted from its golden file");
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn json_matches_golden() {
    check_golden("results.srj", &serialize_fixture(ResultFormat::Json));
}

#[test]
fn xml_matches_golden() {
    check_golden("results.srx", &serialize_fixture(ResultFormat::Xml));
}

#[test]
fn tsv_matches_golden() {
    check_golden("results.tsv", &serialize_fixture(ResultFormat::Tsv));
}

#[test]
fn csv_matches_golden() {
    check_golden("results.csv", &serialize_fixture(ResultFormat::Csv));
}

#[test]
fn tsv_golden_parses_back_to_the_fixture() {
    let (variables, rows) = fixture();
    let text = golden("results.tsv");
    let mut lines = text.lines();
    let head: Vec<String> = split_tsv_row(lines.next().unwrap())
        .iter()
        .map(|f| f.trim_start_matches('?').to_string())
        .collect();
    assert_eq!(head, variables);
    for (line, row) in lines.zip(&rows) {
        let parsed: Vec<Option<Term>> = split_tsv_row(line)
            .iter()
            .map(|f| parse_tsv_term(f))
            .collect();
        assert_eq!(&parsed, row);
    }
}

/// The character palette the property tests draw term content from:
/// everything the escapers have to defend against, plus unicode. The
/// vendored proptest shim only generates ASCII classes, so strings are
/// built from index vectors into this palette instead.
const PALETTE: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\'',
    ',',
    '\t',
    '\n',
    '\r',
    '\\',
    '<',
    '>',
    '&',
    '@',
    '^',
    '.',
    ':',
    '\u{e9}',
    '\u{4e16}',
    '\u{1f600}',
];

fn palette_string(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| PALETTE[i % PALETTE.len()])
        .collect()
}

/// How many characters [`hostile_string`] draws from: [`PALETTE`], then
/// every control byte below 0x20 (the JSON escaper's `\u00XX` branch).
const HOSTILE_CHARS: usize = PALETTE.len() + 0x20;

/// A string of [`PALETTE`] characters and control bytes, for the
/// writer-equivalence property.
fn hostile_string(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| match i.checked_sub(PALETTE.len()) {
            Some(control) => char::from(control as u8),
            None => PALETTE[i],
        })
        .collect()
}

/// One random cell: `kind` picks unbound, IRI, blank node, plain,
/// language-tagged or typed literal; `a` is its value and `b` its tag or
/// datatype.
fn hostile_term(kind: usize, a: &[usize], b: &[usize]) -> Option<Term> {
    let (a, b) = (hostile_string(a), hostile_string(b));
    match kind {
        0 => None,
        1 => Some(Term::iri(a)),
        2 => Some(Term::blank(a)),
        3 => Some(Term::lit(a)),
        4 => Some(Term::lang_lit(a, b)),
        _ => Some(Term::Literal(Literal::typed(a, b))),
    }
}

/// The document the row writer must produce, built the way the server
/// built it before rows were encoded in place: one `String` per term
/// from the reference formatters.
fn reference_document(
    format: ResultFormat,
    variables: &[String],
    rows: &[Vec<Option<Term>>],
) -> String {
    let mut doc = String::from_utf8(serialize_rows(format, variables, Vec::new())).unwrap();
    let tail = match format {
        ResultFormat::Json => "]}}",
        ResultFormat::Xml => "</results>\n</sparql>\n",
        ResultFormat::Tsv | ResultFormat::Csv => "",
    };
    doc.truncate(doc.len() - tail.len());
    for (n, row) in rows.iter().enumerate() {
        let bound = variables
            .iter()
            .zip(row)
            .filter_map(|(v, t)| Some((v, t.as_ref()?)));
        match format {
            ResultFormat::Json => {
                let fields: Vec<String> = bound
                    .map(|(v, t)| format!("\"{}\":{}", json_escape(v), json_term(t)))
                    .collect();
                let separator = if n > 0 { "," } else { "" };
                doc.push_str(&format!("{separator}{{{}}}", fields.join(",")));
            }
            ResultFormat::Xml => {
                doc.push_str("  <result>\n");
                for (v, t) in bound {
                    doc.push_str(&format!(
                        "    <binding name=\"{}\">{}</binding>\n",
                        xml_escape_attr(v),
                        xml_term(t)
                    ));
                }
                doc.push_str("  </result>\n");
            }
            ResultFormat::Tsv => {
                let fields: Vec<String> = row
                    .iter()
                    .map(|t| t.as_ref().map(tsv_term).unwrap_or_default())
                    .collect();
                doc.push_str(&fields.join("\t"));
                doc.push('\n');
            }
            ResultFormat::Csv => {
                let fields: Vec<String> = row
                    .iter()
                    .map(|t| t.as_ref().map(csv_term).unwrap_or_default())
                    .collect();
                doc.push_str(&fields.join(","));
                doc.push_str("\r\n");
            }
        }
    }
    doc.push_str(tail);
    doc
}

fn json_term(term: &Term) -> String {
    let (kind, value) = match term {
        Term::Iri(iri) => ("uri", iri),
        Term::Blank(label) => ("bnode", label),
        Term::Literal(l) => ("literal", &l.lexical),
    };
    let mut out = format!("{{\"type\":\"{kind}\",\"value\":\"{}\"", json_escape(value));
    if let Term::Literal(l) = term {
        if let Some(tag) = &l.language {
            out.push_str(&format!(",\"xml:lang\":\"{}\"", json_escape(tag)));
        } else if let Some(dt) = &l.datatype {
            out.push_str(&format!(",\"datatype\":\"{}\"", json_escape(dt)));
        }
    }
    out.push('}');
    out
}

fn xml_term(term: &Term) -> String {
    match term {
        Term::Iri(iri) => format!("<uri>{}</uri>", xml_escape_text(iri)),
        Term::Blank(label) => format!("<bnode>{}</bnode>", xml_escape_text(label)),
        Term::Literal(l) => {
            let body = xml_escape_text(&l.lexical);
            match (&l.language, &l.datatype) {
                (Some(tag), _) => format!(
                    "<literal xml:lang=\"{}\">{body}</literal>",
                    xml_escape_attr(tag)
                ),
                (None, Some(dt)) => format!(
                    "<literal datatype=\"{}\">{body}</literal>",
                    xml_escape_attr(dt)
                ),
                (None, None) => format!("<literal>{body}</literal>"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The row writer encodes terms in place into one reused buffer; on
    /// random rows of every term kind, unbound cells and every byte an
    /// escaper handles, its bytes equal the reference formatters'
    /// documents in all four formats.
    #[test]
    fn row_writer_equals_the_reference_formatters(
        width in 1usize..5,
        names in prop::collection::vec(prop::collection::vec(0usize..HOSTILE_CHARS, 1..6), 4..5),
        cells in prop::collection::vec(
            (
                0usize..6,
                prop::collection::vec(0usize..HOSTILE_CHARS, 0..12),
                prop::collection::vec(0usize..HOSTILE_CHARS, 0..5),
            ),
            0..24,
        ),
    ) {
        let variables: Vec<String> = names[..width].iter().map(|n| hostile_string(n)).collect();
        let terms: Vec<Option<Term>> = cells.iter().map(|(k, a, b)| hostile_term(*k, a, b)).collect();
        let rows: Vec<Vec<Option<Term>>> = terms
            .chunks(width)
            .map(|chunk| {
                let mut row = chunk.to_vec();
                row.resize(width, None);
                row
            })
            .collect();
        for format in ResultFormat::ALL {
            let written = serialize_rows(
                format,
                &variables,
                rows.iter().map(|row| row.iter().map(|t| t.as_ref()).collect()),
            );
            let written = String::from_utf8(written).expect("the writer emits UTF-8");
            prop_assert_eq!(written, reference_document(format, &variables, &rows));
        }
    }

    #[test]
    fn tsv_plain_literal_roundtrips(indices in prop::collection::vec(0usize..21, 0..24)) {
        let term = Term::lit(palette_string(&indices));
        let field = tsv_term(&term);
        // TSV fields must never contain an unescaped tab or line break,
        // or the row/field structure breaks.
        prop_assert!(!field.contains(['\t', '\n', '\r']));
        prop_assert_eq!(parse_tsv_term(&field), Some(term));
    }

    #[test]
    fn tsv_lang_literal_roundtrips(
        indices in prop::collection::vec(0usize..21, 0..16),
        tag in "[a-z]{2,8}",
    ) {
        let term = Term::lang_lit(palette_string(&indices), &tag);
        prop_assert_eq!(parse_tsv_term(&tsv_term(&term)), Some(term));
    }

    #[test]
    fn tsv_typed_literal_roundtrips(
        indices in prop::collection::vec(0usize..21, 0..16),
        dt in "[a-z]{1,12}",
    ) {
        let term = Term::Literal(Literal::typed(
            palette_string(&indices),
            format!("http://www.w3.org/2001/XMLSchema#{dt}"),
        ));
        prop_assert_eq!(parse_tsv_term(&tsv_term(&term)), Some(term));
    }

    #[test]
    fn tsv_rows_split_cleanly(
        a in prop::collection::vec(0usize..21, 0..12),
        b in prop::collection::vec(0usize..21, 0..12),
    ) {
        let left = Term::lit(palette_string(&a));
        let right = Term::lit(palette_string(&b));
        let row = format!("{}\t{}", tsv_term(&left), tsv_term(&right));
        let fields = split_tsv_row(&row);
        prop_assert_eq!(fields.len(), 2);
        prop_assert_eq!(parse_tsv_term(fields[0]), Some(left));
        prop_assert_eq!(parse_tsv_term(fields[1]), Some(right));
    }

    #[test]
    fn csv_fields_roundtrip_through_a_record(
        a in prop::collection::vec(0usize..21, 0..16),
        b in prop::collection::vec(0usize..21, 0..16),
        c in prop::collection::vec(0usize..21, 0..16),
    ) {
        // CSV is lossy on term *kind* but must preserve field *content*
        // exactly, including embedded commas, quotes and line breaks.
        let values = [palette_string(&a), palette_string(&b), palette_string(&c)];
        let record: Vec<String> = values.iter().map(|v| csv_field(v)).collect();
        let record = record.join(",");
        let split = split_csv_row(&record).expect("balanced quoting");
        prop_assert_eq!(split, values.to_vec());
    }

    #[test]
    fn csv_term_preserves_the_lexical_form(
        indices in prop::collection::vec(0usize..21, 0..24),
    ) {
        let lexical = palette_string(&indices);
        let field = csv_term(&Term::lit(lexical.clone()));
        let split = split_csv_row(&field).expect("balanced quoting");
        prop_assert_eq!(split, vec![lexical]);
    }
}
