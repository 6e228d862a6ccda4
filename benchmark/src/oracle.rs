//! The correctness gate: every answer must equal the centralized
//! matcher's rows on the unpartitioned graph.
//!
//! Rows are compared as sorted multisets of canonical strings. JSON,
//! XML and TSV bodies are parsed back to terms and rendered in
//! N-Triples syntax; CSV is lossy by specification, so CSV bodies are
//! compared against the oracle's terms rendered the way CSV renders
//! them (plain lexical values).

use gstored::rdf::{Literal, RdfGraph, Term, Triple};
use gstored::sparql::{parse_query, QueryGraph};
use gstored::store::{find_matches, EncodedQuery};
use gstored_server::serializer::split_csv_row;
use gstored_server::ResultFormat;

use crate::json::Json;
use crate::workloads::NamedQuery;

/// Separates the cells of a canonical row (cannot occur in a term).
const CELL: char = '\u{1f}';

/// The centralized answer to one query.
pub struct Expected {
    pub variables: Vec<String>,
    /// Sorted canonical rows, cells in N-Triples syntax.
    lossless: Vec<String>,
    /// Sorted canonical rows, cells as CSV renders them.
    csv: Vec<String>,
}

#[cfg(test)]
impl Expected {
    pub fn rows(&self) -> usize {
        self.lossless.len()
    }
}

pub struct Oracle {
    pub expected: Vec<Expected>,
}

impl Oracle {
    /// Evaluate every query with `gstored_store::find_matches` over the
    /// whole graph — no partitioning, no engine, no protocol.
    pub fn build(triples: Vec<Triple>, queries: &[NamedQuery]) -> Oracle {
        let mut graph = RdfGraph::from_triples(triples);
        graph.finalize();
        let expected = queries
            .iter()
            .map(|query| {
                let ast = parse_query(&query.text).expect("workload queries parse");
                let qg = QueryGraph::from_query(&ast).expect("workload queries are connected");
                let encoded = EncodedQuery::encode(&qg, graph.dict())
                    .expect("workload queries project vertex variables only");
                let rows: Vec<Vec<&Term>> = find_matches(&graph, &encoded)
                    .iter()
                    .map(|binding| {
                        encoded
                            .projection()
                            .iter()
                            .map(|&v| graph.term(binding[v]))
                            .collect()
                    })
                    .collect();
                let mut lossless: Vec<String> = rows
                    .iter()
                    .map(|row| join_cells(row.iter().map(|t| t.to_string())))
                    .collect();
                let mut csv: Vec<String> = rows
                    .iter()
                    .map(|row| join_cells(row.iter().map(|t| csv_value(t))))
                    .collect();
                lossless.sort_unstable();
                csv.sort_unstable();
                Expected {
                    variables: qg.projection().to_vec(),
                    lossless,
                    csv,
                }
            })
            .collect();
        Oracle { expected }
    }

    /// Does this response body carry exactly query `index`'s rows?
    pub fn check_body(
        &self,
        index: usize,
        format: ResultFormat,
        body: &[u8],
    ) -> Result<(), String> {
        let expected = &self.expected[index];
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let (variables, mut rows) = match format {
            ResultFormat::Json => parse_json(text)?,
            ResultFormat::Xml => parse_xml(text)?,
            ResultFormat::Tsv => parse_tsv(text)?,
            ResultFormat::Csv => parse_csv(text)?,
        };
        if variables != expected.variables {
            return Err(format!(
                "variables {variables:?}, expected {:?}",
                expected.variables
            ));
        }
        rows.sort_unstable();
        let want = match format {
            ResultFormat::Csv => &expected.csv,
            _ => &expected.lossless,
        };
        compare(&rows, want)
    }

    /// Does the embedded session's answer (decoded terms, projection
    /// order) equal query `index`'s rows?
    pub fn check_terms<'a>(
        &self,
        index: usize,
        rows: impl Iterator<Item = Vec<&'a Term>>,
    ) -> Result<(), String> {
        let mut rows: Vec<String> = rows
            .map(|row| join_cells(row.iter().map(|t| t.to_string())))
            .collect();
        rows.sort_unstable();
        compare(&rows, &self.expected[index].lossless)
    }
}

fn compare(got: &[String], want: &[String]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    let first = got.iter().zip(want).position(|(g, w)| g != w).unwrap_or(0);
    Err(format!(
        "row {first} is {:?}, expected {:?}",
        got[first], want[first]
    ))
}

fn join_cells(cells: impl Iterator<Item = String>) -> String {
    let mut out = String::new();
    for (i, cell) in cells.enumerate() {
        if i > 0 {
            out.push(CELL);
        }
        out.push_str(&cell);
    }
    out
}

fn csv_value(term: &Term) -> String {
    match term {
        Term::Iri(iri) => iri.clone(),
        Term::Blank(label) => format!("_:{label}"),
        Term::Literal(l) => l.lexical.clone(),
    }
}

type Parsed = (Vec<String>, Vec<String>);

fn parse_json(text: &str) -> Result<Parsed, String> {
    let doc = Json::parse(text)?;
    let variables: Vec<String> = doc
        .get("head")
        .and_then(|h| h.get("vars"))
        .and_then(Json::as_arr)
        .ok_or("no head.vars")?
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    let bindings = doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_arr)
        .ok_or("no results.bindings")?;
    let mut rows = Vec::with_capacity(bindings.len());
    for binding in bindings {
        let mut cells = Vec::with_capacity(variables.len());
        for var in &variables {
            let cell = binding.get(var).ok_or_else(|| format!("?{var} unbound"))?;
            let value = cell
                .get("value")
                .and_then(Json::as_str)
                .ok_or("binding without value")?;
            let term = match cell.get("type").and_then(Json::as_str) {
                Some("uri") => Term::iri(value),
                Some("bnode") => Term::blank(value),
                Some("literal") => {
                    if let Some(tag) = cell.get("xml:lang").and_then(Json::as_str) {
                        Term::lang_lit(value, tag)
                    } else if let Some(dt) = cell.get("datatype").and_then(Json::as_str) {
                        Term::Literal(Literal::typed(value, dt))
                    } else {
                        Term::lit(value)
                    }
                }
                other => return Err(format!("unknown term type {other:?}")),
            };
            cells.push(term.to_string());
        }
        rows.push(join_cells(cells.into_iter()));
    }
    Ok((variables, rows))
}

fn xml_unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&amp;", "&")
}

/// The value of `name="…"` inside an element's opening tag.
fn xml_attr<'a>(tag: &'a str, name: &str) -> Option<&'a str> {
    let start = tag.find(&format!("{name}=\""))? + name.len() + 2;
    let end = tag[start..].find('"')? + start;
    Some(&tag[start..end])
}

/// Parses exactly the document shape `SolutionWriter` emits (one
/// `<binding>` per line); anything else is a wrong answer.
fn parse_xml(text: &str) -> Result<Parsed, String> {
    let mut variables = Vec::new();
    let mut rows = Vec::new();
    let mut current: Option<Vec<(String, String)>> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("<variable ") {
            variables.push(xml_unescape(
                xml_attr(rest, "name").ok_or("variable without name")?,
            ));
        } else if line == "<result>" {
            current = Some(Vec::new());
        } else if line == "</result>" {
            let bound = current.take().ok_or("</result> without <result>")?;
            let mut cells = Vec::with_capacity(variables.len());
            for var in &variables {
                let (_, cell) = bound
                    .iter()
                    .find(|(name, _)| name == var)
                    .ok_or_else(|| format!("?{var} unbound"))?;
                cells.push(cell.clone());
            }
            rows.push(join_cells(cells.into_iter()));
        } else if let Some(rest) = line.strip_prefix("<binding ") {
            let bound = current.as_mut().ok_or("<binding> outside <result>")?;
            let name = xml_unescape(xml_attr(rest, "name").ok_or("binding without name")?);
            let inner = rest
                .split_once('>')
                .and_then(|(_, r)| r.strip_suffix("</binding>"))
                .ok_or("malformed <binding>")?;
            bound.push((name, xml_term(inner)?.to_string()));
        }
    }
    Ok((variables, rows))
}

fn xml_term(element: &str) -> Result<Term, String> {
    let (open, rest) = element.split_once('>').ok_or("malformed term element")?;
    let text = |close: &str| -> Result<String, String> {
        rest.strip_suffix(close)
            .map(xml_unescape)
            .ok_or_else(|| format!("missing {close}"))
    };
    if open == "<uri" {
        Ok(Term::iri(text("</uri>")?))
    } else if open == "<bnode" {
        Ok(Term::blank(text("</bnode>")?))
    } else if open.starts_with("<literal") {
        let lexical = text("</literal>")?;
        if let Some(tag) = xml_attr(open, "xml:lang") {
            Ok(Term::lang_lit(lexical, xml_unescape(tag)))
        } else if let Some(dt) = xml_attr(open, "datatype") {
            Ok(Term::Literal(Literal::typed(lexical, xml_unescape(dt))))
        } else {
            Ok(Term::lit(lexical))
        }
    } else {
        Err(format!("unknown term element {open}"))
    }
}

fn parse_tsv(text: &str) -> Result<Parsed, String> {
    let mut lines = text.split('\n');
    let head = lines.next().ok_or("empty TSV body")?;
    let variables: Vec<String> = head
        .split('\t')
        .filter(|v| !v.is_empty())
        .map(|v| v.trim_start_matches('?').to_string())
        .collect();
    let mut rows = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let mut cells = Vec::with_capacity(variables.len());
        for field in line.split('\t') {
            let term = gstored_server::serializer::parse_tsv_term(field)
                .ok_or_else(|| format!("bad TSV term {field:?}"))?;
            cells.push(term.to_string());
        }
        if cells.len() != variables.len() {
            return Err(format!("TSV row with {} fields", cells.len()));
        }
        rows.push(join_cells(cells.into_iter()));
    }
    Ok((variables, rows))
}

fn parse_csv(text: &str) -> Result<Parsed, String> {
    let mut records = text.split("\r\n");
    let head = records.next().ok_or("empty CSV body")?;
    let variables = split_csv_row(head).ok_or("bad CSV head")?;
    let variables: Vec<String> = variables.into_iter().filter(|v| !v.is_empty()).collect();
    let mut rows = Vec::new();
    for record in records.filter(|r| !r.is_empty()) {
        let cells = split_csv_row(record).ok_or_else(|| format!("bad CSV record {record:?}"))?;
        if cells.len() != variables.len() {
            return Err(format!("CSV row with {} fields", cells.len()));
        }
        rows.push(join_cells(cells.into_iter()));
    }
    Ok((variables, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_server::serialize_rows;

    fn fixture() -> (Oracle, Vec<Vec<Term>>, Vec<String>) {
        let p = "http://ex/p";
        let rows = vec![
            vec![Term::iri("http://ex/a"), Term::lit("x, \"y\" & <z>")],
            vec![Term::iri("http://ex/b"), Term::lang_lit("été", "fr")],
            vec![
                Term::iri("http://ex/c"),
                Term::Literal(Literal::typed("1", "http://ex/int")),
            ],
        ];
        let triples = rows
            .iter()
            .map(|r| Triple::new(r[0].clone(), Term::iri(p), r[1].clone()))
            .collect();
        let query = NamedQuery {
            id: "Q".into(),
            text: format!("SELECT * WHERE {{ ?s <{p}> ?o }}"),
        };
        let oracle = Oracle::build(triples, &[query]);
        let variables = oracle.expected[0].variables.clone();
        (oracle, rows, variables)
    }

    #[test]
    fn every_format_parses_back_to_the_oracle_rows() {
        let (oracle, rows, variables) = fixture();
        assert_eq!(oracle.expected[0].rows(), 3);
        for format in ResultFormat::ALL {
            let body = serialize_rows(
                format,
                &variables,
                rows.iter().rev().map(|r| r.iter().map(Some).collect()),
            );
            oracle
                .check_body(0, format, &body)
                .unwrap_or_else(|e| panic!("{}: {e}", format.name()));
        }
    }

    #[test]
    fn a_missing_or_altered_row_is_a_wrong_answer() {
        let (oracle, mut rows, variables) = fixture();
        let short = serialize_rows(
            ResultFormat::Json,
            &variables,
            rows[..2].iter().map(|r| r.iter().map(Some).collect()),
        );
        assert!(oracle.check_body(0, ResultFormat::Json, &short).is_err());
        rows[0][1] = Term::lit("other");
        for format in ResultFormat::ALL {
            let body = serialize_rows(
                format,
                &variables,
                rows.iter().map(|r| r.iter().map(Some).collect()),
            );
            assert!(
                oracle.check_body(0, format, &body).is_err(),
                "{}",
                format.name()
            );
        }
        assert!(oracle
            .check_terms(0, rows.iter().map(|r| r.iter().collect()))
            .is_err());
    }
}
