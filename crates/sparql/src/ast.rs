//! AST of the supported SPARQL BGP fragment.

use gstored_rdf::Term;

/// A subject/predicate/object position in a triple pattern: either a
/// constant RDF term or a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TermPattern {
    /// A constant term (IRI, literal or blank node treated as constant).
    Const(Term),
    /// A variable, stored without the `?` sigil.
    Var(String),
}

impl TermPattern {
    /// Shorthand for a variable pattern.
    pub fn var(name: impl Into<String>) -> Self {
        TermPattern::Var(name.into())
    }

    /// Shorthand for an IRI constant pattern.
    pub fn iri(iri: impl Into<String>) -> Self {
        TermPattern::Const(Term::iri(iri))
    }

    /// Whether this is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, TermPattern::Var(_))
    }

    /// The variable name, if any.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            TermPattern::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl std::fmt::Display for TermPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TermPattern::Const(t) => write!(f, "{t}"),
            TermPattern::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// One triple pattern of the BGP.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    pub subject: TermPattern,
    pub predicate: TermPattern,
    pub object: TermPattern,
}

impl TriplePattern {
    pub fn new(subject: TermPattern, predicate: TermPattern, object: TermPattern) -> Self {
        TriplePattern {
            subject,
            predicate,
            object,
        }
    }

    /// Variables mentioned by this pattern, in s/p/o order, deduplicated.
    pub fn variables(&self) -> Vec<&str> {
        let mut vs = Vec::new();
        for tp in [&self.subject, &self.predicate, &self.object] {
            if let Some(v) = tp.as_var() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        vs
    }

    /// Number of constant (non-variable) positions; a rough selectivity
    /// signal (paper Section VIII-B: "selective triple patterns").
    pub fn constant_count(&self) -> usize {
        [&self.subject, &self.predicate, &self.object]
            .iter()
            .filter(|t| !t.is_var())
            .count()
    }
}

impl std::fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// A parsed SPARQL BGP query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Projected variables; empty means `SELECT *`.
    pub select: Vec<String>,
    /// Whether `DISTINCT` was specified.
    pub distinct: bool,
    /// The triple patterns of the WHERE clause.
    pub patterns: Vec<TriplePattern>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

impl Query {
    /// All distinct variables across the BGP, in first-occurrence order.
    pub fn variables(&self) -> Vec<&str> {
        let mut vs: Vec<&str> = Vec::new();
        for p in &self.patterns {
            for v in p.variables() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        vs
    }

    /// The projected variables, defaulting to all variables for `SELECT *`.
    pub fn projection(&self) -> Vec<&str> {
        if self.select.is_empty() {
            self.variables()
        } else {
            self.select.iter().map(String::as_str).collect()
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        if self.select.is_empty() {
            write!(f, "*")?;
        } else {
            let vars: Vec<String> = self.select.iter().map(|v| format!("?{v}")).collect();
            write!(f, "{}", vars.join(" "))?;
        }
        writeln!(f, " WHERE {{")?;
        for p in &self.patterns {
            writeln!(f, "  {p}")?;
        }
        write!(f, "}}")?;
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Query {
        // The paper's Section I example query.
        Query {
            select: vec!["p2".into(), "l".into()],
            distinct: false,
            patterns: vec![
                TriplePattern::new(
                    TermPattern::var("t"),
                    TermPattern::iri("http://dbpedia.org/ontology/label"),
                    TermPattern::var("l"),
                ),
                TriplePattern::new(
                    TermPattern::var("p1"),
                    TermPattern::iri("http://dbpedia.org/ontology/influencedBy"),
                    TermPattern::var("p2"),
                ),
                TriplePattern::new(
                    TermPattern::var("p2"),
                    TermPattern::iri("http://dbpedia.org/ontology/mainInterest"),
                    TermPattern::var("t"),
                ),
                TriplePattern::new(
                    TermPattern::var("p1"),
                    TermPattern::iri("http://dbpedia.org/ontology/name"),
                    TermPattern::Const(Term::lang_lit("Crispin Wright", "en")),
                ),
            ],
            limit: None,
        }
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let q = example();
        assert_eq!(q.variables(), vec!["t", "l", "p1", "p2"]);
    }

    #[test]
    fn projection_defaults_to_all() {
        let mut q = example();
        q.select.clear();
        assert_eq!(q.projection(), vec!["t", "l", "p1", "p2"]);
    }

    #[test]
    fn constant_count_reflects_selectivity() {
        let q = example();
        assert_eq!(q.patterns[0].constant_count(), 1); // predicate only
        assert_eq!(q.patterns[3].constant_count(), 2); // predicate + object
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let q = example();
        let text = q.to_string();
        let q2 = crate::parser::parse_query(&text).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn pattern_variables_dedup() {
        let p = TriplePattern::new(
            TermPattern::var("x"),
            TermPattern::var("p"),
            TermPattern::var("x"),
        );
        assert_eq!(p.variables(), vec!["x", "p"]);
    }
}
