//! Bidirectional term dictionary.
//!
//! Every [`Term`] is interned to a dense [`TermId`]; the rest of the system
//! (partitioner, local stores, wire protocol) works exclusively on ids.
//! In the paper's deployment the dictionary is the URI/literal encoding
//! layer of gStore; in this reproduction a single dictionary is shared by
//! all simulated sites (documented substitution: a real deployment would
//! replicate or hash-partition the dictionary, which affects neither the
//! algorithms nor the reported shipment of the evaluation stages, which
//! exchange encoded ids exactly as we do).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::term::Term;

/// Monotonic source of dictionary identities (see [`Dictionary::uid`]).
static NEXT_DICT_UID: AtomicU64 = AtomicU64::new(1);

/// Dense identifier for an interned [`Term`].
///
/// Ids are assigned consecutively from 0 in insertion order, so they can
/// index into `Vec`s directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u64);

impl TermId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Bidirectional mapping `Term <-> TermId`.
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// Instance identity: refreshed every time a new term is interned,
    /// so two dictionaries share a uid only when one is a clone of the
    /// other with no interning since — i.e. their id spaces are
    /// guaranteed identical. Prepared query plans record it so executing
    /// a plan against the wrong graph is caught instead of binding
    /// garbage ids.
    uid: u64,
    by_term: HashMap<Term, TermId>,
    by_id: Vec<Term>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            uid: NEXT_DICT_UID.fetch_add(1, Ordering::Relaxed),
            by_term: HashMap::new(),
            by_id: Vec::new(),
        }
    }
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty dictionary with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Dictionary {
            uid: NEXT_DICT_UID.fetch_add(1, Ordering::Relaxed),
            by_term: HashMap::with_capacity(cap),
            by_id: Vec::with_capacity(cap),
        }
    }

    /// Identity of this dictionary instance (shared by clones, distinct
    /// across independently built dictionaries).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Intern a term, returning its (possibly pre-existing) id.
    ///
    /// Interning a *new* term refreshes [`Dictionary::uid`]: the id
    /// space changed, so fingerprints taken before the mutation no
    /// longer match (see the `uid` field docs).
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.by_term.get(&term) {
            return id;
        }
        let id = TermId(self.by_id.len() as u64);
        self.by_id.push(term.clone());
        self.by_term.insert(term, id);
        self.uid = NEXT_DICT_UID.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Look up the id of a term without interning it.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    /// Look up the term for an id.
    pub fn term_of(&self, id: TermId) -> Option<&Term> {
        self.by_id.get(id.index())
    }

    /// Resolve an id, panicking with a clear message on dangling ids.
    ///
    /// Intended for internal use where ids are known-valid by construction.
    pub fn resolve(&self, id: TermId) -> &Term {
        self.term_of(id)
            .unwrap_or_else(|| panic!("dangling TermId {id}"))
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterate over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u64), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_uid_but_fresh_dictionaries_do_not() {
        let mut d = Dictionary::new();
        d.intern(Term::iri("http://a"));
        assert_eq!(d.clone().uid(), d.uid());
        assert_ne!(Dictionary::new().uid(), d.uid());
        assert_ne!(Dictionary::with_capacity(4).uid(), d.uid());
    }

    #[test]
    fn interning_a_new_term_refreshes_uid_but_reinterning_does_not() {
        let mut d = Dictionary::new();
        let before = d.uid();
        d.intern(Term::iri("http://a"));
        let after_new = d.uid();
        assert_ne!(before, after_new, "new term changes the id space");
        d.intern(Term::iri("http://a"));
        assert_eq!(d.uid(), after_new, "re-interning changes nothing");
        // Diverged clones with equal sizes get distinct uids.
        let (mut c1, mut c2) = (d.clone(), d.clone());
        c1.intern(Term::iri("http://x"));
        c2.intern(Term::iri("http://y"));
        assert_eq!(c1.len(), c2.len());
        assert_ne!(c1.uid(), c2.uid());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::iri("http://a"));
        let b = d.intern(Term::iri("http://a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = (0..100)
            .map(|i| d.intern(Term::iri(format!("http://x/{i}"))))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn roundtrip_term_id_term() {
        let mut d = Dictionary::new();
        let terms = vec![
            Term::iri("http://a"),
            Term::lit("plain"),
            Term::lang_lit("hello", "en"),
            Term::blank("b1"),
        ];
        for t in &terms {
            let id = d.intern(t.clone());
            assert_eq!(d.term_of(id), Some(t));
            assert_eq!(d.id_of(t), Some(id));
        }
    }

    #[test]
    fn distinct_literals_get_distinct_ids() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::lit("x"));
        let b = d.intern(Term::lang_lit("x", "en"));
        let c = d.intern(Term::iri("x"));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.intern(Term::iri("http://1"));
        d.intern(Term::iri("http://2"));
        let collected: Vec<u64> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(collected, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "dangling TermId")]
    fn resolve_panics_on_dangling() {
        let d = Dictionary::new();
        d.resolve(TermId(7));
    }
}
