use std::fmt;

use tsexplain_relation::Dictionary;

/// Index of an explanation within its [`crate::ExplanationCube`].
pub type ExplId = u32;

/// A candidate explanation: a conjunction of equality predicates over the
/// explain-by attributes (Definition 3.1), stored compactly as
/// `(attr index, dictionary code)` pairs sorted by attribute index.
///
/// The attribute index refers to the cube's explain-by attribute list; the
/// code refers to that attribute's dictionary.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Explanation {
    preds: Vec<(u16, u32)>,
}

impl Explanation {
    /// Builds an explanation from `(attr, code)` pairs; sorts them by
    /// attribute index.
    ///
    /// # Panics
    /// Panics (debug) if the same attribute appears twice — a conjunction
    /// `A=a & A=b` is either redundant or empty and never enumerated.
    pub fn new(mut preds: Vec<(u16, u32)>) -> Self {
        preds.sort_unstable();
        debug_assert!(
            preds.windows(2).all(|w| w[0].0 != w[1].0),
            "explanations must not repeat an attribute"
        );
        Explanation { preds }
    }

    /// The `(attr, code)` pairs, sorted by attribute index.
    pub fn preds(&self) -> &[(u16, u32)] {
        &self.preds
    }

    /// The order β of the explanation (Definition 3.1).
    pub fn order(&self) -> usize {
        self.preds.len()
    }

    /// True if `attr` is constrained by this explanation.
    pub fn constrains(&self, attr: u16) -> bool {
        self.preds.binary_search_by_key(&attr, |p| p.0).is_ok()
    }

    /// The code this explanation requires for `attr`, if constrained.
    pub fn code_for(&self, attr: u16) -> Option<u32> {
        self.preds
            .binary_search_by_key(&attr, |p| p.0)
            .ok()
            .map(|i| self.preds[i].1)
    }

    /// The explanation with the predicate on `attr` removed (the drill-down
    /// parent along `attr`). Returns `None` if `attr` is unconstrained.
    pub fn without(&self, attr: u16) -> Option<Explanation> {
        let idx = self.preds.binary_search_by_key(&attr, |p| p.0).ok()?;
        let mut preds = self.preds.clone();
        preds.remove(idx);
        Some(Explanation { preds })
    }

    /// The explanation refined with `attr = code`.
    pub fn with(&self, attr: u16, code: u32) -> Explanation {
        let mut preds = self.preds.clone();
        preds.push((attr, code));
        Explanation::new(preds)
    }

    /// Two explanations are *non-overlapping* (Definition 3.4) when no
    /// relation can contain a row satisfying both, i.e. when they constrain
    /// some shared attribute to different values.
    ///
    /// Conversely they *overlap* when their predicates are compatible:
    /// every shared attribute is constrained to the same value (e.g.
    /// `state=WA` overlaps `state=WA & age=50+`).
    pub fn overlaps(&self, other: &Explanation) -> bool {
        // Merge-walk the sorted predicate lists.
        let (mut i, mut j) = (0, 0);
        while i < self.preds.len() && j < other.preds.len() {
            let (a, ca) = self.preds[i];
            let (b, cb) = other.preds[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if ca != cb {
                        return false;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// Renders the explanation with attribute names and decoded values,
    /// e.g. `"state=NY"` or `"BV=1750 & P=6"`.
    pub fn describe(&self, attr_names: &[String], dicts: &[Dictionary]) -> String {
        if self.preds.is_empty() {
            return "TRUE".to_string();
        }
        let mut out = String::new();
        for (i, &(attr, code)) in self.preds.iter().enumerate() {
            if i > 0 {
                out.push_str(" & ");
            }
            let name = &attr_names[attr as usize];
            let value = dicts[attr as usize].value(code);
            out.push_str(&format!("{name}={value}"));
        }
        out
    }
}

impl std::borrow::Borrow<[(u16, u32)]> for Explanation {
    /// Explanations hash and compare exactly like their sorted predicate
    /// slices (the derived impls delegate to the inner `Vec`), so a
    /// `HashMap<Explanation, _>` can be probed with a borrowed scratch
    /// slice — no per-lookup allocation.
    fn borrow(&self) -> &[(u16, u32)] {
        &self.preds
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.preds.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, (attr, code)) in self.preds.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "A{attr}=#{code}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_relation::AttrValue;

    #[test]
    fn preds_are_sorted() {
        let e = Explanation::new(vec![(2, 5), (0, 1)]);
        assert_eq!(e.preds(), &[(0, 1), (2, 5)]);
        assert_eq!(e.order(), 2);
    }

    #[test]
    fn without_removes_one_attr() {
        let e = Explanation::new(vec![(0, 1), (2, 5)]);
        assert_eq!(e.without(2).unwrap(), Explanation::new(vec![(0, 1)]));
        assert_eq!(e.without(1), None);
    }

    #[test]
    fn with_adds_pred() {
        let e = Explanation::new(vec![(1, 3)]);
        assert_eq!(e.with(0, 7), Explanation::new(vec![(0, 7), (1, 3)]));
    }

    #[test]
    fn overlap_same_attr_diff_value_disjoint() {
        let ny = Explanation::new(vec![(0, 1)]);
        let ca = Explanation::new(vec![(0, 2)]);
        assert!(!ny.overlaps(&ca));
    }

    #[test]
    fn overlap_refinement_overlaps() {
        let wa = Explanation::new(vec![(0, 1)]);
        let wa_old = Explanation::new(vec![(0, 1), (1, 9)]);
        assert!(wa.overlaps(&wa_old));
        assert!(wa_old.overlaps(&wa));
    }

    #[test]
    fn overlap_disjoint_attrs_overlap() {
        // state=NY and pack=12 can both hold for one row.
        let a = Explanation::new(vec![(0, 1)]);
        let b = Explanation::new(vec![(1, 4)]);
        assert!(a.overlaps(&b));
    }

    #[test]
    fn code_lookup() {
        let e = Explanation::new(vec![(0, 1), (3, 9)]);
        assert!(e.constrains(3));
        assert!(!e.constrains(2));
        assert_eq!(e.code_for(3), Some(9));
        assert_eq!(e.code_for(2), None);
    }

    #[test]
    fn describe_with_dicts() {
        let names = vec!["state".to_string(), "pack".to_string()];
        let dicts = vec![
            Dictionary::from_values(["CA", "NY"].map(AttrValue::from)),
            Dictionary::from_values([6i64, 12].map(AttrValue::from)),
        ];
        let e = Explanation::new(vec![(0, 1), (1, 1)]);
        assert_eq!(e.describe(&names, &dicts), "state=NY & pack=12");
        let empty = Explanation::new(vec![]);
        assert_eq!(empty.describe(&names, &dicts), "TRUE");
    }
}
