//! The drill-down trie (Fig. 8): per node its refinements grouped by
//! attribute, and per explanation its parents as one CSR table. Both are
//! resolved through the cube's one lookup index when the cube is
//! assembled.

use std::collections::HashMap;

use crate::explanation::{ExplId, Explanation};

/// A node of the drill-down trie: either a concrete explanation or the
/// virtual root (the unconstrained data slice).
pub type NodeId = u32;

/// The virtual root node (order-0 "TRUE" explanation).
pub const ROOT_NODE: NodeId = u32::MAX;

/// The drill-down trie over candidate explanations (paper Fig. 8).
///
/// `children(node)` yields, per attribute not constrained by `node`, the
/// explanations that refine `node` with one predicate on that attribute.
/// The Cascading Analysts algorithm walks this structure: at each node it
/// either takes the node as an explanation or picks **one** attribute to
/// drill into and distributes its quota among that attribute's children —
/// which is exactly what keeps the selected explanations non-overlapping.
///
/// The same edges are also kept upward, as a CSR table:
/// `parents(e)[j]` is `e`'s drill-down parent along its `j`-th predicate's
/// attribute. Walking them closes a set of explanations under ancestors
/// without probing the cube's index for every predicate subset, which is
/// how guess-and-verify builds its restriction each round.
#[derive(Clone, Debug)]
pub struct DrillTrie {
    /// `groups[slot]` lists `(attr, children)` pairs, sorted by attr.
    /// Slot `n_expl` is the root.
    groups: Vec<Vec<(u16, Vec<ExplId>)>>,
    /// Explanation `e`'s parents are `parents[parent_start[e]..parent_start[e + 1]]`,
    /// one per predicate, in predicate (attribute) order; an order-1
    /// explanation's only parent is [`ROOT_NODE`].
    parent_start: Vec<u32>,
    parents: Vec<NodeId>,
    n_expl: usize,
}

impl DrillTrie {
    /// Builds the trie for a candidate set, resolving parents through the
    /// cube's lookup `index` (every explanation to its id).
    ///
    /// Every order-β explanation is attached, for each of its β attributes,
    /// under its order-(β−1) parent along that attribute. Parents always
    /// exist: an explanation is only enumerated when witnessed by a row, and
    /// any row witnessing a child also witnesses all of its ancestors.
    pub fn build(explanations: &[Explanation], index: &HashMap<Explanation, ExplId>) -> Self {
        let n_expl = explanations.len();
        let mut groups: Vec<Vec<(u16, Vec<ExplId>)>> = vec![Vec::new(); n_expl + 1];
        let mut parent_start = Vec::with_capacity(n_expl + 1);
        let mut parents = Vec::new();
        let mut scratch: Vec<(u16, u32)> = Vec::new();
        for (id, e) in explanations.iter().enumerate() {
            parent_start.push(parents.len() as u32);
            let preds = e.preds();
            for (j, &(attr, _)) in preds.iter().enumerate() {
                let parent = if preds.len() == 1 {
                    ROOT_NODE // order-1 explanations hang off the root
                } else {
                    // The predicates without the j-th stay sorted, so the
                    // scratch slice probes the index directly.
                    scratch.clear();
                    scratch.extend_from_slice(&preds[..j]);
                    scratch.extend_from_slice(&preds[j + 1..]);
                    *index
                        .get(scratch.as_slice())
                        .expect("drill-down parent must be enumerated")
                };
                parents.push(parent);
                let slot = if parent == ROOT_NODE {
                    n_expl
                } else {
                    parent as usize
                };
                let group = &mut groups[slot];
                match group.binary_search_by_key(&attr, |g| g.0) {
                    Ok(pos) => group[pos].1.push(id as ExplId),
                    Err(pos) => group.insert(pos, (attr, vec![id as ExplId])),
                }
            }
        }
        parent_start.push(parents.len() as u32);
        DrillTrie {
            groups,
            parent_start,
            parents,
            n_expl,
        }
    }

    fn slot(&self, node: NodeId) -> usize {
        if node == ROOT_NODE {
            self.n_expl
        } else {
            node as usize
        }
    }

    /// The drill-down groups of `node`: one `(attr, children)` entry per
    /// attribute that has at least one refinement, sorted by attr.
    pub fn children(&self, node: NodeId) -> &[(u16, Vec<ExplId>)] {
        &self.groups[self.slot(node)]
    }

    /// The drill-down parents of explanation `e`, one per predicate in
    /// predicate order: entry `j` is `e` without its `j`-th predicate
    /// ([`ROOT_NODE`] for an order-1 explanation).
    pub fn parents(&self, e: ExplId) -> &[NodeId] {
        let e = e as usize;
        &self.parents[self.parent_start[e] as usize..self.parent_start[e + 1] as usize]
    }

    /// True when `node` has no refinements (a leaf of the trie).
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// Number of concrete explanations the trie is built over.
    pub fn n_explanations(&self) -> usize {
        self.n_expl
    }

    /// Total number of `(parent, child)` edges, counting one edge per
    /// (parent, attr, child) triple.
    pub fn n_edges(&self) -> usize {
        self.parents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidates over two attributes A0 ∈ {0,1}, A1 ∈ {0,1}, all orders.
    fn two_attr_candidates() -> Vec<Explanation> {
        let mut v = Vec::new();
        for c in 0..2 {
            v.push(Explanation::new(vec![(0, c)]));
        }
        for c in 0..2 {
            v.push(Explanation::new(vec![(1, c)]));
        }
        for c0 in 0..2 {
            for c1 in 0..2 {
                v.push(Explanation::new(vec![(0, c0), (1, c1)]));
            }
        }
        v
    }

    fn trie_of(cands: &[Explanation]) -> DrillTrie {
        let index = cands
            .iter()
            .enumerate()
            .map(|(i, e)| (e.clone(), i as ExplId))
            .collect();
        DrillTrie::build(cands, &index)
    }

    #[test]
    fn root_children_grouped_by_attr() {
        let cands = two_attr_candidates();
        let trie = trie_of(&cands);
        let groups = trie.children(ROOT_NODE);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, 1);
        assert_eq!(groups[1].1.len(), 2);
    }

    #[test]
    fn order2_nodes_attach_under_both_parents() {
        let cands = two_attr_candidates();
        let trie = trie_of(&cands);
        // (A0=0) is id 0; its children along attr 1 are (A0=0 & A1=*).
        let groups = trie.children(0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, 1);
        let kids: Vec<_> = groups[0].1.iter().map(|&k| &cands[k as usize]).collect();
        assert!(kids.iter().all(|e| e.code_for(0) == Some(0)));
        assert_eq!(kids.len(), 2);
        // (A1=0) is id 2; children along attr 0.
        let groups = trie.children(2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[0].1.len(), 2);
    }

    #[test]
    fn leaves_have_no_children() {
        let cands = two_attr_candidates();
        let trie = trie_of(&cands);
        // Order-2 explanations are leaves here.
        for (id, e) in cands.iter().enumerate() {
            assert_eq!(trie.is_leaf(id as NodeId), e.order() == 2);
        }
    }

    #[test]
    fn edge_count_matches_order_sum() {
        let cands = two_attr_candidates();
        let trie = trie_of(&cands);
        let expected: usize = cands.iter().map(|e| e.order()).sum();
        assert_eq!(trie.n_edges(), expected);
    }

    #[test]
    fn parents_mirror_the_children_edges() {
        let cands = two_attr_candidates();
        let trie = trie_of(&cands);
        for (id, e) in cands.iter().enumerate() {
            let parents = trie.parents(id as ExplId);
            assert_eq!(parents.len(), e.order());
            for (&parent, &(attr, _)) in parents.iter().zip(e.preds()) {
                let group = trie
                    .children(parent)
                    .iter()
                    .find(|(a, _)| *a == attr)
                    .expect("parent has a group on the dropped attr");
                assert!(group.1.contains(&(id as ExplId)));
                if e.order() == 1 {
                    assert_eq!(parent, ROOT_NODE);
                } else {
                    assert_eq!(Some(&cands[parent as usize]), e.without(attr).as_ref());
                }
            }
        }
    }
}
