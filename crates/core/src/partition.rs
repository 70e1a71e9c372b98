//! Binary space partitioning for BSP-EGO (Gobert et al., HPCS 2020).
//!
//! The unit cube is kept split into a fixed number of leaf cells. Each
//! cycle runs one local acquisition per leaf (in parallel), then the
//! partition *evolves*: the leaf holding the best acquisition value is
//! split further (intensification where the model sees promise) while
//! the least valuable sibling pair is merged back (so the leaf count —
//! and the parallel load balance — stays constant, and the partition
//! always covers the whole domain).

use pbo_opt::Bounds;

/// Node of the BSP tree.
#[derive(Debug, Clone)]
struct Node {
    bounds: Bounds,
    parent: Option<usize>,
    children: Option<(usize, usize)>,
    /// Set when the node is merged away (kept in the arena for index
    /// stability but excluded from traversals).
    dead: bool,
}

/// The partition tree.
#[derive(Debug, Clone)]
pub struct BspTree {
    nodes: Vec<Node>,
}

impl BspTree {
    /// Build a partition of `bounds` with exactly `n_leaves` leaves by
    /// repeated splitting of the widest cell.
    pub fn new(bounds: Bounds, n_leaves: usize) -> Self {
        assert!(n_leaves >= 1);
        let mut tree =
            BspTree { nodes: vec![Node { bounds, parent: None, children: None, dead: false }] };
        while tree.leaves().len() < n_leaves {
            // Split the leaf with the largest volume proxy (sum of log
            // widths ≈ log volume) for an even initial partition.
            let leaves = tree.leaves();
            let widest = leaves
                .into_iter()
                .max_by(|&a, &b| {
                    let va: f64 =
                        tree.nodes[a].bounds.widths().iter().map(|w| w.max(1e-300).ln()).sum();
                    let vb: f64 =
                        tree.nodes[b].bounds.widths().iter().map(|w| w.max(1e-300).ln()).sum();
                    va.total_cmp(&vb)
                })
                .expect("tree has leaves");
            tree.split(widest);
        }
        tree
    }

    /// Indices of the current leaf cells.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].dead && self.nodes[i].children.is_none())
            .collect()
    }

    /// The box of a node.
    pub fn bounds_of(&self, i: usize) -> &Bounds {
        &self.nodes[i].bounds
    }

    /// Split a leaf along its widest dimension at the midpoint. Returns
    /// the two child indices.
    pub fn split(&mut self, leaf: usize) -> (usize, usize) {
        assert!(self.nodes[leaf].children.is_none(), "can only split leaves");
        let b = self.nodes[leaf].bounds.clone();
        let widths = b.widths();
        let dim = pbo_linalg::vec_ops::argmax(&widths).expect("non-empty bounds");
        let mid = 0.5 * (b.lo()[dim] + b.hi()[dim]);
        let mut lo_hi = b.hi().to_vec();
        lo_hi[dim] = mid;
        let mut hi_lo = b.lo().to_vec();
        hi_lo[dim] = mid;
        let left = Node {
            bounds: Bounds::new(b.lo().to_vec(), lo_hi),
            parent: Some(leaf),
            children: None,
            dead: false,
        };
        let right = Node {
            bounds: Bounds::new(hi_lo, b.hi().to_vec()),
            parent: Some(leaf),
            children: None,
            dead: false,
        };
        let li = self.nodes.len();
        self.nodes.push(left);
        let ri = self.nodes.len();
        self.nodes.push(right);
        self.nodes[leaf].children = Some((li, ri));
        (li, ri)
    }

    /// Merge a node whose two children are both leaves: the node becomes
    /// a leaf again. Returns true on success.
    pub fn merge(&mut self, parent: usize) -> bool {
        let Some((a, b)) = self.nodes[parent].children else {
            return false;
        };
        if self.nodes[a].children.is_some() || self.nodes[b].children.is_some() {
            return false;
        }
        self.nodes[parent].children = None;
        // Children stay in the arena (index stability) but are dead.
        self.nodes[a].dead = true;
        self.nodes[b].dead = true;
        true
    }

    /// Evolve the partition after a cycle: split the leaf with the best
    /// (largest) acquisition score; merge the mergeable sibling pair
    /// with the worst combined score so the leaf count stays constant.
    /// `scores[k]` corresponds to `leaves[k]`.
    pub fn evolve(&mut self, leaves: &[usize], scores: &[f64]) {
        assert_eq!(leaves.len(), scores.len());
        if leaves.len() < 2 {
            return;
        }
        let best_k = pbo_linalg::vec_ops::argmax(scores).expect("non-empty scores");
        let best_leaf = leaves[best_k];

        // Candidate merges: parents whose both children are current
        // leaves, excluding the best leaf's parent (splitting then
        // merging the same region would be a no-op).
        let score_of = |leaf: usize| -> f64 {
            leaves.iter().position(|&l| l == leaf).map_or(f64::NEG_INFINITY, |k| scores[k])
        };
        let mut merge_choice: Option<(usize, f64)> = None;
        for &leaf in leaves {
            let Some(p) = self.nodes[leaf].parent else { continue };
            let Some((a, b)) = self.nodes[p].children else { continue };
            if self.nodes[a].children.is_some() || self.nodes[b].children.is_some() {
                continue;
            }
            if a == best_leaf || b == best_leaf {
                continue;
            }
            let pair_score = score_of(a).max(score_of(b));
            if merge_choice.is_none_or(|(_, s)| pair_score < s) {
                merge_choice = Some((p, pair_score));
            }
        }
        if let Some((p, _)) = merge_choice {
            if self.merge(p) {
                self.split(best_leaf);
            }
        }
        // If no merge is possible the partition stays as is this cycle.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn volume(b: &Bounds) -> f64 {
        b.widths().iter().product()
    }

    #[test]
    fn initial_partition_counts_and_covers() {
        for n in [1usize, 2, 4, 8, 16] {
            let t = BspTree::new(Bounds::unit(3), n);
            let leaves = t.leaves();
            assert_eq!(leaves.len(), n);
            let total: f64 = leaves.iter().map(|&l| volume(t.bounds_of(l))).sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n}: total volume {total}");
        }
    }

    #[test]
    fn split_halves_a_cell() {
        let mut t = BspTree::new(Bounds::unit(2), 1);
        let (a, b) = t.split(0);
        assert!((volume(t.bounds_of(a)) - 0.5).abs() < 1e-12);
        assert!((volume(t.bounds_of(b)) - 0.5).abs() < 1e-12);
        assert_eq!(t.leaves().len(), 2);
    }

    #[test]
    fn merge_restores_parent() {
        let mut t = BspTree::new(Bounds::unit(2), 1);
        t.split(0);
        assert!(t.merge(0));
        let leaves = t.leaves();
        assert_eq!(leaves, vec![0]);
    }

    #[test]
    fn evolve_keeps_leaf_count_and_coverage() {
        let mut t = BspTree::new(Bounds::unit(2), 8);
        for round in 0..20 {
            let leaves = t.leaves();
            // Fake scores: prefer cells near the origin corner.
            let scores: Vec<f64> = leaves
                .iter()
                .map(|&l| {
                    let b = t.bounds_of(l);
                    -(b.center().iter().map(|c| c * c).sum::<f64>())
                })
                .collect();
            t.evolve(&leaves, &scores);
            let leaves = t.leaves();
            assert_eq!(leaves.len(), 8, "round {round}");
            let total: f64 = leaves.iter().map(|&l| volume(t.bounds_of(l))).sum();
            assert!((total - 1.0).abs() < 1e-9, "round {round}: coverage {total}");
        }
        // After repeated evolution the smallest cell should be near the
        // favored corner and much smaller than the largest.
        let leaves = t.leaves();
        let smallest = leaves
            .iter()
            .min_by(|&&a, &&b| volume(t.bounds_of(a)).total_cmp(&volume(t.bounds_of(b))))
            .copied()
            .unwrap();
        let c = t.bounds_of(smallest).center();
        assert!(c.iter().all(|&v| v < 0.6), "intensified cell center {c:?}");
    }

    #[test]
    fn evolve_with_single_leaf_is_noop() {
        let mut t = BspTree::new(Bounds::unit(2), 1);
        t.evolve(&t.leaves(), &[1.0]);
        assert_eq!(t.leaves().len(), 1);
    }
}
