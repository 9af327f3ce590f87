//! Tree model structures (the objects `train()` returns).

use joinboost_engine::Datum;

/// A split value: numeric threshold or categorical constant.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitCondition {
    /// `feature <= v` goes left, `feature > v` goes right.
    LtEq(f64),
    /// `feature = v` goes left, `feature <> v` goes right (numeric
    /// categorical codes — strings are dictionary-encoded upstream).
    EqNum(f64),
    /// `feature = v` for string categoricals.
    EqStr(String),
}

/// A decision tree split.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Name of the feature column being split on.
    pub feature: String,
    /// The relation holding the feature (for predicate pushdown).
    pub relation: String,
    /// The split condition (left-branch test).
    pub cond: SplitCondition,
    /// Where rows with a missing feature value go (Appendix D.2).
    pub default_left: bool,
}

impl Split {
    /// Does a feature value satisfy the (left-branch) condition?
    pub fn goes_left(&self, value: Option<&Datum>) -> bool {
        match value {
            None | Some(Datum::Null) => self.default_left,
            Some(v) => match &self.cond {
                SplitCondition::LtEq(t) => v.as_f64().is_some_and(|x| x <= *t),
                SplitCondition::EqNum(t) => v.as_f64().is_some_and(|x| x == *t),
                SplitCondition::EqStr(s) => v.as_str().is_some_and(|x| x == s),
            },
        }
    }

    /// Render as a SQL predicate string (for display / signatures).
    pub fn to_sql(&self, negated: bool) -> String {
        match (&self.cond, negated) {
            (SplitCondition::LtEq(v), false) => format!("{} <= {v}", self.feature),
            (SplitCondition::LtEq(v), true) => format!("{} > {v}", self.feature),
            (SplitCondition::EqNum(v), false) => format!("{} = {v}", self.feature),
            (SplitCondition::EqNum(v), true) => format!("{} <> {v}", self.feature),
            (SplitCondition::EqStr(v), false) => format!("{} = '{v}'", self.feature),
            (SplitCondition::EqStr(v), true) => format!("{} <> '{v}'", self.feature),
        }
    }
}

/// One node of a trained tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// `None` for leaves.
    pub split: Option<Split>,
    /// Left child index (into [`Tree::nodes`]); meaningful only when
    /// `split` is `Some`.
    pub left: usize,
    /// Right child index; meaningful only when `split` is `Some`.
    pub right: usize,
    /// Leaf prediction value (defined on leaves; internal nodes carry the
    /// value they would predict if pruned here).
    pub value: f64,
    /// Weighted row count (C for variance trees, H for gradient trees).
    pub weight: f64,
    /// Depth of this node (root = 0).
    pub depth: usize,
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tree {
    /// Node 0 is the root.
    pub nodes: Vec<TreeNode>,
}

/// Read access to one example's feature values during prediction.
pub trait FeatureRow {
    /// The example's value for the named feature (`None` = missing).
    fn feature(&self, name: &str) -> Option<Datum>;
}

impl FeatureRow for std::collections::HashMap<String, Datum> {
    fn feature(&self, name: &str) -> Option<Datum> {
        self.get(name).cloned()
    }
}

impl Tree {
    /// A tree with one leaf (the constant predictor).
    pub fn single_leaf(value: f64, weight: f64) -> Tree {
        Tree {
            nodes: vec![TreeNode {
                split: None,
                left: 0,
                right: 0,
                value,
                weight,
                depth: 0,
            }],
        }
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.split.is_none()).count()
    }

    /// Depth of the deepest node (a single leaf has depth 0).
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Score one example: the single entry point for applying a tree to
    /// a feature row (alias of [`Tree::predict`], the name the ensemble
    /// `score` methods build on).
    pub fn score(&self, row: &dyn FeatureRow) -> f64 {
        self.predict(row)
    }

    /// Predict the raw value for one example.
    pub fn predict(&self, row: &dyn FeatureRow) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut i = 0;
        loop {
            let node = &self.nodes[i];
            match &node.split {
                None => return node.value,
                Some(split) => {
                    let v = row.feature(&split.feature);
                    i = if split.goes_left(v.as_ref()) {
                        node.left
                    } else {
                        node.right
                    };
                }
            }
        }
    }

    /// Leaves in order, each with the conjunction of predicates along its
    /// path (used to build residual-update statements).
    pub fn leaves_with_paths(&self) -> Vec<(usize, Vec<(Split, bool)>)> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let mut stack: Vec<(usize, Vec<(Split, bool)>)> = vec![(0, Vec::new())];
        while let Some((i, path)) = stack.pop() {
            let node = &self.nodes[i];
            match &node.split {
                None => out.push((i, path)),
                Some(split) => {
                    let mut left_path = path.clone();
                    left_path.push((split.clone(), false));
                    let mut right_path = path;
                    right_path.push((split.clone(), true));
                    stack.push((node.right, right_path));
                    stack.push((node.left, left_path));
                }
            }
        }
        out
    }

    /// Human-readable dump (similar to LightGBM's `dump_model` text form).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_node(0, 0, &mut out);
        out
    }

    fn dump_node(&self, i: usize, indent: usize, out: &mut String) {
        if self.nodes.is_empty() {
            return;
        }
        let node = &self.nodes[i];
        let pad = "  ".repeat(indent);
        match &node.split {
            None => out.push_str(&format!(
                "{pad}leaf: value={:.6} weight={}\n",
                node.value, node.weight
            )),
            Some(s) => {
                out.push_str(&format!("{pad}if {} [{}]\n", s.to_sql(false), s.relation));
                self.dump_node(node.left, indent + 1, out);
                out.push_str(&format!("{pad}else\n"));
                self.dump_node(node.right, indent + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn two_level_tree() -> Tree {
        // if d <= 1 → 2.5 else (if c = 1 → 1.5 else 2.0)  (paper Fig 2a)
        Tree {
            nodes: vec![
                TreeNode {
                    split: Some(Split {
                        feature: "d".into(),
                        relation: "t".into(),
                        cond: SplitCondition::LtEq(1.0),
                        default_left: false,
                    }),
                    left: 1,
                    right: 2,
                    value: 2.0,
                    weight: 8.0,
                    depth: 0,
                },
                TreeNode {
                    split: None,
                    left: 0,
                    right: 0,
                    value: 2.5,
                    weight: 2.0,
                    depth: 1,
                },
                TreeNode {
                    split: Some(Split {
                        feature: "c".into(),
                        relation: "s".into(),
                        cond: SplitCondition::LtEq(1.0),
                        default_left: false,
                    }),
                    left: 3,
                    right: 4,
                    value: 1.75,
                    weight: 6.0,
                    depth: 1,
                },
                TreeNode {
                    split: None,
                    left: 0,
                    right: 0,
                    value: 1.5,
                    weight: 3.0,
                    depth: 2,
                },
                TreeNode {
                    split: None,
                    left: 0,
                    right: 0,
                    value: 2.0,
                    weight: 3.0,
                    depth: 2,
                },
            ],
        }
    }

    fn row(pairs: &[(&str, f64)]) -> HashMap<String, Datum> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Datum::Float(*v)))
            .collect()
    }

    #[test]
    fn predicts_by_path() {
        let t = two_level_tree();
        assert_eq!(t.predict(&row(&[("d", 1.0), ("c", 2.0)])), 2.5);
        assert_eq!(t.predict(&row(&[("d", 2.0), ("c", 1.0)])), 1.5);
        assert_eq!(t.predict(&row(&[("d", 2.0), ("c", 2.0)])), 2.0);
    }

    #[test]
    fn missing_values_follow_default() {
        let t = two_level_tree();
        // d missing, default_left = false → right subtree; c=1 → 1.5.
        assert_eq!(t.predict(&row(&[("c", 1.0)])), 1.5);
    }

    #[test]
    fn leaf_paths_are_mutually_exclusive_and_exhaustive() {
        let t = two_level_tree();
        let leaves = t.leaves_with_paths();
        assert_eq!(leaves.len(), 3);
        // Every leaf has the path length equal to its depth.
        for (i, path) in &leaves {
            assert_eq!(path.len(), t.nodes[*i].depth);
        }
        // The first leaf (d <= 1) has a single non-negated predicate.
        let (_, p0) = leaves.iter().find(|(i, _)| *i == 1).unwrap().clone();
        assert_eq!(p0.len(), 1);
        assert!(!p0[0].1);
    }

    #[test]
    fn counts_and_dump() {
        let t = two_level_tree();
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.max_depth(), 2);
        let d = t.dump();
        assert!(d.contains("if d <= 1"));
        assert!(d.contains("leaf: value=2.500000"));
    }

    #[test]
    fn split_sql_rendering() {
        let s = Split {
            feature: "f".into(),
            relation: "r".into(),
            cond: SplitCondition::EqStr("x".into()),
            default_left: false,
        };
        assert_eq!(s.to_sql(false), "f = 'x'");
        assert_eq!(s.to_sql(true), "f <> 'x'");
    }
}
