//! The join graph: relations, features and join edges.

use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Relation identifier (index into the graph's relation list).
pub type RelId = usize;

/// Multiplicity of an edge, read in the direction `a → b`:
/// `ManyToOne` means many `a`-rows join one `b`-row (a is on the fact
/// side), which is the shape of fact→dimension edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Multiplicity {
    OneToOne,
    ManyToOne,
    OneToMany,
    ManyToMany,
}

impl Multiplicity {
    pub fn reversed(self) -> Multiplicity {
        match self {
            Multiplicity::ManyToOne => Multiplicity::OneToMany,
            Multiplicity::OneToMany => Multiplicity::ManyToOne,
            other => other,
        }
    }
}

/// Errors from graph construction/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    DuplicateRelation(String),
    UnknownRelation(String),
    DuplicateFeature(String),
    Disconnected,
    Cyclic,
    SelfEdge(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateRelation(r) => write!(f, "duplicate relation {r}"),
            GraphError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            GraphError::DuplicateFeature(x) => {
                write!(f, "feature {x} appears in more than one relation")
            }
            GraphError::Disconnected => write!(f, "join graph is not connected"),
            GraphError::Cyclic => write!(f, "join graph is cyclic (needs hypertree decomposition)"),
            GraphError::SelfEdge(r) => write!(f, "self edge on {r}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// One relation in the graph.
#[derive(Debug, Clone)]
pub struct Relation {
    pub name: String,
    /// Feature attributes usable as tree splits.
    pub features: Vec<String>,
}

/// One undirected join edge.
#[derive(Debug, Clone)]
pub struct Edge {
    pub a: RelId,
    pub b: RelId,
    pub keys: Vec<String>,
    /// Multiplicity in the `a → b` direction.
    pub multiplicity: Multiplicity,
}

/// A join graph over named relations.
#[derive(Debug, Clone, Default)]
pub struct JoinGraph {
    relations: Vec<Relation>,
    edges: Vec<Edge>,
    by_name: HashMap<String, RelId>,
}

impl JoinGraph {
    pub fn new() -> JoinGraph {
        JoinGraph::default()
    }

    /// Add a relation with its feature attributes.
    pub fn add_relation(&mut self, name: &str, features: &[&str]) -> Result<RelId, GraphError> {
        let key = name.to_ascii_lowercase();
        if self.by_name.contains_key(&key) {
            return Err(GraphError::DuplicateRelation(name.to_string()));
        }
        for f in features {
            if self.relation_of_feature(f).is_some() {
                return Err(GraphError::DuplicateFeature((*f).to_string()));
            }
        }
        let id = self.relations.len();
        self.relations.push(Relation {
            name: name.to_string(),
            features: features.iter().map(|s| s.to_string()).collect(),
        });
        self.by_name.insert(key, id);
        Ok(id)
    }

    /// Add an N-to-1 edge (fact side `a`, dimension side `b`) — the common
    /// snowflake shape.
    pub fn add_edge(&mut self, a: &str, b: &str, keys: &[&str]) -> Result<(), GraphError> {
        self.add_edge_with(a, b, keys, Multiplicity::ManyToOne)
    }

    /// Add an edge with an explicit multiplicity in the `a → b` direction.
    pub fn add_edge_with(
        &mut self,
        a: &str,
        b: &str,
        keys: &[&str],
        multiplicity: Multiplicity,
    ) -> Result<(), GraphError> {
        let ia = self.rel_id(a)?;
        let ib = self.rel_id(b)?;
        if ia == ib {
            return Err(GraphError::SelfEdge(a.to_string()));
        }
        self.edges.push(Edge {
            a: ia,
            b: ib,
            keys: keys.iter().map(|s| s.to_string()).collect(),
            multiplicity,
        });
        Ok(())
    }

    pub fn rel_id(&self, name: &str) -> Result<RelId, GraphError> {
        self.by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| GraphError::UnknownRelation(name.to_string()))
    }

    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id]
    }

    pub fn name(&self, id: RelId) -> &str {
        &self.relations[id].name
    }

    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn relations(&self) -> impl Iterator<Item = (RelId, &Relation)> {
        self.relations.iter().enumerate()
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// All features across relations.
    pub fn all_features(&self) -> Vec<(String, RelId)> {
        let mut out = Vec::new();
        for (id, r) in self.relations.iter().enumerate() {
            for f in &r.features {
                out.push((f.clone(), id));
            }
        }
        out
    }

    /// Which relation holds a feature.
    pub fn relation_of_feature(&self, feature: &str) -> Option<RelId> {
        for (id, r) in self.relations.iter().enumerate() {
            if r.features.iter().any(|f| f.eq_ignore_ascii_case(feature)) {
                return Some(id);
            }
        }
        None
    }

    /// Neighbors of a relation with the connecting edge index.
    pub fn neighbors(&self, id: RelId) -> Vec<(RelId, usize)> {
        let mut out = Vec::new();
        for (ei, e) in self.edges.iter().enumerate() {
            if e.a == id {
                out.push((e.b, ei));
            } else if e.b == id {
                out.push((e.a, ei));
            }
        }
        out
    }

    /// Multiplicity of the edge read in the `from → to` direction.
    pub fn multiplicity(&self, from: RelId, to: RelId) -> Option<Multiplicity> {
        for e in &self.edges {
            if e.a == from && e.b == to {
                return Some(e.multiplicity);
            }
            if e.b == from && e.a == to {
                return Some(e.multiplicity.reversed());
            }
        }
        None
    }

    /// Join keys between two adjacent relations.
    pub fn join_keys(&self, a: RelId, b: RelId) -> Option<&[String]> {
        for e in &self.edges {
            if (e.a == a && e.b == b) || (e.a == b && e.b == a) {
                return Some(&e.keys);
            }
        }
        None
    }

    /// Validate connectivity and acyclicity (message passing needs a tree;
    /// cyclic graphs must be pre-joined via hypertree decomposition first).
    pub fn validate_tree(&self) -> Result<(), GraphError> {
        if self.relations.is_empty() {
            return Ok(());
        }
        if !self.is_connected() {
            return Err(GraphError::Disconnected);
        }
        if self.is_cyclic() {
            return Err(GraphError::Cyclic);
        }
        Ok(())
    }

    pub fn is_connected(&self) -> bool {
        if self.relations.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.relations.len()];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for (v, _) in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.relations.len()
    }

    pub fn is_cyclic(&self) -> bool {
        // A connected graph is a tree iff |E| = |V| - 1; for possibly
        // disconnected graphs use union-find on edges.
        let mut parent: Vec<usize> = (0..self.relations.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for e in &self.edges {
            let (ra, rb) = (find(&mut parent, e.a), find(&mut parent, e.b));
            if ra == rb {
                return true;
            }
            parent[ra] = rb;
        }
        false
    }

    /// Path of relations from `from` to `to` (inclusive) in the join tree.
    pub fn path(&self, from: RelId, to: RelId) -> Option<Vec<RelId>> {
        let n = self.relations.len();
        let mut parent: Vec<Option<RelId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([from]);
        seen[from] = true;
        while let Some(u) = queue.pop_front() {
            if u == to {
                let mut path = vec![to];
                let mut cur = to;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for (v, _) in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// Breadth-first ancestral sampling order from a root: each entry is a
    /// relation plus the join keys shared with its (already sampled)
    /// parent (Section 5.5.2).
    pub fn sampling_order(&self, root: RelId) -> Vec<(RelId, Vec<String>)> {
        let n = self.relations.len();
        let mut out = vec![(root, Vec::new())];
        let mut seen = vec![false; n];
        seen[root] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for (v, _) in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    out.push((v, self.join_keys(u, v).expect("edge").to_vec()));
                    queue.push_back(v);
                }
            }
        }
        out
    }

    /// Is this a snowflake schema rooted at `fact`: every edge, oriented
    /// away from `fact`, is N-to-1 (or 1-to-1)? Then `fact` is 1-1 with
    /// the full join result (Section 4.1).
    pub fn is_snowflake_rooted_at(&self, fact: RelId) -> bool {
        if self.validate_tree().is_err() {
            return false;
        }
        let n = self.relations.len();
        let mut seen = vec![false; n];
        seen[fact] = true;
        let mut queue = VecDeque::from([fact]);
        while let Some(u) = queue.pop_front() {
            for (v, _) in self.neighbors(u) {
                if !seen[v] {
                    match self.multiplicity(u, v) {
                        Some(Multiplicity::ManyToOne) | Some(Multiplicity::OneToOne) => {}
                        _ => return false,
                    }
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        true
    }

    /// The unique snowflake fact table, if one exists.
    pub fn snowflake_fact(&self) -> Option<RelId> {
        (0..self.relations.len()).find(|&r| self.is_snowflake_rooted_at(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The R − S − T chain of paper Figure 1.
    fn chain() -> JoinGraph {
        let mut g = JoinGraph::new();
        g.add_relation("R", &["B"]).unwrap();
        g.add_relation("S", &["C"]).unwrap();
        g.add_relation("T", &["D"]).unwrap();
        g.add_edge_with("R", "S", &["A"], Multiplicity::ManyToMany)
            .unwrap();
        g.add_edge_with("S", "T", &["A"], Multiplicity::ManyToMany)
            .unwrap();
        g
    }

    /// Favorita-like star: sales fact + 5 dims.
    fn star() -> JoinGraph {
        let mut g = JoinGraph::new();
        g.add_relation("sales", &[]).unwrap();
        for (d, f) in [
            ("items", "f_item"),
            ("stores", "f_store"),
            ("trans", "f_trans"),
            ("oil", "f_oil"),
            ("dates", "f_date"),
        ] {
            g.add_relation(d, &[f]).unwrap();
            g.add_edge("sales", d, &[&format!("{d}_id")]).unwrap();
        }
        g
    }

    #[test]
    fn cycle_detection_and_extraction() {
        let mut g = chain();
        assert!(!g.is_cyclic());
        assert!(g.validate_tree().is_ok());
        // Close the cycle like the update relation U does (Figure 2c).
        g.add_relation("U", &[]).unwrap();
        g.add_edge_with("R", "U", &["B"], Multiplicity::ManyToMany)
            .unwrap();
        g.add_edge_with("T", "U", &["D"], Multiplicity::ManyToMany)
            .unwrap();
        assert!(g.is_cyclic());
        assert_eq!(g.validate_tree().unwrap_err(), GraphError::Cyclic);
    }

    #[test]
    fn snowflake_detection() {
        let g = star();
        assert_eq!(g.snowflake_fact(), Some(g.rel_id("sales").unwrap()));
        let g2 = chain(); // M-N everywhere → not a snowflake
        assert_eq!(g2.snowflake_fact(), None);
    }

    #[test]
    fn snowflake_with_chained_dimension() {
        // sales → dates → holidays (N-1 then N-1): still snowflake.
        let mut g = JoinGraph::new();
        g.add_relation("sales", &[]).unwrap();
        g.add_relation("dates", &["weekend"]).unwrap();
        g.add_relation("holidays", &["holiday"]).unwrap();
        g.add_edge("sales", "dates", &["date_id"]).unwrap();
        g.add_edge("dates", "holidays", &["holiday_id"]).unwrap();
        assert_eq!(g.snowflake_fact(), Some(0));
        assert!(!g.is_snowflake_rooted_at(1), "dates sees 1-N toward sales");
    }

    #[test]
    fn feature_lookup_and_duplicates() {
        let g = star();
        assert_eq!(
            g.relation_of_feature("f_oil"),
            Some(g.rel_id("oil").unwrap())
        );
        assert_eq!(g.relation_of_feature("nope"), None);
        let mut g2 = JoinGraph::new();
        g2.add_relation("a", &["x"]).unwrap();
        assert_eq!(
            g2.add_relation("b", &["x"]).unwrap_err(),
            GraphError::DuplicateFeature("x".into())
        );
    }

    #[test]
    fn disconnected_graph_rejected() {
        let mut g = JoinGraph::new();
        g.add_relation("a", &[]).unwrap();
        g.add_relation("b", &[]).unwrap();
        assert_eq!(g.validate_tree().unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn sampling_order_starts_at_root_and_covers_graph() {
        let g = star();
        let order = g.sampling_order(g.rel_id("sales").unwrap());
        assert_eq!(order.len(), 6);
        assert_eq!(order[0].0, g.rel_id("sales").unwrap());
        assert!(order[0].1.is_empty());
        assert!(order[1..].iter().all(|(_, keys)| keys.len() == 1));
    }

    #[test]
    fn path_queries() {
        let g = chain();
        assert_eq!(g.path(0, 2), Some(vec![0, 1, 2]));
        assert_eq!(g.path(2, 2), Some(vec![2]));
    }
}
