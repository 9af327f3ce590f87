//! Clustered Predicate Trees (CPT) for galaxy schemas (Section 4.2.2).
//!
//! Galaxy schemas have multiple fact tables with M-N relationships; update
//! relations would accumulate cycles over boosting iterations. CPT
//! clusters the relations so that, within a cluster, a single local fact
//! table holds N-to-1 paths to every other member — leaf predicates can
//! then be rewritten as semi-joins against that fact table and residual
//! updates stay cycle-free. During training the root split may use any
//! feature; subsequent splits of the same tree are confined to the chosen
//! cluster (paper Example 5 / Figure 3).

use crate::graph::{JoinGraph, Multiplicity, RelId};

/// One CPT cluster: a local fact table plus all members reachable from it
/// over N-to-1 (or 1-to-1) edges without passing through another fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    pub fact: RelId,
    /// All members, including the fact itself.
    pub members: Vec<RelId>,
}

impl Cluster {
    pub fn contains(&self, rel: RelId) -> bool {
        self.members.contains(&rel)
    }

    /// Features available inside this cluster.
    pub fn features(&self, graph: &JoinGraph) -> Vec<String> {
        let mut out = Vec::new();
        for &m in &self.members {
            out.extend(graph.relation(m).features.iter().cloned());
        }
        out
    }
}

/// Is `rel` a *local fact*: never on the `1` side of any incident edge?
/// (Every neighbor sees it as N-to-1 or M-to-N from `rel`'s perspective.)
fn is_local_fact(graph: &JoinGraph, rel: RelId) -> bool {
    let neighbors = graph.neighbors(rel);
    if neighbors.is_empty() {
        return true;
    }
    neighbors.iter().all(|&(other, _)| {
        matches!(
            graph.multiplicity(rel, other),
            Some(Multiplicity::ManyToOne)
                | Some(Multiplicity::ManyToMany)
                | Some(Multiplicity::OneToOne)
        )
    })
}

/// Compute the CPT clusters of a join graph. For a snowflake schema this
/// returns a single cluster covering everything; for a galaxy schema one
/// cluster per local fact table. Dimensions shared between facts appear
/// in multiple clusters (e.g. `Person` in both the `Cast Info` and
/// `Person Info` clusters of IMDB).
pub fn clusters(graph: &JoinGraph) -> Vec<Cluster> {
    let mut out = Vec::new();
    for (rel, _) in graph.relations() {
        if !is_local_fact(graph, rel) {
            continue;
        }
        // Grow the cluster over N-to-1 edges away from the fact.
        let mut members = vec![rel];
        let mut queue = vec![rel];
        while let Some(u) = queue.pop() {
            for (v, _) in graph.neighbors(u) {
                if members.contains(&v) {
                    continue;
                }
                if matches!(
                    graph.multiplicity(u, v),
                    Some(Multiplicity::ManyToOne) | Some(Multiplicity::OneToOne)
                ) {
                    members.push(v);
                    queue.push(v);
                }
            }
        }
        members.sort_unstable();
        out.push(Cluster { fact: rel, members });
    }
    // Deduplicate identical clusters (can happen with 1-1 edges).
    out.dedup_by(|a, b| a.members == b.members);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::JoinGraph;

    /// A miniature IMDB-like galaxy: two fact tables (cast_info,
    /// person_info) sharing the person dimension, plus movie under
    /// cast_info.
    fn galaxy() -> JoinGraph {
        let mut g = JoinGraph::new();
        g.add_relation("cast_info", &["role"]).unwrap();
        g.add_relation("person_info", &["age"]).unwrap();
        g.add_relation("person", &["gender"]).unwrap();
        g.add_relation("movie", &["year"]).unwrap();
        g.add_edge("cast_info", "person", &["person_id"]).unwrap();
        g.add_edge("cast_info", "movie", &["movie_id"]).unwrap();
        g.add_edge("person_info", "person", &["person_id"]).unwrap();
        g
    }

    #[test]
    fn galaxy_has_two_clusters_sharing_person() {
        let g = galaxy();
        let cs = clusters(&g);
        assert_eq!(cs.len(), 2);
        let cast = cs
            .iter()
            .find(|c| c.fact == g.rel_id("cast_info").unwrap())
            .unwrap();
        let pinfo = cs
            .iter()
            .find(|c| c.fact == g.rel_id("person_info").unwrap())
            .unwrap();
        let person = g.rel_id("person").unwrap();
        assert!(cast.contains(person));
        assert!(pinfo.contains(person));
        assert!(cast.contains(g.rel_id("movie").unwrap()));
        assert!(!pinfo.contains(g.rel_id("movie").unwrap()));
    }

    #[test]
    fn snowflake_is_one_cluster() {
        let mut g = JoinGraph::new();
        g.add_relation("sales", &[]).unwrap();
        g.add_relation("items", &["f_item"]).unwrap();
        g.add_relation("stores", &["f_store"]).unwrap();
        g.add_edge("sales", "items", &["item_id"]).unwrap();
        g.add_edge("sales", "stores", &["store_id"]).unwrap();
        let cs = clusters(&g);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].fact, g.rel_id("sales").unwrap());
        assert_eq!(cs[0].members.len(), 3);
    }

    #[test]
    fn cluster_features_and_lookup() {
        let g = galaxy();
        let cs = clusters(&g);
        let pinfo = g.rel_id("person_info").unwrap();
        let c = cs.iter().find(|c| c.contains(pinfo)).unwrap();
        assert_eq!(c.fact, pinfo);
        let mut feats = c.features(&g);
        feats.sort();
        assert_eq!(feats, vec!["age".to_string(), "gender".to_string()]);
    }
}
