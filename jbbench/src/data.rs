//! Seeded inputs. Everything a workload feeds the program comes from
//! here and is a pure function of `--seed`: the two star schemas, and the
//! key batches the predict clients send.

use joinboost_datagen::{favorita, FavoritaConfig};
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, Table};
use joinboost_graph::JoinGraph;

/// A star schema ready to load: tables in load order, the join graph,
/// and where the target and the predict key live.
pub struct Star {
    pub tables: Vec<(String, Table)>,
    pub graph: JoinGraph,
    pub fact: &'static str,
    pub target: &'static str,
    /// Unique integer key of the fact table (predict key; shard key).
    pub key: &'static str,
}

impl Star {
    /// Bytes of user data: the raw columnar size of what gets loaded.
    pub fn user_bytes(&self) -> u64 {
        self.tables.iter().map(|(_, t)| t.byte_size() as u64).sum()
    }

    /// The fact table, as generated.
    pub fn fact_table(&self) -> &Table {
        &self
            .tables
            .iter()
            .find(|(n, _)| n == self.fact)
            .expect("a star has its fact table")
            .1
    }

    pub fn fact_rows(&self) -> usize {
        self.fact_table().num_rows()
    }
}

/// SplitMix64: the seeded stream behind the high-cardinality star and
/// the predict keys.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The Favorita star of `mem_star`, `paged_star` and `serve_batch`: five
/// 100-row dimensions with two features each, noise 100, the target
/// quantised to the 1/8 grid so every backend sums the same dyadic
/// rationals, and a `sale_id` predict key on the fact table.
pub fn favorita_star(fact_rows: usize, seed: u64) -> Star {
    let gen = favorita(&FavoritaConfig {
        fact_rows,
        dim_rows: 100,
        extra_features_per_dim: 1,
        noise: 100.0,
        seed,
    });
    let mut tables = gen.tables;
    let (_, sales) = tables
        .iter_mut()
        .find(|(n, _)| n == "sales")
        .expect("the generator makes a sales table");
    let y = sales
        .resolve(None, "net_profit")
        .expect("sales has the target");
    let quantised: Vec<f64> = sales.columns[y]
        .as_f64_slice()
        .expect("the target is a float column without NULLs")
        .iter()
        .map(|v| (v * 8.0).floor() / 8.0)
        .collect();
    sales.columns[y] = Column::float(quantised);
    let n = sales.num_rows() as i64;
    sales.push_column(ColumnMeta::new("sale_id"), Column::int((0..n).collect()));
    Star {
        tables,
        graph: gen.graph,
        fact: "sales",
        target: "net_profit",
        key: "sale_id",
    }
}

/// The star of `remote_highcard`: the `highcard_star` shape of the
/// `experiments` sweeps — one fact-resident numeric feature `f` with
/// `card` distinct values, one 100-row dimension with a 50-value feature
/// — with the row order of `f` and the noise drawn from `seed`. Targets
/// sit on the 1/8 grid.
pub fn highcard_star(rows: usize, card: i64, seed: u64) -> Star {
    const DIM_ROWS: i64 = 100;
    let mut rng = SplitMix(seed);
    let offset = rng.below(card as u64) as i64;
    let (mut f, mut d, mut y) = (
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
    );
    for i in 0..rows as i64 {
        let fi = (i * 7919 + offset) % card;
        let di = rng.below(DIM_ROWS as u64) as i64;
        let noise = rng.below(97) as f64;
        f.push(fi);
        d.push(di);
        y.push(fi as f64 / 8.0 + (di % 10) as f64 * 4.0 + noise / 8.0);
    }
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows as i64).collect())),
        ("d_id", Column::int(d)),
        ("f", Column::int(f)),
        ("y", Column::float(y)),
    ]);
    let dim = Table::from_columns(vec![
        ("d_id", Column::int((0..DIM_ROWS).collect())),
        (
            "f_d",
            Column::int((0..DIM_ROWS).map(|d| (d * 13) % 50).collect()),
        ),
    ]);
    let mut graph = JoinGraph::new();
    graph.add_relation("fact", &["f"]).expect("fresh graph");
    graph.add_relation("dim", &["f_d"]).expect("fresh graph");
    graph
        .add_edge("fact", "dim", &["d_id"])
        .expect("both relations exist");
    Star {
        tables: vec![("fact".into(), fact), ("dim".into(), dim)],
        graph,
        fact: "fact",
        target: "y",
        key: "k",
    }
}

/// Keys per predict call.
pub const BATCH: usize = 64;

/// An endless seeded stream of predict batches over `0..rows`; about one
/// key in a hundred is drawn from beyond the table, so the "no such key"
/// path of the scorer runs too.
pub struct KeyStream {
    rng: SplitMix,
    rows: u64,
}

impl KeyStream {
    /// Stream number `client` of the run with this `seed`.
    pub fn new(seed: u64, client: u64, rows: usize) -> KeyStream {
        KeyStream {
            rng: SplitMix(seed ^ (client + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
            rows: rows as u64,
        }
    }

    pub fn next_batch(&mut self) -> Vec<i64> {
        (0..BATCH)
            .map(|_| {
                if self.rng.below(100) == 0 {
                    (self.rows + self.rng.below(self.rows)) as i64
                } else {
                    self.rng.below(self.rows) as i64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (favorita_star(500, 7), favorita_star(500, 7));
        assert_eq!(a.tables, b.tables);
        assert_ne!(a.tables, favorita_star(500, 8).tables);
        let (a, b) = (highcard_star(500, 50, 7), highcard_star(500, 50, 7));
        assert_eq!(a.tables, b.tables);
        assert_ne!(a.tables, highcard_star(500, 50, 8).tables);
        assert_eq!(
            KeyStream::new(7, 0, 500).next_batch(),
            KeyStream::new(7, 0, 500).next_batch()
        );
        assert_ne!(
            KeyStream::new(7, 0, 500).next_batch(),
            KeyStream::new(7, 1, 500).next_batch()
        );
    }

    #[test]
    fn favorita_target_is_on_the_eighth_grid_and_keyed() {
        let star = favorita_star(300, 42);
        let sales = &star.tables.iter().find(|(n, _)| n == "sales").unwrap().1;
        let y = sales.column(None, "net_profit").unwrap();
        for v in y.as_f64_slice().unwrap() {
            assert_eq!((v * 8.0).fract(), 0.0);
        }
        assert_eq!(
            sales
                .column(None, "sale_id")
                .unwrap()
                .as_i64_slice()
                .unwrap(),
            (0..300).collect::<Vec<i64>>()
        );
        assert_eq!(star.graph.all_features().len(), 10);
        assert!(star.user_bytes() > 300 * 7 * 8);
    }

    #[test]
    fn highcard_has_the_stated_cardinality() {
        let star = highcard_star(4000, 400, 3);
        let f = star.tables[0].1.column(None, "f").unwrap();
        let distinct: std::collections::HashSet<i64> =
            f.as_i64_slice().unwrap().iter().copied().collect();
        assert_eq!(distinct.len(), 400);
        assert_eq!(star.fact_rows(), 4000);
    }

    #[test]
    fn some_predict_keys_are_absent() {
        let mut s = KeyStream::new(1, 0, 1000);
        let keys: Vec<i64> = (0..200).flat_map(|_| s.next_batch()).collect();
        let absent = keys.iter().filter(|&&k| k >= 1000).count();
        assert!(absent > 0 && absent < keys.len() / 20, "{absent}");
    }
}
