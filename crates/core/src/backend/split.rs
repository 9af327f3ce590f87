//! The shard side of the distributed split-evaluation protocol.
//!
//! PR 4's shard-local split evaluation is a coordinator-driven protocol:
//! each shard keeps its per-value aggregates and ships only boundary
//! keys, per-interval boundary-prefix-sum summaries, refinement keys and
//! the candidate intervals' rows. When shards were in-process engines the
//! "shard side" could live in the coordinator's address space; with
//! remote shards it must run *where the data is*, or every split query
//! would pull the full per-value table across the wire and the shuffle
//! reduction would be pure bookkeeping.
//!
//! This module is that shard side, factored so one implementation serves
//! both transports ([`LocalSplitState`]):
//!
//! * the in-process transport holds it directly (same code path as
//!   before, no extra copies),
//! * the wire server holds it per connection and answers the
//!   `Split*` requests from it, so over sockets only the protocol's
//!   messages cross — measurable in `BackendStats::bytes_received`.
//!
//! The coordinator half (grid assembly, convexity/chord bounds, pruning,
//! run-compressed merge) stays in `sharded.rs` and drives shards through
//! the [`SplitHandle`] trait.

use joinboost_engine::{Column, DataType, Datum, EngineError, Table};

use super::BackendResult;

/// How one output column of a fanned-out aggregate merges across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeSpec {
    /// Group key: identifies the row, not merged.
    Key,
    /// Partial sums/counts add (`⊕` of the semi-ring).
    Sum,
    /// Partial minima take the least.
    Min,
    /// Partial maxima take the greatest.
    Max,
}

impl MergeSpec {
    /// Wire tag of this spec.
    pub fn to_tag(self) -> u8 {
        match self {
            MergeSpec::Key => 0,
            MergeSpec::Sum => 1,
            MergeSpec::Min => 2,
            MergeSpec::Max => 3,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<MergeSpec> {
        Some(match tag {
            0 => MergeSpec::Key,
            1 => MergeSpec::Sum,
            2 => MergeSpec::Min,
            3 => MergeSpec::Max,
            _ => return None,
        })
    }
}

/// Accumulator for one aggregate cell. Integer partials stay integers
/// (exact counts); the first float partial promotes the accumulated total
/// exactly (`i64 as f64` is exact for the count magnitudes here).
#[derive(Debug, Clone)]
enum Acc {
    Empty,
    Int(i64),
    Float(f64),
    Best(Datum),
}

impl Acc {
    fn add(&mut self, v: &Datum) {
        match v {
            Datum::Null => {}
            Datum::Int(x) => match self {
                Acc::Empty => *self = Acc::Int(*x),
                Acc::Int(t) => *t += *x,
                Acc::Float(t) => *t += *x as f64,
                Acc::Best(_) => unreachable!("sum into best"),
            },
            Datum::Float(x) => match self {
                Acc::Empty => *self = Acc::Float(*x),
                Acc::Int(t) => *self = Acc::Float(*t as f64 + *x),
                Acc::Float(t) => *t += *x,
                Acc::Best(_) => unreachable!("sum into best"),
            },
            Datum::Str(_) => {}
        }
    }

    fn best(&mut self, v: &Datum, want_max: bool) {
        if v.is_null() {
            return;
        }
        match self {
            Acc::Empty => *self = Acc::Best(v.clone()),
            Acc::Best(cur) => {
                let ord = v.sql_cmp(cur);
                if (want_max && ord == std::cmp::Ordering::Greater)
                    || (!want_max && ord == std::cmp::Ordering::Less)
                {
                    *cur = v.clone();
                }
            }
            _ => unreachable!("best into sum"),
        }
    }

    fn into_datum(self) -> Datum {
        match self {
            Acc::Empty => Datum::Null,
            Acc::Int(v) => Datum::Int(v),
            Acc::Float(v) => Datum::Float(v),
            Acc::Best(d) => d,
        }
    }
}

/// Which columns of the absorbed per-value result play which role in the
/// split protocol, plus how every column merges across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitSpec {
    /// The single group-key column (rows sort by it).
    pub key_col: usize,
    /// First split component (the prefix-count side of the criteria).
    pub c0_col: usize,
    /// Second split component (the prefix-sum side).
    pub c1_col: usize,
    /// Per-column merge behavior, parallel to the result columns.
    pub specs: Vec<MergeSpec>,
}

/// One (shard, interval) boundary summary — the 8-number message that
/// replaces shipping the interval's rows while pruning decisions are
/// made. All values are exact f64 views of the shard's local prefix sums
/// over the interval (used only for *bounds*; exact values travel as
/// [`Datum`]s in [`SplitHandle::fetch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntervalSummary {
    /// Interval sum of component 0 on this shard.
    pub dc: f64,
    /// Interval sum of component 1 on this shard.
    pub ds: f64,
    /// Min/max local prefix value of component 0 reachable in-interval.
    pub min0: f64,
    /// See `min0`.
    pub max0: f64,
    /// Min/max local prefix value of component 1 reachable in-interval.
    pub min1: f64,
    /// See `min1`.
    pub max1: f64,
    /// max |Δs(t) − ρᵢ·Δc(t)| over the interval (ρᵢ = local slope).
    pub maxdev: f64,
    /// max |Δc(t)| over the interval.
    pub maxabsdc: f64,
    /// Rows of this shard inside the interval (the coordinator's
    /// refinement budget and bail-out checks need row mass, not values).
    pub rows: u64,
}

/// One shard's view of a split query: the absorbed per-value aggregates
/// held *where they were computed*, answering the protocol's four
/// questions. Implemented by [`LocalSplitState`] (in-process and inside
/// the wire server) and by the remote client's proxy handle.
pub trait SplitHandle: Send + Sync {
    /// Rows of the absorbed result on this shard.
    fn num_rows(&self) -> usize;

    /// Up to `k` equal-count boundary keys, ascending, the shard's
    /// largest key always included.
    fn boundaries(&self, k: usize) -> BackendResult<Vec<Datum>>;

    /// Per-interval boundary summaries for the ascending subset `changed`
    /// of the grid's interval indices (interval `j` holds keys in
    /// `(grid[j-1], grid[j]]`), in `changed` order. An interval's summary
    /// is a pure function of the absolute row range its bounding keys
    /// enclose, so a caller that caches the previous round's summaries
    /// asks only for intervals whose bounds refinement moved — the rest
    /// are bit-identical by construction.
    fn summaries_delta(
        &self,
        grid: &[Datum],
        changed: &[usize],
    ) -> BackendResult<Vec<IntervalSummary>>;

    /// Summaries of every interval of the grid.
    fn summaries(&self, grid: &[Datum]) -> BackendResult<Vec<IntervalSummary>> {
        self.summaries_delta(grid, &(0..grid.len()).collect::<Vec<_>>())
    }

    /// Equal-count sub-boundary keys inside the given intervals of the
    /// grid; `targets` pairs an interval index with the per-shard key
    /// budget for it.
    fn refine(&self, grid: &[Datum], targets: &[(usize, usize)]) -> BackendResult<Vec<Datum>>;

    /// The shard's contribution to the run-compressed merged table: full
    /// rows (key-ascending) for retained intervals, one compressed
    /// partial row per non-empty pruned interval (interval ⊕-sums for
    /// `Sum` columns, the boundary key's row value for `Min`/`Max`).
    fn fetch(&self, grid: &[Datum], retain: &[bool]) -> BackendResult<Table>;

    /// Consume the handle and return the full absorbed result (the dense
    /// fallback for tiny cardinalities — over the wire this is exactly
    /// the "ship every per-value row" cost the protocol avoids; in
    /// process it is a move, not a copy).
    fn into_all_rows(self: Box<Self>) -> BackendResult<Table>;
}

/// The canonical shard-side state: the absorbed result plus its key
/// order and `f64` prefix sums of the two split components.
pub struct LocalSplitState {
    table: Table,
    spec: SplitSpec,
    /// Row indices sorted ascending by group key.
    order: Vec<u32>,
    /// Sorted group keys (unique within a shard: they come from GROUP BY).
    keys: Vec<Datum>,
    /// Running prefix sums of component 0/1 in key order.
    p0: Vec<f64>,
    p1: Vec<f64>,
}

impl LocalSplitState {
    /// Sort the absorbed result by its key and build the component
    /// prefix sums. `Err` returns the table untouched when a component
    /// is NULL somewhere (the summary bounds could not mirror the exact
    /// merge) — callers then reuse it for the dense path instead of
    /// re-executing the query.
    pub fn build(table: Table, spec: SplitSpec) -> Result<LocalSplitState, Table> {
        let n = table.num_rows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            table.columns[spec.key_col]
                .get(a as usize)
                .sql_cmp(&table.columns[spec.key_col].get(b as usize))
        });
        let keys: Vec<Datum> = order
            .iter()
            .map(|&i| table.columns[spec.key_col].get(i as usize))
            .collect();
        let mut p0 = Vec::with_capacity(n);
        let mut p1 = Vec::with_capacity(n);
        let (mut a0, mut a1) = (0.0f64, 0.0f64);
        for &i in &order {
            let (Some(v0), Some(v1)) = (
                table.columns[spec.c0_col].f64_at(i as usize),
                table.columns[spec.c1_col].f64_at(i as usize),
            ) else {
                return Err(table);
            };
            a0 += v0;
            a1 += v1;
            p0.push(a0);
            p1.push(a1);
        }
        Ok(LocalSplitState {
            table,
            spec,
            order,
            keys,
            p0,
            p1,
        })
    }

    /// The type of the group key, which the keys sent back carry.
    pub fn key_type(&self) -> DataType {
        self.table.columns[self.spec.key_col].dtype()
    }

    /// Interval segmentation: interval `j` holds keys in
    /// `(grid[j-1], grid[j]]`. The grid's maximum must cover every key.
    fn segments(&self, grid: &[Datum]) -> Vec<(usize, usize)> {
        let mut seg = Vec::with_capacity(grid.len());
        let mut t = 0usize;
        for b in grid {
            let start = t;
            while t < self.keys.len() && self.keys[t].sql_cmp(b) != std::cmp::Ordering::Greater {
                t += 1;
            }
            seg.push((start, t));
        }
        debug_assert_eq!(t, self.keys.len(), "keys above the grid maximum");
        seg
    }

    /// The boundary summary of one absolute row range `[start, end)`.
    /// Pure in `(start, end)` — the bit-identity of unchanged intervals
    /// across refinement rounds (and thus the delta protocol) rests on
    /// exactly this.
    fn summary_of(&self, start: usize, end: usize) -> IntervalSummary {
        let at = |p: &[f64], i: usize| if i == 0 { 0.0 } else { p[i - 1] };
        let c_at_start = at(&self.p0, start);
        let s_at_start = at(&self.p1, start);
        let dc = at(&self.p0, end) - c_at_start;
        let ds = at(&self.p1, end) - s_at_start;
        // Local prefix values reachable inside the interval: the
        // value at its start plus every row's value.
        let (mut mn0, mut mx0) = (c_at_start, c_at_start);
        let (mut mn1, mut mx1) = (s_at_start, s_at_start);
        let rho_i = if dc != 0.0 { ds / dc } else { 0.0 };
        let (mut maxdev, mut maxabsdc) = (0.0f64, 0.0f64);
        for t in start..end {
            mn0 = mn0.min(self.p0[t]);
            mx0 = mx0.max(self.p0[t]);
            mn1 = mn1.min(self.p1[t]);
            mx1 = mx1.max(self.p1[t]);
            let a = self.p0[t] - c_at_start;
            let b = self.p1[t] - s_at_start;
            maxdev = maxdev.max((b - rho_i * a).abs());
            maxabsdc = maxabsdc.max(a.abs());
        }
        IntervalSummary {
            dc,
            ds,
            min0: mn0,
            max0: mx0,
            min1: mn1,
            max1: mx1,
            maxdev,
            maxabsdc,
            rows: (end - start) as u64,
        }
    }
}

impl SplitHandle for LocalSplitState {
    fn num_rows(&self) -> usize {
        self.keys.len()
    }

    fn boundaries(&self, k: usize) -> BackendResult<Vec<Datum>> {
        let n = self.keys.len();
        let k = k.max(2);
        let mut out = Vec::new();
        let mut last = usize::MAX;
        for j in 1..=k {
            let pos = (n * j).div_ceil(k).saturating_sub(1);
            if n == 0 || pos == last {
                continue;
            }
            last = pos;
            out.push(self.keys[pos].clone());
        }
        Ok(out)
    }

    fn summaries(&self, grid: &[Datum]) -> BackendResult<Vec<IntervalSummary>> {
        let seg = self.segments(grid);
        Ok(seg
            .iter()
            .map(|&(start, end)| self.summary_of(start, end))
            .collect())
    }

    fn summaries_delta(
        &self,
        grid: &[Datum],
        changed: &[usize],
    ) -> BackendResult<Vec<IntervalSummary>> {
        let seg = self.segments(grid);
        changed
            .iter()
            .map(|&j| {
                seg.get(j)
                    .map(|&(start, end)| self.summary_of(start, end))
                    .ok_or_else(|| {
                        EngineError::Other(format!(
                            "split delta: interval {j} out of range ({} intervals)",
                            seg.len()
                        ))
                    })
            })
            .collect()
    }

    fn refine(&self, grid: &[Datum], targets: &[(usize, usize)]) -> BackendResult<Vec<Datum>> {
        let seg = self.segments(grid);
        let mut out = Vec::new();
        for &(j, per_target) in targets {
            let (start, end) = seg[j];
            let span = end - start;
            if span < 2 {
                continue;
            }
            let per = per_target.max(1).min(span - 1);
            let mut last = usize::MAX;
            for t in 1..=per {
                let pos = start + (span * t).div_ceil(per + 1).saturating_sub(1);
                if pos + 1 >= end || pos == last {
                    continue;
                }
                last = pos;
                out.push(self.keys[pos].clone());
            }
        }
        Ok(out)
    }

    fn fetch(&self, grid: &[Datum], retain: &[bool]) -> BackendResult<Table> {
        let seg = self.segments(grid);
        let specs = &self.spec.specs;
        let ncols = specs.len();
        let mut cols: Vec<Vec<Datum>> = vec![Vec::new(); ncols];
        for (j, &(start, end)) in seg.iter().enumerate() {
            if retain[j] {
                // Candidate interval: every row ships, key-ascending.
                for t in start..end {
                    let row = self.order[t] as usize;
                    for (ci, col) in cols.iter_mut().enumerate() {
                        col.push(self.table.columns[ci].get(row));
                    }
                }
            } else {
                if start == end {
                    continue; // nothing of this interval on this shard
                }
                // Pruned interval: one compressed partial row standing at
                // the boundary key — interval ⊕-sums for Sum columns, the
                // boundary key's row value for Min/Max.
                for (ci, spec) in specs.iter().enumerate() {
                    let datum = match spec {
                        MergeSpec::Key => grid[j].clone(),
                        MergeSpec::Sum => {
                            let mut acc = Acc::Empty;
                            for t in start..end {
                                acc.add(&self.table.columns[ci].get(self.order[t] as usize));
                            }
                            acc.into_datum()
                        }
                        MergeSpec::Min | MergeSpec::Max => {
                            let mut acc = Acc::Empty;
                            if let Ok(t) = self.keys.binary_search_by(|k| k.sql_cmp(&grid[j])) {
                                acc.best(
                                    &self.table.columns[ci].get(self.order[t] as usize),
                                    *spec == MergeSpec::Max,
                                );
                            }
                            acc.into_datum()
                        }
                    };
                    cols[ci].push(datum);
                }
            }
        }
        let mut out = Table::new();
        for ((meta, col), vals) in self.table.meta.iter().zip(&self.table.columns).zip(&cols) {
            out.push_column(meta.clone(), Column::from_datums(col.dtype(), vals)?);
        }
        Ok(out)
    }

    fn into_all_rows(self: Box<Self>) -> BackendResult<Table> {
        Ok(self.table)
    }
}

// ---------------------------------------------------------------------------
// Wire views: the protocol's messages as tables (reusing the columnar
// codec for bit-exactness and framing).
// ---------------------------------------------------------------------------

/// A key list as a 1-column table of the group-by key's type, which lets
/// the keys ride in a single [`Column`].
pub fn keys_to_table(key_type: DataType, keys: &[Datum]) -> BackendResult<Table> {
    let mut t = Table::new();
    t.push_column(
        joinboost_engine::table::ColumnMeta::new("k"),
        Column::from_datums(key_type, keys)?,
    );
    Ok(t)
}

/// Decode a 1-column key table.
pub fn keys_from_table(t: &Table) -> Vec<Datum> {
    match t.columns.first() {
        Some(c) => (0..t.num_rows()).map(|i| c.get(i)).collect(),
        None => Vec::new(),
    }
}

/// Interval summaries as a table: eight float columns plus the integer
/// row count.
pub fn summaries_to_table(rows: &[IntervalSummary]) -> Table {
    type FieldGet = fn(&IntervalSummary) -> f64;
    let cols: [(&str, FieldGet); 8] = [
        ("dc", |s| s.dc),
        ("ds", |s| s.ds),
        ("min0", |s| s.min0),
        ("max0", |s| s.max0),
        ("min1", |s| s.min1),
        ("max1", |s| s.max1),
        ("maxdev", |s| s.maxdev),
        ("maxabsdc", |s| s.maxabsdc),
    ];
    let mut t = Table::new();
    for (name, get) in cols {
        t.push_column(
            joinboost_engine::table::ColumnMeta::new(name),
            Column::float(rows.iter().map(get).collect()),
        );
    }
    t.push_column(
        joinboost_engine::table::ColumnMeta::new("rows"),
        Column::int(rows.iter().map(|s| s.rows as i64).collect()),
    );
    t
}

/// Decode a summary table produced by [`summaries_to_table`].
pub fn summaries_from_table(t: &Table) -> Option<Vec<IntervalSummary>> {
    if t.num_columns() != 9 {
        return None;
    }
    let f = |c: usize, i: usize| t.columns[c].f64_at(i);
    (0..t.num_rows())
        .map(|i| {
            Some(IntervalSummary {
                dc: f(0, i)?,
                ds: f(1, i)?,
                min0: f(2, i)?,
                max0: f(3, i)?,
                min1: f(4, i)?,
                max1: f(5, i)?,
                maxdev: f(6, i)?,
                maxabsdc: f(7, i)?,
                rows: match t.columns[8].get(i) {
                    Datum::Int(v) if v >= 0 => v as u64,
                    _ => return None,
                },
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Coordinator-side delta bookkeeping
// ---------------------------------------------------------------------------

/// Map each interval of a refined grid back to the old-grid interval it
/// is *identical* to, or `None` when it must be re-summarized. Interval
/// `j` of a grid holds keys in `(grid[j-1], grid[j]]` (open start before
/// index 0), so new interval `j` equals old interval `oi` exactly when
/// both bounding keys match — refinement only inserts keys, it never
/// moves or removes them, but the map is correct for arbitrary ascending
/// grids. Two-pointer walk, `O(|old| + |new|)`.
pub fn interval_delta_map(old: &[Datum], new: &[Datum]) -> Vec<Option<usize>> {
    use std::cmp::Ordering;
    let mut map = Vec::with_capacity(new.len());
    let mut oi = 0usize;
    for (j, nk) in new.iter().enumerate() {
        while oi < old.len() && old[oi].sql_cmp(nk) == Ordering::Less {
            oi += 1;
        }
        let upper = oi < old.len() && old[oi].sql_cmp(nk) == Ordering::Equal;
        let lower = if j == 0 {
            oi == 0
        } else {
            oi > 0 && old[oi - 1].sql_cmp(&new[j - 1]) == Ordering::Equal
        };
        map.push(if upper && lower { Some(oi) } else { None });
    }
    map
}

/// Rebuild the full summary vector of the new grid from the cached old
/// summaries plus the shard's delta reply (`changed` rows in ascending
/// interval order, as produced against [`interval_delta_map`]). Returns
/// `None` when the pieces don't fit — a malformed delta reply must
/// surface as a typed error at the call site, never a panic.
pub fn reconstruct_summaries(
    old: &[IntervalSummary],
    map: &[Option<usize>],
    changed: &[IntervalSummary],
) -> Option<Vec<IntervalSummary>> {
    let mut fresh = changed.iter();
    let mut out = Vec::with_capacity(map.len());
    for slot in map {
        out.push(match slot {
            Some(oi) => *old.get(*oi)?,
            None => *fresh.next()?,
        });
    }
    // A reply carrying extra rows is as malformed as one carrying too few.
    if fresh.next().is_some() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> LocalSplitState {
        // Keys deliberately unsorted in storage order.
        let t = Table::from_columns(vec![
            ("val", Column::int(vec![30, 10, 20, 40])),
            ("c", Column::int(vec![1, 1, 1, 1])),
            ("s", Column::float(vec![3.0, 1.0, 2.0, 4.0])),
        ]);
        LocalSplitState::build(
            t,
            SplitSpec {
                key_col: 0,
                c0_col: 1,
                c1_col: 2,
                specs: vec![MergeSpec::Key, MergeSpec::Sum, MergeSpec::Sum],
            },
        )
        .unwrap_or_else(|_| panic!("no NULL components"))
    }

    #[test]
    fn boundaries_are_equal_count_and_cover_the_max() {
        let st = state();
        let b = st.boundaries(2).unwrap();
        assert_eq!(b, vec![Datum::Int(20), Datum::Int(40)]);
        assert_eq!(st.num_rows(), 4);
    }

    #[test]
    fn summaries_carry_exact_interval_sums() {
        let st = state();
        let grid = vec![Datum::Int(20), Datum::Int(40)];
        let s = st.summaries(&grid).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].dc, s[0].ds), (2.0, 3.0)); // keys 10, 20
        assert_eq!((s[1].dc, s[1].ds), (2.0, 7.0)); // keys 30, 40
        let rt = summaries_from_table(&summaries_to_table(&s)).unwrap();
        assert_eq!(rt, s);
    }

    #[test]
    fn fetch_compresses_pruned_intervals_to_boundary_partials() {
        let st = state();
        let grid = vec![Datum::Int(20), Datum::Int(40)];
        let t = st.fetch(&grid, &[false, true]).unwrap();
        // Pruned interval 0 → one partial row at key 20 holding the run
        // sums; retained interval 1 → both rows.
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.columns[0].get(0), Datum::Int(20));
        assert_eq!(t.columns[1].get(0), Datum::Int(2));
        assert_eq!(t.columns[2].get(0), Datum::Float(3.0));
        assert_eq!(t.columns[0].get(1), Datum::Int(30));
        assert_eq!(t.columns[0].get(2), Datum::Int(40));
    }

    #[test]
    fn null_components_refuse_to_build_and_return_the_table() {
        let t = Table::from_columns(vec![
            ("val", Column::int(vec![1, 2])),
            (
                "c",
                Column::from_datums(DataType::Int, &[Datum::Int(1), Datum::Null]).unwrap(),
            ),
            ("s", Column::float(vec![1.0, 2.0])),
        ]);
        let back = LocalSplitState::build(
            t.clone(),
            SplitSpec {
                key_col: 0,
                c0_col: 1,
                c1_col: 2,
                specs: vec![MergeSpec::Key, MergeSpec::Sum, MergeSpec::Sum],
            },
        )
        .map(|_| ())
        .expect_err("NULL component must refuse the protocol");
        // The dense fallback reuses the executed result — no re-run.
        assert_eq!(back, t);
    }

    #[test]
    fn delta_summaries_match_full_summaries_bit_exactly() {
        let st = state();
        let old_grid = vec![Datum::Int(20), Datum::Int(40)];
        let new_grid = vec![
            Datum::Int(10),
            Datum::Int(20),
            Datum::Int(30),
            Datum::Int(40),
        ];
        let map = interval_delta_map(&old_grid, &new_grid);
        // Only interval (−∞,10], (10,20] split off old interval 0; (20,30]
        // and (30,40] split old interval 1 — every new interval changed
        // except none (all bounds moved), so the map is all-None except
        // where both bounds survive.
        assert_eq!(map, vec![None, None, None, None]);
        // Refine only below 20: intervals above keep both bounds.
        let new_grid = vec![Datum::Int(10), Datum::Int(20), Datum::Int(40)];
        let map = interval_delta_map(&old_grid, &new_grid);
        assert_eq!(map, vec![None, None, Some(1)]);
        let changed: Vec<usize> = map
            .iter()
            .enumerate()
            .filter_map(|(j, m)| m.is_none().then_some(j))
            .collect();
        let old_sums = st.summaries(&old_grid).unwrap();
        let delta = st.summaries_delta(&new_grid, &changed).unwrap();
        let rebuilt = reconstruct_summaries(&old_sums, &map, &delta).unwrap();
        assert_eq!(rebuilt, st.summaries(&new_grid).unwrap());
    }

    #[test]
    fn malformed_delta_replies_are_rejected_not_panics() {
        let st = state();
        let grid = vec![Datum::Int(20), Datum::Int(40)];
        // Out-of-range interval index → typed error.
        assert!(st.summaries_delta(&grid, &[5]).is_err());
        let sums = st.summaries(&grid).unwrap();
        // Too few / too many delta rows → None.
        assert!(reconstruct_summaries(&sums, &[None, None], &sums[..1]).is_none());
        assert!(reconstruct_summaries(&sums, &[Some(0)], &sums[..1]).is_none());
        // Stale cache shorter than the map demands → None.
        assert!(reconstruct_summaries(&sums[..1], &[Some(1)], &[]).is_none());
    }

    #[test]
    fn key_tables_roundtrip() {
        for (key_type, keys) in [
            (
                DataType::Int,
                vec![Datum::Int(1), Datum::Int(5), Datum::Null],
            ),
            (
                DataType::Str,
                vec![Datum::Str("a".into()), Datum::Str("b".into())],
            ),
            (
                DataType::Float,
                vec![Datum::Float(0.5), Datum::Float(-1.25)],
            ),
        ] {
            let t = keys_to_table(key_type, &keys).unwrap();
            assert_eq!(
                (t.columns[0].dtype(), keys_from_table(&t)),
                (key_type, keys)
            );
        }
        // No keys, or only NULLs: still the key's type.
        let t = keys_to_table(DataType::Int, &[Datum::Null]).unwrap();
        assert_eq!(t.columns[0].dtype(), DataType::Int);
        assert!(keys_from_table(&Table::new()).is_empty());
    }
}
