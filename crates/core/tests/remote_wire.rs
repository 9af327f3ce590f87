//! The remote backend's wire protocol, attacked from three sides:
//!
//! * **proptests** — arbitrary tables (every `DataType`, NULL masks,
//!   empty tables, 0-column results, NaN payloads, `-0.0`) survive
//!   encode → decode *bit-exactly*, and arbitrary emitted statement text
//!   survives the wire unchanged;
//! * **live sockets** — a real in-process [`WireServer`] answers a
//!   [`RemoteBackend`] client with the same bits a local engine produces;
//! * **concurrency** — two clients share one server and train at the same
//!   time without cross-talk, and their temp tables are gone afterwards
//!   (the temp-table lifecycle half of the trait contract).

use std::sync::Arc;

use proptest::prelude::*;

use joinboost::backend::split::{
    interval_delta_map, keys_from_table, keys_to_table, reconstruct_summaries,
    summaries_from_table, summaries_to_table, IntervalSummary,
};
use joinboost::backend::wire::{
    decode_request, decode_response, decode_table_bytes, encode_request, encode_response,
    encode_table_bytes, read_frame, write_frame, Request, Response, MAGIC, VERSION,
};
use joinboost::backend::{RemoteBackend, ShardTransport, SqlBackend, WireServer};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_engine::column::ColumnData;
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::Datum;
use joinboost_engine::{Column, DataType, Database, EngineError, Table};
use joinboost_sql::ast::{
    BinaryOp, Expr, OrderByItem, Query, SelectItem, Statement, TableRef, Value,
};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Raw column data of every type. Floats come from raw bit patterns, so
/// NaN payloads, infinities, subnormals and `-0.0` are all exercised;
/// string dictionaries may hold duplicates and unreferenced entries —
/// the codec must carry whatever the engine might hand it.
fn arb_column(rows: usize) -> impl Strategy<Value = Column> {
    let data = prop_oneof![
        prop::collection::vec(any::<i64>(), rows).prop_map(|v| ColumnData::Int(v.into())),
        prop::collection::vec(any::<u64>(), rows).prop_map(|v| {
            ColumnData::Float(Arc::new(v.into_iter().map(f64::from_bits).collect()))
        }),
        (
            prop::collection::vec("[a-z]{0,4}", 1..4),
            prop::collection::vec(any::<u32>(), rows)
        )
            .prop_map(|(dict, codes)| {
                let n = dict.len() as u32;
                ColumnData::Str {
                    dict: dict.into(),
                    codes: Arc::new(codes.into_iter().map(|c| c % n).collect()),
                }
            }),
    ];
    (
        data,
        prop::option::of(prop::collection::vec(any::<bool>(), rows)),
    )
        .prop_map(|(data, validity)| Column {
            data,
            validity: validity.map(Arc::new),
        })
}

/// Arbitrary tables: 0–3 columns (0-column results included), 0–20 rows,
/// occasionally qualified column names.
fn arb_table() -> impl Strategy<Value = Table> {
    (0usize..21).prop_flat_map(|rows| {
        (prop::collection::vec(
            (
                "[a-z][a-z0-9_]{0,5}",
                prop::option::of("[a-z]{1,4}"),
                arb_column(rows),
            ),
            0..4,
        ),)
            .prop_map(|(cols,)| {
                let mut t = Table::new();
                for (name, qualifier, col) in cols {
                    let meta = match qualifier {
                        None => ColumnMeta::new(name),
                        Some(q) => ColumnMeta::qualified(q, name),
                    };
                    t.push_column(meta, col);
                }
                t
            })
    })
}

/// Identifier strategy avoiding SQL reserved words.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,5}".prop_filter("not a keyword", |s| {
        joinboost_sql::parse_expr(s)
            .map(|e| matches!(e, Expr::Column { .. }))
            .unwrap_or(false)
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..1000).prop_map(|v| Expr::Literal(Value::Int(v))),
        (0.0f64..100.0).prop_map(|v| Expr::Literal(Value::Float((v * 64.0).round() / 64.0))),
        ident().prop_map(Expr::col),
        (ident(), ident()).prop_map(|(t, c)| Expr::qcol(t, c)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinaryOp::Add),
                    Just(BinaryOp::Sub),
                    Just(BinaryOp::Mul),
                    Just(BinaryOp::Div),
                    Just(BinaryOp::Lt),
                    Just(BinaryOp::And),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
            inner.clone().prop_map(Expr::neg),
            inner.clone().prop_map(|e| Expr::func("SUM", vec![e])),
            inner.prop_map(|e| Expr::func("ABS", vec![e])),
        ]
    })
}

/// The statement shapes the trainer emits: SELECTs (aggregates, windows,
/// ordering), CREATE TABLE AS, UPDATE and DROP.
fn arb_statement() -> impl Strategy<Value = Statement> {
    let query = (
        prop::collection::vec((arb_expr(), prop::option::of(ident())), 1..4),
        prop::option::of(ident()),
        prop::option::of(arb_expr()),
        prop::option::of((arb_expr(), any::<bool>())),
        prop::option::of(0u64..100),
    )
        .prop_map(|(items, from, where_clause, order, limit)| Query {
            items: items
                .into_iter()
                .map(|(expr, alias)| SelectItem { expr, alias })
                .collect(),
            from: from.map(TableRef::named),
            joins: Vec::new(),
            where_clause,
            group_by: Vec::new(),
            order_by: order
                .map(|(expr, desc)| vec![OrderByItem { expr, desc }])
                .unwrap_or_default(),
            limit,
        })
        .boxed();
    prop_oneof![
        query.clone().prop_map(Statement::Select),
        (ident(), query.clone(), any::<bool>()).prop_map(|(name, query, or_replace)| {
            Statement::CreateTableAs {
                name,
                query,
                or_replace,
            }
        }),
        (ident(), ident(), arb_expr(), prop::option::of(arb_expr())).prop_map(
            |(table, col, val, where_clause)| Statement::Update {
                table,
                assignments: vec![(col, val)],
                where_clause,
            }
        ),
        (ident(), any::<bool>())
            .prop_map(|(name, if_exists)| Statement::DropTable { name, if_exists }),
    ]
}

// ---------------------------------------------------------------------------
// Proptests: the codec itself
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tables survive the columnar codec bit-exactly: re-encoding the
    /// decoded table reproduces the original bytes (value comparison
    /// would be blind to NaN payloads and `-0.0`).
    #[test]
    fn wire_roundtrip_tables(t in arb_table()) {
        let bytes = encode_table_bytes(&t);
        let back = decode_table_bytes(&bytes).expect("decode");
        prop_assert_eq!(encode_table_bytes(&back), bytes);
        prop_assert_eq!(back.num_columns(), t.num_columns());
        prop_assert_eq!(back.num_rows(), t.num_rows());
        prop_assert_eq!(&back.meta, &t.meta);
    }

    /// The same table inside a CreateTable request frame.
    #[test]
    fn wire_roundtrip_create_table_requests(t in arb_table(), name in ident()) {
        let req = Request::CreateTable { name, table: t };
        let enc = encode_request(&req);
        let back = decode_request(&enc).expect("decode");
        prop_assert_eq!(encode_request(&back), enc);
    }

    /// Arbitrary emitted statement text survives the wire unchanged —
    /// byte for byte, so the server re-parses exactly what the client's
    /// planner printed.
    #[test]
    fn wire_roundtrip_statement_text(stmt in arb_statement()) {
        let sql = stmt.to_string();
        let req = Request::Execute { sql: sql.clone() };
        match decode_request(&encode_request(&req)).expect("decode") {
            Request::Execute { sql: back } => prop_assert_eq!(back, sql),
            other => prop_assert!(false, "wrong request decoded: {:?}", other),
        }
    }

    /// Result tables inside response frames (the server → client leg).
    #[test]
    fn wire_roundtrip_table_responses(t in arb_table()) {
        let resp = Response::Table(t);
        let enc = encode_response(&resp);
        let back = decode_response(&enc).expect("decode");
        prop_assert_eq!(encode_response(&back), enc);
    }
}

// ---------------------------------------------------------------------------
// Proptests: the delta-encoded split wire
// ---------------------------------------------------------------------------

/// Deterministic bit-pattern generator (splitmix64): summaries whose
/// fields cover the whole `f64` bit space — NaN payloads, infinities,
/// subnormals — so "reconstructs bit-exactly" means exactly that.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn summary_from_seed(seed: u64) -> IntervalSummary {
    let mut s = seed;
    let mut next = || {
        s = mix64(s);
        s
    };
    IntervalSummary {
        dc: f64::from_bits(next()),
        ds: f64::from_bits(next()),
        min0: f64::from_bits(next()),
        max0: f64::from_bits(next()),
        min1: f64::from_bits(next()),
        max1: f64::from_bits(next()),
        maxdev: f64::from_bits(next()),
        maxabsdc: f64::from_bits(next()),
        rows: next() >> 1,
    }
}

fn assert_summaries_bit_eq(a: &[IntervalSummary], b: &[IntervalSummary]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let bits = |s: &IntervalSummary| {
            [
                s.dc.to_bits(),
                s.ds.to_bits(),
                s.min0.to_bits(),
                s.max0.to_bits(),
                s.min1.to_bits(),
                s.max1.to_bits(),
                s.maxdev.to_bits(),
                s.maxabsdc.to_bits(),
                s.rows,
            ]
        };
        assert_eq!(bits(x), bits(y), "summary {i} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The coordinator's delta cache round-trips through the real wire
    /// frames bit-exactly: an arbitrary cached summary table, an
    /// arbitrary grid refinement, the shard's changed-rows-only reply
    /// shipped as wire tables — reconstruction over the cache reproduces
    /// the full new summary vector bit for bit, and replies of the wrong
    /// shape are rejected (`None`), never mis-assembled.
    #[test]
    fn split_delta_frames_reconstruct_summaries_bit_exactly(
        old_raw in prop::collection::vec(any::<i32>(), 1..12),
        extra in prop::collection::vec(any::<i32>(), 0..8),
        seed in any::<u64>(),
    ) {
        // Ascending deduped grids; the new grid refines the old one (the
        // map is defined for arbitrary ascending grids, but refinement —
        // keys only inserted — is what the protocol ships).
        let mut old: Vec<i64> = old_raw.iter().map(|&k| k as i64).collect();
        old.sort_unstable();
        old.dedup();
        let mut newg: Vec<i64> = old.clone();
        newg.extend(extra.iter().map(|&k| k as i64));
        newg.sort_unstable();
        newg.dedup();
        let old_grid: Vec<Datum> = old.iter().map(|&k| Datum::Int(k)).collect();
        let new_grid: Vec<Datum> = newg.iter().map(|&k| Datum::Int(k)).collect();
        let old_summ: Vec<IntervalSummary> = (0..old_grid.len())
            .map(|j| summary_from_seed(seed ^ j as u64))
            .collect();

        let map = interval_delta_map(&old_grid, &new_grid);
        prop_assert_eq!(map.len(), new_grid.len());
        // Purity of summaries: an interval whose bounds survived carries
        // the cached value; a subdivided one gets a fresh value.
        let full: Vec<IntervalSummary> = map
            .iter()
            .enumerate()
            .map(|(j, slot)| match slot {
                Some(oi) => old_summ[*oi],
                None => summary_from_seed(seed ^ 0xdead_beef ^ ((j as u64) << 32)),
            })
            .collect();
        let changed_idx: Vec<u32> = map
            .iter()
            .enumerate()
            .filter_map(|(j, s)| s.is_none().then_some(j as u32))
            .collect();
        let changed: Vec<IntervalSummary> =
            changed_idx.iter().map(|&j| full[j as usize]).collect();

        // Request leg: the summaries frame carries the grid and the
        // changed indices unmangled — as a list, and as the "every
        // interval" flag the first round sends, which costs one byte
        // however long the grid is.
        let mut flag_len = 0;
        for changed in [Some(changed_idx.clone()), None] {
            let req = Request::SplitSummaries {
                id: 7,
                grid: keys_to_table(DataType::Int, &new_grid).unwrap(),
                changed: changed.clone(),
            };
            let enc = encode_request(&req);
            flag_len = enc.len();
            match decode_request(&enc).expect("decode summaries request") {
                Request::SplitSummaries { id, grid, changed: back } => {
                    prop_assert_eq!(id, 7);
                    prop_assert_eq!(keys_from_table(&grid), new_grid.clone());
                    prop_assert_eq!(back, changed);
                }
                other => prop_assert!(false, "wrong request decoded: {:?}", other),
            }
        }
        let bare = 1 + 8 + encode_table_bytes(&keys_to_table(DataType::Int, &new_grid).unwrap()).len();
        prop_assert_eq!(flag_len, bare + 1);

        // Response leg: the shard's changed-rows table through the
        // response codec, then reconstruction over the cache.
        let resp = Response::Table(summaries_to_table(&changed));
        let shipped = match decode_response(&encode_response(&resp)).expect("decode") {
            Response::Table(t) => summaries_from_table(&t).expect("well-formed summary table"),
            other => panic!("wrong response decoded: {other:?}"),
        };
        assert_summaries_bit_eq(&shipped, &changed);
        let rebuilt = reconstruct_summaries(&old_summ, &map, &shipped)
            .expect("delta reply matching the map must reconstruct");
        assert_summaries_bit_eq(&rebuilt, &full);

        // Wrong-shape replies are rejected, not mis-assembled: one row
        // short, one row long, and (when nothing changed) one spurious row.
        if let Some((_, rest)) = shipped.split_first() {
            prop_assert!(reconstruct_summaries(&old_summ, &map, rest).is_none());
        }
        let mut long = shipped.clone();
        long.push(summary_from_seed(seed ^ 0x5eed));
        prop_assert!(reconstruct_summaries(&old_summ, &map, &long).is_none());
        // And a cache that is too short to cover the map is a typed miss.
        if map.iter().any(|s| matches!(s, Some(oi) if *oi >= 1)) {
            prop_assert!(reconstruct_summaries(&old_summ[..1], &map, &shipped).is_none());
        }
    }

    /// Truncated split frames — the summaries request with a list or
    /// the flag, the open request, the open reply — are typed decode
    /// errors and corrupted ones never panic or over-allocate: a byte
    /// flip may still decode to *some* valid frame, but it must do so
    /// inside the frame's own bytes, not by trusting a poisoned length
    /// prefix. Round-tripping re-encodes to the same bytes.
    #[test]
    fn truncated_or_corrupt_delta_frames_are_typed_errors(
        keys in prop::collection::vec(any::<i32>(), 1..10),
        idx in prop::collection::vec(any::<u8>(), 0..6),
        all in any::<bool>(),
        k in 0u32..40,
        cut_frac in 0.0f64..1.0,
        flip_pos_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let mut ks: Vec<i64> = keys.iter().map(|&k| k as i64).collect();
        ks.sort_unstable();
        ks.dedup();
        let grid: Vec<Datum> = ks.iter().map(|&k| Datum::Int(k)).collect();
        let mut changed: Vec<u32> = idx.iter().map(|&v| v as u32 % grid.len() as u32).collect();
        changed.sort_unstable();
        changed.dedup();
        let frames = [
            encode_request(&Request::SplitSummaries {
                id: 3,
                grid: keys_to_table(DataType::Int, &grid).unwrap(),
                changed: (!all).then_some(changed),
            }),
            encode_request(&Request::SplitOpen {
                sql: "SELECT f AS val, COUNT(*) AS c, SUM(y) AS s FROM fact GROUP BY f".into(),
                key_col: 0,
                c0_col: 1,
                c1_col: 2,
                specs: vec![0, 1, 1],
                k,
            }),
        ];
        let reply = encode_response(&Response::SplitOpened {
            id: 3,
            rows: ks.len() as u64,
            bounds: keys_to_table(DataType::Int, &grid[..(k as usize).min(grid.len())]).unwrap(),
        });
        for enc in &frames {
            let back = decode_request(enc).expect("well-formed frame decodes");
            prop_assert_eq!(&encode_request(&back), enc);
        }
        let back = decode_response(&reply).expect("well-formed reply decodes");
        prop_assert_eq!(&encode_response(&back), &reply);

        for (enc, is_reply) in frames.iter().map(|f| (f, false)).chain([(&reply, true)]) {
            let decode = |bytes: &[u8]| -> bool {
                if is_reply {
                    decode_response(bytes).is_ok()
                } else {
                    decode_request(bytes).is_ok()
                }
            };
            // Any strict prefix fails to decode — typed error, no panic.
            let cut = ((enc.len() as f64) * cut_frac) as usize;
            prop_assert!(!decode(&enc[..cut]));
            // A single flipped bit anywhere: decoding must return (Ok or
            // Err), never panic, and never allocate beyond the frame.
            let mut bad = enc.clone();
            let pos = (((enc.len() - 1) as f64) * flip_pos_frac) as usize;
            bad[pos] ^= 1 << flip_bit;
            let _ = decode(&bad);
        }

        // A ragged table, its second column one row short: each column
        // body counts its own rows, and one that disagrees with the
        // block's row count is a typed error, never a ragged table.
        let mut ragged = keys_to_table(DataType::Int, &grid).unwrap();
        ragged.push_column(ColumnMeta::new("short"), Column::int(ks[1..].to_vec()));
        let enc = encode_request(&Request::CreateTable { name: "t".into(), table: ragged });
        prop_assert!(decode_request(&enc).is_err());
    }

    /// `changed` must be strictly ascending and inside the grid: the
    /// decoder rejects anything else before the server touches it.
    #[test]
    fn unsorted_or_out_of_range_changed_intervals_are_rejected(
        grid_len in 1u32..12,
        changed in prop::collection::vec(0u32..16, 1..6),
    ) {
        let grid: Vec<Datum> = (0..grid_len as i64).map(Datum::Int).collect();
        let valid = changed.windows(2).all(|w| w[0] < w[1])
            && changed.iter().all(|&j| j < grid_len);
        let enc = encode_request(&Request::SplitSummaries {
            id: 1,
            grid: keys_to_table(DataType::Int, &grid).unwrap(),
            changed: Some(changed),
        });
        prop_assert_eq!(decode_request(&enc).is_ok(), valid);
    }
}

/// `Request::is_split` against a sample of every variant: exactly the
/// six `Split*` requests belong to the split protocol. The `match` below
/// has no wildcard arm, so a new variant fails to compile until it is
/// added to the sample.
#[test]
fn is_split_names_exactly_the_split_requests() {
    let grid = || keys_to_table(DataType::Int, &[Datum::Int(1)]).unwrap();
    let sample = vec![
        Request::Hello {
            magic: MAGIC,
            version: VERSION,
            token: 1,
        },
        Request::Execute {
            sql: "SELECT 1 AS x".into(),
        },
        Request::CreateTable {
            name: "t".into(),
            table: Table::new(),
        },
        Request::Describe { name: "t".into() },
        Request::Scan {
            name: "t".into(),
            rows: Some(vec![0]),
        },
        Request::TableNames,
        Request::SplitOpen {
            sql: "SELECT 1 AS x".into(),
            key_col: 0,
            c0_col: 1,
            c1_col: 2,
            specs: vec![0, 1, 1],
            k: 0,
        },
        Request::SplitBoundaries { id: 1, k: 4 },
        Request::SplitSummaries {
            id: 1,
            grid: grid(),
            changed: None,
        },
        Request::SplitRefine {
            id: 1,
            grid: grid(),
            targets: vec![(0, 2)],
        },
        Request::SplitFetch {
            id: 1,
            grid: grid(),
            retain: vec![true],
        },
        Request::SplitClose { id: 1 },
        Request::SubmitJob {
            spec: Box::default(),
        },
        Request::PollJob { id: 1 },
        Request::CancelJob { id: 1 },
        Request::PredictBatch {
            job: Some(1),
            spec: None,
            keys: vec![1],
            partial: false,
        },
    ];
    let mut seen = std::collections::BTreeSet::new();
    for req in &sample {
        let (tag, split) = match req {
            Request::Hello { .. } => (0, false),
            Request::Execute { .. } => (1, false),
            Request::CreateTable { .. } => (2, false),
            Request::Describe { .. } => (3, false),
            Request::Scan { .. } => (4, false),
            Request::TableNames => (5, false),
            Request::SplitOpen { .. } => (6, true),
            Request::SplitBoundaries { .. } => (7, true),
            Request::SplitSummaries { .. } => (8, true),
            Request::SplitRefine { .. } => (9, true),
            Request::SplitFetch { .. } => (10, true),
            Request::SplitClose { .. } => (11, true),
            Request::SubmitJob { .. } => (12, false),
            Request::PollJob { .. } => (13, false),
            Request::CancelJob { .. } => (14, false),
            Request::PredictBatch { .. } => (15, false),
        };
        assert_eq!(req.is_split(), split, "{req:?}");
        // The codec agrees on which variant this is.
        assert_eq!(encode_request(req)[0], tag, "{req:?}");
        seen.insert(tag);
    }
    assert_eq!(
        seen.len(),
        16,
        "the sample must cover every Request variant"
    );
}

// ---------------------------------------------------------------------------
// Live-socket round trips
// ---------------------------------------------------------------------------

/// Every datatype, NULLs included, through a real server: each table
/// read of the remote transport (`Describe` and `Scan` on the wire) must
/// answer exactly what the in-process engine answers — bits, errors and
/// all — for a populated table, a zero-row one and a missing one.
#[test]
fn remote_snapshot_is_bit_identical_to_local() {
    let table = Table::from_columns(vec![
        (
            "i",
            Column {
                data: ColumnData::Int(vec![1, -7, i64::MAX, 0].into()),
                validity: Some(vec![true, false, true, true].into()),
            },
        ),
        (
            "f",
            Column {
                data: ColumnData::Float(vec![0.5, -0.0, f64::NAN, 1.0 / 3.0].into()),
                validity: Some(vec![true, true, false, true].into()),
            },
        ),
        (
            "s",
            Column {
                validity: Some(vec![true, true, true, false].into()),
                ..Column::str(vec!["a".into(), "".into(), "a".into(), "long-ish".into()])
            },
        ),
    ]);
    let empty = table.take(&[]);
    let local = Database::in_memory();
    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let remote = RemoteBackend::builder(server.addr()).connect().unwrap();
    for (name, t) in [("t", &table), ("empty", &empty)] {
        local.create_table(name, t.clone()).unwrap();
        remote.create_table(name, t.clone()).unwrap();
    }

    // The transport surface, remote against in-process, table names in
    // any case; `ghost` does not exist (`UnknownTable`, `has_table` false).
    let conn: &dyn ShardTransport = remote.connection();
    let engine: &dyn ShardTransport = &local;
    let bytes = |r: Result<Table, EngineError>| r.map(|t| encode_table_bytes(&t));
    for name in ["t", "T", "empty", "ghost"] {
        assert_eq!(conn.has_table(name), engine.has_table(name), "{name}");
        assert_eq!(conn.row_count(name), engine.row_count(name), "{name}");
        assert_eq!(conn.column_names(name), engine.column_names(name), "{name}");
        // Column lookup is case-insensitive; a missing one is `UnknownColumn`.
        for column in ["i", "F", "s", "nope"] {
            let (a, b) = (
                conn.column_dtype(name, column),
                engine.column_dtype(name, column),
            );
            assert_eq!(a, b, "{name}.{column}");
        }
        assert_eq!(
            bytes(conn.snapshot(name)),
            bytes(engine.snapshot(name)),
            "{name}"
        );
        // Gathers ship only the requested rows, in order; a row past the
        // end is an error on both.
        for rows in [&[2, 0, 2][..], &[], &[4], &[0]] {
            let (a, b) = (conn.gather_rows(name, rows), engine.gather_rows(name, rows));
            assert_eq!(bytes(a), bytes(b), "{name} {rows:?}");
        }
    }
    assert!(!conn.has_table("ghost"));
    assert!(matches!(
        conn.row_count("ghost"),
        Err(EngineError::UnknownTable(_))
    ));
    assert!(matches!(
        conn.column_dtype("t", "nope"),
        Err(EngineError::UnknownColumn(_))
    ));
    assert!(conn.gather_rows("t", &[4]).is_err(), "out of range");

    // Dropping a missing table succeeds; dropping a present one removes it.
    for transport in [conn, engine] {
        transport.drop_table("ghost").unwrap();
        transport.drop_table("empty").unwrap();
        assert!(!transport.has_table("empty"));
    }

    // Aggregates agree with the local engine.
    let q = "SELECT SUM(i) AS si, COUNT(*) AS c FROM t";
    assert_eq!(remote.query(q).unwrap(), local.query(q).unwrap());

    // SQL whose 6th *byte* sits inside a multi-byte char must not panic
    // the client's statement counter — it reaches the server and fails
    // to parse like any other bad text.
    assert!(remote.execute("SELEC\u{e9} nope").is_err());

    // Engine errors come back as the same variant, not a stringly blob.
    let err = remote.query("SELECT x FROM ghost").unwrap_err();
    assert!(
        matches!(err, EngineError::UnknownTable(ref t) if t == "ghost"),
        "{err:?}"
    );

    // The wire volume is measured, both directions.
    let stats = remote.stats();
    assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    assert!(stats.statements >= 2);
}

/// A random sample of arbitrary tables through the live socket: what the
/// client loads is what the server's engine then snapshots back, bit for
/// bit (modulo the engine's own storage — so compare against a local
/// engine fed the identical table).
#[test]
fn remote_load_snapshot_matches_local_engine_on_random_tables() {
    use proptest::strategy::Strategy as _;
    use proptest::test_runner::seed_for;
    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let remote = RemoteBackend::builder(server.addr()).connect().unwrap();
    let strat = arb_table();
    let mut rng = proptest::rng::TestRng::new(seed_for(
        "remote_load_snapshot_matches_local_engine_on_random_tables",
    ));
    for i in 0..32 {
        let t = strat.generate(&mut rng);
        let name = format!("t{i}");
        let local = Database::in_memory();
        local.create_table(&name, t.clone()).unwrap();
        remote.create_table(&name, t).unwrap();
        let a = local.snapshot(&name).unwrap();
        let b = remote.snapshot(&name).unwrap();
        assert_eq!(encode_table_bytes(&a), encode_table_bytes(&b), "table {i}");
    }
}

// ---------------------------------------------------------------------------
// Concurrency: one server, two clients
// ---------------------------------------------------------------------------

/// A `Hello` carrying any version but the server's — the four retired
/// ones and a future one — gets the typed mismatch error naming the
/// server's version, on a connection of its own; the server keeps
/// serving everyone else.
#[test]
fn hello_with_another_version_is_a_typed_mismatch_and_the_server_lives_on() {
    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let healthy = RemoteBackend::builder(server.addr()).connect().unwrap();
    healthy.execute("CREATE TABLE t AS SELECT 1 AS x").unwrap();
    for version in [3u32, 4, 5, 6, 99] {
        let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let hello = encode_request(&Request::Hello {
            magic: MAGIC,
            version,
            token: 0x5eed | 1,
        });
        write_frame(&mut sock, &hello).unwrap();
        match decode_response(&read_frame(&mut sock).unwrap()).unwrap() {
            Response::Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("protocol version mismatch")
                        && msg.contains(&format!("client {version}"))
                        && msg.contains(&format!("server {VERSION}")),
                    "v{version}: {msg}"
                );
            }
            other => panic!("v{version} Hello must be rejected, got {other:?}"),
        }
        // No session was attached: a request on this socket is still
        // answered as "expected Hello", not executed.
        let mut frame = 1u64.to_le_bytes().to_vec();
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&encode_request(&Request::TableNames));
        write_frame(&mut sock, &frame).unwrap();
        assert!(matches!(
            decode_response(&read_frame(&mut sock).unwrap()).unwrap(),
            Response::Err(_)
        ));
        // Other connections — the old one and a fresh one — are served.
        assert_eq!(healthy.row_count("t").unwrap(), 1);
        let fresh = RemoteBackend::builder(server.addr()).connect().unwrap();
        assert!(fresh.has_table("t"));
    }
}

fn star_tables(tag: &str, rows: usize, seed: i64) -> (Table, Table, joinboost_graph::JoinGraph) {
    let dim_rows = 8i64;
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows as i64).collect())),
        (
            "d_id",
            Column::int((0..rows as i64).map(|i| (i + seed) % dim_rows).collect()),
        ),
        (
            "y",
            Column::float(
                (0..rows as i64)
                    .map(|i| (((i * (7 + seed)) % 32) as f64) / 8.0)
                    .collect(),
            ),
        ),
    ]);
    let dim = Table::from_columns(vec![
        ("d_id", Column::int((0..dim_rows).collect())),
        (
            "g",
            Column::int((0..dim_rows).map(|d| (d * (3 + seed)) % 5).collect()),
        ),
    ]);
    let mut graph = joinboost_graph::JoinGraph::new();
    graph.add_relation(&format!("fact_{tag}"), &[]).unwrap();
    graph.add_relation(&format!("dim_{tag}"), &["g"]).unwrap();
    graph
        .add_edge(&format!("fact_{tag}"), &format!("dim_{tag}"), &["d_id"])
        .unwrap();
    (fact, dim, graph)
}

fn train_star(backend: &dyn SqlBackend, tag: &str, rows: usize, seed: i64) -> GbmModel {
    let (fact, dim, graph) = star_tables(tag, rows, seed);
    backend.create_table(&format!("fact_{tag}"), fact).unwrap();
    backend.create_table(&format!("dim_{tag}"), dim).unwrap();
    let set = Dataset::new(backend, graph, &format!("fact_{tag}"), "y").unwrap();
    let params = TrainParams {
        num_iterations: 2,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    train_gbm(&set, &params).unwrap()
}

/// Two clients, one server, disjoint base tables and `jb_<id>_` temp
/// namespaces: concurrent training runs must not observe each other, and
/// both must leave the server clean of temp tables when their datasets
/// drop.
#[test]
fn two_clients_train_concurrently_without_crosstalk() {
    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let addr = server.addr();

    // References: the same two workloads on local engines.
    let ref_a = train_star(&Database::in_memory(), "a", 400, 1);
    let ref_b = train_star(&Database::in_memory(), "b", 400, 2);
    assert_ne!(
        ref_a.trees, ref_b.trees,
        "the two workloads must be distinguishable for cross-talk to be observable"
    );

    let (model_a, model_b) = std::thread::scope(|scope| {
        let ha = scope.spawn(move || {
            let backend = RemoteBackend::builder(addr).connect().unwrap();
            train_star(&backend, "a", 400, 1)
        });
        let hb = scope.spawn(move || {
            let backend = RemoteBackend::builder(addr).connect().unwrap();
            train_star(&backend, "b", 400, 2)
        });
        (ha.join().unwrap(), hb.join().unwrap())
    });

    assert_eq!(
        model_a.trees, ref_a.trees,
        "client A diverged under concurrency"
    );
    assert_eq!(
        model_b.trees, ref_b.trees,
        "client B diverged under concurrency"
    );
    assert_eq!(model_a.init_score.to_bits(), ref_a.init_score.to_bits());
    assert_eq!(model_b.init_score.to_bits(), ref_b.init_score.to_bits());

    // Temp-table lifecycle: both datasets dropped → no jb_ tables remain
    // on the shared server; the base tables are untouched.
    let names = server.database().table_names();
    assert!(
        !names.iter().any(|n| n.starts_with("jb_")),
        "temp tables leaked: {names:?}"
    );
    for t in ["fact_a", "dim_a", "fact_b", "dim_b"] {
        assert!(names.iter().any(|n| n == t), "{t} missing from {names:?}");
    }
}
