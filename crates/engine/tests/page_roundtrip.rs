//! The page codec, attacked from both sides:
//!
//! * **roundtrip proptests** — arbitrary columns (every `DataType`, NULL
//!   masks, empty columns, NaN payloads, `-0.0`, dictionaries with
//!   duplicate and unreferenced entries, Int columns of every span width
//!   that the storage image bit-packs, runs) survive a [`PagedStore`]'s
//!   `store_column` → `load_column` *bit-exactly*, at any chain length,
//!   from warm frames and through a buffer pool that holds a single page,
//!   and so does their run-length image;
//! * **adversarial proptests** — truncating the byte string (plain,
//!   storage or run-length image) at any cut point is a checked error,
//!   and flipping any byte of any stored page or run-length image, or
//!   overwriting stored pages with garbage, never panics and never
//!   over-allocates (the decoder's count guard bounds every allocation
//!   by the bytes actually present, and run lengths by the row count);
//! * **the in-memory catalog** — the same columns, and run-heavy ones,
//!   stored by `duckdb_mem()` never take more bytes than the plain table
//!   (a column is run-length encoded only when that is smaller) and
//!   snapshot back bit-exactly.

use std::sync::Arc;

use proptest::prelude::*;

use joinboost_engine::column::ColumnData;
use joinboost_engine::storage::codec::{
    decode_column, decode_image, decode_rle_image, encode_column, encode_rle_column,
    encode_stored_column, ByteReader,
};
use joinboost_engine::storage::{PagedColumn, PagedStore, PAGE_CAPACITY, PAGE_SIZE};
use joinboost_engine::{Column, Database, Table};

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
        arb_narrow_ints(rows).prop_map(|v| ColumnData::Int(v.into())),
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

/// Ints spanning fewer than `2^k` values for a random `k` in 0..64 (0 is
/// a constant column), from an arbitrary end or one at `i64::MIN` or
/// `i64::MAX`: the spans the storage image bit-packs at every width. A
/// non-negative end counts down and a negative one up, so no value wraps.
fn arb_narrow_ints(rows: usize) -> impl Strategy<Value = Vec<i64>> {
    let end = prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX)];
    (0u32..64, end, prop::collection::vec(any::<u64>(), rows)).prop_map(|(k, end, raw)| {
        let offsets = raw.into_iter().map(|o| (o & ((1u64 << k) - 1)) as i64);
        if end >= 0 {
            offsets.map(|o| end - o).collect()
        } else {
            offsets.map(|o| end + o).collect()
        }
    })
}

/// Columns from empty up to several pages long (a 700-row f64 column is
/// ~5.6 KB — past one 4 KiB page), arbitrary or run-heavy.
fn arb_sized_column() -> impl Strategy<Value = Column> {
    arb_rows().prop_flat_map(|rows| prop_oneof![arb_column(rows), arb_run_column(rows)])
}

/// The run-length image of `col`.
fn rle_image(col: &Column) -> Vec<u8> {
    let mut image = Vec::new();
    encode_rle_column(&mut image, col);
    image
}

fn arb_rows() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..40,
        600usize..900, // multi-page
    ]
}

/// Up to four distinct values (of any type, NULL included) in runs of
/// `run` rows: the shape run-length encoding shrinks.
fn arb_run_column(rows: usize) -> impl Strategy<Value = Column> {
    (arb_column(4), 1usize..300).prop_map(move |(few, run)| {
        let idx: Vec<u32> = (0..rows).map(|i| ((i / run) % 4) as u32).collect();
        few.take(&idx)
    })
}

/// A table of one to four same-length columns, each arbitrary or
/// run-heavy, so both encodings occur side by side.
fn arb_table() -> impl Strategy<Value = Table> {
    arb_rows().prop_flat_map(|rows| {
        let col = prop_oneof![arb_column(rows), arb_run_column(rows)];
        prop::collection::vec(col, 1..5).prop_map(|cols| {
            let names: Vec<String> = (0..cols.len()).map(|i| format!("c{i}")).collect();
            Table::from_columns(names.iter().map(String::as_str).zip(cols).collect())
        })
    })
}

/// A fresh store in its own directory; `tag` keeps tests that run at
/// once apart.
fn scratch_store(tag: &str, pool_pages: usize) -> (PagedStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("jb_pr_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (PagedStore::open(&dir, pool_pages).unwrap(), dir)
}

/// Write `bytes` over a stored chain in place, through the pool, starting
/// `at` bytes into its first page (headers included) and stopping at the
/// chain's end.
fn overwrite(store: &PagedStore, pc: &PagedColumn, at: usize, bytes: &[u8]) {
    for (k, &b) in bytes.iter().enumerate() {
        let pos = at + k;
        let Some(&pid) = pc.pages.get(pos / PAGE_SIZE) else {
            return;
        };
        store
            .pool()
            .fetch(pid)
            .unwrap()
            .write(|p| p[pos % PAGE_SIZE] = b);
    }
}

/// Every column's codec bytes: equal bytes are bit-exact columns.
fn table_bytes(t: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    for c in &t.columns {
        encode_column(&mut out, c);
    }
    out
}

// ---------------------------------------------------------------------------
// Roundtrips
// ---------------------------------------------------------------------------

proptest! {
    /// Any column survives the full pipeline bit-exactly, stitched from
    /// the warm frames it was written to: bit-exactness is proven by
    /// re-encoding the decoded column and comparing bytes (sidestepping
    /// NaN != NaN). The chain holds the storage image, never more bytes
    /// than the plain one.
    #[test]
    fn column_roundtrips_bit_exactly_through_pages(col in arb_sized_column()) {
        let (mut bytes, mut image) = (Vec::new(), Vec::new());
        encode_column(&mut bytes, &col);
        encode_stored_column(&mut image, &col);
        prop_assert!(image.len() <= bytes.len());
        let (store, dir) = scratch_store("pages", 16);
        let pc = store.store_column(&col).unwrap();
        prop_assert_eq!(pc.bytes, image.len() as u64);
        prop_assert_eq!(pc.pages.len(), image.len().div_ceil(PAGE_CAPACITY).max(1));
        let back = store.load_column(&pc).unwrap();
        prop_assert_eq!(back.len(), col.len());
        prop_assert_eq!(back.dtype(), col.dtype());
        let mut reencoded = Vec::new();
        encode_column(&mut reencoded, &back);
        prop_assert_eq!(&reencoded, &bytes);
        // The run-length image decodes to the same column.
        let mut unrolled = Vec::new();
        encode_column(&mut unrolled, &decode_rle_image(&rle_image(&col)).unwrap());
        prop_assert_eq!(unrolled, bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same through a single-frame buffer pool: every page load
    /// evicts the previous one, so the chain is stitched from disk, not
    /// from warm frames.
    #[test]
    fn store_roundtrips_through_a_one_page_pool(col in arb_sized_column()) {
        let (store, dir) = scratch_store("one_frame", 1);
        let pc = store.store_column(&col).unwrap();
        let back = store.load_column(&pc).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_column(&mut a, &col);
        encode_column(&mut b, &back);
        prop_assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    /// The catalog picks each column's encoding by size: a stored table
    /// never takes more bytes than its plain columns, and reads back
    /// bit-exactly whichever encodings were picked.
    #[test]
    fn stored_tables_never_outgrow_their_columns_and_snapshot_bit_exactly(t in arb_table()) {
        let db = Database::in_memory();
        db.create_table("t", t.clone()).unwrap();
        prop_assert!(db.table_byte_size("t").unwrap() <= t.byte_size());
        let back = db.snapshot("t").unwrap();
        prop_assert_eq!(back.column_names(), t.column_names());
        prop_assert_eq!(table_bytes(&back), table_bytes(&t));
    }
}

// ---------------------------------------------------------------------------
// Adversarial inputs
// ---------------------------------------------------------------------------

proptest! {
    /// Every strict prefix of a valid encoding, plain, storage or
    /// run-length image, is a checked error — the decoder cannot read fields it does not
    /// have, and a decode that "succeeds" early is caught by the
    /// trailing-bytes check.
    #[test]
    fn truncation_at_any_cut_is_a_checked_error(col in arb_sized_column(), cut in any::<u64>()) {
        let (mut plain, mut image) = (Vec::new(), Vec::new());
        encode_column(&mut plain, &col);
        encode_stored_column(&mut image, &col);
        for (bytes, rle) in [(plain, false), (image, false), (rle_image(&col), true)] {
            prop_assert!(!bytes.is_empty());
            let cut = (cut % bytes.len() as u64) as usize;
            let decode = if rle { decode_rle_image } else { decode_image };
            let res = decode(&bytes[..cut]);
            prop_assert!(res.is_err(), "decode of a {cut}-byte prefix succeeded");
        }
    }

    /// Flipping any single byte of a stored page, or of the run-length
    /// image, never panics and never over-allocates: either the load
    /// rejects the damage, or the flip landed in a value byte and the
    /// result is a (different) well-formed column.
    #[test]
    fn bit_flips_never_panic(col in arb_sized_column(), pos in any::<u64>(), flip in 1u8..=255) {
        let (store, dir) = scratch_store("flip", 4);
        let pc = store.store_column(&col).unwrap();
        let pos = (pos % (pc.pages.len() * PAGE_SIZE) as u64) as usize;
        let pid = pc.pages[pos / PAGE_SIZE];
        store.pool().fetch(pid).unwrap().write(|p| p[pos % PAGE_SIZE] ^= flip);
        let mut image = rle_image(&col);
        let at = pos % image.len();
        image[at] ^= flip;
        for back in [store.load_column(&pc), decode_rle_image(&image)].into_iter().flatten() {
            // Survivors must still be internally consistent.
            let mut reencoded = Vec::new();
            encode_column(&mut reencoded, &back);
            prop_assert!(!reencoded.is_empty() || back.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Raw garbage bytes (not derived from any encoding) decode without
    /// panicking, and a stored chain overwritten with them, headers
    /// included, loads as an error or a well-formed column, never a
    /// panic.
    #[test]
    fn garbage_bytes_never_panic(
        col in arb_sized_column(),
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        at in any::<u64>(),
    ) {
        let mut r = ByteReader::new(&bytes);
        let _ = decode_column(&mut r);
        let (store, dir) = scratch_store("garbage", 4);
        let pc = store.store_column(&col).unwrap();
        let at = (at % (pc.pages.len() * PAGE_SIZE) as u64) as usize;
        overwrite(&store, &pc, at, &bytes);
        let _ = store.load_column(&pc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Deterministic edges
// ---------------------------------------------------------------------------

#[test]
fn empty_columns_of_every_type_roundtrip() {
    let (store, dir) = scratch_store("empty", 4);
    for col in [
        Column::int(vec![]),
        Column::float(vec![]),
        Column::str(Vec::<String>::new()),
    ] {
        let pc = store.store_column(&col).unwrap();
        assert_eq!(pc.pages.len(), 1, "empty columns still get one page");
        assert_eq!(store.load_column(&pc).unwrap(), col);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn special_floats_roundtrip_bit_exactly() {
    let specials = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001), // NaN payload
        f64::MIN_POSITIVE / 2.0,               // subnormal
        f64::MAX,
    ];
    let (store, dir) = scratch_store("specials", 4);
    let pc = store
        .store_column(&Column::float(specials.clone()))
        .unwrap();
    let back = store.load_column(&pc).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    match &back.data {
        ColumnData::Float(v) => {
            for (a, b) in specials.iter().zip(v.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        other => panic!("wrong dtype back: {other:?}"),
    }
}

#[test]
fn whole_tables_roundtrip_through_a_store() {
    let (store, dir) = scratch_store("table", 2);
    let t = Table::from_columns(vec![
        ("k", Column::int((0..2000).collect())),
        (
            "v",
            Column::float((0..2000).map(|i| (i as f64).sqrt()).collect()),
        ),
        (
            "s",
            Column::str((0..2000).map(|i| format!("g{}", i % 13)).collect()),
        ),
    ]);
    let chains: Vec<PagedColumn> = (t.columns.iter())
        .map(|c| store.store_column(c).unwrap())
        .collect();
    for (col, pc) in t.columns.iter().zip(&chains) {
        assert_eq!(&store.load_column(pc).unwrap(), col);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
