//! Crash-injection suite for the durable store: truncated WAL tails,
//! bit-flipped frames, partial snapshot files and corrupt metadata.
//!
//! The contract under test: recovery keeps the longest valid prefix of
//! the log, reports what it discarded, and **never panics** — whatever
//! bytes a crash (or bit rot) leaves behind. Truncation points are
//! exercised exhaustively for one fixture and by proptest over random
//! workloads; bit flips by proptest.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use tsexplain_relation::{AggQuery, AttrValue, Datum, Field, Relation, RelationBuilder, Schema};
use tsexplain_store::{DataStore, TenantCheckpoint};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tsx-store-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("state"),
        Field::measure("v"),
    ])
    .unwrap()
}

fn query() -> AggQuery {
    AggQuery::sum("t", "v")
}

/// `n` rows with distinct content so prefix checks are meaningful.
fn rows(from: usize, n: usize) -> Vec<Vec<Datum>> {
    (from..from + n)
        .map(|i| {
            vec![
                Datum::Attr(AttrValue::Int(i as i64)),
                Datum::Attr(AttrValue::from(if i % 2 == 0 { "NY" } else { "CA" })),
                Datum::Num(0.5 * i as f64 - 3.0),
            ]
        })
        .collect()
}

/// `rows` pushed into a builder with the fixture's schema: the tail a
/// snapshot writes after its base relation's rows.
fn builder_of(rows: &[Vec<Datum>]) -> RelationBuilder {
    let mut builder = Relation::builder(schema());
    for row in rows {
        builder.push_row(row.clone()).unwrap();
    }
    builder
}

/// `rows` as a relation with the fixture's schema: what a registration
/// logs.
fn relation_of(rows: &[Vec<Datum>]) -> Relation {
    builder_of(rows).finish()
}

/// Tenant `id`'s snapshot holding `rows`, all of them as the tail of an
/// empty base relation.
fn checkpoint_of(id: u64, rows: &[Vec<Datum>]) -> TenantCheckpoint {
    TenantCheckpoint::encode(id, &query(), &relation_of(&[]), &builder_of(rows)).unwrap()
}

/// The single live WAL segment of a store that was opened once.
fn only_wal_segment(dir: &std::path::Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 1, "expected exactly one segment");
    segs.remove(0)
}

/// Writes one tenant (3 initial rows) plus `batches` two-row appends,
/// then closes the store. Returns the data dir.
fn seed_store(tag: &str, batches: usize) -> PathBuf {
    let dir = temp_dir(tag);
    let (store, recovery) = DataStore::open(&dir).unwrap();
    assert!(recovery.tenants.is_empty());
    store
        .log_register(1, &query(), &relation_of(&rows(0, 3)))
        .unwrap();
    for b in 0..batches {
        store
            .log_rows(1, (3 + 2 * b) as u64, &rows(3 + 2 * b, 2))
            .unwrap();
    }
    drop(store);
    dir
}

#[test]
fn clean_reboot_recovers_everything() {
    let dir = seed_store("clean", 4);
    let (store, recovery) = DataStore::open(&dir).unwrap();
    assert_eq!(recovery.tenants.len(), 1);
    let t = &recovery.tenants[0];
    assert_eq!(t.id, 1);
    assert_eq!(t.rows, rows(0, 11));
    assert!(!t.from_snapshot);
    assert!(recovery.next_id >= 2);
    assert_eq!(recovery.discarded_bytes, 0);
    assert_eq!(store.metrics().recoveries, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_wal_truncation_point_recovers_a_prefix() {
    let dir = seed_store("trunc", 3);
    let seg = only_wal_segment(&dir);
    let full = std::fs::read(&seg).unwrap();
    let all_rows = rows(0, 9);
    for cut in 0..full.len() {
        std::fs::write(&seg, &full[..cut]).unwrap();
        let (_store, recovery) = DataStore::open(&dir).unwrap();
        match recovery.tenants.as_slice() {
            [] => {} // register frame itself truncated
            [t] => {
                assert!(
                    t.rows.len() <= all_rows.len() && t.rows == all_rows[..t.rows.len()],
                    "cut {cut}: recovered rows must be a prefix"
                );
                // Whole batches survive or vanish: 3 initial + 2 per batch.
                assert!(
                    t.rows.len() == 3 || (t.rows.len() > 3 && (t.rows.len() - 3) % 2 == 0),
                    "cut {cut}: partial batch applied"
                );
            }
            more => panic!("cut {cut}: {} tenants", more.len()),
        }
        if cut != full.len() && !full[..cut].is_empty() {
            // Something was cut off mid-log: it must be accounted for
            // whenever the cut is not on a frame boundary.
            let consumed: usize = full.len() - cut;
            assert!(consumed > 0);
        }
        // Each open starts a fresh segment; remove it so the next
        // iteration still sees exactly one truncated segment plus it.
        for extra in std::fs::read_dir(dir.join("wal")).unwrap().flatten() {
            if extra.path() != seg {
                std::fs::remove_file(extra.path()).unwrap();
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The second-crash scenario: recovery from a torn tail must truncate the
/// tear on disk, so records acked *after* that recovery (which land in a
/// fresh segment) survive the next reboot instead of being discarded as
/// "beyond the torn prefix".
#[test]
fn acked_writes_after_a_torn_tail_survive_a_second_crash() {
    let dir = seed_store("retear", 2); // register rows 0..3 + batches → rows 0..7
    let seg = only_wal_segment(&dir);
    let full = std::fs::read(&seg).unwrap();
    // Crash #1: tear the last frame mid-payload.
    std::fs::write(&seg, &full[..full.len() - 3]).unwrap();

    let (store, recovery) = DataStore::open(&dir).unwrap();
    assert_eq!(recovery.tenants[0].rows, rows(0, 5));
    assert!(recovery.discarded_bytes > 0);
    // The tear is gone from disk: the segment now ends on the valid prefix.
    let kept = std::fs::metadata(&seg).unwrap().len() as u64;
    assert_eq!(kept, full.len() as u64 - 3 - recovery.discarded_bytes);
    // New acked writes go to the fresh post-recovery segment.
    store.log_rows(1, 5, &rows(5, 2)).unwrap();
    drop(store); // crash #2

    let (_store, recovery) = DataStore::open(&dir).unwrap();
    assert_eq!(
        recovery.discarded_bytes, 0,
        "the first recovery must have truncated the tear"
    );
    assert_eq!(
        recovery.tenants[0].rows,
        rows(0, 7),
        "acked post-recovery rows must survive the second crash"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Segments beyond a torn one are unlinked, so recovery is stable: a
/// second boot sees exactly the state the first one recovered.
#[test]
fn segments_beyond_a_torn_one_are_unlinked() {
    let dir = seed_store("beyond", 1); // segment 000001: rows 0..5
    let seg = only_wal_segment(&dir);
    let full = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &full[..full.len() - 3]).unwrap();
    // A leftover later segment (as the pre-truncation recovery code could
    // leave behind) holding records replay will not reach.
    std::fs::copy(&seg, dir.join("wal").join("000002.wal")).unwrap();

    let (_s, first) = DataStore::open(&dir).unwrap();
    assert!(first
        .notes
        .iter()
        .any(|n| n.contains("beyond torn prefix") && n.contains("unlinked")));
    assert!(!dir.join("wal").join("000002.wal").exists());
    drop(_s);
    let (_s, second) = DataStore::open(&dir).unwrap();
    assert_eq!(second.discarded_bytes, 0);
    assert_eq!(second.tenants[0].rows, first.tenants[0].rows);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint crash-safety contract: a record logged after the
/// rotation point but covered by an *older* tenant export must survive
/// the checkpoint's truncation and replay on top of the snapshot.
#[test]
fn records_logged_after_rotation_survive_checkpoint_truncation() {
    let dir = temp_dir("rotation-race");
    let (store, _) = DataStore::open(&dir).unwrap();
    store
        .log_register(1, &query(), &relation_of(&rows(0, 3)))
        .unwrap();
    // Export taken as of 3 rows — i.e. BEFORE the concurrent batch below.
    let exported = checkpoint_of(1, &rows(0, 3));
    let rotation = store.rotate_wal().unwrap();
    // An append racing the export: it lands in the fresh segment.
    store.log_rows(1, 3, &rows(3, 2)).unwrap();
    store.checkpoint(2, vec![exported], rotation).unwrap();
    drop(store);

    let (_store, recovery) = DataStore::open(&dir).unwrap();
    assert_eq!(recovery.tenants.len(), 1);
    let t = &recovery.tenants[0];
    assert!(t.from_snapshot, "snapshot seeds the tenant");
    assert_eq!(
        t.rows,
        rows(0, 5),
        "the post-rotation batch must replay on top of the older snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tombstone_survives_reboot() {
    let dir = temp_dir("tombstone");
    let (store, _) = DataStore::open(&dir).unwrap();
    store
        .log_register(1, &query(), &relation_of(&rows(0, 3)))
        .unwrap();
    store
        .log_register(2, &query(), &relation_of(&rows(0, 2)))
        .unwrap();
    store.log_remove(1).unwrap();
    drop(store);
    let (_store, recovery) = DataStore::open(&dir).unwrap();
    assert_eq!(recovery.tenants.len(), 1);
    assert_eq!(recovery.tenants[0].id, 2);
    // Deleted ids are never recycled.
    assert!(recovery.next_id >= 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_wal_and_seeds_recovery() {
    let dir = seed_store("checkpoint", 2);
    let (store, recovery) = DataStore::open(&dir).unwrap();
    let t = &recovery.tenants[0];
    let rotation = store.rotate_wal().unwrap();
    store
        .checkpoint(
            recovery.next_id,
            vec![checkpoint_of(t.id, &t.rows)],
            rotation,
        )
        .unwrap();
    // Post-checkpoint rows land in the fresh segment.
    store.log_rows(1, 7, &rows(7, 2)).unwrap();
    drop(store);

    let (_store, recovery) = DataStore::open(&dir).unwrap();
    assert_eq!(recovery.tenants.len(), 1);
    let t = &recovery.tenants[0];
    assert!(t.from_snapshot, "checkpoint snapshot must seed recovery");
    assert_eq!(t.rows, rows(0, 9));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_tenant_snapshot_falls_back_to_wal() {
    let dir = seed_store("partsnap", 2);
    let (store, recovery) = DataStore::open(&dir).unwrap();
    let t = &recovery.tenants[0];
    let rotation = store.rotate_wal().unwrap();
    store
        .checkpoint(
            recovery.next_id,
            vec![checkpoint_of(t.id, &t.rows)],
            rotation,
        )
        .unwrap();
    drop(store);
    // Tear the snapshot mid-file. The WAL was truncated by the
    // checkpoint, so the tenant is unrecoverable — which must be a
    // reported skip, not a panic and not a phantom tenant.
    let snap = dir.join("tenants").join("t1.snap");
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();
    let (_store, recovery) = DataStore::open(&dir).unwrap();
    assert!(recovery.tenants.is_empty());
    assert!(
        recovery.notes.iter().any(|n| n.contains("t1.snap")),
        "discarded snapshot must be reported: {:?}",
        recovery.notes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_meta_is_ignored_and_next_id_still_safe() {
    let dir = seed_store("meta", 1);
    std::fs::write(dir.join("meta.json"), b"{not json").unwrap();
    let (_store, recovery) = DataStore::open(&dir).unwrap();
    assert!(recovery.next_id >= 2, "id watermark from WAL replay");
    assert!(recovery.notes.iter().any(|n| n.contains("meta.json")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_leftover_cube_directory_is_removed_and_recovery_is_unaffected() {
    // An older version wrote evicted cubes under `cubes/`; nothing reads
    // them now, so open must clear them out and recover the rows alone.
    let dir = seed_store("legacy-cubes", 2);
    std::fs::create_dir_all(dir.join("cubes")).unwrap();
    std::fs::write(
        dir.join("cubes").join("t1-c00000000deadbeef.cube"),
        b"any bytes",
    )
    .unwrap();
    let (_store, recovery) = DataStore::open(&dir).unwrap();
    assert!(recovery.notes.is_empty(), "notes: {:?}", recovery.notes);
    assert_eq!(recovery.tenants.len(), 1);
    assert_eq!(recovery.tenants[0].rows, rows(0, 7));
    assert!(!dir.join("cubes").exists(), "cubes/ must be gone");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workloads, random truncation points: recovery is always a
    /// clean prefix of whole batches and never panics.
    #[test]
    fn random_truncation_recovers_a_prefix(
        batches in 1usize..6,
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = seed_store("prop-trunc", batches);
        let seg = only_wal_segment(&dir);
        let full = std::fs::read(&seg).unwrap();
        let cut = ((full.len() as f64) * cut_fraction) as usize;
        std::fs::write(&seg, &full[..cut]).unwrap();
        let (_store, recovery) = DataStore::open(&dir).unwrap();
        let all = rows(0, 3 + 2 * batches);
        for t in &recovery.tenants {
            prop_assert!(t.rows.len() <= all.len());
            prop_assert_eq!(&t.rows[..], &all[..t.rows.len()]);
        }
        prop_assert!(recovery.discarded_bytes as usize <= cut);
        if cut < full.len() && recovery.discarded_bytes > 0 {
            prop_assert!(!recovery.notes.is_empty(), "discards must be reported");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in the WAL: recovery still yields a
    /// verbatim prefix (the poisoned frame and everything after it are
    /// discarded) and never panics.
    #[test]
    fn random_bit_flip_never_panics_and_keeps_a_prefix(
        batches in 1usize..5,
        bit_fraction in 0.0f64..1.0,
    ) {
        let dir = seed_store("prop-flip", batches);
        let seg = only_wal_segment(&dir);
        let mut bytes = std::fs::read(&seg).unwrap();
        let bit = ((bytes.len() * 8 - 1) as f64 * bit_fraction) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&seg, &bytes).unwrap();
        let (_store, recovery) = DataStore::open(&dir).unwrap();
        let all = rows(0, 3 + 2 * batches);
        for t in &recovery.tenants {
            prop_assert!(t.rows.len() <= all.len());
            prop_assert_eq!(&t.rows[..], &all[..t.rows.len()]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
