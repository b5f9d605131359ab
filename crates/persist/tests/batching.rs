//! Group-commit differential properties: the batched WAL and persistent
//! engines pinned to their single-event twins on arbitrary inputs.
//!
//! The load-bearing claims, each enforced here:
//!
//! * `Wal::append_batch` produces **byte-identical segment files** (same
//!   names, same bytes) as N single `append`s, across fsync policies,
//!   batch splits, and segment rolls — while issuing no *more* fsyncs
//!   than the single path (a batch is one durability unit).
//! * `SharedWal::append_batch` preserves each partition's event stream
//!   exactly (global sequence runs may differ — replay orders by
//!   sequence, and per-target order is the semantic contract).
//! * `PersistentEngine::on_events` emits the single-path candidate
//!   stream and recovers to the same continuation, including batches
//!   that straddle segment rolls and the checkpoint cadence.

use magicrecs_graph::{CapStrategy, FollowGraph, GraphBuilder};
use magicrecs_persist::wal::replay;
use magicrecs_persist::{
    FsyncPolicy, PersistOptions, PersistentEngine, RebasePolicy, SharedWal, TempDir, Wal,
    WalOptions,
};
use magicrecs_types::{DetectorConfig, EdgeEvent, Timestamp, UserId};
use proptest::prelude::*;
use std::path::Path;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn events_from(actions: Vec<(u64, u64, u64, bool)>) -> Vec<EdgeEvent> {
    let mut events: Vec<EdgeEvent> = actions
        .into_iter()
        .map(|(src, dst, at, unf)| {
            let t = Timestamp::from_secs(at);
            if unf {
                EdgeEvent::unfollow(u(src), u(dst), t)
            } else {
                EdgeEvent::follow(u(src), u(dst), t)
            }
        })
        .collect();
    events.sort_by_key(|e| e.created_at);
    events
}

/// Segment files (name, bytes) under `dir` for `prefix`, sorted.
fn segment_bytes(dir: &Path, prefix: &str) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name.starts_with(prefix) && name.ends_with(".wal"))
                .then(|| (name, std::fs::read(e.path()).unwrap()))
        })
        .collect();
    out.sort();
    out
}

fn apply_in_chunks(events: &[EdgeEvent], splits: &[usize], mut apply: impl FnMut(&[EdgeEvent])) {
    let mut i = 0;
    let mut s = 0;
    while i < events.len() {
        let take = splits[s % splits.len()].min(events.len() - i);
        apply(&events[i..i + take]);
        i += take;
        s += 1;
    }
}

fn small_graph() -> FollowGraph {
    let mut g = GraphBuilder::new();
    for a in 0..8u64 {
        for b in 0..4u64 {
            g.add_edge(u(a), u(25 + (a + b) % 8));
        }
    }
    g.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn wal_group_commit_byte_parity(
        actions in proptest::collection::vec((0u64..50, 0u64..50, 0u64..5_000, prop::bool::ANY), 1..250),
        splits in proptest::collection::vec(1usize..40, 1..12),
        segment_bytes_opt in 96u64..2_048,
        policy_pick in 0usize..4,
    ) {
        let events = events_from(actions);
        let opts = WalOptions {
            fsync: [
                FsyncPolicy::Never,
                FsyncPolicy::EveryN(3),
                FsyncPolicy::EveryN(64),
                FsyncPolicy::Always,
            ][policy_pick],
            segment_bytes: segment_bytes_opt,
        };

        let t_single = TempDir::new("wal-prop-s");
        let mut single = Wal::create(t_single.path(), "wal-", opts).unwrap();
        for &e in &events {
            single.append(e).unwrap();
        }
        let single_syncs = single.sync_count();
        single.close().unwrap();

        let t_batch = TempDir::new("wal-prop-b");
        let mut batched = Wal::create(t_batch.path(), "wal-", opts).unwrap();
        apply_in_chunks(&events, &splits, |chunk| {
            batched.append_batch(chunk).unwrap();
        });
        prop_assert_eq!(batched.next_seq(), events.len() as u64);
        // Group commit: a batch is one durability unit, so the batched
        // path never syncs more often than the single path.
        prop_assert!(batched.sync_count() <= single_syncs, "extra syncs appeared");
        batched.close().unwrap();

        prop_assert_eq!(
            segment_bytes(t_single.path(), "wal-"),
            segment_bytes(t_batch.path(), "wal-"),
            "segment files diverged"
        );
        // And the batched log replays every record in order.
        let mut seqs = Vec::new();
        replay(t_batch.path(), "wal-", 0, |r| seqs.push(r.seq)).unwrap();
        prop_assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn shared_wal_group_commit_stream_parity(
        actions in proptest::collection::vec((0u64..50, 0u64..50, 0u64..5_000, prop::bool::ANY), 1..250),
        splits in proptest::collection::vec(1usize..40, 1..12),
        parts in 1usize..5,
    ) {
        let events = events_from(actions);
        let opts = WalOptions {
            fsync: FsyncPolicy::Never,
            segment_bytes: 512,
        };

        let t_single = TempDir::new("swal-prop-s");
        let single = SharedWal::create(t_single.path(), parts, opts).unwrap();
        for &e in &events {
            single.append(e).unwrap();
        }
        single.sync_all().unwrap();
        drop(single);

        let t_batch = TempDir::new("swal-prop-b");
        let batched = SharedWal::create(t_batch.path(), parts, opts).unwrap();
        apply_in_chunks(&events, &splits, |chunk| {
            batched.append_batch(chunk).unwrap();
        });
        prop_assert_eq!(batched.next_seq(), events.len() as u64);
        batched.sync_all().unwrap();
        drop(batched);

        // Per-partition event streams are identical; merged replay is
        // complete and sequence-ordered.
        for p in 0..parts {
            let prefix = format!("wal-p{p}-");
            let mut want = Vec::new();
            replay(t_single.path(), &prefix, 0, |r| want.push(r.event)).unwrap();
            let mut got = Vec::new();
            replay(t_batch.path(), &prefix, 0, |r| got.push(r.event)).unwrap();
            prop_assert_eq!(got, want, "partition {} stream diverged", p);
        }
        let mut n = 0u64;
        let mut last: Option<u64> = None;
        let stats = SharedWal::replay_merged_fenced(t_batch.path(), parts, &vec![0; parts], |r| {
            assert!(last.is_none_or(|l| l < r.seq), "merged replay out of order");
            last = Some(r.seq);
            n += 1;
        }).unwrap();
        prop_assert_eq!(n, events.len() as u64);
        prop_assert!(!stats.torn_tail);
    }

    #[test]
    fn persistent_engine_batch_parity_and_recovery(
        actions in proptest::collection::vec((25u64..33, 40u64..46, 0u64..500, prop::bool::ANY), 1..180),
        splits in proptest::collection::vec(1usize..30, 1..10),
        checkpoint_every in 1u64..60,
    ) {
        let events = events_from(actions);
        let cfg = DetectorConfig::example().with_tau(magicrecs_types::Duration::from_secs(200));
        let o = PersistOptions {
            fsync: FsyncPolicy::Never,
            segment_bytes: 1 << 10, // batches straddle rolls
            checkpoint_every,      // and the checkpoint cadence
            rebase: RebasePolicy::DISABLED,
        };

        let t_single = TempDir::new("pe-prop-s");
        let t_batch = TempDir::new("pe-prop-b");
        let mut single =
            PersistentEngine::create(t_single.path(), small_graph(), 0, cfg, o).unwrap();
        let mut batched =
            PersistentEngine::create(t_batch.path(), small_graph(), 0, cfg, o).unwrap();

        let mut want = Vec::new();
        for &e in &events {
            want.extend(single.on_event(e).unwrap());
        }
        let mut got = Vec::new();
        apply_in_chunks(&events, &splits, |chunk| {
            batched.on_events_into(chunk, &mut got).unwrap();
        });
        prop_assert_eq!(got, want, "candidate stream diverged");
        prop_assert_eq!(single.next_seq(), batched.next_seq());
        single.close().unwrap();
        batched.close().unwrap();

        // Both directories recover to the same continuation.
        let (mut rs, _) =
            PersistentEngine::open(t_single.path(), cfg, CapStrategy::None, o).unwrap();
        let (mut rb, rep) =
            PersistentEngine::open(t_batch.path(), cfg, CapStrategy::None, o).unwrap();
        prop_assert_eq!(rep.next_seq, events.len() as u64);
        for i in 0..3u64 {
            let probe = EdgeEvent::follow(u(25 + i), u(40 + i), Timestamp::from_secs(600 + i));
            prop_assert_eq!(rs.on_event(probe).unwrap(), rb.on_event(probe).unwrap());
        }
    }
}
