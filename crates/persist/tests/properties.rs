//! Property tests shared across the persistence codecs: round-trips for
//! arbitrary inputs, and corruption injection (bit flips + truncation at
//! arbitrary points) that must always surface as a typed
//! [`Error::Corrupt`] or decode to the identical value — never a panic,
//! never a silently different result.

use magicrecs_graph::{
    load_delta, load_graph, save_delta, save_graph, CapStrategy, FollowGraph, GraphBuilder,
    GraphDelta,
};
use magicrecs_persist::checkpoint::{load_checkpoint, save_checkpoint_fenced};
use magicrecs_persist::{FsyncPolicy, TempDir, Wal, WalOptions};
use magicrecs_types::{EdgeEvent, Error, Timestamp, UserId};
use proptest::prelude::*;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn build(edges: &[(u64, u64)]) -> FollowGraph {
    let mut b = GraphBuilder::new();
    b.extend(edges.iter().map(|&(a, bb)| (u(a), u(bb))));
    b.build()
}

fn rows(g: &FollowGraph) -> Vec<(UserId, Vec<UserId>)> {
    g.iter_forward().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Graph codec: arbitrary graphs round-trip exactly.
    #[test]
    fn graph_codec_roundtrips(
        edges in proptest::collection::vec((0u64..60, 0u64..60), 0..200),
    ) {
        let g = build(&edges);
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();
        let g2 = load_graph(&mut buf.as_slice(), CapStrategy::None).unwrap();
        prop_assert_eq!(rows(&g2), rows(&g));
    }

    /// Graph codec: flipping any byte either fails typed or decodes to
    /// the identical graph; truncating anywhere fails typed. Never a
    /// panic, never a silently different graph.
    #[test]
    fn graph_codec_survives_corruption(
        edges in proptest::collection::vec((0u64..40, 0u64..40), 1..120),
        flip_at in 0usize..4096,
        flip_bit in 0u32..8,
        cut_at in 0usize..4096,
    ) {
        let g = build(&edges);
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();

        let mut flipped = buf.clone();
        let i = flip_at % flipped.len();
        flipped[i] ^= 1 << flip_bit;
        match load_graph(&mut flipped.as_slice(), CapStrategy::None) {
            Ok(g2) => prop_assert_eq!(rows(&g2), rows(&g), "silent corruption at byte {}", i),
            Err(Error::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "wrong error class: {e:?}"),
        }

        let cut = cut_at % buf.len();
        match load_graph(&mut &buf[..cut], CapStrategy::None) {
            Err(Error::Corrupt(_)) => {}
            r => prop_assert!(false, "truncation at {} gave {r:?}", cut),
        }
    }

    /// Delta codec: `between` → save → load → apply equals the target
    /// graph, for arbitrary old/new pairs.
    #[test]
    fn delta_codec_roundtrips_and_applies(
        old_edges in proptest::collection::vec((0u64..40, 0u64..40), 0..120),
        new_edges in proptest::collection::vec((0u64..50, 0u64..50), 0..120),
    ) {
        let old = build(&old_edges);
        let new = build(&new_edges);
        let delta = GraphDelta::between(&old, &new, 3, 4).unwrap();
        let mut buf = Vec::new();
        save_delta(&delta, &mut buf).unwrap();
        let loaded = load_delta(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(&loaded, &delta);
        let applied = old.apply_delta(&loaded).unwrap();
        prop_assert_eq!(rows(&applied), rows(&new));
        // Dense ids stay order-preserving (the detector's invariant).
        let ids: Vec<UserId> = applied.interner().iter().map(|(_, raw)| raw).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    /// Delta codec corruption: typed error or identical value.
    #[test]
    fn delta_codec_survives_corruption(
        old_edges in proptest::collection::vec((0u64..30, 0u64..30), 1..80),
        new_edges in proptest::collection::vec((0u64..35, 0u64..35), 1..80),
        flip_at in 0usize..4096,
        flip_bit in 0u32..8,
        cut_at in 0usize..4096,
    ) {
        let old = build(&old_edges);
        let new = build(&new_edges);
        let delta = GraphDelta::between(&old, &new, 0, 1).unwrap();
        let mut buf = Vec::new();
        save_delta(&delta, &mut buf).unwrap();

        let mut flipped = buf.clone();
        let i = flip_at % flipped.len();
        flipped[i] ^= 1 << flip_bit;
        match load_delta(&mut flipped.as_slice()) {
            Ok(d2) => prop_assert_eq!(d2, delta, "silent corruption at byte {}", i),
            Err(Error::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "wrong error class: {e:?}"),
        }

        let cut = cut_at % buf.len();
        match load_delta(&mut &buf[..cut]) {
            Err(Error::Corrupt(_)) => {}
            r => prop_assert!(false, "truncation at {} gave {r:?}", cut),
        }
    }

    /// Checkpoint codec corruption: typed error or identical value.
    #[test]
    fn checkpoint_codec_survives_corruption(
        entries in proptest::collection::vec(
            (0u64..32, 0u64..64, 0u64..100_000), 1..150,
        ),
        flip_at in 0usize..8192,
        flip_bit in 0u32..8,
        cut_at in 0usize..8192,
    ) {
        // Per-target time order, as export guarantees.
        let mut by_target: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
        for &(dst, src, at) in &entries {
            by_target.entry(dst).or_default().push((src, at));
        }
        let mut flat = Vec::new();
        for (dst, mut list) in by_target {
            list.sort_by_key(|&(_, at)| at);
            flat.extend(list.into_iter().map(|(src, at)| {
                (u(dst), u(src), Timestamp::from_micros(at))
            }));
        }
        let mut buf = Vec::new();
        save_checkpoint_fenced(flat, 77, &[78], &mut buf).unwrap();
        let reference = load_checkpoint(&mut buf.as_slice()).unwrap();

        let mut flipped = buf.clone();
        let i = flip_at % flipped.len();
        flipped[i] ^= 1 << flip_bit;
        match load_checkpoint(&mut flipped.as_slice()) {
            Ok(ck) => prop_assert_eq!(ck, reference, "silent corruption at byte {}", i),
            Err(Error::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "wrong error class: {e:?}"),
        }

        let cut = cut_at % buf.len();
        match load_checkpoint(&mut &buf[..cut]) {
            Err(Error::Corrupt(_)) => {}
            r => prop_assert!(false, "truncation at {} gave {r:?}", cut),
        }
    }

    /// WAL: events round-trip; truncating the log anywhere yields a
    /// clean prefix (never an error, never a wrong event); flipping a
    /// byte yields a prefix or an identical stream — CRC framing means
    /// corruption can only cost the tail, not invent records.
    #[test]
    fn wal_replay_is_prefix_closed_under_damage(
        n in 1u64..120,
        cut_at in 0usize..16384,
        flip_at in 0usize..16384,
        flip_bit in 0u32..8,
    ) {
        let t = TempDir::new("wal-prop");
        let mut wal = Wal::create(
            t.path(),
            "wal-",
            WalOptions { fsync: FsyncPolicy::Never, segment_bytes: 1 << 20 },
        ).unwrap();
        let events: Vec<EdgeEvent> = (0..n)
            .map(|i| EdgeEvent::follow(u(i * 3 + 1), u(9_000 + i % 5), Timestamp::from_secs(i)))
            .collect();
        for &e in &events {
            wal.append(e).unwrap();
        }
        wal.close().unwrap();
        let seg = std::fs::read_dir(t.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "wal"))
            .unwrap();
        let bytes = std::fs::read(&seg).unwrap();

        // Truncation at any point: a prefix of the stream, torn or not.
        let cut = cut_at % bytes.len();
        std::fs::write(&seg, &bytes[..cut]).unwrap();
        let mut got = Vec::new();
        magicrecs_persist::wal::replay(t.path(), "wal-", 0, |r| got.push(r.event)).unwrap();
        prop_assert!(got.len() <= events.len());
        prop_assert_eq!(&got[..], &events[..got.len()], "truncation must keep a prefix");

        // Single-bit flip: a prefix (possibly full) of the stream.
        let mut flipped = bytes.clone();
        let i = flip_at % flipped.len();
        flipped[i] ^= 1 << flip_bit;
        std::fs::write(&seg, &flipped).unwrap();
        let mut got = Vec::new();
        match magicrecs_persist::wal::replay(t.path(), "wal-", 0, |r| got.push(r.event)) {
            Ok(_) => {
                prop_assert!(got.len() <= events.len());
                prop_assert_eq!(&got[..], &events[..got.len()], "flip at {} must keep a prefix", i);
            }
            // Header damage is allowed to refuse the segment outright.
            Err(Error::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "wrong error class: {e:?}"),
        }
    }
}
