//! Fault-plan property tests: for **any** seed-keyed fault plan injected
//! into the persistent engine's I/O backend, at any arming point, under
//! any fsync policy and ingest batch size:
//!
//! * a fault surfaces as a **typed** error (`Io`/`Corrupt`/`Invariant`)
//!   or slows/swallows harmlessly — never a panic;
//! * recovery on a **clean** backend always succeeds, and its
//!   `next_seq` covers the acknowledged prefix (no acknowledged event
//!   is ever lost, none is ever re-emitted);
//! * resuming over the tail restores exact candidate parity with a
//!   fault-free twin — events that were durable but unacknowledged at
//!   the fault may drop their emissions (at-most-once on an
//!   unacknowledged append), everything else must match byte for byte.
//!
//! This is the randomized cousin of the deterministic kill-point matrix
//! in `recovery.rs`: the matrix probes every crash boundary; this file
//! probes the *error paths themselves* under seeded fault plans.

use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{CapStrategy, FollowGraph, GraphBuilder};
use magicrecs_persist::{
    FaultPlan, FaultVfs, FsyncPolicy, PersistOptions, PersistentEngine, RebasePolicy, TempDir,
};
use magicrecs_types::{Candidate, DetectorConfig, EdgeEvent, Error, Timestamp, UserId};
use proptest::prelude::*;
use std::sync::Arc;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn ts(s: u64) -> Timestamp {
    Timestamp::from_secs(s)
}

/// Dense motif fixture: 20 As each following 5 of 8 Bs.
fn motif_graph() -> FollowGraph {
    let mut g = GraphBuilder::new();
    for a in 0..20u64 {
        for j in 0..5u64 {
            g.add_edge(u(a), u(100 + (a + j) % 8));
        }
    }
    g.build()
}

/// Monotone-timestamp trace with unfollows sprinkled in.
fn trace(n: u64) -> Vec<EdgeEvent> {
    (0..n)
        .map(|i| {
            let b = u(100 + i % 8);
            let c = u(1_000 + (i / 5) % 17);
            if i % 23 == 7 {
                EdgeEvent::unfollow(b, c, ts(10 + i / 3))
            } else {
                EdgeEvent::follow(b, c, ts(10 + i / 3))
            }
        })
        .collect()
}

fn config() -> DetectorConfig {
    DetectorConfig {
        max_witnesses: Some(6),
        ..DetectorConfig::example()
    }
}

fn typed(e: &Error) -> bool {
    matches!(e, Error::Io(_) | Error::Corrupt(_) | Error::Invariant(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn seeded_fault_plans_never_panic_and_recovery_restores_parity(
        plan_seed in 0u64..u64::MAX,
        n in 60u64..200,
        arm_at in 0usize..40,
        fsync_every in 1u64..8,
        batch in 1usize..8,
    ) {
        let events = trace(n);
        let cfg = config();
        let opts = PersistOptions {
            fsync: if fsync_every == 1 {
                FsyncPolicy::Always
            } else {
                FsyncPolicy::EveryN(fsync_every)
            },
            segment_bytes: 4 << 10,
            checkpoint_every: 32,
            rebase: RebasePolicy::DISABLED,
        };

        // Fault-free twin: per-event candidates.
        let twin = ConcurrentEngine::new(motif_graph(), cfg).unwrap();
        let per_event: Vec<Vec<Candidate>> =
            events.iter().map(|&e| twin.on_event(e)).collect();

        // Engine under fault: plan derived entirely from the seed, armed
        // only once setup I/O (base snapshot publish) is done.
        let plan = FaultPlan::from_seed(plan_seed, n / 2);
        let fv = FaultVfs::new_disarmed(plan);
        let dir = TempDir::new("faults-prop");
        let mut engine = PersistentEngine::create_with_vfs(
            dir.path(),
            motif_graph(),
            0,
            cfg,
            opts,
            Arc::new(fv.clone()),
        )
        .unwrap();

        let mut pre: Vec<Candidate> = Vec::new();
        let mut acked = 0usize;
        let mut fault_error: Option<Error> = None;
        for chunk in events.chunks(batch) {
            if acked >= arm_at {
                fv.set_armed(true);
            }
            match engine.on_events(chunk) {
                Ok(out) => {
                    pre.extend(out);
                    acked += chunk.len();
                }
                Err(e) => {
                    fault_error = Some(e);
                    break;
                }
            }
        }

        match &fault_error {
            Some(e) => {
                // Invariant: the injected failure is typed, and the plan
                // actually fired (errors can only come from injection —
                // the trace and directory are otherwise healthy).
                prop_assert!(typed(e), "untyped error under injection: {e:?}");
                prop_assert!(fv.fired_count() >= 1, "error without a fired fault: {e:?}");
            }
            None => {
                // Plan never hit an erroring op (swallowed-by-design op,
                // Slow mode, or trigger count beyond the op stream).
                prop_assert_eq!(acked, events.len());
            }
        }

        // Crash (ungraceful drop), then recover on a CLEAN backend.
        drop(engine);
        let (mut recovered, report) =
            PersistentEngine::open(dir.path(), cfg, CapStrategy::None, opts).unwrap();

        // No silent loss: everything acknowledged is covered by replay.
        prop_assert!(
            report.next_seq >= acked as u64,
            "acknowledged events lost: acked {} next_seq {}",
            acked,
            report.next_seq
        );

        // Resume over the tail; must run clean on the clean backend.
        let mut post: Vec<Candidate> = Vec::new();
        for &e in &events[report.next_seq as usize..] {
            post.extend(recovered.on_event(e).unwrap());
        }

        // Parity: acknowledged prefix + resumed tail, in order. Events
        // in [acked, next_seq) were durable but never acknowledged —
        // replay restores their state with emission suppressed.
        let mut expected: Vec<Candidate> = Vec::new();
        for per in per_event.iter().take(acked) {
            expected.extend(per.iter().cloned());
        }
        for per in per_event.iter().skip(report.next_seq as usize) {
            expected.extend(per.iter().cloned());
        }
        let mut got = pre;
        got.extend(post);
        prop_assert_eq!(got, expected);
    }

    /// A WAL that failed a policy-promised fsync (or half-committed a
    /// batch) must refuse every later append — an application can never
    /// acknowledge an event the log will not remember.
    #[test]
    fn poisoned_wal_refuses_all_later_appends(
        sync_nth in 1u64..6,
        n in 40u64..120,
    ) {
        let events = trace(n);
        let cfg = config();
        let opts = PersistOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 10,
            checkpoint_every: 0, // isolate the WAL path from checkpoints
            rebase: RebasePolicy::DISABLED,
        };
        let fv = FaultVfs::new_disarmed(FaultPlan::fail_nth_sync(sync_nth));
        let dir = TempDir::new("faults-poison");
        let mut engine = PersistentEngine::create_with_vfs(
            dir.path(),
            motif_graph(),
            0,
            cfg,
            opts,
            Arc::new(fv.clone()),
        )
        .unwrap();
        fv.set_armed(true);

        let mut first_error_at = None;
        for (i, &e) in events.iter().enumerate() {
            if let Err(err) = engine.on_event(e) {
                prop_assert!(typed(&err), "untyped: {err:?}");
                first_error_at = Some(i);
                break;
            }
        }
        let failed_at = first_error_at.expect("Always-policy sync fault must surface");
        prop_assert_eq!(fv.fired_count(), 1);

        // Every subsequent append is refused: the WAL is poisoned.
        for &e in events.iter().skip(failed_at + 1).take(5) {
            prop_assert!(engine.on_event(e).is_err(), "poisoned WAL accepted an append");
        }

        // And clean recovery still lands on a consistent prefix.
        drop(engine);
        let (_, report) =
            PersistentEngine::open(dir.path(), cfg, CapStrategy::None, opts).unwrap();
        prop_assert!(report.next_seq >= failed_at as u64);
    }
}
