//! Routing epochs: movable partition ownership with stale-write fencing.
//!
//! The hash route (`route_mix(dst) % partitions`) tells a writer *which
//! partition* an event belongs to; this module adds *who owns that
//! partition right now*. Every partition carries an **epoch** that bumps
//! each time ownership moves (failover promotion, rebalance flip). A
//! writer stamps the epoch it routed with; the owning node's
//! [`EpochGate`] re-validates that stamp on every admit. A write that
//! raced a partition move therefore dies with a typed
//! [`Error::WrongLeader`] — carrying the gate's current epoch and a hint
//! naming the node that owns the partition now — instead of being
//! silently applied by a stale leader (the hole this closes: before
//! epochs, a demoted node would keep accepting a connected client's
//! writes forever, forking history from the promoted owner).
//!
//! [`RouteTable`] is the coordinator's authoritative map; routers hold
//! clones refreshed on [`Error::WrongLeader`] refusals, so two routers
//! on adjacent epochs may race — exactly the case the gate's per-admit
//! check exists for (test-enforced below).

use std::sync::Mutex;

use magicrecs_obs::{recorder, TraceKind};
use magicrecs_types::{route_mix, Error, Result, UserId};

/// Where one event should go, per one router's view of the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Hash partition of the event's target.
    pub partition: u32,
    /// Node believed to lead that partition.
    pub owner: u32,
    /// The partition's routing epoch this decision was made under —
    /// stamp it on the write; the owner refuses a stale stamp.
    pub epoch: u64,
}

/// The partition → (owner node, epoch) map.
///
/// Cloneable by value: routers work off snapshots and refresh on
/// refusal, the coordinator mutates the authoritative copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    owners: Vec<u32>,
    epochs: Vec<u64>,
}

impl RouteTable {
    /// A table with one entry per partition, all epochs at 0.
    pub fn new(owners: Vec<u32>) -> RouteTable {
        let epochs = vec![0; owners.len()];
        RouteTable { owners, epochs }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.owners.len()
    }

    /// The hash partition an event target lands on (the workspace
    /// routing mix — identical to WAL and worker routing).
    pub fn partition_of(&self, dst: &UserId) -> u32 {
        (route_mix(dst) % self.owners.len() as u64) as u32
    }

    /// Routes one event target under this table's current view.
    pub fn route(&self, dst: &UserId) -> RouteDecision {
        let p = self.partition_of(dst);
        self.route_partition(p)
    }

    /// The decision for a known partition.
    pub fn route_partition(&self, partition: u32) -> RouteDecision {
        RouteDecision {
            partition,
            owner: self.owners[partition as usize],
            epoch: self.epochs[partition as usize],
        }
    }

    /// Moves a partition to a new owner, bumping its epoch; returns the
    /// new epoch. The coordinator calls this *after* fencing the old
    /// owner — the table records the decision, the gates enforce it.
    pub fn move_partition(&mut self, partition: u32, new_owner: u32) -> Result<u64> {
        let p = partition as usize;
        if p >= self.owners.len() {
            return Err(Error::UnknownPartition(partition));
        }
        self.owners[p] = new_owner;
        self.epochs[p] += 1;
        Ok(self.epochs[p])
    }

    /// Applies an observed refusal: the refusing side told us the
    /// partition's current epoch and owner, which is strictly newer than
    /// our view — adopt it (idempotent if another refresh won the race).
    pub fn learn(&mut self, partition: u32, epoch: u64, owner: u32) {
        let p = partition as usize;
        if p < self.owners.len() && epoch >= self.epochs[p] {
            self.epochs[p] = epoch;
            self.owners[p] = owner;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct GateState {
    epoch: u64,
    leading: bool,
    /// Node to send refused writers to (the current owner, per the last
    /// role change this gate saw).
    hint: u32,
}

/// Node-side admission for one hosted partition.
///
/// Writes stamped with a routing epoch pass through [`EpochGate::admit`]
/// before touching the WAL or engine; anything stale — or anything
/// arriving while this node is not the partition's leader — is refused
/// with a typed [`Error::WrongLeader`], counted, and dropped into the
/// flight recorder.
#[derive(Debug)]
pub struct EpochGate {
    partition: u32,
    state: Mutex<GateState>,
}

impl EpochGate {
    /// A gate for `partition`, initially at `epoch`, leading or not;
    /// `hint` names the current owner (self if leading).
    pub fn new(partition: u32, epoch: u64, leading: bool, hint: u32) -> EpochGate {
        EpochGate {
            partition,
            state: Mutex::new(GateState {
                epoch,
                leading,
                hint,
            }),
        }
    }

    /// The partition this gate guards.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Validates one write stamped at `claimed_epoch`. Ok ⇒ this node
    /// leads the partition **at exactly that epoch** and may apply the
    /// write; Err ⇒ the typed refusal to send back. Epoch equality (not
    /// `>=`) is deliberate: a *newer* stamp than the gate's own epoch
    /// means the writer knows about a move this node has not seen — it
    /// may have been demoted in a decision still in flight, so applying
    /// would be exactly the stale-leader fork the epoch exists to stop.
    pub fn admit(&self, claimed_epoch: u64) -> Result<u64> {
        let s = *self.state.lock().unwrap();
        if !s.leading || claimed_epoch != s.epoch {
            recorder::record(
                TraceKind::RefusedWrite,
                "stale epoch",
                self.partition as u64,
                s.epoch,
            );
            return Err(Error::WrongLeader {
                partition: self.partition,
                epoch: s.epoch,
                hint: s.hint,
            });
        }
        Ok(s.epoch)
    }

    /// Applies a role change: the gate now speaks for `epoch`, leading
    /// or following, with `hint` naming the owner at that epoch.
    pub fn set_role(&self, epoch: u64, leading: bool, hint: u32) {
        let mut s = self.state.lock().unwrap();
        s.epoch = epoch;
        s.leading = leading;
        s.hint = hint;
    }

    /// Current `(epoch, leading, hint)` triple.
    pub fn current(&self) -> (u64, bool, u32) {
        let s = *self.state.lock().unwrap();
        (s.epoch, s.leading, s.hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn route_is_stable_and_within_bounds() {
        let table = RouteTable::new(vec![0, 1, 2]);
        for u in 0..100u64 {
            let d = table.route(&UserId(u));
            assert!(d.partition < 3);
            assert_eq!(d, table.route(&UserId(u)), "routing must be deterministic");
            assert_eq!(d.owner, d.partition, "identity map in this fixture");
            assert_eq!(d.epoch, 0);
        }
    }

    #[test]
    fn move_bumps_epoch_and_owner() {
        let mut table = RouteTable::new(vec![0, 0]);
        assert_eq!(table.move_partition(1, 5).unwrap(), 1);
        let d = table.route_partition(1);
        assert_eq!((d.owner, d.epoch), (5, 1));
        // The untouched partition keeps its epoch.
        assert_eq!(table.route_partition(0).epoch, 0);
        assert!(matches!(
            table.move_partition(9, 1),
            Err(Error::UnknownPartition(9))
        ));
    }

    #[test]
    fn learn_adopts_newer_views_only() {
        let mut table = RouteTable::new(vec![0]);
        table.learn(0, 3, 7);
        assert_eq!(table.route_partition(0).owner, 7);
        // An older refusal (raced refresh) must not regress the view.
        table.learn(0, 1, 2);
        assert_eq!(table.route_partition(0).owner, 7);
        assert_eq!(table.route_partition(0).epoch, 3);
    }

    #[test]
    fn stale_epoch_write_is_refused_typed() {
        let gate = EpochGate::new(4, 1, true, 2);
        assert_eq!(gate.admit(1).unwrap(), 1);
        let err = gate.admit(0).unwrap_err();
        assert!(
            matches!(
                err,
                Error::WrongLeader {
                    partition: 4,
                    epoch: 1,
                    hint: 2
                }
            ),
            "got {err:?}"
        );
        // A stamp from the future is refused too (this node may itself
        // be the stale one).
        assert!(matches!(gate.admit(2), Err(Error::WrongLeader { .. })));
    }

    #[test]
    fn demoted_gate_refuses_even_matching_epochs() {
        let gate = EpochGate::new(0, 5, false, 9);
        let err = gate.admit(5).unwrap_err();
        assert!(matches!(
            err,
            Error::WrongLeader {
                partition: 0,
                epoch: 5,
                hint: 9
            }
        ));
    }

    /// The race the gate exists for: two routers on adjacent epochs hammer the
    /// same gate while the move happens between them. Every write either
    /// lands under the epoch it was routed at or dies typed — the
    /// applied count seen by the gate equals the admitted count, so a
    /// raced write can never be silently applied.
    #[test]
    fn concurrent_routers_on_adjacent_epochs_never_slip_a_stale_write() {
        let mut table = RouteTable::new(vec![1]);
        let old_view = table.clone(); // epoch 0, owner 1
        table.move_partition(0, 2).unwrap();
        let new_view = table.clone(); // epoch 1, owner 2

        // Node 2's gate after the move: leading at epoch 1.
        let gate = Arc::new(EpochGate::new(0, 1, true, 2));
        let applied = Arc::new(AtomicU64::new(0));
        let refused = Arc::new(AtomicU64::new(0));

        let mut joins = Vec::new();
        for view in [old_view, new_view] {
            let gate = Arc::clone(&gate);
            let applied = Arc::clone(&applied);
            let refused = Arc::clone(&refused);
            joins.push(std::thread::spawn(move || {
                for u in 0..500u64 {
                    let d = view.route(&UserId(u));
                    match gate.admit(d.epoch) {
                        Ok(e) => {
                            assert_eq!(e, 1, "only current-epoch writes may apply");
                            assert_eq!(d.epoch, 1, "stale routing decision slipped through");
                            applied.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(Error::WrongLeader {
                            partition: 0,
                            epoch: 1,
                            hint: 2,
                        }) => {
                            refused.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("untyped refusal: {other:?}"),
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            applied.load(Ordering::Relaxed),
            500,
            "fresh router's writes"
        );
        assert_eq!(
            refused.load(Ordering::Relaxed),
            500,
            "stale router's writes"
        );
    }
}
