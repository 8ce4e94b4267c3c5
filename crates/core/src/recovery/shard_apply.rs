//! The shared per-(table, shard) apply worker used by LLR-P online
//! recovery and the LLR-P hot standby.
//!
//! Both consumers have the same shape: a producer appends `(ts, write)`
//! pairs to per-shard queues and publishes a *frontier* (the highest
//! batch fully enqueued); a pool of workers drains whole shard queues —
//! shards with blocked admissions first — installs latch-free with
//! timestamped last-writer-wins, and publishes the shard's applied-batch
//! watermark to the [`RecoveryGate`]. A shard's stream is applied by one
//! worker at a time (the queue lock is held across the install), which
//! preserves per-key commitment order. The only difference between the
//! consumers is who advances the frontier and raises the "no more
//! batches" flag in [`ShardApply`]: recovery's loader counts a fixed
//! batch list, the standby's receiver counts shipped seals.

use crate::metrics::RecoveryMetrics;
use pacman_common::{Error, Timestamp};
use pacman_engine::{Database, RecoveryGate, WriteRecord};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One shard's apply lane: the pending write queue plus the applied-batch
/// watermark.
#[derive(Default)]
pub(crate) struct ShardLane {
    /// Writes enqueued but not yet installed, in producer order.
    pub queue: Mutex<Vec<(Timestamp, WriteRecord)>>,
    /// Highest frontier this shard has fully applied.
    pub applied: AtomicU64,
}

/// The shard-apply protocol's shared state: the lanes, the producer's
/// frontier and end flag, and the first error any party latched.
pub(crate) struct ShardApply {
    /// One lane per partition.
    pub lanes: Vec<ShardLane>,
    /// Highest batch fully enqueued (monotone; everything enqueued to a
    /// lane happens before the frontier covering it is published).
    pub loaded: AtomicU64,
    /// No further batches will arrive.
    pub done: AtomicBool,
    /// First error latched by the producer or a worker.
    pub err: Mutex<Option<Error>>,
}

impl ShardApply {
    /// State over `n` empty lanes.
    pub fn new(n: usize) -> ShardApply {
        ShardApply {
            lanes: (0..n).map(|_| ShardLane::default()).collect(),
            loaded: AtomicU64::new(0),
            done: AtomicBool::new(false),
            err: Mutex::new(None),
        }
    }

    /// Latch `e` unless an earlier error is already latched.
    pub fn fail(&self, e: Error) {
        self.err.lock().get_or_insert(e);
    }
}

/// One worker of the shard-apply pool. Runs until `state.done` reports no
/// further batches will arrive *and* every lane has caught up with the
/// frontier, or until an error is latched (by this worker or a peer).
pub(crate) fn run_shard_worker(
    state: &ShardApply,
    db: &Database,
    gate: &RecoveryGate,
    metrics: &RecoveryMetrics,
    worker: usize,
) {
    let ShardApply {
        lanes,
        loaded,
        done,
        err,
    } = state;
    let frontier = || loaded.load(Ordering::Acquire);
    let n = lanes.len();
    let mut rot = worker;
    loop {
        if err.lock().is_some() {
            return;
        }
        let frontier_now = frontier();
        let done_now = done.load(Ordering::Acquire);
        let mut progressed = false;
        let prioritize = gate.any_wanted();
        let passes = if prioritize { 2 } else { 1 };
        'scan: for pass in 0..passes {
            for k in 0..n {
                let p = (rot + k) % n;
                if prioritize && pass == 0 && !gate.is_wanted(p) {
                    continue;
                }
                let lane = &lanes[p];
                if lane.applied.load(Ordering::Acquire) >= frontier_now {
                    continue;
                }
                let Some(mut q) = lane.queue.try_lock() else {
                    continue; // another worker owns this shard
                };
                if lane.applied.load(Ordering::Acquire) >= frontier_now {
                    continue;
                }
                let drained = std::mem::take(&mut *q);
                let t0 = Instant::now();
                for (ts, w) in drained {
                    match db.table(w.table) {
                        Ok(t) => {
                            // The drained queue is owned: the after-image
                            // moves into the version chain, no copy.
                            t.install_lww(w.key, ts, w.after);
                        }
                        Err(e) => {
                            state.fail(e);
                            return;
                        }
                    }
                }
                metrics.add_work(t0.elapsed());
                // The queue lock was held across the install: everything
                // enqueued before `frontier_now` was published is applied.
                lane.applied.fetch_max(frontier_now, Ordering::AcqRel);
                drop(q);
                gate.publish(p, frontier_now);
                rot = rot.wrapping_add(1);
                progressed = true;
                break 'scan;
            }
        }
        if progressed {
            continue;
        }
        if done_now
            && lanes
                .iter()
                .all(|l| l.applied.load(Ordering::Acquire) >= frontier())
        {
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}
