//! LLR-P: the parallel logical log recovery adapted from PACMAN (§4.5,
//! §6.2).
//!
//! Every log entry is treated as a write-only transaction: each batch's
//! writes are shuffled onto partitions and reinstalled latch-free with
//! last-writer-wins. A partition's stream is applied by one thread at a
//! time in commitment order, so no synchronization is needed — the
//! property that lets LLR-P outperform latched LLR (Fig. 16).
//!
//! Two partitionings, picked by whether the replay is gated:
//!
//! * **offline** — by key hash onto one thread-private lane per thread,
//!   fed through channels;
//! * **online** — by *index shard*, the unit the [`RecoveryGate`] tracks,
//!   through the shared shard-apply pool (`shard_apply`), so a waiting
//!   transaction's cold shards can be redone on demand.
//!
//! The offline lanes stay because they measured about 6% faster than the
//! shard-apply pool on the same image (`docs/RECOVERY.md`, "LLR-P's two
//! apply paths").

use crate::recovery::gate::ShardMap;
use crate::recovery::shard_apply::{run_shard_worker, ShardApply};
use crate::recovery::{read_merged_batch_view, LogRecovery, ReplayCtx};
use pacman_common::{Error, Result, Timestamp};
use pacman_engine::{RecoveryGate, WriteRecord};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// One batch's writes, grouped by destination partition.
type Groups = Vec<Vec<(Timestamp, WriteRecord)>>;

/// LLR-P log recovery: key-hash lanes offline, index-shard lanes with
/// watermarks when `ctx.gate` is set.
pub fn replay(ctx: &ReplayCtx) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let mut log = match ctx.gate {
        None => replay_lanes(ctx)?,
        Some(gate) => replay_shards(ctx, gate)?,
    };
    log.total = t0.elapsed();
    Ok(log)
}

/// Offline LLR-P: one persistent latch-free worker per key-hash lane.
/// The loader reloads, merges and shuffles the next batch while the lanes
/// reinstall the current one (batch pipelining adopted from PACMAN).
fn replay_lanes(ctx: &ReplayCtx) -> Result<LogRecovery> {
    let threads = ctx.threads.max(1);
    let (tx, rx) = crossbeam::channel::bounded::<Groups>(2);
    crossbeam::thread::scope(|scope| {
        let loader = scope.spawn(move |_| {
            load_batches(
                ctx,
                threads,
                |w| {
                    let h =
                        (w.key ^ ((w.table.0 as u64) << 32)).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
                    Ok(h as usize % threads)
                },
                |_, groups| {
                    let full = std::mem::replace(groups, vec![Vec::new(); threads]);
                    tx.send(full).is_ok()
                },
            )
        });

        let (lanes, workers): (Vec<_>, Vec<_>) = (0..threads)
            .map(|_| {
                let (ltx, lrx) = crossbeam::channel::bounded::<Vec<(Timestamp, WriteRecord)>>(2);
                let worker = scope.spawn(move |_| -> Result<()> {
                    for part in lrx.iter() {
                        let t0 = Instant::now();
                        for (ts, w) in part {
                            // `w` is owned here: the after-image moves
                            // into the version chain.
                            ctx.db.table(w.table)?.install_lww(w.key, ts, w.after);
                        }
                        ctx.metrics.add_work(t0.elapsed());
                    }
                    Ok(())
                });
                (ltx, worker)
            })
            .unzip();

        // Distributor: fan each batch's partitions out to the lanes. Lane
        // order preserves per-key commitment order (each key maps to one
        // lane; batches are sent in order).
        'fan: for groups in rx.iter() {
            for (lane, part) in lanes.iter().zip(groups) {
                if !part.is_empty() && lane.send(part).is_err() {
                    break 'fan;
                }
            }
        }
        drop(rx);
        drop(lanes);
        let loaded = loader.join().expect("llr-p loader");
        for w in workers {
            w.join().expect("llr-p lane")?;
        }
        loaded
    })
    .expect("llr-p scope")
}

/// Online LLR-P: the shard-apply pool drains per-(table, shard) queues —
/// shards with blocked admissions first — and publishes each shard's
/// applied-batch watermark to `gate`.
fn replay_shards(ctx: &ReplayCtx, gate: &RecoveryGate) -> Result<LogRecovery> {
    let map = ShardMap::new(ctx.db);
    let state = ShardApply::new(map.total());
    let tally = crossbeam::thread::scope(|scope| {
        for worker in 0..ctx.threads.max(1) {
            let state = &state;
            scope.spawn(move |_| run_shard_worker(state, ctx.db, gate, ctx.metrics, worker));
        }
        // Append each batch's writes to the per-shard queues, then
        // publish the batch as the new frontier.
        let tally = load_batches(
            ctx,
            map.total(),
            |w| map.partition(ctx.db, w.table, w.key),
            |bi, groups| {
                for (lane, g) in state.lanes.iter().zip(groups.iter_mut()) {
                    if !g.is_empty() {
                        lane.queue.lock().append(g);
                    }
                }
                state.loaded.store(bi + 1, Ordering::Release);
                state.err.lock().is_none()
            },
        );
        if let Err(e) = &tally {
            state.fail(e.clone());
        }
        state.done.store(true, Ordering::Release);
        tally
    })
    .expect("llr-p online scope");
    match state.err.into_inner() {
        Some(e) => Err(e),
        None => tally,
    }
}

/// The LLR-P loader: read every batch in order, route each write to
/// `groups[route(write)]` (decoded straight off the borrowed batch spans,
/// so each write is materialized once, already owned by its partition),
/// and hand the groups to `deliver` with the batch's index. `deliver`
/// empties the groups (or swaps in fresh ones); returning false stops the
/// loader.
fn load_batches(
    ctx: &ReplayCtx,
    partitions: usize,
    route: impl Fn(&WriteRecord) -> Result<usize>,
    mut deliver: impl FnMut(u64, &mut Groups) -> bool,
) -> Result<LogRecovery> {
    let mut log = LogRecovery::default();
    let mut groups: Groups = vec![Vec::new(); partitions];
    for (bi, batch) in ctx.inventory.batches().into_iter().enumerate() {
        let tr = Instant::now();
        let merged =
            read_merged_batch_view(ctx.storage, ctx.inventory, batch, ctx.pepoch, ctx.after_ts)?;
        log.reload += tr.elapsed();
        ctx.metrics.add_load(tr.elapsed());
        let tp = Instant::now();
        for rec in merged.iter() {
            let writes = rec
                .writes()
                .ok_or_else(|| Error::Corrupt("LLR-P requires tuple-level log records".into()))?;
            // Every LLR-P record installs after-images.
            log.count(rec.ts(), false);
            for w in writes {
                let p = route(&w)?;
                groups[p].push((rec.ts(), w));
            }
        }
        ctx.metrics.add_param(tp.elapsed());
        if !deliver(bi as u64, &mut groups) {
            break;
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RecoveryMetrics;
    use crate::recovery::{test_ctx, LogInventory};
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, Row, TableId, Value};
    use pacman_engine::{Catalog, Database, WriteKind};
    use pacman_sproc::ProcRegistry;
    use pacman_storage::StorageSet;
    use pacman_wal::{LogPayload, TxnLogRecord};
    use std::sync::Arc;

    fn logical(ts: u64, key: u64, val: i64) -> TxnLogRecord {
        TxnLogRecord {
            ts,
            payload: LogPayload::Writes {
                writes: vec![WriteRecord {
                    table: TableId::new(0),
                    key,
                    kind: WriteKind::Update,
                    after: Some(std::sync::Arc::new(Row::from([Value::Int(val)]))),
                    prev_ts: 0,
                }],
                physical: false,
                adhoc: false,
            },
        }
    }

    #[test]
    fn llr_p_applies_in_commit_order_per_key() {
        let storage = StorageSet::for_tests();
        // Two loggers' files for one batch, interleaved timestamps on the
        // same key: the merge must serialize them correctly.
        let mut a = Vec::new();
        logical(epoch_floor(1) | 1, 7, 10).encode(&mut a);
        logical(epoch_floor(1) | 3, 7, 30).encode(&mut a);
        storage.disk(0).append("log/00/0000000000", &a);
        let mut b = Vec::new();
        logical(epoch_floor(1) | 2, 7, 20).encode(&mut b);
        logical(epoch_floor(1) | 4, 8, 40).encode(&mut b);
        storage.disk(0).append("log/01/0000000000", &b);

        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Arc::new(Database::new(c));
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let reg = ProcRegistry::new();
        let r = replay(&test_ctx(&storage, &inv, &db, &reg, &m, 4, 5)).unwrap();
        assert_eq!(r.txns, 4);
        assert_eq!(r.replayed_commands + r.applied_writes, r.txns);
        let t = db.table(TableId::new(0)).unwrap();
        assert_eq!(
            t.get(7).unwrap().newest().1.unwrap().col(0),
            &Value::Int(30)
        );
        assert_eq!(
            t.get(8).unwrap().newest().1.unwrap().col(0),
            &Value::Int(40)
        );
        // Single-version recovered state.
        assert_eq!(t.get(7).unwrap().num_versions(), 1);
    }

    #[test]
    fn llr_p_online_applies_and_publishes_watermarks() {
        let storage = StorageSet::for_tests();
        let mut a = Vec::new();
        logical(epoch_floor(1) | 1, 7, 10).encode(&mut a);
        logical(epoch_floor(1) | 3, 7, 30).encode(&mut a);
        storage.disk(0).append("log/00/0000000000", &a);
        let mut b = Vec::new();
        logical(epoch_floor(2) | 5, 8, 40).encode(&mut b);
        storage.disk(0).append("log/00/0000000001", &b);

        let mut c = Catalog::new();
        c.add_table_sharded("t", 1, 2);
        let db = Arc::new(Database::new(c));
        let map = ShardMap::new(&db);
        let gate = pacman_engine::RecoveryGate::new(map.total());
        gate.set_total_batches(2);
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let reg = ProcRegistry::new();
        let ctx = ReplayCtx {
            gate: Some(&gate),
            ..test_ctx(&storage, &inv, &db, &reg, &m, 3, u64::MAX)
        };
        let r = replay(&ctx).unwrap();
        assert_eq!(r.txns, 3);
        let t = db.table(TableId::new(0)).unwrap();
        assert_eq!(
            t.get(7).unwrap().newest().1.unwrap().col(0),
            &Value::Int(30)
        );
        assert_eq!(
            t.get(8).unwrap().newest().1.unwrap().col(0),
            &Value::Int(40)
        );
        // Every shard partition reached the final watermark.
        for p in 0..gate.num_partitions() {
            assert!(gate.is_ready(p), "partition {p} never completed");
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        assert!(gate.admit(&[0, gate.num_partitions() - 1], &stop));
    }

    #[test]
    fn llr_p_online_rejects_command_records() {
        let storage = StorageSet::for_tests();
        let rec = TxnLogRecord {
            ts: epoch_floor(1) | 1,
            payload: LogPayload::Command {
                proc: pacman_common::ProcId::new(0),
                params: vec![].into(),
            },
        };
        storage.disk(0).append("log/00/0000000000", &rec.to_bytes());
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Arc::new(Database::new(c));
        let map = ShardMap::new(&db);
        let gate = pacman_engine::RecoveryGate::new(map.total());
        gate.set_total_batches(1);
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let reg = ProcRegistry::new();
        let ctx = ReplayCtx {
            gate: Some(&gate),
            ..test_ctx(&storage, &inv, &db, &reg, &m, 2, u64::MAX)
        };
        assert!(replay(&ctx).is_err());
    }

    #[test]
    fn llr_p_rejects_command_records() {
        let storage = StorageSet::for_tests();
        let rec = TxnLogRecord {
            ts: epoch_floor(1) | 1,
            payload: LogPayload::Command {
                proc: pacman_common::ProcId::new(0),
                params: vec![].into(),
            },
        };
        storage.disk(0).append("log/00/0000000000", &rec.to_bytes());
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Arc::new(Database::new(c));
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let reg = ProcRegistry::new();
        assert!(replay(&test_ctx(&storage, &inv, &db, &reg, &m, 2, 5)).is_err());
    }
}
