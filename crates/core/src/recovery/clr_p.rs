//! CLR-P: PACMAN — parallel command log recovery (§4, §6.2).
//!
//! A loader thread streams batches off the devices, merges them into
//! commitment order, instantiates execution schedules from the global
//! dependency graph and feeds them to the block worker groups of the
//! [`crate::runtime`], which estimates the workload distribution from the
//! first batch's schedule (§4.4); replay runs in one of the three
//! modes of Fig. 19 (pure-static / synchronous / pipelined).

use crate::recovery::{read_merged_batch, LogRecovery, ReplayCtx};
use crate::runtime::{run_replay, ReplayMode};
use crate::schedule::ExecutionSchedule;
use crate::static_analysis::GlobalGraph;
use pacman_common::Result;
use std::sync::Arc;
use std::time::Instant;

/// CLR-P (PACMAN) log recovery over the dependency graph `gdg` — also
/// ALR-P, since [`ExecutionSchedule`] dispatches every payload kind:
/// command records into interpreter slices, logical and proc-tagged
/// records into write-only pieces. With a gate it publishes per-block
/// batch watermarks and prioritizes blocks with waiting admissions.
pub fn replay(ctx: &ReplayCtx, gdg: &Arc<GlobalGraph>, mode: ReplayMode) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let batches = ctx.inventory.batches();
    if batches.is_empty() {
        return Ok(LogRecovery::default());
    }

    let (tx, rx) = crossbeam::channel::bounded::<ExecutionSchedule>(4);
    let (replayed, loaded) = crossbeam::thread::scope(|scope| {
        // Loader: stream the batches in order; the runtime takes its
        // workload distribution estimate from the first (§4.4). Returning
        // early drops `tx`, which ends the replay.
        let loader = scope.spawn(move |_| -> Result<LogRecovery> {
            let mut log = LogRecovery::default();
            for &b in &batches {
                let t0 = Instant::now();
                let merged =
                    read_merged_batch(ctx.storage, ctx.inventory, b, ctx.pepoch, ctx.after_ts)?;
                merged.records.iter().for_each(|r| log.count_record(r));
                let schedule = ExecutionSchedule::build(gdg, ctx.registry, &merged)?;
                let dt = t0.elapsed();
                log.reload += dt;
                ctx.metrics.add_load(dt);
                if tx.send(schedule).is_err() {
                    break; // replay aborted
                }
            }
            Ok(log)
        });
        let gate = ctx.gate.cloned();
        let replayed = run_replay(ctx.db, gdg, mode, ctx.threads, ctx.metrics, rx, gate);
        (replayed, loader.join().expect("clr-p loader"))
    })
    .expect("clr-p scope");
    replayed?;
    let mut log = loaded?;
    log.total = t0.elapsed();
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RecoveryMetrics;
    use crate::recovery::{test_ctx, LogInventory};
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_engine::{Catalog, Database};
    use pacman_sproc::{Expr, ProcBuilder, ProcRegistry};
    use pacman_storage::StorageSet;
    use pacman_wal::{LogPayload, TxnLogRecord};

    const FAMILY: TableId = TableId::new(0);
    const CURRENT: TableId = TableId::new(1);
    const SAVING: TableId = TableId::new(2);

    fn registry() -> ProcRegistry {
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ProcId::new(0), "Transfer", 2);
        let dst = b.read(FAMILY, Expr::param(0), 0);
        b.guarded(Expr::not_null(Expr::var(dst)), |b| {
            let src_val = b.read(CURRENT, Expr::param(0), 0);
            b.write(
                CURRENT,
                Expr::param(0),
                0,
                Expr::sub(Expr::var(src_val), Expr::param(1)),
            );
            let dst_val = b.read(CURRENT, Expr::var(dst), 0);
            b.write(
                CURRENT,
                Expr::var(dst),
                0,
                Expr::add(Expr::var(dst_val), Expr::param(1)),
            );
            let bonus = b.read(SAVING, Expr::param(0), 0);
            b.write(
                SAVING,
                Expr::param(0),
                0,
                Expr::add(Expr::var(bonus), Expr::int(1)),
            );
        });
        reg.register(b.build().unwrap()).unwrap();
        reg
    }

    fn bank_db() -> Arc<Database> {
        let mut c = Catalog::new();
        c.add_table("family", 1);
        c.add_table("current", 1);
        c.add_table("saving", 1);
        let db = Arc::new(Database::new(c));
        for k in 0..10u64 {
            let spouse = if k % 2 == 0 { (k + 1) as i64 } else { -1 };
            let spouse_val = if spouse >= 0 {
                Value::Int(spouse)
            } else {
                Value::str("NULL")
            };
            db.seed_row(FAMILY, k, Row::from([spouse_val])).unwrap();
            db.seed_row(CURRENT, k, Row::from([Value::Int(1000)]))
                .unwrap();
            db.seed_row(SAVING, k, Row::from([Value::Int(0)])).unwrap();
        }
        db
    }

    fn write_logs(storage: &StorageSet, n: u64, per_batch: u64) {
        let mut buf = Vec::new();
        let mut batch = 0;
        for i in 0..n {
            let src = (i * 2) % 10; // even accounts have spouses
            TxnLogRecord {
                ts: epoch_floor(1 + i / 4) | (i + 1),
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: vec![Value::Int(src as i64), Value::Int(1)].into(),
                },
            }
            .encode(&mut buf);
            if (i + 1) % per_batch == 0 {
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
                buf.clear();
                batch += 1;
            }
        }
        if !buf.is_empty() {
            storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        }
    }

    fn run(mode: ReplayMode, threads: usize) -> (Arc<Database>, LogRecovery) {
        let reg = registry();
        let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
        let storage = StorageSet::for_tests();
        write_logs(&storage, 40, 8);
        let db = bank_db();
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let ctx = test_ctx(&storage, &inv, &db, &reg, &m, threads, u64::MAX);
        let r = replay(&ctx, &gdg, mode).unwrap();
        assert_eq!(r.replayed_commands, r.txns);
        (db, r)
    }

    #[test]
    fn all_modes_recover_identical_state() {
        let (db_ps, r_ps) = run(ReplayMode::PureStatic, 4);
        let (db_sync, r_sync) = run(ReplayMode::Synchronous, 4);
        let (db_pipe, r_pipe) = run(ReplayMode::Pipelined, 4);
        assert_eq!(r_ps.txns, 40);
        assert_eq!(r_sync.txns, 40);
        assert_eq!(r_pipe.txns, 40);
        let f = db_ps.fingerprint();
        assert_eq!(f, db_sync.fingerprint());
        assert_eq!(f, db_pipe.fingerprint());
    }

    #[test]
    fn recovered_values_are_exact() {
        let (db, _) = run(ReplayMode::Pipelined, 8);
        // 40 transfers of 1, sources cycle over even accounts 0,2,4,6,8
        // (8 times each); each even account loses 8, its spouse gains 8,
        // and its saving gains 8 bonuses.
        let mut t = db.begin();
        assert_eq!(t.read(CURRENT, 0).unwrap().col(0), &Value::Int(992));
        assert_eq!(t.read(CURRENT, 1).unwrap().col(0), &Value::Int(1008));
        assert_eq!(t.read(SAVING, 0).unwrap().col(0), &Value::Int(8));
        assert_eq!(t.read(SAVING, 1).unwrap().col(0), &Value::Int(0));
    }

    #[test]
    fn single_thread_still_works() {
        let (db, r) = run(ReplayMode::Pipelined, 1);
        assert_eq!(r.txns, 40);
        let mut t = db.begin();
        assert_eq!(t.read(CURRENT, 0).unwrap().col(0), &Value::Int(992));
    }

    #[test]
    fn empty_log_is_trivial() {
        let reg = registry();
        let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
        let storage = StorageSet::for_tests();
        let db = bank_db();
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let ctx = test_ctx(&storage, &inv, &db, &reg, &m, 4, u64::MAX);
        let r = replay(&ctx, &gdg, ReplayMode::Pipelined).unwrap();
        assert_eq!(r.txns, 0);
    }

    /// ALR-P: CLR-P over the adaptive scheme's mixed log, where command
    /// records re-execute and proc-tagged logical records install their
    /// after-images as write-only pieces.
    mod mixed_log {
        use super::*;
        use pacman_engine::{WriteKind, WriteRecord};

        const ACCT: TableId = TableId::new(0);
        const AUDIT: TableId = TableId::new(1);

        /// Two procedures: a cheap RMW on ACCT and a "heavy" audit updating
        /// AUDIT. The mixed log interleaves command records (cheap proc) with
        /// proc-tagged logical records (heavy proc).
        fn registry() -> ProcRegistry {
            let mut reg = ProcRegistry::new();
            let mut b = ProcBuilder::new(ProcId::new(0), "Inc", 2);
            let v = b.read(ACCT, Expr::param(0), 0);
            b.write(
                ACCT,
                Expr::param(0),
                0,
                Expr::add(Expr::var(v), Expr::param(1)),
            );
            reg.register(b.build().unwrap()).unwrap();
            let mut b = ProcBuilder::new(ProcId::new(1), "Audit", 2);
            let v = b.read(AUDIT, Expr::param(0), 0);
            b.write(
                AUDIT,
                Expr::param(0),
                0,
                Expr::add(Expr::var(v), Expr::param(1)),
            );
            reg.register(b.build().unwrap()).unwrap();
            reg
        }

        fn db() -> Arc<Database> {
            let mut c = Catalog::new();
            c.add_table("acct", 1);
            c.add_table("audit", 1);
            let db = Arc::new(Database::new(c));
            for k in 0..8u64 {
                db.seed_row(ACCT, k, Row::from([Value::Int(100)])).unwrap();
                db.seed_row(AUDIT, k, Row::from([Value::Int(0)])).unwrap();
            }
            db
        }

        fn mixed_log(storage: &StorageSet, n: u64, per_batch: u64) -> (u64, u64) {
            let mut buf = Vec::new();
            let mut batch = 0;
            let mut audit_totals = [0i64; 8];
            let (mut commands, mut logicals) = (0, 0);
            for i in 0..n {
                let ts = epoch_floor(1 + i / 4) | (i + 1);
                let k = i % 8;
                if i % 3 == 0 {
                    // "Heavy" transaction: log the after-image directly.
                    audit_totals[k as usize] += 5;
                    TxnLogRecord {
                        ts,
                        payload: LogPayload::TaggedWrites {
                            proc: ProcId::new(1),
                            writes: vec![WriteRecord {
                                table: AUDIT,
                                key: k,
                                kind: WriteKind::Update,
                                after: Some(std::sync::Arc::new(Row::from([Value::Int(
                                    audit_totals[k as usize],
                                )]))),
                                prev_ts: 0,
                            }],
                        },
                    }
                    .encode(&mut buf);
                    logicals += 1;
                } else {
                    TxnLogRecord {
                        ts,
                        payload: LogPayload::Command {
                            proc: ProcId::new(0),
                            params: vec![Value::Int(k as i64), Value::Int(1)].into(),
                        },
                    }
                    .encode(&mut buf);
                    commands += 1;
                }
                if (i + 1) % per_batch == 0 {
                    storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
                    buf.clear();
                    batch += 1;
                }
            }
            if !buf.is_empty() {
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
            }
            (commands, logicals)
        }

        fn run(mode: ReplayMode, threads: usize) -> (Arc<Database>, LogRecovery) {
            let reg = registry();
            let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
            let storage = StorageSet::for_tests();
            mixed_log(&storage, 48, 8);
            let db = db();
            let inv = LogInventory::scan(&storage);
            let m = Arc::new(RecoveryMetrics::new());
            let r = replay(
                &test_ctx(&storage, &inv, &db, &reg, &m, threads, u64::MAX),
                &gdg,
                mode,
            )
            .unwrap();
            (db, r)
        }

        #[test]
        fn mixed_batches_replay_and_count_formats() {
            let (db, r) = run(ReplayMode::Pipelined, 4);
            assert_eq!(r.txns, 48);
            assert_eq!(r.replayed_commands, 32);
            assert_eq!(r.applied_writes, 16);
            // Commands re-executed: every key saw 4 increments of 1.
            let mut t = db.begin();
            assert_eq!(t.read(ACCT, 0).unwrap().col(0), &Value::Int(104));
            // Logical records short-circuited: after-images installed as-is.
            assert_eq!(t.read(AUDIT, 0).unwrap().col(0), &Value::Int(10));
        }

        #[test]
        fn all_modes_agree_on_mixed_logs() {
            let (db_ps, _) = run(ReplayMode::PureStatic, 4);
            let (db_sync, _) = run(ReplayMode::Synchronous, 4);
            let (db_pipe, _) = run(ReplayMode::Pipelined, 8);
            let f = db_ps.fingerprint();
            assert_eq!(f, db_sync.fingerprint());
            assert_eq!(f, db_pipe.fingerprint());
        }

        #[test]
        fn empty_inventory_is_trivial() {
            let reg = registry();
            let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
            let storage = StorageSet::for_tests();
            let db = db();
            let inv = LogInventory::scan(&storage);
            let m = Arc::new(RecoveryMetrics::new());
            let r = replay(
                &test_ctx(&storage, &inv, &db, &reg, &m, 2, u64::MAX),
                &gdg,
                ReplayMode::Pipelined,
            )
            .unwrap();
            assert_eq!(r.txns, 0);
        }
    }
}
