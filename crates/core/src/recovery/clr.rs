//! CLR: conventional command log recovery (§6.2).
//!
//! Log files are reloaded into memory in parallel, but the lost committed
//! transactions are then re-executed *in sequence by a single thread* —
//! the paper's motivating bottleneck ("CLR took over 4,200 seconds … to
//! complete the log recovery", §6.2.2).

use crate::recovery::{read_merged_batch, LogRecovery, ReplayCtx};
use crate::runtime::exec::replay_record_serial;
use pacman_common::Result;
use std::time::Instant;

/// CLR log recovery. With a gate it publishes batch watermarks: CLR
/// replays strictly serially, so every block advances together and after
/// batch `k` every partition's watermark is `k + 1` (on-demand priority
/// has nothing to reorder on a single thread).
pub fn replay(ctx: &ReplayCtx) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let mut log = LogRecovery::default();
    for (bi, batch) in ctx.inventory.batches().into_iter().enumerate() {
        let tr = Instant::now();
        let merged =
            read_merged_batch(ctx.storage, ctx.inventory, batch, ctx.pepoch, ctx.after_ts)?;
        log.reload += tr.elapsed();
        ctx.metrics.add_load(tr.elapsed());
        let tw = Instant::now();
        for rec in &merged.records {
            replay_record_serial(ctx.db, ctx.registry, rec)?;
            log.count_record(rec);
            ctx.metrics.count_txn();
        }
        ctx.metrics.add_work(tw.elapsed());
        if let Some(g) = ctx.gate {
            for p in 0..g.num_partitions() {
                g.publish(p, bi as u64 + 1);
            }
        }
    }
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
    use std::sync::Arc;

    const T: TableId = TableId::new(0);

    #[test]
    fn clr_reexecutes_in_commit_order() {
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ProcId::new(0), "SetAdd", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();

        let storage = StorageSet::for_tests();
        let mut buf = Vec::new();
        for (i, amt) in [(1u64, 5i64), (2, 7), (3, -2)] {
            TxnLogRecord {
                ts: epoch_floor(1) | i,
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: vec![Value::Int(1), Value::Int(amt)].into(),
                },
            }
            .encode(&mut buf);
        }
        storage.disk(0).append("log/00/0000000000", &buf);

        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Arc::new(Database::new(c));
        db.seed_row(T, 1, Row::from([Value::Int(100)])).unwrap();
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let r = replay(&test_ctx(&storage, &inv, &db, &reg, &m, 1, 5)).unwrap();
        assert_eq!(r.txns, 3);
        assert_eq!(r.replayed_commands, 3);
        let chain = db.table(T).unwrap().get(1).unwrap();
        assert_eq!(chain.newest().1.unwrap().col(0), &Value::Int(110));
        assert_eq!(m.txns(), 3);
    }
}
