//! The set-up every workload shares: TPC-C at `TpccConfig::bench(4)` under
//! command logging on two `bench_disk` devices, and the stamp that records
//! it next to every result.

use crate::restart::Image;
use pacman_engine::Database;
use pacman_obs::Json;
use pacman_sproc::ProcRegistry;
use pacman_storage::{DiskConfig, StorageSet};
use pacman_wal::{Durability, DurabilityConfig, LogScheme};
use pacman_workloads::tpcc::{Tpcc, TpccConfig};
use pacman_workloads::Workload;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// TPC-C warehouses.
pub const WAREHOUSES: u64 = 4;
/// Simulated devices, one logger and one checkpoint writer each.
pub const DISKS: usize = 2;
/// Group-commit epoch length.
pub const EPOCH: Duration = Duration::from_millis(3);
/// Epochs per log batch file.
pub const BATCH_EPOCHS: u64 = 16;
/// Incremental checkpoint cadence of the processing workloads.
pub const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);
/// Retries before a client gives up on an aborting transaction. A client
/// retries an OCC abort until the transaction commits, as a TPC-C terminal
/// does; a cap of a few retries would turn the rare long run of conflicts
/// between two clients into a failure on some runs and not on others. The
/// cap only keeps a livelock from hanging a run.
pub const MAX_RETRIES: u32 = 10_000;
/// Client threads of the processing workloads (capped at the host's
/// hardware threads).
pub const CLIENTS: usize = 2;

/// Hardware threads of this host.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop clients of a processing workload.
pub fn clients() -> usize {
    CLIENTS.min(host_cores())
}

/// Recovery threads: one per hardware thread.
pub fn recovery_threads() -> usize {
    host_cores()
}

/// The standard TPC-C mix (45/43/4/4/4) or the read-heavy one (10/8/2/40/40).
pub fn tpcc(read_heavy: bool) -> Tpcc {
    let cfg = TpccConfig::bench(WAREHOUSES);
    Tpcc::new(if read_heavy { cfg.read_heavy() } else { cfg })
}

/// The device model: the harness's 1/10-scaled SSD.
pub fn disk() -> DiskConfig {
    pacman_bench::bench_disk()
}

fn durability_config(checkpoint: Option<Duration>) -> DurabilityConfig {
    DurabilityConfig {
        scheme: LogScheme::Command,
        num_loggers: DISKS,
        epoch_interval: EPOCH,
        batch_epochs: BATCH_EPOCHS,
        checkpoint_interval: checkpoint,
        checkpoint_threads: DISKS,
        checkpoint_incremental: true,
        fsync: true,
        ..Default::default()
    }
}

/// A running system.
pub struct System {
    /// Live database.
    pub db: Arc<Database>,
    /// Command logging (and the periodic checkpointer, when armed).
    pub durability: Arc<Durability>,
    /// The devices.
    pub storage: StorageSet,
    /// TPC-C procedures.
    pub registry: ProcRegistry,
}

/// Load TPC-C, start command logging and write the initial checkpoint of
/// the loaded database. `checkpoint` arms the periodic incremental
/// checkpointer.
pub fn boot(workload: &Tpcc, checkpoint: Option<Duration>) -> System {
    let db = Arc::new(Database::new(workload.catalog()));
    workload.load(&db);
    let storage = StorageSet::identical(DISKS, disk());
    let durability = Durability::start(
        Arc::clone(&db),
        storage.clone(),
        durability_config(checkpoint),
    );
    pacman_wal::run_checkpoint(&db, &storage, DISKS).expect("initial checkpoint");
    System {
        db,
        durability,
        storage,
        registry: workload.registry(),
    }
}

/// A clean cut of a running system: stop it, write a full checkpoint that
/// covers every commit, reclaim the log and chain links below it (as the
/// periodic checkpointer does after each round) and reopen command logging
/// on the same devices without a periodic checkpointer.
pub fn clean_cut(sys: System) -> Result<System, String> {
    sys.durability.shutdown();
    let (_, chain) =
        pacman_wal::checkpoint::run_checkpoint_full_chained(&sys.db, &sys.storage, DISKS)
            .map_err(|e| format!("clean-cut checkpoint: {e}"))?;
    sys.durability.retention().reclaim(&chain);
    let (durability, _) = Durability::reopen(
        Arc::clone(&sys.db),
        sys.storage.clone(),
        durability_config(None),
    );
    Ok(System { durability, ..sys })
}

/// Resume service on a recovered database: reopen command logging on the
/// devices it was recovered from.
pub fn reopen(db: Arc<Database>, image: &Image, checkpoint: Option<Duration>) -> System {
    let (durability, _) = Durability::reopen(
        Arc::clone(&db),
        image.storage.clone(),
        durability_config(checkpoint),
    );
    System {
        db,
        durability,
        storage: image.storage.clone(),
        registry: image.registry.clone(),
    }
}

/// The git revision of the checkout at `root`, read from `.git` without
/// running git (`"unknown"` outside a git checkout).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a number depends on besides the code: host shape, seed,
/// revision, device model and durability policy.
pub fn stamp(workload: &str, seed: u64) -> Json {
    let d = disk();
    let num = Json::Float;
    let int = |v: usize| Json::Int(v as u64);
    let text = |v: &str| Json::Str(v.into());
    Json::Obj(vec![
        ("workload".into(), text(workload)),
        ("seed".into(), Json::Int(seed)),
        ("git_revision".into(), text(&git_revision(Path::new(".")))),
        ("host_cores".into(), int(host_cores())),
        ("client_threads".into(), int(clients())),
        ("logging_client_threads".into(), int(1)),
        ("recovery_threads".into(), int(recovery_threads())),
        ("tpcc_warehouses".into(), Json::Int(WAREHOUSES)),
        (
            "device".into(),
            Json::Obj(vec![
                ("model".into(), text(&d.name)),
                ("count".into(), int(DISKS)),
                ("read_mb_s".into(), num(d.read_bw / 1e6)),
                ("write_mb_s".into(), num(d.write_bw / 1e6)),
                (
                    "fsync_us".into(),
                    Json::Int(d.fsync_latency.as_micros() as u64),
                ),
            ]),
        ),
        ("log_scheme".into(), text("command")),
        ("loggers".into(), int(DISKS)),
        ("epoch_ms".into(), num(EPOCH.as_secs_f64() * 1e3)),
        ("batch_epochs".into(), Json::Int(BATCH_EPOCHS)),
        (
            "checkpoint".into(),
            text(&format!(
                "incremental every {} s while clients serve; \
                 none while the single client logs an image or tail",
                CHECKPOINT_EVERY.as_secs_f64()
            )),
        ),
        ("flush_policy".into(), text("fsync on every epoch seal")),
    ])
}
