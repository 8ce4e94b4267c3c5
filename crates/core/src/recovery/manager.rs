//! End-to-end recovery orchestration (§2.3), in two shapes:
//!
//! * [`recover`] — the classic *offline* call: checkpoint restore + log
//!   replay run to completion before the database is handed back;
//! * [`recover_online`] — *instant restart*: checkpoint restore runs
//!   inline, then a [`RecoverySession`] replays the log on background
//!   workers while the engine serves new transactions, gated per replay
//!   partition through a [`pacman_engine::RecoveryGate`] (see
//!   `docs/RECOVERY.md`, "Online recovery lifecycle").

use crate::metrics::{Breakdown, RecoveryMetrics};
use crate::recovery::checkpoint::{
    recover_checkpoint_chain, run_lazy_loader, CheckpointRecovery, CheckpointTarget,
};
use crate::recovery::gate::{scheme_admission, GatedAdmission, ShardMap};
use crate::recovery::raw::RawStore;
use crate::recovery::{clr, clr_p, llr, llr_p, plr, LogInventory, LogRecovery, ReplayCtx};
use crate::runtime::ReplayMode;
use crate::static_analysis::GlobalGraph;
use pacman_common::clock::{epoch_floor, epoch_of, EPOCH_SHIFT};
use pacman_common::{Error, Result, Timestamp};
use pacman_engine::{AdmissionControl, Catalog, Database, RecoveryGate};
use pacman_obs::{RecoveryPhase, TraceEvent};
use pacman_sproc::ProcRegistry;
use pacman_storage::{StorageSet, TraceDumpSink};
use pacman_wal::checkpoint::{read_chain, CheckpointChain};
use pacman_wal::pepoch::PepochHandle;
use pacman_wal::{Durability, RetentionHold};
use parking_lot::{Condvar, Mutex};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Distinguishes concurrent recoveries' dump-sink registrations on the
/// shared (usually global) tracer.
static RECOVERY_SINK_IDS: AtomicU64 = AtomicU64::new(0);

/// Registers a uniquely-keyed [`TraceDumpSink`] over this recovery's own
/// `StorageSet` and unregisters it on drop: concurrent recoveries in one
/// process never cross-write dumps into each other's storage, and a
/// finished recovery stops pinning its `StorageSet` through the tracer.
/// Keep the guard alive through the point where a failure dump can fire
/// (gate poison happens on the session thread, so the session owns it).
struct RecoverySinkGuard {
    key: String,
}

impl RecoverySinkGuard {
    fn register(storage: &StorageSet) -> RecoverySinkGuard {
        let key = format!(
            "recovery-{}",
            RECOVERY_SINK_IDS.fetch_add(1, Ordering::Relaxed)
        );
        pacman_obs::tracer().set_sink(&key, Arc::new(TraceDumpSink::new(storage.clone())));
        RecoverySinkGuard { key }
    }
}

impl Drop for RecoverySinkGuard {
    fn drop(&mut self) {
        pacman_obs::tracer().remove_sink(&self.key);
    }
}

/// Which recovery scheme to run (§6.2's five competitors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryScheme {
    /// Physical log recovery; `latch = false` is the Fig. 15 ablation.
    Plr {
        /// Acquire per-tuple latches during replay.
        latch: bool,
    },
    /// SiloR-style logical log recovery.
    Llr {
        /// Acquire per-tuple latches during replay.
        latch: bool,
    },
    /// Parallel latch-free logical recovery adapted from PACMAN (§4.5).
    LlrP,
    /// Single-threaded command log recovery.
    Clr,
    /// PACMAN.
    ClrP {
        /// Replay mode (Fig. 19 ablation; `Pipelined` is full PACMAN).
        mode: ReplayMode,
    },
    /// Adaptive hybrid log recovery: CLR-P over a mixed command/logical
    /// log (`LogScheme::Adaptive`); the variant labels the run.
    AlrP {
        /// Replay mode (`Pipelined` is the full scheme).
        mode: ReplayMode,
    },
}

impl RecoveryScheme {
    /// Label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryScheme::Plr { latch: true } => "PLR",
            RecoveryScheme::Plr { latch: false } => "PLR-nolatch",
            RecoveryScheme::Llr { latch: true } => "LLR",
            RecoveryScheme::Llr { latch: false } => "LLR-nolatch",
            RecoveryScheme::LlrP => "LLR-P",
            RecoveryScheme::Clr => "CLR",
            RecoveryScheme::ClrP {
                mode: ReplayMode::PureStatic,
            } => "CLR-P/static",
            RecoveryScheme::ClrP {
                mode: ReplayMode::Synchronous,
            } => "CLR-P/sync",
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            } => "CLR-P",
            RecoveryScheme::AlrP {
                mode: ReplayMode::PureStatic,
            } => "ALR-P/static",
            RecoveryScheme::AlrP {
                mode: ReplayMode::Synchronous,
            } => "ALR-P/sync",
            RecoveryScheme::AlrP {
                mode: ReplayMode::Pipelined,
            } => "ALR-P",
        }
    }
}

/// Recovery configuration.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Scheme to run.
    pub scheme: RecoveryScheme,
    /// Recovery threads (the x-axis of Figs. 13-15).
    pub threads: usize,
}

/// Timing report of one recovery run (the raw material of Figs. 13-17/20).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Scheme label.
    pub scheme: String,
    /// Threads used.
    pub threads: usize,
    /// Pure checkpoint file reloading (Fig. 13a), seconds.
    pub checkpoint_reload_secs: f64,
    /// Overall checkpoint recovery (Fig. 13b), seconds.
    pub checkpoint_total_secs: f64,
    /// Pure log file reloading (Fig. 14a), seconds.
    pub log_reload_secs: f64,
    /// Overall log recovery (Fig. 14b), seconds.
    pub log_total_secs: f64,
    /// End-to-end recovery (Fig. 16), seconds.
    pub total_secs: f64,
    /// Time breakdown (Fig. 20).
    pub breakdown: Breakdown,
    /// Transactions replayed.
    pub txns: u64,
    /// Command records re-executed (mixed-log replay accounting).
    pub replayed_commands: u64,
    /// Tuple-level records applied as after-images.
    pub applied_writes: u64,
    /// Tuples restored from the checkpoint.
    pub checkpoint_tuples: u64,
    /// Manifest-chain links the base image was resolved across (0 = no
    /// checkpoint, 1 = a single full snapshot).
    pub ckpt_chain_len: usize,
    /// Checkpoint shards loaded on demand (a blocked admission wanted
    /// them; lazy online reload only).
    pub ondemand_shard_loads: u64,
    /// Checkpoint shards loaded by the background sweep (lazy online
    /// reload only).
    pub background_shard_loads: u64,
    /// The durability frontier used.
    pub pepoch: u64,
    /// Checkpoint coverage timestamp (0 = no checkpoint found).
    pub ckpt_ts: Timestamp,
}

/// A recovered database plus its report.
pub struct RecoveryOutcome {
    /// The recovered, ready-to-serve database.
    pub db: Arc<Database>,
    /// Timings and counters.
    pub report: RecoveryReport,
}

/// Emit a recovery phase transition to the tracer.
fn phase(phase: RecoveryPhase) {
    pacman_obs::tracer().emit(TraceEvent::Phase { phase });
}

/// What both recovery shapes read before restoring anything, and the
/// state one recovery carries from that scan to its report.
struct Scan {
    t_all: Instant,
    storage: StorageSet,
    registry: ProcRegistry,
    scheme: RecoveryScheme,
    threads: usize,
    metrics: Arc<RecoveryMetrics>,
    /// Failure dumps of this recovery land in its own storage while the
    /// scan lives.
    _sink: RecoverySinkGuard,
    pepoch: u64,
    chain: Option<CheckpointChain>,
    inventory: LogInventory,
    db: Arc<Database>,
    /// PLR's index-free restore target (unused by the other schemes).
    raw: RawStore,
    /// Built on first use by the schemes that need it (see [`Scan::gdg`]).
    gdg: OnceCell<Arc<GlobalGraph>>,
}

impl Scan {
    fn new(
        storage: &StorageSet,
        catalog: &Catalog,
        registry: &ProcRegistry,
        config: &RecoveryConfig,
    ) -> Result<Scan> {
        let t_all = Instant::now();
        let metrics = Arc::new(RecoveryMetrics::new());
        metrics.register_into(pacman_obs::registry());
        let sink = RecoverySinkGuard::register(storage);
        phase(RecoveryPhase::Scan);
        Ok(Scan {
            t_all,
            storage: storage.clone(),
            registry: registry.clone(),
            scheme: config.scheme,
            threads: config.threads.max(1),
            metrics,
            _sink: sink,
            pepoch: PepochHandle::read_persisted(storage.disk(0)),
            chain: read_chain(storage)?,
            inventory: LogInventory::scan(storage),
            db: Arc::new(Database::new(catalog.clone())),
            raw: RawStore::new(catalog.len()),
            gdg: OnceCell::new(),
        })
    }

    /// The global dependency graph, for the schemes that need one: CLR-P
    /// and ALR-P replay over it, and online sessions size their gate by
    /// it. Static analysis happens at compile time (§4.1); the graph is
    /// rebuilt here for self-containedness. The other offline schemes
    /// never analyse the registry, so they also recover logs of
    /// procedures the §5 key-computability check rejects.
    fn gdg(&self) -> Result<&Arc<GlobalGraph>> {
        if let Some(g) = self.gdg.get() {
            return Ok(g);
        }
        let g = Arc::new(GlobalGraph::analyze(self.registry.all())?);
        Ok(self.gdg.get_or_init(|| g))
    }

    /// The one scheme dispatch: each apply strategy's replay function,
    /// offline, or online when `gate` is set. ALR-P is CLR-P over a mixed
    /// log.
    fn replay(&self, after_ts: Timestamp, gate: Option<&Arc<RecoveryGate>>) -> Result<LogRecovery> {
        let ctx = ReplayCtx {
            storage: &self.storage,
            inventory: &self.inventory,
            db: &self.db,
            registry: &self.registry,
            threads: self.threads,
            pepoch: self.pepoch,
            after_ts,
            metrics: &self.metrics,
            gate,
        };
        match self.scheme {
            RecoveryScheme::Plr { latch } => plr::replay(&ctx, &self.raw, latch),
            RecoveryScheme::Llr { latch } => llr::replay(&ctx, latch),
            RecoveryScheme::LlrP => llr_p::replay(&ctx),
            RecoveryScheme::Clr => clr::replay(&ctx),
            RecoveryScheme::ClrP { mode } | RecoveryScheme::AlrP { mode } => {
                clr_p::replay(&ctx, self.gdg()?, mode)
            }
        }
    }

    /// Resume the clock past everything replayed and report the run.
    fn report(&self, ckpt: &CheckpointRecovery, log: &LogRecovery) -> RecoveryReport {
        self.db.clock().advance_to(log.max_ts.max(ckpt.ckpt_ts) + 1);
        RecoveryReport {
            scheme: self.scheme.label().to_string(),
            threads: self.threads,
            checkpoint_reload_secs: ckpt.reload.as_secs_f64(),
            checkpoint_total_secs: ckpt.total.as_secs_f64(),
            log_reload_secs: log.reload.as_secs_f64(),
            log_total_secs: log.total.as_secs_f64(),
            total_secs: self.t_all.elapsed().as_secs_f64(),
            breakdown: self.metrics.breakdown(),
            txns: log.txns,
            replayed_commands: log.replayed_commands,
            applied_writes: log.applied_writes,
            checkpoint_tuples: ckpt.tuples,
            ckpt_chain_len: ckpt.chain_len,
            ondemand_shard_loads: self.metrics.ondemand_shard_loads(),
            background_shard_loads: self.metrics.background_shard_loads(),
            pepoch: self.pepoch,
            ckpt_ts: ckpt.ckpt_ts,
        }
    }
}

/// Run full recovery (checkpoint + log) against what the crash left on the
/// devices.
pub fn recover(
    storage: &StorageSet,
    catalog: &Catalog,
    registry: &ProcRegistry,
    config: &RecoveryConfig,
) -> Result<RecoveryOutcome> {
    let scan = Scan::new(storage, catalog, registry, config)?;

    // Stage 1: checkpoint recovery — every offline scheme restores the
    // manifest chain eagerly through the parallel shard loader.
    phase(RecoveryPhase::Load);
    let ckpt = match &scan.chain {
        None => CheckpointRecovery::default(),
        Some(c) => {
            let target = match config.scheme {
                RecoveryScheme::Plr { .. } => CheckpointTarget::Raw(&scan.raw),
                _ => CheckpointTarget::Tables(&scan.db),
            };
            recover_checkpoint_chain(storage, c, scan.threads, target)?
        }
    };

    // Stage 2: log recovery.
    phase(RecoveryPhase::Replay);
    let log = scan.replay(ckpt.ckpt_ts, None)?;
    let report = scan.report(&ckpt, &log);
    phase(RecoveryPhase::Complete);
    Ok(RecoveryOutcome {
        db: Arc::clone(&scan.db),
        report,
    })
}

/// Lifecycle state of an online recovery session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Background workers are still replaying the log; admission is
    /// partition-gated.
    Replaying,
    /// Replay finished; the gate is permanently open.
    Complete,
    /// Recovery hit an error; the gate was *poisoned* — blocked waiters
    /// unblock with `false` and nothing further is admitted, because the
    /// half-recovered state is not trustworthy. [`RecoverySession::wait`]
    /// returns the error.
    Failed,
}

struct SessionInner {
    state: SessionState,
    report: Option<RecoveryReport>,
    error: Option<Error>,
    /// Retention hold pinning the session's unreplayed tail (and blocking
    /// checkpoint rounds) in a reopened durability stack — released at
    /// `Complete`, leaked (held forever) at `Failed`. See
    /// [`RecoverySession::pin_retention_on`].
    hold: Option<RetentionHold>,
}

struct SessionShared {
    inner: Mutex<SessionInner>,
    cv: Condvar,
}

/// Handle to an in-flight online recovery: the database is live and may
/// serve admitted transactions while PACMAN replay proceeds on background
/// workers. Dropping the handle without calling [`RecoverySession::wait`]
/// detaches the replay (it still runs to completion through the shared
/// state, but errors go unobserved), so call `wait` when the outcome
/// matters.
pub struct RecoverySession {
    db: Arc<Database>,
    gate: Arc<RecoveryGate>,
    admission: Arc<GatedAdmission>,
    shared: Arc<SessionShared>,
    join: Option<JoinHandle<()>>,
    /// Log floor of the session's unreplayed tail (epoch of the base
    /// image's coverage; 0 with no checkpoint) — what a retention hold
    /// must keep.
    pin_log_epoch: u64,
    /// Root timestamp of the chain the base image resolves across
    /// (`u64::MAX` with no checkpoint: no chain interest).
    pin_chain_root: Timestamp,
}

impl RecoverySession {
    /// The live (still-recovering) database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The replay-watermark gate (partition-level introspection).
    pub fn gate(&self) -> &Arc<RecoveryGate> {
        &self.gate
    }

    /// Admission control for transaction drivers: blocks a transaction
    /// until its static footprint is fully replayed.
    pub fn admission(&self) -> Arc<dyn AdmissionControl> {
        Arc::clone(&self.admission) as Arc<dyn AdmissionControl>
    }

    /// The typed admission handle (footprint introspection in tests).
    pub fn gated_admission(&self) -> &Arc<GatedAdmission> {
        &self.admission
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.shared.inner.lock().state
    }

    /// Whether replay has finished (successfully or not).
    pub fn is_settled(&self) -> bool {
        self.state() != SessionState::Replaying
    }

    /// Pin this session's unreplayed tail in `durability`'s retention
    /// manager: one recovery [`RetentionHold`] keeps the log batches the
    /// replay still reads (epochs at or above the base image's coverage)
    /// and the manifest chain it resolves against, and blocks checkpoint
    /// rounds while live — a checkpoint taken mid-replay would snapshot
    /// at a fresh timestamp while old-timestamp installs still race the
    /// scan, claiming coverage it does not have.
    ///
    /// Call it right after [`Durability::reopen`] over the same devices.
    /// The hold is released when the session completes; a *failed*
    /// session leaks it — the half-recovered state is suspect, so
    /// checkpoints and reclamation stay blocked for good.
    pub fn pin_retention_on(&self, durability: &Arc<Durability>) {
        let mut inner = self.shared.inner.lock();
        match inner.state {
            SessionState::Complete => {} // nothing left to pin
            SessionState::Replaying => {
                inner.hold = Some(
                    durability
                        .retention()
                        .pin_recovery(self.pin_log_epoch, self.pin_chain_root),
                );
            }
            // A checkpoint of the suspect state would replace the last
            // good one (and reclaim the log below it) — pin, never release.
            SessionState::Failed => durability
                .retention()
                .pin_recovery(self.pin_log_epoch, self.pin_chain_root)
                .leak(),
        }
    }

    /// Block until replay completes and return the recovered database plus
    /// the report (the offline-equivalent outcome).
    pub fn wait(mut self) -> Result<RecoveryOutcome> {
        {
            let mut inner = self.shared.inner.lock();
            while inner.state == SessionState::Replaying {
                self.shared.cv.wait(&mut inner);
            }
        }
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        let mut inner = self.shared.inner.lock();
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        let report = inner
            .report
            .take()
            .ok_or_else(|| Error::Unknown("recovery session finished without a report".into()))?;
        Ok(RecoveryOutcome {
            db: Arc::clone(&self.db),
            report,
        })
    }
}

/// Start an online recovery session: restore the checkpoint inline, then
/// replay the log on background workers while the returned session's
/// database serves admitted transactions.
///
/// Supported schemes: `Clr`, `ClrP`, `AlrP` (per-block gating) and `LlrP`
/// (per-table-shard gating). `Plr`/`Llr` recover multi-version state with
/// per-tuple latches and have no partition watermark to gate on — use
/// [`recover`] for those.
pub fn recover_online(
    storage: &StorageSet,
    catalog: &Catalog,
    registry: &ProcRegistry,
    config: &RecoveryConfig,
) -> Result<RecoverySession> {
    if matches!(
        config.scheme,
        RecoveryScheme::Plr { .. } | RecoveryScheme::Llr { .. }
    ) {
        return Err(Error::InvalidConfig(format!(
            "online recovery is not defined for {}: no partition watermark to gate on",
            config.scheme.label()
        )));
    }
    let scan = Scan::new(storage, catalog, registry, config)?;

    // Stage 1: base-image restore. Command schemes load the chain eagerly
    // inline (their replay re-executes reads, so the whole base image
    // must be resident before replay starts). The tuple scheme (LLR-P)
    // defers the load *into* the session: shards stream in lazily on
    // background workers, and the gate's residency plane admits a
    // transaction as soon as its own shards are in.
    let lazy = config.scheme == RecoveryScheme::LlrP;
    phase(RecoveryPhase::Load);
    let ckpt: CheckpointRecovery = match &scan.chain {
        None => CheckpointRecovery::default(),
        Some(c) if !lazy => {
            recover_checkpoint_chain(storage, c, scan.threads, CheckpointTarget::Tables(&scan.db))?
        }
        Some(c) => CheckpointRecovery {
            ckpt_ts: c.ts(),
            chain_len: c.len(),
            ..Default::default()
        },
    };
    let after_ts = ckpt.ckpt_ts;

    // New commits must sort strictly after everything the log can still
    // install: push the clock past the durability frontier's epoch (every
    // replayable record has epoch <= pepoch) and the checkpoint snapshot.
    // A legacy `u64::MAX` frontier ("everything durable" sentinel) gives
    // no epoch bound up front; the post-replay advance to `max_ts + 1`
    // covers it once the log has been read.
    let mut clock_floor = after_ts.saturating_add(1);
    if scan.pepoch != u64::MAX {
        let next_epoch = scan.pepoch.saturating_add(1).min(u64::MAX >> EPOCH_SHIFT);
        clock_floor = clock_floor.max(epoch_floor(next_epoch));
    }
    scan.db.clock().advance_to(clock_floor);

    // Gate + footprint map, sized by the scheme's partition space; the
    // lazy tuple scheme's residency plane shares the shard numbering, so
    // one footprint gates both.
    let admission = scheme_admission(config.scheme, &scan.db, scan.gdg()?, registry, lazy);
    let gate = Arc::clone(admission.gate());
    if lazy && scan.chain.is_none() {
        gate.set_all_resident();
    }
    gate.set_total_batches(scan.inventory.batches().len() as u64);

    // What a retention hold must keep for this session: log batches that
    // may contain the unreplayed tail (records with ts above the base
    // image can share the coverage epoch's batch), and every link of the
    // chain the base image resolves across (root..tip).
    let pin_log_epoch = epoch_of(after_ts);
    let pin_chain_root = scan
        .chain
        .as_ref()
        .map(|c| c.manifests.last().expect("chains are non-empty").ts)
        .unwrap_or(u64::MAX);

    let shared = Arc::new(SessionShared {
        inner: Mutex::new(SessionInner {
            state: SessionState::Replaying,
            report: None,
            error: None,
            hold: None,
        }),
        cv: Condvar::new(),
    });

    let db = Arc::clone(&scan.db);
    let join = {
        let shared = Arc::clone(&shared);
        let gate = Arc::clone(&gate);
        std::thread::Builder::new()
            .name("recovery-session".into())
            .spawn(move || {
                // A panic anywhere in the recovery body must still settle
                // the session (gate poisoned, waiters woken) — otherwise
                // every blocked admission and `wait()` caller hangs.
                phase(RecoveryPhase::Replay);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || -> Result<RecoveryReport> {
                        let mut ckpt = ckpt;
                        let log = match &scan.chain {
                            // The lazy base-image loader races the replay on
                            // purpose: both sides install timestamped LWW
                            // (part timestamps sort below every replayed
                            // record), so per-shard arrival order is
                            // immaterial and the gate — residency plus final
                            // watermark — is the only admission condition.
                            Some(c) if lazy => crossbeam::thread::scope(|scope| {
                                let loader = scope.spawn(|_| {
                                    let shards = ShardMap::new(&scan.db);
                                    run_lazy_loader(
                                        &scan.storage,
                                        c,
                                        &scan.db,
                                        &gate,
                                        |p| {
                                            shards
                                                .shard_partition(p.table as usize, p.shard as usize)
                                        },
                                        scan.threads,
                                        &scan.metrics,
                                    )
                                });
                                let log = scan.replay(after_ts, Some(&gate));
                                let loaded = loader.join().expect("lazy loader thread")?;
                                ckpt.tuples = loaded.tuples;
                                ckpt.reload = loaded.reload;
                                ckpt.total = loaded.total;
                                log
                            })
                            .expect("llr-p online session scope")?,
                            _ => scan.replay(after_ts, Some(&gate))?,
                        };
                        Ok(scan.report(&ckpt, &log))
                    },
                ))
                .unwrap_or_else(|_| Err(Error::Unknown("recovery session panicked".into())));
                // Settle the gate first so waiters never hang: open it on
                // success, *poison* it on failure — a half-recovered state
                // (missing base-image shards, unreplayed partitions) must
                // not serve commits; blocked admissions unblock with
                // `false` and nothing further is admitted.
                match &result {
                    Ok(_) => {
                        phase(RecoveryPhase::Complete);
                        gate.finish();
                    }
                    Err(_) => {
                        // `fail()` poisons the gate and triggers the
                        // flight-recorder failure dump.
                        phase(RecoveryPhase::Failed);
                        gate.fail();
                    }
                }
                let mut inner = shared.inner.lock();
                match result {
                    Ok(report) => {
                        inner.state = SessionState::Complete;
                        inner.report = Some(report);
                        // Release the retention hold: checkpoints (and the
                        // reclamation behind them) may resume.
                        inner.hold = None;
                    }
                    Err(e) => {
                        inner.state = SessionState::Failed;
                        inner.error = Some(e);
                        // The hold is leaked, never released: the state is
                        // suspect, so checkpoints and reclamation stay
                        // blocked for the process lifetime.
                        if let Some(h) = inner.hold.take() {
                            h.leak();
                        }
                    }
                }
                shared.cv.notify_all();
                // The failure dump (inside `gate.fail()`) has landed by
                // now; release this session's sink registration so it
                // stops pinning the StorageSet and can never swallow a
                // later recovery's dumps.
                drop(scan);
            })
            .map_err(|e| Error::Unknown(format!("spawn recovery session: {e}")))?
    };

    Ok(RecoverySession {
        db,
        gate,
        admission,
        shared,
        join: Some(join),
        pin_log_epoch,
        pin_chain_root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_wal::{LogPayload, TxnLogRecord};

    const T: TableId = TableId::new(0);

    fn setup() -> (Catalog, ProcRegistry, StorageSet) {
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ProcId::new(0), "Add", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();
        (c, reg, StorageSet::for_tests())
    }

    /// Build a pre-crash database, checkpoint the seeded state, write a
    /// command log for the updates, and verify CLR and every CLR-P mode
    /// recover the same fingerprint.
    #[test]
    fn command_schemes_agree_end_to_end() {
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(0)]))
                .unwrap();
        }
        // Checkpoint the seeded state so recovery has a base image.
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let mut buf = Vec::new();
        for i in 0..30u64 {
            let key = i % 8;
            let params: Vec<Value> = vec![Value::Int(key as i64), Value::Int(1)];
            // Apply to the reference through the engine.
            let mut txn = reference.begin();
            let r = txn.read(T, key).unwrap();
            let v = r.col(0).as_int().unwrap();
            txn.write(T, key, r.with_col(0, Value::Int(v + 1))).unwrap();
            let info = txn.commit_with(|| 1 + i / 10).unwrap();
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: params.into(),
                },
            }
            .encode(&mut buf);
            if (i + 1) % 10 == 0 {
                storage
                    .disk(0)
                    .append(&format!("log/00/{:010}", i / 10), &buf);
                buf.clear();
            }
        }
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());

        for scheme in [
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            RecoveryScheme::ClrP {
                mode: ReplayMode::Synchronous,
            },
            RecoveryScheme::ClrP {
                mode: ReplayMode::PureStatic,
            },
        ] {
            let out = recover(
                &storage,
                &catalog,
                &reg,
                &RecoveryConfig { scheme, threads: 4 },
            )
            .unwrap();
            assert_eq!(out.report.checkpoint_tuples, 8);
            assert_eq!(
                out.db.fingerprint(),
                reference.fingerprint(),
                "{} diverged",
                out.report.scheme
            );
            assert_eq!(out.report.txns, 30);
            assert_eq!(
                out.report.replayed_commands + out.report.applied_writes,
                out.report.txns,
                "{} replay mix",
                out.report.scheme
            );
        }
    }

    /// CLR re-executes whole commands and never analyses the registry, so
    /// it recovers a procedure whose write key comes from a read in the
    /// same piece — which the §5 check rejects, failing only CLR-P.
    #[test]
    fn clr_recovers_procedures_the_graph_rejects() {
        let mut catalog = Catalog::new();
        catalog.add_table("t", 2);
        let mut reg = ProcRegistry::new();
        // Redirect(k, d): t[t[k].0].1 += d.
        let mut b = ProcBuilder::new(ProcId::new(0), "Redirect", 2);
        let dst = b.read(T, Expr::param(0), 0);
        let v = b.read(T, Expr::var(dst), 1);
        b.write(
            T,
            Expr::var(dst),
            1,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();
        assert!(matches!(
            GlobalGraph::analyze(reg.all()),
            Err(Error::InvalidProcedure(_))
        ));

        let storage = StorageSet::for_tests();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            let row = Row::from([Value::Int(((k + 3) % 8) as i64), Value::Int(0)]);
            reference.seed_row(T, k, row).unwrap();
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let mut buf = Vec::new();
        for i in 0..20u64 {
            let key = i % 8;
            let mut txn = reference.begin();
            let dst = txn.read(T, key).unwrap().col(0).as_int().unwrap() as u64;
            let r = txn.read(T, dst).unwrap();
            let v = r.col(1).as_int().unwrap();
            txn.write(T, dst, r.with_col(1, Value::Int(v + 2))).unwrap();
            let info = txn.commit_with(|| 1).unwrap();
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: vec![Value::Int(key as i64), Value::Int(2)].into(),
                },
            }
            .encode(&mut buf);
        }
        storage.disk(0).append("log/00/0000000001", &buf);
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());

        let config = |scheme| RecoveryConfig { scheme, threads: 2 };
        let out = recover(&storage, &catalog, &reg, &config(RecoveryScheme::Clr)).unwrap();
        assert_eq!(out.db.fingerprint(), reference.fingerprint());
        assert_eq!(out.report.txns, 20);
        assert_eq!(out.report.replayed_commands, 20);
        let clr_p = RecoveryScheme::ClrP {
            mode: ReplayMode::Pipelined,
        };
        assert!(matches!(
            recover(&storage, &catalog, &reg, &config(clr_p)),
            Err(Error::InvalidProcedure(_))
        ));
    }

    /// Online recovery must converge to exactly the offline result, and
    /// its gate must go from closed to permanently open.
    #[test]
    fn online_recovery_matches_offline() {
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(0)]))
                .unwrap();
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let mut buf = Vec::new();
        for i in 0..30u64 {
            let key = i % 8;
            let params: Vec<Value> = vec![Value::Int(key as i64), Value::Int(1)];
            let mut txn = reference.begin();
            let r = txn.read(T, key).unwrap();
            let v = r.col(0).as_int().unwrap();
            txn.write(T, key, r.with_col(0, Value::Int(v + 1))).unwrap();
            let info = txn.commit_with(|| 1 + i / 10).unwrap();
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: params.into(),
                },
            }
            .encode(&mut buf);
            if (i + 1) % 10 == 0 {
                storage
                    .disk(0)
                    .append(&format!("log/00/{:010}", i / 10), &buf);
                buf.clear();
            }
        }
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());

        for scheme in [
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            RecoveryScheme::AlrP {
                mode: ReplayMode::Pipelined,
            },
        ] {
            let session = recover_online(
                &storage,
                &catalog,
                &reg,
                &RecoveryConfig { scheme, threads: 4 },
            )
            .unwrap();
            // Admission through the public trait: blocks until the proc's
            // footprint (here: the single block) is replayed, then passes.
            let admission = session.admission();
            let stop = std::sync::atomic::AtomicBool::new(false);
            assert!(admission.admit(
                ProcId::new(0),
                &pacman_sproc::params([Value::Int(3), Value::Int(1)]),
                &stop
            ));
            let out = session.wait().unwrap();
            assert_eq!(out.report.txns, 30, "{}", out.report.scheme);
            assert_eq!(
                out.db.fingerprint(),
                reference.fingerprint(),
                "{} diverged online",
                out.report.scheme
            );
            assert!(admission.is_open());
            // The clock resumed past everything replayed: a fresh commit
            // must take a strictly newer timestamp.
            let mut t = out.db.begin();
            let r = t.read(T, 0).unwrap();
            t.write(T, 0, r.clone()).unwrap();
            assert!(t.commit().is_ok());
        }
    }

    #[test]
    fn online_rejects_latched_schemes() {
        let (catalog, reg, storage) = setup();
        for scheme in [
            RecoveryScheme::Plr { latch: true },
            RecoveryScheme::Llr { latch: false },
        ] {
            assert!(recover_online(
                &storage,
                &catalog,
                &reg,
                &RecoveryConfig { scheme, threads: 2 }
            )
            .is_err());
        }
    }

    #[test]
    fn online_empty_directory_opens_immediately() {
        let (catalog, reg, storage) = setup();
        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::ClrP {
                    mode: ReplayMode::Pipelined,
                },
                threads: 2,
            },
        )
        .unwrap();
        let out = session.wait().unwrap();
        assert_eq!(out.report.txns, 0);
        assert_eq!(out.db.total_tuples(), 0);
    }

    /// A lazy LLR-P session whose base image cannot be fully loaded must
    /// settle `Failed` with a *closed* gate: admitting against the
    /// half-loaded image would serve (and durably log) corrupt state.
    #[test]
    fn llr_p_lazy_load_failure_poisons_the_gate() {
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..64u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        // Corrupt the chain behind recovery's back: delete one part the
        // tip manifest references.
        let manifest = pacman_wal::checkpoint::read_manifest(&storage)
            .unwrap()
            .unwrap();
        let (table, shard, disk) = manifest.parts[0];
        storage
            .disk(disk as usize)
            .delete(&pacman_wal::checkpoint::part_name(
                manifest.ts,
                table,
                shard as usize,
            ));
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());

        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::LlrP,
                threads: 2,
            },
        )
        .unwrap();
        let admission = session.admission();
        let gate = Arc::clone(session.gate());
        let err = session.wait();
        assert!(err.is_err(), "missing part must fail the session");
        assert!(gate.is_failed());
        assert!(!admission.is_open());
        assert!(
            !admission.try_admit(
                ProcId::new(0),
                &pacman_sproc::params([Value::Int(1), Value::Int(1)])
            ),
            "a poisoned gate must not admit anything"
        );
    }

    /// A tip manifest referencing a shard outside the catalog must fail
    /// the lazy session *cleanly* — settled `Failed`, gate poisoned — not
    /// panic the session thread and leave waiters hanging.
    #[test]
    fn llr_p_corrupt_manifest_fails_cleanly() {
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..16u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let mut manifest = pacman_wal::checkpoint::read_manifest(&storage)
            .unwrap()
            .unwrap();
        manifest.parts.push((0, 999, 0)); // shard outside the catalog
        storage
            .disk(0)
            .write_file(pacman_wal::checkpoint::MANIFEST_FILE, &manifest.to_bytes());
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());

        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::LlrP,
                threads: 2,
            },
        )
        .unwrap();
        let gate = Arc::clone(session.gate());
        assert!(session.wait().is_err(), "corrupt manifest must fail");
        assert!(gate.is_failed(), "gate must be poisoned, not left hanging");
    }

    /// Retention pinning: a settled-complete session pins nothing; a
    /// failed session leaks a permanent hold — the suspect state must
    /// never be checkpointed over (or have its log reclaimed).
    #[test]
    fn pin_retention_complete_vs_failed() {
        use pacman_wal::{Durability, DurabilityConfig, LogScheme};
        let (catalog, reg, storage) = setup();
        let dur_config = DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 1,
            epoch_interval: std::time::Duration::from_millis(2),
            batch_epochs: 4,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: false,
            ..Default::default()
        };

        // Complete: once the session settles cleanly, pinning takes no
        // hold — checkpoints (and reclamation) run unimpeded.
        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::Clr,
                threads: 1,
            },
        )
        .unwrap();
        let t0 = std::time::Instant::now();
        while !session.is_settled() {
            assert!(t0.elapsed() < std::time::Duration::from_secs(5));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (dur, _info) = Durability::reopen(
            Arc::clone(session.db()),
            storage.clone(),
            dur_config.clone(),
        );
        session.pin_retention_on(&dur);
        assert!(
            !dur.retention().checkpoints_held(),
            "a settled-complete session must not pin"
        );
        session.wait().unwrap();
        dur.shutdown();

        // Failed: a corrupt base image fails the session; pinning then
        // leaks a permanent recovery hold on the durability stack.
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..64u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let manifest = pacman_wal::checkpoint::read_manifest(&storage)
            .unwrap()
            .unwrap();
        let (table, shard, disk) = manifest.parts[0];
        storage
            .disk(disk as usize)
            .delete(&pacman_wal::checkpoint::part_name(
                manifest.ts,
                table,
                shard as usize,
            ));
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());
        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::LlrP,
                threads: 2,
            },
        )
        .unwrap();
        // Settle first (deterministic), then pin: the Failed arm leaks.
        let fresh = Arc::new(Database::new(catalog.clone()));
        let (dur, _info) = Durability::reopen(fresh, storage.clone(), dur_config);
        let err = {
            let t0 = std::time::Instant::now();
            while !session.is_settled() {
                assert!(t0.elapsed() < std::time::Duration::from_secs(5));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            session.pin_retention_on(&dur);
            session.wait()
        };
        assert!(err.is_err(), "missing part must fail the session");
        assert!(
            dur.retention().checkpoints_held(),
            "a failed session must leave a permanent recovery hold"
        );
        dur.shutdown();
    }

    #[test]
    fn missing_everything_recovers_empty() {
        let (catalog, reg, storage) = setup();
        let out = recover(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::Clr,
                threads: 2,
            },
        )
        .unwrap();
        assert_eq!(out.db.total_tuples(), 0);
        assert_eq!(out.report.txns, 0);
    }
}
