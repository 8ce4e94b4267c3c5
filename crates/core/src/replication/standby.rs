//! The standby engine: a database continuously applying a primary's
//! shipped log, promotable to a full primary in an epoch drain.
//!
//! The apply session mirrors `recover_online`'s structure, made
//! open-ended:
//!
//! * **command/mixed schemes** (CLR / CLR-P / ALR-P) feed each
//!   seal-delimited apply batch through [`crate::schedule::ExecutionSchedule`]
//!   into the PACMAN runtime ([`crate::runtime::run_replay`]),
//!   whose per-block watermarks publish to the shared
//!   [`pacman_engine::RecoveryGate`];
//! * the **tuple scheme** (LLR-P) partitions each batch's after-images
//!   onto per-(table, shard) queues drained latch-free by a worker pool,
//!   publishing per-shard watermarks — the same shape as LLR-P online
//!   recovery, fed by the wire instead of a device scan.
//!
//! In both cases the gate's *total* is bumped to the shipped apply-batch
//! count before each batch is fed, so "partition final" continuously
//! means "caught up with everything shipped": the watermarks measure
//! replication lag, and the same [`GatedAdmission`] that gates admission
//! during online recovery now gates standby reads on footprint
//! freshness. Epoch timestamps give clean separation between apply
//! batches, so last-writer-wins installs make batch application
//! insensitive to within-batch arrival order per partition, and OCC read
//! validation protects read-only transactions racing the installs.

use crate::metrics::RecoveryMetrics;
use crate::recovery::checkpoint::{
    recover_checkpoint_chain, resync_checkpoint_chain, CheckpointTarget,
};
use crate::recovery::gate::{scheme_admission, GatedAdmission, ShardMap};
use crate::recovery::shard_apply::{run_shard_worker, ShardApply};
use crate::recovery::RecoveryScheme;
use crate::runtime::{run_replay, ReplayMode};
use crate::schedule::ExecutionSchedule;
use crate::static_analysis::GlobalGraph;
use pacman_common::clock::epoch_floor;
use pacman_common::codec::Cursor;
use pacman_common::{Decoder, Error, ProcId, Result, Timestamp};
use pacman_engine::{
    run_procedure, AdmissionControl, Catalog, Database, RecoveryGate, WriteRecord,
};
use pacman_obs::{Counter as ObsCounter, TraceEvent};
use pacman_sproc::{Params, ProcRegistry};
use pacman_storage::StorageSet;
use pacman_wal::checkpoint::MANIFEST_FILE;
use pacman_wal::pepoch::PEPOCH_FILE;
use pacman_wal::{
    read_chain, Durability, DurabilityConfig, LogBatch, LogPayload, ResumeInfo, ShipFrame,
    TxnLogRecord,
};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Standby configuration.
#[derive(Clone, Debug)]
pub struct StandbyConfig {
    /// Apply scheme — must match the primary's log format: `ClrP`/`Clr`
    /// for command logs, `LlrP` for logical logs, `AlrP` for adaptive
    /// (mixed) logs. `Plr`/`Llr` have no partition watermark and are
    /// rejected, exactly as in `recover_online`.
    pub scheme: RecoveryScheme,
    /// Apply worker threads.
    pub threads: usize,
}

/// Lifecycle state of a standby.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandbyState {
    /// Consuming the stream; reads are gated on footprint freshness.
    Applying,
    /// The session hit an error (corrupt frame, apply failure); the gate
    /// was poisoned and the standby must be discarded.
    Failed,
}

/// Live replication counters (the lag metrics of `fig_failover`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicationStats {
    /// Seal-delimited apply batches shipped into the session.
    pub shipped_batches: u64,
    /// Apply batches fully applied (slowest partition's watermark).
    pub applied_batches: u64,
    /// `shipped - applied`: the replication lag in apply batches.
    pub lag_batches: u64,
    /// Log bytes received off the wire.
    pub received_log_bytes: u64,
    /// Log bytes whose apply batch is fully applied.
    pub applied_log_bytes: u64,
    /// Transactions fed into the apply session.
    pub txns: u64,
    /// The standby's durable frontier (highest shipped seal).
    pub pepoch: u64,
    /// Completed re-bootstraps: the primary broke this subscriber's
    /// cursor (bounded-lag retention) and the standby resynced its base
    /// image onto a freshly shipped chain tip.
    pub rebootstraps: u64,
}

/// What the apply session did by promote time.
#[derive(Clone, Copy, Debug, Default)]
pub struct StandbyReport {
    /// Apply batches applied.
    pub batches: u64,
    /// Transactions applied.
    pub txns: u64,
    /// Command records re-executed.
    pub replayed_commands: u64,
    /// Tuple-level records installed as after-images.
    pub applied_writes: u64,
    /// Log bytes received off the wire.
    pub received_log_bytes: u64,
    /// Tuples restored from the bootstrap chain.
    pub checkpoint_tuples: u64,
    /// Wall seconds the promote drain took (tail drain + session finish).
    pub promote_secs: f64,
}

/// A promoted standby: a full read-write primary over the standby's own
/// (shipped) log directory.
pub struct PromotedPrimary {
    /// The live database.
    pub db: Arc<Database>,
    /// Resumed durability stack (the PR 2 `reopen` path over the shipped
    /// log: epoch numbering continues strictly past the applied frontier).
    pub durability: Arc<Durability>,
    /// What `reopen` found and resumed from.
    pub resume: ResumeInfo,
    /// Apply-session totals.
    pub report: StandbyReport,
}

struct StateInner {
    state: StandbyState,
    error: Option<Error>,
}

/// Shared standby counters/state.
struct Shared {
    state: Mutex<StateInner>,
    cv: Condvar,
    /// Drain-and-exit signal for the receiver.
    promote: AtomicBool,
    /// True until the stream head is processed (bootstrap chain loaded,
    /// or the first seal handled): reads must not be admitted against an
    /// empty or half-loaded base image just because the gate total is
    /// still 0.
    bootstrap_pending: AtomicBool,
    /// A [`ShipFrame::Reset`] arrived: the next shipped chain tip is a
    /// re-bootstrap base image to resync onto, not bookkeeping.
    resync_pending: AtomicBool,
    /// Completed re-bootstraps. These five are detached
    /// [`pacman_obs::Counter`] handles, bound into the global registry
    /// under `standby.*` names at session start.
    rebootstraps: ObsCounter,
    received_log_bytes: ObsCounter,
    txns: ObsCounter,
    commands: ObsCounter,
    writes: ObsCounter,
    max_ts: AtomicU64,
    pepoch: AtomicU64,
    /// Bootstrap chain coverage: shipped records at `ts <=` this are
    /// already in the base image and are skipped at feed time.
    after_ts: AtomicU64,
    ckpt_tuples: AtomicU64,
    /// Per fed-but-not-yet-applied batch seq: `(received log bytes,
    /// highest epoch in the batch)`. Drained into the metrics' applied
    /// counters (and the span table's `Applied` stage) as the apply
    /// frontier advances.
    batch_bytes: Mutex<BTreeMap<u64, (u64, u64)>>,
}

impl Shared {
    fn fail(&self, gate: &RecoveryGate, e: Error) {
        gate.fail();
        let mut st = self.state.lock();
        if st.error.is_none() {
            st.error = Some(e);
        }
        st.state = StandbyState::Failed;
        self.cv.notify_all();
    }
}

/// How the receiver hands apply batches to the running engine.
enum Feed {
    /// Command/mixed schemes: schedules into the PACMAN runtime.
    Sched {
        tx: crossbeam::channel::Sender<ExecutionSchedule>,
        gdg: Arc<GlobalGraph>,
        registry: ProcRegistry,
    },
    /// Tuple scheme: per-shard queues.
    Shards {
        state: Arc<ShardApply>,
        map: ShardMap,
    },
}

/// A hot standby consuming a primary's ship stream.
pub struct Standby {
    db: Arc<Database>,
    storage: StorageSet,
    registry: ProcRegistry,
    gate: Arc<RecoveryGate>,
    admission: Arc<GatedAdmission>,
    shared: Arc<Shared>,
    metrics: Arc<RecoveryMetrics>,
    recv_join: Option<JoinHandle<()>>,
    apply_joins: Vec<JoinHandle<()>>,
    shard_state: Option<Arc<ShardApply>>,
    /// This session's gate probe in the process-wide watchdog (removed on
    /// drop so a discarded standby cannot read as stalled forever).
    gate_probe: pacman_obs::ProbeId,
}

/// Register a stall-watchdog probe over a recovery/replication gate:
/// *work* is the batches fed (`total_batches`), *progress* the slowest
/// partition's applied watermark. The probe is inactive before the first
/// batch is fed and after the gate finished or failed — a poisoned gate
/// already dumped through its own hook; the watchdog's job is the silent
/// wedge where batches keep arriving but the watermark stops.
///
/// `start_standby` installs one per session (removed on [`Standby`] drop);
/// exposed for recovery drivers and tests that run a gate directly.
pub fn register_gate_probe(gate: &Arc<RecoveryGate>) -> pacman_obs::ProbeId {
    let gate = Arc::clone(gate);
    pacman_obs::watchdog().register("standby.gate", pacman_obs::StallKind::Gate, move || {
        if gate.is_complete() || gate.is_failed() {
            return None;
        }
        let total = gate.total_batches();
        if total == 0 {
            return None;
        }
        Some(pacman_obs::ProbeSample {
            work: total,
            progress: gate.min_watermark(),
        })
    })
}

/// Start a standby over its own (fresh or previously-shipped) `storage`,
/// consuming encoded [`ShipFrame`]s from `rx`. The first shipped chain
/// tip bootstraps the base image; a primary should therefore checkpoint
/// at least once (covering its initial load) before a standby attaches —
/// timestamp-0 seed rows are never logged, so the log alone cannot
/// reproduce them.
pub fn start_standby(
    storage: StorageSet,
    catalog: &Catalog,
    registry: &ProcRegistry,
    config: &StandbyConfig,
    rx: crossbeam::channel::Receiver<Vec<u8>>,
) -> Result<Standby> {
    if matches!(
        config.scheme,
        RecoveryScheme::Plr { .. } | RecoveryScheme::Llr { .. }
    ) {
        return Err(Error::InvalidConfig(format!(
            "standby apply is not defined for {}: no partition watermark to gate on",
            config.scheme.label()
        )));
    }
    let threads = config.threads.max(1);
    let db = Arc::new(Database::new(catalog.clone()));
    let metrics = Arc::new(RecoveryMetrics::new());

    // Gate + footprint map, as in `recover_online` — but the total starts
    // at 0 ("caught up with nothing shipped yet") and moves with every
    // seal, so admission tracks the shipped frontier.
    let gdg = Arc::new(GlobalGraph::analyze(registry.all())?);
    let admission = scheme_admission(config.scheme, &db, &gdg, registry, false);
    let gate = Arc::clone(admission.gate());
    gate.set_total_batches(0);

    let shared = Arc::new(Shared {
        state: Mutex::new(StateInner {
            state: StandbyState::Applying,
            error: None,
        }),
        cv: Condvar::new(),
        promote: AtomicBool::new(false),
        bootstrap_pending: AtomicBool::new(true),
        resync_pending: AtomicBool::new(false),
        rebootstraps: ObsCounter::new(),
        received_log_bytes: ObsCounter::new(),
        txns: ObsCounter::new(),
        commands: ObsCounter::new(),
        writes: ObsCounter::new(),
        max_ts: AtomicU64::new(0),
        pepoch: AtomicU64::new(0),
        after_ts: AtomicU64::new(0),
        ckpt_tuples: AtomicU64::new(0),
        batch_bytes: Mutex::new(BTreeMap::new()),
    });
    // Bind this standby's counters into the global registry: rebinding on
    // a later standby replaces the handles, so a snapshot always reflects
    // the latest session.
    {
        let r = pacman_obs::registry();
        r.bind_counter("standby.rebootstraps", &shared.rebootstraps);
        r.bind_counter("standby.received_log_bytes", &shared.received_log_bytes);
        r.bind_counter("standby.txns", &shared.txns);
        r.bind_counter("standby.commands", &shared.commands);
        r.bind_counter("standby.writes", &shared.writes);
    }
    metrics.register_into(pacman_obs::registry());

    // Apply engine.
    let mut apply_joins = Vec::new();
    let mut shard_state = None;
    let feed = match config.scheme {
        RecoveryScheme::LlrP => {
            let shards = ShardMap::new(&db);
            let state = Arc::new(ShardApply::new(shards.total()));
            for worker in 0..threads {
                let state = Arc::clone(&state);
                let db = Arc::clone(&db);
                let gate = Arc::clone(&gate);
                let metrics = Arc::clone(&metrics);
                apply_joins.push(
                    std::thread::Builder::new()
                        .name(format!("standby-shard-{worker}"))
                        .spawn(move || run_shard_worker(&state, &db, &gate, &metrics, worker))
                        .map_err(|e| Error::Unknown(format!("spawn standby worker: {e}")))?,
                );
            }
            shard_state = Some(Arc::clone(&state));
            Feed::Shards { state, map: shards }
        }
        scheme => {
            let mode = match scheme {
                RecoveryScheme::ClrP { mode } | RecoveryScheme::AlrP { mode } => mode,
                _ => ReplayMode::PureStatic, // Clr: serial per-block apply
            };
            let (tx, srx) = crossbeam::channel::unbounded::<ExecutionSchedule>();
            let db2 = Arc::clone(&db);
            let gdg2 = Arc::clone(&gdg);
            let gate2 = Arc::clone(&gate);
            let metrics2 = Arc::clone(&metrics);
            let shared2 = Arc::clone(&shared);
            let threads = if matches!(scheme, RecoveryScheme::Clr) {
                1
            } else {
                threads
            };
            apply_joins.push(
                std::thread::Builder::new()
                    .name("standby-replay".into())
                    .spawn(move || {
                        let gate = Some(Arc::clone(&gate2));
                        if let Err(e) = run_replay(&db2, &gdg2, mode, threads, &metrics2, srx, gate)
                        {
                            shared2.fail(&gate2, e);
                        }
                    })
                    .map_err(|e| Error::Unknown(format!("spawn standby replay: {e}")))?,
            );
            Feed::Sched {
                tx,
                gdg: Arc::clone(&gdg),
                registry: registry.clone(),
            }
        }
    };

    // Receiver: decode frames, persist them into the standby's own
    // directory, and feed seal-delimited batches to the apply engine.
    let recv_join = {
        let db = Arc::clone(&db);
        let gate = Arc::clone(&gate);
        let shared = Arc::clone(&shared);
        let storage = storage.clone();
        let metrics = Arc::clone(&metrics);
        let threads_for_bootstrap = threads;
        std::thread::Builder::new()
            .name("standby-recv".into())
            .spawn(move || {
                let mut rs = ReceiverState {
                    db,
                    storage,
                    gate: Arc::clone(&gate),
                    shared: Arc::clone(&shared),
                    metrics,
                    feed,
                    pending: Vec::new(),
                    pending_bytes: 0,
                    seq: 0,
                    threads: threads_for_bootstrap,
                };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rs.run(rx)))
                    .unwrap_or_else(|_| Err(Error::Unknown("standby receiver panicked".into())));
                match result {
                    Ok(()) => {}
                    Err(e) => shared.fail(&gate, e),
                }
                // Promote (or failure) ends the feeders either way so the
                // apply threads can drain out.
                rs.close_feed();
            })
            .map_err(|e| Error::Unknown(format!("spawn standby receiver: {e}")))?
    };

    let gate_probe = register_gate_probe(&gate);
    Ok(Standby {
        db,
        storage,
        registry: registry.clone(),
        gate,
        admission,
        shared,
        metrics,
        recv_join: Some(recv_join),
        apply_joins,
        shard_state,
        gate_probe,
    })
}

struct ReceiverState {
    db: Arc<Database>,
    storage: StorageSet,
    gate: Arc<RecoveryGate>,
    shared: Arc<Shared>,
    metrics: Arc<RecoveryMetrics>,
    feed: Feed,
    pending: Vec<TxnLogRecord>,
    pending_bytes: u64,
    seq: u64,
    threads: usize,
}

impl ReceiverState {
    fn run(&mut self, rx: crossbeam::channel::Receiver<Vec<u8>>) -> Result<()> {
        let mut disconnected = false;
        loop {
            if self.shared.promote.load(Ordering::Acquire) {
                // Drain the shipped tail already on the link, then flush
                // any sealed-but-unfed records as a final batch.
                while let Ok(bytes) = rx.try_recv() {
                    self.handle(&bytes)?;
                }
                if self.shared.resync_pending.load(Ordering::Acquire) {
                    // Reset received but the re-bootstrap base image never
                    // arrived: the primary reclaimed history this standby
                    // is missing, so its state cannot be completed.
                    return Err(Error::Unknown(
                        "standby reset without a re-bootstrap chain; promote is unsafe".into(),
                    ));
                }
                self.flush_pending()?;
                return Ok(());
            }
            if disconnected {
                // Keep folding apply progress while holding for a promote
                // decision — batches fed before the link died are still
                // being applied behind the gate.
                self.observe_applied();
                std::thread::sleep(Duration::from_micros(500));
                continue;
            }
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(bytes) => self.handle(&bytes)?,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => self.observe_applied(),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    // Link severed (primary gone): hold state and wait for
                    // a promote decision.
                    disconnected = true;
                }
            }
        }
    }

    /// Fold newly-applied batches into the metrics counters (the applied
    /// side of the shipped/applied byte accounting).
    fn observe_applied(&self) {
        let applied = self.gate.min_watermark().min(self.seq);
        let mut bb = self.shared.batch_bytes.lock();
        let done: Vec<u64> = bb.range(..=applied).map(|(s, _)| *s).collect();
        for s in done {
            let (bytes, max_epoch) = bb.remove(&s).unwrap_or((0, 0));
            self.metrics.count_applied_batch(bytes);
            // Span attribution: the batch's newest epoch is now queryable on
            // the standby (standby.apply_lag's right edge).
            pacman_obs::spans().record(max_epoch, pacman_obs::Stage::Applied);
        }
    }

    /// Block until the apply engines have fully applied every batch fed
    /// so far (all partition watermarks at `seq`). Used on a Reset,
    /// before the resync: replacing shard state while command
    /// re-execution is still in flight would let it read half-replaced
    /// rows.
    fn quiesce_applies(&self) -> Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.gate.min_watermark() < self.seq {
            if let Feed::Shards { state, .. } = &self.feed {
                if let Some(e) = state.err.lock().clone() {
                    return Err(e);
                }
            }
            if self.shared.state.lock().state == StandbyState::Failed {
                return Err(Error::Unknown("standby failed before resync".into()));
            }
            if Instant::now() >= deadline {
                return Err(Error::Unknown(
                    "standby apply engines never quiesced for resync".into(),
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.observe_applied();
        Ok(())
    }

    fn handle(&mut self, bytes: &[u8]) -> Result<()> {
        let frame = ShipFrame::decode(&mut Cursor::new(bytes))?;
        match frame {
            ShipFrame::Hello { .. } => {
                // Wire version was validated by the decoder; the layout
                // fields are informational (file names arrive explicit).
            }
            ShipFrame::Records {
                file,
                offset,
                bytes,
            } => {
                let logger = file
                    .strip_prefix("log/")
                    .and_then(|s| s.split('/').next())
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| Error::Corrupt(format!("bad shipped log file {file}")))?;
                // Exactly-once against redelivery: the shipper only
                // commits its cursor after a fully-delivered stream, so a
                // severed link can resend a run we already hold. Our own
                // copy's length is the byte position the next new run must
                // start at; an overlap is skipped (its records were
                // already buffered/applied), a gap is corruption.
                let have = self.storage.disk(logger).len(&file).unwrap_or(0) as u64;
                if offset > have {
                    return Err(Error::Corrupt(format!(
                        "ship gap in {file}: run starts at {offset}, have {have}"
                    )));
                }
                let skip = (have - offset) as usize;
                if skip >= bytes.len() {
                    return Ok(()); // pure redelivery, nothing new
                }
                let fresh = &bytes[skip..];
                // Persist first — the standby's directory must always be a
                // valid crash image — then buffer for the next seal.
                self.storage.disk(logger).append(&file, fresh);
                let after_ts = self.shared.after_ts.load(Ordering::Acquire);
                let mut cur = Cursor::new(fresh);
                while !cur.is_empty() {
                    let rec = TxnLogRecord::decode(&mut cur)?;
                    if rec.ts > after_ts {
                        self.pending.push(rec);
                    }
                }
                self.pending_bytes += fresh.len() as u64;
                self.shared.received_log_bytes.add(fresh.len() as u64);
            }
            ShipFrame::Blob { name, disk, bytes } => {
                if !name.starts_with("ckpt/") {
                    return Err(Error::Corrupt(format!("unexpected shipped blob {name}")));
                }
                // Manifests resolve parts by device index: honor the
                // shipped placement (wrapping onto fewer devices is fine —
                // recovery's reads wrap identically).
                self.storage.disk(disk as usize).write_file(&name, &bytes);
            }
            ShipFrame::ChainTip { bytes } => {
                self.storage.disk(0).write_file(MANIFEST_FILE, &bytes);
                self.storage.disk(0).fsync();
                if self.shared.resync_pending.load(Ordering::Acquire) {
                    // Re-bootstrap: the primary reclaimed log this standby
                    // never received, and this tip covers the gap. Replace
                    // every shard with the chain's state (updates install
                    // LWW, vanished keys tombstone) and drop buffered
                    // records the new base already covers.
                    let chain = read_chain(&self.storage)?
                        .ok_or_else(|| Error::Corrupt("reset chain tip unreadable".into()))?;
                    if chain.ts() > self.shared.after_ts.load(Ordering::Acquire) {
                        let ckpt =
                            resync_checkpoint_chain(&self.storage, &chain, &self.db, self.threads)?;
                        self.shared
                            .ckpt_tuples
                            .fetch_add(ckpt.tuples, Ordering::Release);
                        self.shared.after_ts.store(chain.ts(), Ordering::Release);
                        self.db.clock().advance_to(chain.ts() + 1);
                        let after = chain.ts();
                        self.pending.retain(|r| r.ts > after);
                    }
                    self.shared.resync_pending.store(false, Ordering::Release);
                    self.shared.rebootstraps.inc();
                    pacman_obs::tracer().emit(TraceEvent::StandbyRebootstrap {
                        chain_ts: self.shared.after_ts.load(Ordering::Acquire),
                    });
                } else if self.shared.after_ts.load(Ordering::Acquire) == 0 && self.seq == 0 {
                    // The first tip is the bootstrap base image: load it
                    // eagerly before anything is applied. Later tips (the
                    // primary checkpointed mid-stream) are bookkeeping
                    // only — the standby's state is already newer than
                    // the snapshot.
                    let chain = read_chain(&self.storage)?
                        .ok_or_else(|| Error::Corrupt("shipped chain tip unreadable".into()))?;
                    let ckpt = recover_checkpoint_chain(
                        &self.storage,
                        &chain,
                        self.threads,
                        CheckpointTarget::Tables(&self.db),
                    )?;
                    self.shared
                        .ckpt_tuples
                        .store(ckpt.tuples, Ordering::Release);
                    self.shared.after_ts.store(chain.ts(), Ordering::Release);
                    self.db.clock().advance_to(chain.ts() + 1);
                }
                // Base image resident (or already newer): reads may pass.
                self.shared
                    .bootstrap_pending
                    .store(false, Ordering::Release);
            }
            ShipFrame::Reset => {
                // The primary broke this subscriber's cursor (bounded-lag
                // retention) and a fresh bootstrap stream follows. Drain
                // the apply engines first: command re-execution racing the
                // coming resync would read half-replaced state. Buffered
                // (sealed-but-unfed) records are kept — the fresh cursor
                // skips what we already hold, so nothing redelivers them —
                // and the resync purges those its new base covers.
                self.quiesce_applies()?;
                self.shared.resync_pending.store(true, Ordering::Release);
                // Reads hold off until the resync lands.
                self.shared.bootstrap_pending.store(true, Ordering::Release);
            }
            ShipFrame::Seal { pepoch } => {
                // The shipped prefix is complete up to `pepoch`: persist
                // the frontier (the standby's own pepoch) and feed the
                // delimited batch. The in-memory frontier publishes only
                // after the batch is fed, so an observer seeing
                // `pepoch >= p` knows every seal at or below `p` has
                // already moved the gate's total.
                self.storage
                    .disk(0)
                    .write_file(PEPOCH_FILE, &pepoch.to_le_bytes());
                self.storage.disk(0).fsync();
                self.flush_pending()?;
                self.shared.pepoch.fetch_max(pepoch, Ordering::AcqRel);
                // A seal implies the stream head (incl. any bootstrap
                // chain, which ships ahead of records) was processed —
                // unless a resync is still owed its chain tip, in which
                // case reads keep holding off.
                if !self.shared.resync_pending.load(Ordering::Acquire) {
                    self.shared
                        .bootstrap_pending
                        .store(false, Ordering::Release);
                }
            }
        }
        Ok(())
    }

    /// Feed buffered records as one apply batch (no-op when empty).
    fn flush_pending(&mut self) -> Result<()> {
        if self.shared.resync_pending.load(Ordering::Acquire) {
            // A Reset arrived but its chain tip hasn't: the buffer may
            // hold records the coming base image covers (a racing
            // reclaim made the shipper retry the chain). Keep buffering —
            // the resync purges what its tip covers and the next seal
            // feeds the remainder.
            return Ok(());
        }
        if self.pending.is_empty() {
            self.pending_bytes = 0;
            return Ok(());
        }
        let mut records = std::mem::take(&mut self.pending);
        records.sort_by_key(|r| r.ts);
        self.seq += 1;
        let batch_bytes = self.pending_bytes;
        self.pending_bytes = 0;
        if let Some(last) = records.last() {
            self.shared.max_ts.fetch_max(last.ts, Ordering::AcqRel);
        }
        self.shared.txns.add(records.len() as u64);
        for r in &records {
            match &r.payload {
                LogPayload::Command { .. } => {
                    self.shared.commands.inc();
                }
                LogPayload::Writes { .. } | LogPayload::TaggedWrites { .. } => {
                    self.shared.writes.inc();
                }
            }
        }
        pacman_obs::tracer().emit(TraceEvent::StandbyApply {
            batch: self.seq,
            bytes: batch_bytes,
        });
        // Records are ts-sorted: the batch's newest epoch is the last one's.
        let max_epoch = records
            .last()
            .map(|r| pacman_common::clock::epoch_of(r.ts))
            .unwrap_or(0);
        self.shared
            .batch_bytes
            .lock()
            .insert(self.seq, (batch_bytes, max_epoch));
        // Move the frontier *before* feeding: a read admitted after this
        // point waits for the new batch; one admitted just before reads
        // the previous consistent prefix.
        self.gate.set_total_batches(self.seq);
        match &mut self.feed {
            Feed::Sched { tx, gdg, registry } => {
                let batch = LogBatch {
                    index: self.seq,
                    records,
                };
                let schedule = ExecutionSchedule::build(gdg, registry, &batch)?;
                tx.send(schedule)
                    .map_err(|_| Error::Unknown("standby replay runtime exited".into()))?;
            }
            Feed::Shards { state, map } => {
                if state.err.lock().is_some() {
                    return Err(state
                        .err
                        .lock()
                        .clone()
                        .unwrap_or_else(|| Error::Unknown("standby shard apply failed".into())));
                }
                let mut groups: Vec<Vec<(Timestamp, WriteRecord)>> =
                    (0..map.total()).map(|_| Vec::new()).collect();
                for rec in &records {
                    let writes = match &rec.payload {
                        LogPayload::Writes { writes, .. }
                        | LogPayload::TaggedWrites { writes, .. } => writes,
                        LogPayload::Command { .. } => {
                            return Err(Error::Corrupt(
                                "LLR-P standby requires tuple-level log records".into(),
                            ));
                        }
                    };
                    for w in writes {
                        let p = map.partition(&self.db, w.table, w.key)?;
                        groups[p].push((rec.ts, w.clone()));
                    }
                }
                for (p, g) in groups.iter_mut().enumerate() {
                    if !g.is_empty() {
                        state.lanes[p].queue.lock().append(g);
                    }
                }
                state.loaded.store(self.seq, Ordering::Release);
            }
        }
        self.observe_applied();
        Ok(())
    }

    /// Stop the apply engine's intake (promote drain or failure exit).
    fn close_feed(&mut self) {
        match &mut self.feed {
            Feed::Sched { tx, .. } => {
                // Replace the sender so the channel disconnects.
                let (dead, _) = crossbeam::channel::unbounded();
                *tx = dead;
            }
            Feed::Shards { state, .. } => {
                state.done.store(true, Ordering::Release);
            }
        }
    }
}

impl Standby {
    /// The live (read-only) database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The lag gate (partition-level introspection).
    pub fn gate(&self) -> &Arc<RecoveryGate> {
        &self.gate
    }

    /// Admission control for standby reads: a transaction passes once its
    /// static footprint is caught up with everything shipped.
    pub fn admission(&self) -> Arc<dyn AdmissionControl> {
        Arc::clone(&self.admission) as Arc<dyn AdmissionControl>
    }

    /// Current lifecycle state.
    pub fn state(&self) -> StandbyState {
        self.shared.state.lock().state
    }

    /// The session error, if the standby failed.
    pub fn error(&self) -> Option<String> {
        self.shared
            .state
            .lock()
            .error
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Live replication counters.
    pub fn stats(&self) -> ReplicationStats {
        // Read the frontier *before* the gate totals: the receiver
        // publishes `pepoch` only after bumping the total for its seal,
        // so a snapshot whose pepoch covers seal P is guaranteed to see
        // P's total too — otherwise a waiter could observe the new
        // frontier with a stale total and report lag 0 while the final
        // batch is still applying.
        let pepoch = self.shared.pepoch.load(Ordering::Acquire);
        let shipped = self.gate.total_batches();
        let applied = self.gate.min_watermark().min(shipped);
        // The receiver folds applied batches into the metrics counter on
        // its 1 ms cadence; add what it hasn't observed yet. Both sources
        // are read under the batch_bytes lock — the receiver moves a
        // batch between them while holding it, so the sum never dips.
        // One locked snapshot for the byte counters: the receiver bumps
        // `received_log_bytes` and moves a batch between `batch_bytes` and
        // the metrics' applied counter while holding this lock, so reading
        // both sides under it keeps `received >= applied` and neither sum
        // ever dips.
        let (received_log_bytes, applied_log_bytes) = {
            let bb = self.shared.batch_bytes.lock();
            (
                self.shared.received_log_bytes.get(),
                self.metrics.applied_log_bytes()
                    + bb.range(..=applied).map(|(_, &(b, _))| b).sum::<u64>(),
            )
        };
        ReplicationStats {
            shipped_batches: shipped,
            applied_batches: applied,
            lag_batches: shipped.saturating_sub(applied),
            received_log_bytes,
            applied_log_bytes,
            txns: self.shared.txns.get(),
            pepoch,
            rebootstraps: self.shared.rebootstraps.get(),
        }
    }

    /// Block until the standby has received seals through `min_pepoch`
    /// *and* applied everything shipped (lag 0). Returns `false` if the
    /// standby failed or `timeout` elapsed first. Pass the primary's
    /// (persisted) pepoch to wait for a full catch-up.
    pub fn wait_caught_up(&self, min_pepoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.state() == StandbyState::Failed {
                return false;
            }
            let s = self.stats();
            if s.pepoch >= min_pepoch
                && s.lag_batches == 0
                && !self.shared.resync_pending.load(Ordering::Acquire)
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Execute a read-only procedure against the standby, gated on its
    /// footprint being caught up. Returns `Ok(None)` when the footprint is
    /// still behind (the caller may retry — the request was flagged, so
    /// the apply workers prioritize it). Procedures with write ops are
    /// rejected: a standby must not mutate replicated state.
    pub fn execute_read_only(
        &self,
        proc: ProcId,
        params: &Params,
    ) -> Result<Option<pacman_engine::CommitInfo>> {
        let def = self.registry.get(proc)?;
        if def.ops.iter().any(|op| op.is_write()) {
            return Err(Error::InvalidConfig(format!(
                "procedure {} writes; a standby serves read-only transactions",
                def.name
            )));
        }
        if self.state() == StandbyState::Failed {
            return Err(Error::Unknown("standby failed".into()));
        }
        // Before the stream head lands (bootstrap base image / first
        // seal) the gate's total is still 0 and would admit everything
        // against an empty or half-loaded database — refuse instead.
        if self.shared.bootstrap_pending.load(Ordering::Acquire) {
            return Ok(None);
        }
        if !self.admission.try_admit(proc, params) {
            self.admission.request(proc, params);
            return Ok(None);
        }
        // OCC validation protects the read from racing installs: on
        // conflict, retry — the apply frontier only moves forward.
        let mut tries = 0;
        loop {
            match run_procedure(&self.db, def, params) {
                Ok(info) => return Ok(Some(info)),
                Err(Error::TxnAborted(_)) if tries < 100 => tries += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Promote to a full primary: drain the shipped tail already on the
    /// link, finish applying every batch, open the gate for good, and
    /// reopen the standby's own (shipped) log directory for resumed
    /// logging. `config` must mirror the primary's durability layout
    /// (`num_loggers`, `batch_epochs`) — batch naming derives from both.
    pub fn promote(mut self, config: DurabilityConfig) -> Result<PromotedPrimary> {
        let t0 = Instant::now();
        self.shared.promote.store(true, Ordering::Release);
        if let Some(j) = self.recv_join.take() {
            let _ = j.join();
        }
        // Shard apply: `done` was set by the receiver's close_feed; the
        // command runtime's channel was disconnected the same way. Wait
        // for the apply side to drain out.
        for j in self.apply_joins.drain(..) {
            let _ = j.join();
        }
        if let Some(state) = &self.shard_state {
            if let Some(e) = state.err.lock().take() {
                self.shared.fail(&self.gate, e);
            }
        }
        {
            let st = self.shared.state.lock();
            if st.state == StandbyState::Failed {
                return Err(st
                    .error
                    .clone()
                    .unwrap_or_else(|| Error::Unknown("standby failed".into())));
            }
        }
        self.gate.finish();

        // Resume the clock past everything applied, then reopen the
        // shipped log for writing: epoch numbering continues strictly
        // past max(pepoch, chain tip, clock) — the PR 2 lifecycle.
        let max_ts = self.shared.max_ts.load(Ordering::Acquire);
        let after_ts = self.shared.after_ts.load(Ordering::Acquire);
        let pepoch = self.shared.pepoch.load(Ordering::Acquire);
        let floor = max_ts.max(after_ts).max(if pepoch > 0 {
            epoch_floor(pepoch + 1)
        } else {
            0
        });
        self.db.clock().advance_to(floor.saturating_add(1));

        let report = StandbyReport {
            batches: self.gate.total_batches(),
            txns: self.shared.txns.get(),
            replayed_commands: self.shared.commands.get(),
            applied_writes: self.shared.writes.get(),
            received_log_bytes: self.shared.received_log_bytes.get(),
            checkpoint_tuples: self.shared.ckpt_tuples.load(Ordering::Relaxed),
            promote_secs: t0.elapsed().as_secs_f64(),
        };
        let (durability, resume) =
            Durability::reopen(Arc::clone(&self.db), self.storage.clone(), config);
        Ok(PromotedPrimary {
            db: Arc::clone(&self.db), // `self` drops below; its joins are spent
            durability,
            resume,
            report,
        })
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        pacman_obs::watchdog().remove(self.gate_probe);
        // An un-promoted standby being discarded: unblock every thread.
        self.shared.promote.store(true, Ordering::Release);
        if let Some(j) = self.recv_join.take() {
            let _ = j.join();
        }
        if let Some(state) = &self.shard_state {
            state.done.store(true, Ordering::Release);
        }
        for j in self.apply_joins.drain(..) {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::{pump, wire};
    use pacman_common::clock::epoch_of;
    use pacman_common::{Row, TableId, Value};
    use pacman_engine::run_procedure_with_epoch;
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_storage::{DiskConfig, StorageSet};
    use pacman_wal::{LogScheme, LogShipper};

    const T: TableId = TableId::new(0);
    const ADD: ProcId = ProcId::new(0);
    const GET: ProcId = ProcId::new(1);

    fn setup() -> (Catalog, ProcRegistry) {
        let mut c = Catalog::new();
        c.add_table_sharded("t", 1, 2);
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ADD, "Add", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();
        let mut b = ProcBuilder::new(GET, "Get", 1);
        let _ = b.read(T, Expr::param(0), 0);
        reg.register(b.build().unwrap()).unwrap();
        (c, reg)
    }

    fn durability_config(scheme: LogScheme) -> DurabilityConfig {
        DurabilityConfig {
            scheme,
            num_loggers: 1,
            epoch_interval: Duration::from_millis(2),
            batch_epochs: 4,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: true,
            ..Default::default()
        }
    }

    /// Build a primary image: seeded + checkpointed base, then `n`
    /// committed transactions logged in `scheme` format. Returns the
    /// primary storage, the reference database and the persisted pepoch.
    fn primary_image(
        catalog: &Catalog,
        registry: &ProcRegistry,
        scheme: LogScheme,
        n: u64,
    ) -> (StorageSet, Arc<Database>, u64) {
        use pacman_common::Encoder;
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("prim"));
        let db = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            db.seed_row(T, k, Row::from([Value::Int(100)])).unwrap();
        }
        pacman_wal::run_checkpoint(&db, &storage, 1).unwrap();
        let mut buf = Vec::new();
        let mut batch = 0u64;
        let mut max_epoch = 0;
        for i in 0..n {
            let params: Params = vec![Value::Int((i % 8) as i64), Value::Int(1)].into();
            let proc = registry.get(ADD).unwrap();
            let epoch = 1 + i / 5;
            let info = run_procedure_with_epoch(&db, proc, &params, || epoch).unwrap();
            max_epoch = max_epoch.max(epoch_of(info.ts));
            let payload = match scheme {
                LogScheme::Logical => LogPayload::Writes {
                    writes: info.writes.clone(),
                    physical: false,
                    adhoc: false,
                },
                LogScheme::Adaptive if i % 2 == 0 => LogPayload::TaggedWrites {
                    proc: ADD,
                    writes: info.writes.clone(),
                },
                _ => LogPayload::Command { proc: ADD, params },
            };
            TxnLogRecord {
                ts: info.ts,
                payload,
            }
            .encode(&mut buf);
            // batch_epochs = 4: split files at epoch-derived batch bounds.
            if (i + 1) % 20 == 0 {
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
                buf.clear();
                batch += 1;
            }
        }
        if !buf.is_empty() {
            storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        }
        storage
            .disk(0)
            .write_file(PEPOCH_FILE, &max_epoch.to_le_bytes());
        (storage, db, max_epoch)
    }

    fn standby_config(scheme: RecoveryScheme) -> StandbyConfig {
        StandbyConfig { scheme, threads: 2 }
    }

    #[test]
    fn command_standby_applies_and_promotes() {
        let (catalog, reg) = setup();
        let (primary, reference, pepoch) = primary_image(&catalog, &reg, LogScheme::Command, 40);
        let shipper = LogShipper::new(primary.clone(), 1, 4);
        let (tx, rx) = wire();
        let standby_storage = StorageSet::identical(1, DiskConfig::unthrottled("stb"));
        let standby = start_standby(
            standby_storage.clone(),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();
        pump(&shipper, pepoch, &tx).unwrap();
        assert!(standby.wait_caught_up(pepoch, Duration::from_secs(5)));
        let s = standby.stats();
        assert_eq!(s.lag_batches, 0);
        assert_eq!(s.txns, 40);
        assert!(s.received_log_bytes > 0);
        assert_eq!(s.pepoch, pepoch);

        let promoted = standby
            .promote(durability_config(LogScheme::Command))
            .unwrap();
        assert_eq!(promoted.db.fingerprint(), reference.fingerprint());
        assert_eq!(promoted.report.txns, 40);
        assert_eq!(promoted.report.replayed_commands, 40);
        assert_eq!(promoted.report.checkpoint_tuples, 8);
        assert!(promoted.resume.base_epoch >= pepoch);

        // The promoted primary serves writes with strictly newer epochs.
        let worker = promoted.durability.register_worker();
        let em = Arc::clone(promoted.durability.epoch_manager());
        worker.enter();
        let proc = reg.get(ADD).unwrap();
        let params: Params = vec![Value::Int(0), Value::Int(1)].into();
        let info = run_procedure_with_epoch(&promoted.db, proc, &params, || em.current()).unwrap();
        assert!(epoch_of(info.ts) > promoted.resume.base_epoch);
        promoted
            .durability
            .log_commit(0, &info, ADD, &params, false);
        worker.retire();
        promoted.durability.wait_durable(epoch_of(info.ts));
        promoted.durability.shutdown();
    }

    #[test]
    fn llr_p_standby_applies_logical_stream() {
        let (catalog, reg) = setup();
        let (primary, reference, pepoch) = primary_image(&catalog, &reg, LogScheme::Logical, 30);
        let shipper = LogShipper::new(primary.clone(), 1, 4);
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::LlrP),
            rx,
        )
        .unwrap();
        // Ship in two pumps to exercise incremental seals.
        pump(&shipper, pepoch / 2, &tx).unwrap();
        pump(&shipper, pepoch, &tx).unwrap();
        assert!(standby.wait_caught_up(pepoch, Duration::from_secs(5)));

        // A caught-up read admits immediately and sees replicated state.
        let params: Params = vec![Value::Int(3)].into();
        let info = standby
            .execute_read_only(GET, &params)
            .unwrap()
            .expect("caught-up footprint admits");
        assert!(info.writes.is_empty());

        // Write procedures are rejected outright.
        assert!(standby
            .execute_read_only(ADD, &vec![Value::Int(0), Value::Int(1)].into())
            .is_err());

        let promoted = standby
            .promote(durability_config(LogScheme::Logical))
            .unwrap();
        assert_eq!(promoted.db.fingerprint(), reference.fingerprint());
        assert_eq!(promoted.report.applied_writes, 30);
        promoted.durability.shutdown();
    }

    #[test]
    fn adaptive_standby_applies_mixed_stream() {
        let (catalog, reg) = setup();
        let (primary, reference, pepoch) = primary_image(&catalog, &reg, LogScheme::Adaptive, 30);
        let shipper = LogShipper::new(primary.clone(), 1, 4);
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::AlrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();
        pump(&shipper, pepoch, &tx).unwrap();
        assert!(standby.wait_caught_up(pepoch, Duration::from_secs(5)));
        let promoted = standby
            .promote(durability_config(LogScheme::Adaptive))
            .unwrap();
        assert_eq!(promoted.db.fingerprint(), reference.fingerprint());
        assert_eq!(
            promoted.report.replayed_commands + promoted.report.applied_writes,
            30
        );
        assert!(promoted.report.replayed_commands > 0);
        assert!(promoted.report.applied_writes > 0);
        promoted.durability.shutdown();
    }

    #[test]
    fn corrupt_frame_fails_the_standby_and_poisons_the_gate() {
        let (catalog, reg) = setup();
        // Raw wire: deliver undecodable bytes straight to the receiver.
        let (gtx, grx) = crossbeam::channel::unbounded::<Vec<u8>>();
        let bad = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb2")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            grx,
        )
        .unwrap();
        gtx.send(vec![99u8, 0, 0]).unwrap();
        let t0 = Instant::now();
        while bad.state() != StandbyState::Failed {
            assert!(t0.elapsed() < Duration::from_secs(2), "never failed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(bad.gate().is_failed());
        assert!(bad.error().is_some());
        assert!(bad.promote(durability_config(LogScheme::Command)).is_err());
    }

    #[test]
    fn reads_gate_on_the_moving_frontier() {
        // Drive the gate by hand to pin the semantics: total moves with
        // each shipped batch, so "admitted" means caught up, not done.
        let (catalog, reg) = setup();
        // Bootstrap only (checkpointed base image, no log): the standby's
        // database holds the seeded rows and no seal has shipped.
        let (primary, _reference, _pepoch) = primary_image(&catalog, &reg, LogScheme::Command, 0);
        let shipper = LogShipper::new(primary, 1, 4);
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();
        pump(&shipper, 0, &tx).unwrap();
        let t0 = Instant::now();
        while standby.db().total_tuples() < 8 {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "bootstrap never landed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let gate = Arc::clone(standby.gate());
        // Nothing shipped: everything is "caught up".
        assert!(standby
            .execute_read_only(GET, &vec![Value::Int(1)].into())
            .unwrap()
            .is_some());
        // A shipped-but-unapplied batch closes the gate...
        gate.set_total_batches(1);
        assert!(standby
            .execute_read_only(GET, &vec![Value::Int(1)].into())
            .unwrap()
            .is_none());
        assert_eq!(standby.stats().lag_batches, 1);
        // ...and applying it reopens admission at the new frontier.
        for p in 0..gate.num_partitions() {
            gate.publish(p, 1);
        }
        assert!(standby
            .execute_read_only(GET, &vec![Value::Int(1)].into())
            .unwrap()
            .is_some());
        assert_eq!(standby.stats().lag_batches, 0);
    }

    /// The full bounded-lag lifecycle at unit scale: a standby ships a
    /// prefix, lags through a checkpoint+reclaim that breaks its cursor,
    /// and the next pump re-bootstraps it (Reset → resync onto the new
    /// chain tip → tail apply) to the exact primary state.
    #[test]
    fn broken_cursor_rebootstraps_the_standby() {
        use pacman_common::Encoder;
        use pacman_wal::batch_index_of_epoch;
        use pacman_wal::{RetentionManager, RetentionPolicy};
        let (catalog, reg) = setup();
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("prim"));
        let db = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            db.seed_row(T, k, Row::from([Value::Int(100)])).unwrap();
        }
        pacman_wal::run_checkpoint(&db, &storage, 1).unwrap();

        let retention = RetentionManager::new(
            storage.clone(),
            1,
            4,
            RetentionPolicy {
                max_subscriber_lag_bytes: Some(64),
            },
        );
        let shipper = LogShipper::with_retention(
            storage.clone(),
            1,
            4,
            Arc::default(),
            Arc::clone(&retention),
        );
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();

        // Commit `n` transactions at `epoch`, appending to the epoch's
        // batch file exactly as a logger would.
        let commit_at = |epoch: u64, n: u64| {
            let proc = reg.get(ADD).unwrap();
            for i in 0..n {
                let params: Params =
                    vec![Value::Int(((epoch + i) % 8) as i64), Value::Int(1)].into();
                let info = run_procedure_with_epoch(&db, proc, &params, || epoch).unwrap();
                let mut buf = Vec::new();
                TxnLogRecord {
                    ts: info.ts,
                    payload: LogPayload::Command { proc: ADD, params },
                }
                .encode(&mut buf);
                let batch = batch_index_of_epoch(epoch, 4);
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
            }
        };

        // Phase 1: a healthy prefix ships (epochs 1..=4).
        for e in 1..=4u64 {
            commit_at(e, 2);
        }
        pump(&shipper, 4, &tx).unwrap();
        assert!(standby.wait_caught_up(4, Duration::from_secs(5)));

        // Phase 2 (the gap): the subscriber stops pumping while the
        // primary churns on and checkpoints — coverage passes the cursor,
        // the reclaim round breaks its hold and frees the log.
        for e in 5..=12u64 {
            commit_at(e, 2);
        }
        pacman_wal::run_checkpoint(&db, &storage, 1).unwrap();
        let chain = pacman_wal::read_chain(&storage).unwrap().unwrap();
        let st = retention.reclaim(&chain);
        assert_eq!(st.holds_broken, 1, "lagging cursor must break");
        assert!(
            storage.disk(0).read("log/00/0000000001").is_err(),
            "gap batches reclaimed"
        );

        // Phase 3: the tail continues past coverage; the next pump
        // self-heals — Reset, fresh chain tip, surviving records.
        for e in 13..=16u64 {
            commit_at(e, 2);
        }
        pump(&shipper, 16, &tx).unwrap();
        assert!(
            standby.wait_caught_up(16, Duration::from_secs(5)),
            "rebootstrapped standby never caught up: {:?} / {:?}",
            standby.stats(),
            standby.error()
        );
        assert_eq!(standby.stats().rebootstraps, 1);
        assert_eq!(shipper.rebootstraps(), 1);

        let promoted = standby
            .promote(DurabilityConfig {
                scheme: LogScheme::Command,
                num_loggers: 1,
                epoch_interval: Duration::from_millis(2),
                batch_epochs: 4,
                checkpoint_interval: None,
                checkpoint_threads: 1,
                fsync: true,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(
            promoted.db.fingerprint(),
            db.fingerprint(),
            "re-bootstrapped standby must equal the never-lagged primary"
        );
        promoted.durability.shutdown();
    }

    #[test]
    fn redelivered_record_runs_are_applied_exactly_once() {
        let (catalog, reg) = setup();
        let (primary, reference, pepoch) = primary_image(&catalog, &reg, LogScheme::Command, 20);
        let (tx, rx) = wire();
        let standby_storage = StorageSet::identical(1, DiskConfig::unthrottled("stb"));
        let standby = start_standby(
            standby_storage.clone(),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();
        // Deliver the stream, then (a severed-link retry) deliver the
        // *same* record runs and seal again: the standby must dedup by
        // offset — commands re-executed twice would double-apply.
        let shipper = LogShipper::new(primary.clone(), 1, 4);
        let frames = shipper.poll(pepoch).unwrap();
        for f in &frames {
            tx.send(f).unwrap();
        }
        for f in &frames {
            if matches!(f, ShipFrame::Records { .. } | ShipFrame::Seal { .. }) {
                tx.send(f).unwrap();
            }
        }
        assert!(standby.wait_caught_up(pepoch, Duration::from_secs(5)));
        let promoted = standby
            .promote(durability_config(LogScheme::Command))
            .unwrap();
        assert_eq!(promoted.report.txns, 20, "duplicates must not be fed");
        assert_eq!(promoted.db.fingerprint(), reference.fingerprint());
        // The standby's own log copy holds each shipped byte exactly once.
        for f in &frames {
            if let ShipFrame::Records {
                file,
                offset,
                bytes,
            } = f
            {
                assert_eq!(
                    standby_storage.disk(0).len(file).unwrap(),
                    *offset as usize + bytes.len(),
                    "{file}: duplicate bytes were appended"
                );
            }
        }
        promoted.durability.shutdown();
    }

    #[test]
    fn gapped_record_run_fails_the_standby() {
        let (catalog, reg) = setup();
        let (gtx, grx) = crossbeam::channel::unbounded::<Vec<u8>>();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            grx,
        )
        .unwrap();
        use pacman_common::Encoder;
        // A run claiming to start past what the standby holds = a hole.
        gtx.send(
            ShipFrame::Records {
                file: "log/00/0000000000".into(),
                offset: 999,
                bytes: vec![1, 2, 3].into(),
            }
            .to_bytes(),
        )
        .unwrap();
        let t0 = Instant::now();
        while standby.state() != StandbyState::Failed {
            assert!(t0.elapsed() < Duration::from_secs(2), "gap never detected");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(standby.gate().is_failed());
    }

    #[test]
    fn standby_rejects_latched_schemes() {
        let (catalog, reg) = setup();
        let (_tx, rx) = wire();
        assert!(start_standby(
            StorageSet::for_tests(),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::Plr { latch: true }),
            rx,
        )
        .is_err());
    }
}
