//! Recovery of a crash image: timed CLR-P `recover()` runs, a CLR baseline,
//! and standalone passes over the log that split replay into its layers.

use crate::setup::{recovery_threads, System};
use pacman_common::Fingerprint;
use pacman_core::recovery::{read_merged_batch, recover, LogInventory};
use pacman_core::{ExecutionSchedule, GlobalGraph, RecoveryConfig, RecoveryReport};
use pacman_core::{RecoveryScheme, ReplayMode};
use pacman_engine::{Catalog, Database};
use pacman_sproc::ProcRegistry;
use pacman_storage::StorageSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What a graceful stop leaves on the devices, plus the state recovery
/// must reproduce.
pub struct Image {
    /// The devices.
    pub storage: StorageSet,
    /// Schema.
    pub catalog: Catalog,
    /// Procedures replay re-executes.
    pub registry: ProcRegistry,
    /// Fingerprint of the database at the stop.
    pub reference: Fingerprint,
}

impl Image {
    /// Stop `sys` gracefully (everything committed becomes durable) and
    /// take its devices as the image.
    pub fn stop(sys: System) -> Image {
        sys.durability.shutdown();
        Image {
            reference: sys.db.fingerprint(),
            catalog: sys.db.catalog().clone(),
            storage: sys.storage,
            registry: sys.registry,
        }
    }

    /// Log bytes on the devices.
    pub fn log_bytes(&self) -> u64 {
        LogInventory::scan(&self.storage).total_bytes(&self.storage)
    }
}

/// CLR-P (pipelined PACMAN) with one thread per hardware thread.
pub fn clr_p() -> RecoveryConfig {
    RecoveryConfig {
        scheme: RecoveryScheme::ClrP {
            mode: ReplayMode::Pipelined,
        },
        threads: recovery_threads(),
    }
}

/// Single-threaded command-log recovery.
pub fn clr() -> RecoveryConfig {
    RecoveryConfig {
        scheme: RecoveryScheme::Clr,
        threads: 1,
    }
}

/// One timed recovery.
pub struct Recovery {
    /// Wall time of `recover()`.
    pub wall_s: f64,
    /// The report `recover()` returned.
    pub report: RecoveryReport,
}

/// Recover `image` once with `config`; an error or a recovered state that
/// differs from the reference fails.
pub fn recover_once(
    image: &Image,
    config: &RecoveryConfig,
) -> Result<(Recovery, Arc<Database>), String> {
    let t0 = Instant::now();
    let out = recover(&image.storage, &image.catalog, &image.registry, config)
        .map_err(|e| format!("{} recovery failed: {e}", config.scheme.label()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if out.db.fingerprint() != image.reference {
        return Err(format!(
            "{} recovered a state that differs from the pre-crash reference",
            config.scheme.label()
        ));
    }
    let recovery = Recovery {
        wall_s,
        report: out.report,
    };
    Ok((recovery, out.db))
}

/// Replay split into layers by standalone passes over the image's log.
#[derive(Clone, Debug, Default)]
pub struct LogLayers {
    /// Reading every log file off the devices.
    pub log_read_s: f64,
    /// `read_merged_batch` over all batches, minus the file reads.
    pub decode_s: f64,
    /// `GlobalGraph::analyze` of the procedures.
    pub analyze_s: f64,
    /// `ExecutionSchedule::build` over all batches.
    pub schedule_build_s: f64,
    /// Records the decoded log holds.
    pub records: u64,
}

/// Time each replay layer on its own over `image`'s log.
pub fn log_layers(image: &Image) -> Result<LogLayers, String> {
    let storage = &image.storage;
    let inventory = LogInventory::scan(storage);
    let t0 = Instant::now();
    for f in &inventory.files {
        black_box(
            storage
                .disk(f.disk)
                .read(&f.name)
                .map_err(|e| format!("read {}: {e}", f.name))?,
        );
    }
    let log_read_s = t0.elapsed().as_secs_f64();

    let pepoch = pacman_wal::pepoch::PepochHandle::read_persisted(storage.disk(0));
    let after_ts = pacman_wal::checkpoint::read_chain(storage)
        .map_err(|e| format!("checkpoint chain: {e}"))?
        .map_or(0, |c| c.ts());
    let t0 = Instant::now();
    let batches = inventory
        .batches()
        .into_iter()
        .map(|b| read_merged_batch(storage, &inventory, b, pepoch, after_ts))
        .collect::<pacman_common::Result<Vec<_>>>()
        .map_err(|e| format!("decode: {e}"))?;
    let merged_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let gdg = GlobalGraph::analyze(image.registry.all()).map_err(|e| format!("analyze: {e}"))?;
    let analyze_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for batch in &batches {
        black_box(
            ExecutionSchedule::build(&gdg, &image.registry, batch)
                .map_err(|e| format!("schedule: {e}"))?,
        );
    }
    let schedule_build_s = t0.elapsed().as_secs_f64();

    Ok(LogLayers {
        log_read_s,
        decode_s: (merged_s - log_read_s).max(0.0),
        analyze_s,
        schedule_build_s,
        records: batches.iter().map(|b| b.records.len() as u64).sum(),
    })
}
