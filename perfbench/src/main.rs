//! The repository's benchmark: TPC-C under command logging, end to end and
//! per layer, and PACMAN (CLR-P) recovery of a fixed crash image.
//!
//! ```text
//! perfbench --workload <tpcc_cl|tpcc_read|tpcc_recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The line before it records the set-up the numbers depend
//! on. A failed correctness check prints `"correct": false` and exits 1.
//! See README.md in this directory for the workloads and metrics.

mod client;
mod restart;
mod setup;
mod stats;

use client::{client_seed, run_client, run_clients, ClientStats, Stop};
use pacman_engine::Database;
use pacman_obs::Json;
use pacman_storage::DiskStats;
use pacman_workloads::tpcc::schema::{d_col, w_col, DISTRICT, WAREHOUSE};
use pacman_workloads::tpcc::{keys, Tpcc};
use restart::{Image, LogLayers, Recovery};
use setup::System;
use stats::{mean, median, quantile, ratio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per processing run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Image builds per `tpcc_recover` run; `setup_s` is their median.
const IMAGE_BUILDS: usize = 3;
/// Update transactions one client logs into the `tpcc_recover` image.
const IMAGE_UPDATES: u64 = 100_000;
/// Update transactions the single client logs after a processing window's
/// clean cut: the log tail the restarts replay.
const TAIL_UPDATES: u64 = 20_000;
/// Timed CLR-P restarts after a processing window.
const RESTARTS: usize = 7;
/// Fewest timed recoveries of the `tpcc_recover` image.
const MIN_RECOVERIES: usize = 3;
/// Largest share of a traced client's wall time its timed calls may leave
/// uncovered.
const UNACCOUNTED_TOLERANCE: f64 = 0.02;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value != "0"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(30);
    // A traced `tpcc_recover` run serves for a quarter of the window in
    // each half; it needs at least one complete slice.
    if seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let v = Json::Obj(vec![
                        ("value".into(), Json::Float(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]);
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

/// A run's result.
#[derive(Default)]
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    details: Vec<(String, Json)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.into(), value));
    }
}

/// Durability and device counters at one instant.
struct Counters {
    disk: DiskStats,
    bytes_logged: u64,
    ckpt_rounds: u64,
    ckpt_bytes: u64,
}

impl Counters {
    fn take(sys: &System) -> Counters {
        Counters {
            disk: sys.storage.total_stats(),
            bytes_logged: sys.durability.bytes_logged(),
            ckpt_rounds: sys.durability.checkpoint_rounds().0,
            ckpt_bytes: sys.durability.checkpoint_bytes_written(),
        }
    }
}

/// Warehouse `W_YTD` and the sum of its districts' `D_YTD`, per warehouse.
fn ytd(sys: &System, workload: &Tpcc) -> Result<Vec<(f64, f64)>, String> {
    let mut txn = sys.db.begin();
    let mut float = |table, key, col| -> Result<f64, String> {
        txn.read(table, key)
            .map_err(|e| format!("read YTD: {e}"))?
            .col(col)
            .as_float()
            .ok_or_else(|| "YTD is not a float".to_string())
    };
    (0..workload.cfg.warehouses)
        .map(|w| {
            let w_ytd = float(WAREHOUSE, w, w_col::YTD)?;
            let mut d_ytd = 0.0;
            for d in 1..=workload.cfg.districts_per_warehouse {
                d_ytd += float(DISTRICT, keys::district_key(w, d), d_col::YTD)?;
            }
            Ok((w_ytd, d_ytd))
        })
        .collect()
}

/// TPC-C consistency condition 1 over a window: per warehouse, the growth
/// of `W_YTD` equals the summed growth of its districts' `D_YTD`.
fn check_ytd(out: &mut Outcome, before: &[(f64, f64)], after: &[(f64, f64)]) {
    for (w, ((w0, d0), (w1, d1))) in before.iter().zip(after).enumerate() {
        let (dw, dd) = (w1 - w0, d1 - d0);
        out.check((dw - dd).abs() <= 1e-6 * dw.abs().max(1.0), || {
            format!("warehouse {w}: W_YTD grew by {dw} but D_YTD by {dd}")
        });
    }
}

/// Commit-path values of complete time slices.
#[derive(Default)]
struct SliceValues {
    txn_per_s: Vec<f64>,
    write_p50_ms: Vec<f64>,
    write_p99_ms: Vec<f64>,
    read_p50_us: Vec<f64>,
}

impl SliceValues {
    fn of(s: &ClientStats) -> SliceValues {
        let mut v = SliceValues::default();
        v.add(s);
        v
    }

    fn add(&mut self, s: &ClientStats) {
        for slice in s.slices.iter().take(s.complete_slices) {
            self.txn_per_s
                .push(slice.acked as f64 / client::SLICE.as_secs_f64());
            if !slice.write_ns.is_empty() {
                self.write_p50_ms.push(quantile(&slice.write_ns, 0.5) / 1e6);
                self.write_p99_ms
                    .push(quantile(&slice.write_ns, 0.99) / 1e6);
            }
            if !slice.read_ns.is_empty() {
                self.read_p50_us.push(quantile(&slice.read_ns, 0.5) / 1e3);
            }
        }
    }

    fn to_json(&self) -> Json {
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Float(x)).collect());
        Json::Obj(vec![
            ("txn_per_s".into(), arr(&self.txn_per_s)),
            ("write_p50_ms".into(), arr(&self.write_p50_ms)),
            ("write_p99_ms".into(), arr(&self.write_p99_ms)),
            ("read_p50_us".into(), arr(&self.read_p50_us)),
        ])
    }

    fn txn_per_s(&self) -> f64 {
        median(&self.txn_per_s)
    }

    /// The commit-path end-to-end metrics: medians across slices. The
    /// slices' write p99 goes only to the detail line: it doubles while the
    /// host's neighbours take CPU, and such phases outlast a run.
    fn put(&self, m: &mut Metrics) {
        m.put("txn_per_s", self.txn_per_s(), "1/s");
        m.put("write_p50_ms", median(&self.write_p50_ms), "ms");
        m.put("read_p50_us", median(&self.read_p50_us), "us");
    }
}

/// Commit-path per-layer metrics of a traced client set over `window_s`.
fn commit_layers(
    out: &mut Outcome,
    s: &ClientStats,
    before: &Counters,
    after: &Counters,
    window_s: f64,
) {
    let c = s.calls.as_ref().expect("traced clients time their calls");
    let m = &mut out.metrics;
    let aborted_share = ratio(c.aborted_exec_ns as f64, s.wall_ns as f64);
    m.put(
        "workloads.next_txn_ns",
        ratio(c.next_txn_ns as f64, c.next_txn_calls as f64),
        "ns",
    );
    m.put(
        "engine.update_exec_us.p50",
        quantile(&c.update_exec_ns, 0.5) / 1e3,
        "us",
    );
    m.put(
        "engine.update_exec_us.mean",
        mean(&c.update_exec_ns) / 1e3,
        "us",
    );
    m.put(
        "engine.read_exec_us.p50",
        quantile(&c.read_exec_ns, 0.5) / 1e3,
        "us",
    );
    m.put(
        "engine.read_exec_us.mean",
        mean(&c.read_exec_ns) / 1e3,
        "us",
    );
    m.put(
        "engine.abort_ratio",
        ratio(s.aborted_attempts as f64, s.attempts as f64),
        "ratio",
    );
    m.put("engine.aborted_exec_share", aborted_share, "ratio");
    m.put(
        "wal.stage_ns",
        ratio(c.stage_ns as f64, s.updates as f64),
        "ns",
    );
    m.put(
        "wal.flush_ns",
        ratio(c.flush_ns as f64, c.flushes as f64),
        "ns",
    );
    m.put(
        "wal.durable_wait_ms.p50",
        quantile(&s.durable_wait_ns, 0.5) / 1e6,
        "ms",
    );
    m.put(
        "wal.durable_wait_ms.p99",
        quantile(&s.durable_wait_ns, 0.99) / 1e6,
        "ms",
    );
    m.put(
        "wal.bytes_per_update",
        ratio(
            (after.bytes_logged - before.bytes_logged) as f64,
            s.updates as f64,
        ),
        "B",
    );
    m.put(
        "wal.acks_per_advance",
        ratio(s.write_acks as f64, s.advances as f64),
        "count",
    );
    m.put(
        "wal.ckpt.rounds",
        (after.ckpt_rounds - before.ckpt_rounds) as f64,
        "count",
    );
    m.put(
        "wal.ckpt.mb_written",
        (after.ckpt_bytes - before.ckpt_bytes) as f64 / 1e6,
        "MB",
    );
    let written = after.disk.bytes_written - before.disk.bytes_written;
    m.put(
        "storage.write_mb_s",
        written as f64 / 1e6 / window_s,
        "MB/s",
    );
    m.put(
        "storage.fsyncs_per_s",
        (after.disk.fsyncs - before.disk.fsyncs) as f64 / window_s,
        "1/s",
    );
    let unaccounted = 1.0 - ratio(c.covered_ns() as f64, s.wall_ns as f64);
    m.put("trace.unaccounted_ratio", unaccounted, "ratio");
    if unaccounted > UNACCOUNTED_TOLERANCE {
        out.errors.push(format!(
            "traced calls cover only {:.2}% of client wall time (tolerance {}%)",
            (1.0 - unaccounted) * 100.0,
            UNACCOUNTED_TOLERANCE * 100.0
        ));
    }
}

/// Replay per-layer metrics: the timed CLR-P recoveries, the CLR baseline
/// and the standalone layer passes.
fn replay_layers(m: &mut Metrics, runs: &[Recovery], clr_s: f64, layers: &LogLayers) {
    let med = |f: &dyn Fn(&Recovery) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let recovery_s = med(&|r| r.wall_s);
    m.put("storage.log_read_s", layers.log_read_s, "s");
    m.put("wal.decode_s", layers.decode_s, "s");
    m.put("core.schedule.build_s", layers.schedule_build_s, "s");
    m.put("core.static_analysis.analyze_s", layers.analyze_s, "s");
    m.put(
        "core.recovery.checkpoint_s",
        med(&|r| r.report.checkpoint_total_secs),
        "s",
    );
    m.put(
        "core.recovery.log_s",
        med(&|r| r.report.log_total_secs),
        "s",
    );
    m.put(
        "core.recovery.log_reload_s",
        med(&|r| r.report.log_reload_secs),
        "s",
    );
    m.put(
        "core.runtime.work_thread_s",
        med(&|r| r.report.breakdown.work),
        "s",
    );
    m.put(
        "core.recovery.load_thread_s",
        med(&|r| r.report.breakdown.load),
        "s",
    );
    m.put(
        "core.dynamic.param_thread_s",
        med(&|r| r.report.breakdown.param),
        "s",
    );
    m.put(
        "core.runtime.sched_thread_s",
        med(&|r| r.report.breakdown.sched),
        "s",
    );
    m.put(
        "core.runtime.useful_ratio",
        med(&|r| {
            ratio(
                r.report.breakdown.work,
                r.report.threads as f64 * r.report.log_total_secs,
            )
        }),
        "ratio",
    );
    m.put("core.recovery.clr_s", clr_s, "s");
    m.put("core.recovery.clr_p_speedup", clr_s / recovery_s, "ratio");
}

/// Recover `image` with CLR-P at least `min_runs` times and until `budget`
/// has passed. Every recovery must reproduce the reference state and
/// replay exactly `logged` transactions.
/// A traced run adds the replay per-layer metrics. Returns the timed
/// recoveries and the last recovered database.
fn restart(
    out: &mut Outcome,
    image: &Image,
    logged: u64,
    min_runs: usize,
    budget: Duration,
    traced: bool,
) -> (Vec<Recovery>, Option<Arc<Database>>) {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut last = None;
    while runs.len() < min_runs || start.elapsed() < budget {
        out.attempted += 1;
        match restart::recover_once(image, &restart::clr_p()) {
            Ok((r, db)) => {
                out.check(r.report.txns == logged, || {
                    format!(
                        "recovery replayed {} transactions of {logged} logged",
                        r.report.txns
                    )
                });
                runs.push(r);
                last = Some(db);
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                return (runs, None);
            }
        }
    }
    out.detail(
        "recovery",
        Json::Obj(vec![
            ("logged_records".into(), Json::Int(logged)),
            ("log_bytes".into(), Json::Int(image.log_bytes())),
            (
                "recovery_s".into(),
                Json::Arr(runs.iter().map(|r| Json::Float(r.wall_s)).collect()),
            ),
        ]),
    );
    if traced {
        match (
            restart::recover_once(image, &restart::clr()),
            restart::log_layers(image),
        ) {
            (Ok((clr, _)), Ok(layers)) => {
                out.check(layers.records == logged, || {
                    format!(
                        "decoded log holds {} records for {logged} updates",
                        layers.records
                    )
                });
                replay_layers(&mut out.metrics, &runs, clr.wall_s, &layers);
            }
            (Err(e), _) | (_, Err(e)) => out.errors.push(e),
        }
    } else {
        let wall: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        out.metrics.put("recovery_s", median(&wall), "s");
    }
    (runs, last)
}

fn sample_counts(s: &ClientStats) -> Json {
    Json::Obj(vec![
        ("submitted".into(), Json::Int(s.submitted)),
        ("slices".into(), Json::Int(s.complete_slices as u64)),
        ("write_samples".into(), Json::Int(s.write_samples() as u64)),
        ("read_samples".into(), Json::Int(s.read_samples() as u64)),
        ("attempts".into(), Json::Int(s.attempts)),
        ("aborted_attempts".into(), Json::Int(s.aborted_attempts)),
        ("max_retries".into(), Json::Int(u64::from(s.max_retries))),
        ("gave_up".into(), Json::Int(s.gave_up)),
        ("unacked".into(), Json::Int(s.unacked)),
    ])
}

/// Count a client set's transactions and surface its errors.
fn account(out: &mut Outcome, s: &ClientStats) {
    out.attempted += s.submitted;
    out.failed += s.failed();
    if let Some(e) = &s.error {
        out.errors.push(format!("transaction error: {e}"));
    }
}

/// Run the closed-loop clients on `sys` for `window` and report the commit
/// path: the end-to-end metrics when untraced; when traced, the per-layer
/// metrics and the tracing overhead, with the window split between an
/// untraced and a traced half. TPC-C consistency condition 1 must hold
/// over the window.
fn serve(
    out: &mut Outcome,
    sys: &System,
    workload: &Tpcc,
    seed: u64,
    window: Duration,
    traced: bool,
) {
    let window = if traced { window / 2 } else { window };
    let ytd_before = ytd(sys, workload);
    let measure = |traced| {
        let before = Counters::take(sys);
        let s = run_clients(sys, workload, setup::clients(), seed, window, traced);
        (s, before, Counters::take(sys))
    };
    let base_tps = traced.then(|| SliceValues::of(&measure(false).0).txn_per_s());
    let (s, before, after) = measure(traced);
    account(out, &s);
    let values = SliceValues::of(&s);
    out.detail("clients", sample_counts(&s));
    out.detail("slices", values.to_json());
    match (ytd_before, ytd(sys, workload)) {
        (Ok(b), Ok(a)) => check_ytd(out, &b, &a),
        (Err(e), _) | (_, Err(e)) => out.errors.push(e),
    }
    match base_tps {
        Some(base_tps) => {
            commit_layers(out, &s, &before, &after, window.as_secs_f64());
            let overhead = values.txn_per_s() / base_tps;
            out.metrics.put("trace.overhead_ratio", overhead, "ratio");
        }
        None => values.put(&mut out.metrics),
    }
}

/// The command log of transactions one client committed on a running
/// system, ended by a graceful stop.
struct Logged {
    image: Image,
    updates: u64,
}

/// Let one client commit transactions from `seed` on `sys` until it has
/// logged `updates` updates, then stop the system. With one client nothing
/// aborts, so one seed always logs the same records.
fn log_updates(out: &mut Outcome, sys: System, workload: &Tpcc, seed: u64, updates: u64) -> Logged {
    let stop = Stop::After(updates);
    let client = run_client(&sys, workload, 0, seed, stop, Instant::now(), false);
    account(out, &client);
    out.check(client.failed() == 0 && client.aborted_attempts == 0, || {
        "a transaction of the single logging client aborted or went unacknowledged".into()
    });
    Logged {
        image: Image::stop(sys),
        updates: client.updates,
    }
}

/// Run `f` `n` times and return its results with the median of its wall
/// times: the set-up time of a run.
fn timed_setups<T>(n: usize, mut f: impl FnMut() -> T) -> (Vec<T>, f64) {
    let mut results = Vec::with_capacity(n);
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        results.push(f());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (results, median(&secs))
}

/// `tpcc_cl` / `tpcc_read`: closed-loop clients for the window, then a
/// clean cut, a fixed tail of transactions from one client and timed CLR-P
/// restarts of that image.
fn processing(workload: &Tpcc, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Each set-up but the last is stopped before the next one starts, so
    // no spare system's threads run during a later set-up.
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last: Option<System> = None;
    for _ in 0..SETUPS {
        if let Some(spare) = last.take() {
            spare.durability.shutdown();
        }
        let t0 = Instant::now();
        last = Some(setup::boot(workload, Some(setup::CHECKPOINT_EVERY)));
        secs.push(t0.elapsed().as_secs_f64());
    }
    let sys = last.expect("at least one set-up");
    let setup_s = median(&secs);
    let window = Duration::from_secs(args.seconds);
    serve(&mut out, &sys, workload, args.seed, window, args.trace);

    let sys = match setup::clean_cut(sys) {
        Ok(sys) => sys,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let tail_seed = client_seed(args.seed, setup::clients());
    let tail = log_updates(&mut out, sys, workload, tail_seed, TAIL_UPDATES);
    restart(
        &mut out,
        &tail.image,
        tail.updates,
        RESTARTS,
        Duration::ZERO,
        args.trace,
    );
    if !args.trace {
        out.metrics.put("setup_s", setup_s, "s");
    }
    out
}

/// `tpcc_recover`: build the image several times (set-up), time CLR-P
/// recoveries of it for the first half of the window, then let the last
/// recovered database resume service on the image's devices for the second
/// half.
fn recovery(workload: &Tpcc, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = client_seed(args.seed, 0);
    let (builds, setup_s) = timed_setups(IMAGE_BUILDS, || {
        let sys = setup::boot(workload, None);
        log_updates(&mut out, sys, workload, seed, IMAGE_UPDATES)
    });
    let first = &builds[0];
    let counts = |b: &Logged| (b.image.log_bytes(), b.updates, b.image.reference);
    for (i, b) in builds.iter().enumerate() {
        out.check(counts(b) == counts(first), || {
            format!("image build {i} differs from build 0 for the same seed")
        });
    }
    let half = Duration::from_secs(args.seconds) / 2;
    let image = &first.image;
    let (_, db) = restart(
        &mut out,
        image,
        first.updates,
        MIN_RECOVERIES,
        half,
        args.trace,
    );
    if let Some(db) = db {
        let sys = setup::reopen(db, image, Some(setup::CHECKPOINT_EVERY));
        serve(&mut out, &sys, workload, args.seed, half, args.trace);
        sys.durability.shutdown();
    }
    if !args.trace {
        out.metrics.put("setup_s", setup_s, "s");
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tpcc_cl|tpcc_read|tpcc_recover> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "tpcc_cl" => processing(&setup::tpcc(false), &args),
        "tpcc_read" => processing(&setup::tpcc(true), &args),
        "tpcc_recover" => recovery(&setup::tpcc(false), &args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    for (name, value, unit) in &out.metrics.0 {
        println!("{name:<34} {value:>14.6} {unit}");
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    let mut detail = vec![("stamp".to_string(), setup::stamp(&args.workload, args.seed))];
    detail.push(("trace".into(), Json::Bool(args.trace)));
    detail.extend(out.details);
    println!("{}", Json::Obj(detail).render());

    let correct = out.errors.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(out.attempted)),
        ("failed".into(), Json::Int(out.failed)),
        ("metrics".into(), out.metrics.to_json()),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(seed: u64) -> Logged {
        let mut out = Outcome::default();
        let workload = setup::tpcc(false);
        let sys = setup::boot(&workload, None);
        let logged = log_updates(&mut out, sys, &workload, seed, 2_000);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        logged
    }

    /// What must repeat for one seed: log bytes, logged records and the
    /// database state.
    fn counts(seed: u64) -> (u64, u64, pacman_common::Fingerprint) {
        let b = image(seed);
        (b.image.log_bytes(), b.updates, b.image.reference)
    }

    #[test]
    fn one_seed_builds_one_image() {
        let first = counts(42);
        assert!(first.0 > 0 && first.1 > 0);
        assert_eq!(first, counts(42));
        assert_ne!(first.2, counts(43).2);
    }

    #[test]
    fn restart_replays_every_logged_update() {
        let b = image(5);
        let mut out = Outcome::default();
        let (runs, db) = restart(&mut out, &b.image, b.updates, 2, Duration::ZERO, true);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(runs.len(), 2);
        assert!(out
            .metrics
            .0
            .iter()
            .any(|(name, ..)| name == "core.recovery.clr_s"));
        assert_eq!(
            db.expect("recovered database").fingerprint(),
            b.image.reference
        );
    }

    #[test]
    fn restart_flags_a_wrong_record_count() {
        let b = image(6);
        let mut out = Outcome::default();
        restart(&mut out, &b.image, b.updates + 1, 1, Duration::ZERO, true);
        assert!(!out.errors.is_empty());
    }

    #[test]
    fn ytd_check_flags_a_mismatch() {
        let mut out = Outcome::default();
        check_ytd(&mut out, &[(0.0, 0.0)], &[(10.0, 10.0)]);
        assert!(out.errors.is_empty());
        check_ytd(&mut out, &[(0.0, 0.0)], &[(10.0, 9.0)]);
        assert_eq!(out.errors.len(), 1);
    }
}
