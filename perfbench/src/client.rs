//! The benchmark's closed-loop TPC-C client.
//!
//! A client draws a transaction, runs it with `run_procedure_with_epoch`
//! (retrying OCC aborts), stages an update's command record with
//! `log_commit_buffered` and moves on once the transaction has committed in
//! memory. It acknowledges an update when the update's epoch reaches the
//! durable frontier (`pepoch_arc`); a read-only transaction is acknowledged
//! at commit. Each iteration honours the staging contract: the worker arena
//! is handed on with `flush_before_ack` before the epoch acknowledgement
//! (`enter_at`) advances. At the end the client retires its epoch slot
//! *before* it waits for outstanding acknowledgements, so the frontier can
//! pass its last epoch.
//!
//! Latencies are kept as raw nanosecond samples. A traced client also
//! stamps a clock at every call boundary; consecutive stamps partition the
//! loop, so each call's span includes the loop bookkeeping that follows it.

use crate::setup::{System, MAX_RETRIES};
use pacman_common::clock::epoch_of;
use pacman_common::Error;
use pacman_engine::run_procedure_with_epoch;
use pacman_wal::WorkerLogBuffer;
use pacman_workloads::tpcc::Tpcc;
use pacman_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// When a client stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At this instant (a measured window).
    At(Instant),
    /// After this many update commits: a crash image's log of a fixed
    /// number of logged transactions.
    After(u64),
}

/// How long a client waits for its last acknowledgements after it stops.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Width of the time slices end-to-end metrics are taken over: each is a
/// median across the complete slices of a run, so a brief stall moves it
/// less than it moves a whole-run figure.
pub const SLICE: Duration = Duration::from_millis(500);

/// Acknowledgements and latency samples of one time slice.
#[derive(Debug, Default)]
pub struct Slice {
    /// Transactions acknowledged in the slice.
    pub acked: u64,
    /// Write latency samples: submit (retries included) to acknowledgement.
    pub write_ns: Vec<u64>,
    /// Read latency samples: submit to commit.
    pub read_ns: Vec<u64>,
}

/// Per-call time of a traced client, in nanoseconds.
#[derive(Debug, Default)]
pub struct CallTimes {
    /// Time in `Workload::next_txn`.
    pub next_txn_ns: u64,
    /// Calls of `next_txn`.
    pub next_txn_calls: u64,
    /// Committed attempts of update transactions.
    pub update_exec_ns: Vec<u64>,
    /// Committed attempts of read-only transactions.
    pub read_exec_ns: Vec<u64>,
    /// Time in aborted attempts.
    pub aborted_exec_ns: u64,
    /// `log_commit_buffered` total.
    pub stage_ns: u64,
    /// Time in `flush_before_ack` calls that handed an arena to a logger.
    pub flush_ns: u64,
    /// Those calls.
    pub flushes: u64,
    /// `flush_before_ack` calls with nothing to hand on.
    pub flush_check_ns: u64,
    /// Epoch acknowledgement plus durable-frontier check.
    pub ack_ns: u64,
    /// `recycle_commit_info`.
    pub recycle_ns: u64,
}

impl CallTimes {
    /// Sum of every timed call.
    pub fn covered_ns(&self) -> u64 {
        self.next_txn_ns
            + self.update_exec_ns.iter().sum::<u64>()
            + self.read_exec_ns.iter().sum::<u64>()
            + self.aborted_exec_ns
            + self.stage_ns
            + self.flush_ns
            + self.flush_check_ns
            + self.ack_ns
            + self.recycle_ns
    }

    /// Fold another client's times in.
    pub fn merge(&mut self, o: CallTimes) {
        self.next_txn_ns += o.next_txn_ns;
        self.next_txn_calls += o.next_txn_calls;
        self.update_exec_ns.extend(o.update_exec_ns);
        self.read_exec_ns.extend(o.read_exec_ns);
        self.aborted_exec_ns += o.aborted_exec_ns;
        self.stage_ns += o.stage_ns;
        self.flush_ns += o.flush_ns;
        self.flushes += o.flushes;
        self.flush_check_ns += o.flush_check_ns;
        self.ack_ns += o.ack_ns;
        self.recycle_ns += o.recycle_ns;
    }
}

/// What one client (or several, merged) observed.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Transactions submitted.
    pub submitted: u64,
    /// Per-slice acknowledgements, by acknowledgement time since the
    /// client set started; acknowledgements after it stopped submitting
    /// land past `complete_slices`.
    pub slices: Vec<Slice>,
    /// Slices that ended before the clients stopped submitting.
    pub complete_slices: usize,
    /// Transactions that exhausted their retries.
    pub gave_up: u64,
    /// Updates still unacknowledged when the client exited.
    pub unacked: u64,
    /// Update commits (each stages one command record).
    pub updates: u64,
    /// Execution attempts, committed or aborted.
    pub attempts: u64,
    /// Aborted attempts.
    pub aborted_attempts: u64,
    /// Most retries one transaction needed.
    pub max_retries: u32,
    /// Commit return to acknowledgement, per update.
    pub durable_wait_ns: Vec<u64>,
    /// Acknowledgements of updates.
    pub write_acks: u64,
    /// Durable-frontier advances that acknowledged at least one update.
    pub advances: u64,
    /// Client wall time, thread start to exit.
    pub wall_ns: u64,
    /// Per-call times of a traced client.
    pub calls: Option<CallTimes>,
    /// The first error other than an OCC abort.
    pub error: Option<String>,
}

impl ClientStats {
    /// Fold another client's statistics in.
    pub fn merge(&mut self, o: ClientStats) {
        self.submitted += o.submitted;
        if self.slices.len() < o.slices.len() {
            self.slices.resize_with(o.slices.len(), Slice::default);
        }
        for (mine, theirs) in self.slices.iter_mut().zip(o.slices) {
            mine.acked += theirs.acked;
            mine.write_ns.extend(theirs.write_ns);
            mine.read_ns.extend(theirs.read_ns);
        }
        self.complete_slices = self.complete_slices.max(o.complete_slices);
        self.gave_up += o.gave_up;
        self.unacked += o.unacked;
        self.updates += o.updates;
        self.attempts += o.attempts;
        self.aborted_attempts += o.aborted_attempts;
        self.max_retries = self.max_retries.max(o.max_retries);
        self.durable_wait_ns.extend(o.durable_wait_ns);
        self.write_acks += o.write_acks;
        self.advances += o.advances;
        self.wall_ns += o.wall_ns;
        self.error = self.error.take().or(o.error);
        match (&mut self.calls, o.calls) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
    }

    /// Submitted transactions never acknowledged.
    pub fn failed(&self) -> u64 {
        self.gave_up + self.unacked
    }

    /// The slice `at` falls in, counting from `origin`.
    fn slice(&mut self, origin: Instant, at: Instant) -> &mut Slice {
        let i = ((at - origin).as_nanos() / SLICE.as_nanos()) as usize;
        if self.slices.len() <= i {
            self.slices.resize_with(i + 1, Slice::default);
        }
        &mut self.slices[i]
    }

    /// Write samples over all slices.
    pub fn write_samples(&self) -> usize {
        self.slices.iter().map(|s| s.write_ns.len()).sum()
    }

    /// Read samples over all slices.
    pub fn read_samples(&self) -> usize {
        self.slices.iter().map(|s| s.read_ns.len()).sum()
    }

    /// Sort the latency samples (quantiles read them sorted).
    pub fn sort_samples(&mut self) {
        for slice in &mut self.slices {
            slice.write_ns.sort_unstable();
            slice.read_ns.sort_unstable();
        }
        self.durable_wait_ns.sort_unstable();
        if let Some(c) = &mut self.calls {
            c.update_exec_ns.sort_unstable();
            c.read_exec_ns.sort_unstable();
        }
    }
}

/// An update awaiting its acknowledgement.
struct Pending {
    epoch: u64,
    submit: Instant,
    committed: Instant,
}

/// Acknowledge every pending update whose epoch the frontier has reached.
fn acknowledge(
    pending: &mut VecDeque<Pending>,
    frontier: u64,
    now: Instant,
    origin: Instant,
    s: &mut ClientStats,
) -> u64 {
    let mut acked = 0;
    while let Some(p) = pending.front() {
        if p.epoch > frontier {
            break;
        }
        s.durable_wait_ns
            .push((now - p.committed).as_nanos() as u64);
        let slice = s.slice(origin, now);
        slice.write_ns.push((now - p.submit).as_nanos() as u64);
        slice.acked += 1;
        pending.pop_front();
        acked += 1;
    }
    if acked > 0 {
        s.write_acks += acked;
        s.advances += 1;
    }
    acked
}

/// Nanoseconds from `*mark` to now; moves the mark.
#[inline]
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = (now - *mark).as_nanos() as u64;
    *mark = now;
    ns
}

/// Run one client on `sys` until `stop`. `id` selects the client's logger
/// and, with `seed`, its transaction stream; slices count from `origin`.
pub fn run_client(
    sys: &System,
    workload: &Tpcc,
    id: usize,
    seed: u64,
    stop: Stop,
    origin: Instant,
    traced: bool,
) -> ClientStats {
    let start = Instant::now();
    let durability = &sys.durability;
    let we = durability.register_worker();
    let pepoch = durability.pepoch_arc();
    let em = durability.epoch_manager();
    let mut wb = WorkerLogBuffer::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut s = ClientStats::default();
    let mut calls = CallTimes::default();
    let mut seen_frontier = 0;
    let mut mark = Instant::now();

    loop {
        let top = Instant::now();
        let done = match stop {
            Stop::At(end) => top >= end,
            Stop::After(n) => s.updates >= n,
        };
        if done {
            break;
        }
        if traced {
            calls.ack_ns += (top - mark).as_nanos() as u64;
            mark = top;
        }
        let e = we.peek();
        if traced {
            let had_records = !wb.is_empty();
            durability.flush_before_ack(&mut wb, id, e);
            let ns = lap(&mut mark);
            if had_records && wb.is_empty() {
                calls.flush_ns += ns;
                calls.flushes += 1;
            } else {
                calls.flush_check_ns += ns;
            }
        } else {
            durability.flush_before_ack(&mut wb, id, e);
        }
        we.enter_at(e);
        let frontier = pepoch.load(Ordering::Acquire);
        if frontier != seen_frontier {
            seen_frontier = frontier;
            let acked = acknowledge(&mut pending, frontier, top, origin, &mut s);
            if acked > 0 {
                durability.note_commit_group(acked);
            }
        }
        if traced {
            calls.ack_ns += lap(&mut mark);
        }

        let (pid, params) = workload.next_txn(&mut rng);
        if traced {
            calls.next_txn_ns += lap(&mut mark);
            calls.next_txn_calls += 1;
        }
        let proc = sys.registry.get(pid).expect("registered procedure");
        s.submitted += 1;
        let submit = Instant::now();
        let mut tries = 0;
        loop {
            s.attempts += 1;
            match run_procedure_with_epoch(&sys.db, proc, &params, || em.current()) {
                Ok(info) => {
                    let committed = Instant::now();
                    let update = !info.writes.is_empty();
                    if traced {
                        let ns = lap(&mut mark);
                        if update {
                            calls.update_exec_ns.push(ns);
                        } else {
                            calls.read_exec_ns.push(ns);
                        }
                    }
                    if update {
                        durability.log_commit_buffered(&mut wb, id, &info, pid, &params, false);
                        if traced {
                            calls.stage_ns += lap(&mut mark);
                        }
                        s.updates += 1;
                        pending.push_back(Pending {
                            epoch: epoch_of(info.ts),
                            submit,
                            committed,
                        });
                    } else {
                        let slice = s.slice(origin, committed);
                        slice.read_ns.push((committed - submit).as_nanos() as u64);
                        slice.acked += 1;
                    }
                    pacman_engine::recycle_commit_info(info);
                    if traced {
                        calls.recycle_ns += lap(&mut mark);
                    }
                    break;
                }
                Err(Error::TxnAborted(_)) => {
                    if traced {
                        calls.aborted_exec_ns += lap(&mut mark);
                    }
                    s.aborted_attempts += 1;
                    tries += 1;
                    s.max_retries = s.max_retries.max(tries);
                    if tries > MAX_RETRIES {
                        s.gave_up += 1;
                        break;
                    }
                }
                Err(e) => {
                    s.error.get_or_insert_with(|| format!("{pid:?}: {e}"));
                    s.gave_up += 1;
                    break;
                }
            }
        }
    }

    let stopped = match stop {
        Stop::At(end) => end,
        Stop::After(_) => Instant::now(),
    };
    s.complete_slices = ((stopped - origin).as_nanos() / SLICE.as_nanos()) as usize;
    // Hand on the last staged records and leave the epoch protocol, then
    // wait for the frontier to pass every pending update.
    durability.flush_worker(&mut wb, id);
    we.retire();
    let limit = Instant::now() + DRAIN_LIMIT;
    while !pending.is_empty() && Instant::now() < limit {
        let frontier = pepoch.load(Ordering::Acquire);
        let acked = acknowledge(&mut pending, frontier, Instant::now(), origin, &mut s);
        if acked > 0 {
            durability.note_commit_group(acked);
        } else {
            durability
                .durable_signal()
                .wait_for(Duration::from_millis(1));
        }
    }
    s.unacked = pending.len() as u64;
    s.wall_ns = start.elapsed().as_nanos() as u64;
    s.calls = traced.then_some(calls);
    s
}

/// Run `clients` clients on `sys` for `window`; client `i` draws its
/// transactions from `client_seed(seed, i)`.
pub fn run_clients(
    sys: &System,
    workload: &Tpcc,
    clients: usize,
    seed: u64,
    window: Duration,
    traced: bool,
) -> ClientStats {
    let origin = Instant::now();
    let stop = Stop::At(origin + window);
    let mut total = ClientStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let seed = client_seed(seed, i);
                scope.spawn(move || run_client(sys, workload, i, seed, stop, origin, traced))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total.sort_samples();
    total
}

/// The transaction-stream seed of client `i` (splitmix64 of the pair).
pub fn client_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
