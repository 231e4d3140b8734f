//! The shared campaign supervisor: everything `crisp-diff` and
//! `crisp-fault` used to duplicate around their worker loops.
//!
//! A campaign is a deterministic list of `total` cases, a self-
//! scheduling [`WorkQueue`] over it, and `jobs` worker threads that
//! claim cases in blocks, run them through a driver-supplied closure,
//! and fold the results into a crash-safe [`Checkpoint`]. The
//! supervisor owns the cross-cutting machinery:
//!
//! * **Block claiming** — a worker claims one aligned window of
//!   `block` cases at a time and completes it as a whole, so a driver
//!   can make a block its unit of shared work: `crisp-fault` sets
//!   `block` to its faults per program, so one block is one program
//!   and computes that program's fault-free reference once.
//! * **Panic isolation** — a panicking block is retried case by case
//!   on fresh worker state, so only the offending case is quarantined
//!   (recorded, skipped, campaign continues) while its innocent
//!   blockmates complete normally. With `block = 1` this reduces to
//!   the old retry-once-then-quarantine behavior exactly.
//! * **Checkpointing** — completed blocks join the queue's contiguous
//!   prefix; tallies are folded into the checkpoint in prefix order
//!   and persisted every `save_every` cases, so `--resume` restarts
//!   replay the identical campaign.
//! * **Telemetry** — a [`CampaignMonitor`] times every case and an
//!   optional [`Heartbeat`] thread samples it onto stderr.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crisp_telemetry::{CampaignMonitor, Heartbeat};

use crate::{Checkpoint, WorkQueue};

/// How one campaign case resolved, as reported by the driver's block
/// runner.
pub enum CaseResult<T, E> {
    /// The case completed; `T` is its checkpoint contribution.
    Done(T),
    /// Deterministic verification failure — the property under test is
    /// violated, so the campaign stops and reports `E`.
    Fail(E),
    /// Harness failure (I/O, a program that will not load): the
    /// campaign aborts with the message.
    Abort(String),
}

/// Campaign-wide settings, shared by both drivers.
pub struct CampaignSpec<'a> {
    /// Total cases in the deterministic work list.
    pub total: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Cases per block: block `k` is cases `[k·block, (k+1)·block)`
    /// clipped to the work left (`--faults`, one program, for
    /// `crisp-fault`; 1, one program, for `crisp-diff`). Reports do not
    /// depend on it: every case's verdict is independent of its
    /// blockmates, and tallies fold in case order.
    pub block: u64,
    /// Persist the checkpoint every this many completed cases.
    pub save_every: u64,
    /// Checkpoint file, when `--resume` was given.
    pub resume_path: Option<&'a String>,
    /// Heartbeat period in seconds, when `--heartbeat` was given.
    pub heartbeat_secs: Option<u64>,
    /// The starting checkpoint (freshly default or loaded from
    /// `resume_path`).
    pub checkpoint: Checkpoint,
}

/// What a finished campaign hands back to the driver.
#[derive(Debug)]
pub struct CampaignReport<E, Q> {
    /// The final checkpoint (already saved when `resume_path` is set
    /// and the campaign succeeded).
    pub checkpoint: Checkpoint,
    /// The first deterministic failure, if the campaign aborted on
    /// one.
    pub failure: Option<E>,
    /// Cases whose worker panicked twice (once in a block, once solo).
    pub quarantined: Vec<Q>,
}

/// What one completed case carries through the work queue.
struct CaseDone<T> {
    /// `Some` when the case produced a checkpoint contribution (it is
    /// `None` for quarantined cases).
    payload: Option<T>,
    /// The case was re-run after a block panic.
    retried: bool,
    /// Both attempts panicked; the case was set aside.
    quarantined: bool,
}

/// Render a panic payload as text.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".into()
    }
}

/// Run a campaign to completion (or first failure).
///
/// `worker_state` builds one `W` per worker thread (machine pools,
/// lockstep buffers); it is rebuilt whenever a panic may have poisoned
/// it. `run_block` runs a claimed block of consecutive case indices
/// and reports one [`CaseResult`] per case, in case order — it may
/// panic, and the supervisor contains the blast radius. `tally_case`
/// folds one completed case's payload into the checkpoint (called in
/// contiguous-prefix order). `quarantine` renders a twice-panicking
/// case into the driver's quarantine record.
///
/// # Errors
///
/// Harness-level failures only: checkpoint I/O errors and
/// [`CaseResult::Abort`] messages. Deterministic case failures come
/// back as [`CampaignReport::failure`].
pub fn run_campaign<W, T, E, Q>(
    spec: CampaignSpec<'_>,
    worker_state: impl Fn() -> W + Sync,
    run_block: impl Fn(&[u64], &mut W) -> Vec<(u64, CaseResult<T, E>)> + Sync,
    tally_case: impl Fn(&mut Checkpoint, T) + Sync,
    quarantine: impl Fn(u64, String) -> Q + Sync,
) -> Result<CampaignReport<E, Q>, String>
where
    T: Send,
    E: Send,
    Q: Send,
{
    let CampaignSpec {
        total,
        jobs,
        block: block_size,
        save_every,
        resume_path,
        heartbeat_secs,
        checkpoint,
    } = spec;
    let failure: Mutex<Option<E>> = Mutex::new(None);
    let quarantine_log: Mutex<Vec<Q>> = Mutex::new(Vec::new());
    let abort_msg: Mutex<Option<String>> = Mutex::new(None);
    let queue: WorkQueue<CaseDone<T>> = WorkQueue::new(checkpoint.completed, total, block_size);
    let monitor = Arc::new(CampaignMonitor::new(
        total.saturating_sub(checkpoint.completed),
        jobs,
    ));
    let progress = Mutex::new((checkpoint, 0u64));
    let heartbeat =
        heartbeat_secs.map(|s| Heartbeat::start(Arc::clone(&monitor), Duration::from_secs(s)));

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (queue, progress) = (&queue, &progress);
            let (failure, quarantine_log, abort_msg) = (&failure, &quarantine_log, &abort_msg);
            let monitor = &monitor;
            let (worker_state, run_block) = (&worker_state, &run_block);
            let (tally_case, quarantine) = (&tally_case, &quarantine);
            scope.spawn(move || {
                // Settle one completed block starting at case `first`:
                // push it through the queue's prefix tracker, fold
                // released payloads into the checkpoint, and persist on
                // the save cadence. Returns false when the worker must
                // stop (I/O error).
                let settle = |first: u64, done: Vec<CaseDone<T>>| -> bool {
                    // Drain under the progress lock, so blocks are
                    // tallied in the order they join the prefix: a
                    // worker that drained first but tallied second
                    // would save a `completed` covering untallied
                    // cases, then move it back.
                    let (cp, last_saved) = &mut *progress.lock().unwrap();
                    let drained = queue.complete(first, done);
                    if drained.payloads.is_empty() {
                        return true;
                    }
                    for case in drained.payloads {
                        if let Some(t) = case.payload {
                            tally_case(cp, t);
                        }
                        if case.retried {
                            cp.tally("retries", 1);
                        }
                        if case.quarantined {
                            cp.tally("quarantined", 1);
                        }
                    }
                    cp.completed = drained.completed;
                    if let Some(path) = resume_path {
                        if drained.completed >= *last_saved + save_every {
                            if let Err(e) = cp.save(path) {
                                *abort_msg.lock().unwrap() = Some(e);
                                queue.abort();
                                return false;
                            }
                            *last_saved = drained.completed;
                        }
                    }
                    true
                };
                // Apply one block's results. A failure or abort stops
                // the campaign before the block settles. Returns false
                // when the worker must stop (failure, abort, or I/O
                // error).
                let apply =
                    |block: &[u64], results: Vec<(u64, CaseResult<T, E>)>, retried: bool| -> bool {
                        assert!(
                            results.iter().map(|r| r.0).eq(block.iter().copied()),
                            "run_block must report every case of its block, in order"
                        );
                        let mut done = Vec::with_capacity(results.len());
                        for (_, result) in results {
                            match result {
                                CaseResult::Done(t) => done.push(CaseDone {
                                    payload: Some(t),
                                    retried,
                                    quarantined: false,
                                }),
                                CaseResult::Fail(e) => {
                                    monitor.record_finding();
                                    *failure.lock().unwrap() = Some(e);
                                    queue.abort();
                                    return false;
                                }
                                CaseResult::Abort(msg) => {
                                    *abort_msg.lock().unwrap() = Some(msg);
                                    queue.abort();
                                    return false;
                                }
                            }
                        }
                        settle(block[0], done)
                    };

                let mut state = worker_state();
                while let Some(cases) = queue.claim_block() {
                    let block: Vec<u64> = cases.collect();
                    let start = Instant::now();
                    let attempt = catch_unwind(AssertUnwindSafe(|| run_block(&block, &mut state)));
                    match attempt {
                        Ok(results) => {
                            let each = start.elapsed() / block.len() as u32;
                            for _ in &block {
                                monitor.record_case(w, each);
                            }
                            if !apply(&block, results, false) {
                                return;
                            }
                        }
                        Err(_) => {
                            // The block panicked; the shared state may
                            // be poisoned. Re-run each case solo on
                            // fresh state so only the offender is
                            // quarantined.
                            for &i in &block {
                                monitor.record_retry();
                                state = worker_state();
                                let solo_start = Instant::now();
                                let solo =
                                    catch_unwind(AssertUnwindSafe(|| run_block(&[i], &mut state)));
                                monitor.record_case(w, solo_start.elapsed());
                                let settled = match solo {
                                    Ok(results) => apply(&[i], results, true),
                                    Err(payload) => {
                                        monitor.record_quarantine();
                                        state = worker_state();
                                        quarantine_log
                                            .lock()
                                            .unwrap()
                                            .push(quarantine(i, panic_text(payload)));
                                        let done = CaseDone {
                                            payload: None,
                                            retried: true,
                                            quarantined: true,
                                        };
                                        settle(i, vec![done])
                                    }
                                };
                                if !settled {
                                    return;
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    if let Some(hb) = heartbeat {
        hb.finish();
    }

    if let Some(msg) = abort_msg.into_inner().unwrap() {
        return Err(msg);
    }
    let (checkpoint, _) = progress.into_inner().unwrap();
    Ok(CampaignReport {
        checkpoint,
        failure: failure.into_inner().unwrap(),
        quarantined: quarantine_log.into_inner().unwrap(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(total: u64, block: u64) -> CampaignSpec<'static> {
        CampaignSpec {
            total,
            jobs: 3,
            block,
            save_every: 1000,
            resume_path: None,
            heartbeat_secs: None,
            checkpoint: Checkpoint::default(),
        }
    }

    #[test]
    fn campaign_completes_and_tallies_every_case() {
        for block in [1, 4] {
            let report = run_campaign(
                spec(100, block),
                || (),
                |cases, ()| {
                    cases
                        .iter()
                        .map(|&i| (i, CaseResult::<u64, String>::Done(i)))
                        .collect()
                },
                |cp, i| cp.tally("sum", i),
                |i, msg| format!("case {i}: {msg}"),
            )
            .unwrap();
            assert_eq!(report.checkpoint.completed, 100);
            assert_eq!(report.checkpoint.get("sum"), (0..100).sum::<u64>());
            assert!(report.failure.is_none());
            assert!(report.quarantined.is_empty());
        }
    }

    #[test]
    fn every_block_is_one_contiguous_slice_of_one_aligned_window() {
        // A resumed start mid-window: case 10 of windows of 7.
        let resumed = CampaignSpec {
            checkpoint: Checkpoint {
                completed: 10,
                tallies: Vec::new(),
            },
            ..spec(100, 7)
        };
        let blocks = Mutex::new(Vec::new());
        let report = run_campaign(
            resumed,
            || (),
            |cases, ()| {
                blocks.lock().unwrap().push(cases.to_vec());
                cases
                    .iter()
                    .map(|&i| (i, CaseResult::<u64, String>::Done(1)))
                    .collect()
            },
            |cp, n| cp.tally("done", n),
            |_, msg| msg,
        )
        .unwrap();
        assert_eq!(report.checkpoint.completed, 100);
        assert_eq!(report.checkpoint.get("done"), 90);
        let mut blocks = blocks.into_inner().unwrap();
        blocks.sort();
        assert_eq!(blocks[0], (10..14).collect::<Vec<_>>());
        // Each block is its whole window, clipped to the work left.
        for block in &blocks {
            let w = block[0] / 7;
            let window: Vec<u64> = ((w * 7).max(10)..((w + 1) * 7).min(100)).collect();
            assert_eq!(*block, window);
        }
        let cases: Vec<u64> = blocks.concat();
        assert_eq!(cases, (10..100).collect::<Vec<_>>());
    }

    #[test]
    fn block_panic_quarantines_only_the_offender() {
        let report = run_campaign(
            spec(32, 8),
            || (),
            |cases, ()| {
                if cases.contains(&13) {
                    panic!("poisoned case");
                }
                cases
                    .iter()
                    .map(|&i| (i, CaseResult::<u64, String>::Done(1)))
                    .collect()
            },
            |cp, n| cp.tally("done", n),
            |i, msg| (i, msg),
        )
        .unwrap();
        // Every case except 13 completed; 13 was quarantined after its
        // solo retry panicked too.
        assert_eq!(report.checkpoint.completed, 32);
        assert_eq!(report.checkpoint.get("done"), 31);
        assert_eq!(report.checkpoint.get("quarantined"), 1);
        assert!(report.checkpoint.get("retries") >= 1);
        let (case, msg) = &report.quarantined[0];
        assert_eq!(*case, 13);
        assert!(msg.contains("poisoned case"), "{msg}");
    }

    #[test]
    fn failure_aborts_the_campaign() {
        let report = run_campaign(
            spec(1000, 1),
            || (),
            |cases, ()| {
                cases
                    .iter()
                    .map(|&i| {
                        (
                            i,
                            if i == 5 {
                                CaseResult::Fail(format!("case {i} diverged"))
                            } else {
                                CaseResult::<_, String>::Done(1u64)
                            },
                        )
                    })
                    .collect()
            },
            |cp, n| cp.tally("done", n),
            |_, msg| msg,
        )
        .unwrap();
        assert_eq!(report.failure.as_deref(), Some("case 5 diverged"));
        // The queue stopped early: nowhere near all 1000 cases ran.
        assert!(report.checkpoint.completed < 1000);
    }

    #[test]
    fn abort_surfaces_as_a_harness_error() {
        let err = run_campaign(
            spec(10, 2),
            || (),
            |cases, ()| {
                cases
                    .iter()
                    .map(|&i| (i, CaseResult::<u64, String>::Abort("disk on fire".into())))
                    .collect()
            },
            |cp, n| cp.tally("done", n),
            |_, msg| msg,
        )
        .unwrap_err();
        assert!(err.contains("disk on fire"), "{err}");
    }
}
