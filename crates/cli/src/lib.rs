//! Shared plumbing for the command-line tools.
//!
//! `crispc` compiles mini-C to CRISP code (listing, disassembly or a
//! summary); `crisp-run` compiles — or assembles `.s` files — and
//! executes on the functional or cycle engine, printing the statistics
//! the paper's tables are made of.

#![warn(missing_docs)]

pub mod campaign;

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crisp_cc::{CompileOptions, PredictionMode};
use crisp_isa::FoldPolicy;
use crisp_sim::{
    Engine, FaultPlan, FaultSpace, FaultTarget, HwPredictor, ParityMode, PipelineGeometry,
    SimConfig, MAX_DEPTH, MIN_DEPTH,
};

/// Parsed common command-line options.
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// Input path (`-` for stdin).
    pub input: Option<String>,
    /// Compiler options.
    pub compile: CompileOptions,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Remaining tool-specific flags.
    pub rest: Vec<String>,
}

/// Largest `--icache`: the cap `--predictor` geometries have, so a
/// typo cannot ask for an unallocatable cache.
const MAX_ICACHE_ENTRIES: usize = 1 << 16;

/// Parse the compiler options both tools read:
///
/// ```text
/// --no-spread            disable Branch Spreading
/// --predict MODE         taken | not-taken | btfnt | ftbnt
/// ```
///
/// # Errors
///
/// A message on a bad or repeated value.
pub fn parse_compile(raw: &mut Vec<String>) -> Result<CompileOptions, String> {
    Ok(CompileOptions {
        spread: !parse_switch(raw, "--no-spread")?,
        prediction: parse_choice(raw, "--predict", &PREDICTION_MODES)?
            .unwrap_or(CompileOptions::default().prediction),
    })
}

/// Parse `--fold POLICY` (none | host1 | host13 | all), defaulting to
/// the shipped policy.
///
/// # Errors
///
/// A message on a bad or repeated value.
pub fn parse_fold(raw: &mut Vec<String>) -> Result<FoldPolicy, String> {
    Ok(parse_choice(raw, "--fold", &FOLD_POLICIES)?.unwrap_or(SimConfig::default().fold_policy))
}

/// Split what the flag parsers left into the one input path and the
/// flags nobody took, for the tool to reject.
///
/// # Errors
///
/// A second input; when a flag was left over too, the flag is named
/// instead, since an unknown flag that takes a value leaves the value
/// looking like an input.
pub fn split_input(raw: Vec<String>) -> Result<(Option<String>, Vec<String>), String> {
    let mut input = None;
    let mut rest: Vec<String> = Vec::new();
    for arg in raw {
        if arg.starts_with("--") {
            rest.push(arg);
        } else if input.is_some() {
            return Err(match rest.first() {
                Some(flag) => format!("unknown flag `{flag}`"),
                None => format!("unexpected extra input `{arg}`"),
            });
        } else {
            input = Some(arg);
        }
    }
    Ok((input, rest))
}

/// Parse `crisp-run`'s compiler and machine options: those of
/// [`parse_compile`] and [`parse_fold`], and
///
/// ```text
/// --predictor HW         live hardware predictor: static |
///                        counterN[xM] | btb[SxW] | jumptrace[N]
/// --icache N             decoded-cache entries (a power of two,
///                        at most 65536)
/// --eu-depth N           execution-unit stages between issue and
///                        retire (2..=8; 3 is the paper's IR/OR/RR)
/// --mem-latency N        cycles per 4-parcel instruction fetch (>= 1)
/// --max-cycles N         watchdog: end the run after N cycles/steps
/// --max-insns N          watchdog: end the run after N instructions
/// --parity MODE          front-end parity: off | detect
/// --inject T:C:S:B       arm a single-bit fault: target T (cache |
///                        btb | pdu), cycle C, slot S, bit-site B
///                        (an index into the target's fault space)
/// ```
///
/// # Errors
///
/// A message on bad values (see [`split_input`] for unknown flags).
pub fn parse_common(args: impl Iterator<Item = String>) -> Result<CommonArgs, String> {
    let mut raw: Vec<String> = args.collect();
    let raw = &mut raw;
    let d = SimConfig::default();
    let compile = parse_compile(raw)?;
    let icache_want = format!("a power of two in 1..={MAX_ICACHE_ENTRIES}");
    let mut sim = SimConfig {
        predictor: parse_predictor(raw)?.unwrap_or(d.predictor),
        fold_policy: parse_fold(raw)?,
        icache_entries: parse_valid(raw, "--icache", &icache_want, |n: &usize| {
            n.is_power_of_two() && *n <= MAX_ICACHE_ENTRIES
        })?
        .unwrap_or(d.icache_entries),
        mem_latency: parse_valid(raw, "--mem-latency", "a count >= 1", |n: &u32| *n > 0)?
            .unwrap_or(d.mem_latency),
        geometry: parse_eu_depth(raw)?.unwrap_or_default(),
        max_cycles: parse_max_cycles(raw)?.unwrap_or(d.max_cycles),
        max_insns: parse_valid(raw, "--max-insns", "a count >= 1", |&n: &u64| n > 0)?,
        parity: parse_choice(raw, "--parity", &PARITY_MODES)?.unwrap_or(d.parity),
        ..d
    };
    // `--inject btb:...` enumerates the live predictor's fault sites.
    if let Some(spec) = extract_flag(raw, "--inject")? {
        sim.fault_plan = Some(parse_fault_spec(&spec, sim.predictor)?);
    }
    let (input, rest) = split_input(std::mem::take(raw))?;
    Ok(CommonArgs {
        input,
        compile,
        sim,
        rest,
    })
}

/// `--predict` spellings.
const PREDICTION_MODES: [(&str, PredictionMode); 4] = [
    ("taken", PredictionMode::Taken),
    ("not-taken", PredictionMode::NotTaken),
    ("btfnt", PredictionMode::Btfnt),
    ("ftbnt", PredictionMode::Ftbnt),
];

/// `--fold` spellings.
const FOLD_POLICIES: [(&str, FoldPolicy); 4] = [
    ("none", FoldPolicy::None),
    ("host1", FoldPolicy::Host1),
    ("host13", FoldPolicy::Host13),
    ("all", FoldPolicy::All),
];

/// `--parity` spellings.
const PARITY_MODES: [(&str, ParityMode); 2] = [
    ("off", ParityMode::Off),
    ("detect", ParityMode::DetectInvalidate),
];

/// Remove `--name VALUE` from an argument vector, `None` when the flag
/// is absent, and map the value through `choices`. A value that names
/// no choice is an error that lists them.
fn parse_choice<T: Copy>(
    raw: &mut Vec<String>,
    name: &str,
    choices: &[(&str, T)],
) -> Result<Option<T>, String> {
    extract_flag(raw, name)?
        .map(|v| {
            choices
                .iter()
                .find(|(spelling, _)| *spelling == v)
                .map(|&(_, choice)| choice)
                .ok_or_else(|| {
                    let want: Vec<&str> = choices.iter().map(|(spelling, _)| *spelling).collect();
                    format!("{name}: bad value `{v}` (want {})", want.join(" | "))
                })
        })
        .transpose()
}

/// Parse a `--inject TARGET:CYCLE:SLOT:SITE` fault specification into a
/// [`FaultPlan`], resolving the bit site against the target's
/// enumerable fault space (`btb` sites depend on the live predictor).
fn parse_fault_spec(spec: &str, predictor: HwPredictor) -> Result<FaultPlan, String> {
    let bad = || format!("bad --inject value `{spec}` (want TARGET:CYCLE:SLOT:SITE)");
    let parts: Vec<&str> = spec.split(':').collect();
    let [target, cycle, slot, site] = parts.as_slice() else {
        return Err(bad());
    };
    let target =
        FaultTarget::parse(target).ok_or_else(|| format!("unknown --inject target `{target}`"))?;
    let space = target_space("--inject", target, predictor)?;
    let cycle: u64 = cycle.parse().map_err(|_| bad())?;
    let slot: u32 = slot.parse().map_err(|_| bad())?;
    let site: u64 = site.parse().map_err(|_| bad())?;
    if site >= space.size() {
        return Err(format!(
            "--inject bit-site {site} out of range (this target has {} fault sites)",
            space.size()
        ));
    }
    Ok(FaultPlan {
        cycle,
        slot,
        field: space.nth(site),
        target,
    })
}

/// The fault space target `t` offers under predictor `p`, or the error
/// `flag` reports when the target has no state to strike.
///
/// # Errors
///
/// The predictor target under the static-bit predictor.
pub fn target_space(flag: &str, t: FaultTarget, p: HwPredictor) -> Result<FaultSpace, String> {
    FaultSpace::of(t, p).ok_or_else(|| {
        format!(
            "{flag} {} needs a dynamic --predictor (the static bit has no hardware state \
             to strike)",
            t.name()
        )
    })
}

fn given_twice(name: &str) -> String {
    format!("`{name}` given more than once")
}

/// Remove `--name VALUE` from an argument vector, returning the value.
///
/// # Errors
///
/// A message when the flag is present without a value, or is
/// given more than once.
pub fn extract_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == name) {
        if pos + 1 >= args.len() {
            return Err(format!("{name} requires a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        if args.iter().any(|a| a == name) {
            return Err(given_twice(name));
        }
        return Ok(Some(value));
    }
    Ok(None)
}

/// Remove the first boolean `--name` switch from an argument vector.
/// A repeat stays in `args`, where the caller's leftover check rejects
/// it; [`parse_switch`] names the repeat instead.
pub fn extract_switch(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == name) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Remove a boolean `--name` switch from an argument vector.
///
/// # Errors
///
/// A message naming the switch when it is given more than once.
pub fn parse_switch(args: &mut Vec<String>, name: &str) -> Result<bool, String> {
    let given = extract_switch(args, name);
    if given && args.iter().any(|a| a == name) {
        return Err(given_twice(name));
    }
    Ok(given)
}

/// Remove `--name N` from an argument vector and parse it, or return
/// `default` when the flag is absent.
///
/// # Errors
///
/// A message naming the flag when its value is missing or does not
/// parse as a `T`.
pub fn parse_num<T: std::str::FromStr>(
    raw: &mut Vec<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match extract_flag(raw, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: bad value `{v}`")),
    }
}

/// Largest `--programs` (and `--c-programs`): both campaign drivers
/// build their whole work list up front, so a typo must not ask for an
/// unallocatable list. 2^20 is a thousand times the largest campaign
/// in use (the benchmark's 1024 programs).
pub const MAX_PROGRAMS: u64 = 1 << 20;

/// Largest `--jobs`: each worker is an operating-system thread with a
/// slot in the campaign monitor, so a typo must not ask for millions of
/// them. 1024 is far past the core count of any host in use.
pub const MAX_JOBS: u64 = 1024;

/// [`parse_num`] for a count with an upper bound.
///
/// # Errors
///
/// As [`parse_num`], and a message naming the flag and the bound when
/// the value exceeds `max`.
pub fn parse_count(
    raw: &mut Vec<String>,
    name: &str,
    default: u64,
    max: u64,
) -> Result<u64, String> {
    let n = parse_num(raw, name, default)?;
    if n > max {
        return Err(format!("{name}: {n} is more than the bound of {max}"));
    }
    Ok(n)
}

/// Remove `--engine interp|threaded` from an argument vector, or
/// return [`Engine::Interp`] when the flag is absent.
///
/// # Errors
///
/// A message when the value is missing or names no engine.
pub fn parse_engine(raw: &mut Vec<String>) -> Result<Engine, String> {
    match extract_flag(raw, "--engine")? {
        Some(name) => Engine::parse(&name)
            .ok_or_else(|| format!("unknown engine `{name}` (interp | threaded)")),
        None => Ok(Engine::Interp),
    }
}

/// Remove `--predictor HW` from an argument vector: the live hardware
/// predictor, `None` when the flag is absent.
///
/// # Errors
///
/// A message when the value is missing or names no predictor.
pub fn parse_predictor(raw: &mut Vec<String>) -> Result<Option<HwPredictor>, String> {
    extract_flag(raw, "--predictor")?
        .map(|v| HwPredictor::parse(&v).map_err(|e| format!("--predictor: bad value `{v}`: {e}")))
        .transpose()
}

/// Remove `--name N` from an argument vector and parse it, `None` when
/// the flag is absent. A value that does not parse, or fails `valid`,
/// is an error that names what the flag wants.
fn parse_valid<T: std::str::FromStr>(
    raw: &mut Vec<String>,
    name: &str,
    want: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    extract_flag(raw, name)?
        .map(|v| {
            v.parse()
                .ok()
                .filter(|n| valid(n))
                .ok_or_else(|| format!("{name}: bad value `{v}` (want {want})"))
        })
        .transpose()
}

/// Remove `--eu-depth N` from an argument vector: the execution-unit
/// geometry, `None` when the flag is absent.
///
/// # Errors
///
/// A message when the value is missing or not a depth in
/// `MIN_DEPTH..=MAX_DEPTH`.
pub fn parse_eu_depth(raw: &mut Vec<String>) -> Result<Option<PipelineGeometry>, String> {
    let depths = MIN_DEPTH..=MAX_DEPTH;
    let want = format!("{MIN_DEPTH}..={MAX_DEPTH}");
    let depth = parse_valid(raw, "--eu-depth", &want, |n| depths.contains(n))?;
    Ok(depth.map(PipelineGeometry::new))
}

/// Remove `--max-cycles N` from an argument vector: the watchdog
/// budget, `None` when the flag is absent.
///
/// # Errors
///
/// A message when the value is missing or not a count `>= 1`.
pub fn parse_max_cycles(raw: &mut Vec<String>) -> Result<Option<u64>, String> {
    parse_valid(raw, "--max-cycles", "a count >= 1", |&n| n > 0)
}

/// Remove `--heartbeat SECS` from an argument vector: the campaign
/// heartbeat period, `None` when the flag is absent.
///
/// # Errors
///
/// A message when the value is missing or not a whole number of
/// seconds `>= 1`.
pub fn parse_heartbeat(raw: &mut Vec<String>) -> Result<Option<u64>, String> {
    parse_valid(raw, "--heartbeat", "seconds >= 1", |&n| n > 0)
}

/// The starting checkpoint of a campaign of `total` `unit`s: the one
/// at the `--resume` path when it exists (announced on stdout as
/// `<tool>: resuming from ...`), else a fresh one.
///
/// # Errors
///
/// The [`Checkpoint::load_for_campaign`] failures.
pub fn resume_checkpoint(
    tool: &str,
    resume_path: Option<&String>,
    total: u64,
    unit: &str,
) -> Result<Checkpoint, String> {
    let Some(path) = resume_path else {
        return Ok(Checkpoint::default());
    };
    let loaded = Checkpoint::load_for_campaign(path, total)?;
    if let Some(cp) = &loaded {
        println!(
            "{tool}: resuming from {path} ({} / {total} {unit} done)",
            cp.completed
        );
    }
    Ok(loaded.unwrap_or_default())
}

/// A crash-safe campaign checkpoint: how many leading cases of the
/// deterministic work list are already done, plus accumulated named
/// counters (for `crisp-fault` these are `<field>.<outcome>` tallies).
///
/// Serialised as one flat JSON object — `{"completed":N,"key":count}` —
/// so a half-written file from a crash mid-save is detectably invalid
/// rather than silently truncating the campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of leading campaign cases already completed.
    pub completed: u64,
    /// Accumulated named counters, in first-seen order.
    pub tallies: Vec<(String, u64)>,
}

impl Checkpoint {
    /// Add `n` to the named counter (creating it at zero).
    pub fn tally(&mut self, key: &str, n: u64) {
        match self.tallies.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v += n,
            None => self.tallies.push((key.to_string(), n)),
        }
    }

    /// Current value of the named counter (zero when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.tallies
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Serialise as a flat JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"completed\":{}", self.completed);
        for (k, v) in &self.tallies {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push('}');
        out
    }

    /// Parse the flat JSON object written by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// A message on malformed input (including a truncated file
    /// left behind by a crash mid-save).
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let bad = |what: &str| format!("checkpoint: {what}");
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| bad("not a JSON object"))?;
        let mut cp = Checkpoint::default();
        let mut saw_completed = false;
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| bad("entry is not `key:value`"))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| bad("key is not a quoted string"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| bad("value is not a non-negative integer"))?;
            if key == "completed" {
                cp.completed = value;
                saw_completed = true;
            } else {
                cp.tally(key, value);
            }
        }
        if !saw_completed {
            return Err(bad("missing `completed` field"));
        }
        Ok(cp)
    }

    /// Load a checkpoint from `path`. A missing file is a fresh start
    /// (`Ok(None)`); an unreadable or malformed file is an error.
    ///
    /// # Errors
    ///
    /// A message on I/O failure (other than not-found) or parse
    /// failure.
    pub fn load(path: &str) -> Result<Option<Checkpoint>, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Checkpoint::from_json(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("reading {path}: {e}")),
        }
    }

    /// Load a checkpoint for a campaign of `total` cases: like
    /// [`Checkpoint::load`], but a checkpoint claiming more completed
    /// cases than the campaign has is rejected — it belongs to a
    /// different (larger) campaign, and resuming from it would make
    /// the work queue's remaining-case arithmetic underflow.
    ///
    /// # Errors
    ///
    /// A message on I/O failure, parse failure, or a `completed`
    /// count exceeding `total`.
    pub fn load_for_campaign(path: &str, total: u64) -> Result<Option<Checkpoint>, String> {
        match Checkpoint::load(path)? {
            Some(cp) if cp.completed > total => Err(format!(
                "checkpoint {path} claims {} completed cases but this campaign has only {total}; \
                 it belongs to a different campaign — delete it or run without --resume",
                cp.completed
            )),
            other => Ok(other),
        }
    }

    /// Persist to `path` via write-temp, fsync, rename: a reader never
    /// sees a half-written checkpoint (the rename is atomic on POSIX
    /// filesystems), and the fsync ensures the rename cannot land
    /// before the data — a crash or SIGKILL at any point leaves either
    /// the previous complete checkpoint or the new complete one, never
    /// a torn file.
    ///
    /// # Errors
    ///
    /// A message describing the I/O failure.
    pub fn save(&self, path: &str) -> Result<(), String> {
        use std::io::Write as _;
        let tmp = format!("{path}.tmp");
        let write_synced = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()
        };
        if let Err(e) = write_synced() {
            return Err(format!("writing {tmp}: {e}"));
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            return Err(format!("renaming {tmp} to {path}: {e}"));
        }
        Ok(())
    }
}

/// A self-scheduling campaign work queue with contiguous-prefix
/// completion tracking.
///
/// Cases are cut into aligned windows `[k·block, (k+1)·block)`, and
/// workers [`claim_block`](WorkQueue::claim_block) the next window with
/// one `fetch_add` — no fixed per-worker chunking, so a worker that
/// finishes early takes the next window. Alignment makes the blocks a
/// property of the campaign, not of the run: a resumed start in the
/// middle of a window first hands out the rest of that window, then
/// exactly the windows an uninterrupted run would have. Workers report
/// each finished block with its cases' checkpoint payloads, which are
/// handed back to the caller only once the block joins the contiguous
/// completed prefix. That keeps `--resume` checkpoints sound: a
/// checkpoint claiming N completed cases accounts for exactly the
/// first N cases even though blocks finish out of order.
pub struct WorkQueue<T> {
    /// The next window to hand out.
    next: AtomicU64,
    start: u64,
    total: u64,
    block: u64,
    stop: AtomicBool,
    state: Mutex<QueueState<T>>,
}

struct QueueState<T> {
    /// Cases `0..prefix` are complete and their payloads drained.
    prefix: u64,
    /// Finished blocks (first case, payloads) still waiting for an
    /// earlier one: at most one per worker, plus the solo reruns of
    /// one panicked block, so the linear scans below stay cheap.
    pending: Vec<(u64, Vec<T>)>,
}

/// Prefix progress released by [`WorkQueue::complete`].
pub struct Drained<T> {
    /// Cases now in the contiguous completed prefix.
    pub completed: u64,
    /// Payloads of the cases that just joined the prefix, in index
    /// order. Empty when the completed block is still waiting on an
    /// earlier in-flight one.
    pub payloads: Vec<T>,
}

impl<T> WorkQueue<T> {
    /// A queue over cases `start..total` in windows of `block` cases
    /// (cases below `start` were completed by a previous run and come
    /// from the checkpoint).
    ///
    /// # Panics
    ///
    /// If `block` is zero.
    pub fn new(start: u64, total: u64, block: u64) -> Self {
        assert!(block >= 1, "a campaign block needs at least one case");
        WorkQueue {
            next: AtomicU64::new(start / block),
            start,
            total,
            block,
            stop: AtomicBool::new(false),
            state: Mutex::new(QueueState {
                prefix: start,
                pending: Vec::new(),
            }),
        }
    }

    /// Claim the cases of the next window still inside `start..total`,
    /// or `None` when the queue is drained or aborted.
    pub fn claim_block(&self) -> Option<Range<u64>> {
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        let first = k.saturating_mul(self.block).max(self.start);
        let end = (k + 1).saturating_mul(self.block).min(self.total);
        (first < end).then_some(first..end)
    }

    /// Stop handing out work (a failure was recorded); in-flight blocks
    /// finish on their own.
    pub fn abort(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Record the block starting at case `first` as finished with one
    /// checkpoint payload per case, and collect any payloads that just
    /// became part of the contiguous prefix.
    pub fn complete(&self, first: u64, payloads: Vec<T>) -> Drained<T> {
        let mut st = self.state.lock().unwrap();
        st.pending.push((first, payloads));
        let mut released = Vec::new();
        while let Some(pos) = st.pending.iter().position(|(i, _)| *i == st.prefix) {
            let (_, block) = st.pending.swap_remove(pos);
            st.prefix += block.len() as u64;
            released.extend(block);
        }
        Drained {
            completed: st.prefix,
            payloads: released,
        }
    }
}

/// Read the input file (or stdin when the path is `-` or absent).
///
/// # Errors
///
/// A message describing the I/O failure.
pub fn read_input(input: &Option<String>) -> Result<String, String> {
    use std::io::Read as _;
    match input.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            match std::io::stdin().read_to_string(&mut buf) {
                Ok(_) => Ok(buf),
                Err(e) => Err(format!("reading stdin: {e}")),
            }
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => Ok(s),
            Err(e) => Err(format!("reading {path}: {e}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_sim::{nth_field, nth_pdu_field, nth_predictor_field};

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        parse_common(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&["prog.c"]).unwrap();
        assert_eq!(a.input.as_deref(), Some("prog.c"));
        assert!(a.compile.spread);
        assert_eq!(a.sim.icache_entries, 32);
    }

    #[test]
    fn flags() {
        let a = parse(&[
            "--no-spread",
            "--predict",
            "not-taken",
            "--fold",
            "none",
            "--icache",
            "64",
            "--mem-latency",
            "3",
            "x.c",
        ])
        .unwrap();
        assert!(!a.compile.spread);
        assert_eq!(a.compile.prediction, PredictionMode::NotTaken);
        assert_eq!(a.sim.fold_policy, FoldPolicy::None);
        assert_eq!(a.sim.icache_entries, 64);
        assert_eq!(a.sim.mem_latency, 3);
    }

    #[test]
    fn eu_depth_flag_sets_geometry() {
        let a = parse(&["--eu-depth", "5", "x.c"]).unwrap();
        assert_eq!(a.sim.geometry.depth(), 5);
        let a = parse(&["x.c"]).unwrap();
        assert_eq!(a.sim.geometry, PipelineGeometry::crisp());
    }

    #[test]
    fn tool_specific_flags_pass_through() {
        let a = parse(&["--cycles", "x.c"]).unwrap();
        assert_eq!(a.rest, vec!["--cycles".to_string()]);
    }

    #[test]
    fn repeated_flags_and_switches_are_named() {
        let mut args: Vec<String> = ["--jobs", "2", "--jobs", "1"].map(String::from).into();
        let e = extract_flag(&mut args, "--jobs").unwrap_err();
        assert_eq!(e, "`--jobs` given more than once");
        let mut args: Vec<String> = ["--smoke", "x", "--smoke"].map(String::from).into();
        assert_eq!(
            parse_switch(&mut args, "--smoke"),
            Err("`--smoke` given more than once".to_string())
        );
        let mut args: Vec<String> = ["--smoke", "--jobs", "1"].map(String::from).into();
        assert_eq!(parse_switch(&mut args, "--smoke"), Ok(true));
        assert_eq!(parse_switch(&mut args, "--inject"), Ok(false));
        assert_eq!(
            extract_flag(&mut args, "--jobs").unwrap().as_deref(),
            Some("1")
        );
        assert!(args.is_empty());
    }

    #[test]
    fn watchdog_flags() {
        let a = parse(&["--max-cycles", "5000", "--max-insns", "200", "x.c"]).unwrap();
        assert_eq!(a.sim.max_cycles, 5000);
        assert_eq!(a.sim.max_insns, Some(200));
    }

    #[test]
    fn fault_injection_flags() {
        let a = parse(&["--parity", "detect", "x.c"]).unwrap();
        assert_eq!(a.sim.parity, ParityMode::DetectInvalidate);

        let a = parse(&["--inject", "cache:60:7:0", "x.c"]).unwrap();
        let plan = a.sim.fault_plan.unwrap();
        assert_eq!(plan.target, FaultTarget::Cache);
        assert_eq!((plan.cycle, plan.slot), (60, 7));
        assert_eq!(plan.field, nth_field(0));

        // `--inject btb:...` resolves against the predictor even when
        // `--predictor` comes later on the line.
        let a = parse(&["--inject", "btb:40:0:5", "--predictor", "btb", "x.c"]).unwrap();
        let plan = a.sim.fault_plan.unwrap();
        assert_eq!(plan.target, FaultTarget::Predictor);
        assert_eq!(plan.field, nth_predictor_field(a.sim.predictor, 5).unwrap());

        let a = parse(&["--inject", "pdu:10:3:40", "x.c"]).unwrap();
        assert_eq!(a.sim.fault_plan.unwrap().field, nth_pdu_field(40));
    }

    #[test]
    fn fault_injection_flag_errors() {
        assert!(parse(&["--parity", "maybe"]).is_err());
        assert!(parse(&["--inject", "cache:60:7"]).is_err());
        assert!(parse(&["--inject", "dram:60:7:0"]).is_err());
        assert!(parse(&["--inject", "cache:60:7:999"]).is_err());
        // The static-bit predictor has no strikable state.
        let e = parse(&["--inject", "btb:60:0:0", "x.c"]).unwrap_err();
        assert!(
            e.contains("--inject btb needs a dynamic --predictor"),
            "{e}"
        );
        let e = parse(&["--inject", "pdu:10:3:999"]).unwrap_err();
        assert!(e.contains("fault sites"), "{e}");
    }

    #[test]
    fn errors() {
        assert!(parse(&["--predict"]).is_err());
        assert!(parse(&["--predict", "sideways"]).is_err());
        assert!(parse(&["--fold", "sometimes"]).is_err());
        assert!(parse(&["--icache", "lots"]).is_err());
        assert!(parse(&["--eu-depth", "1"]).is_err());
        assert!(parse(&["--eu-depth", "9"]).is_err());
        assert!(parse(&["--eu-depth", "deep"]).is_err());
        assert!(parse(&["--max-cycles", "0"]).is_err());
        assert!(parse(&["--max-insns", "soon"]).is_err());
        assert!(parse(&["a.c", "b.c"]).is_err());
        for bad in ["0", "3", "131072", "1073741824"] {
            let e = parse(&["--icache", bad, "x.c"]).unwrap_err();
            assert!(e.contains("want a power of two in 1..=65536"), "{e}");
        }
        assert_eq!(
            parse(&["--icache", "65536"]).unwrap().sim.icache_entries,
            1 << 16
        );
        assert_eq!(parse(&["--icache", "1"]).unwrap().sim.icache_entries, 1);
        let e = parse(&["--mem-latency", "0", "x.c"]).unwrap_err();
        assert!(e.contains("want a count >= 1"), "{e}");
    }

    #[test]
    fn unknown_flag_with_a_value_is_blamed() {
        let e = parse(&["--max-steps", "5", "prog.c"]).unwrap_err();
        assert_eq!(e, "unknown flag `--max-steps`");
        let e = parse(&["a.c", "b.c"]).unwrap_err();
        assert_eq!(e, "unexpected extra input `b.c`");
    }

    #[test]
    fn checkpoint_round_trips() {
        let mut cp = Checkpoint {
            completed: 37,
            tallies: Vec::new(),
        };
        cp.tally("next-pc.masked", 4);
        cp.tally("valid.hang", 1);
        cp.tally("next-pc.masked", 2);
        let json = cp.to_json();
        assert_eq!(
            json,
            r#"{"completed":37,"next-pc.masked":6,"valid.hang":1}"#
        );
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.get("next-pc.masked"), 6);
        assert_eq!(back.get("absent"), 0);
    }

    #[test]
    fn checkpoint_rejects_malformed_input() {
        assert!(Checkpoint::from_json("").is_err());
        assert!(Checkpoint::from_json("{").is_err());
        assert!(Checkpoint::from_json("{\"completed\":1,\"k\":-3}").is_err());
        assert!(Checkpoint::from_json("{\"k\":1}").is_err());
        assert!(Checkpoint::from_json("{\"completed\":1,\"k\"}").is_err());
        assert!(Checkpoint::from_json("{completed:1}").is_err());
    }

    #[test]
    fn predictor_flag_selects_hardware_predictor() {
        let a = parse(&["x.c"]).unwrap();
        assert_eq!(a.sim.predictor, crisp_sim::HwPredictor::StaticBit);
        let a = parse(&["--predictor", "btb", "x.c"]).unwrap();
        assert_eq!(
            a.sim.predictor,
            crisp_sim::HwPredictor::Btb {
                entries: 128,
                ways: 4
            }
        );
        let a = parse(&["--predictor", "counter2x32", "x.c"]).unwrap();
        assert_eq!(
            a.sim.predictor,
            crisp_sim::HwPredictor::Dynamic {
                bits: 2,
                entries: 32
            }
        );
        let e = parse(&["--predictor", "oracle", "x.c"]).unwrap_err();
        assert!(e.contains("--predictor"), "{}", e);
        assert!(parse(&["--predictor"]).is_err());
    }

    #[test]
    fn checkpoint_load_for_campaign_rejects_oversized_completed() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "crisp-checkpoint-total-{}.json",
            std::process::id()
        ));
        let path = path.to_str().unwrap().to_string();
        // Missing file: fresh start regardless of total.
        assert_eq!(Checkpoint::load_for_campaign(&path, 5).unwrap(), None);
        let cp = Checkpoint {
            completed: 10,
            tallies: Vec::new(),
        };
        cp.save(&path).unwrap();
        // Fits the campaign: accepted.
        assert_eq!(
            Checkpoint::load_for_campaign(&path, 10).unwrap(),
            Some(cp.clone())
        );
        assert_eq!(Checkpoint::load_for_campaign(&path, 200).unwrap(), Some(cp));
        // Claims more cases than the campaign has: clean usage error,
        // not a queue-arithmetic underflow.
        let e = Checkpoint::load_for_campaign(&path, 9).unwrap_err();
        assert!(
            e.contains("10 completed cases") && e.contains("only 9"),
            "{}",
            e
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn work_queue_resumed_mid_window_yields_a_partial_first_block() {
        let q: WorkQueue<u64> = WorkQueue::new(10, 30, 8);
        assert_eq!(q.claim_block(), Some(10..16));
        assert_eq!(q.claim_block(), Some(16..24));
        assert_eq!(q.claim_block(), Some(24..30));
        assert_eq!(q.claim_block(), None);
        assert_eq!(q.claim_block(), None);
        // A start on a window boundary hands out whole windows.
        let q: WorkQueue<u64> = WorkQueue::new(8, 16, 8);
        assert_eq!(q.claim_block(), Some(8..16));
        assert_eq!(q.claim_block(), None);
    }

    #[test]
    fn work_queue_releases_blocks_in_prefix_order() {
        let q: WorkQueue<u64> = WorkQueue::new(0, 10, 4);
        let blocks: Vec<Range<u64>> = std::iter::from_fn(|| q.claim_block()).collect();
        assert_eq!(blocks, [0..4, 4..8, 8..10]);
        // The last block finishes first: nothing is released yet.
        let d = q.complete(8, vec![8, 9]);
        assert_eq!(d.completed, 0);
        assert!(d.payloads.is_empty());
        // The first block joins; the middle one still blocks the last.
        let d = q.complete(0, (0..4).collect());
        assert_eq!(d.completed, 4);
        assert_eq!(d.payloads, [0, 1, 2, 3]);
        // The middle block joins and unblocks the parked last one.
        let d = q.complete(4, (4..8).collect());
        assert_eq!(d.completed, 10);
        assert_eq!(d.payloads, [4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn work_queue_abort_stops_claims() {
        let q: WorkQueue<()> = WorkQueue::new(0, 100, 1);
        assert_eq!(q.claim_block(), Some(0..1));
        q.abort();
        assert_eq!(q.claim_block(), None);
    }

    #[test]
    fn work_queue_claims_every_case_once_under_thread_contention() {
        for block in [1, 7, 64] {
            let q: WorkQueue<u64> = WorkQueue::new(3, 500, block);
            let claimed = Mutex::new(Vec::new());
            let released = Mutex::new((0, Vec::new()));
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        while let Some(cases) = q.claim_block() {
                            claimed.lock().unwrap().extend(cases.clone());
                            let d = q.complete(cases.start, cases.collect());
                            let (completed, payloads) = &mut *released.lock().unwrap();
                            *completed = d.completed.max(*completed);
                            payloads.extend(d.payloads);
                        }
                    });
                }
            });
            let mut claimed = claimed.into_inner().unwrap();
            claimed.sort_unstable();
            assert_eq!(claimed, (3..500).collect::<Vec<_>>(), "block {block}");
            let (completed, mut payloads) = released.into_inner().unwrap();
            assert_eq!(completed, 500, "block {block}");
            payloads.sort_unstable();
            assert_eq!(payloads, claimed, "block {block}");
            assert_eq!(q.claim_block(), None);
        }
    }

    #[test]
    fn checkpoint_file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("crisp-checkpoint-test-{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        assert_eq!(Checkpoint::load(&path).unwrap(), None);
        let mut cp = Checkpoint {
            completed: 12,
            tallies: Vec::new(),
        };
        cp.tally("opcode.sdc", 3);
        cp.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), Some(cp));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_load_rejects_torn_file() {
        // A torn file can only appear if something other than `save`
        // wrote it (save is write-temp/fsync/rename), e.g. a direct
        // write interrupted mid-flight. The loader must reject it with
        // a descriptive error, never resume from garbage.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("crisp-checkpoint-torn-{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let mut cp = Checkpoint {
            completed: 40,
            tallies: Vec::new(),
        };
        cp.tally("verified", 40);
        let full = cp.to_json();
        // Every strict prefix of a valid checkpoint is malformed: the
        // JSON object never closes, or a key/value is cut in half.
        for cut in 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let e = Checkpoint::load(&path).unwrap_err();
            assert!(e.contains("checkpoint"), "cut at {cut}: {}", e);
            assert!(
                Checkpoint::load_for_campaign(&path, 100).is_err(),
                "cut at {cut}"
            );
        }
        // The intact file still loads.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), Some(cp));
        std::fs::remove_file(&path).unwrap();
    }
}
