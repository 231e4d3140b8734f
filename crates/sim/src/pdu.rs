use std::collections::VecDeque;
use std::sync::Arc;

use crisp_isa::{decode_and_fold, encoding, fold_failure, Decoded, FoldPolicy, IsaError, NextPc};

use crate::observe::{PipeEvent, PipeObserver};
use crate::predecode::PredecodedImage;
use crate::soft_error::{strike, FaultField, ParityMode};
use crate::{DecodedCache, Memory};

/// Parcels fetched from memory per access (the paper's Figure 2 shows
/// "4 16-bit inputs" into the instruction queue).
const FETCH_PARCELS: u32 = 4;
/// Instruction-queue capacity in parcels ("Contains 8 16-bit entries").
const QUEUE_PARCELS: u32 = 8;
/// Worst-case parcels needed to decode one entry (5-parcel host plus a
/// 3-parcel branch under [`FoldPolicy::All`]).
const MAX_ENTRY_PARCELS: u32 = 8;

/// The three-stage Prefetch and Decode Unit.
///
/// Structure follows the paper's Figure 1/2: instruction parcels are
/// fetched from main memory into an 8-parcel instruction queue, decoded
/// (and folded) one instruction per cycle in the PDR stage, and written
/// to the Decoded Instruction Cache after the PIR stage — modelled here
/// as a configurable `pipe_delay` between decode and cache visibility.
///
/// The prefetcher follows the Next-PC chain of what it decodes
/// (taking the predicted path of conditional branches) and pauses when
/// it reaches an address that is already decoded (a captured loop), an
/// indirect target it cannot compute, or the prefetch-depth bound — one
/// cache's worth of entries beyond the last demand, past which further
/// prefetch can only pollute the direct-mapped cache. The Execution
/// Unit re-arms it with [`Pdu::demand`] on a cache miss.
///
/// Fold decisions are deterministic: an instruction is never decoded
/// with insufficient lookahead to decide whether the following branch
/// folds (the decoder waits for the queue instead), so the cache entry
/// for an address is the same no matter when it was decoded.
#[derive(Debug, Clone)]
pub struct Pdu {
    policy: FoldPolicy,
    mem_latency: u32,
    pipe_delay: u32,
    prefetch_limit: u32,
    /// Next byte address to decode.
    decode_pc: u32,
    /// Exclusive end of the contiguous fetched region starting at
    /// `decode_pc` (the queue contents).
    fetched_until: u32,
    /// Remaining cycles of the in-flight memory access (0 = idle).
    mem_timer: u32,
    /// Decoded entries in the PIR pipeline: `(ready_cycle, entry,
    /// parity_delta)`. The delta is the XOR of fault-flipped parity
    /// columns since decode — zero for a clean entry — the same word a
    /// cache line keeps. Under [`ParityMode::DetectInvalidate`] the
    /// fill port checks it as a cache read does, so a corrupted
    /// in-flight entry is caught (and dropped) before it pollutes the
    /// cache.
    inflight: VecDeque<(u64, Decoded, u32)>,
    /// Waiting for a redirect (indirect target, decode failure, loop
    /// closure, or prefetch-depth bound).
    parked: bool,
    /// The decode failure that parked us, if any (consulted by the EU
    /// when it is stalled on the same address).
    failure: Option<(u32, IsaError)>,
    /// Entries decoded since the last demand (prefetch-depth counter).
    since_demand: u32,
    /// Shared predecode table serving the refill fast path (see
    /// [`Pdu::set_predecoded`]).
    predecoded: Option<Arc<PredecodedImage>>,
    /// Instructions decoded (including wrong-path work).
    pub decodes: u64,
}

impl Pdu {
    /// Create a PDU. `prefetch_limit` bounds how many entries are
    /// decoded beyond the last demand (use the cache size).
    pub fn new(policy: FoldPolicy, mem_latency: u32, pipe_delay: u32, prefetch_limit: u32) -> Pdu {
        Pdu {
            policy,
            mem_latency: mem_latency.max(1),
            pipe_delay,
            prefetch_limit: prefetch_limit.max(1),
            decode_pc: 0,
            fetched_until: 0,
            mem_timer: 0,
            inflight: VecDeque::new(),
            parked: true,
            failure: None,
            since_demand: 0,
            predecoded: None,
            decodes: 0,
        }
    }

    /// Serve refills of text-segment PCs from a shared predecode table
    /// instead of re-running `decode_and_fold` per miss. Timing is
    /// unchanged — the queue-fill, lookahead-wait and park decisions
    /// are reproduced from the cached entry (its host length recovers
    /// the peek the legacy path performs on raw parcels) — only the
    /// redundant decode work disappears. PCs the table does not cover
    /// (odd addresses, jumps into data) still take the raw-memory path.
    ///
    /// # Panics
    ///
    /// If the table was decoded under a different fold policy, which
    /// would serve wrong entries.
    pub fn set_predecoded(&mut self, table: Arc<PredecodedImage>) {
        assert_eq!(
            table.policy(),
            self.policy,
            "predecode table policy must match the PDU's"
        );
        self.predecoded = Some(table);
    }

    /// Redirect prefetch to `pc` (EU demand on a cache miss, or initial
    /// start). Queue contents for the old stream are discarded; entries
    /// already in the PIR pipeline still complete (they are real decoded
    /// instructions and stay useful in the cache).
    pub fn demand(&mut self, pc: u32) {
        self.since_demand = 0;
        self.failure = None;
        if !self.parked && self.decode_pc == pc {
            return; // already fetching exactly this
        }
        if self.pending(pc) {
            return; // about to appear in the cache anyway
        }
        self.decode_pc = pc;
        self.fetched_until = pc;
        self.mem_timer = 0;
        self.parked = false;
    }

    /// Whether an entry for `pc` is in the PIR pipeline (decoded but not
    /// yet visible in the cache).
    pub fn pending(&self, pc: u32) -> bool {
        self.inflight.iter().any(|(_, d, _)| d.pc == pc)
    }

    /// Entries currently in the PIR pipeline (fault planning needs the
    /// occupancy to know whether a PDU-slot strike can land).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Flip one bit of an in-flight PIR entry (transient-fault
    /// injection). `slot` indexes the pipeline oldest-first, modulo
    /// occupancy; returns the struck entry's PC, or `None` when the
    /// pipeline is empty. A `valid`-style fault (one with no image
    /// position) drops the entry outright — a lost latch is an entry
    /// that never reaches the cache, which is trivially safe.
    /// Bit-carrying faults corrupt the latched entry and record the
    /// flipped parity column so the fill-port check can catch it.
    pub fn corrupt(&mut self, slot: u32, field: FaultField) -> Option<u32> {
        if self.inflight.is_empty() {
            return None;
        }
        let i = slot as usize % self.inflight.len();
        let (_, d, delta) = &mut self.inflight[i];
        let pc = d.pc;
        match strike(d, field) {
            Some(flipped) => *delta ^= flipped,
            None => {
                self.inflight.remove(i);
            }
        }
        Some(pc)
    }

    /// Whether this PDU at cycle `now` and `other` at cycle
    /// `other_now` behave the same from there on: the same prefetch
    /// state and the same PIR pipeline, with each entry's ready cycle
    /// taken relative to its own clock. The decode counters are left
    /// out.
    pub(crate) fn same_future(&self, now: u64, other: &Pdu, other_now: u64) -> bool {
        (
            self.decode_pc,
            self.fetched_until,
            self.mem_timer,
            self.parked,
            self.since_demand,
        ) == (
            other.decode_pc,
            other.fetched_until,
            other.mem_timer,
            other.parked,
            other.since_demand,
        ) && self.failure == other.failure
            && self.inflight.len() == other.inflight.len()
            && self.inflight.iter().zip(&other.inflight).all(|(a, b)| {
                a.0.wrapping_sub(now) == b.0.wrapping_sub(other_now) && (a.1, a.2) == (b.1, b.2)
            })
    }

    /// Whether the prefetcher is parked (waiting for a demand).
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Whether a tick would do no work at all: parked with an empty
    /// PIR pipeline. In a captured loop (the steady state the cache is
    /// built for) this is true every cycle, so the EU can skip the PDU
    /// entirely instead of paying for a no-op call.
    pub fn is_idle(&self) -> bool {
        self.parked && self.inflight.is_empty()
    }

    /// The decode failure currently blocking prefetch, if any.
    pub fn failure(&self) -> Option<&(u32, IsaError)> {
        self.failure.as_ref()
    }

    /// Advance one clock cycle in a run of parity mode `parity`: drain
    /// the PIR pipeline into the cache, progress the memory access, and
    /// decode at most one instruction, reporting decode, fold,
    /// fold-failure and cache-fill events to `obs`.
    pub fn tick_observed<O: PipeObserver>(
        &mut self,
        cycle: u64,
        mem: &Memory,
        cache: &mut DecodedCache,
        parity: ParityMode,
        obs: &mut O,
    ) {
        // 1. PIR pipeline → cache.
        while let Some(&(ready, _, _)) = self.inflight.front() {
            if ready > cycle {
                break;
            }
            let (_, d, delta) = self.inflight.pop_front().expect("checked non-empty");
            // Fill-port parity check: a fault-struck latch (nonzero
            // parity delta) is dropped before it reaches the array,
            // exactly as a resident line with stale parity would be
            // invalidated on lookup. The EU's next demand redecodes the
            // entry from memory. With parity off the corrupted entry is
            // inserted as-is — the SDC path the campaign measures.
            if delta != 0 && parity == ParityMode::DetectInvalidate {
                cache.parity_invalidates += 1;
                if O::PIPELINE {
                    obs.event(PipeEvent::ParityError {
                        cycle,
                        pc: d.pc,
                        slot: cache.slot_of(d.pc) as u32,
                    });
                }
                continue;
            }
            let evicted = cache.insert(d);
            if O::PIPELINE {
                obs.event(PipeEvent::CacheFill {
                    cycle,
                    pc: d.pc,
                    evicted,
                });
            }
        }

        if self.parked {
            return;
        }

        // 2. Memory access progress / start.
        if self.mem_timer > 0 {
            self.mem_timer -= 1;
            if self.mem_timer == 0 {
                self.fetched_until = self.fetched_until.wrapping_add(FETCH_PARCELS * 2);
            }
        } else if self.fetched_until.wrapping_sub(self.decode_pc) < QUEUE_PARCELS * 2 {
            if self.mem_latency == 1 {
                // Parcels arrive at the end of this same cycle.
                self.fetched_until = self.fetched_until.wrapping_add(FETCH_PARCELS * 2);
            } else {
                self.mem_timer = self.mem_latency - 1;
            }
        }

        // 3. Decode one instruction if the queue covers it *and* the
        // fold decision is already determined.
        let avail_bytes = self.fetched_until.wrapping_sub(self.decode_pc);
        if avail_bytes == 0 {
            return;
        }
        let want_parcels = (avail_bytes / 2).min(MAX_ENTRY_PARCELS) as usize;
        // Parcels physically available before the end of memory — a
        // hard (static) limit; the lookahead window can be short only
        // for this reason.
        let mem_parcels = (mem.size() as usize).saturating_sub((self.decode_pc & !1) as usize) / 2;
        let window_len = want_parcels.min(mem_parcels);
        let at_mem_end = window_len < want_parcels;
        if window_len == 0 {
            self.park_failed(IsaError::Truncated);
            return;
        }
        let queue_full = avail_bytes >= QUEUE_PARCELS * 2;
        let branch_peek = match self.policy {
            FoldPolicy::All => 3,
            _ => 1,
        };

        // Fast path: the predecode table already holds this address's
        // entry. Reproduce the legacy wait decisions from the entry's
        // host length (what the raw-parcel peek would report), then
        // emit the cached entry — fold determinism guarantees it is
        // bit-identical to what decoding the current window would give.
        // Err slots fall through to the raw path below, which reproduces
        // the exact peek/wait sequence before parking with the right
        // failure.
        if let Some(Ok(d)) = self.predecoded.as_ref().and_then(|t| t.get(self.decode_pc)) {
            let host_parcels = d.host_parcels();
            if window_len < host_parcels && !queue_full && !at_mem_end {
                return; // wait: the peek would report Truncated
            }
            let determined = window_len >= host_parcels + branch_peek || queue_full || at_mem_end;
            if !determined {
                return; // wait for the queue to fill so folding is decided
            }
            let d = *d;
            self.emit_decoded(cycle, d, mem, window_len, cache, obs);
            return;
        }

        let mut wbuf = [0u16; MAX_ENTRY_PARCELS as usize];
        let got = mem.parcel_window_into(self.decode_pc, &mut wbuf[..want_parcels]);
        debug_assert_eq!(got, window_len);
        let window = &wbuf[..window_len];

        // Peek the host instruction to size the lookahead requirement.
        let host_len = match encoding::decode(window, 0) {
            Ok((_, len)) => len,
            Err(IsaError::Truncated) if !queue_full && !at_mem_end => return, // wait
            Err(e) => {
                self.park_failed(e);
                return;
            }
        };
        let determined = window.len() >= host_len + branch_peek || queue_full || at_mem_end;
        if !determined {
            return; // wait for the queue to fill so folding is decided
        }

        match decode_and_fold(window, 0, self.decode_pc, self.policy) {
            Ok(d) => self.emit_decoded(cycle, d, mem, window_len, cache, obs),
            Err(e) => self.park_failed(e),
        }
    }

    /// Book-keep one emitted entry: counters, observer events, the PIR
    /// pipeline push and the next-address decision. `window_len` is the
    /// length of the decode window in effect (needed only to rebuild
    /// the window for the [`PipeEvent::FoldFail`] diagnostic when an
    /// observer is attached).
    fn emit_decoded<O: PipeObserver>(
        &mut self,
        cycle: u64,
        d: Decoded,
        mem: &Memory,
        window_len: usize,
        cache: &DecodedCache,
        obs: &mut O,
    ) {
        self.decodes += 1;
        self.since_demand += 1;
        if O::PIPELINE {
            obs.event(PipeEvent::Decode {
                cycle,
                pc: d.pc,
                folded: d.folded,
            });
            if d.folded {
                obs.event(PipeEvent::Fold {
                    cycle,
                    pc: d.pc,
                    branch_pc: d.branch_pc.unwrap_or(d.pc),
                });
            } else {
                let mut wbuf = [0u16; MAX_ENTRY_PARCELS as usize];
                let got = mem.parcel_window_into(self.decode_pc, &mut wbuf[..window_len]);
                if let Some(reason) = fold_failure(&wbuf[..got], 0, self.policy) {
                    obs.event(PipeEvent::FoldFail {
                        cycle,
                        pc: d.pc,
                        branch_pc: d.pc.wrapping_add(d.len_bytes),
                        reason,
                    });
                }
            }
        }
        self.inflight
            .push_back((cycle + self.pipe_delay as u64, d, 0));
        self.advance_past(&d, cache);
    }

    fn park_failed(&mut self, e: IsaError) {
        self.failure = Some((self.decode_pc, e));
        self.parked = true;
    }

    /// Choose the next decode address after emitting `d`, following the
    /// (predicted) Next-PC chain.
    fn advance_past(&mut self, d: &Decoded, cache: &DecodedCache) {
        if self.since_demand >= self.prefetch_limit {
            self.parked = true;
            return;
        }
        let next = match d.next_pc {
            NextPc::Known(n) => n,
            // Indirect target: the PDU cannot compute it; park until the
            // EU demands.
            _ => {
                self.parked = true;
                return;
            }
        };
        // Prefetch caught up with already-decoded code (loop closure).
        if cache.contains(next) || self.pending(next) {
            self.parked = true;
            return;
        }
        if next == self.decode_pc.wrapping_add(d.len_bytes) {
            self.decode_pc = next; // sequential: keep the queue
        } else {
            // Transfer: restart the fetch stream at the target.
            self.decode_pc = next;
            self.fetched_until = next;
            self.mem_timer = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{EventRing, NullObserver};
    use crate::Machine;
    use crisp_asm::assemble_text;

    fn machine(src: &str) -> Machine {
        Machine::load(&assemble_text(src).unwrap()).unwrap()
    }

    /// One PDU cycle with the fill port unchecked and nothing observing.
    fn tick(pdu: &mut Pdu, cycle: u64, mem: &Memory, cache: &mut DecodedCache) {
        pdu.tick_observed(cycle, mem, cache, ParityMode::Off, &mut NullObserver);
    }

    /// The folds a PDU performed, counted from its `Fold` events.
    fn folds(ring: &EventRing) -> usize {
        ring.events()
            .filter(|e| matches!(e, PipeEvent::Fold { .. }))
            .count()
    }

    fn run_pdu(m: &Machine, cycles: u64) -> (Pdu, DecodedCache) {
        let mut pdu = Pdu::new(FoldPolicy::Host13, 1, 2, 32);
        let mut cache = DecodedCache::new(32);
        pdu.demand(0);
        for c in 0..cycles {
            tick(&mut pdu, c, &m.mem, &mut cache);
        }
        (pdu, cache)
    }

    #[test]
    fn decodes_sequential_stream_into_cache() {
        let m = machine("add 0(sp),$1\nadd 0(sp),$2\nadd 0(sp),$3\nhalt");
        let (pdu, cache) = run_pdu(&m, 20);
        assert!(cache.contains(0));
        assert!(cache.contains(2));
        assert!(cache.contains(4));
        assert!(cache.contains(6));
        assert!(pdu.decodes >= 4);
    }

    #[test]
    fn follows_taken_branches() {
        let m = machine(
            "
            jmp far
            nop
            nop
            far: add 0(sp),$1
            halt
            ",
        );
        let (_pdu, cache) = run_pdu(&m, 20);
        assert!(cache.contains(0)); // the jump itself
        let far = 6; // jmp(1) + nop + nop = parcels 0,1,2 → byte 6
        assert!(cache.contains(far));
        // The not-taken path is never prefetched.
        assert!(!cache.contains(2));
    }

    #[test]
    fn parks_on_loop_closure() {
        let m = machine(
            "
            top: add 0(sp),$1
            cmp.s< 0(sp),$10
            ifjmpy.t top
            halt
            ",
        );
        let (pdu, cache) = run_pdu(&m, 50);
        assert!(cache.contains(0));
        // cmp folds the conditional branch; predicted taken → chain goes
        // back to `top`, which is already cached → parked.
        assert!(pdu.is_parked());
        assert!(
            pdu.decodes < 10,
            "prefetcher must not spin: {} decodes",
            pdu.decodes
        );
    }

    #[test]
    fn folding_happens_in_the_pdu() {
        let m = machine(
            "
            top: add 0(sp),$1
            ifjmpy.t top
            halt
            ",
        );
        let mut pdu = Pdu::new(FoldPolicy::Host13, 1, 2, 32);
        let mut cache = DecodedCache::new(32);
        let mut ring = EventRing::new(1 << 10);
        pdu.demand(0);
        for c in 0..20 {
            pdu.tick_observed(c, &m.mem, &mut cache, ParityMode::Off, &mut ring);
        }
        let d = cache.lookup(0).expect("entry decoded");
        assert!(d.folded);
        assert!(folds(&ring) >= 1);
    }

    #[test]
    fn pipe_delay_postpones_visibility() {
        let m = machine("nop\nnop\nhalt");
        let mut pdu = Pdu::new(FoldPolicy::Host13, 1, 2, 32);
        let mut cache = DecodedCache::new(32);
        pdu.demand(0);
        // Cycle 0: parcels arrive and the first entry decodes; it
        // becomes visible pipe_delay cycles later.
        tick(&mut pdu, 0, &m.mem, &mut cache);
        assert!(!cache.contains(0));
        tick(&mut pdu, 1, &m.mem, &mut cache);
        assert!(!cache.contains(0));
        tick(&mut pdu, 2, &m.mem, &mut cache);
        assert!(cache.contains(0), "ready at cycle 2 with pipe_delay 2");
    }

    #[test]
    fn slow_memory_delays_decode() {
        let m = machine("nop\nhalt");
        let mut pdu = Pdu::new(FoldPolicy::Host13, 4, 0, 32);
        let mut cache = DecodedCache::new(32);
        pdu.demand(0);
        for c in 0..3 {
            tick(&mut pdu, c, &m.mem, &mut cache);
            assert!(!cache.contains(0), "cycle {c}");
        }
        tick(&mut pdu, 3, &m.mem, &mut cache); // access completes after 4 cycles
        tick(&mut pdu, 4, &m.mem, &mut cache);
        assert!(cache.contains(0));
    }

    #[test]
    fn parks_on_indirect_target() {
        let m = machine("jmp *0x10000\nhalt");
        let (pdu, cache) = run_pdu(&m, 20);
        assert!(cache.contains(0));
        assert!(pdu.is_parked());
    }

    #[test]
    fn reports_decode_failure() {
        let m = machine(".word 0x0000B800"); // op6=46: unassigned
        let (pdu, _cache) = run_pdu(&m, 20);
        let (pc, _err) = pdu.failure().expect("failure recorded");
        assert_eq!(*pc, 0);
    }

    #[test]
    fn demand_redirects() {
        let m = machine(
            "
            add 0(sp),$1
            halt
            far: add 0(sp),$2
            halt
            ",
        );
        let mut pdu = Pdu::new(FoldPolicy::Host13, 1, 2, 32);
        let mut cache = DecodedCache::new(32);
        pdu.demand(0);
        for c in 0..10 {
            tick(&mut pdu, c, &m.mem, &mut cache);
        }
        assert!(cache.contains(0));
        pdu.demand(4); // `far`
        for c in 10..20 {
            tick(&mut pdu, c, &m.mem, &mut cache);
        }
        assert!(cache.contains(4));
    }

    #[test]
    fn prefetch_depth_is_bounded() {
        // A long nop sled: prefetch must stop after the limit instead of
        // sweeping the whole memory and trashing the cache.
        let src = "nop\n".repeat(500) + "halt";
        let m = machine(&src);
        let mut pdu = Pdu::new(FoldPolicy::Host13, 1, 2, 32);
        let mut cache = DecodedCache::new(32);
        pdu.demand(0);
        for c in 0..2000 {
            tick(&mut pdu, c, &m.mem, &mut cache);
        }
        assert!(pdu.is_parked());
        assert!(pdu.decodes <= 33, "decodes = {}", pdu.decodes);
    }

    #[test]
    fn predecoded_fast_path_matches_raw_decode() {
        // The same tick sequence must produce identical cache contents,
        // counters and park state with and without a predecode table —
        // the fast path is a pure work-saver, never a timing change.
        let src = "
            top: add 0(sp),$1
            cmp.s< 0(sp),$10
            ifjmpy.t top
            cmp.s< 0(sp),$1024
            ifjmpn.nt top
            jmp *0x10000
            halt
            ";
        for policy in [
            FoldPolicy::None,
            FoldPolicy::Host1,
            FoldPolicy::Host13,
            FoldPolicy::All,
        ] {
            let m = machine(src);
            let table = Arc::new(PredecodedImage::from_machine(&m, policy));
            let mut raw = Pdu::new(policy, 1, 2, 32);
            let mut fast = Pdu::new(policy, 1, 2, 32);
            fast.set_predecoded(Arc::clone(&table));
            let mut raw_cache = DecodedCache::new(32);
            let mut fast_cache = DecodedCache::new(32);
            let mut raw_ring = EventRing::new(1 << 10);
            let mut fast_ring = EventRing::new(1 << 10);
            raw.demand(0);
            fast.demand(0);
            for c in 0..60 {
                let off = ParityMode::Off;
                raw.tick_observed(c, &m.mem, &mut raw_cache, off, &mut raw_ring);
                fast.tick_observed(c, &m.mem, &mut fast_cache, off, &mut fast_ring);
                let mut pc = 0;
                while pc < m.text_end() {
                    assert_eq!(
                        raw_cache.lookup(pc),
                        fast_cache.lookup(pc),
                        "policy {policy:?} cycle {c} pc {pc:#x}"
                    );
                    pc += 2;
                }
                assert_eq!(raw.is_parked(), fast.is_parked(), "{policy:?} cycle {c}");
            }
            assert_eq!(raw.decodes, fast.decodes, "{policy:?}");
            assert_eq!(folds(&raw_ring), folds(&fast_ring), "{policy:?}");
        }
    }

    #[test]
    fn fold_decision_waits_for_lookahead() {
        // A 5-parcel instruction followed by a short branch: under
        // Host13 it must NOT fold; more importantly, a 3-parcel host
        // right at the queue boundary must still fold deterministically.
        let m = machine(
            "
            top: cmp.s< 0(sp),$1024
            ifjmpy.t top
            halt
            ",
        );
        let (_, cache) = run_pdu(&m, 30);
        let d = cache.lookup(0).expect("decoded");
        assert!(d.folded, "cmp (3 parcels) + 1-parcel branch folds");
        assert_eq!(d.len_bytes, 8);
    }
}
