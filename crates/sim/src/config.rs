use crisp_isa::FoldPolicy;

use crate::geometry::PipelineGeometry;
use crate::soft_error::{FaultPlan, ParityMode};

/// The hardware branch-direction source used by the Execution Unit when
/// a conditional branch must be guessed (i.e. a compare is still in
/// flight).
///
/// CRISP shipped [`HwPredictor::StaticBit`]; the paper evaluated — and
/// rejected — dynamic history ("Given the increased complexity of the
/// dynamic strategies, the use of a single static prediction bit in
/// CRISP seems to be a reasonable choice"). [`HwPredictor::Dynamic`]
/// models the road not taken: an n-bit saturating-counter table indexed
/// by branch address, so the tradeoff can be measured in cycles rather
/// than trace accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HwPredictor {
    /// The compiler-set static prediction bit (the shipped design).
    #[default]
    StaticBit,
    /// A direct-mapped table of n-bit saturating counters.
    Dynamic {
        /// Counter width (1..=7); 2 is the classic Smith counter.
        bits: u8,
        /// Table entries (power of two). Unlike Table 1's idealised
        /// infinite table, hardware gets a finite one, so aliasing is
        /// modelled.
        entries: usize,
    },
    /// A Lee-Smith branch target buffer (direction half): set
    /// associative, 2-bit counters, LRU, allocate-on-taken, misses
    /// predict fall-through. The paper sizes it at "128 sets of 4
    /// entries" and notes it "would be nearly as large as our entire
    /// microprocessor chip".
    Btb {
        /// Number of sets (power of two); the paper's point is 128.
        entries: usize,
        /// Associativity (at least 1); the paper's point is 4.
        ways: usize,
    },
    /// The Manchester MU5 jump trace: a small fully-associative FIFO
    /// of taken-branch addresses ("only a 40-65 percent correct
    /// prediction rate for an eight entry jump-trace").
    JumpTrace {
        /// FIFO capacity (at least 1); the MU5 had 8.
        entries: usize,
    },
}

impl HwPredictor {
    /// Stable short label, used as the stats-JSON `predicted_by` value
    /// and as golden-vector / sweep file-name components. The inverse
    /// of [`HwPredictor::parse`].
    pub fn label(&self) -> String {
        match *self {
            HwPredictor::StaticBit => "static".to_string(),
            HwPredictor::Dynamic { bits, entries } => format!("counter{bits}x{entries}"),
            HwPredictor::Btb { entries, ways } => format!("btb{entries}x{ways}"),
            HwPredictor::JumpTrace { entries } => format!("jumptrace{entries}"),
        }
    }

    /// Parse a `--predictor` spelling. Accepted forms (defaults fill
    /// omitted geometry):
    ///
    /// * `static`
    /// * `counterN` / `counterNxM` — N-bit counters, M entries
    ///   (default 64)
    /// * `btb` / `btbSxW` — S sets × W ways (default 128x4)
    /// * `jumptrace` / `jumptraceN` — N FIFO entries (default 8)
    pub fn parse(spec: &str) -> Result<HwPredictor, String> {
        let bad = || {
            format!("unknown predictor {spec:?} (expected static, counterN[xM], btb[SxW], or jumptrace[N])")
        };
        let parsed = if spec == "static" {
            HwPredictor::StaticBit
        } else if let Some(rest) = spec.strip_prefix("counter") {
            let (bits, entries) = match rest.split_once('x') {
                Some((b, e)) => (
                    b.parse::<u8>().map_err(|_| bad())?,
                    e.parse::<usize>().map_err(|_| bad())?,
                ),
                None => (rest.parse::<u8>().map_err(|_| bad())?, 64),
            };
            HwPredictor::Dynamic { bits, entries }
        } else if let Some(rest) = spec.strip_prefix("btb") {
            let (entries, ways) = if rest.is_empty() {
                (128, 4)
            } else {
                let (s, w) = rest.split_once('x').ok_or_else(bad)?;
                (
                    s.parse::<usize>().map_err(|_| bad())?,
                    w.parse::<usize>().map_err(|_| bad())?,
                )
            };
            HwPredictor::Btb { entries, ways }
        } else if let Some(rest) = spec.strip_prefix("jumptrace") {
            let entries = if rest.is_empty() {
                8
            } else {
                rest.parse::<usize>().map_err(|_| bad())?
            };
            HwPredictor::JumpTrace { entries }
        } else {
            return Err(bad());
        };
        parsed
            .check()
            .map_err(|e| format!("predictor {spec:?}: {e}"))?;
        Ok(parsed)
    }

    /// Largest table any predictor may hold, in entries (BTB: sets ×
    /// ways). Far above every modelled design (the paper's largest, the
    /// 128 × 4 BTB, has 512), and small enough that a table is always
    /// allocatable.
    const MAX_ENTRIES: usize = 1 << 16;

    /// Geometry invariants, shared by [`SimConfig::validate`] (which
    /// panics — construction sites are static) and
    /// [`HwPredictor::parse`] (which reports, since its input is a
    /// command line).
    fn check(&self) -> Result<(), String> {
        let too_big = |what: &str| format!("{what} exceeds {} entries", HwPredictor::MAX_ENTRIES);
        match *self {
            HwPredictor::StaticBit => {}
            HwPredictor::Dynamic { bits, entries } => {
                if !(1..=7).contains(&bits) {
                    return Err("dynamic predictor bits must be 1..=7".to_string());
                }
                if !entries.is_power_of_two() || entries < 1 {
                    return Err("dynamic predictor table must be a power of two".to_string());
                }
                if entries > HwPredictor::MAX_ENTRIES {
                    return Err(too_big("dynamic predictor table"));
                }
            }
            HwPredictor::Btb { entries, ways } => {
                if !entries.is_power_of_two() || entries < 1 {
                    return Err("BTB sets must be a power of two".to_string());
                }
                if ways < 1 {
                    return Err("BTB ways must be at least 1".to_string());
                }
                match entries.checked_mul(ways) {
                    Some(n) if n <= HwPredictor::MAX_ENTRIES => {}
                    _ => return Err(too_big("BTB sets x ways")),
                }
            }
            HwPredictor::JumpTrace { entries } => {
                if entries < 1 {
                    return Err("jump trace needs at least one entry".to_string());
                }
                if entries > HwPredictor::MAX_ENTRIES {
                    return Err(too_big("jump trace"));
                }
            }
        }
        Ok(())
    }
}

/// A deliberately-injected pipeline bug, used to validate that the
/// differential oracle ([`crate::run_lockstep`]) actually catches the
/// class of defect it exists for. Never set in real experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// When a folded compare resolves a mispredict at RR, skip the
    /// squash of the OR-stage slot: one wrong-path instruction commits
    /// architectural state — exactly the "missed squash window" bug the
    /// commit-stream comparison is designed to expose.
    SkipOrSquash,
}

/// Configuration of the cycle-level simulator.
///
/// The defaults model the CRISP chip as described in the paper: the
/// shipping fold policy (one- and three-parcel hosts with one-parcel
/// branches), a 32-entry decoded instruction cache, a memory that
/// delivers four parcels per access, and a three-stage PDU (one decode
/// cycle plus two pipeline cycles before the entry lands in the cache).
///
/// The Table 4 experiment matrix is expressed through `fold_policy`
/// (cases A/B/E disable folding) — prediction-bit settings and branch
/// spreading are properties of the *program*, produced by the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Which instruction pairs the PDU folds.
    pub fold_policy: FoldPolicy,
    /// Shape of the execution pipeline (the paper's machine: the
    /// 3-stage IR→OR→RR unit). Resolve/squash points and the
    /// mispredict-penalty schedule derive from it (see
    /// [`crate::geometry`]).
    pub geometry: PipelineGeometry,
    /// Decoded instruction cache entries (power of two). The paper's
    /// chip has 32 ("the low five bits are used to address the Decoded
    /// Instruction Cache").
    pub icache_entries: usize,
    /// Cycles per four-parcel instruction-memory access.
    pub mem_latency: u32,
    /// PDU pipeline cycles between decode and cache visibility.
    pub pdu_pipe_delay: u32,
    /// Hardware branch-direction source.
    pub predictor: HwPredictor,
    /// Watchdog: upper bound on simulated cycles. Reaching it ends the
    /// run gracefully with [`crate::HaltReason::Watchdog`] rather than
    /// an error, so hung programs still produce stats and reports.
    pub max_cycles: u64,
    /// Watchdog: optional upper bound on retired program instructions;
    /// like `max_cycles`, reaching it ends the run gracefully.
    pub max_insns: Option<u64>,
    /// Deliberate pipeline bug for oracle validation; `None` (always,
    /// outside differential-harness self-tests) models the real chip.
    pub fault: Option<FaultInjection>,
    /// Parity protection of decoded-cache entries (see
    /// [`crate::soft_error`]).
    pub parity: ParityMode,
    /// A planned transient fault to inject into the decoded cache;
    /// `None` models fault-free silicon.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            fold_policy: FoldPolicy::Host13,
            geometry: PipelineGeometry::crisp(),
            icache_entries: 32,
            mem_latency: 1,
            pdu_pipe_delay: 2,
            predictor: HwPredictor::StaticBit,
            max_cycles: 500_000_000,
            max_insns: None,
            fault: None,
            parity: ParityMode::Off,
            fault_plan: None,
        }
    }
}

impl SimConfig {
    /// The paper's case A/B/E machine: folding disabled, everything
    /// else as shipped.
    pub fn without_folding() -> SimConfig {
        SimConfig {
            fold_policy: FoldPolicy::None,
            ..SimConfig::default()
        }
    }

    /// Validate invariants (cache size a power of two, nonzero latency).
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration; construction sites are static.
    pub fn validate(&self) {
        assert!(
            self.icache_entries.is_power_of_two() && self.icache_entries >= 1,
            "icache_entries must be a power of two"
        );
        assert!(self.mem_latency >= 1, "mem_latency must be at least 1");
        // `PipelineGeometry` cannot be constructed out of range, but
        // assert the invariant here too so a future widening of the
        // type cannot silently bypass the engine's fixed stage array.
        assert!(
            (crate::geometry::MIN_DEPTH..=crate::geometry::MAX_DEPTH)
                .contains(&self.geometry.depth()),
            "EU depth must be {}..={}",
            crate::geometry::MIN_DEPTH,
            crate::geometry::MAX_DEPTH
        );
        if let Err(e) = self.predictor.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.fold_policy, FoldPolicy::Host13);
        assert_eq!(c.icache_entries, 32);
        assert_eq!(c.geometry.depth(), 3);
        c.validate();
    }

    #[test]
    fn geometry_is_configurable() {
        let c = SimConfig {
            geometry: PipelineGeometry::new(5),
            ..SimConfig::default()
        };
        c.validate();
        assert_eq!(c.geometry.retire_stage(), 5);
    }

    #[test]
    fn without_folding_only_changes_policy() {
        let c = SimConfig::without_folding();
        assert_eq!(c.fold_policy, FoldPolicy::None);
        assert_eq!(c.icache_entries, SimConfig::default().icache_entries);
    }

    #[test]
    fn predictor_parse_accepts_all_spellings() {
        assert_eq!(HwPredictor::parse("static"), Ok(HwPredictor::StaticBit));
        assert_eq!(
            HwPredictor::parse("counter2"),
            Ok(HwPredictor::Dynamic {
                bits: 2,
                entries: 64
            })
        );
        assert_eq!(
            HwPredictor::parse("counter3x128"),
            Ok(HwPredictor::Dynamic {
                bits: 3,
                entries: 128
            })
        );
        assert_eq!(
            HwPredictor::parse("btb"),
            Ok(HwPredictor::Btb {
                entries: 128,
                ways: 4
            })
        );
        assert_eq!(
            HwPredictor::parse("btb8x2"),
            Ok(HwPredictor::Btb {
                entries: 8,
                ways: 2
            })
        );
        assert_eq!(
            HwPredictor::parse("jumptrace"),
            Ok(HwPredictor::JumpTrace { entries: 8 })
        );
        assert_eq!(
            HwPredictor::parse("jumptrace4"),
            Ok(HwPredictor::JumpTrace { entries: 4 })
        );
        assert_eq!(
            HwPredictor::parse("btb256x256"),
            Ok(HwPredictor::Btb {
                entries: 256,
                ways: 256
            })
        );
    }

    #[test]
    fn predictor_parse_round_trips_labels() {
        for p in [
            HwPredictor::StaticBit,
            HwPredictor::Dynamic {
                bits: 2,
                entries: 64,
            },
            HwPredictor::Btb {
                entries: 128,
                ways: 4,
            },
            HwPredictor::JumpTrace { entries: 8 },
        ] {
            assert_eq!(HwPredictor::parse(&p.label()), Ok(p));
        }
    }

    #[test]
    fn predictor_parse_rejects_bad_specs() {
        for bad in [
            "",
            "oracle",
            "counter",
            "counter0",
            "counter9",
            "counter2x3",
            "btb3x2",
            "btb128x0",
            "btbx",
            "jumptrace0",
            "jumptracex",
            "counter2x4611686018427387904",
            "counter2x131072",
            "btb1152921504606846976x1",
            "btb256x512",
            "btb1024x18446744073709551615",
            "jumptrace4611686018427387904",
            "jumptrace65537",
        ] {
            assert!(HwPredictor::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "BTB sets must be a power of two")]
    fn validate_rejects_bad_btb() {
        SimConfig {
            predictor: HwPredictor::Btb {
                entries: 100,
                ways: 4,
            },
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_bad_cache() {
        SimConfig {
            icache_entries: 3,
            ..SimConfig::default()
        }
        .validate();
    }
}
