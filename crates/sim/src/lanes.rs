//! Lane-batched multi-stimulus plumbing (`docs/BATCH.md`).
//!
//! GEM's evaluator computes 64 Boolean signals per machine word, so one
//! bitstream execution can carry 64 *independent* stimulus streams — one
//! per bit-lane — at the cost of one (the GATSPI/RTLflow observation,
//! measured by the ladder's `piton8_lanes64` against `piton8_scalar`:
//! EXPERIMENTS.md E6). This module is the stimulus side of that
//! capability:
//!
//! * [`LaneBatch`] — up to 64 per-lane stimulus streams with per-lane
//!   reset/cycle *skew* (lane `k` may start its stream `skew` cycles
//!   late, holding its inputs until then) and per-cycle activity masks,
//! * [`pack`]/[`unpack`] — the lane-word transpose: per-lane [`Bits`]
//!   values ⇄ one machine [`Word`] lane word per port bit, the format
//!   `GemSimulator::set_input_lanes` / `output_lanes` speak,
//! * [`LaneTarget`] + [`LaneBatch::run`] — a generic per-lane
//!   poke/step/peek surface and a driver that replays the whole batch
//!   against it, producing per-lane traces, with
//!   [`first_divergence`] as the golden-model comparison hook: run the
//!   same batch against the lane-batched engine and against N
//!   independent golden models, then diff the traces per lane.
//!
//! Everything here is engine-agnostic: the crate's golden models and
//! `gem-core`'s `GemSimulator` both fit the [`LaneTarget`] shape.

use gem_netlist::Bits;
use std::fmt;

/// The machine lane word this module packs into — keep in lockstep with
/// `gem_place::Word` (the lib dependency graph deliberately stays
/// netlist + aig, so the alias is mirrored here rather than imported;
/// the differential suites hold the two in agreement end to end).
pub type Word = u64;

/// Maximum stimulus lanes a batch may hold (one per bit of the machine
/// [`Word`]; keep in lockstep with `GemGpu::MAX_LANES`).
pub const MAX_LANES: usize = Word::BITS as usize;

/// Errors from batch construction and the pack/unpack transposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneError {
    /// More than [`MAX_LANES`] streams were supplied.
    TooManyLanes(usize),
    /// An empty batch was supplied.
    NoLanes,
    /// Two lanes disagree about a packed value's width.
    WidthMismatch {
        /// Lane whose value has the unexpected width.
        lane: usize,
        /// Width lane 0 established.
        want: u32,
        /// Width actually found.
        got: u32,
    },
    /// A lane index at or beyond the batch's lane count.
    LaneOutOfRange {
        /// The offending index.
        lane: usize,
        /// Lanes in the batch.
        lanes: usize,
    },
}

impl fmt::Display for LaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneError::TooManyLanes(n) => {
                write!(
                    f,
                    "{n} stimulus lanes requested, the maximum is {MAX_LANES}"
                )
            }
            LaneError::NoLanes => write!(f, "a batch needs at least one lane"),
            LaneError::WidthMismatch { lane, want, got } => {
                write!(
                    f,
                    "lane {lane} packs a {got}-bit value, lane 0 set {want} bits"
                )
            }
            LaneError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range for a {lanes}-lane batch")
            }
        }
    }
}

impl std::error::Error for LaneError {}

/// One lane's stimulus: a cycle-indexed list of pokes plus a start skew.
#[derive(Debug, Clone, Default)]
pub struct LaneStream {
    /// Cycles this lane holds (inputs frozen, stream not started) before
    /// cycle 0 of `cycles` applies — per-lane reset/cycle skew.
    pub skew: u64,
    /// `cycles[c]` is the list of `(port, value)` pokes applied at
    /// stream cycle `c` (batch cycle `skew + c`).
    pub cycles: Vec<Vec<(String, Bits)>>,
}

impl LaneStream {
    /// A skew-free stream from per-cycle pokes.
    pub fn new(cycles: Vec<Vec<(String, Bits)>>) -> LaneStream {
        LaneStream { skew: 0, cycles }
    }
}

/// Up to [`MAX_LANES`] independent stimulus streams destined for the
/// bit-lanes of one bitstream execution.
#[derive(Debug, Clone)]
pub struct LaneBatch {
    streams: Vec<LaneStream>,
}

impl LaneBatch {
    /// Builds a batch from per-lane streams (lane = index).
    ///
    /// # Errors
    ///
    /// [`LaneError::NoLanes`] / [`LaneError::TooManyLanes`] outside
    /// `1..=`[`MAX_LANES`].
    pub fn new(streams: Vec<LaneStream>) -> Result<LaneBatch, LaneError> {
        if streams.is_empty() {
            return Err(LaneError::NoLanes);
        }
        if streams.len() > MAX_LANES {
            return Err(LaneError::TooManyLanes(streams.len()));
        }
        Ok(LaneBatch { streams })
    }

    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.streams.len()
    }

    /// The streams, lane-indexed.
    pub fn streams(&self) -> &[LaneStream] {
        &self.streams
    }

    /// Batch length in cycles: the last cycle any lane still applies
    /// stimulus (skew included).
    pub fn len_cycles(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.skew + s.cycles.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Poke mask for `cycle`: bit `k` set when lane `k`'s stream is
    /// applying stimulus at that batch cycle (past its skew, before its
    /// end).
    pub fn active_mask(&self, cycle: u64) -> Word {
        let mut m: Word = 0;
        for (lane, s) in self.streams.iter().enumerate() {
            if cycle >= s.skew && cycle < s.skew + s.cycles.len() as u64 {
                m |= 1 << lane;
            }
        }
        m
    }

    /// The pokes lane `lane` applies at batch `cycle`, or `None` while
    /// the lane holds (skew not yet elapsed or stream exhausted).
    pub fn pokes_at(&self, cycle: u64, lane: usize) -> Option<&[(String, Bits)]> {
        let s = self.streams.get(lane)?;
        let c = cycle.checked_sub(s.skew)?;
        s.cycles.get(c as usize).map(Vec::as_slice)
    }

    /// Replays the whole batch against `target` and records `watch`
    /// ports after every step: the result is `[lane][cycle]` → port
    /// values in `watch` order. This is the generic half of the
    /// golden-model comparison: run it once against the lane-batched
    /// engine and once against independent per-lane models, then
    /// [`first_divergence`] diffs the traces.
    pub fn run<T: LaneTarget>(&self, target: &mut T, watch: &[&str]) -> Vec<Vec<Vec<Bits>>> {
        let lanes = self.lanes();
        let mut traces = vec![Vec::new(); lanes];
        for cycle in 0..self.len_cycles() {
            for lane in 0..lanes {
                if let Some(pokes) = self.pokes_at(cycle, lane) {
                    for (port, value) in pokes {
                        target.poke_lane(lane, port, value);
                    }
                }
            }
            target.step();
            for (lane, trace) in traces.iter_mut().enumerate() {
                trace.push(
                    watch
                        .iter()
                        .map(|port| target.peek_lane(lane, port))
                        .collect(),
                );
            }
        }
        traces
    }
}

/// The per-lane poke/step/peek surface [`LaneBatch::run`] drives. A
/// lane-batched engine implements it natively; a bank of independent
/// single-stimulus simulators implements it by indexing (which is
/// exactly how the differential lane-equivalence suite builds its
/// reference).
pub trait LaneTarget {
    /// Applies one port value in one lane.
    fn poke_lane(&mut self, lane: usize, port: &str, value: &Bits);
    /// Advances every lane one cycle.
    fn step(&mut self);
    /// Reads one port as one lane observed it during the last step.
    fn peek_lane(&mut self, lane: usize, port: &str) -> Bits;
}

/// Where two per-lane traces first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneDivergence {
    /// Lane that diverged.
    pub lane: usize,
    /// Cycle of first disagreement.
    pub cycle: usize,
    /// Index into the watch list.
    pub port: usize,
}

/// Diffs two traces produced by [`LaneBatch::run`], returning the first
/// `(lane, cycle, port)` where they disagree (shape differences count as
/// immediate divergence at the first missing position).
pub fn first_divergence(a: &[Vec<Vec<Bits>>], b: &[Vec<Vec<Bits>>]) -> Option<LaneDivergence> {
    for lane in 0..a.len().max(b.len()) {
        let (la, lb) = match (a.get(lane), b.get(lane)) {
            (Some(la), Some(lb)) => (la, lb),
            _ => {
                return Some(LaneDivergence {
                    lane,
                    cycle: 0,
                    port: 0,
                })
            }
        };
        for cycle in 0..la.len().max(lb.len()) {
            let (ca, cb) = match (la.get(cycle), lb.get(cycle)) {
                (Some(ca), Some(cb)) => (ca, cb),
                _ => {
                    return Some(LaneDivergence {
                        lane,
                        cycle,
                        port: 0,
                    })
                }
            };
            for port in 0..ca.len().max(cb.len()) {
                if ca.get(port) != cb.get(port) {
                    return Some(LaneDivergence { lane, cycle, port });
                }
            }
        }
    }
    None
}

/// Packs one per-lane value per lane into lane words: `words[i]` bit `k`
/// is bit `i` of `values[k]`. All values must share lane 0's width.
///
/// # Errors
///
/// [`LaneError`] on an empty/oversized slice or width disagreement.
pub fn pack(values: &[Bits]) -> Result<Vec<Word>, LaneError> {
    if values.is_empty() {
        return Err(LaneError::NoLanes);
    }
    if values.len() > MAX_LANES {
        return Err(LaneError::TooManyLanes(values.len()));
    }
    let width = values[0].width();
    let mut words: Vec<Word> = vec![0; width as usize];
    for (lane, v) in values.iter().enumerate() {
        if v.width() != width {
            return Err(LaneError::WidthMismatch {
                lane,
                want: width,
                got: v.width(),
            });
        }
        for (i, w) in words.iter_mut().enumerate() {
            if v.bit(i as u32) {
                *w |= 1 << lane;
            }
        }
    }
    Ok(words)
}

/// Unpacks lane words back into per-lane values: the inverse of
/// [`pack`] for the first `lanes` lanes.
pub fn unpack(words: &[Word], lanes: usize) -> Vec<Bits> {
    (0..lanes.min(MAX_LANES))
        .map(|lane| {
            let mut v = Bits::zeros(words.len() as u32);
            for (i, w) in words.iter().enumerate() {
                v.set_bit(i as u32, (w >> lane) & 1 == 1);
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64, w: u32) -> Bits {
        Bits::from_u64(v, w)
    }

    #[test]
    fn batch_size_is_validated() {
        assert!(matches!(
            LaneBatch::new(Vec::new()),
            Err(LaneError::NoLanes)
        ));
        let too_many = vec![LaneStream::default(); 65];
        assert!(matches!(
            LaneBatch::new(too_many),
            Err(LaneError::TooManyLanes(65))
        ));
        let ok = LaneBatch::new(vec![LaneStream::default(); 64]).expect("64 lanes fit");
        assert_eq!(ok.lanes(), 64);
    }

    #[test]
    fn pack_unpack_round_trips() {
        let values: Vec<Bits> = (0..64u64).map(|k| b((k * 0x11) & 0xFF, 8)).collect();
        let words = pack(&values).expect("packs");
        assert_eq!(words.len(), 8);
        assert_eq!(unpack(&words, 64), values);
        // Spot-check the transpose: bit i of word = lane's value bit i.
        for (i, w) in words.iter().enumerate() {
            for (lane, v) in values.iter().enumerate() {
                assert_eq!((w >> lane) & 1 == 1, v.bit(i as u32), "bit {i} lane {lane}");
            }
        }
    }

    #[test]
    fn pack_rejects_mixed_widths() {
        let r = pack(&[b(1, 4), b(1, 5)]);
        assert_eq!(
            r,
            Err(LaneError::WidthMismatch {
                lane: 1,
                want: 4,
                got: 5
            })
        );
        assert_eq!(pack(&[]), Err(LaneError::NoLanes));
        let many: Vec<Bits> = (0..65).map(|_| b(0, 1)).collect();
        assert_eq!(pack(&many), Err(LaneError::TooManyLanes(65)));
    }

    #[test]
    fn skew_shifts_streams_and_masks() {
        let mk = |skew, n: usize| LaneStream {
            skew,
            cycles: (0..n)
                .map(|c| vec![("d".to_string(), b(c as u64, 8))])
                .collect(),
        };
        let batch = LaneBatch::new(vec![mk(0, 4), mk(2, 4)]).expect("batch");
        assert_eq!(batch.len_cycles(), 6);
        assert_eq!(batch.active_mask(0), 0b01);
        assert_eq!(batch.active_mask(2), 0b11);
        assert_eq!(batch.active_mask(4), 0b10);
        assert_eq!(batch.active_mask(6), 0);
        // Lane 1 holds for two cycles, then replays its stream shifted.
        assert!(batch.pokes_at(1, 1).is_none());
        assert_eq!(batch.pokes_at(2, 1).unwrap()[0].1, b(0, 8));
        assert_eq!(batch.pokes_at(5, 1).unwrap()[0].1, b(3, 8));
        assert!(batch.pokes_at(6, 1).is_none());
        assert!(batch.pokes_at(0, 7).is_none(), "unknown lane holds");
    }

    /// A toy lane target: per-lane registered pass-through, to prove the
    /// driver applies skews and the divergence diff pinpoints mismatches.
    struct Regs {
        d: Vec<Bits>,
        q: Vec<Bits>,
    }

    impl LaneTarget for Regs {
        fn poke_lane(&mut self, lane: usize, _port: &str, value: &Bits) {
            self.d[lane] = value.clone();
        }
        fn step(&mut self) {
            self.q = self.d.clone();
        }
        fn peek_lane(&mut self, lane: usize, _port: &str) -> Bits {
            self.q[lane].clone()
        }
    }

    #[test]
    fn run_produces_per_lane_traces_and_divergence_diffs() {
        let stream = |base: u64| LaneStream {
            skew: 0,
            cycles: (0..3)
                .map(|c| vec![("d".to_string(), b(base + c, 8))])
                .collect(),
        };
        let batch = LaneBatch::new(vec![stream(10), stream(20)]).expect("batch");
        let mut t = Regs {
            d: vec![b(0, 8); 2],
            q: vec![b(0, 8); 2],
        };
        let trace = batch.run(&mut t, &["q"]);
        assert_eq!(trace[0][2][0], b(12, 8));
        assert_eq!(trace[1][0][0], b(20, 8));
        assert_eq!(first_divergence(&trace, &trace), None);
        let mut other = trace.clone();
        other[1][2][0] = b(0, 8);
        assert_eq!(
            first_divergence(&trace, &other),
            Some(LaneDivergence {
                lane: 1,
                cycle: 2,
                port: 0
            })
        );
    }
}
