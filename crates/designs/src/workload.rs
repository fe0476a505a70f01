//! Workload (stimulus) descriptions.
//!
//! A workload is a reproducible input sequence. The same workload can be
//! instantiated as many independent [`Stimulus`] generators as needed, so
//! every simulation engine in a comparison receives identical inputs.

use gem_netlist::Bits;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How the inputs of a design evolve over time.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Each listed port bit toggles randomly with probability `activity`
    /// per cycle; ports not listed are held at fixed values.
    RandomToggle {
        /// Ports driven randomly.
        ports: Vec<String>,
        /// Per-bit toggle probability per cycle (the switching-activity
        /// knob that differentiates event-driven baseline speeds).
        activity: f64,
        /// Ports held constant: (name, value).
        held: Vec<(String, u64)>,
        /// RNG seed.
        seed: u64,
        /// Cycles to run before measurement starts (lets state such as
        /// buffer memories fill with representative data).
        warmup: u64,
    },
    /// CPU-style bootstrap: assert `rst`, stream `program` words through
    /// the host-write port, release reset, then idle the host bus.
    ProgramLoad {
        /// Program memory image (instruction words).
        program: Vec<u16>,
        /// Value driven on the tile-select port during load, if any.
        tile_select: Option<(String, u64)>,
        /// Extra ports held constant for the whole run.
        held: Vec<(String, u64)>,
    },
}

/// A named workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name (mirrors the paper's test-name column).
    pub name: String,
    /// The stimulus description.
    pub spec: WorkloadSpec,
}

impl Workload {
    /// Instantiates a fresh stimulus generator (cycle counter at 0).
    pub fn stimulus(&self, widths: &dyn Fn(&str) -> u32) -> Stimulus {
        Stimulus {
            spec: self.spec.clone(),
            cycle: 0,
            rng: ChaCha8Rng::seed_from_u64(match &self.spec {
                WorkloadSpec::RandomToggle { seed, .. } => *seed,
                WorkloadSpec::ProgramLoad { .. } => 0,
            }),
            width_of: {
                let mut cache = std::collections::HashMap::new();
                let names: Vec<String> = match &self.spec {
                    WorkloadSpec::RandomToggle { ports, held, .. } => ports
                        .iter()
                        .cloned()
                        .chain(held.iter().map(|(n, _)| n.clone()))
                        .collect(),
                    WorkloadSpec::ProgramLoad {
                        tile_select, held, ..
                    } => ["rst", "host_we", "host_addr", "host_data"]
                        .iter()
                        .map(|s| s.to_string())
                        .chain(tile_select.iter().map(|(n, _)| n.clone()))
                        .chain(held.iter().map(|(n, _)| n.clone()))
                        .collect(),
                };
                for n in names {
                    cache.insert(n.clone(), widths(&n));
                }
                cache
            },
            current: std::collections::HashMap::new(),
        }
    }
}

/// A running stimulus: call [`next_inputs`](Self::next_inputs) once per cycle.
#[derive(Debug)]
pub struct Stimulus {
    spec: WorkloadSpec,
    cycle: u64,
    rng: ChaCha8Rng,
    width_of: std::collections::HashMap<String, u32>,
    current: std::collections::HashMap<String, Bits>,
}

impl Stimulus {
    /// Inputs to apply for the next cycle.
    pub fn next_inputs(&mut self) -> Vec<(String, Bits)> {
        let cycle = self.cycle;
        self.cycle += 1;
        let mut out = Vec::new();
        match &self.spec {
            WorkloadSpec::RandomToggle {
                ports,
                activity,
                held,
                ..
            } => {
                for (name, v) in held {
                    let w = self.width_of[name];
                    out.push((name.clone(), Bits::from_u64(*v, w)));
                }
                for name in ports {
                    let w = self.width_of[name];
                    let cur = self
                        .current
                        .entry(name.clone())
                        .or_insert_with(|| Bits::zeros(w));
                    let mut nv = cur.clone();
                    for i in 0..w {
                        if self.rng.gen_bool(*activity) {
                            nv.set_bit(i, !nv.bit(i));
                        }
                    }
                    *cur = nv.clone();
                    out.push((name.clone(), nv));
                }
            }
            WorkloadSpec::ProgramLoad {
                program,
                tile_select,
                held,
            } => {
                let loading = (cycle as usize) < program.len();
                let aw = self.width_of["host_addr"];
                let dw = self.width_of["host_data"];
                out.push(("rst".into(), Bits::from_u64(loading as u64, 1)));
                out.push(("host_we".into(), Bits::from_u64(loading as u64, 1)));
                let (addr, data) = if loading {
                    (cycle, program[cycle as usize] as u64)
                } else {
                    (0, 0)
                };
                out.push((
                    "host_addr".into(),
                    Bits::from_u64(addr & ((1 << aw) - 1), aw),
                ));
                out.push(("host_data".into(), Bits::from_u64(data, dw)));
                if let Some((name, v)) = tile_select {
                    let w = self.width_of[name];
                    out.push((name.clone(), Bits::from_u64(*v, w)));
                }
                for (name, v) in held {
                    let w = self.width_of[name];
                    out.push((name.clone(), Bits::from_u64(*v, w)));
                }
            }
        }
        out
    }

    /// Cycles consumed by the bootstrap phase (0 for random workloads);
    /// measurements should start after this point.
    pub fn warmup_cycles(&self) -> u64 {
        match &self.spec {
            WorkloadSpec::RandomToggle { warmup, .. } => *warmup,
            WorkloadSpec::ProgramLoad { program, .. } => program.len() as u64 + 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn widths(name: &str) -> u32 {
        match name {
            "rst" | "host_we" | "en" => 1,
            "host_addr" => 8,
            "host_data" | "bus" => 16,
            _ => 4,
        }
    }

    #[test]
    fn random_toggle_respects_activity_extremes() {
        let quiet = Workload {
            name: "q".into(),
            spec: WorkloadSpec::RandomToggle {
                ports: vec!["bus".into()],
                activity: 0.0,
                held: vec![("en".into(), 1)],
                seed: 1,
                warmup: 0,
            },
        };
        let mut s = quiet.stimulus(&widths);
        let first = s.next_inputs();
        let later = s.next_inputs();
        assert_eq!(first, later, "zero activity never toggles");
        assert!(first.iter().any(|(n, v)| n == "en" && v.to_u64() == 1));
    }

    #[test]
    fn random_toggle_is_reproducible() {
        let w = Workload {
            name: "r".into(),
            spec: WorkloadSpec::RandomToggle {
                ports: vec!["bus".into()],
                activity: 0.5,
                held: vec![],
                seed: 7,
                warmup: 0,
            },
        };
        let mut a = w.stimulus(&widths);
        let mut b = w.stimulus(&widths);
        for _ in 0..20 {
            assert_eq!(a.next_inputs(), b.next_inputs());
        }
    }

    #[test]
    fn program_load_sequences_boot_then_run() {
        let w = Workload {
            name: "p".into(),
            spec: WorkloadSpec::ProgramLoad {
                program: vec![0xAAAA, 0xBBBB],
                tile_select: None,
                held: vec![],
            },
        };
        let mut s = w.stimulus(&widths);
        let c0 = s.next_inputs();
        assert!(c0.iter().any(|(n, v)| n == "host_we" && v.to_u64() == 1));
        assert!(c0
            .iter()
            .any(|(n, v)| n == "host_data" && v.to_u64() == 0xAAAA));
        let c1 = s.next_inputs();
        assert!(c1
            .iter()
            .any(|(n, v)| n == "host_data" && v.to_u64() == 0xBBBB));
        let c2 = s.next_inputs();
        assert!(c2.iter().any(|(n, v)| n == "host_we" && v.to_u64() == 0));
        assert!(c2.iter().any(|(n, v)| n == "rst" && v.to_u64() == 0));
        assert_eq!(s.warmup_cycles(), 4);
    }
}
