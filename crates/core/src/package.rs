//! On-disk format for compiled designs (`.gemb` packages).
//!
//! A package bundles the assembled bitstream with everything a runtime
//! needs to execute it: the device configuration (global space, RAM
//! bindings, power-on values), the port↔global-bit map, and the compile
//! report. The layout is a JSON metadata header followed by the raw
//! bitstream container:
//!
//! ```text
//! "GEMPKG1\n"  | u32 meta_len | meta JSON | bitstream container bytes
//! ```

use crate::compile::{CompileReport, Compiled, IoMap, PortIndices};
use gem_isa::{Bitstream, ContainerError, ScheduleCert};
use gem_telemetry::Json;
use gem_vgpu::{DeviceConfig, RamBinding};
use std::fmt;

const MAGIC: &[u8; 8] = b"GEMPKG1\n";

/// A loadable compiled design: everything needed to run, nothing needed
/// to recompile.
#[derive(Debug, Clone, PartialEq)]
pub struct Package {
    /// Device configuration for [`gem_vgpu::GemGpu::load`].
    pub device: DeviceConfig,
    /// Port bindings.
    pub io: IoMap,
    /// Compile statistics.
    pub report: CompileReport,
    /// The assembled bitstream.
    pub bitstream: Bitstream,
    /// Schedule happens-before certificate of the compile that wrote the
    /// package (`gem verify` re-checks it against the bitstream).
    pub schedule_cert: ScheduleCert,
}

/// Errors from [`Package::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePackageError {
    /// Not a GEM package (bad magic).
    BadMagic,
    /// Truncated file.
    Truncated,
    /// Metadata JSON failed to parse; the string names the violation.
    BadMeta(String),
    /// The embedded bitstream container failed to parse (bytes after
    /// its last core included).
    BadBitstream(ContainerError),
}

impl fmt::Display for ParsePackageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePackageError::BadMagic => write!(f, "not a GEM package (bad magic)"),
            ParsePackageError::Truncated => write!(f, "truncated GEM package"),
            ParsePackageError::BadMeta(e) => write!(f, "bad package metadata: {e}"),
            ParsePackageError::BadBitstream(e) => write!(f, "bad embedded bitstream: {e}"),
        }
    }
}

impl std::error::Error for ParsePackageError {}

fn bad(msg: &str) -> ParsePackageError {
    ParsePackageError::BadMeta(msg.to_string())
}

fn get<'a>(j: &'a Json, key: &str) -> Result<&'a Json, ParsePackageError> {
    j.get(key).ok_or_else(|| bad(&format!("missing key {key}")))
}

fn get_u64(j: &Json, key: &str) -> Result<u64, ParsePackageError> {
    get(j, key)?
        .as_u64()
        .ok_or_else(|| bad(&format!("{key} is not an unsigned integer")))
}

fn get_f64(j: &Json, key: &str) -> Result<f64, ParsePackageError> {
    get(j, key)?
        .as_f64()
        .ok_or_else(|| bad(&format!("{key} is not a number")))
}

fn get_u32(j: &Json, key: &str) -> Result<u32, ParsePackageError> {
    u32::try_from(get_u64(j, key)?).map_err(|_| bad(&format!("{key} exceeds u32")))
}

fn get_array<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], ParsePackageError> {
    get(j, key)?
        .as_array()
        .ok_or_else(|| bad(&format!("{key} is not an array")))
}

fn u32_vec(j: &Json, key: &str) -> Result<Vec<u32>, ParsePackageError> {
    get_array(j, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| bad(&format!("{key} holds a non-u32 element")))
        })
        .collect()
}

fn u32_arr<const N: usize>(j: &Json, key: &str) -> Result<[u32; N], ParsePackageError> {
    let v = u32_vec(j, key)?;
    v.try_into()
        .map_err(|_| bad(&format!("{key} must have exactly {N} elements")))
}

fn indices_json(bits: &[u32]) -> Json {
    Json::Array(bits.iter().map(|&b| Json::from(b)).collect())
}

/// Serializes a [`DeviceConfig`] (package metadata schema).
pub fn device_to_json(d: &DeviceConfig) -> Json {
    let rams: Vec<Json> = d
        .rams
        .iter()
        .map(|r| {
            let mut o = Json::object();
            o.set("raddr", indices_json(&r.raddr));
            o.set("waddr", indices_json(&r.waddr));
            o.set("wdata", indices_json(&r.wdata));
            o.set("we", r.we);
            o.set("rdata", indices_json(&r.rdata));
            o
        })
        .collect();
    let mut o = Json::object();
    o.set("global_bits", d.global_bits);
    o.set("rams", Json::Array(rams));
    o.set("initial_ones", indices_json(&d.initial_ones));
    o
}

/// Parses the [`device_to_json`] schema.
///
/// # Errors
///
/// Returns [`ParsePackageError::BadMeta`] naming the first violation.
pub fn device_from_json(j: &Json) -> Result<DeviceConfig, ParsePackageError> {
    let rams = get_array(j, "rams")?
        .iter()
        .map(|r| {
            Ok(RamBinding {
                raddr: u32_arr(r, "raddr")?,
                waddr: u32_arr(r, "waddr")?,
                wdata: u32_arr(r, "wdata")?,
                we: get_u32(r, "we")?,
                rdata: u32_arr(r, "rdata")?,
            })
        })
        .collect::<Result<_, ParsePackageError>>()?;
    Ok(DeviceConfig {
        global_bits: get_u32(j, "global_bits")?,
        rams,
        initial_ones: u32_vec(j, "initial_ones")?,
    })
}

/// Serializes an [`IoMap`] (package metadata schema).
pub fn io_to_json(io: &IoMap) -> Json {
    let ports = |ps: &[PortIndices]| -> Json {
        Json::Array(
            ps.iter()
                .map(|p| {
                    let mut o = Json::object();
                    o.set("name", p.name.as_str());
                    o.set("bits", indices_json(&p.bits));
                    o
                })
                .collect(),
        )
    };
    let mut o = Json::object();
    o.set("inputs", ports(&io.inputs));
    o.set("outputs", ports(&io.outputs));
    o
}

/// Parses the [`io_to_json`] schema.
///
/// # Errors
///
/// Returns [`ParsePackageError::BadMeta`] naming the first violation.
pub fn io_from_json(j: &Json) -> Result<IoMap, ParsePackageError> {
    let ports = |key: &str| -> Result<Vec<PortIndices>, ParsePackageError> {
        get_array(j, key)?
            .iter()
            .map(|p| {
                Ok(PortIndices {
                    name: get(p, "name")?
                        .as_str()
                        .ok_or_else(|| bad("port name is not a string"))?
                        .to_string(),
                    bits: u32_vec(p, "bits")?,
                })
            })
            .collect()
    };
    Ok(IoMap {
        inputs: ports("inputs")?,
        outputs: ports("outputs")?,
    })
}

/// Parses the [`CompileReport::to_json`] schema.
///
/// # Errors
///
/// Returns [`ParsePackageError::BadMeta`] naming the first violation.
pub fn report_from_json(j: &Json) -> Result<CompileReport, ParsePackageError> {
    Ok(CompileReport {
        gates: get_u64(j, "gates")?,
        levels: get_u32(j, "levels")?,
        stages: get_u32(j, "stages")?,
        layers: get_u32(j, "layers")?,
        parts: get_u32(j, "parts")?,
        bitstream_bytes: get_u64(j, "bitstream_bytes")?,
        replication_cost: get_f64(j, "replication_cost")?,
        ram_blocks: get_u64(j, "ram_blocks")?,
        polyfilled_mem_bits: get_u64(j, "polyfilled_mem_bits")?,
    })
}

/// Serializes a [`ScheduleCert`] (package metadata schema). The u64
/// digests ride as JSON integers — the in-repo JSON keeps them lossless.
pub fn cert_to_json(c: &ScheduleCert) -> Json {
    let mut o = Json::object();
    o.set("version", c.version);
    o.set("stages", c.stages);
    o.set("cores", c.cores);
    o.set("global_bits", c.global_bits);
    o.set("reads", c.reads);
    o.set("barrier_edges", c.barrier_edges);
    o.set("boundary_edges", c.boundary_edges);
    o.set("immediate_writes", c.immediate_writes);
    o.set("deferred_writes", c.deferred_writes);
    o.set("table_digest", c.table_digest);
    o.set("bitstream_fnv", c.bitstream_fnv);
    o
}

/// Parses the [`cert_to_json`] schema.
///
/// # Errors
///
/// Returns [`ParsePackageError::BadMeta`] naming the first violation.
pub fn cert_from_json(j: &Json) -> Result<ScheduleCert, ParsePackageError> {
    Ok(ScheduleCert {
        version: get_u32(j, "version")?,
        stages: get_u32(j, "stages")?,
        cores: get_u32(j, "cores")?,
        global_bits: get_u32(j, "global_bits")?,
        reads: get_u32(j, "reads")?,
        barrier_edges: get_u32(j, "barrier_edges")?,
        boundary_edges: get_u32(j, "boundary_edges")?,
        immediate_writes: get_u32(j, "immediate_writes")?,
        deferred_writes: get_u32(j, "deferred_writes")?,
        table_digest: get_u64(j, "table_digest")?,
        bitstream_fnv: get_u64(j, "bitstream_fnv")?,
    })
}

impl Package {
    /// Extracts the loadable parts of a compilation result.
    pub fn from_compiled(c: &Compiled) -> Self {
        Package {
            device: c.device.clone(),
            io: c.io.clone(),
            report: c.report,
            bitstream: c.bitstream.clone(),
            schedule_cert: c.schedule_cert,
        }
    }

    /// Serializes the package.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = Json::object();
        meta.set("device", device_to_json(&self.device));
        meta.set("io", io_to_json(&self.io));
        meta.set("report", self.report.to_json());
        meta.set("schedule_cert", cert_to_json(&self.schedule_cert));
        let meta = meta.to_string().into_bytes();
        // One buffer of the exact length: the container is written
        // straight into it.
        let len = MAGIC.len() + 4 + meta.len() + self.bitstream.serialized_len();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&meta);
        self.bitstream.write_into(&mut out);
        out
    }

    /// Parses a package produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`ParsePackageError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParsePackageError> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(ParsePackageError::Truncated);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(ParsePackageError::BadMagic);
        }
        let len_off = MAGIC.len();
        let meta_len = u32::from_le_bytes(
            bytes[len_off..len_off + 4]
                .try_into()
                .expect("4 bytes sliced"),
        ) as usize;
        let meta_start = len_off + 4;
        if bytes.len() < meta_start + meta_len {
            return Err(ParsePackageError::Truncated);
        }
        let meta_text = std::str::from_utf8(&bytes[meta_start..meta_start + meta_len])
            .map_err(|e| bad(&format!("metadata is not UTF-8: {e}")))?;
        let meta = gem_telemetry::parse_json(meta_text)
            .map_err(|e| ParsePackageError::BadMeta(e.to_string()))?;
        let bitstream = Bitstream::from_bytes(&bytes[meta_start + meta_len..])
            .map_err(ParsePackageError::BadBitstream)?;
        let device = device_from_json(get(&meta, "device")?)?;
        let io = io_from_json(get(&meta, "io")?)?;
        // A port bit names a slot of the global array that `set_input` and
        // `output` index unchecked.
        for p in io.inputs.iter().chain(&io.outputs) {
            if let Some(b) = p.bits.iter().find(|&&b| b >= device.global_bits) {
                return Err(bad(&format!(
                    "port {} binds global bit {b} of {}",
                    p.name, device.global_bits
                )));
            }
        }
        Ok(Package {
            device,
            io,
            report: report_from_json(get(&meta, "report")?)?,
            bitstream,
            schedule_cert: cert_from_json(get(&meta, "schedule_cert")?)?,
        })
    }

    /// Loads the package onto a fresh virtual GPU and wraps it in a
    /// simulator.
    ///
    /// # Errors
    ///
    /// Returns [`gem_vgpu::MachineError`] if the bitstream fails device
    /// validation.
    pub fn into_simulator(self) -> Result<crate::GemSimulator, gem_vgpu::MachineError> {
        let gpu = gem_vgpu::GemGpu::load(&self.bitstream, self.device)?;
        Ok(crate::GemSimulator::from_machine(gpu, self.io))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};
    use gem_netlist::{Bits, ModuleBuilder};

    fn compiled() -> Compiled {
        let mut b = ModuleBuilder::new("pkg");
        let x = b.input("x", 4);
        let q = b.dff_init(Bits::from_u64(5, 4));
        let nx = b.xor(q, x);
        b.connect_dff(q, nx);
        b.output("q", q);
        let m = b.finish().expect("valid");
        compile(&m, &CompileOptions::small()).expect("compiles")
    }

    #[test]
    fn round_trip() {
        let c = compiled();
        let pkg = Package::from_compiled(&c);
        let bytes = pkg.to_bytes();
        let back = Package::from_bytes(&bytes).expect("parses");
        assert_eq!(back, pkg);
    }

    #[test]
    fn loaded_package_behaves_like_original() {
        let c = compiled();
        let pkg_bytes = Package::from_compiled(&c).to_bytes();
        let pkg = Package::from_bytes(&pkg_bytes).expect("parses");
        let mut from_pkg = pkg.into_simulator().expect("loads");
        let mut direct = crate::GemSimulator::new(&c).expect("loads");
        for i in 0..10u64 {
            let v = Bits::from_u64(i % 16, 4);
            from_pkg.set_input("x", v.clone());
            direct.set_input("x", v);
            from_pkg.step();
            direct.step();
            assert_eq!(from_pkg.output("q"), direct.output("q"));
        }
    }

    #[test]
    fn schedule_cert_rides_the_package() {
        let c = compiled();
        let pkg = Package::from_compiled(&c);
        let back = Package::from_bytes(&pkg.to_bytes()).expect("parses");
        assert_eq!(back.schedule_cert, c.schedule_cert);
        // Metadata without a certificate is refused, naming the key.
        let mut meta = Json::object();
        meta.set("device", device_to_json(&pkg.device));
        meta.set("io", io_to_json(&pkg.io));
        meta.set("report", pkg.report.to_json());
        let meta = meta.to_string().into_bytes();
        let mut certless = MAGIC.to_vec();
        certless.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        certless.extend_from_slice(&meta);
        certless.extend_from_slice(&pkg.bitstream.to_bytes());
        assert_eq!(
            Package::from_bytes(&certless),
            Err(ParsePackageError::BadMeta(
                "missing key schedule_cert".into()
            ))
        );
    }

    #[test]
    fn a_port_bit_outside_the_global_array_is_refused() {
        let mut pkg = Package::from_compiled(&compiled());
        let outside = pkg.device.global_bits;
        pkg.io.outputs[0].bits[2] = outside;
        assert_eq!(
            Package::from_bytes(&pkg.to_bytes()),
            Err(ParsePackageError::BadMeta(format!(
                "port q binds global bit {outside} of {outside}"
            )))
        );
    }

    #[test]
    fn corrupt_packages_rejected() {
        let c = compiled();
        let bytes = Package::from_compiled(&c).to_bytes();
        assert_eq!(
            Package::from_bytes(&bytes[..4]),
            Err(ParsePackageError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Package::from_bytes(&bad), Err(ParsePackageError::BadMagic));
        let mut trunc = bytes.clone();
        trunc.truncate(bytes.len() - 10);
        assert!(Package::from_bytes(&trunc).is_err());
        // Bytes after the last core are refused, and counted.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 27]);
        assert_eq!(
            Package::from_bytes(&long),
            Err(ParsePackageError::BadBitstream(
                ContainerError::TrailingBytes(27)
            ))
        );
    }

    #[test]
    fn device_json_round_trips_ram_bindings() {
        let mut idx = 0u32;
        let mut next = || {
            let i = idx;
            idx += 1;
            i
        };
        let d = DeviceConfig {
            global_bits: 200,
            rams: vec![RamBinding {
                raddr: std::array::from_fn(|_| next()),
                waddr: std::array::from_fn(|_| next()),
                wdata: std::array::from_fn(|_| next()),
                we: next(),
                rdata: std::array::from_fn(|_| next()),
            }],
            initial_ones: vec![1, 5, 7],
        };
        let j = device_to_json(&d);
        let text = j.to_string();
        let back = device_from_json(&gem_telemetry::parse_json(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }
}
