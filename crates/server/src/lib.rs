//! Multi-session RTL simulation service over the GEM flow.
//!
//! GEM's compile → bitstream → interpret split makes compiled designs
//! immutable, shareable artifacts — the natural unit of a *simulation
//! service*: many clients, one host, one compile per distinct design.
//! This crate provides that service, std-only (the build environment is
//! sealed):
//!
//! * [`wire protocol`](protocol) — length-prefixed JSON frames
//!   ([`gem_telemetry::wire`]) carrying `{"id", "cmd", …}` requests and
//!   `{"id", "ok", …}` responses; values as hex strings;
//! * [`CompileCache`] — content-hash-keyed, single-flight, LRU: N
//!   concurrent opens of the same source pay exactly one compile and one
//!   bitstream load (sessions clone the entry's power-on machine);
//! * [`WorkerPool`] — fixed threads, bounded queue, explicit
//!   backpressure: a full queue is a `busy` response with
//!   `retry_after_ms`, never a hang;
//! * [`SessionTable`] — per-client simulator instances with
//!   idle-timeout eviction and `save`/`restore` checkpoints;
//! * [`ServerMetrics`] — `gem_server_*` counter/gauge families exported
//!   through the shared [`gem_telemetry`] snapshot/exporter machinery;
//! * [`Server`] / [`GemClient`] — the TCP loopback service and its
//!   blocking client, also exposed as `gem serve` / `gem client`.
//!
//! See `docs/SERVER.md` for the protocol reference and operational
//! notes.

pub mod cache;
pub mod client;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod session;

pub use cache::{content_hash, CachedDesign, CompileCache};
pub use client::{ClientError, GemClient};
pub use metrics::ServerMetrics;
pub use pool::{SubmitError, WorkerPool};
pub use server::{Server, ServerConfig};
pub use session::{SessionEntry, SessionTable};
