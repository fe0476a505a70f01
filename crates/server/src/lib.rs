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
//! * an admission gate — a heavy request runs on the connection thread
//!   that read it, at most `workers` at a time; a full line is a `busy`
//!   response with `retry_after_ms`, never a hang, and a request that
//!   panics costs that request alone (`docs/SERVER.md` §4);
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
mod gate;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;

pub use cache::{content_hash, CachedDesign, CompileCache};
pub use client::{ClientError, GemClient};
pub use metrics::ServerMetrics;
pub use server::{mapping_defaults, Server, ServerConfig};
pub use session::{SessionEntry, SessionTable};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks bookkeeping state, recovering the guard if another thread
/// panicked while holding it. Only for data every update leaves valid
/// at every step (counters, tables, queues); a session's machine state
/// is not that — see [`SessionEntry::sim`].
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
