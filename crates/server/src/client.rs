//! Blocking client for the `gem-server` wire protocol.
//!
//! [`GemClient`] wraps one TCP connection: it assigns request ids,
//! frames requests, and checks the response envelope, turning
//! `{"ok": false}` into a typed [`ClientError::Server`] that carries the
//! machine-readable code and the `retry_after_ms` backoff hint. A
//! rejected-because-busy submission is therefore an `Err` the caller can
//! retry, never a hang.

use crate::protocol::codes;
use gem_telemetry::{read_frame, write_frame, FrameError, Json, DEFAULT_MAX_FRAME};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// The server answered with an error envelope.
    Server {
        /// Machine-readable code (see [`codes`]).
        code: String,
        /// Human-readable description.
        message: String,
        /// Backoff hint accompanying `busy` rejections.
        retry_after_ms: Option<u64>,
    },
    /// The response did not match the request (missing/wrong id).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl ClientError {
    /// Whether this is a `busy` rejection worth retrying.
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Server { code, .. } if code == codes::BUSY)
    }
}

/// One connection to a `gem serve` instance.
#[derive(Debug)]
pub struct GemClient {
    stream: TcpStream,
    next_id: u64,
}

impl GemClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:7453"`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<GemClient> {
        let stream = TcpStream::connect(addr)?;
        // Request/response traffic: a frame is one write, and its tail
        // segment must not wait for the peer's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(GemClient { stream, next_id: 1 })
    }

    /// Sends `cmd` with extra `fields` and returns the success response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for error envelopes (including `busy`),
    /// [`ClientError::Frame`] for transport problems.
    pub fn request(&mut self, cmd: &str, fields: Vec<(&str, Json)>) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut req = Json::object();
        req.set("id", id);
        req.set("cmd", cmd);
        for (k, v) in fields {
            req.set(k, v);
        }
        write_frame(&mut self.stream, &req, DEFAULT_MAX_FRAME)?;
        let resp = read_frame(&mut self.stream, DEFAULT_MAX_FRAME)?;
        if resp.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id does not match request id {id}"
            )));
        }
        match resp.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(resp),
            Some(false) => Err(ClientError::Server {
                code: resp
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: resp
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                retry_after_ms: resp.get("retry_after_ms").and_then(Json::as_u64),
            }),
            None => Err(ClientError::Protocol(
                "response missing \"ok\" field".into(),
            )),
        }
    }

    /// Round-trip health check; `delay_ms > 0` passes the admission gate
    /// like simulation work (and can therefore be rejected `busy`).
    pub fn ping(&mut self, delay_ms: u64) -> Result<(), ClientError> {
        let fields = if delay_ms > 0 {
            vec![("delay_ms", Json::U64(delay_ms))]
        } else {
            Vec::new()
        };
        self.request("ping", fields).map(|_| ())
    }

    /// Compiles (or cache-hits) a design without opening a session.
    /// Returns the full response (`key`, `cached`, `report`).
    pub fn compile(&mut self, source: &str, opts: Json) -> Result<Json, ClientError> {
        self.request(
            "compile",
            vec![("source", Json::Str(source.into())), ("opts", opts)],
        )
    }

    /// Opens a session; returns the full response (`session`, `key`,
    /// `cached`, `report`).
    pub fn open(&mut self, source: &str, opts: Json) -> Result<Json, ClientError> {
        self.request(
            "open",
            vec![("source", Json::Str(source.into())), ("opts", opts)],
        )
    }

    /// Sets an input port to a hex value for upcoming cycles.
    pub fn poke(&mut self, session: u64, port: &str, hex: &str) -> Result<(), ClientError> {
        self.request(
            "poke",
            vec![
                ("session", Json::U64(session)),
                ("port", Json::Str(port.into())),
                ("value", Json::Str(hex.into())),
            ],
        )
        .map(|_| ())
    }

    /// Reads an output port as a hex string.
    pub fn peek(&mut self, session: u64, port: &str) -> Result<String, ClientError> {
        let r = self.request(
            "peek",
            vec![
                ("session", Json::U64(session)),
                ("port", Json::Str(port.into())),
            ],
        )?;
        r.get("value")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("peek response missing \"value\"".into()))
    }

    /// Runs `cycles` cycles with optional pokes applied first; returns
    /// the full response (`cycle`, `outputs`).
    pub fn step(
        &mut self,
        session: u64,
        cycles: u64,
        pokes: Vec<(&str, &str)>,
    ) -> Result<Json, ClientError> {
        let mut fields = vec![
            ("session", Json::U64(session)),
            ("cycles", Json::U64(cycles)),
        ];
        if !pokes.is_empty() {
            let mut o = Json::object();
            for (k, v) in pokes {
                o.set(k, v);
            }
            fields.push(("pokes", o));
        }
        self.request("step", fields)
    }

    /// Replays a VCD stimulus; returns the full response (`cycles`,
    /// per-cycle `outputs`, result `vcd`).
    pub fn replay(&mut self, session: u64, vcd: &str) -> Result<Json, ClientError> {
        self.request(
            "replay",
            vec![
                ("session", Json::U64(session)),
                ("vcd", Json::Str(vcd.into())),
            ],
        )
    }

    /// Profiles a design server-side: compiles (through the cache), runs
    /// `cycles` cycles on a clone of the cached power-on machine, and
    /// returns hotspot attribution (`profile` JSON report plus a rendered
    /// `table`).
    pub fn profile(&mut self, source: &str, opts: Json, cycles: u64) -> Result<Json, ClientError> {
        self.request(
            "profile",
            vec![
                ("source", Json::Str(source.into())),
                ("opts", opts),
                ("cycles", Json::U64(cycles)),
            ],
        )
    }

    /// Closes a session.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        self.request("close", vec![("session", Json::U64(session))])
            .map(|_| ())
    }

    /// Fetches the server's metric snapshot and table sizes.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request("stats", Vec::new())
    }

    /// Asks the server to shut down (the response acknowledges; the
    /// server then stops accepting and joins its threads).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request("shutdown", Vec::new()).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_disables_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback binds");
        let client = GemClient::connect(listener.local_addr().unwrap()).expect("connects");
        assert!(client.stream.nodelay().expect("socket option reads"));
    }
}
