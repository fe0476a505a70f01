//! Leveled log events, written to stderr.
//!
//! Library code emits [`error!`](crate::error) …
//! [`trace!`](macro@crate::trace) events. One process-wide filter, read
//! once from the `GEM_LOG` environment variable (default `warn`), decides
//! which are formatted and written — to stderr, never stdout, which
//! belongs to the CLI's actual output. Timed regions are
//! [`crate::span`]'s job, not this module's.

use std::sync::OnceLock;

/// Event severity, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Very fine-grained detail.
    Trace,
    /// Diagnostic detail.
    Debug,
    /// High-level progress.
    Info,
    /// Something unexpected but recoverable.
    Warn,
    /// An operation failed.
    Error,
}

impl Level {
    /// Uppercase name, `"WARN"`-style.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "TRACE",
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        }
    }

    /// Parses a case-insensitive level name (`GEM_LOG` values).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

fn min_level() -> Level {
    static MIN: OnceLock<Level> = OnceLock::new();
    *MIN.get_or_init(|| {
        std::env::var("GEM_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Warn)
    })
}

/// Writes one event to stderr if `GEM_LOG` admits its level (macro back
/// end; the arguments are not formatted otherwise).
pub fn dispatch_event(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if level >= min_level() {
        eprintln!("[{:<5} {}] {}", level.as_str(), target, args);
    }
}

/// Emits an event at an explicit level: `event!(Level::Info, "x = {x}")`.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $($arg:tt)+) => {
        $crate::dispatch_event($lvl, module_path!(), format_args!($($arg)+))
    };
}

/// Emits an [`Level::Error`] event.
#[macro_export]
macro_rules! error {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Error, $($arg)+) };
}

/// Emits a [`Level::Warn`] event.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Warn, $($arg)+) };
}

/// Emits a [`Level::Info`] event.
#[macro_export]
macro_rules! info {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Info, $($arg)+) };
}

/// Emits a [`Level::Debug`] event.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Debug, $($arg)+) };
}

/// Emits a [`Level::Trace`] event.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Trace, $($arg)+) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error > Level::Warn);
        assert!(Level::Warn > Level::Info);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
    }
}
