//! Structured, deterministic sweep logging.
//!
//! The resilient pipeline used to handle retries, budget trips, and
//! validation failures *silently*: the information surfaced only in the
//! final report, long after the sweep had moved on. This module gives
//! the suite a leveled logger with two properties the rest of the
//! codebase already demands of every artifact:
//!
//! * **deterministic ordering** — a parallel sweep's workers interleave
//!   arbitrarily, so records emitted while a [`Capture`] is installed
//!   are buffered per run and flushed by the scheduler in canonical
//!   task order after reassembly. A `--jobs 8` sweep logs the same
//!   lines in the same order as a serial one;
//! * **clean separation from artifacts** — records go to stderr, never
//!   stdout, so CI byte-comparisons of emitted JSON stay valid with
//!   logging enabled.
//!
//! Verbosity is controlled by the `ALBERTA_LOG` environment variable
//! (`off|error|warn|info|debug`, default `warn`); like `ALBERTA_JOBS`,
//! a set-but-unparseable value is a loud configuration error rather
//! than a silently applied default. Messages are built lazily — the
//! formatting closure only runs when the record is actually kept.

use std::cell::RefCell;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use crate::json::{req, DecodeError, Fields, FromJson, ToJson, Value};

/// Severity of a [`LogRecord`], ordered from most to least severe.
/// A level also acts as a filter: `Warn` keeps `Error` and `Warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogLevel {
    /// Nothing is logged.
    Off,
    /// Unrecoverable problems (a run lost for good).
    Error,
    /// Degradations the sweep survived: retries, budget trips,
    /// validation failures.
    Warn,
    /// Sweep-level progress.
    Info,
    /// Per-run details.
    Debug,
}

impl LogLevel {
    /// All accepted `ALBERTA_LOG` spellings, in severity order.
    pub const NAMES: [&'static str; 5] = ["off", "error", "warn", "info", "debug"];

    /// Parses an `ALBERTA_LOG` value.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted values when `s` is not one
    /// of them.
    pub fn parse(s: &str) -> Result<LogLevel, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(LogLevel::Off),
            "error" => Ok(LogLevel::Error),
            "warn" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            _ => Err(format!(
                "ALBERTA_LOG must be one of {}, got {s:?}",
                LogLevel::NAMES.join("|")
            )),
        }
    }

    /// The level requested by the `ALBERTA_LOG` environment variable:
    /// `None` when unset or empty.
    ///
    /// # Errors
    ///
    /// A set-but-unparseable value is a configuration error, reported
    /// rather than silently mapped to a default.
    pub fn from_env() -> Result<Option<LogLevel>, String> {
        match std::env::var("ALBERTA_LOG") {
            Err(_) => Ok(None),
            Ok(v) if v.trim().is_empty() => Ok(None),
            Ok(v) => LogLevel::parse(&v).map(Some),
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(LogLevel::NAMES[*self as usize])
    }
}

/// One buffered log line. Records carry no timestamps: two repetitions
/// of the same sweep produce byte-identical flushed output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Severity.
    pub level: LogLevel,
    /// Component that emitted the record (e.g. `suite`, `run`).
    pub target: &'static str,
    /// The formatted message.
    pub message: String,
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.level, self.target, self.message)
    }
}

/// The process-wide maximum level, resolved from `ALBERTA_LOG` on first
/// use and cached. Defaults to [`LogLevel::Warn`] when the variable is
/// unset.
///
/// # Panics
///
/// Panics on an unparseable `ALBERTA_LOG` value — a configuration error
/// must not be silently ignored.
pub fn max_level() -> LogLevel {
    const UNSET: u8 = u8::MAX;
    static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
    let cached = LEVEL.load(Ordering::Relaxed);
    if cached != UNSET {
        return level_from_u8(cached);
    }
    let level = match LogLevel::from_env() {
        Ok(level) => level.unwrap_or(LogLevel::Warn),
        Err(msg) => panic!("{msg}"),
    };
    LEVEL.store(level as u8, Ordering::Relaxed);
    level
}

fn level_from_u8(v: u8) -> LogLevel {
    match v {
        0 => LogLevel::Off,
        1 => LogLevel::Error,
        2 => LogLevel::Warn,
        3 => LogLevel::Info,
        _ => LogLevel::Debug,
    }
}

struct CaptureState {
    level: LogLevel,
    records: Vec<LogRecord>,
}

thread_local! {
    static CAPTURE: RefCell<Option<CaptureState>> = const { RefCell::new(None) };
}

/// Whether a record at `level` would currently be kept on this thread —
/// against the installed [`Capture`]'s level if one is active, against
/// [`max_level`] otherwise. Use to skip expensive diagnostics wholesale.
pub fn enabled(level: LogLevel) -> bool {
    level != LogLevel::Off
        && CAPTURE.with(|c| match &*c.borrow() {
            Some(state) => level <= state.level,
            None => level <= max_level(),
        })
}

/// Emits a record at `level` from component `target`. The message
/// closure only runs when the record is kept. Inside a [`Capture`] the
/// record is buffered; otherwise it is written to stderr immediately.
pub fn emit(level: LogLevel, target: &'static str, message: impl FnOnce() -> String) {
    if !enabled(level) {
        return;
    }
    let record = LogRecord {
        level,
        target,
        message: message(),
    };
    let uncaptured = CAPTURE.with(|c| {
        let mut slot = c.borrow_mut();
        match &mut *slot {
            Some(state) => {
                state.records.push(record.clone());
                false
            }
            None => true,
        }
    });
    if uncaptured {
        flush(std::slice::from_ref(&record));
    }
}

/// Writes records to stderr, one line each, in the given order.
pub fn flush(records: &[LogRecord]) {
    if records.is_empty() {
        return;
    }
    let stderr = std::io::stderr();
    let mut out = stderr.lock();
    for record in records {
        // Logging must never take the sweep down; a closed stderr is
        // the reader's choice.
        let _ = writeln!(out, "{record}");
    }
}

/// Buffers this thread's log records until dropped. The execution layer
/// installs one per run so parallel workers never interleave lines, and
/// flushes the collected buffers in canonical task order.
///
/// Captures do not nest: installing a second one on the same thread
/// panics, because the inner capture would silently steal the outer
/// run's records.
#[derive(Debug)]
pub struct Capture(());

impl Capture {
    /// Starts capturing records up to `level` on the current thread.
    ///
    /// # Panics
    ///
    /// Panics if a capture is already installed on this thread.
    pub fn install(level: LogLevel) -> Capture {
        CAPTURE.with(|c| {
            let mut slot = c.borrow_mut();
            assert!(slot.is_none(), "log captures do not nest");
            *slot = Some(CaptureState {
                level,
                records: Vec::new(),
            });
        });
        Capture(())
    }

    /// Stops capturing and returns the buffered records in emission
    /// order.
    pub fn finish(self) -> Vec<LogRecord> {
        CAPTURE.with(|c| {
            c.borrow_mut()
                .take()
                .expect("capture installed by Capture::install")
                .records
        })
        // `self` drops here; its Drop sees the slot already empty.
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        // A panic mid-run unwinds through the guard: discard the
        // buffer so the thread is clean for its next task.
        CAPTURE.with(|c| c.borrow_mut().take());
    }
}

/// Emits a [`LogLevel::Error`] record.
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit($crate::log::LogLevel::Error, $target, || format!($($arg)+))
    };
}

/// Emits a [`LogLevel::Warn`] record.
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit($crate::log::LogLevel::Warn, $target, || format!($($arg)+))
    };
}

/// Emits a [`LogLevel::Info`] record.
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit($crate::log::LogLevel::Info, $target, || format!($($arg)+))
    };
}

/// Emits a [`LogLevel::Debug`] record.
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit($crate::log::LogLevel::Debug, $target, || format!($($arg)+))
    };
}

impl ToJson for LogRecord {
    fn to_value(&self) -> Value {
        Fields::new()
            .put("level", &self.level.to_string())
            .put("target", self.target)
            .put("message", &self.message)
            .build()
    }
}

impl FromJson for LogRecord {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(LogRecord {
            level: LogLevel::parse(&req::<String>(value, "level")?)
                .map_err(|e| DecodeError::new(e).within("level"))?,
            target: intern_target(&req::<String>(value, "target")?),
            message: req(value, "message")?,
        })
    }
}

/// Interns a log-target name back to `&'static str`. Known targets map
/// to their static literals; novel ones are leaked once into a global
/// cache — the set of targets is a small fixed vocabulary, so the leak
/// is bounded.
pub(crate) fn intern_target(name: &str) -> &'static str {
    const KNOWN: [&str; 4] = ["run", "suite", "supervisor", "worker"];
    if let Some(known) = KNOWN.iter().find(|k| **k == name) {
        return known;
    }
    static CACHE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(hit) = cache.iter().find(|t| **t == name) {
        return hit;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    cache.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(LogLevel::parse("warn"), Ok(LogLevel::Warn));
        assert_eq!(LogLevel::parse(" DEBUG "), Ok(LogLevel::Debug));
        assert!(LogLevel::parse("verbose").is_err());
        assert!(LogLevel::Off < LogLevel::Error);
        assert!(LogLevel::Warn < LogLevel::Debug);
        for (i, name) in LogLevel::NAMES.iter().enumerate() {
            assert_eq!(LogLevel::parse(name).unwrap() as usize, i);
        }
    }

    #[test]
    fn capture_buffers_up_to_its_level() {
        let capture = Capture::install(LogLevel::Warn);
        log_error!("t", "e{}", 1);
        log_warn!("t", "w");
        log_info!("t", "dropped");
        log_debug!("t", "dropped");
        let records = capture.finish();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].level, LogLevel::Error);
        assert_eq!(records[0].message, "e1");
        assert_eq!(records[1].level, LogLevel::Warn);
        assert_eq!(records[0].to_string(), "[error] t: e1");
    }

    #[test]
    fn capture_with_off_keeps_nothing() {
        let capture = Capture::install(LogLevel::Off);
        assert!(!enabled(LogLevel::Error));
        log_error!("t", "dropped");
        assert!(capture.finish().is_empty());
    }

    #[test]
    fn lazy_message_not_built_when_filtered() {
        let capture = Capture::install(LogLevel::Error);
        let mut built = false;
        emit(LogLevel::Debug, "t", || {
            built = true;
            String::new()
        });
        assert!(!built, "filtered record must not format its message");
        assert!(capture.finish().is_empty());
    }

    #[test]
    fn dropped_capture_leaves_thread_clean() {
        {
            let _capture = Capture::install(LogLevel::Debug);
            log_debug!("t", "lost with the capture");
        }
        // A new capture starts empty.
        let capture = Capture::install(LogLevel::Debug);
        assert!(capture.finish().is_empty());
    }

    #[test]
    fn captures_are_per_thread() {
        let capture = Capture::install(LogLevel::Debug);
        std::thread::scope(|s| {
            s.spawn(|| {
                let inner = Capture::install(LogLevel::Debug);
                log_info!("t", "other thread");
                assert_eq!(inner.finish().len(), 1);
            });
        });
        assert!(capture.finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_captures_panic() {
        let _outer = Capture::install(LogLevel::Warn);
        let _inner = Capture::install(LogLevel::Warn);
    }
}
