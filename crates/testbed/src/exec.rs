//! Command execution over the configuration interface.
//!
//! §4.2: *"For a typical Linux server, we use SSH as the configuration
//! interface."* Experiment scripts are sequences of command lines; the
//! testbed tokenizes them shell-style and dispatches to a command registry
//! (builtins live in [`crate::testbed`]; experiment-specific commands like
//! `moongen` are registered by higher layers).
//!
//! A command may hand back a [`Deferred`] output: its exit code and
//! virtual duration are settled when it returns, but its text and files
//! are still being produced elsewhere (a packet simulation on a worker
//! thread). The testbed's timeline never reads them, so the controller
//! can run ahead and collect them later.

use pos_simkernel::SimDuration;
use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Outcome of one executed command.
#[derive(Debug, Clone)]
pub struct CommandResult {
    /// Process exit code; 0 is success.
    pub exit_code: i32,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Virtual time the command consumed.
    pub duration: SimDuration,
    /// Standard output still being produced, which follows `stdout`;
    /// [`CommandResult::resolved`] waits for it.
    pub deferred: Option<Deferred>,
}

impl CommandResult {
    /// A successful result with the given stdout.
    pub fn ok(stdout: impl Into<String>) -> CommandResult {
        CommandResult {
            exit_code: 0,
            stdout: stdout.into(),
            stderr: String::new(),
            duration: SimDuration::from_millis(1),
            deferred: None,
        }
    }

    /// A successful result whose stdout `output` is still producing.
    pub fn ok_deferred(output: Deferred) -> CommandResult {
        CommandResult {
            deferred: Some(output),
            ..CommandResult::ok("")
        }
    }

    /// A failure with the given exit code and stderr.
    pub fn fail(exit_code: i32, stderr: impl Into<String>) -> CommandResult {
        CommandResult {
            exit_code,
            stdout: String::new(),
            stderr: stderr.into(),
            duration: SimDuration::from_millis(1),
            deferred: None,
        }
    }

    /// The result with its deferred output, if any, waited for and
    /// appended to `stdout`.
    pub fn resolved(mut self) -> CommandResult {
        if let Some(output) = self.deferred.take() {
            self.stdout.push_str(&output.ready().stdout);
        }
        self
    }

    /// Sets the consumed duration.
    pub fn with_duration(mut self, d: SimDuration) -> CommandResult {
        self.duration = d;
        self
    }

    /// True on exit code zero.
    pub fn success(&self) -> bool {
        self.exit_code == 0
    }
}

/// What a deferred command leaves once it has run: its standard output
/// and the files it writes on its host, by path.
#[derive(Debug, Default)]
pub struct DeferredOutput {
    /// The command's standard output.
    pub stdout: String,
    /// Files for the host's filesystem, by absolute path.
    pub files: BTreeMap<String, Vec<u8>>,
}

/// A handle on a [`DeferredOutput`] still being produced. The command's
/// result and its host's pending files share one handle; the first read
/// waits for the producer, later reads see the same output. Dropping
/// every handle before the first read drops the producer unread.
#[derive(Clone)]
pub struct Deferred(Rc<RefCell<Slot>>);

struct Slot {
    wait: Option<Box<dyn FnOnce() -> DeferredOutput>>,
    output: DeferredOutput,
}

impl Deferred {
    /// A handle whose output `wait` produces (blocking) on first read.
    pub fn new(wait: impl FnOnce() -> DeferredOutput + 'static) -> Deferred {
        Deferred(Rc::new(RefCell::new(Slot {
            wait: Some(Box::new(wait)),
            output: DeferredOutput::default(),
        })))
    }

    /// The output, waited for on first use.
    fn ready(&self) -> RefMut<'_, DeferredOutput> {
        let mut slot = self.0.borrow_mut();
        if let Some(wait) = slot.wait.take() {
            slot.output = wait();
        }
        RefMut::map(slot, |slot| &mut slot.output)
    }

    /// Moves the file at `path` out of the output, waiting for it first.
    pub fn take_file(&self, path: &str) -> Option<Vec<u8>> {
        self.ready().files.remove(path)
    }
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.0.try_borrow() {
            Ok(slot) if slot.wait.is_some() => "pending",
            Ok(_) => "ready",
            Err(_) => "resolving",
        };
        write!(f, "Deferred({state})")
    }
}

/// Errors raised by the execution layer itself (not by the command).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The host does not exist in the testbed.
    UnknownHost {
        /// Requested host name.
        host: String,
    },
    /// The host is not reachable (off, booting, or crashed) — SSH times out.
    HostUnreachable {
        /// The host.
        host: String,
        /// Its power state, stringified.
        state: String,
    },
    /// The command line was empty or unparseable.
    BadCommandLine {
        /// What was wrong.
        reason: String,
    },
    /// No handler is registered for the command.
    CommandNotFound {
        /// The command name.
        command: String,
    },
    /// The command exceeded the controller's watchdog budget and was
    /// killed. The session is gone; the host may or may not be healthy.
    Timeout {
        /// The host.
        host: String,
        /// The command line that hung.
        command: String,
        /// The watchdog budget that was exhausted.
        after: SimDuration,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownHost { host } => write!(f, "unknown host {host}"),
            ExecError::HostUnreachable { host, state } => {
                write!(f, "host {host} unreachable (state: {state})")
            }
            ExecError::BadCommandLine { reason } => write!(f, "bad command line: {reason}"),
            ExecError::CommandNotFound { command } => {
                write!(f, "{command}: command not found")
            }
            ExecError::Timeout {
                host,
                command,
                after,
            } => {
                write!(f, "command `{command}` on {host} timed out after {after}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Splits a command line into tokens, honoring single and double quotes
/// and backslash escapes outside single quotes (a small, predictable
/// subset of POSIX shell word splitting — no globbing, no expansion).
pub fn split_command_line(line: &str) -> Result<Vec<String>, ExecError> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_token = false;
    let mut chars = line.chars().peekable();

    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                in_token = true;
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(ch) => current.push(ch),
                        None => {
                            return Err(ExecError::BadCommandLine {
                                reason: "unterminated single quote".into(),
                            })
                        }
                    }
                }
            }
            '"' => {
                in_token = true;
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(e) => current.push(e),
                            None => {
                                return Err(ExecError::BadCommandLine {
                                    reason: "trailing backslash in double quote".into(),
                                })
                            }
                        },
                        Some(ch) => current.push(ch),
                        None => {
                            return Err(ExecError::BadCommandLine {
                                reason: "unterminated double quote".into(),
                            })
                        }
                    }
                }
            }
            '\\' => {
                in_token = true;
                match chars.next() {
                    Some(e) => current.push(e),
                    None => {
                        return Err(ExecError::BadCommandLine {
                            reason: "trailing backslash".into(),
                        })
                    }
                }
            }
            c if c.is_whitespace() => {
                if in_token {
                    tokens.push(std::mem::take(&mut current));
                    in_token = false;
                }
            }
            c => {
                in_token = true;
                current.push(c);
            }
        }
    }
    if in_token {
        tokens.push(current);
    }
    if tokens.is_empty() {
        return Err(ExecError::BadCommandLine {
            reason: "empty command".into(),
        });
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_simple_words() {
        assert_eq!(
            split_command_line("ip addr add 10.0.0.2/24 dev eno1").unwrap(),
            vec!["ip", "addr", "add", "10.0.0.2/24", "dev", "eno1"]
        );
    }

    #[test]
    fn quotes_group_words() {
        assert_eq!(
            split_command_line(r#"echo "hello world" 'single quoted'"#).unwrap(),
            vec!["echo", "hello world", "single quoted"]
        );
    }

    #[test]
    fn escapes_work_outside_single_quotes() {
        assert_eq!(
            split_command_line(r"echo a\ b").unwrap(),
            vec!["echo", "a b"]
        );
        assert_eq!(
            split_command_line(r#"echo "a\"b""#).unwrap(),
            vec!["echo", "a\"b"]
        );
    }

    #[test]
    fn empty_quotes_produce_empty_token() {
        assert_eq!(split_command_line(r#"cmd """#).unwrap(), vec!["cmd", ""]);
    }

    #[test]
    fn unterminated_quotes_rejected() {
        assert!(split_command_line("echo 'oops").is_err());
        assert!(split_command_line("echo \"oops").is_err());
        assert!(split_command_line("echo oops\\").is_err());
    }

    #[test]
    fn empty_line_rejected() {
        assert!(split_command_line("").is_err());
        assert!(split_command_line("   \t ").is_err());
    }

    #[test]
    fn extra_whitespace_collapsed() {
        assert_eq!(
            split_command_line("  a   b\t\tc  ").unwrap(),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn command_result_helpers() {
        let r = CommandResult::ok("out");
        assert!(r.success());
        assert_eq!(r.stdout, "out");
        let r = CommandResult::fail(2, "bad").with_duration(SimDuration::from_secs(1));
        assert!(!r.success());
        assert_eq!(r.duration, SimDuration::from_secs(1));
    }

    proptest! {
        /// Tokenizing never panics on arbitrary input.
        #[test]
        fn prop_tokenizer_total(line in ".{0,200}") {
            let _ = split_command_line(&line);
        }

        /// Round-trip: quoting each token with single quotes re-tokenizes
        /// to the same tokens (for tokens without single quotes).
        #[test]
        fn prop_quote_roundtrip(tokens in proptest::collection::vec("[a-zA-Z0-9 _./-]{1,10}", 1..8)) {
            let line = tokens
                .iter()
                .map(|t| format!("'{t}'"))
                .collect::<Vec<_>>()
                .join(" ");
            prop_assert_eq!(split_command_line(&line).unwrap(), tokens);
        }
    }
}
