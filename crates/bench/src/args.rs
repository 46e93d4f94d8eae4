//! The argument rules `figures`, `sim` and `sttcache-check` share.
//!
//! Every input is honoured or refused by name, never silently replaced:
//! a flag value that is missing or does not parse exits 2 naming the
//! flag and the value, a flag that takes a value may be given once (a
//! second exits 2 naming it), and two flags that set the same thing exit
//! 2 naming both, as `--serial` and `--jobs` do.

use crate::parallel;
use std::iter::{Peekable, Skip};

/// A binary's arguments, taken one at a time, and its usage line.
#[derive(Debug)]
pub struct Args {
    args: Peekable<Skip<std::env::Args>>,
    /// Prints the binary's usage line and exits 2.
    usage: fn() -> !,
    /// The flags whose value has been taken.
    valued: Vec<String>,
}

impl Args {
    /// The process's arguments after the program name; `usage` prints
    /// the binary's usage line and exits 2.
    pub fn from_env(usage: fn() -> !) -> Self {
        Args {
            args: std::env::args().skip(1).peekable(),
            usage,
            valued: Vec::new(),
        }
    }

    /// Takes the next argument, or `None` after the last.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The next argument, without taking it.
    pub fn peek(&mut self) -> Option<&str> {
        self.args.peek().map(String::as_str)
    }

    /// Takes the value after `flag`. A flag may carry one value: a second
    /// `flag`, or a missing value, exits 2 naming it.
    pub fn value(&mut self, flag: &str) -> String {
        if self.given(flag) {
            self.reject(&format!("{flag} given twice: give it once"));
        }
        self.valued.push(flag.to_string());
        self.repeated_value(flag)
    }

    /// Takes the value after `flag`, which may repeat: the caller decides
    /// what a second one means. A missing value exits 2 naming `flag`.
    pub fn repeated_value(&mut self, flag: &str) -> String {
        self.next_arg()
            .unwrap_or_else(|| self.refuse(flag, None, ""))
    }

    /// Whether [`Args::value`] has taken a value of `flag`.
    pub fn given(&self, flag: &str) -> bool {
        self.valued.iter().any(|f| f == flag)
    }

    /// `value` of `flag` as a count of at least one.
    pub fn positive(&self, flag: &str, value: &str) -> usize {
        value
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| self.refuse(flag, Some(value), "a positive integer"))
    }

    /// Refuses `flag`'s value (`None` when the value is missing), naming
    /// both before the usage line.
    pub fn refuse(&self, flag: &str, value: Option<&str>, expected: &str) -> ! {
        match value {
            Some(value) => eprintln!("{flag}: '{value}' is not {expected}"),
            None => eprintln!("{flag}: missing value"),
        }
        (self.usage)()
    }

    /// Prints `why`, then the usage line, and exits 2.
    pub fn reject(&self, why: &str) -> ! {
        eprintln!("{why}");
        (self.usage)()
    }

    /// Applies the worker-count flags to every sweep this process runs:
    /// `--serial` forces one worker and `--jobs N` pins `N`; both
    /// together exit 2 naming both.
    pub fn set_workers(&self, serial: bool, jobs: Option<usize>) {
        match (serial, jobs) {
            (true, Some(_)) => {
                self.reject("--serial and --jobs both set the worker count: give one")
            }
            (true, None) => parallel::set_jobs(1),
            (false, Some(n)) => parallel::set_jobs(n),
            (false, None) => {}
        }
    }
}
