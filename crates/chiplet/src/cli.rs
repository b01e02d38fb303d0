//! The one command-line flag reader: every binary of the workspace
//! reads its arguments through it, so the rules are the same for all:
//!
//! * `--help` or `-h` asks for the usage only in flag position: as the
//!   value of a flag (`--out -h`) or after `--` it is an ordinary
//!   argument. [`or_exit`] prints the usage on stdout and exits 0.
//! * A flag without its value (`X requires a value`), a value that does
//!   not parse (`bad X value "v"`), a zero where a count must be
//!   positive (`X must be >= 1`) and an unknown flag are errors:
//!   [`or_exit`] prints `error: …` and the usage on stderr and exits 2.
//! * A command that lists `--` among its switches passes everything
//!   after it through untouched ([`Flags::rest`]); for any other
//!   command `--` is an unknown flag.
//! * A flag given twice keeps its last value, and every value given
//!   must parse.

use std::fmt;
use std::str::FromStr;

/// Why a command line was not read.
#[derive(Debug, PartialEq, Eq)]
pub enum Error {
    /// `--help` or `-h` stood in flag position.
    Help,
    /// The command line is malformed; the message names the flag.
    Bad(String),
}

impl From<String> for Error {
    fn from(msg: String) -> Error {
        Error::Bad(msg)
    }
}

impl From<&str> for Error {
    fn from(msg: &str) -> Error {
        Error::Bad(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Help => f.write_str("help requested"),
            Error::Bad(msg) => f.write_str(msg),
        }
    }
}

/// A command line read against its flag set: the flags given, in
/// order, and what followed `--`.
#[derive(Debug)]
pub struct Flags<'a> {
    given: Vec<(&'a str, Option<&'a str>)>,
    rest: &'a [String],
}

/// Reads `args` (without the program name). `switches` take no value;
/// `values` take the next argument, whatever it looks like. Listing
/// `--` among the switches makes everything after it [`Flags::rest`].
///
/// # Errors
///
/// [`Error::Help`] for `--help`/`-h` in flag position, and
/// [`Error::Bad`] for an unknown flag or a value flag at the end of
/// `args`, whichever comes first.
pub fn read<'a>(
    args: &'a [String],
    switches: &[&str],
    values: &[&str],
) -> Result<Flags<'a>, Error> {
    let mut flags = Flags {
        given: Vec::new(),
        rest: &[],
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if flag == "--help" || flag == "-h" {
            return Err(Error::Help);
        } else if flag == "--" && switches.contains(&flag) {
            flags.rest = it.as_slice();
            break;
        } else if switches.contains(&flag) {
            flags.given.push((flag, None));
        } else if values.contains(&flag) {
            let value = it.next().ok_or(format!("{flag} requires a value"))?;
            flags.given.push((flag, Some(value)));
        } else {
            return Err(Error::Bad(format!("unknown flag {flag:?}")));
        }
    }
    Ok(flags)
}

impl<'a> Flags<'a> {
    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|&(f, _)| f == flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.given
            .iter()
            .rev()
            .find_map(|&(f, v)| if f == flag { v } else { None })
    }

    /// Every value given for `flag` run through `parse`; the last one's
    /// result.
    ///
    /// # Errors
    ///
    /// The first error `parse` returns.
    pub fn parse_with<T>(
        &self,
        flag: &str,
        parse: impl Fn(&'a str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for &(_, v) in self.given.iter().filter(|&&(f, _)| f == flag) {
            last = v.map(&parse).transpose()?;
        }
        Ok(last)
    }

    /// The value of `flag` parsed as a `T`.
    ///
    /// # Errors
    ///
    /// `bad X value "v"` when a value given does not parse.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.parse_with(flag, |v| {
            v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
        })
    }

    /// The value of `flag` parsed as a count that must be at least one
    /// (`T::default()` is its zero).
    ///
    /// # Errors
    ///
    /// As [`Flags::get`], and `X must be >= 1` for a zero.
    pub fn positive<T: FromStr + Default + PartialEq>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, String> {
        self.parse_with(flag, |v| match v.parse() {
            Err(_) => Err(format!("bad {flag} value {v:?}")),
            Ok(n) if n == T::default() => Err(format!("{flag} must be >= 1")),
            Ok(n) => Ok(n),
        })
    }

    /// The arguments after `--`, untouched (empty without `--`).
    pub fn rest(&self) -> &'a [String] {
        self.rest
    }
}

/// The flag naming a worker's shard, `--shard i/N`.
pub const SHARD_FLAG: &str = "--shard";
/// The flag naming the directory a worker keeps its state files in.
pub const CHECKPOINT_FLAG: &str = "--checkpoint";
/// The flag making a worker resume from its state files.
pub const RESUME_FLAG: &str = "--resume";

/// The flags a coordinator owns on a worker's command line: the three
/// `dqec_sweep::shard::worker_args` writes, and `--out`, because a
/// shard's output is its state file. Pass-through arguments must not
/// contain them; `dqec_dist run` and the serve agent's shard requests
/// both refuse them.
pub const COORDINATOR_FLAGS: [&str; 4] = [SHARD_FLAG, CHECKPOINT_FLAG, RESUME_FLAG, "--out"];

/// This process's arguments without the program name.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// `read`'s value, or the end of the process: for [`Error::Help`] the
/// usage on stdout and exit code 0, for any other error `error: …` and
/// the usage on stderr and exit code 2.
pub fn or_exit<T, E: Into<Error>>(usage: &str, read: Result<T, E>) -> T {
    match read.map_err(Into::into) {
        Ok(value) => value,
        Err(Error::Help) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(Error::Bad(msg)) => {
            eprintln!("error: {msg}\n{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const SWITCHES: &[&str] = &["--json", "--"];
    const VALUES: &[&str] = &["--shots", "--out"];

    fn bad(list: &[&str]) -> String {
        let args = args(list);
        let flags = read(&args, SWITCHES, VALUES).and_then(|f| {
            f.positive::<usize>("--shots")?;
            Ok(())
        });
        match flags {
            Err(Error::Bad(msg)) => msg,
            other => panic!("{list:?} read as {other:?}"),
        }
    }

    #[test]
    fn malformed_command_lines_name_the_flag() {
        assert_eq!(bad(&["--shots"]), "--shots requires a value");
        assert_eq!(bad(&["--shots", "many"]), "bad --shots value \"many\"");
        assert_eq!(bad(&["--shots", "-3"]), "bad --shots value \"-3\"");
        assert_eq!(bad(&["--shots", "0"]), "--shots must be >= 1");
        assert_eq!(bad(&["--shot", "500"]), "unknown flag \"--shot\"");
        // Every value given must parse, not only the last.
        assert_eq!(
            bad(&["--shots", "x", "--shots", "5"]),
            "bad --shots value \"x\""
        );
        // `--` is a flag like any other for a command without pass-through.
        let none = args(&["--", "x"]);
        assert_eq!(
            read(&none, &[], &[]).unwrap_err(),
            Error::Bad("unknown flag \"--\"".into())
        );
    }

    #[test]
    fn help_counts_only_in_flag_position() {
        for list in [&["--help"][..], &["-h"], &["--json", "-h", "--bogus"]] {
            assert_eq!(
                read(&args(list), SWITCHES, VALUES).unwrap_err(),
                Error::Help
            );
        }
        // As a value, `-h` is the value.
        let list = args(&["--out", "-h"]);
        let flags = read(&list, SWITCHES, VALUES).unwrap();
        assert_eq!(flags.value("--out"), Some("-h"));
        assert!(flags.rest().is_empty());
        // An error before it in flag position wins.
        assert!(matches!(
            read(&args(&["--bogus", "--help"]), SWITCHES, VALUES),
            Err(Error::Bad(_))
        ));
    }

    #[test]
    fn everything_after_the_separator_passes_through() {
        let list = args(&["--json", "--", "--help", "--shots", "-h", "--"]);
        let flags = read(&list, SWITCHES, VALUES).unwrap();
        assert!(flags.has("--json"));
        assert_eq!(flags.rest(), &list[2..]);
        assert_eq!(flags.get::<usize>("--shots").unwrap(), None);
    }

    #[test]
    fn the_last_value_wins() {
        let list = args(&["--shots", "5", "--out", "a", "--shots", "7", "--out", "b"]);
        let flags = read(&list, SWITCHES, VALUES).unwrap();
        assert_eq!(flags.get::<u32>("--shots").unwrap(), Some(7));
        assert_eq!(flags.value("--out"), Some("b"));
        assert!(!flags.has("--json"));
    }
}
