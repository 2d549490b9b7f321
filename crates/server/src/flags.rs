//! One flag machinery for every command line: `upa-serverd`, and each
//! `upa-cli` command.
//!
//! A command is a [`Command`]: a table of [`Flag`] rows over the struct
//! the command line fills, the text around the table in the usage, and
//! the cross-field checks the rows cannot express. Each row is declared
//! once by [`flags!`](crate::flags!): name, value placeholder, how the
//! value lands in its field, and help. The usage is generated from the
//! table, and a printed default is the field's value in the struct's
//! `Default`.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// Parses a flag's value into its field's type.
///
/// # Errors
///
/// The type's own parse error, as a printable message.
pub fn parse<T: FromStr>(value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// One flag of a command line filling a `T`.
pub struct Flag<T> {
    /// The flag as typed, `--name`.
    pub name: &'static str,
    /// The value's placeholder in the usage; empty for a switch.
    pub value: &'static str,
    /// The flag's line in the usage.
    pub help: &'static str,
    /// Lands a value in its field.
    pub set: fn(&mut T, &str) -> Result<(), String>,
    /// The printed default: `Some` for a `value` row only.
    pub shown: fn(&T) -> Option<String>,
}

/// A flag table, as a `&'static [Flag<T>]`. A row's kind says how its
/// value lands in the field: `value` replaces it (and prints it as the
/// default), `set` replaces it without printing a default, `some` sets
/// an optional field, `push` appends to a repeatable one, `switch` turns
/// it on and takes no value.
#[macro_export]
macro_rules! flags {
    ($($name:literal $value:literal $kind:ident $($f:ident).+: $help:literal;)*) => {
        &[$($crate::flags::Flag {
            name: $name,
            value: $value,
            help: $help,
            set: $crate::flags!(@set $kind $($f).+),
            shown: $crate::flags!(@shown $kind $($f).+),
        }),*]
    };
    (@set value $($f:ident).+) => { $crate::flags!(@set set $($f).+) };
    (@set set $($f:ident).+) => { |d, v| $crate::flags::parse(v).map(|x| d.$($f).+ = x) };
    (@set some $($f:ident).+) => {
        |d, v| $crate::flags::parse(v).map(|x| d.$($f).+ = Some(x))
    };
    (@set push $($f:ident).+) => { |d, v| $crate::flags::parse(v).map(|x| d.$($f).+.push(x)) };
    (@set switch $($f:ident).+) => { |d, _| Ok(d.$($f).+ = true) };
    (@shown value $($f:ident).+) => { |d| Some(d.$($f).+.to_string()) };
    (@shown $kind:ident $($f:ident).+) => { |_| None };
}

/// A command line: its flag table and the text around it in the usage.
pub struct Command<T: 'static> {
    /// What the command does, after its name on the usage's first line.
    pub about: &'static str,
    /// The forms of the command line, each after the program name.
    pub synopsis: &'static [&'static str],
    /// A paragraph between the synopsis and the options, wrapped.
    pub detail: &'static str,
    /// Every flag, in usage order.
    pub flags: &'static [Flag<T>],
    /// Takes a bare argument into its field, or returns `false` when it
    /// has none free; a bare argument it does not take is an unknown flag.
    pub positional: fn(&mut T, &str) -> bool,
    /// The checks across fields that no one row can make.
    pub check: fn(&T) -> Result<(), String>,
}

/// Greedy word wrap of `words` into lines of at most `width` characters.
fn wrap<'a>(words: impl Iterator<Item = &'a str>, width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in words {
        match lines.last_mut() {
            Some(line) if line.chars().count() + 1 + word.chars().count() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines
}

impl<T: Default> Command<T> {
    /// The usage text, generated from the flag table; no line is wider
    /// than 76 columns.
    pub fn usage(&self, program: &str) -> String {
        const INDENT: usize = 28;
        let mut out = format!("{program} — {}\n\nUSAGE:\n", self.about);
        for form in self.synopsis {
            out.push_str(&format!("    {program} {form}\n"));
        }
        for line in wrap(self.detail.split_whitespace(), 76) {
            out.push_str(&format!("\n{line}"));
        }
        out.push_str("\n\nOPTIONS:\n");
        let defaults = T::default();
        let rows = self.flags.iter().map(|f| {
            let default = (f.shown)(&defaults).map(|d| format!("[default: {d}]"));
            (format!("{} {}", f.name, f.value), f.help, default)
        });
        for (head, text, default) in rows.chain([("--help".into(), "Show this help", None)]) {
            let words = text.split_whitespace().chain(default.as_deref());
            for (i, line) in wrap(words, 76 - INDENT).iter().enumerate() {
                let head = if i == 0 { head.as_str() } else { "" };
                out.push_str(&format!("    {head:w$}{line}\n", w = INDENT - 4));
            }
        }
        out
    }

    /// Parses a command line (without the program name); `Ok(None)` when
    /// `--help` asks for the usage.
    ///
    /// # Errors
    ///
    /// A printable message for an unknown flag, a missing or malformed
    /// value, or a failed [`Command::check`].
    pub fn parse<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Option<T>, String> {
        let mut parsed = T::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with('-') && (self.positional)(&mut parsed, &arg) {
                continue;
            }
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag '{arg}'"))?;
            let value = match flag.value {
                "" => String::new(),
                _ => args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?,
            };
            (flag.set)(&mut parsed, &value).map_err(|e| format!("bad {arg} '{value}': {e}"))?;
        }
        (self.check)(&parsed)?;
        Ok(Some(parsed))
    }

    /// Parses a command line and runs it. `--help` prints the usage on
    /// stdout and exits 0; a bad command line prints the error and the
    /// usage on stderr and exits 2; a failure of `run` prints the error
    /// and exits 1.
    pub fn main<I, F>(&self, program: &str, args: I, run: F) -> ExitCode
    where
        I: IntoIterator<Item = String>,
        F: FnOnce(T) -> Result<(), String>,
    {
        match self.parse(args) {
            Ok(None) => {
                print!("{}", self.usage(program));
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprint!("error: {msg}\n\n{}", self.usage(program));
                ExitCode::from(2)
            }
            Ok(Some(parsed)) => match run(parsed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            },
        }
    }
}
