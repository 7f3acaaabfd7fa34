//! Minimal `--flag value` / `--flag=value` argument parsing (no external
//! parser crates; the allowed dependency set has none, and the surface is
//! small).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--key=value`
/// options.
#[derive(Debug)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    opts: HashMap<String, String>,
}

/// Argument errors with enough context for a usage message.
#[derive(Debug, PartialEq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` had no value.
    MissingValue(String),
    /// A positional argument appeared where a flag was expected.
    Unexpected(String),
    /// The same `--flag` appeared twice (the CLI refuses to guess which
    /// one was meant instead of silently taking the last).
    Duplicate(String),
    /// A `--flag` the subcommand does not read (a typo such as
    /// `--slover` would otherwise silently run the default).
    Unknown(String),
    /// A required option is absent.
    MissingOption(String),
    /// An option failed to parse.
    BadValue {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
    },
    /// A path option names something unusable (a file where a directory
    /// is needed, an unwritable location, ...). Caught at startup so the
    /// failure is a usage error, not a mid-serve surprise.
    BadPath {
        /// Option name.
        key: String,
        /// The offending path.
        path: String,
        /// Why it cannot be used.
        reason: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::MissingValue(k) => write!(f, "--{k} needs a value"),
            ArgError::Unexpected(a) => write!(f, "unexpected argument {a}"),
            ArgError::Duplicate(k) => write!(f, "--{k} given more than once"),
            ArgError::Unknown(k) => write!(f, "unknown option --{k}"),
            ArgError::MissingOption(k) => write!(f, "required option --{k} missing"),
            ArgError::BadValue { key, value } => write!(f, "--{key}: cannot parse {value:?}"),
            ArgError::BadPath { key, path, reason } => write!(f, "--{key}: {path:?} {reason}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv[1..]`; both `--key value` and `--key=value` spellings
    /// are accepted, duplicates are rejected.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Self, ArgError> {
        let mut it = argv.peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        let mut opts = HashMap::new();
        while let Some(a) = it.next() {
            let body = a
                .strip_prefix("--")
                .ok_or_else(|| ArgError::Unexpected(a.clone()))?;
            let (key, value) = match body.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => {
                    let key = body.to_string();
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(key.clone()))?;
                    (key, value)
                }
            };
            if opts.insert(key.clone(), value).is_some() {
                return Err(ArgError::Duplicate(key));
            }
        }
        Ok(Self { command, opts })
    }

    /// Refuses any given flag not named in `flags`, space-separated
    /// lists of the flags the subcommand reads; of several, the
    /// alphabetically first is named.
    pub fn allow(&self, flags: &[&str]) -> Result<(), ArgError> {
        let known = |k: &str| {
            flags
                .iter()
                .any(|list| list.split_whitespace().any(|f| f == k))
        };
        let unknown = self.opts.keys().filter(|k| !known(k));
        unknown
            .min()
            .map_or(Ok(()), |k| Err(ArgError::Unknown(k.clone())))
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.opts
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| ArgError::MissingOption(key.to_string()))
    }

    /// An optional string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.opts.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// A typed option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// A required typed option.
    pub fn parse_required<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let v = self.required(key)?;
        v.parse().map_err(|_| ArgError::BadValue {
            key: key.to_string(),
            value: v.to_string(),
        })
    }

    /// An optional strictly-positive integer option (`--threads` and
    /// friends): absent is `None`; `0` and non-numeric values are
    /// [`ArgError::BadValue`] — zero lanes is never a meaningful request,
    /// so the CLI refuses it instead of guessing.
    pub fn parse_positive(&self, key: &str) -> Result<Option<usize>, ArgError> {
        match self.opts.get(key) {
            None => Ok(None),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(ArgError::BadValue {
                    key: key.to_string(),
                    value: v.clone(),
                }),
            },
        }
    }

    /// Whether `--key` was given at all.
    pub fn has(&self, key: &str) -> bool {
        self.opts.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["solve", "--k", "3", "--rule", "ep"]).unwrap();
        assert_eq!(a.command, "solve");
        assert_eq!(a.parse_required::<usize>("k").unwrap(), 3);
        assert_eq!(a.get_or("rule", "ed"), "ep");
        assert_eq!(a.get_or("solver", "gonzalez"), "gonzalez");
    }

    #[test]
    fn parses_equals_syntax() {
        let a = parse(&["solve", "--k=3", "--rule=ep", "--out", "x.json"]).unwrap();
        assert_eq!(a.parse_required::<usize>("k").unwrap(), 3);
        assert_eq!(a.get_or("rule", "ed"), "ep");
        assert_eq!(a.required("out").unwrap(), "x.json");
        // `--key=` is an explicit empty value, not an error.
        let a = parse(&["solve", "--note="]).unwrap();
        assert_eq!(a.required("note").unwrap(), "");
        // Values may contain '=' themselves.
        let a = parse(&["solve", "--filter=a=b"]).unwrap();
        assert_eq!(a.required("filter").unwrap(), "a=b");
    }

    #[test]
    fn rejects_duplicates() {
        assert_eq!(
            parse(&["solve", "--k", "3", "--k", "4"]).unwrap_err(),
            ArgError::Duplicate("k".into())
        );
        // Mixed spellings of the same flag are still duplicates.
        assert_eq!(
            parse(&["solve", "--k=3", "--k", "4"]).unwrap_err(),
            ArgError::Duplicate("k".into())
        );
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse(&["solve", "--k"]).unwrap_err(),
            ArgError::MissingValue("k".into())
        );
        assert_eq!(
            parse(&["solve", "k", "3"]).unwrap_err(),
            ArgError::Unexpected("k".into())
        );
        let a = parse(&["solve", "--k", "x"]).unwrap();
        assert!(matches!(
            a.parse_required::<usize>("k"),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            a.required("instance"),
            Err(ArgError::MissingOption(_))
        ));
    }

    #[test]
    fn allow_names_the_first_unknown_flag() {
        let a = parse(&["solve", "--k", "3", "--slover", "grid", "--kernel=scalar"]).unwrap();
        assert_eq!(a.allow(&["k solver", "kernel slover"]), Ok(()));
        assert_eq!(
            a.allow(&["k solver"]).unwrap_err(),
            ArgError::Unknown("kernel".into())
        );
        assert_eq!(
            a.allow(&["k", "kernel"]).unwrap_err().to_string(),
            "unknown option --slover"
        );
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["generate"]).unwrap();
        assert_eq!(a.parse_or("seed", 7u64).unwrap(), 7);
        assert_eq!(a.parse_or("n", 40usize).unwrap(), 40);
    }

    #[test]
    fn bad_path_formats_with_key_path_and_reason() {
        let e = ArgError::BadPath {
            key: "data-dir".into(),
            path: "/tmp/x".into(),
            reason: "exists but is not a directory".into(),
        };
        assert_eq!(
            e.to_string(),
            "--data-dir: \"/tmp/x\" exists but is not a directory"
        );
    }

    #[test]
    fn parse_positive_rejects_zero_and_garbage() {
        let a = parse(&["solve", "--threads", "4"]).unwrap();
        assert_eq!(a.parse_positive("threads").unwrap(), Some(4));
        assert!(a.has("threads"));
        let a = parse(&["solve"]).unwrap();
        assert_eq!(a.parse_positive("threads").unwrap(), None);
        assert!(!a.has("threads"));
        for bad in ["0", "-1", "two", "1.5", ""] {
            let a = parse(&["solve", &format!("--threads={bad}")]).unwrap();
            assert_eq!(
                a.parse_positive("threads").unwrap_err(),
                ArgError::BadValue {
                    key: "threads".into(),
                    value: bad.into()
                },
                "{bad:?}"
            );
        }
    }
}
