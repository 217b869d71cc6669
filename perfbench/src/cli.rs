//! Strict command-line parsing: every flag takes exactly one value, and
//! an unknown flag, a repeated flag or a flag without its value is an
//! error. There is no output-path flag: a run writes only into the
//! benchmark's git-ignored `out/` directory. `--setup-only 1` is how a
//! run starts its extra set-up processes: such a process sets up once,
//! prints its set-up line and exits.

pub const USAGE: &str = "usage: perfbench --workload <mpc-lowdim|mpc-highdim|seq-clustered> \
--seed <u64> --seconds <s> [--trace <0|1>] [--setup-only <0|1>]";

/// Parsed, validated arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut trace, mut setup_only) = (None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            "--setup-only" => &mut setup_only,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs a value"))?;
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed takes a u64, got {seed:?}"))?,
        seconds: seconds
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
            .ok_or_else(|| format!("--seconds takes a number in (0, 3600], got {seconds:?}"))?,
        trace: flag("--trace", trace)?,
        setup_only: flag("--setup-only", setup_only)?,
    })
}

/// A `0|1` flag, off when absent.
fn flag(name: &str, value: Option<String>) -> Result<bool, String> {
    match value.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("{name} takes 0 or 1, got {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_command_line_parses() {
        let a = p(&[
            "--workload",
            "mpc-lowdim",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "mpc-lowdim");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.setup_only),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        let base = ["--workload", "w", "--seed", "1", "--seconds", "1"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            p(&v)
        };
        assert!(with(&["--trace"]).is_err(), "flag missing its value");
        assert!(
            with(&["--trace", "--trace", "1"]).is_err(),
            "value is a flag"
        );
        assert!(with(&["--bogus", "1"]).is_err(), "unknown flag");
        assert!(with(&["extra"]).is_err(), "positional argument");
        assert!(with(&["--seed", "2"]).is_err(), "repeated flag");
        assert!(with(&["--trace", "yes"]).is_err(), "bad boolean");
        assert!(with(&["--setup-only", "2"]).is_err(), "bad boolean");
        assert!(
            p(&["--workload", "w", "--seconds", "1"]).is_err(),
            "missing seed"
        );
        assert!(p(&["--workload", "w", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(p(&["--workload", "w", "--seed", "-1", "--seconds", "1"]).is_err());
    }
}
