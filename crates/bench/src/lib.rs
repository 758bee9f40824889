//! Shared harness code for the experiment binaries: argument parsing,
//! table/CSV rendering, the sweeps behind the paper's Figure 3, Table 1
//! and the ablations, and the claims `summary` checks against them.

pub mod claims;
pub mod perf;
pub mod report;
pub mod sweeps;

pub use report::{Section, Table};
pub use sweeps::{doctor_cell, Row};

/// Common command-line options for experiment binaries.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Scale factor on the work (`--quick` = 0.1 for smoke runs): the
    /// sweeps scale their number of calls ([`RunArgs::calls`]), the
    /// reference cell and the perf suite their iteration counts
    /// ([`RunArgs::scaled`]).
    pub scale: f64,
    /// Emit CSV after the human-readable table.
    pub csv: bool,
    /// Write a Chrome `trace_event` JSON export of the bin's instrumented
    /// cell to this path.
    pub trace_out: Option<String>,
    /// Write a plain-text metrics dump of the bin's instrumented cell to
    /// this path.
    pub metrics_out: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            seeds: vec![1, 2, 3],
            scale: 1.0,
            csv: true,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// The flags [`RunArgs::parse_from`] accepts.
const USAGE: &str =
    "[--quick] [--scale F] [--seeds N] [--no-csv] [--trace-out PATH] [--metrics-out PATH]";

/// Report a bad command line on stderr and exit with status 2. `extra`
/// names the calling binary's own flags ahead of the shared ones.
pub fn usage_exit(err: &str, extra: &str) -> ! {
    let arg0 = std::env::args().next().unwrap_or_default();
    let bin = arg0.rsplit('/').next().unwrap_or(&arg0);
    eprintln!("{bin}: {err}\nusage: {bin} {extra}{USAGE}");
    std::process::exit(2)
}

impl RunArgs {
    /// Parse from `std::env::args`; a bad argument list prints usage and
    /// exits with status 2.
    pub fn parse() -> RunArgs {
        RunArgs::parse_from(std::env::args().skip(1).collect())
            .unwrap_or_else(|e| usage_exit(&e, ""))
    }

    /// Parse from an explicit argument list (bins with extra flags strip
    /// theirs first and forward the rest here).
    ///
    /// # Errors
    /// On an unknown flag, a flag missing its value, a malformed number,
    /// or `--seeds 0`.
    pub fn parse_from(list: Vec<String>) -> Result<RunArgs, String> {
        let mut out = RunArgs::default();
        let mut args = list.into_iter();
        while let Some(a) = args.next() {
            let mut value = |what: &str| args.next().ok_or(format!("{a} takes {what}"));
            match a.as_str() {
                "--quick" => out.scale = 0.1,
                "--scale" => {
                    let v = value("a number")?;
                    out.scale = v
                        .parse()
                        .map_err(|_| format!("--scale takes a number, not {v:?}"))?;
                }
                "--seeds" => {
                    let v = value("a count")?;
                    let n: u64 = v
                        .parse()
                        .map_err(|_| format!("--seeds takes a count, not {v:?}"))?;
                    if n == 0 {
                        return Err("--seeds takes a count of at least 1".into());
                    }
                    out.seeds = (1..=n).collect();
                }
                "--no-csv" => out.csv = false,
                "--trace-out" => out.trace_out = Some(value("a path")?),
                "--metrics-out" => out.metrics_out = Some(value("a path")?),
                _ => return Err(format!("unknown argument {a:?}")),
            }
        }
        Ok(out)
    }

    /// The seed of single-run cells (the reference cell, the perf suite).
    pub(crate) fn first_seed(&self) -> u64 {
        self.seeds.first().copied().unwrap_or(1)
    }

    /// Scale an iteration count.
    pub fn scaled(&self, iters: u64) -> u64 {
        ((iters as f64 * self.scale) as u64).max(100)
    }

    /// Scale a number of calls (a sweep's manager iterations), keeping
    /// at least one: the calls stay as long as at full scale.
    pub fn calls(&self, calls: u64) -> u64 {
        ((calls as f64 * self.scale) as u64).max(1)
    }

    /// Write already-rendered export payloads to whichever paths were
    /// requested on the command line.
    ///
    /// # Errors
    /// If an export file cannot be written.
    pub fn write_export_files(&self, trace_json: &str, metrics_text: &str) -> std::io::Result<()> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, trace_json)?;
            eprintln!("wrote trace export to {path}");
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, metrics_text)?;
            eprintln!("wrote metrics export to {path}");
        }
        Ok(())
    }
}

/// Print flight-recorder post-mortems to stderr ahead of a failing exit,
/// so a chaos or export failure is diagnosable from the job log alone.
pub fn flush_post_mortems(label: &str, dumps: &str) {
    if dumps.is_empty() {
        eprintln!("{label}: flight recorder captured no post-mortems");
    } else {
        eprintln!("{label}: flight recorder post-mortems:\n{dumps}");
    }
}

#[cfg(test)]
mod tests {
    use super::RunArgs;

    fn parse(list: &[&str]) -> Result<RunArgs, String> {
        RunArgs::parse_from(list.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn quick_with_two_seeds() {
        let args = parse(&["--quick", "--seeds", "2"]).expect("valid flags");
        assert_eq!((args.seeds, args.scale), (vec![1, 2], 0.1));
    }

    #[test]
    fn a_zero_or_malformed_count_is_rejected() {
        for bad in [
            ["--seeds", "0"],
            ["--seeds", "two"],
            ["--seeds", "-1"],
            ["--scale", "x"],
        ] {
            assert!(parse(&bad).is_err_and(|e| e.starts_with(bad[0])), "{bad:?}");
        }
    }

    #[test]
    fn a_flag_missing_its_value_is_rejected() {
        for flag in ["--seeds", "--scale", "--trace-out", "--metrics-out"] {
            let takes = format!("{flag} takes ");
            assert!(parse(&["--quick", flag]).is_err_and(|e| e.starts_with(&takes)));
        }
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        let err = parse(&["--seed", "7"]).err();
        assert_eq!(err.as_deref(), Some("unknown argument \"--seed\""));
    }
}
