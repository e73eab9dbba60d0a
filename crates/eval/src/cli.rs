//! The flags the reproduction binaries share.
//!
//! `run_all` (after its section names) and `autotune` accept:
//!
//! ```text
//! --scale <N>    divide Table III matrix sizes by N (default 100)
//! --queries <N>  queries averaged per measurement (default 5)
//! --trials <N>   Monte Carlo trials for Table I (default 1000)
//! --seed <N>     base RNG seed (default 0xDAC2021)
//! ```

use crate::ExpConfig;

/// Parsed command-line options common to all reproduction binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cli {
    /// Experiment configuration (scale, queries, seed).
    pub config: ExpConfig,
    /// Monte Carlo trials (Table I).
    pub trials: u32,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            config: ExpConfig::default(),
            trials: 1000,
        }
    }
}

impl Cli {
    /// Parses `std::env::args`-style flags; unknown flags abort with a
    /// usage message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> Result<u64, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("bad value for {name}: {e}"))
            };
            match flag.as_str() {
                "--scale" => cli.config.scale_divisor = take("--scale")?.max(1) as usize,
                "--queries" => cli.config.queries = take("--queries")?.max(1) as usize,
                "--trials" => cli.trials = take("--trials")?.max(1) as u32,
                "--seed" => cli.config.seed = take("--seed")?,
                "--help" | "-h" => {
                    return Err(
                        "usage: [--scale N] [--queries N] [--trials N] [--seed N]".to_string()
                    )
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        Ok(cli)
    }

    /// Parses the process arguments, exiting with a message on error.
    pub fn from_env() -> Cli {
        match Cli::parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

/// Prints a standard experiment banner.
pub fn banner(title: &str, paper_ref: &str, cli: &Cli) {
    println!("=== {title} ===");
    println!("reproduces: {paper_ref}");
    println!(
        "scale: 1/{} of Table III sizes | queries: {} | seed: {:#x}",
        cli.config.scale_divisor, cli.config.queries, cli.config.seed
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_without_flags() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.config.scale_divisor, 100);
        assert_eq!(cli.trials, 1000);
    }

    #[test]
    fn parses_all_flags() {
        let cli = parse(&[
            "--scale",
            "10",
            "--queries",
            "3",
            "--trials",
            "500",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(cli.config.scale_divisor, 10);
        assert_eq!(cli.config.queries, 3);
        assert_eq!(cli.trials, 500);
        assert_eq!(cli.config.seed, 9);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn zero_values_clamp_to_one() {
        let cli = parse(&["--scale", "0"]).unwrap();
        assert_eq!(cli.config.scale_divisor, 1);
    }
}
