//! `mahi-mahi` — command-line front end for the reproduction.
//!
//! ```text
//! mahi-mahi simulate  --protocol mm4 --nodes 10 --load 10000 --duration 10
//! mahi-mahi compare   --nodes 10 --load 10000            # all four systems
//! mahi-mahi cluster   --nodes 4 --txs 100                # real TCP localhost
//! mahi-mahi analyze   --faults 3 --leaders 2             # closed-form models
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to stay inside the
//! workspace's dependency budget.

use mahi_mahi::analysis;
use mahi_mahi::net::time;
use mahi_mahi::node::LocalCluster;
use mahi_mahi::sim::{AdversaryChoice, ProtocolChoice, SimConfig, Simulation};
use mahi_mahi::types::Transaction;
use std::collections::HashMap;
use std::time::Duration;

type Options = HashMap<String, String>;

/// What a subcommand runs, given its options.
type Subcommand = fn(&Options) -> Result<(), String>;

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "help".to_string());
    let outcome = parse_options(args.collect()).and_then(|options| run(&command, &options));
    if let Err(message) = outcome {
        eprintln!("mahi-mahi: {message}");
        std::process::exit(2);
    }
}

/// The flags `simulate` reads; `compare` reads these but for the protocol
/// choice, since it runs all four systems.
const SIMULATE_FLAGS: &[&str] = &[
    "protocol",
    "leaders",
    "nodes",
    "faults",
    "load",
    "duration",
    "seed",
    "adversary",
];
const COMPARE_FLAGS: &[&str] = &["nodes", "faults", "load", "duration", "seed", "adversary"];
const CLUSTER_FLAGS: &[&str] = &["nodes", "txs", "seed"];
const ANALYZE_FLAGS: &[&str] = &["faults", "leaders"];

/// Dispatches one subcommand. An `Err` is a usage error — an unknown
/// subcommand, a flag the subcommand does not read, a value that does not
/// parse — which `main` prints to stderr and exits 2 on, rather than
/// running something the user did not ask for.
fn run(command: &str, options: &Options) -> Result<(), String> {
    let (action, flags): (Subcommand, &[&str]) = match command {
        "simulate" => (simulate, SIMULATE_FLAGS),
        "compare" => (compare, COMPARE_FLAGS),
        "cluster" => (cluster, CLUSTER_FLAGS),
        "analyze" => (analyze, ANALYZE_FLAGS),
        "help" | "--help" | "-h" => (help, &[]),
        unknown => {
            return Err(format!(
                "unknown subcommand {unknown:?} (see `mahi-mahi help`)"
            ))
        }
    };
    let mut unknown: Vec<&str> = options
        .keys()
        .map(String::as_str)
        .filter(|key| !flags.contains(key))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        return Err(format!(
            "{command} does not take --{} (see `mahi-mahi help`)",
            unknown.join(", --")
        ));
    }
    action(options)
}

/// Parses `--key value` pairs; bare flags get the value `"true"`. An
/// argument that is neither a flag nor a flag's value is an error.
fn parse_options(raw: Vec<String>) -> Result<Options, String> {
    let mut options = HashMap::new();
    let mut iter = raw.into_iter().peekable();
    while let Some(token) = iter.next() {
        let Some(key) = token.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument {token:?} (see `mahi-mahi help`)"
            ));
        };
        let value = match iter.peek() {
            Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
            _ => "true".to_string(),
        };
        options.insert(key.to_string(), value);
    }
    Ok(options)
}

/// The value of `--key`, or `default` when the flag is absent. A value that
/// is present but does not parse is an error, never the default.
fn get<T: std::str::FromStr>(options: &Options, key: &str, default: T) -> Result<T, String> {
    match options.get(key) {
        None => Ok(default),
        Some(value) => value
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {value:?}")),
    }
}

fn protocol_of(options: &Options) -> Result<ProtocolChoice, String> {
    let leaders = get(options, "leaders", 2usize)?;
    match options.get("protocol").map(String::as_str).unwrap_or("mm5") {
        "mm5" | "mahi-mahi-5" => Ok(ProtocolChoice::MahiMahi5 { leaders }),
        "mm4" | "mahi-mahi-4" => Ok(ProtocolChoice::MahiMahi4 { leaders }),
        "cm" | "cordial-miners" => Ok(ProtocolChoice::CordialMiners),
        "tusk" => Ok(ProtocolChoice::Tusk),
        unknown => Err(format!(
            "--protocol: unknown protocol {unknown:?} (mm5, mm4, cm, tusk)"
        )),
    }
}

fn config_of(options: &Options, protocol: ProtocolChoice) -> Result<SimConfig, String> {
    let nodes = get(options, "nodes", 10usize)?;
    let faults = get(options, "faults", 0usize)?;
    let load = get(options, "load", 10_000u64)?;
    if faults >= nodes {
        return Err(format!(
            "--faults {faults} leaves no honest validator among --nodes {nodes}"
        ));
    }
    let honest = nodes - faults;
    let adversary = match options.get("adversary").map(String::as_str) {
        None => AdversaryChoice::None,
        Some("random") => AdversaryChoice::RandomSubset {
            hold: time::from_millis(150),
        },
        Some("rotating") => AdversaryChoice::RotatingDelay {
            targets: (nodes - 1) / 3,
            period: 2,
            extra: time::from_millis(400),
        },
        Some(unknown) => {
            return Err(format!(
                "--adversary: unknown adversary {unknown:?} (random, rotating)"
            ))
        }
    };
    Ok(SimConfig {
        protocol,
        committee_size: nodes,
        duration: time::from_secs(get(options, "duration", 10u64)?),
        txs_per_second_per_validator: load / honest as u64,
        adversary,
        seed: get(options, "seed", 42u64)?,
        ..SimConfig::default()
    }
    .with_crashed(faults))
}

fn simulate(options: &Options) -> Result<(), String> {
    let config = config_of(options, protocol_of(options)?)?;
    println!(
        "simulating {} … ({} validators, {} crashed, {} tx/s offered)",
        config.protocol.name(),
        config.committee_size,
        config.behaviors.len(),
        config.txs_per_second_per_validator
            * (config.committee_size - config.behaviors.len()) as u64,
    );
    let report = Simulation::new(config).run();
    println!("{}", report.table_row());
    Ok(())
}

fn compare(options: &Options) -> Result<(), String> {
    for protocol in [
        ProtocolChoice::Tusk,
        ProtocolChoice::CordialMiners,
        ProtocolChoice::MahiMahi5 { leaders: 2 },
        ProtocolChoice::MahiMahi4 { leaders: 2 },
    ] {
        let report = Simulation::new(config_of(options, protocol)?).run();
        println!("{}", report.table_row());
    }
    Ok(())
}

fn cluster(options: &Options) -> Result<(), String> {
    let nodes = get(options, "nodes", 4usize)?;
    let txs = get(options, "txs", 100u64)?;
    let cluster = LocalCluster::start(nodes, get(options, "seed", 42)?).expect("start cluster");
    println!("started {nodes} validators on localhost; submitting {txs} transactions");
    for id in 0..txs {
        cluster.submit((id % nodes as u64) as usize, Transaction::benchmark(id));
    }
    let mut committed = std::collections::HashSet::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while committed.len() < txs as usize && std::time::Instant::now() < deadline {
        if let Ok(sub_dag) = cluster.commits(0).recv_timeout(Duration::from_millis(200)) {
            committed.extend(sub_dag.transactions().filter_map(Transaction::benchmark_id));
        }
    }
    println!("{} / {txs} transactions committed", committed.len());
    cluster.stop();
    Ok(())
}

fn analyze(options: &Options) -> Result<(), String> {
    let f = get(options, "faults", 3u64)?;
    let leaders = get(options, "leaders", 2u64)?;
    let n = 3 * f + 1;
    println!("committee n = {n} (f = {f}), ℓ = {leaders} leader slots per round\n");
    println!(
        "Lemma 13 (w = 5, asynchronous): P(direct commit per round) ≥ {:.4}",
        analysis::direct_commit_probability_w5(f, leaders)
    );
    println!(
        "Lemma 16 (w = 4, asynchronous): P(direct commit per round) ≥ {:.4}",
        analysis::direct_commit_probability_w4_async(f, leaders)
    );
    println!(
        "Lemma 17 (w = 4, random network): P(some vote missing) ≤ {:.2e}",
        analysis::w4_random_unreachable_bound(f)
    );
    for (label, model) in [
        (
            "Mahi-Mahi-4",
            analysis::ProtocolModel::MahiMahi { wave_length: 4 },
        ),
        (
            "Mahi-Mahi-5",
            analysis::ProtocolModel::MahiMahi { wave_length: 5 },
        ),
        (
            "Cordial Miners",
            analysis::ProtocolModel::CordialMiners { wave_length: 5 },
        ),
        ("Tusk", analysis::ProtocolModel::Tusk),
    ] {
        println!(
            "expected commit latency ({label:<14}): {:>5.2} message delays",
            analysis::expected_commit_delays(model)
        );
    }
    Ok(())
}

fn help(_: &Options) -> Result<(), String> {
    println!(
        "mahi-mahi — reproduction of the Mahi-Mahi asynchronous BFT consensus paper

USAGE:
  mahi-mahi simulate [--protocol mm5|mm4|cm|tusk] [--nodes N] [--faults F]
                     [--load TPS] [--duration SECS] [--leaders L] [--seed S]
                     [--adversary random|rotating]
  mahi-mahi compare  [same options]     run all four systems
  mahi-mahi cluster  [--nodes N] [--txs T]   real TCP cluster on localhost
  mahi-mahi analyze  [--faults F] [--leaders L]  closed-form models
"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(pairs: &[(&str, &str)]) -> Options {
        pairs
            .iter()
            .map(|(key, value)| (key.to_string(), value.to_string()))
            .collect()
    }

    #[test]
    fn options_parse_pairs_and_flags() {
        let options = parse_options(
            ["--nodes", "10", "--quick", "--load", "500"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )
        .unwrap();
        assert_eq!(get(&options, "nodes", 0usize), Ok(10));
        assert_eq!(options.get("quick").map(String::as_str), Some("true"));
        assert_eq!(get(&options, "load", 0u64), Ok(500));
        assert_eq!(get(&options, "missing", 7u64), Ok(7));
    }

    #[test]
    fn protocol_selection() {
        let mut options = HashMap::new();
        options.insert("protocol".into(), "tusk".into());
        assert_eq!(protocol_of(&options), Ok(ProtocolChoice::Tusk));
        options.insert("protocol".into(), "mm4".into());
        options.insert("leaders".into(), "3".into());
        assert_eq!(
            protocol_of(&options),
            Ok(ProtocolChoice::MahiMahi4 { leaders: 3 })
        );
    }

    #[test]
    fn config_reflects_options() {
        let mut options = HashMap::new();
        options.insert("nodes".into(), "10".into());
        options.insert("faults".into(), "3".into());
        options.insert("load".into(), "7000".into());
        let config = config_of(&options, ProtocolChoice::CordialMiners).unwrap();
        assert_eq!(config.committee_size, 10);
        assert_eq!(config.behaviors.len(), 3);
        assert_eq!(config.txs_per_second_per_validator, 1000);
    }

    #[test]
    fn absent_flags_take_the_documented_defaults() {
        let none = Options::new();
        assert_eq!(
            protocol_of(&none),
            Ok(ProtocolChoice::MahiMahi5 { leaders: 2 })
        );
        let config = config_of(&none, ProtocolChoice::Tusk).unwrap();
        assert_eq!(config.committee_size, 10);
        assert!(config.behaviors.is_empty());
        assert_eq!(config.txs_per_second_per_validator, 1_000);
        assert_eq!(config.duration, time::from_secs(10));
        assert_eq!(config.seed, 42);
        assert!(matches!(config.adversary, AdversaryChoice::None));
        assert_eq!(run("help", &none), Ok(()));
    }

    #[test]
    fn every_accepted_spelling_keeps_its_meaning() {
        for (name, expected) in [
            ("mm5", ProtocolChoice::MahiMahi5 { leaders: 2 }),
            ("mahi-mahi-5", ProtocolChoice::MahiMahi5 { leaders: 2 }),
            ("mm4", ProtocolChoice::MahiMahi4 { leaders: 2 }),
            ("mahi-mahi-4", ProtocolChoice::MahiMahi4 { leaders: 2 }),
            ("cm", ProtocolChoice::CordialMiners),
            ("cordial-miners", ProtocolChoice::CordialMiners),
            ("tusk", ProtocolChoice::Tusk),
        ] {
            assert_eq!(protocol_of(&options(&[("protocol", name)])), Ok(expected));
        }
        let adversary = |name| {
            config_of(&options(&[("adversary", name)]), ProtocolChoice::Tusk).map(|c| c.adversary)
        };
        assert!(matches!(
            adversary("random"),
            Ok(AdversaryChoice::RandomSubset { .. })
        ));
        assert!(matches!(
            adversary("rotating"),
            Ok(AdversaryChoice::RotatingDelay { targets: 3, .. })
        ));
    }

    #[test]
    fn unknown_names_are_errors_not_defaults() {
        let error = protocol_of(&options(&[("protocol", "mm6")])).unwrap_err();
        assert!(error.contains("mm6"), "{error}");
        let error =
            config_of(&options(&[("adversary", "rotatng")]), ProtocolChoice::Tusk).unwrap_err();
        assert!(error.contains("rotatng"), "{error}");
        let error = run("simulat", &Options::new()).unwrap_err();
        assert!(error.contains("simulat"), "{error}");
    }

    #[test]
    fn unparsable_values_are_errors_not_defaults() {
        let error = config_of(&options(&[("load", "10k")]), ProtocolChoice::Tusk).unwrap_err();
        assert!(error.contains("--load") && error.contains("10k"), "{error}");
        assert!(protocol_of(&options(&[("leaders", "two")])).is_err());
        // A flag given without a value reads as "true": not a number.
        assert!(config_of(&options(&[("nodes", "true")]), ProtocolChoice::Tusk).is_err());
        // The error surfaces through every subcommand before it does work.
        assert!(run("simulate", &options(&[("duration", "1s")])).is_err());
        assert!(run("compare", &options(&[("seed", "x")])).is_err());
        assert!(run("cluster", &options(&[("txs", "-1")])).is_err());
        assert!(run("analyze", &options(&[("faults", "1.5")])).is_err());
    }

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_flag_the_subcommand_does_not_read_is_an_error_naming_it() {
        // A misspelt flag must not fall back to the default protocol.
        let misspelled = parse_options(args(&["--protocl", "mm4", "--nodes", "4"])).unwrap();
        let error = run("simulate", &misspelled).unwrap_err();
        assert!(error.contains("--protocl"), "{error}");
        // Every subcommand refuses a flag it does not read, naming each.
        for command in ["simulate", "compare", "cluster", "analyze", "help"] {
            let error = run(command, &options(&[("bogus", "1"), ("also", "2")])).unwrap_err();
            assert!(error.contains("--also, --bogus"), "{command}: {error}");
        }
        // Flags one subcommand reads are unknown to another.
        assert!(run("compare", &options(&[("protocol", "mm4")])).is_err());
        assert!(run("analyze", &options(&[("nodes", "4")])).is_err());
        assert!(run("cluster", &options(&[("load", "10")])).is_err());
        // The lists name exactly what each subcommand reads: every listed
        // flag with a bad value fails on parsing, not as unknown.
        for (command, flags) in [
            ("simulate", SIMULATE_FLAGS),
            ("compare", COMPARE_FLAGS),
            ("cluster", CLUSTER_FLAGS),
            ("analyze", ANALYZE_FLAGS),
        ] {
            for flag in flags {
                let error = run(command, &options(&[(flag, "x")])).unwrap_err();
                assert!(
                    !error.contains("does not take"),
                    "{command} --{flag}: {error}"
                );
            }
        }
    }

    #[test]
    fn a_positional_argument_is_an_error_naming_it() {
        let error = parse_options(args(&["--nodes", "4", "extra", "--load", "5"])).unwrap_err();
        assert!(error.contains("\"extra\""), "{error}");
        let error = parse_options(args(&["mm4"])).unwrap_err();
        assert!(error.contains("\"mm4\""), "{error}");
        // A value that looks numeric, even negative, is a flag's value.
        let options = parse_options(args(&["--txs", "-1"])).unwrap();
        assert_eq!(options.get("txs").map(String::as_str), Some("-1"));
    }

    #[test]
    fn faults_must_leave_an_honest_validator() {
        for faults in ["4", "5"] {
            let error = config_of(
                &options(&[("nodes", "4"), ("faults", faults)]),
                ProtocolChoice::Tusk,
            )
            .unwrap_err();
            assert!(error.contains("--faults"), "{error}");
        }
        assert!(config_of(
            &options(&[("nodes", "4"), ("faults", "3")]),
            ProtocolChoice::Tusk
        )
        .is_ok());
    }
}
