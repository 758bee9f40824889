//! `explore` — run the DPOR schedule-space explorer over the shipped
//! target cells and report what it found.
//!
//! ```text
//! explore [--target NAME] [--budget N] [--max-devs N] [--width N]
//!         [--audits N] [--shrink N] [--require N]
//!         [--report-out PATH] [--tokens-out PATH] [--replay TOKEN|FILE]
//!         [--mint PLAN] [--list]
//! ```
//!
//! Default mode explores every target under the given budget and prints
//! a deterministic report (the CI `explore-gate` runs the binary twice
//! and `cmp`s the `--report-out` files). Exit status: 0 clean, 1 on any
//! oracle violation or an unmet `--require` floor, 2 on usage errors.
//!
//! `--replay` takes a replay token (or a file of one token per line,
//! `#` comments allowed) and re-executes exactly those schedules —
//! the regression mode `tests/explore_replay.rs` uses for the committed
//! corpus under `tests/explore_corpus/`.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::let_underscore_must_use,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::fmt;

use explore::{
    all_targets, explore as run_explore, target_by_name, ExploreConfig, ExploreOutcome,
    ReplayToken, Target, TOKEN_PREFIX,
};

struct Args {
    target: Option<String>,
    config: ExploreConfig,
    require: Option<usize>,
    report_out: Option<String>,
    tokens_out: Option<String>,
    replay: Option<String>,
    mint: Option<String>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        target: None,
        config: ExploreConfig::default(),
        require: None,
        report_out: None,
        tokens_out: None,
        replay: None,
        mint: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--target" => args.target = Some(take("--target")?),
            "--budget" => {
                args.config.budget = take("--budget")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--max-devs" => {
                args.config.max_deviations =
                    take("--max-devs")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--width" => {
                args.config.max_width = take("--width")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--audits" => {
                args.config.audits_per_parent =
                    take("--audits")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--shrink" => {
                args.config.shrink_budget =
                    take("--shrink")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--require" => {
                args.require = Some(take("--require")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--mint" => args.mint = Some(take("--mint")?),
            "--report-out" => args.report_out = Some(take("--report-out")?),
            "--tokens-out" => args.tokens_out = Some(take("--tokens-out")?),
            "--replay" => args.replay = Some(take("--replay")?),
            "--list" => args.list = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn replay_mode(spec: &str) -> i32 {
    let mut lines = Vec::new();
    match std::fs::read_to_string(spec) {
        Ok(body) => {
            for l in body.lines() {
                let l = l.trim();
                if !l.is_empty() && !l.starts_with('#') {
                    lines.push(l.to_string());
                }
            }
        }
        Err(_) => lines.push(spec.trim().to_string()),
    }
    let mut failed = false;
    for line in &lines {
        let token: ReplayToken = match line.parse() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("explore: {e}");
                failed = true;
                continue;
            }
        };
        let Some(target) = target_by_name(&token.target) else {
            eprintln!("explore: unknown target `{}` in token", token.target);
            failed = true;
            continue;
        };
        let (run, fresh) = explore::explorer::replay(target.as_ref(), &token);
        let status = if !run.violations.is_empty() {
            failed = true;
            "VIOLATION"
        } else if fresh {
            "clean"
        } else {
            "clean (stale fingerprint — schedule drifted, re-mint the token)"
        };
        println!("replay {line}: {status}");
        for v in &run.violations {
            println!("  {v}");
        }
    }
    i32::from(failed)
}

/// Mint a replay token for an explicit deviation plan: run it once,
/// fingerprint the observed choice points, print the token to stdout and
/// its clean/violation status to stderr. This is how the committed
/// corpus under `tests/explore_corpus/` is curated.
fn mint_mode(target_name: Option<&str>, spec: &str) -> i32 {
    let Some(name) = target_name else {
        eprintln!("explore: --mint needs --target");
        return 2;
    };
    let Some(target) = target_by_name(name) else {
        eprintln!("explore: unknown target `{name}` (try --list)");
        return 2;
    };
    let mut plan = std::collections::BTreeMap::new();
    if spec != "-" {
        for part in spec.split(',') {
            let parsed = part
                .split_once(':')
                .and_then(|(o, i)| Some((o.trim().parse().ok()?, i.trim().parse().ok()?)));
            match parsed {
                Some((o, i)) => {
                    plan.insert(o, i);
                }
                None => {
                    eprintln!("explore: bad deviation `{part}` (want ORDINAL:INDEX)");
                    return 2;
                }
            }
        }
    }
    let run = target.run(&plan);
    if !run.log.misfits.is_empty() {
        eprintln!(
            "explore: plan misfits at ordinals {:?} — token would be stale",
            run.log.misfits
        );
        return 1;
    }
    let ordinals: Vec<u64> = plan.keys().copied().collect();
    let token = ReplayToken {
        target: name.to_string(),
        seed: target.seed(),
        plan,
        fp: run.log.fingerprint(&ordinals),
    };
    println!("{token}");
    if run.violations.is_empty() {
        eprintln!("(clean)");
    } else {
        for v in &run.violations {
            eprintln!("(violation) {v}");
        }
    }
    0
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("explore: {e}");
            std::process::exit(2);
        }
    };
    if args.list {
        for t in all_targets() {
            println!("{} (seed {})", t.name(), t.seed());
        }
        if let Some(demo) = target_by_name("demo_race") {
            println!(
                "{} (seed {}) [reference counterexample, off the gate sweep]",
                demo.name(),
                demo.seed()
            );
        }
        return;
    }
    if let Some(spec) = &args.replay {
        std::process::exit(replay_mode(spec));
    }
    if let Some(spec) = &args.mint {
        std::process::exit(mint_mode(args.target.as_deref(), spec));
    }

    let config = &args.config;
    let targets = match &args.target {
        Some(name) => match target_by_name(name) {
            Some(t) => vec![t],
            None => {
                eprintln!("explore: unknown target `{name}` (try --list)");
                std::process::exit(2);
            }
        },
        None => all_targets(),
    };

    let outs: Vec<ExploreOutcome> = targets
        .iter()
        .map(|t| run_explore(t.as_ref(), config))
        .collect();
    let report = fmt::from_fn(|f| render_report(f, &args, &targets, &outs)).to_string();
    let tokens: String = outs
        .iter()
        .flat_map(|o| &o.violations)
        .map(|v| format!("{}\n", v.token))
        .collect();
    let unmet = |o: &ExploreOutcome| {
        args.require
            .is_some_and(|n| o.stats.distinct_schedules() < n)
    };
    let failed = outs.iter().any(|o| !o.violations.is_empty() || unmet(o));

    print!("{report}");
    if let Some(path) = &args.report_out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("explore: writing {path}: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.tokens_out {
        let body = if tokens.is_empty() {
            format!("# no violations — {TOKEN_PREFIX} corpus unchanged\n")
        } else {
            tokens
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("explore: writing {path}: {e}");
            std::process::exit(2);
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The deterministic report: the config, then each target's counters and
/// shrunk violations, then the totals.
fn render_report(
    f: &mut fmt::Formatter<'_>,
    args: &Args,
    targets: &[Box<dyn Target>],
    outs: &[ExploreOutcome],
) -> fmt::Result {
    let config = &args.config;
    writeln!(
        f,
        "ldft-explore report\nconfig: budget={} max_devs={} width={} audits={} shrink={}",
        config.budget,
        config.max_deviations,
        config.max_width,
        config.audits_per_parent,
        config.shrink_budget,
    )?;
    for (target, out) in targets.iter().zip(outs) {
        let s = &out.stats;
        let distinct = s.distinct_schedules();
        writeln!(
            f,
            "\ntarget {} (seed {}):\n  explored={} (audits {}) pruned={} enumerated={}\n  \
             distinct_schedules={distinct} distinct_digests={} choice_points={} misfits={} \
             shrink_runs={}\n  root_digest={:016x}\n  violations={}",
            target.name(),
            target.seed(),
            s.explored,
            s.audited,
            s.pruned,
            s.enumerated(),
            s.distinct_digests,
            s.choice_points_seen,
            s.misfit_runs,
            s.shrink_runs,
            out.root_digest,
            out.violations.len(),
        )?;
        for v in &out.violations {
            let kind = if v.robustness {
                "schedule-robustness"
            } else {
                "invariant"
            };
            writeln!(
                f,
                "  {kind} violation (shrunk {} → {} deviations):\n    {}\n    oracle: {}",
                v.shrunk_from,
                v.token.plan.len(),
                v.token,
                v.oracle.join("; "),
            )?;
        }
        if let Some(floor) = args.require.filter(|&n| distinct < n) {
            writeln!(
                f,
                "  REQUIRE FAILED: {distinct} distinct non-equivalent schedules < {floor}"
            )?;
        }
    }
    let enumerated: usize = outs.iter().map(|o| o.stats.enumerated()).sum();
    let violations: usize = outs.iter().map(|o| o.violations.len()).sum();
    writeln!(
        f,
        "\ntotal: enumerated={enumerated} violations={violations}"
    )
}
