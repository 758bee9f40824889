//! Replay the committed schedule corpus under `tests/explore_corpus/`.
//!
//! Each `.tokens` file holds `ldft-explore/v1` replay tokens, one per
//! line. A token is expected to replay *clean* unless a preceding
//! `# expect: violation` directive flips the expectation (used for the
//! reference-counterexample corpus, whose violations pin the explorer's
//! find → shrink → token → replay pipeline). Every token must also be
//! *fresh*: its fingerprint has to match the choice points the kernel
//! actually presents, so a schedule-layout drift fails loudly here
//! instead of silently replaying the wrong interleaving (re-mint with
//! `explore --target <cell> --mint <plan>`).

use explore::{replay, target_by_name, ReplayToken};

fn replay_corpus_file(path: &std::path::Path) -> usize {
    let body =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let mut expect_violation = false;
    let mut replayed = 0;
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            // A directive applies to every following token in the file.
            if comment.trim() == "expect: violation" {
                expect_violation = true;
            }
            continue;
        }
        let at = format!("{}:{}", path.display(), lineno + 1);
        let token: ReplayToken = line.parse().unwrap_or_else(|e| panic!("{at}: {e}"));
        let target = target_by_name(&token.target)
            .unwrap_or_else(|| panic!("{at}: unknown target `{}`", token.target));
        let (run, fresh) = replay(target.as_ref(), &token);
        assert!(
            fresh,
            "{at}: stale token — the cell's choice-point layout changed; \
             re-mint with `explore --target {} --mint ...`",
            token.target
        );
        if expect_violation {
            assert!(
                !run.violations.is_empty(),
                "{at}: expected a violation but the schedule replayed clean \
                 — the pinned counterexample no longer reproduces"
            );
        } else {
            assert!(
                run.violations.is_empty(),
                "{at}: corpus schedule regressed:\n  {}",
                run.violations.join("\n  ")
            );
        }
        replayed += 1;
    }
    replayed
}

#[test]
fn corpus_replays_with_expected_outcomes() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/explore_corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tokens"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no corpus files in {}", dir.display());
    let mut total = 0;
    for f in &files {
        total += replay_corpus_file(f);
    }
    assert!(total >= 8, "corpus shrank to {total} tokens — restore it");
}
