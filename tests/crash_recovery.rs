//! Chaos harness for the crash-safe durability layer (DESIGN.md §15).
//!
//! Three escalating drills, all asserting the same contract:
//!
//! * **No promotion is lost** once its WAL record is durable.
//! * **No round is promoted twice** — every round reaches exactly one
//!   terminal verdict no matter where the process dies.
//! * **The feed cursor never replays a completed round.**
//!
//! The drills:
//!
//! 1. a byte-offset sweep — every truncation point and every single-bit
//!    flip of a real WAL must recover to a *prefix* of the committed
//!    record sequence, with generation and incumbent consistent with
//!    that prefix;
//! 2. an in-process abort sweep — the promotion script is run under
//!    [`FaultyStorage`] with the crash valve at every possible op index,
//!    then recovered on real storage and driven to completion; the final
//!    journal's terminal verdicts must equal the uninterrupted golden's;
//! 3. a real SIGKILL drill — the `dar-loop --drill` fixture is killed
//!    mid-run with the process-level hammer, recovered with `--recover`,
//!    and the recovered journal byte-compared against an uninterrupted
//!    golden run.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dar::store::{
    DurableState, FaultyStorage, RealStorage, StateRecord, Storage, StorageFaultPlan, Wal,
    MANIFEST_FILE, WAL_FILE,
};
use dar::tensor::DarResult;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dar_crash_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn real() -> Arc<dyn Storage> {
    Arc::new(RealStorage)
}

/// Decode every committed record of a WAL file *without* disturbing the
/// original: the bytes are copied into a scratch dir first, because
/// `Wal::open` truncates torn tails in place.
fn read_journal(wal_path: &Path, scratch: &str) -> Vec<StateRecord> {
    let d = tmpdir(scratch);
    let copy = d.join(WAL_FILE);
    std::fs::copy(wal_path, &copy).expect("copying WAL for inspection");
    let (_, replay) = Wal::open(real(), &copy).expect("replaying WAL copy");
    let records = replay
        .records
        .iter()
        .map(|p| StateRecord::decode(p).expect("committed frame decodes"))
        .collect();
    std::fs::remove_dir_all(&d).ok();
    records
}

fn terminal_of(records: &[StateRecord]) -> Vec<StateRecord> {
    records
        .iter()
        .filter(|r| r.is_terminal())
        .cloned()
        .collect()
}

/// The invariants every recovered journal must satisfy, in one place:
/// each round has at most one terminal verdict, terminal rounds appear
/// in increasing order, promoted generations are strictly monotonic,
/// and no canary starts for a round at or below an already-logged feed
/// cursor (the cursor never replays a completed round).
fn assert_journal_invariants(records: &[StateRecord]) {
    let mut terminal_rounds: Vec<usize> = Vec::new();
    let mut last_gen = 0u64;
    let mut cursor = 0usize;
    for rec in records {
        match rec {
            StateRecord::Promoted {
                round, generation, ..
            } => {
                assert!(
                    !terminal_rounds.contains(round),
                    "round {round} reached two terminal verdicts: {records:?}"
                );
                assert!(
                    *generation > last_gen,
                    "generation went backwards at {rec:?}"
                );
                last_gen = *generation;
                terminal_rounds.push(*round);
            }
            StateRecord::RolledBack { round, .. } | StateRecord::RoundSkipped { round, .. } => {
                assert!(
                    !terminal_rounds.contains(round),
                    "round {round} reached two terminal verdicts: {records:?}"
                );
                terminal_rounds.push(*round);
            }
            StateRecord::CanaryStarted { round } => {
                assert!(
                    *round >= cursor,
                    "round {round} re-canaried below cursor {cursor}: {records:?}"
                );
            }
            StateRecord::FeedCursor { next_round } => {
                cursor = cursor.max(*next_round);
            }
            StateRecord::TailTruncated { .. } => {}
        }
    }
    for w in terminal_rounds.windows(2) {
        assert!(
            w[0] < w[1],
            "terminal verdicts out of order: {terminal_rounds:?}"
        );
    }
}

/// The scripted controller the in-process drills share: canary every
/// unfinished round, promote the even ones, roll back the odd ones,
/// advance the cursor — the same decision shape a durable
/// `run_online_loop` journals, minus the serving stack.
fn drive_script(state: &mut DurableState, rounds: usize, cand: &Path) -> DarResult<()> {
    for r in state.resume_round()..rounds {
        if state.is_terminal(r) {
            continue;
        }
        state.log_canary_started(r)?;
        if r % 2 == 0 {
            state.log_promoted(r, cand)?;
        } else {
            state.log_rolled_back(r, "accuracy_regressed")?;
        }
        state.log_feed_cursor(r + 1)?;
    }
    Ok(())
}

const ROUNDS: usize = 4;

/// Build the uninterrupted golden journal and return
/// `(dir, wal_bytes, records)`. The candidate file is tiny but real —
/// `DurableState` copies its bytes into the incumbent generation.
fn golden_run(name: &str) -> (PathBuf, Vec<u8>, Vec<StateRecord>) {
    let d = tmpdir(name);
    let cand = d.join("cand.ckpt");
    std::fs::write(&cand, b"candidate-weights").unwrap();
    let (mut st, _) = DurableState::open(real(), &d).unwrap();
    drive_script(&mut st, ROUNDS, &cand).unwrap();
    let wal = std::fs::read(d.join(WAL_FILE)).unwrap();
    let records = read_journal(&d.join(WAL_FILE), &format!("{name}_read"));
    (d, wal, records)
}

/// Rebuild a state dir holding `wal_bytes` as the journal plus every
/// non-WAL, non-manifest file from `src` (checkpoints the prefix may
/// roll forward to). The manifest is dropped — the sweep simulates a
/// crash before the swap, the case recovery must repair.
fn stage_dir(dst: &Path, src: &Path, wal_bytes: &[u8]) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == WAL_FILE || name == MANIFEST_FILE {
            continue;
        }
        std::fs::copy(entry.path(), dst.join(&name)).unwrap();
    }
    std::fs::write(dst.join(WAL_FILE), wal_bytes).unwrap();
}

/// After recovering a damaged journal, the surviving records must be a
/// prefix of the golden sequence and the manifest state must match that
/// prefix exactly.
fn assert_prefix_recovery(dir: &Path, golden: &[StateRecord], what: &str) {
    let (st, rec) =
        DurableState::open(real(), dir).unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let committed: Vec<StateRecord> = rec
        .records
        .iter()
        .filter(|r| !matches!(r, StateRecord::TailTruncated { .. }))
        .cloned()
        .collect();
    assert!(
        golden.starts_with(&committed),
        "{what}: recovered records are not a golden prefix:\n  got {committed:?}"
    );
    let promotes: Vec<&StateRecord> = committed
        .iter()
        .filter(|r| matches!(r, StateRecord::Promoted { .. }))
        .collect();
    assert_eq!(
        st.generation(),
        promotes.len() as u64,
        "{what}: generation disagrees with surviving promotions"
    );
    match promotes.last() {
        Some(StateRecord::Promoted { ckpt, .. }) => {
            assert_eq!(
                st.incumbent(),
                Some(ckpt.as_str()),
                "{what}: wrong incumbent"
            );
            assert_eq!(
                std::fs::read(st.incumbent_path().unwrap()).unwrap(),
                b"candidate-weights",
                "{what}: incumbent bytes damaged"
            );
        }
        _ => assert_eq!(st.incumbent(), None, "{what}: phantom incumbent"),
    }
    assert_journal_invariants(&committed);
}

/// Drill 1a: cut the WAL at *every* byte offset. Whatever survives must
/// be a committed prefix — never a reordered, duplicated, or phantom
/// record — and the manifest must be rolled forward to agree with it.
#[test]
fn every_wal_truncation_recovers_to_a_committed_prefix() {
    let (src, wal, golden) = golden_run("cut_src");
    let work = tmpdir("cut_work");
    for cut in 0..=wal.len() {
        stage_dir(&work, &src, &wal[..cut]);
        assert_prefix_recovery(&work, &golden, &format!("cut at {cut}"));
    }
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&work).ok();
}

/// Drill 1b: flip one seeded bit in every body byte of the WAL. CRC
/// framing must refuse the damaged frame and everything after it; the
/// prefix before the flip survives untouched.
#[test]
fn every_wal_bit_flip_recovers_to_a_committed_prefix() {
    let (src, wal, golden) = golden_run("flip_src");
    let work = tmpdir("flip_work");
    // Bytes 0..8 are the magic: damage there is a *hard* corrupt error
    // (covered by the wal unit tests), not a torn tail — sweep the body.
    for byte in 8..wal.len() {
        let mut damaged = wal.clone();
        damaged[byte] ^= 1 << (byte % 8);
        stage_dir(&work, &src, &damaged);
        assert_prefix_recovery(&work, &golden, &format!("bit flip at byte {byte}"));
    }
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&work).ok();
}

/// Drill 2: the abort-at-Nth-write sweep. Run the promotion script with
/// the crash valve at every op index; after each injected crash, recover
/// on real storage and drive the script to completion. The final
/// journal's terminal verdicts must equal the uninterrupted golden's —
/// exactly-once promotion, no lost verdicts, no duplicates.
#[test]
fn every_abort_point_recovers_to_the_golden_verdicts() {
    let (_g, _, golden) = golden_run("abort_golden");
    let golden_terminal = terminal_of(&golden);
    std::fs::remove_dir_all(&_g).ok();
    assert_eq!(golden_terminal.len(), ROUNDS);

    let mut completed_clean = false;
    for n in 0..200u64 {
        let d = tmpdir("abort_work");
        let cand = d.join("cand.ckpt");
        std::fs::write(&cand, b"candidate-weights").unwrap();

        let faulty = Arc::new(FaultyStorage::new(StorageFaultPlan::crash_after(
            n,
            0xC4A5 ^ n,
        )));
        let crashed = match DurableState::open(Arc::clone(&faulty) as Arc<dyn Storage>, &d) {
            Ok((mut st, _)) => drive_script(&mut st, ROUNDS, &cand).is_err(),
            Err(_) => true, // died opening the journal — also a valid crash point
        };

        // Recover on honest storage and finish the job.
        let (mut st, _) = DurableState::open(real(), &d)
            .unwrap_or_else(|e| panic!("crash_after({n}): recovery failed: {e}"));
        drive_script(&mut st, ROUNDS, &cand)
            .unwrap_or_else(|e| panic!("crash_after({n}): post-recovery script failed: {e}"));

        let records = read_journal(&d.join(WAL_FILE), "abort_read");
        assert_journal_invariants(&records);
        assert_eq!(
            terminal_of(&records),
            golden_terminal,
            "crash_after({n}): final verdicts diverge from golden"
        );
        assert_eq!(st.generation(), ROUNDS as u64 / 2);
        assert_eq!(
            std::fs::read(st.incumbent_path().unwrap()).unwrap(),
            b"candidate-weights"
        );
        std::fs::remove_dir_all(&d).ok();

        if !crashed {
            completed_clean = true;
            break; // the valve never fired: every later n is a no-op run
        }
    }
    assert!(
        completed_clean,
        "sweep never reached an uninterrupted run — script op count grew past the sweep bound"
    );
}

/// Drill 3: the real thing. Run `dar-loop --drill`, SIGKILL it after at
/// least one verdict is durable but before the run finishes, recover
/// with `--recover`, and byte-compare the recovered journal against an
/// uninterrupted golden run of the same fixture.
#[test]
fn sigkill_mid_drill_recovers_to_the_golden_journal() {
    let bin = env!("CARGO_BIN_EXE_dar-loop");

    // Golden: the same fixture, uninterrupted.
    let golden_dir = tmpdir("kill_golden");
    let status = Command::new(bin)
        .args(["--drill", "--rounds", "4", "--state-dir"])
        .arg(&golden_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("running golden drill");
    assert!(status.success(), "golden drill run failed");
    let golden = read_journal(&golden_dir.join(WAL_FILE), "kill_golden_read");
    let golden_terminal = terminal_of(&golden);
    assert_eq!(
        golden_terminal.len(),
        4,
        "golden drill must settle 4 rounds"
    );

    // Victim: paced rounds so the kill lands mid-run.
    let kill_dir = tmpdir("kill_victim");
    let mut child = Command::new(bin)
        .args([
            "--drill",
            "--rounds",
            "4",
            "--round-delay-ms",
            "400",
            "--state-dir",
        ])
        .arg(&kill_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning victim drill");

    // Poll the journal until at least one verdict is durable, then kill
    // without ceremony (`Child::kill` is SIGKILL on unix).
    let wal_path = kill_dir.join(WAL_FILE);
    let deadline = Instant::now() + Duration::from_secs(120);
    let killed = loop {
        if Instant::now() > deadline {
            panic!("victim never journaled a verdict");
        }
        if let Some(status) = child.try_wait().expect("polling victim") {
            // Finished before we could kill it — the drill got faster
            // than the pacing; the run is then just the golden again.
            assert!(status.success());
            break false;
        }
        if wal_path.exists() && !terminal_of(&read_journal(&wal_path, "kill_poll")).is_empty() {
            child.kill().expect("SIGKILLing victim");
            child.wait().expect("reaping victim");
            break true;
        }
        std::thread::sleep(Duration::from_millis(15));
    };
    assert!(killed, "pacing failed: the victim finished before the kill");

    let pre_kill = read_journal(&wal_path, "kill_pre_read");
    assert!(!terminal_of(&pre_kill).is_empty());

    // Recover and finish.
    let status = Command::new(bin)
        .args(["--drill", "--rounds", "4", "--recover", "--state-dir"])
        .arg(&kill_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("running recovery drill");
    assert!(status.success(), "recovery drill run failed");

    let final_records = read_journal(&wal_path, "kill_final_read");

    // Durability: everything committed before the kill is still there,
    // in order, as a prefix of the final journal.
    let committed_pre_kill: Vec<StateRecord> = pre_kill;
    assert!(
        final_records.len() >= committed_pre_kill.len()
            && final_records[..committed_pre_kill.len()] == committed_pre_kill[..],
        "pre-kill journal is not a prefix of the recovered journal\n  pre:   {committed_pre_kill:?}\n  final: {final_records:?}"
    );

    // Exactly-once: the recovered run's verdicts are byte-identical to
    // the uninterrupted golden's — same rounds, same order, same
    // generations, same checkpoint names, same causes.
    assert_eq!(
        terminal_of(&final_records),
        golden_terminal,
        "recovered verdicts diverge from the uninterrupted golden"
    );
    assert_journal_invariants(&final_records);

    std::fs::remove_dir_all(&golden_dir).ok();
    std::fs::remove_dir_all(&kill_dir).ok();
}
