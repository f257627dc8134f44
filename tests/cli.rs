//! Integration tests for the `bulkgcd` command-line tool, driving the real
//! binary end to end through temp files.

use std::process::Command;

fn bulkgcd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bulkgcd"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bulkgcd-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = bulkgcd().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("scan"));
}

#[test]
fn unknown_command_fails() {
    let out = bulkgcd().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn gcd_command_matches_reference() {
    // gcd(1043915, 768955) = 5: fedcb / bbbbb in hex... use hex inputs.
    let out = bulkgcd()
        .args(["gcd", "0xfedcb", "0xbbbbb"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "5");
}

#[test]
fn gcd_with_lehmer_and_stats() {
    let out = bulkgcd()
        .args(["gcd", "0xfedcb", "0xbbbbb", "--algo", "lehmer"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "5");

    let out = bulkgcd()
        .args(["gcd", "0xfedcb", "0xbbbbb", "--algo", "E", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("iterations:"));
}

#[test]
fn gen_scan_check_pipeline() {
    let dir = tempdir();
    let corpus = dir.join("corpus.txt");
    let truth = dir.join("truth.txt");

    // Generate a small weak corpus.
    let out = bulkgcd()
        .args([
            "gen",
            "--keys",
            "12",
            "--bits",
            "128",
            "--weak-pairs",
            "2",
            "--seed",
            "7",
            "--out",
            corpus.to_str().unwrap(),
            "--truth",
            truth.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Scan it on every engine; findings must match the ground truth.
    let truth_text = std::fs::read_to_string(&truth).unwrap();
    let expected: Vec<(String, String, String)> = truth_text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            (
                it.next().unwrap().to_string(),
                it.next().unwrap().to_string(),
                it.next().unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(expected.len(), 2);

    for engine in ["cpu", "gpu", "batch"] {
        let out = bulkgcd()
            .args(["scan", corpus.to_str().unwrap(), "--engine", engine])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "engine {engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let findings: Vec<(String, String, String)> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| {
                let mut it = l.split_whitespace();
                (
                    it.next().unwrap().to_string(),
                    it.next().unwrap().to_string(),
                    it.next().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(findings, expected, "engine {engine}");
    }

    // `blocks` names no engine: scan refuses it.
    let out = bulkgcd()
        .args(["scan", corpus.to_str().unwrap(), "--engine", "blocks"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));

    // Incremental check: a fresh modulus sharing a prime with the corpus.
    let factor_hex = &expected[0].2;
    // Build a new modulus = shared prime * some odd cofactor (not prime,
    // but the index only computes a GCD, so any cofactor works).
    let p = bulk_gcd::prelude::Nat::from_hex(factor_hex).unwrap();
    let weak_n = p.mul(&bulk_gcd::prelude::Nat::from(0xffff_fffbu32));
    let out = bulkgcd()
        .args(["check", corpus.to_str().unwrap(), &weak_n.to_hex()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("WEAK"));

    // And a clean one.
    let out = bulkgcd()
        .args(["check", corpus.to_str().unwrap(), "0xffffffffffffffc5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The stderr timing line names the vector-pass ISA for the engines that
/// can run the lockstep kernel, and only for them; stdout is the same
/// findings on every engine.
#[test]
fn scan_timing_line_names_the_kernel_isa() {
    let dir = tempdir();
    let corpus = dir.join("isa-corpus.txt");
    let out = bulkgcd()
        .args(["gen", "--keys", "10", "--bits", "256", "--weak-pairs", "2"])
        .args(["--seed", "11", "--out", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let tag = format!("[vector pass: {}]", bulk_gcd::core::kernel_isa());
    let mut stdouts = Vec::new();
    for engine in ["cpu", "lockstep", "auto", "gpu"] {
        let out = bulkgcd()
            .args(["scan", corpus.to_str().unwrap(), "--engine", engine])
            .output()
            .unwrap();
        assert!(out.status.success(), "engine {engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let timing = stderr
            .lines()
            .find(|l| l.contains("us/GCD"))
            .unwrap_or_else(|| panic!("engine {engine}: no timing line in {stderr}"));
        assert_eq!(
            timing.ends_with(&tag),
            engine != "cpu",
            "{engine}: {timing}"
        );
        stdouts.push(out.stdout);
    }
    assert!(stdouts.iter().all(|s| *s == stdouts[0] && !s.is_empty()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn break_engine_batch_matches_default_engine() {
    let dir = tempdir();
    let corpus = dir.join("corpus.txt");
    let out = bulkgcd()
        .args([
            "gen",
            "--keys",
            "24",
            "--bits",
            "128",
            "--weak-pairs",
            "3",
            "--seed",
            "13",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let run = |extra: &[&str]| {
        let out = bulkgcd()
            .arg("break")
            .arg(&corpus)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        )
    };
    let (default, _) = run(&[]);
    let (batch, batch_log) = run(&["--engine", "batch"]);
    assert_eq!(
        default.lines().count(),
        6,
        "three weak pairs break six keys"
    );
    assert_eq!(batch, default);
    assert!(batch_log.contains("[batch]"), "{batch_log}");
    let (lockstep, _) = run(&["--engine", "lockstep"]);
    assert_eq!(lockstep, default);
}

#[test]
fn break_recovers_working_private_exponents() {
    use bulk_gcd::prelude::*;
    let dir = tempdir();
    let corpus = dir.join("corpus.txt");
    let out = bulkgcd()
        .args([
            "gen",
            "--keys",
            "8",
            "--bits",
            "128",
            "--weak-pairs",
            "1",
            "--seed",
            "11",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = bulkgcd()
        .args(["break", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let broken: Vec<(usize, Nat, Nat)> = stdout
        .lines()
        .map(|l| {
            let mut it = l.split_whitespace();
            (
                it.next().unwrap().parse().unwrap(),
                Nat::from_hex(it.next().unwrap()).unwrap(),
                Nat::from_hex(it.next().unwrap()).unwrap(),
            )
        })
        .collect();
    assert_eq!(broken.len(), 2, "one weak pair breaks two keys");

    // Verify each recovered d against the corpus moduli: e*d = 1 mod phi,
    // equivalently (m^e)^d = m for a test message.
    let moduli: Vec<Nat> = std::fs::read_to_string(&corpus)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| Nat::from_hex(l.trim()).unwrap())
        .collect();
    for (idx, factor, d) in &broken {
        let n = &moduli[*idx];
        assert!(n.rem(factor).is_zero(), "factor divides modulus");
        let m = Nat::from(0xabcdu32);
        let c = m.modpow(&Nat::from(65_537u32), n);
        assert_eq!(c.modpow(d, n), m, "recovered d decrypts for key {idx}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_then_arena_scan_matches_plain_scan() {
    let dir = tempdir();
    let corpus = dir.join("corpus.txt");
    let arena = dir.join("corpus.arena");

    let out = bulkgcd()
        .args([
            "gen",
            "--keys",
            "10",
            "--bits",
            "128",
            "--weak-pairs",
            "2",
            "--seed",
            "13",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Quarantine bait at the top of the file shifts every raw index by 3,
    // so the arena's acceptance index has real work to do.
    let generated = std::fs::read_to_string(&corpus).unwrap();
    std::fs::write(
        &corpus,
        format!("# hostile prefix\n0\n10\nffffffff\n{generated}"),
    )
    .unwrap();

    // Baseline: plain text scan (raw indices on stdout).
    let plain = bulkgcd()
        .args(["scan", corpus.to_str().unwrap(), "--min-bits", "64"])
        .output()
        .unwrap();
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );
    let plain_stdout = String::from_utf8_lossy(&plain.stdout).to_string();
    assert!(!plain_stdout.trim().is_empty(), "weak pairs must be found");

    // Compile the arena.
    let out = bulkgcd()
        .args([
            "ingest",
            corpus.to_str().unwrap(),
            "--out",
            arena.to_str().unwrap(),
            "--min-bits",
            "64",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("quarantined"));

    // Arena scan, whole-corpus path.
    let whole = bulkgcd()
        .args(["scan", arena.to_str().unwrap(), "--arena"])
        .output()
        .unwrap();
    assert!(
        whole.status.success(),
        "{}",
        String::from_utf8_lossy(&whole.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&whole.stdout), plain_stdout);

    // Arena scan under a chunk budget far smaller than the corpus: the
    // streamed windows must reproduce the findings byte for byte.
    let chunked = bulkgcd()
        .args([
            "scan",
            arena.to_str().unwrap(),
            "--arena",
            "--chunk-limbs",
            "8",
        ])
        .output()
        .unwrap();
    assert!(
        chunked.status.success(),
        "{}",
        String::from_utf8_lossy(&chunked.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&chunked.stdout), plain_stdout);

    // Sharded arena scan goes through the same acceptance index.
    let sharded = bulkgcd()
        .args(["scan", arena.to_str().unwrap(), "--arena", "--shards", "3"])
        .output()
        .unwrap();
    assert!(
        sharded.status.success(),
        "{}",
        String::from_utf8_lossy(&sharded.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&sharded.stdout), plain_stdout);

    // A truncated arena is refused, not mis-scanned.
    let bytes = std::fs::read(&arena).unwrap();
    std::fs::write(&arena, &bytes[..bytes.len() - 7]).unwrap();
    let out = bulkgcd()
        .args(["scan", arena.to_str().unwrap(), "--arena"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn arena_scan_writes_metrics_out() {
    let dir = tempdir();
    let corpus = dir.join("corpus.txt");
    let arena = dir.join("corpus.arena");
    let out = bulkgcd()
        .args([
            "gen",
            "--keys",
            "12",
            "--bits",
            "128",
            "--weak-pairs",
            "2",
            "--seed",
            "17",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bulkgcd()
        .args([
            "ingest",
            corpus.to_str().unwrap(),
            "--out",
            arena.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let plain = bulkgcd()
        .args(["scan", corpus.to_str().unwrap(), "--engine", "lockstep"])
        .output()
        .unwrap();
    assert!(plain.status.success());

    // Plain and sharded arena scans both honour --metrics-out, and the
    // findings on stdout stay those of the text scan.
    for extra in [&[][..], &["--shards", "2"][..]] {
        let metrics = dir.join(format!("metrics-{}.json", extra.len()));
        let out = bulkgcd()
            .args([
                "scan",
                arena.to_str().unwrap(),
                "--arena",
                "--engine",
                "lockstep",
                "--metrics-out",
                metrics.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, plain.stdout, "{extra:?}");
        let json = std::fs::read_to_string(&metrics)
            .unwrap_or_else(|e| panic!("{extra:?}: no metrics file written: {e}"));
        assert!(json.contains("\"total_launches\""), "{extra:?}: {json}");
    }

    // The streaming scan has no launches to report: refused, not ignored.
    let metrics = dir.join("metrics-chunked.json");
    let out = bulkgcd()
        .args([
            "scan",
            arena.to_str().unwrap(),
            "--arena",
            "--chunk-limbs",
            "8",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics-out"));
    assert!(!metrics.exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_requires_an_output_path() {
    let dir = tempdir();
    let corpus = dir.join("corpus.txt");
    std::fs::write(&corpus, "ffffffffffffffc5\n").unwrap();
    let out = bulkgcd()
        .args(["ingest", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_missing_file_errors() {
    let out = bulkgcd()
        .args(["scan", "/nonexistent/corpus.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn corpus_parse_error_reports_line() {
    let dir = tempdir();
    let corpus = dir.join("bad.txt");
    std::fs::write(&corpus, "abc123\nnot-hex!\n").unwrap();
    let out = bulkgcd()
        .args(["scan", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains(":2"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `bulkgcd check` against a corpus of three index segments (160 512-bit
/// moduli, 2560 limbs): a planted shared prime in the last segment, an
/// exact duplicate, a clean key and an even candidate, stdout pinned.
#[test]
fn check_on_a_corpus_spanning_several_index_segments() {
    use bulk_gcd::prelude::Nat;

    let dir = tempdir();
    let corpus = dir.join("segments.txt");
    // Pseudo-random odd 512-bit moduli; the one at line 150 carries the
    // Mersenne prime 2^127 − 1.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut odd = |limbs: usize| {
        let mut v: Vec<u32> = (0..limbs)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u32
            })
            .collect();
        v[0] |= 1;
        v[limbs - 1] |= 1 << 31;
        Nat::from_limbs(&v)
    };
    let m127 = Nat::one().shl(127).sub(&Nat::one());
    let moduli: Vec<Nat> = (0..160)
        .map(|i| {
            if i == 150 {
                m127.mul(&odd(12))
            } else {
                odd(16)
            }
        })
        .collect();
    let text: String = moduli.iter().map(|n| n.to_hex() + "\n").collect();
    std::fs::write(&corpus, text).unwrap();

    let check = |candidate: &Nat| {
        let out = bulkgcd()
            .args(["check", corpus.to_str().unwrap(), &candidate.to_hex()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    // 2^89 − 1 is prime too, so the planted prime is the whole answer.
    let m89 = Nat::one().shl(89).sub(&Nat::one());
    let weak = format!("WEAK: shares factor {}\n", m127.to_hex());
    assert_eq!(check(&m127.mul(&m89)), weak);
    assert_eq!(check(&m127.shl(1)), weak, "even candidate");
    assert_eq!(
        check(&moduli[150]),
        format!("WEAK: shares factor {}\n", moduli[150].to_hex()),
        "a duplicate shares itself"
    );
    assert_eq!(
        check(&Nat::from_hex("ffffffffffffffc5").unwrap()),
        "clean: no factor shared with the 160 indexed moduli\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One §V reporting rule for every engine: under early termination a
/// finding stays exactly when its factor has at least `min(bits_i,
/// bits_j)/2` bits. The mixed-width corpus holds two 64-bit moduli sharing
/// the factor 3 (below their 32-bit threshold), two 256-bit moduli
/// sharing an 80-bit prime (above the 32-bit threshold a launch folds
/// from its narrow pairs, below the pair's own 128 bits) and two 256-bit
/// moduli sharing a 128-bit prime, which every engine reports. Every
/// engine prints the same stdout; with `--full`, `cpu` and `batch` print
/// all three pairs.
#[test]
fn every_engine_reports_by_the_per_pair_rule_on_a_mixed_width_corpus() {
    use bulkgcd_bigint::{prime::random_prime, Nat};
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(25);
    let mut prime = |bits| random_prime(&mut rng, bits);
    let three = Nat::from_u64(3);
    let (small, big) = (prime(80), prime(128));
    let moduli = [
        three.mul(&prime(62)),
        small.mul(&prime(176)),
        big.mul(&prime(128)),
        three.mul(&prime(62)),
        small.mul(&prime(176)),
        big.mul(&prime(128)),
    ];
    let dir = tempdir();
    let corpus = dir.join("mixed.txt");
    let text: String = moduli.iter().map(|n| n.to_hex() + "\n").collect();
    std::fs::write(&corpus, text).unwrap();
    let scan = |engine: &str, extra: &[&str]| {
        let out = bulkgcd()
            .arg("scan")
            .arg(&corpus)
            .args(["--engine", engine])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let cpu = scan("cpu", &[]);
    assert_eq!(cpu, format!("2 5 {}\n", big.to_hex()));
    for engine in ["lockstep", "gpu", "batch", "auto"] {
        assert_eq!(scan(engine, &[]), cpu, "--engine {engine}");
    }
    let full = scan("cpu", &["--full"]);
    assert_eq!(scan("batch", &["--full"]), full);
    assert_eq!(
        full,
        format!("0 3 3\n1 4 {}\n2 5 {}\n", small.to_hex(), big.to_hex())
    );
    std::fs::remove_dir_all(&dir).ok();
}
