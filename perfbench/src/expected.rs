//! Result digests recorded at the commit that introduced the benchmark.
//!
//! For the default seed (2010) and one held-out seed, every operation's
//! digest is pinned here; a run with either seed fails an operation whose
//! digest differs. Runs with other seeds check each round against the
//! first instead. The held-out seed is for checking claims: tune on the
//! default seed, confirm on the held-out one.

/// The benchmark's default seed.
pub const DEFAULT_SEED: u64 = 2010;
/// The seed kept back for confirming a claim.
pub const HELD_OUT_SEED: u64 = 4099;

/// `(seed, operation, digest)`. The `suite` digest is the FNV-1a of the
/// text `bsld-repro all --jobs 5000 --threads 1 --no-csv --seed <seed>`
/// prints; the replay digests are `replay::load_digest` and
/// `replay::cell_digest`.
const DIGESTS: &[(u64, &str, u64)] = &[
    (DEFAULT_SEED, "suite", 0x9d14_aca7_cea3_c28f),
    (DEFAULT_SEED, "load", 0x9905_a159_db72_f221),
    (DEFAULT_SEED, "baseline", 0xee37_c42d_7f27_6e16),
    (DEFAULT_SEED, "dvfs", 0x334b_40aa_ce63_773d),
    (DEFAULT_SEED, "wq", 0x204c_5bb6_bec5_142b),
    (DEFAULT_SEED, "cap", 0x7f5b_28e2_d6d1_98ad),
    (HELD_OUT_SEED, "suite", 0xc199_5eeb_e76f_04d8),
    (HELD_OUT_SEED, "load", 0xc9e7_3476_b408_241c),
    (HELD_OUT_SEED, "baseline", 0x9148_6895_6c66_913f),
    (HELD_OUT_SEED, "dvfs", 0x8c70_542c_02d6_48a7),
    (HELD_OUT_SEED, "wq", 0xad37_4c55_82f7_7b94),
    (HELD_OUT_SEED, "cap", 0xe12d_6d59_1441_22ee),
];

/// The recorded digest of `op` under `seed`, if any.
pub fn digest(seed: u64, op: &str) -> Option<u64> {
    DIGESTS
        .iter()
        .find(|&&(s, o, _)| s == seed && o == op)
        .map(|&(_, _, d)| d)
}

/// Checks the digest `got` of operation `op`: against the recorded digest
/// for `seed` when there is one, else against `first`, the digest of the
/// operation's first round (set by the first call, which also prints it).
pub fn check(seed: u64, op: &str, got: u64, first: &mut Option<u64>) -> Result<(), String> {
    if first.is_none() {
        eprintln!("perfbench: digest {seed} {op} {got:016x}");
    }
    let want = digest(seed, op).unwrap_or(*first.get_or_insert(got));
    if want == got {
        Ok(())
    } else {
        Err(format!("digest {got:016x}, expected {want:016x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_recorded_seeds_cover_every_operation() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for op in ["suite", "load", "baseline", "dvfs", "wq", "cap"] {
                assert!(digest(seed, op).is_some(), "{seed} {op}");
            }
        }
        assert_eq!(digest(1, "suite"), None);
    }

    #[test]
    fn a_recorded_digest_wins_over_the_first_round() {
        let mut first = None;
        assert!(check(DEFAULT_SEED, "suite", 1, &mut first).is_err());
        let mut first = None;
        assert!(check(7, "suite", 1, &mut first).is_ok());
        assert!(check(7, "suite", 1, &mut first).is_ok());
        assert!(check(7, "suite", 2, &mut first).is_err());
    }
}
