//! Output checks and the committed outcome digests.

use mcsched_runtime::DigestBuilder;

/// The seed whose outcome digests are committed in
/// `expected-digests.txt` (the figure binaries' default, `0x5EED`).
pub const DEFAULT_SEED: u64 = 0x5EED;

/// `<workload> <seed> <digest>` lines, one per workload.
const EXPECTED_DIGESTS: &str = include_str!("../expected-digests.txt");

/// One named check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
    /// Set for a check that fails on a known program defect: its failure
    /// is reported and counted, but it does not mark the run incorrect.
    pub known_defect: Option<&'static str>,
}

/// The checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    list: Vec<Check>,
}

impl Checks {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.list.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
            known_defect: None,
        });
    }

    /// A check that is expected to fail until the named defect is fixed.
    pub fn known_defect(
        &mut self,
        name: impl Into<String>,
        passed: bool,
        detail: impl Into<String>,
        defect: &'static str,
    ) {
        self.list.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
            known_defect: Some(defect),
        });
    }

    /// Checks that the digest of a workload's outcomes matches the
    /// committed one. Only the default seed has a committed digest; any
    /// other seed records a skipped (passing) check.
    pub fn digest(&mut self, workload: &str, seed: u64, actual: &str) {
        self.digest_against(EXPECTED_DIGESTS, workload, seed, actual);
    }

    pub fn digest_against(&mut self, expected: &str, workload: &str, seed: u64, actual: &str) {
        let name = "outcome digest matches the committed value";
        if seed != DEFAULT_SEED {
            self.check(
                name,
                true,
                format!("skipped: seed {seed} has no committed digest ({actual})"),
            );
            return;
        }
        let committed = expected.lines().find_map(|line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(w), Some(s), Some(d)) if w == workload && s == seed.to_string() => Some(d),
                _ => None,
            }
        });
        match committed {
            Some(d) => self.check(name, d == actual, format!("expected {d}, got {actual}")),
            None => self.check(
                name,
                false,
                format!("no committed digest for {workload}; got {actual}"),
            ),
        }
    }

    pub fn all(&self) -> &[Check] {
        &self.list
    }

    /// Number of failed checks, known defects included.
    pub fn failed(&self) -> usize {
        self.list.iter().filter(|c| !c.passed).count()
    }

    /// Whether every check passed, apart from known defects.
    pub fn correct(&self) -> bool {
        self.list
            .iter()
            .all(|c| c.passed || c.known_defect.is_some())
    }

    /// Prints one line per check.
    pub fn report(&self) {
        for c in &self.list {
            let status = match (c.passed, c.known_defect) {
                (true, _) => "PASS",
                (false, None) => "FAIL",
                (false, Some(_)) => "FAIL (known defect)",
            };
            let defect = c.known_defect.map_or(String::new(), |d| format!(" [{d}]"));
            println!("check {status}: {}{defect}: {}", c.name, c.detail);
        }
    }
}

/// Digest over a list of `f64` values, bit for bit.
pub fn digest_f64s(label: &str, values: impl IntoIterator<Item = f64>) -> String {
    let mut d = DigestBuilder::new().str(label);
    for v in values {
        d = d.f64(v);
    }
    d.finish().to_hex()
}

/// Whether two float slices are equal bit for bit.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
