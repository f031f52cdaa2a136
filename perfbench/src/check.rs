//! Output checks with failed-operation accounting, and the digest of a
//! workload's deterministic outputs.

/// Attempted and failed operations of one run. A failed check marks its
/// operation failed; it never aborts the run.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Keeps at most this many failure messages for the report.
    const KEPT: usize = 8;

    /// No operations yet.
    pub fn new() -> Checks {
        Checks::default()
    }

    /// Counts one operation, failed when `outcome` is an error. Returns
    /// whether it passed.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < Self::KEPT {
                    self.failures.push(format!("{what}: {e}"));
                }
                false
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations whose check failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failure messages.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// `Ok` when `value` is finite and within `[0, 1]`.
pub fn unit_interval(name: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{name} = {value} is outside [0, 1]"))
    }
}

/// Collects the first error of several checks.
pub fn all(results: impl IntoIterator<Item = Result<(), String>>) -> Result<(), String> {
    results.into_iter().collect()
}

/// FNV-1a over a workload's deterministic outputs: equal across runs of
/// one seed, thread counts and commits that keep the outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes in a float bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes in a string and its length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_check_is_counted_not_raised() {
        let mut c = Checks::new();
        assert!(c.op("good", Ok(())));
        assert!(!c.op("bad", unit_interval("x", 1.5)));
        assert!(!c.op("nan", unit_interval("y", f64::NAN)));
        assert_eq!((c.attempted(), c.failed()), (3, 2));
        assert_eq!(c.failures().len(), 2);
    }

    #[test]
    fn digest_depends_on_order_and_value() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a, c);
    }
}
