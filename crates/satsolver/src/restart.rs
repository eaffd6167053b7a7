//! Luby restart sequence.

/// Returns the `i`-th element (1-based) of the Luby sequence
/// `1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …`.
///
/// The solver restarts after `luby(i) * RESTART_INTERVAL` conflicts in its
/// `i`-th restart period, the schedule shown by Luby, Sinclair and Zuckerman
/// to be universally optimal for Las Vegas algorithms and used by MiniSat
/// and CryptoMiniSAT alike.
pub(crate) fn luby(i: u64) -> u64 {
    debug_assert!(i >= 1);
    // Classic MiniSat formulation over a zero-based index: find the finite
    // subsequence that contains the index, then the position within it.
    let mut x = i - 1;
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Iterator over restart thresholds (`luby(i) * base` for `i = 1, 2, …`).
#[derive(Debug, Clone)]
pub(crate) struct LubyRestarts {
    base: u64,
    index: u64,
}

impl LubyRestarts {
    pub(crate) fn new(base: u64) -> Self {
        LubyRestarts { base, index: 0 }
    }

    /// Returns the conflict budget of the next restart period.
    pub(crate) fn next_limit(&mut self) -> u64 {
        self.index += 1;
        luby(self.index) * self.base.max(1)
    }

    /// Rewinds the sequence to its start. Called on every cold solve entry:
    /// a long-lived incremental solver would otherwise crawl ever deeper
    /// into the Luby sequence and effectively stop restarting, degrading
    /// search on later cells relative to a freshly built solver.
    pub(crate) fn reset(&mut self) {
        self.index = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix_matches_reference() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1];
        let got: Vec<u64> = (1..=expected.len() as u64).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn luby_values_are_powers_of_two() {
        for i in 1..200u64 {
            assert!(luby(i).is_power_of_two());
        }
    }

    #[test]
    fn restart_iterator_scales_by_base() {
        let mut r = LubyRestarts::new(100);
        assert_eq!(r.next_limit(), 100);
        assert_eq!(r.next_limit(), 100);
        assert_eq!(r.next_limit(), 200);
        assert_eq!(r.next_limit(), 100);
    }

    #[test]
    fn zero_base_is_clamped() {
        let mut r = LubyRestarts::new(0);
        assert_eq!(r.next_limit(), 1);
    }
}
