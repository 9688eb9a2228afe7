//! Word-wide coverage kernels: the popcount / AND-popcount / OR-merge
//! primitives every bit-level structure in the crate bottoms out in.
//!
//! Each kernel processes the words in chunks of [`LANES`] `u64`s with
//! independent per-lane accumulators and finishes with a scalar tail. The
//! fixed-width inner loop carries no loop-dependent state between lanes,
//! so LLVM autovectorises it (AVX2 `vpand` + popcount sequences on
//! x86-64, NEON `cnt` on aarch64) and, failing that, still wins on scalar
//! hosts through instruction-level parallelism — eight independent
//! popcount chains instead of one serial `acc +=` chain. The shape is
//! `std::simd`-ready: each `[u64; LANES]` block maps 1:1 onto a `u64x8`.
//!
//! The reduction is an integer sum, so reassociating it into lanes is
//! exact. The tests below pin every kernel against a plain per-word fold
//! (kept there as the oracle) on adversarial block counts — 0, 1, 7, 8, 9
//! and every non-multiple-of-lane tail proptest reaches.

/// Words per chunk. Eight `u64`s = one AVX-512 register, two AVX2
/// registers, or eight independent scalar chains — wide enough to keep
/// any of those busy, small enough that tails stay cheap.
pub const LANES: usize = 8;

/// Number of set bits across `words`.
pub fn popcount(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(LANES);
    let mut acc = [0u64; LANES];
    for chunk in &mut chunks {
        for lane in 0..LANES {
            acc[lane] += u64::from(chunk[lane].count_ones());
        }
    }
    let mut total: u64 = acc.iter().sum();
    for &w in chunks.remainder() {
        total += u64::from(w.count_ones());
    }
    total
}

/// Number of set bits in the intersection `a ∧ b`. Slices must have
/// equal length.
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut acc = [0u64; LANES];
    for (x, y) in (&mut ca).zip(&mut cb) {
        for lane in 0..LANES {
            acc[lane] += u64::from((x[lane] & y[lane]).count_ones());
        }
    }
    let mut total: u64 = acc.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        total += u64::from((x & y).count_ones());
    }
    total
}

/// Number of set bits in the three-way intersection `a ∧ b ∧ c`. Slices
/// must have equal length. This is the correction term of the move
/// engine's exact swap delta: the trajectories an outgoing billboard
/// covers alone that the incoming one covers too.
pub fn and3_popcount(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
    assert!(
        a.len() == b.len() && b.len() == c.len(),
        "kernel operand length mismatch"
    );
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut cc = c.chunks_exact(LANES);
    let mut acc = [0u64; LANES];
    for ((x, y), z) in (&mut ca).zip(&mut cb).zip(&mut cc) {
        for lane in 0..LANES {
            acc[lane] += u64::from((x[lane] & y[lane] & z[lane]).count_ones());
        }
    }
    let mut total: u64 = acc.iter().sum();
    for ((&x, &y), &z) in ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .zip(cc.remainder())
    {
        total += u64::from((x & y & z).count_ones());
    }
    total
}

/// Number of set bits in the union `a ∨ b`. Slices must have equal
/// length.
pub fn or_popcount(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut acc = [0u64; LANES];
    for (x, y) in (&mut ca).zip(&mut cb) {
        for lane in 0..LANES {
            acc[lane] += u64::from((x[lane] | y[lane]).count_ones());
        }
    }
    let mut total: u64 = acc.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        total += u64::from((x | y).count_ones());
    }
    total
}

/// In-place union `dst |= src`. Slices must have equal length.
pub fn or_merge(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "kernel operand length mismatch");
    let mut cd = dst.chunks_exact_mut(LANES);
    let mut cs = src.chunks_exact(LANES);
    for (d, s) in (&mut cd).zip(&mut cs) {
        for lane in 0..LANES {
            d[lane] |= s[lane];
        }
    }
    for (d, &s) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
        *d |= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Per-word reference folds: the oracles the chunked kernels must
    // match bit for bit.

    fn popcount_scalar(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn and_popcount_scalar(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u64::from((x & y).count_ones()))
            .sum()
    }

    fn and3_popcount_scalar(a: &[u64], b: &[u64], c: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .zip(c)
            .map(|((&x, &y), &z)| u64::from((x & y & z).count_ones()))
            .sum()
    }

    fn or_popcount_scalar(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u64::from((x | y).count_ones()))
            .sum()
    }

    fn or_merge_scalar(dst: &mut [u64], src: &[u64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
    }

    /// Empty, a lone word, one-short-of-a-chunk, exactly one chunk,
    /// one-past-a-chunk — every chunks_exact/remainder boundary.
    const ADVERSARIAL_LENS: [usize; 7] = [0, 1, 7, 8, 9, 15, 17];

    fn patterned(len: usize, seed: u64) -> Vec<u64> {
        // Deterministic, bit-dense words exercising all lanes differently.
        (0..len as u64)
            .map(|i| {
                (seed ^ i)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left((i % 64) as u32)
            })
            .collect()
    }

    /// Pads or truncates `words` to `len` with zeros, so proptest can draw
    /// operands independently and still hand the kernels equal lengths.
    fn fit(words: &[u64], len: usize) -> Vec<u64> {
        words
            .iter()
            .chain(std::iter::repeat(&0))
            .take(len)
            .copied()
            .collect()
    }

    #[test]
    fn kernels_match_oracles_on_adversarial_lengths() {
        for &len in &ADVERSARIAL_LENS {
            for seed in [0u64, 1, u64::MAX, 0xdead_beef] {
                let a = patterned(len, seed);
                let b = patterned(len, seed.wrapping_add(77));
                let c = patterned(len, seed.wrapping_add(1234));
                assert_eq!(popcount(&a), popcount_scalar(&a), "pop len {len}");
                assert_eq!(
                    and_popcount(&a, &b),
                    and_popcount_scalar(&a, &b),
                    "and len {len}"
                );
                assert_eq!(
                    and3_popcount(&a, &b, &c),
                    and3_popcount_scalar(&a, &b, &c),
                    "and3 len {len}"
                );
                assert_eq!(
                    or_popcount(&a, &b),
                    or_popcount_scalar(&a, &b),
                    "or len {len}"
                );
                let mut d1 = a.clone();
                let mut d2 = a.clone();
                or_merge(&mut d1, &b);
                or_merge_scalar(&mut d2, &b);
                assert_eq!(d1, d2, "merge len {len}");
            }
        }
    }

    #[test]
    fn all_ones_and_all_zeros() {
        for &len in &ADVERSARIAL_LENS {
            let ones = vec![u64::MAX; len];
            let zeros = vec![0u64; len];
            assert_eq!(popcount(&ones), 64 * len as u64);
            assert_eq!(popcount(&zeros), 0);
            assert_eq!(and_popcount(&ones, &zeros), 0);
            assert_eq!(and3_popcount(&ones, &ones, &ones), 64 * len as u64);
            assert_eq!(and3_popcount(&ones, &ones, &zeros), 0);
            assert_eq!(or_popcount(&ones, &zeros), 64 * len as u64);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = and_popcount(&[0], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_three_operand_lengths_rejected() {
        let _ = and3_popcount(&[0, 1], &[0, 1], &[0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every kernel, every reachable tail length: chunked == oracle.
        #[test]
        fn prop_kernels_match_oracles(
            a in proptest::collection::vec(any::<u64>(), 0..100),
            extra in proptest::collection::vec(any::<u64>(), 0..100),
            third in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let b = fit(&extra, a.len());
            let c = fit(&third, a.len());
            prop_assert_eq!(popcount(&a), popcount_scalar(&a));
            prop_assert_eq!(and_popcount(&a, &b), and_popcount_scalar(&a, &b));
            prop_assert_eq!(and3_popcount(&a, &b, &c), and3_popcount_scalar(&a, &b, &c));
            prop_assert_eq!(or_popcount(&a, &b), or_popcount_scalar(&a, &b));
            let mut d1 = a.clone();
            let mut d2 = a.clone();
            or_merge(&mut d1, &b);
            or_merge_scalar(&mut d2, &b);
            prop_assert_eq!(d1, d2);
        }

        /// Popcount invariants tying the counting kernels together:
        /// |a| + |b| == |a∧b| + |a∨b|, and the three-way intersection is
        /// the two-way one restricted by `c` (`c` all ones recovers it).
        #[test]
        fn prop_inclusion_exclusion(
            triples in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>()),
                0..64,
            ),
        ) {
            let a: Vec<u64> = triples.iter().map(|&(x, _, _)| x).collect();
            let b: Vec<u64> = triples.iter().map(|&(_, y, _)| y).collect();
            let c: Vec<u64> = triples.iter().map(|&(_, _, z)| z).collect();
            prop_assert_eq!(
                popcount(&a) + popcount(&b),
                and_popcount(&a, &b) + or_popcount(&a, &b)
            );
            let ones = vec![u64::MAX; a.len()];
            prop_assert_eq!(and3_popcount(&a, &b, &ones), and_popcount(&a, &b));
            prop_assert!(and3_popcount(&a, &b, &c) <= and_popcount(&a, &b));
        }
    }
}
