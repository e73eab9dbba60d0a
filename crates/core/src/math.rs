//! Log-domain combinatorics for the approximation analysis.
//!
//! Equation (1) of the paper needs binomial coefficients of the form
//! `C(10^7, 100)`, far beyond integer arithmetic; everything here works
//! in log space through a Lanczos approximation of `ln Γ`.

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation (g = 7, 9 coefficients): relative error below
/// 1e-13 over the positive reals, more than enough for probability
/// computations.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Coefficients for g = 7.
    const G: f64 = 7.0;
    #[expect(clippy::excessive_precision, reason = "published Lanczos constants")]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps precision near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns negative infinity when `k > n` (the coefficient is zero).
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Hypergeometric pmf: probability that a uniformly random `draws`-subset
/// of a population of `population` items contains exactly `hits` of the
/// `successes` marked items.
pub fn hypergeometric_pmf(population: u64, successes: u64, draws: u64, hits: u64) -> f64 {
    if hits > successes || hits > draws || draws - hits > population - successes {
        return 0.0;
    }
    (ln_choose(successes, hits) + ln_choose(population - successes, draws - hits)
        - ln_choose(population, draws))
    .exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let got = ln_gamma((i + 1) as f64);
            assert!((got - f.ln()).abs() < 1e-10, "Γ({})", i + 1);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(π).
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_large_argument_stirling() {
        // Compare against Stirling series for x = 1e6.
        let x: f64 = 1.0e6;
        let stirling =
            (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x);
        assert!((ln_gamma(x) - stirling).abs() < 1e-6);
    }

    #[test]
    fn ln_choose_small_cases() {
        assert_eq!(ln_choose(5, 0), 0.0);
        assert_eq!(ln_choose(5, 5), 0.0);
        assert!((ln_choose(5, 2) - (10.0f64).ln()).abs() < 1e-12);
        assert!((ln_choose(52, 5) - (2_598_960.0f64).ln()).abs() < 1e-9);
        assert_eq!(ln_choose(3, 7), f64::NEG_INFINITY);
    }

    #[test]
    fn hypergeometric_sums_to_one() {
        let (population, successes, draws) = (1000u64, 50u64, 100u64);
        let total: f64 = (0..=50)
            .map(|h| hypergeometric_pmf(population, successes, draws, h))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn hypergeometric_mean() {
        // E[X] = draws * successes / population.
        let (population, successes, draws) = (10_000u64, 100u64, 500u64);
        let mean: f64 = (0..=100)
            .map(|h| h as f64 * hypergeometric_pmf(population, successes, draws, h))
            .sum();
        assert!((mean - 5.0).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn hypergeometric_impossible_cases_are_zero() {
        assert_eq!(hypergeometric_pmf(10, 3, 5, 4), 0.0);
        assert_eq!(hypergeometric_pmf(10, 3, 2, 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_non_positive() {
        let _ = ln_gamma(0.0);
    }
}
