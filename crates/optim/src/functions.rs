//! Benchmark objective functions, headed by the "well known Rosenbrock
//! test function widely used for benchmarking optimization algorithms" the
//! paper's §4 evaluates on.

use crate::problem::{Bounds, Problem};

/// The n-dimensional Rosenbrock function
/// `f(x) = Σ_{i<n-1} 100 (x_{i+1} − x_i²)² + (1 − x_i)²`,
/// minimum 0 at `x = (1, …, 1)`.
#[derive(Clone, Debug)]
pub struct Rosenbrock {
    dim: usize,
    bounds: Bounds,
}

impl Rosenbrock {
    /// Standard search box `[-2.048, 2.048]^n`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 2, "Rosenbrock needs at least 2 dimensions");
        Rosenbrock {
            dim,
            bounds: Bounds::uniform(dim, -2.048, 2.048),
        }
    }

    /// One chain term `100 (b − a²)² + (1 − a)²`.
    #[inline]
    pub fn term(a: f64, b: f64) -> f64 {
        let q = b - a * a;
        100.0 * q * q + (1.0 - a) * (1.0 - a)
    }
}

impl Problem for Rosenbrock {
    fn dim(&self) -> usize {
        self.dim
    }

    fn bounds(&self) -> Bounds {
        self.bounds.clone()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        x.windows(2).map(|w| Rosenbrock::term(w[0], w[1])).sum()
    }
}

/// The sphere function `Σ x_i²` (sanity baseline).
#[derive(Clone, Debug)]
pub struct Sphere {
    dim: usize,
}

impl Sphere {
    /// `dim`-dimensional sphere on `[-5, 5]^n`.
    pub fn new(dim: usize) -> Self {
        Sphere { dim }
    }
}

impl Problem for Sphere {
    fn dim(&self) -> usize {
        self.dim
    }

    fn bounds(&self) -> Bounds {
        Bounds::uniform(self.dim, -5.0, 5.0)
    }

    fn eval(&self, x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }
}

/// The Rastrigin function `10n + Σ (x_i² − 10 cos 2πx_i)` — highly
/// multimodal.
#[derive(Clone, Debug)]
pub struct Rastrigin {
    dim: usize,
}

impl Rastrigin {
    /// `dim`-dimensional Rastrigin on `[-5.12, 5.12]^n`.
    pub fn new(dim: usize) -> Self {
        Rastrigin { dim }
    }
}

impl Problem for Rastrigin {
    fn dim(&self) -> usize {
        self.dim
    }

    fn bounds(&self) -> Bounds {
        Bounds::uniform(self.dim, -5.12, 5.12)
    }

    fn eval(&self, x: &[f64]) -> f64 {
        10.0 * self.dim as f64
            + x.iter()
                .map(|v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos())
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosenbrock_minimum_is_zero_at_ones() {
        let f = Rosenbrock::new(10);
        assert_eq!(f.eval(&[1.0; 10]), 0.0);
        assert!(f.eval(&[0.0; 10]) > 0.0);
    }

    #[test]
    fn rosenbrock_matches_term_sum() {
        let f = Rosenbrock::new(3);
        let x = [0.5, -0.25, 1.5];
        let expected = Rosenbrock::term(0.5, -0.25) + Rosenbrock::term(-0.25, 1.5);
        assert!((f.eval(&x) - expected).abs() < 1e-12);
    }

    #[test]
    fn sphere_minimum_at_origin() {
        let f = Sphere::new(4);
        assert_eq!(f.eval(&[0.0; 4]), 0.0);
        assert_eq!(f.eval(&[1.0, 0.0, 0.0, 0.0]), 1.0);
    }

    #[test]
    fn rastrigin_minimum_at_origin() {
        let f = Rastrigin::new(3);
        assert!(f.eval(&[0.0; 3]).abs() < 1e-9);
        assert!(f.eval(&[1.0, 1.0, 1.0]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_rosenbrock_rejected() {
        let _ = Rosenbrock::new(1);
    }
}
