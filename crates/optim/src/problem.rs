//! Optimization problem abstractions.

/// Box constraints: per-dimension lower and upper bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Bounds {
    /// Lower bounds.
    pub lower: Vec<f64>,
    /// Upper bounds.
    pub upper: Vec<f64>,
}

impl Bounds {
    /// Uniform bounds `[lo, hi]^dim`.
    pub fn uniform(dim: usize, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "lower bound must be below upper bound");
        Bounds {
            lower: vec![lo; dim],
            upper: vec![hi; dim],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Clip a point into the box (the Complex method's constraint
    /// handling): `f64::clamp` per coordinate — NaN and `-0.0` pass
    /// through — minus its `lo <= hi` assert, which the optimizer's inner
    /// loop would pay on every coordinate of every candidate.
    pub fn clip(&self, x: &mut [f64]) {
        for ((v, &lo), &hi) in x.iter_mut().zip(&self.lower).zip(&self.upper) {
            if *v < lo {
                *v = lo;
            }
            if *v > hi {
                *v = hi;
            }
        }
    }

    /// Whether a point lies inside the box.
    pub fn contains(&self, x: &[f64]) -> bool {
        x.iter()
            .enumerate()
            .all(|(i, &v)| v >= self.lower[i] && v <= self.upper[i])
    }
}

/// A bound-constrained minimization problem.
pub trait Problem {
    /// Dimension of the search space.
    fn dim(&self) -> usize;
    /// The box constraints.
    fn bounds(&self) -> Bounds;
    /// Objective value at `x` (lower is better).
    fn eval(&self, x: &[f64]) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bounds() {
        let b = Bounds::uniform(3, -2.0, 2.0);
        assert_eq!(b.dim(), 3);
        assert!(b.contains(&[0.0, 1.0, -1.0]));
        assert!(!b.contains(&[0.0, 3.0, 0.0]));
    }

    #[test]
    fn clip_projects_into_box() {
        let b = Bounds::uniform(2, -1.0, 1.0);
        let mut x = [5.0, -3.0];
        b.clip(&mut x);
        assert_eq!(x, [1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn degenerate_bounds_rejected() {
        let _ = Bounds::uniform(2, 1.0, 1.0);
    }
}
