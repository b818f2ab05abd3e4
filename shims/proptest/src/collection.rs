//! Collection strategies (`proptest::collection::vec`).

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::strategy::Strategy;

/// Strategy producing a `Vec` of values from an element strategy, with a
/// length drawn uniformly from `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut SmallRng) -> Vec<S::Value> {
        let len = if self.size.is_empty() { 0 } else { rng.gen_range(self.size.clone()) };
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}
