//! Deep Squish pattern representation (paper §III-B, Fig. 5).
//!
//! Diffusion-model cost scales with spatial input size far more than with
//! channel count, so DiffPattern *folds* the `√C·M x √C·M` topology matrix
//! into a `C x M x M` binary tensor: each `√C x √C` patch becomes one
//! spatial position with `C` channels, every bit keeping equal weight
//! (unlike naive bit-packing, which assigns exponentially unbalanced powers
//! to the bits — the pitfall Fig. 5 illustrates). Folding is lossless;
//! [`DeepSquishTensor::unfold`] restores the matrix exactly.

use crate::SquishError;
use dp_geometry::BitGrid;

/// A folded binary topology tensor of shape `C x M x M`.
///
/// Channel `ch = pi * √C + pj` holds the bit at offset `(pi, pj)` within
/// each patch, where `pi` indexes patch rows and `pj` patch columns.
///
/// ```
/// use dp_geometry::BitGrid;
/// use dp_squish::DeepSquishTensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let matrix = BitGrid::from_ascii(
///     "#..#
///      ....
///      .##.
///      #..#",
/// )?;
/// let tensor = DeepSquishTensor::fold(&matrix, 4)?;
/// assert_eq!(tensor.channels(), 4);
/// assert_eq!(tensor.side(), 2);
/// assert_eq!(tensor.unfold(), matrix);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeepSquishTensor {
    channels: usize,
    side: usize,
    /// Channel-major data: `data[ch][m * side + n]` for spatial `(n, m)`
    /// with row `m` counted bottom-up like [`BitGrid`].
    data: Vec<bool>,
}

impl DeepSquishTensor {
    /// Folds a square topology matrix into a `channels x M x M` tensor.
    ///
    /// # Errors
    ///
    /// * [`SquishError::ChannelsNotSquare`] when `channels` is not a perfect
    ///   square,
    /// * [`SquishError::NotFoldable`] when the matrix is not square or its
    ///   side is not divisible by `√channels`.
    pub fn fold(matrix: &BitGrid, channels: usize) -> Result<Self, SquishError> {
        let patch = int_sqrt(channels).ok_or(SquishError::ChannelsNotSquare { channels })?;
        if matrix.width() != matrix.height() {
            return Err(SquishError::NotFoldable {
                side: matrix.width().max(matrix.height()),
                patch,
            });
        }
        if !matrix.width().is_multiple_of(patch) {
            return Err(SquishError::NotFoldable {
                side: matrix.width(),
                patch,
            });
        }
        let side = matrix.width() / patch;
        let mut data = vec![false; channels * side * side];
        for m in 0..side {
            for n in 0..side {
                for pi in 0..patch {
                    for pj in 0..patch {
                        let ch = pi * patch + pj;
                        let bit = matrix.get(n * patch + pj, m * patch + pi);
                        data[ch * side * side + m * side + n] = bit;
                    }
                }
            }
        }
        Ok(DeepSquishTensor {
            channels,
            side,
            data,
        })
    }

    /// Builds a tensor directly from channel-major bits.
    ///
    /// # Errors
    ///
    /// * [`SquishError::ChannelsNotSquare`] for a non-square channel count,
    /// * [`SquishError::DeltaShapeMismatch`] is never returned; shape errors
    ///   surface as [`SquishError::NotFoldable`] with the offending side.
    pub fn from_bits(channels: usize, side: usize, data: Vec<bool>) -> Result<Self, SquishError> {
        let patch = int_sqrt(channels).ok_or(SquishError::ChannelsNotSquare { channels })?;
        if data.len() != channels * side * side || side == 0 {
            return Err(SquishError::NotFoldable { side, patch });
        }
        Ok(DeepSquishTensor {
            channels,
            side,
            data,
        })
    }

    /// Number of channels `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial side length `M`.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Patch side `√C`.
    pub fn patch(&self) -> usize {
        int_sqrt(self.channels).expect("validated at construction")
    }

    /// The bit at channel `ch`, spatial position `(n, m)` (column, row).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, ch: usize, n: usize, m: usize) -> bool {
        assert!(ch < self.channels && n < self.side && m < self.side);
        self.data[ch * self.side * self.side + m * self.side + n]
    }

    /// Sets the bit at channel `ch`, spatial position `(n, m)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, ch: usize, n: usize, m: usize, value: bool) {
        assert!(ch < self.channels && n < self.side && m < self.side);
        self.data[ch * self.side * self.side + m * self.side + n] = value;
    }

    /// Channel-major raw bits.
    pub fn bits(&self) -> &[bool] {
        &self.data
    }

    /// Mutable channel-major raw bits: any value combination is a valid
    /// tensor of the same shape, so in-place mutation cannot break the
    /// shape invariants. The diffusion sampler flips entries in place to
    /// keep its denoising loop allocation-free.
    pub fn bits_mut(&mut self) -> &mut [bool] {
        &mut self.data
    }

    /// Total number of bits (`C * M * M`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no bits (impossible for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Unfolds back into the `√C·M x √C·M` topology matrix (the exact
    /// inverse of [`DeepSquishTensor::fold`]).
    pub fn unfold(&self) -> BitGrid {
        let patch = self.patch();
        let full = self.side * patch;
        let mut matrix = BitGrid::new(full, full).expect("side > 0");
        for m in 0..self.side {
            for n in 0..self.side {
                for pi in 0..patch {
                    for pj in 0..patch {
                        let ch = pi * patch + pj;
                        if self.get(ch, n, m) {
                            matrix.set(n * patch + pj, m * patch + pi, true);
                        }
                    }
                }
            }
        }
        matrix
    }

    /// Converts the bits to an `f32` buffer in channel-major layout
    /// (`1.0` filled / `0.0` empty), the input format of the U-Net.
    pub fn to_f32(&self) -> Vec<f32> {
        self.data
            .iter()
            .map(|&b| if b { 1.0 } else { 0.0 })
            .collect()
    }

    /// Builds a tensor by thresholding an `f32` buffer at `0.5`.
    ///
    /// # Errors
    ///
    /// Same as [`DeepSquishTensor::from_bits`].
    pub fn from_f32(channels: usize, side: usize, values: &[f32]) -> Result<Self, SquishError> {
        DeepSquishTensor::from_bits(channels, side, values.iter().map(|&v| v >= 0.5).collect())
    }
}

fn int_sqrt(n: usize) -> Option<usize> {
    let r = (n as f64).sqrt().round() as usize;
    (r * r == n && n > 0).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fold_unfold_identity() {
        let m = BitGrid::from_ascii(
            "#..#
             .##.
             .##.
             #..#",
        )
        .unwrap();
        for channels in [1, 4, 16] {
            let t = DeepSquishTensor::fold(&m, channels).unwrap();
            assert_eq!(t.unfold(), m, "channels={channels}");
        }
    }

    #[test]
    fn channel_mapping_matches_patch_offsets() {
        // 2x2 matrix, C=4: each cell lands in its own channel at (0,0).
        let m = BitGrid::from_ascii(
            "#.
             .#",
        )
        .unwrap();
        let t = DeepSquishTensor::fold(&m, 4).unwrap();
        assert_eq!(t.side(), 1);
        // ASCII: first line is the TOP row, so filled cells are (0,1) and
        // (1,0). (1,0): patch offset (pi=0, pj=1) -> channel 1.
        assert!(t.get(1, 0, 0));
        // (0,1): (pi=1, pj=0) -> channel 2.
        assert!(t.get(2, 0, 0));
        assert!(!t.get(0, 0, 0));
        assert!(!t.get(3, 0, 0));
    }

    #[test]
    fn rejects_bad_channel_counts() {
        let m = BitGrid::new(4, 4).unwrap();
        assert!(matches!(
            DeepSquishTensor::fold(&m, 3),
            Err(SquishError::ChannelsNotSquare { channels: 3 })
        ));
        assert!(matches!(
            DeepSquishTensor::fold(&m, 0),
            Err(SquishError::ChannelsNotSquare { .. })
        ));
    }

    #[test]
    fn rejects_indivisible_side() {
        let m = BitGrid::new(6, 6).unwrap();
        assert!(matches!(
            DeepSquishTensor::fold(&m, 16),
            Err(SquishError::NotFoldable { side: 6, patch: 4 })
        ));
    }

    #[test]
    fn rejects_non_square_matrix() {
        let m = BitGrid::new(4, 8).unwrap();
        assert!(DeepSquishTensor::fold(&m, 4).is_err());
    }

    #[test]
    fn f32_round_trip() {
        let m = BitGrid::from_ascii(
            "##..
             ....
             ..##
             #..#",
        )
        .unwrap();
        let t = DeepSquishTensor::fold(&m, 4).unwrap();
        let f = t.to_f32();
        let back = DeepSquishTensor::from_f32(4, t.side(), &f).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn bit_count_is_preserved() {
        let m = BitGrid::from_ascii(
            "#.#.
             .#.#
             ####
             ....",
        )
        .unwrap();
        let t = DeepSquishTensor::fold(&m, 4).unwrap();
        let ones = t.bits().iter().filter(|&&b| b).count();
        assert_eq!(ones, m.count_ones());
    }

    proptest! {
        #[test]
        fn random_fold_round_trips(seed in any::<u64>(), side_patches in 1usize..6) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for channels in [1usize, 4, 9, 16] {
                let patch = (channels as f64).sqrt() as usize;
                let full = side_patches * patch;
                let mut m = BitGrid::new(full, full).unwrap();
                for r in 0..full {
                    for c in 0..full {
                        m.set(c, r, rng.gen_bool(0.4));
                    }
                }
                let t = DeepSquishTensor::fold(&m, channels).unwrap();
                prop_assert_eq!(t.unfold(), m);
            }
        }
    }
}
