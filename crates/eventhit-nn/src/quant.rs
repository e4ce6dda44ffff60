//! Dynamic int8 quantization: the `Quantized` inference fast lane.
//!
//! Weights are quantized symmetrically per output row at snapshot time
//! (`scale = max|w| / 127`, `q = round(w / scale)` saturated to
//! `[-127, 127]`) and stored as `i8` — a quarter of the `f32` footprint.
//! At inference time each *activation* row is quantized the same way on
//! the fly, the dot products run entirely in `i8 × i8 → i32` integer
//! arithmetic, and the two scales are applied once per output element.
//! Integer multiply-accumulate needs no per-element int→float
//! conversion and vectorizes tightly, which is where the lane's
//! single-core speedup comes from.
//!
//! The lane is *approximate*: per output element the error is bounded by
//! `sx/2 · Σ|w_row| + sw/2 · Σ|x| + k · sx·sw/4`, where `sx`/`sw` are
//! the activation-row and weight-row steps and `k` the reduction depth —
//! each term a half-step round-off against the other operand's L1 mass.
//! The repo's conformal layer absorbs exactly this kind of predictor
//! error — recalibrating the conformal state on quantized-lane scores
//! restores the coverage guarantee (see `DESIGN.md`). The integer
//! accumulation is associativity-exact, so quantized results are
//! bit-identical across worker counts and accumulation orders by
//! construction — the serving layers' packed kernels
//! ([`crate::packed`]) rely on it. Reduction depths must stay below `2^17` so `i32`
//! accumulators cannot overflow (`127² · 2^17 < 2^31`); model layers are
//! orders of magnitude narrower.

use std::fmt;
use std::str::FromStr;

use crate::matrix::Matrix;

/// Which arithmetic a model's `forward_inference` runs on.
///
/// `Exact` is the trained `f32` path, bit-identical to training forward.
/// `Quantized` runs dynamic int8 kernels (int8 weights and activations,
/// exact `i32` accumulation) — faster and approximate; pair it with
/// conformal recalibration on quantized scores so marshalling decisions
/// keep their coverage guarantee.
///
/// ```
/// use eventhit_nn::quant::InferenceLane;
/// assert_eq!(InferenceLane::default(), InferenceLane::Exact);
/// assert_eq!("quantized".parse(), Ok(InferenceLane::Quantized));
/// assert_eq!(InferenceLane::Quantized.to_string(), "quantized");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum InferenceLane {
    /// Full-precision `f32` inference, bit-identical to training forward.
    #[default]
    Exact,
    /// Int8-weight, f32-accumulate fast lane (approximate).
    Quantized,
}

impl fmt::Display for InferenceLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceLane::Exact => f.write_str("exact"),
            InferenceLane::Quantized => f.write_str("quantized"),
        }
    }
}

impl FromStr for InferenceLane {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(InferenceLane::Exact),
            "quantized" => Ok(InferenceLane::Quantized),
            other => Err(format!(
                "unknown inference lane {other:?} (expected \"exact\" or \"quantized\")"
            )),
        }
    }
}

/// An `i8` matrix with one symmetric scale per row: row `r` of the source
/// is approximately `scales[r] * data[r]`.
///
/// ```
/// use eventhit_nn::matrix::Matrix;
/// use eventhit_nn::quant::QuantizedMatrix;
/// let w = Matrix::from_vec(1, 2, vec![1.0, -0.5]);
/// let q = QuantizedMatrix::quantize(&w);
/// let back = q.dequantize();
/// assert!((back[(0, 0)] - 1.0).abs() < 1.0 / 127.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` row by row with symmetric per-row scales.
    ///
    /// Each row's scale is `max|row| / 127`; entries round to the nearest
    /// step and saturate to `[-127, 127]` (the `-128` code is unused so
    /// the grid stays symmetric). An all-zero row gets scale `0` and
    /// dequantizes to exact zeros. Assumes finite weights.
    pub fn quantize(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = m.row(r);
            let amax = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
            if amax == 0.0 {
                scales.push(0.0);
                data.extend(std::iter::repeat_n(0i8, cols));
                continue;
            }
            let scale = amax / 127.0;
            scales.push(scale);
            let inv = 127.0 / amax;
            for &v in row {
                let q = (v * inv).round().clamp(-127.0, 127.0);
                data.push(q as i8);
            }
        }
        QuantizedMatrix {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows quantized row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[i8] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The symmetric scale of row `r`.
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Reconstructs the `f32` matrix this quantization represents.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let scale = self.scales[r];
            for (o, &q) in out.row_mut(r).iter_mut().zip(self.row(r)) {
                *o = scale * f32::from(q);
            }
        }
        out
    }
}

/// Quantizes one activation row symmetrically into `buf` (cleared
/// first), returning its scale. Same grid as [`QuantizedMatrix::quantize`]:
/// `scale = max|v| / 127`, saturating round-to-nearest, zero rows get
/// scale `0`. Generic over the code width so the packed kernels can take
/// the same codes as `i16`.
#[inline]
pub(crate) fn quantize_row<T: From<i8>>(row: &[f32], buf: &mut Vec<T>) -> f32 {
    buf.clear();
    quantize_into(row, buf)
}

/// [`quantize_row`] appending to `buf` instead of replacing it.
pub(crate) fn quantize_into<T: From<i8>>(row: &[f32], buf: &mut Vec<T>) -> f32 {
    let amax = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
    if amax == 0.0 {
        buf.extend(row.iter().map(|_| T::from(0)));
        return 0.0;
    }
    let inv = 127.0 / amax;
    buf.extend(row.iter().map(|&v| T::from(round_code(v * inv))));
    amax / 127.0
}

/// `y.round().clamp(-127.0, 127.0) as i8` without the libm `roundf` call
/// the SSE2 baseline makes for `round`: clamping first cannot change the
/// result (rounding is monotone and ±127 are integers), truncation then
/// splits `y` exactly into an integer and a fraction below 1 in
/// magnitude, and a fraction of at least one half rounds away from zero.
/// NaN truncates to 0, as `NaN as i8` does.
#[inline]
fn round_code(y: f32) -> i8 {
    let y = y.clamp(-127.0, 127.0);
    let t = y as i32;
    let frac = y - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i8
}

/// Exact integer dot of two `i8` rows, accumulated in `i32`. The tight
/// widen-multiply-add loop is what the optimizer vectorizes; correctness
/// needs `a.len() < 2^17` so `127² · len` stays below `i32::MAX` (callers
/// quantize model layers, which are far narrower).
#[inline]
fn doti(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() < 1 << 17, "i32 accumulator overflow bound");
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// Quantized affine map `x * w^T + bias`: each activation row is
/// quantized on the fly, every output element is one exact `i8 × i8 →
/// i32` integer dot, and the activation and weight scales are applied
/// once at the end. Sequential (and therefore worker-count invariant by
/// construction).
///
/// ```
/// use eventhit_nn::matrix::Matrix;
/// use eventhit_nn::quant::{affine_t_quant, QuantizedMatrix};
/// let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
/// let w = QuantizedMatrix::quantize(&Matrix::from_vec(1, 2, vec![3.0, 4.0]));
/// let y = affine_t_quant(&x, &w, &[0.5]);
/// assert!((y[(0, 0)] - 11.5).abs() < 0.1);
/// ```
///
/// # Panics
/// Panics if `x.cols != w.cols` or `bias.len() != w.rows`.
pub fn affine_t_quant(x: &Matrix, w: &QuantizedMatrix, bias: &[f32]) -> Matrix {
    assert_eq!(
        x.cols(),
        w.cols(),
        "affine_t_quant shape mismatch: {}x{} * ({}x{})^T",
        x.rows(),
        x.cols(),
        w.rows(),
        w.cols()
    );
    assert_eq!(bias.len(), w.rows(), "affine_t_quant bias length mismatch");
    let out_cols = w.rows();
    let mut out = Matrix::zeros(x.rows(), out_cols);
    let mut xq = Vec::with_capacity(x.cols());
    for r in 0..x.rows() {
        let sx = quantize_row(x.row(r), &mut xq);
        let out_row = out.row_mut(r);
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = doti(&xq, w.row(j)) as f32 * (sx * w.scale(j)) + bias[j];
        }
    }
    out
}

/// Quantized fused gate pre-activation
/// `x * wx^T + h * wh^T + bias` — the quantized-lane LSTM step kernel.
/// Each batch row quantizes its `x` and `h` activations once, then runs
/// both gate products in integer arithmetic.
///
/// # Panics
/// Panics on shape mismatches (same contract as
/// [`Matrix::fused_gate_affine`]).
pub fn fused_gate_affine_quant(
    x: &Matrix,
    wx: &QuantizedMatrix,
    h: &Matrix,
    wh: &QuantizedMatrix,
    bias: &[f32],
) -> Matrix {
    assert_eq!(x.cols(), wx.cols(), "fused_gate_affine_quant x/wx mismatch");
    assert_eq!(h.cols(), wh.cols(), "fused_gate_affine_quant h/wh mismatch");
    assert_eq!(x.rows(), h.rows(), "fused_gate_affine_quant batch mismatch");
    assert_eq!(
        wx.rows(),
        wh.rows(),
        "fused_gate_affine_quant gate-count mismatch"
    );
    assert_eq!(
        bias.len(),
        wx.rows(),
        "fused_gate_affine_quant bias mismatch"
    );
    let out_cols = wx.rows();
    let mut out = Matrix::zeros(x.rows(), out_cols);
    let mut xq = Vec::with_capacity(x.cols());
    let mut hq = Vec::with_capacity(h.cols());
    for r in 0..x.rows() {
        let sx = quantize_row(x.row(r), &mut xq);
        let sh = quantize_row(h.row(r), &mut hq);
        let out_row = out.row_mut(r);
        for (j, o) in out_row.iter_mut().enumerate() {
            let px = doti(&xq, wx.row(j)) as f32 * (sx * wx.scale(j));
            let ph = doti(&hq, wh.row(j)) as f32 * (sh * wh.scale(j));
            *o = (px + ph) + bias[j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::{Rng, SeedableRng};

    fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn lane_parses_and_displays() {
        assert_eq!("exact".parse(), Ok(InferenceLane::Exact));
        assert_eq!("quantized".parse(), Ok(InferenceLane::Quantized));
        assert!("int8".parse::<InferenceLane>().is_err());
        assert_eq!(InferenceLane::Exact.to_string(), "exact");
    }

    #[test]
    fn round_code_matches_round_then_clamp() {
        let mut values = vec![
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            126.5,
            -126.5,
            127.0,
            127.49,
            128.0,
            -300.0,
            0.499_999_97,
            -0.499_999_97,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(11);
        values.extend((0..20_000).map(|_| rng.random_range(-140.0f32..140.0)));
        values.extend((-300..=300).map(|i| i as f32 * 0.5));
        for y in values {
            let want = y.round().clamp(-127.0, 127.0) as i8;
            assert_eq!(round_code(y), want, "y = {y:?}");
        }
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let m = sample(7, 23, 1);
        let q = QuantizedMatrix::quantize(&m);
        let back = q.dequantize();
        for r in 0..m.rows() {
            let step = q.scale(r);
            assert!(step > 0.0);
            for (a, b) in m.row(r).iter().zip(back.row(r)) {
                assert!(
                    (a - b).abs() <= step / 2.0 + 1e-7,
                    "row {r}: {a} -> {b}, step {step}"
                );
            }
        }
    }

    #[test]
    fn extremes_saturate_to_symmetric_codes() {
        // max |v| maps to exactly +-127; nothing can reach -128.
        let m = Matrix::from_vec(1, 4, vec![2.0, -2.0, 1.0, -0.003]);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.row(0)[0], 127);
        assert_eq!(q.row(0)[1], -127);
        assert!(q.row(0).iter().all(|&v| v > -128));
        assert_eq!(q.scale(0), 2.0 / 127.0);
    }

    #[test]
    fn zero_rows_get_zero_scale_and_exact_zeros() {
        let mut m = sample(3, 5, 2);
        m.row_mut(1).fill(0.0);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.scale(1), 0.0);
        assert!(q.row(1).iter().all(|&v| v == 0));
        assert!(q.dequantize().row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_matrix_quantizes() {
        let q = QuantizedMatrix::quantize(&Matrix::zeros(0, 4));
        assert_eq!(q.rows(), 0);
        assert_eq!(q.dequantize().shape(), (0, 4));
    }

    #[test]
    fn affine_t_quant_matches_dequantized_exact_affine() {
        // The integer kernel must agree (to f32 round-off) with the exact
        // kernel run on the dequantized weights AND dequantized
        // activations — activation rows quantize on the same grid as
        // QuantizedMatrix rows, so the reference is fully explicit.
        let x = sample(5, 13, 3);
        let w = sample(11, 13, 4);
        let bias: Vec<f32> = (0..11).map(|i| i as f32 * 0.01).collect();
        let q = QuantizedMatrix::quantize(&w);
        let got = affine_t_quant(&x, &q, &bias);
        let x_deq = QuantizedMatrix::quantize(&x).dequantize();
        let want = x_deq.affine_t(&q.dequantize(), &bias);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_gate_quant_matches_composed_affines() {
        let x = sample(3, 6, 5);
        let h = sample(3, 4, 6);
        let wx = QuantizedMatrix::quantize(&sample(16, 6, 7));
        let wh = QuantizedMatrix::quantize(&sample(16, 4, 8));
        let bias: Vec<f32> = (0..16).map(|i| (i as f32).cos() * 0.1).collect();
        let got = fused_gate_affine_quant(&x, &wx, &h, &wh, &bias);
        let mut want = affine_t_quant(&x, &wx, &[0.0; 16]);
        want.add_assign(&affine_t_quant(&h, &wh, &[0.0; 16]));
        want.add_row_broadcast(&bias);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn quantized_error_stays_within_analytic_bound() {
        // Per output element the dynamic-quantization error is bounded by
        // `sx/2·Σ|w_row| + sw/2·Σ|x| + k·sx·sw/4` (each operand's
        // half-step round-off against the other's L1 mass, plus the
        // second-order cross term) — the error model documented in
        // DESIGN.md.
        let x = sample(4, 32, 9);
        let w = sample(8, 32, 10);
        let q = QuantizedMatrix::quantize(&w);
        let bias = vec![0.0f32; 8];
        let exact = x.affine_t(&w, &bias);
        let quant = affine_t_quant(&x, &q, &bias);
        let k = x.cols() as f32;
        for r in 0..x.rows() {
            let l1x: f32 = x.row(r).iter().map(|v| v.abs()).sum();
            let amax = x.row(r).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let sx = amax / 127.0;
            for j in 0..8 {
                let sw = q.scale(j);
                let l1w: f32 = w.row(j).iter().map(|v| v.abs()).sum();
                let bound = (sx / 2.0) * l1w + (sw / 2.0) * l1x + k * sx * sw / 4.0 + 1e-4;
                let err = (exact[(r, j)] - quant[(r, j)]).abs();
                assert!(err <= bound, "err {err} > bound {bound}");
            }
        }
    }
}
