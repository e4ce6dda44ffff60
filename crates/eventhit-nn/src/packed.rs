//! k-major weight panels and the allocation-free inference kernels.
//!
//! Training keeps weights row-major (`out x in`, row `j` feeding output
//! `j`), which makes every inference output a strided row-dot that the
//! autovectorizer cannot spread across outputs. The inference layers
//! therefore also hold a *k-major* (transposed) copy of each weight —
//! row `k` holds the weights input `k` contributes to every output — so a
//! forward step becomes `acc[j] += x[k] * w[k][j]` over contiguous `j`, in
//! register-blocked tiles of [`TILE`] outputs.
//!
//! The packed kernels are bit-identical to the row-major ones: each
//! output is still a single accumulator chain that starts at `0.0` and
//! adds `x[k] * w[k][j]` (a separate multiply and add, no fused
//! multiply-add) in ascending `k`. Only *which outputs run side by side*
//! changes, never the order of one output's operations.
//!
//! The quantized lane packs its int8 codes the same way, widened to `i16`
//! and interleaved in input pairs so each step is a pair multiply-add
//! into an `i32` lane (one `pmaddwd` on x86 SSE2). Integer sums are
//! exact, so that lane is bit-identical in any order.
//!
//! A pack is derived data. Layers build it lazily through a `PackCache`
//! the first time an inference forward needs it, share it between clones,
//! and drop it from every accessor that hands out `&mut` weights, so a
//! pack can never outlive the weights it was built from.

use std::sync::{Arc, OnceLock};

use eventhit_parallel::Pool;

use crate::matrix::{dot_rows_naive, Matrix, PAR_THRESHOLD};
use crate::quant::{quantize_into, QuantizedMatrix};

/// Output-tile width of the packed kernels: thirty-two accumulators
/// (eight SSE registers) per input element — enough independent chains
/// to cover the add latency — fed by contiguous panel loads.
pub const TILE: usize = 32;

/// The padded row width of a pack with `outputs` outputs: a multiple of
/// [`TILE`]. Padding weights are zero and padding outputs are computed
/// but never written out, so every tile is full width.
fn stride(outputs: usize) -> usize {
    outputs.div_ceil(TILE) * TILE
}

/// A weight stored k-major: `data[k * stride + j]` is the weight from
/// input `k` to output `j`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Packed {
    inputs: usize,
    outputs: usize,
    stride: usize,
    data: Vec<f32>,
}

impl Packed {
    /// Packs a row-major `out x in` weight matrix.
    pub(crate) fn pack(w: &Matrix) -> Self {
        let (outputs, inputs) = w.shape();
        let stride = stride(outputs);
        let mut data = vec![0.0; inputs * stride];
        for j in 0..outputs {
            for (k, &v) in w.row(j).iter().enumerate() {
                data[k * stride + j] = v;
            }
        }
        Packed {
            inputs,
            outputs,
            stride,
            data,
        }
    }
}

/// An int8 weight packed for the quantized kernels, with the per-output
/// symmetric scales of the [`QuantizedMatrix`] it was built from. The
/// codes are widened to `i16` and stored k-major in interleaved input
/// pairs: `data[p * 2 * stride + 2 * j + e]` is the code from input
/// `2p + e` to output `j` (zero past the last input). SSE2 has no
/// sign-extending byte load, so the `i16` form is what lets the pair
/// multiply-add vectorize.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PackedQuant {
    inputs: usize,
    outputs: usize,
    stride: usize,
    data: Vec<i16>,
    scales: Vec<f32>,
}

impl PackedQuant {
    /// Quantizes `w` per output row (see [`QuantizedMatrix::quantize`])
    /// and packs the codes.
    pub(crate) fn quantize(w: &Matrix) -> Self {
        let q = QuantizedMatrix::quantize(w);
        let (outputs, inputs) = (q.rows(), q.cols());
        let stride = stride(outputs);
        let mut data = vec![0; inputs.div_ceil(2) * 2 * stride];
        for j in 0..outputs {
            for (k, &code) in q.row(j).iter().enumerate() {
                data[(k / 2) * 2 * stride + 2 * j + k % 2] = i16::from(code);
            }
        }
        PackedQuant {
            inputs,
            outputs,
            stride,
            data,
            scales: (0..outputs).map(|j| q.scale(j)).collect(),
        }
    }

    /// Input dimensionality (the reduction depth).
    pub(crate) fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output dimensionality.
    pub(crate) fn outputs(&self) -> usize {
        self.outputs
    }
}

/// A lazily built, clone-shared pack of a layer's weights.
///
/// [`PackCache::get`] builds the pack on first use (from `&self`, so a
/// model shared across threads packs once); clones share the built pack;
/// [`PackCache::clear`] drops it. Layers call `clear` from every accessor
/// that hands out `&mut` weights, so the next forward repacks from the
/// current values.
#[derive(Clone, Debug)]
pub(crate) struct PackCache<T>(OnceLock<Arc<T>>);

impl<T> Default for PackCache<T> {
    fn default() -> Self {
        PackCache(OnceLock::new())
    }
}

impl<T> PackCache<T> {
    /// The pack, built with `build` if there is none yet.
    pub(crate) fn get(&self, build: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(|| Arc::new(build()))
    }

    /// Drops the pack; the next [`PackCache::get`] rebuilds it.
    pub(crate) fn clear(&mut self) {
        self.0 = OnceLock::new();
    }
}

/// Reusable buffers for the allocation-free inference forwards: the
/// recurrent state, the gate pre-activations, and the int8 activation
/// codes of the quantized lane. Buffers grow to the largest shape seen
/// and are then reused, so a lane that keeps one scratch allocates
/// nothing per forward.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    pub(crate) h: Vec<f32>,
    /// LSTM cell state.
    pub(crate) c: Vec<f32>,
    /// LSTM `[i|f|g|o]` or GRU input-side `[r|z|n]` pre-activations.
    pub(crate) gates: Vec<f32>,
    /// GRU hidden-side `[r|z|n]` pre-activations.
    pub(crate) ph: Vec<f32>,
    /// Int8 codes of the quantized lane's two operands.
    pub(crate) codes: [Codes; 2],
}

/// Resets `buf` to `len` zeros, reusing its allocation.
pub(crate) fn zeroed(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// Row `r` of time step `t` of an encoder input sequence.
pub type StepRows<'a> = dyn Fn(usize, usize) -> &'a [f32] + Sync + 'a;

/// Checks a time-major batch sequence (`xs[t]: batch x input_dim`) and
/// returns its batch size.
pub(crate) fn check_sequence(xs: &[Matrix], input_dim: usize) -> usize {
    assert!(
        !xs.is_empty(),
        "recurrent layer requires at least one timestep"
    );
    let batch = xs[0].rows();
    for x in xs {
        assert_eq!(x.cols(), input_dim, "recurrent input dim mismatch");
        assert_eq!(x.rows(), batch, "batch size changed mid-sequence");
    }
    batch
}

/// Runs `rows(row0, block)` over blocks of whole `cols`-wide rows of
/// `out`, `row0` being the block's first row. Work of fewer than
/// [`PAR_THRESHOLD`] multiply–adds (`flops`) runs inline as one block;
/// larger work is row-blocked across [`Pool::current`] like the product
/// kernels. Every output is computed the same way in any block, so the
/// bits never depend on the pool.
pub(crate) fn for_each_block(
    out: &mut [f32],
    cols: usize,
    flops: usize,
    rows: impl Fn(usize, &mut [f32]) + Sync,
) {
    for_each_block_with(out, cols, flops, &mut (), |row0, block, _| {
        rows(row0, block)
    });
}

/// [`for_each_block`] for kernels that need scratch: the inline block
/// uses `scratch` (so small work allocates nothing), each pooled block a
/// fresh `S::default()`.
fn for_each_block_with<S: Default>(
    out: &mut [f32],
    cols: usize,
    flops: usize,
    scratch: &mut S,
    rows: impl Fn(usize, &mut [f32], &mut S) + Sync,
) {
    if cols == 0 || out.is_empty() {
        return;
    }
    if flops < PAR_THRESHOLD {
        rows(0, out, scratch);
        return;
    }
    let pool = Pool::current();
    let block = Matrix::row_block(out.len() / cols, &pool);
    pool.for_each_chunk_mut(out, block * cols, |_, offset, chunk| {
        rows(offset / cols, chunk, &mut S::default())
    });
}

/// One [`TILE`]-wide output tile of `x · w`: `acc[t]` is the single
/// ascending-`k` chain of output `j + t`, starting at `0.0`.
#[inline(always)]
fn dot_tile(x: &[f32], w: &Packed, j: usize) -> [f32; TILE] {
    let mut acc = [0.0f32; TILE];
    for (&a, panel) in x.iter().zip(w.data.chunks_exact(w.stride)) {
        let col: &[f32; TILE] = panel[j..j + TILE].try_into().expect("tile within stride");
        for t in 0..TILE {
            acc[t] += a * col[t];
        }
    }
    acc
}

/// The integer form of [`dot_tile`] for the quantized lane: each input
/// pair of codes (`x` is padded to even length) multiply-adds into one
/// `i32` lane per output. Codes are at most 127 in magnitude, so every
/// product and pair sum is exact; integer sums are exact in any order.
///
/// The autovectorizer does not find the pair multiply-add in this loop
/// (it splits lanes with shifts and masks), so x86-64 runs the
/// [`doti_tile_sse2`] form, measured 2–3x faster; both are pinned equal.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[inline(always)]
fn doti_tile_portable(x: &[i16], w: &PackedQuant, j: usize) -> [i32; TILE] {
    let mut acc = [0i32; TILE];
    for (a, panel) in x.chunks_exact(2).zip(w.data.chunks_exact(2 * w.stride)) {
        let col: &[i16; 2 * TILE] = panel[2 * j..2 * (j + TILE)]
            .try_into()
            .expect("tile within stride");
        let (a0, a1) = (i32::from(a[0]), i32::from(a[1]));
        for t in 0..TILE {
            acc[t] += a0 * i32::from(col[2 * t]) + a1 * i32::from(col[2 * t + 1]);
        }
    }
    acc
}

/// [`doti_tile_portable`] as SSE2 `pmaddwd` steps: the input pair is
/// broadcast to every 32-bit lane and multiply-added against eight
/// interleaved codes (four outputs) per load.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn doti_tile_sse2(x: &[i16], w: &PackedQuant, j: usize) -> [i32; TILE] {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_madd_epi16, _mm_set1_epi32, _mm_setzero_si128,
        _mm_storeu_si128,
    };
    let mut out = [0i32; TILE];
    // SAFETY: SSE2 is part of the x86-64 baseline, so these intrinsics
    // exist on every x86-64 target. Each load reads eight `i16` at offset
    // `8q` of `col`, a `2 * TILE`-element array, with `q < TILE / 4`; each
    // store writes four `i32` at offset `4q` of `out`, a `TILE`-element
    // array. `loadu`/`storeu` accept any alignment.
    unsafe {
        let mut acc = [_mm_setzero_si128(); TILE / 4];
        for (a, panel) in x.chunks_exact(2).zip(w.data.chunks_exact(2 * w.stride)) {
            let col: &[i16; 2 * TILE] = panel[2 * j..2 * (j + TILE)]
                .try_into()
                .expect("tile within stride");
            // Little-endian: the even code is the low half of each lane.
            let pair = u32::from(a[0] as u16) | (u32::from(a[1] as u16) << 16);
            let pair = _mm_set1_epi32(pair as i32);
            for (q, acc) in acc.iter_mut().enumerate() {
                let codes = _mm_loadu_si128(col.as_ptr().add(8 * q).cast::<__m128i>());
                *acc = _mm_add_epi32(*acc, _mm_madd_epi16(codes, pair));
            }
        }
        for (q, acc) in acc.iter().enumerate() {
            _mm_storeu_si128(out.as_mut_ptr().add(4 * q).cast::<__m128i>(), *acc);
        }
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
use doti_tile_portable as doti_tile;
#[cfg(target_arch = "x86_64")]
use doti_tile_sse2 as doti_tile;

/// Writes `f(j, t)` for each valid output `j + t` of the tile at `j`.
#[inline(always)]
fn tiles(outputs: usize, stride: usize, mut tile: impl FnMut(usize, usize)) {
    let mut j = 0;
    while j < stride {
        tile(j, TILE.min(outputs - j));
        j += TILE;
    }
}

/// `out` (`batch x w.rows()`) = `rows(r) · wᵀ + bias` for every row `r`:
/// the packed kernel on `packed`, or the retained naive row-dot on the
/// row-major `w` when `packed` is `None` (the naive switch), row-blocked
/// past [`PAR_THRESHOLD`]. The shared affine step of the dense layer and
/// both GRU sides.
pub(crate) fn affine_batch<'a>(
    rows: &(dyn Fn(usize) -> &'a [f32] + Sync),
    w: &Matrix,
    packed: Option<&Packed>,
    bias: &[f32],
    out: &mut [f32],
) {
    let (n_out, n_in) = w.shape();
    let flops = out.len() * n_in;
    for_each_block(out, n_out, flops, |row0, block| match packed {
        Some(p) => affine_rows(|r| rows(row0 + r), p, bias, block),
        None => {
            for (r, o) in block.chunks_exact_mut(n_out).enumerate() {
                dot_rows_naive(rows(row0 + r), w, o);
                for (o, &b) in o.iter_mut().zip(bias) {
                    *o += b;
                }
            }
        }
    });
}

/// The number of `outputs`-wide rows in `out`, checking its shape.
fn out_rows(out: &[f32], outputs: usize) -> usize {
    assert_eq!(
        out.len() % outputs.max(1),
        0,
        "packed output shape mismatch"
    );
    out.len() / outputs.max(1)
}

/// [`out_rows`], also checking that every input row `x(r)` is `inputs`
/// wide.
fn rows_of<'a>(
    out: &[f32],
    outputs: usize,
    inputs: usize,
    x: &impl Fn(usize) -> &'a [f32],
) -> usize {
    let rows = out_rows(out, outputs);
    for r in 0..rows {
        assert_eq!(x(r).len(), inputs, "packed input dim mismatch");
    }
    rows
}

/// Affine rows `out[r][j] = dot(x(r), w_j) + bias[j]` on a packed
/// weight, `out` holding `rows x outputs` row-major: bit-identical to
/// [`Matrix::affine_t`] on the row-major weight. Tiles run outermost, so
/// one tile's weight panel stays cache-hot across every row of a batch.
///
/// # Panics
/// Panics if `x`, `bias` or `out` do not match the weight's shape.
pub(crate) fn affine_rows<'a>(
    x: impl Fn(usize) -> &'a [f32],
    w: &Packed,
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(bias.len(), w.outputs, "packed affine bias mismatch");
    let rows = rows_of(out, w.outputs, w.inputs, &x);
    tiles(w.outputs, w.stride, |j, n| {
        for r in 0..rows {
            let acc = dot_tile(x(r), w, j);
            let o = &mut out[r * w.outputs + j..];
            for t in 0..n {
                o[t] = acc[t] + bias[j + t];
            }
        }
    });
}

/// Fused gate rows `out[r][j] = (dot(x(r), wx_j) + dot(h(r), wh_j)) +
/// bias[j]` on packed weights: bit-identical to
/// [`Matrix::fused_gate_affine`]. Tiles run outermost, as in
/// [`affine_rows`].
///
/// # Panics
/// Panics on any shape mismatch.
pub(crate) fn gate_rows<'a>(
    x: impl Fn(usize) -> &'a [f32],
    wx: &Packed,
    h: impl Fn(usize) -> &'a [f32],
    wh: &Packed,
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(wx.outputs, wh.outputs, "packed gate-count mismatch");
    assert_eq!(bias.len(), wx.outputs, "packed gate bias mismatch");
    let rows = rows_of(out, wx.outputs, wx.inputs, &x);
    rows_of(out, wh.outputs, wh.inputs, &h);
    tiles(wx.outputs, wx.stride, |j, n| {
        for r in 0..rows {
            let ax = dot_tile(x(r), wx, j);
            let ah = dot_tile(h(r), wh, j);
            let o = &mut out[r * wx.outputs + j..];
            for t in 0..n {
                o[t] = (ax[t] + ah[t]) + bias[j + t];
            }
        }
    });
}

/// The int8 codes of a batch of activation rows for the quantized
/// kernels: each row quantized on its own grid (see
/// [`QuantizedMatrix::quantize`]), widened to `i16`, and padded with a
/// zero to even width (the pair layout of `PackedQuant`), plus the
/// row scales. Reused across calls like [`Scratch`].
#[derive(Clone, Debug, Default)]
pub struct Codes {
    codes: Vec<i16>,
    scales: Vec<f32>,
    width: usize,
}

impl Codes {
    /// Quantizes `rows` rows `x(r)`, each `inputs` wide.
    fn quantize<'a>(&mut self, rows: usize, inputs: usize, x: impl Fn(usize) -> &'a [f32]) {
        self.width = inputs.div_ceil(2) * 2;
        self.codes.clear();
        self.scales.clear();
        for r in 0..rows {
            let row = x(r);
            assert_eq!(row.len(), inputs, "quantized input dim mismatch");
            self.scales.push(quantize_into(row, &mut self.codes));
            self.codes.resize((r + 1) * self.width, 0);
        }
    }

    /// Row `r`'s codes and scale.
    fn row(&self, r: usize) -> (&[i16], f32) {
        (
            &self.codes[r * self.width..(r + 1) * self.width],
            self.scales[r],
        )
    }
}

/// Quantized affine rows `out[r][j] = dot(xq_r, w_j) · (sx_r · s_j) +
/// bias[j]`, `xq_r` being the int8 codes of `x(r)` (quantized into
/// `codes`): bit-identical to [`crate::quant::affine_t_quant`]. Tiles run
/// outermost, as in [`affine_rows`]; work past [`PAR_THRESHOLD`] is
/// row-blocked across the ambient pool like the exact lane (integer sums
/// are exact, so the bits cannot depend on the pool).
///
/// # Panics
/// Panics if `x`, `bias` or `out` do not match the weight's shape.
pub(crate) fn affine_rows_quant<'a>(
    x: impl Fn(usize) -> &'a [f32] + Sync,
    w: &PackedQuant,
    bias: &[f32],
    codes: &mut Codes,
    out: &mut [f32],
) {
    assert_eq!(bias.len(), w.outputs, "quantized affine bias mismatch");
    let flops = out_rows(out, w.outputs) * w.inputs * w.outputs;
    for_each_block_with(out, w.outputs, flops, codes, |row0, out, codes| {
        let rows = out.len() / w.outputs;
        codes.quantize(rows, w.inputs, |r| x(row0 + r));
        tiles(w.outputs, w.stride, |j, n| {
            for r in 0..rows {
                let (xq, sx) = codes.row(r);
                let acc = doti_tile(xq, w, j);
                let o = &mut out[r * w.outputs + j..];
                for t in 0..n {
                    o[t] = acc[t] as f32 * (sx * w.scales[j + t]) + bias[j + t];
                }
            }
        });
    });
}

/// Quantized fused gate rows: each row's `x` and `h` are quantized once
/// (into `codes`), both products run in integer arithmetic, and
/// `out[r][j] = (px + ph) + bias[j]`. Bit-identical to
/// [`crate::quant::fused_gate_affine_quant`]; blocked like
/// [`affine_rows_quant`].
///
/// # Panics
/// Panics on any shape mismatch.
pub(crate) fn gate_rows_quant<'a>(
    x: impl Fn(usize) -> &'a [f32] + Sync,
    wx: &PackedQuant,
    h: impl Fn(usize) -> &'a [f32] + Sync,
    wh: &PackedQuant,
    bias: &[f32],
    codes: &mut [Codes; 2],
    out: &mut [f32],
) {
    assert_eq!(wx.outputs, wh.outputs, "quantized gate-count mismatch");
    assert_eq!(bias.len(), wx.outputs, "quantized gate bias mismatch");
    let flops = out_rows(out, wx.outputs) * (wx.inputs + wh.inputs) * wx.outputs;
    for_each_block_with(out, wx.outputs, flops, codes, |row0, out, [xc, hc]| {
        let rows = out.len() / wx.outputs;
        xc.quantize(rows, wx.inputs, |r| x(row0 + r));
        hc.quantize(rows, wh.inputs, |r| h(row0 + r));
        tiles(wx.outputs, wx.stride, |j, n| {
            for r in 0..rows {
                let ((xq, sx), (hq, sh)) = (xc.row(r), hc.row(r));
                let (ax, ah) = (doti_tile(xq, wx, j), doti_tile(hq, wh, j));
                let o = &mut out[r * wx.outputs + j..];
                for t in 0..n {
                    let px = ax[t] as f32 * (sx * wx.scales[j + t]);
                    let ph = ah[t] as f32 * (sh * wh.scales[j + t]);
                    o[t] = (px + ph) + bias[j + t];
                }
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::{Rng, SeedableRng};

    #[test]
    fn int_tile_kernels_agree() {
        let mut rng = StdRng::seed_from_u64(0x5e2);
        for (outputs, inputs) in [(1usize, 1usize), (31, 5), (64, 48), (97, 389)] {
            let w = Matrix::uniform(outputs, inputs, -1.0, 1.0, &mut rng);
            let q = PackedQuant::quantize(&w);
            let row: Vec<f32> = (0..inputs).map(|_| rng.random_range(-3.0..3.0)).collect();
            let mut codes = Codes::default();
            codes.quantize(1, inputs, |_| &row[..]);
            let (xq, _) = codes.row(0);
            for j in (0..q.stride).step_by(TILE) {
                assert_eq!(doti_tile(xq, &q, j), doti_tile_portable(xq, &q, j));
            }
        }
    }
}
