//! Fully connected (dense) layer with manual backprop.

use eventhit_rng::Rng;

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::{naive_kernels_forced, Matrix};
use crate::optimizer::ParamMut;
use crate::packed::{affine_batch, affine_rows_quant, Codes, PackCache, Packed, PackedQuant};

/// A fully connected layer `y = act(x W^T + b)`.
///
/// Weights are stored `out x in` (row `j` holds the weights of output
/// unit `j`), so the forward pass is `x.matmul_t(&w)` on a batch matrix
/// `x: batch x in`. Inference runs on a k-major copy of `W` (see
/// [`crate::packed`]), built on first use and dropped whenever
/// [`Dense::weights_mut`] or [`Dense::params_mut`] hands out the weights.
#[derive(Clone)]
pub struct Dense {
    w: Matrix,
    b: Matrix,
    /// k-major pack of `w` for the inference kernels.
    pack: PackCache<Packed>,
    dw: Matrix,
    db: Matrix,
    act: Activation,
    /// Forward cache: input batch.
    cache_x: Option<Matrix>,
    /// Forward cache: pre-activation.
    cache_pre: Option<Matrix>,
    /// Forward cache: post-activation output.
    cache_out: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with `input` inputs and `output` outputs.
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        output: usize,
        act: Activation,
        init: Init,
        rng: &mut R,
    ) -> Self {
        Dense {
            w: init.matrix(output, input, rng),
            b: Matrix::zeros(1, output),
            pack: PackCache::default(),
            dw: Matrix::zeros(output, input),
            db: Matrix::zeros(1, output),
            act,
            cache_x: None,
            cache_pre: None,
            cache_out: None,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.w.rows()
    }

    /// Immutable access to the weight matrix (`out x in`).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutable access to the weight matrix, for tests and serialization.
    /// Drops the inference pack, which the next inference forward rebuilds.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        self.pack.clear();
        &mut self.w
    }

    /// Immutable access to the bias row vector (`1 x out`).
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Mutable access to the bias row vector (the bias is read directly,
    /// never packed).
    pub fn bias_mut(&mut self) -> &mut Matrix {
        &mut self.b
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Pre-activation `x W^T + b` (single fused [`Matrix::affine_t`]
    /// pass, bit-identical to `matmul_t` + bias broadcast).
    fn affine(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "dense input dim mismatch");
        x.affine_t(&self.w, self.b.as_slice())
    }

    /// Forward pass over a batch (`x: batch x in`), caching intermediates
    /// for a subsequent [`Dense::backward`] call.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let pre = self.affine(x);
        let out = self.act.apply(&pre);
        self.cache_x = Some(x.clone());
        self.cache_pre = Some(pre);
        self.cache_out = Some(out.clone());
        out
    }

    /// Forward pass without caching (no backprop possible). Pure `&self`,
    /// so a trained layer can be shared across threads for parallel
    /// inference; bit-identical to [`Dense::forward`].
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "dense input dim mismatch");
        let mut out = Matrix::zeros(x.rows(), self.output_dim());
        self.infer_rows(x.as_slice(), x.rows(), out.as_mut_slice());
        out
    }

    /// Allocation-free inference over `batch` row-major input rows `x`
    /// (`batch x in`) into `out` (`batch x out`). Runs the packed kernel,
    /// or the retained naive row-dot while
    /// [`set_naive_kernels`](crate::matrix::set_naive_kernels) is on;
    /// work past [`PAR_THRESHOLD`](crate::matrix::PAR_THRESHOLD) is
    /// row-blocked across the ambient pool. Every path is bit-identical.
    ///
    /// # Panics
    /// Panics if `x` or `out` is not `batch` rows of the layer's shape.
    pub fn infer_rows(&self, x: &[f32], batch: usize, out: &mut [f32]) {
        let (n_in, n_out) = (self.input_dim(), self.output_dim());
        assert_eq!(x.len(), batch * n_in, "dense input dim mismatch");
        assert_eq!(out.len(), batch * n_out, "dense output shape mismatch");
        let packed = (!naive_kernels_forced()).then(|| self.packed());
        let rows = |r: usize| &x[r * n_in..(r + 1) * n_in];
        affine_batch(&rows, &self.w, packed, self.b.as_slice(), out);
        self.act.apply_in_place(out);
    }

    /// The k-major inference pack of the weights, built on first use.
    fn packed(&self) -> &Packed {
        self.pack.get(|| Packed::pack(&self.w))
    }

    /// Snapshots the layer onto the int8 fast lane (see
    /// [`crate::quant::InferenceLane`]). Weights are quantized once;
    /// the returned layer is immutable and cheap to clone.
    pub fn quantized(&self) -> QuantizedDense {
        QuantizedDense {
            qw: PackedQuant::quantize(&self.w),
            b: self.b.as_slice().to_vec(),
            act: self.act,
        }
    }

    /// Backward pass. `grad_out` is dL/d(output), shape `batch x out`.
    /// Accumulates dW/db into the layer's gradient buffers and returns
    /// dL/d(input) with shape `batch x in`.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cache_x
            .as_ref()
            .expect("Dense::backward before forward");
        let pre = self
            .cache_pre
            .as_ref()
            .expect("missing pre-activation cache");
        let out = self.cache_out.as_ref().expect("missing output cache");
        assert_eq!(grad_out.shape(), out.shape(), "grad_out shape mismatch");

        // dL/d(pre) = dL/d(out) ⊙ act'(pre)
        let dpre = grad_out.hadamard(&self.act.deriv(pre, out));

        // dW = dpre^T x  (out x in); db = column sums of dpre.
        self.dw.add_assign(&dpre.t_matmul(x));
        let db = dpre.sum_rows();
        for (g, &v) in self.db.as_mut_slice().iter_mut().zip(&db) {
            *g += v;
        }

        // dX = dpre W  (batch x in).
        dpre.matmul(&self.w)
    }

    /// Frees the forward caches and the gradient buffers and builds the
    /// inference pack, leaving an inference-only layer:
    /// [`Dense::forward_inference`] is unchanged, but a later `backward`
    /// panics.
    pub fn drop_training_state(&mut self) {
        (self.cache_x, self.cache_pre, self.cache_out) = (None, None, None);
        self.dw = Matrix::zeros(0, 0);
        self.db = Matrix::zeros(0, 0);
        self.packed();
    }

    /// Zeros the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.dw.fill_zero();
        self.db.fill_zero();
    }

    /// Yields `(parameter, gradient)` pairs for the optimizer, in a stable
    /// order. Drops the inference pack.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        self.pack.clear();
        vec![
            ParamMut {
                value: &mut self.w,
                grad: &self.dw,
            },
            ParamMut {
                value: &mut self.b,
                grad: &self.db,
            },
        ]
    }
}

/// An int8-weight snapshot of a [`Dense`] layer: the quantized inference
/// fast lane (`y = act(x Wq^T + b)` with exact `i32` accumulation), its
/// codes packed k-major.
#[derive(Clone)]
pub struct QuantizedDense {
    qw: PackedQuant,
    b: Vec<f32>,
    act: Activation,
}

impl QuantizedDense {
    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.qw.inputs()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.qw.outputs()
    }

    /// Quantized forward pass (`x: batch x in`). Pure `&self`; integer
    /// sums are exact, so results are bit-identical across worker counts.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "dense input dim mismatch");
        let mut out = Matrix::zeros(x.rows(), self.output_dim());
        let mut codes = Codes::default();
        self.infer_rows(x.as_slice(), x.rows(), &mut codes, out.as_mut_slice());
        out
    }

    /// Allocation-free quantized inference over `batch` row-major input
    /// rows `x` into `out`; `codes` holds the rows' int8 codes.
    ///
    /// # Panics
    /// Panics if `x` or `out` is not `batch` rows of the layer's shape.
    pub fn infer_rows(&self, x: &[f32], batch: usize, codes: &mut Codes, out: &mut [f32]) {
        let (n_in, n_out) = (self.input_dim(), self.output_dim());
        assert_eq!(x.len(), batch * n_in, "dense input dim mismatch");
        assert_eq!(out.len(), batch * n_out, "dense output shape mismatch");
        let rows = |r: usize| &x[r * n_in..(r + 1) * n_in];
        affine_rows_quant(rows, &self.qw, &self.b, codes, out);
        self.act.apply_in_place(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use eventhit_rng::rngs::StdRng;
    use eventhit_rng::SeedableRng;

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::Zeros, &mut rng);
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        *layer.weights_mut() = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        *layer.bias_mut() = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn output_shape_follows_batch() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(5, 3, Activation::Tanh, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(7, 5, -1.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (7, 3));
    }

    #[test]
    fn gradients_match_finite_differences() {
        for act in [
            Activation::Linear,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
        ] {
            let mut rng = StdRng::seed_from_u64(2);
            let mut layer = Dense::new(4, 3, act, Init::XavierUniform, &mut rng);
            let x = Matrix::uniform(5, 4, -1.0, 1.0, &mut rng);
            // Loss: 0.5 * sum(y^2), so dL/dy = y.
            let loss_fn = |layer: &mut Dense| {
                let y = layer.forward(&x);
                0.5 * y.as_slice().iter().map(|&v| v * v).sum::<f32>()
            };
            let grad_fn = |layer: &mut Dense| {
                layer.zero_grad();
                let y = layer.forward(&x);
                layer.backward(&y);
            };
            let max_err = check_gradients(&mut layer, loss_fn, grad_fn, |l| l.params_mut(), 1e-2);
            assert!(max_err < 2e-2, "act={act:?} max rel err {max_err}");
        }
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(3, 2, Activation::Linear, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(4, 3, -1.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        let gx = layer.backward(&y);
        assert_eq!(gx.shape(), (4, 3));
        // dX = y W for the linear activation.
        let expected = y.matmul(layer.weights());
        for (a, b) in gx.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn quantized_forward_tracks_exact_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = Dense::new(9, 5, Activation::Tanh, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(4, 9, -1.0, 1.0, &mut rng);
        let exact = layer.forward_inference(&x);
        let quant = layer.quantized().forward(&x);
        assert_eq!(quant.shape(), exact.shape());
        for (a, b) in exact.as_slice().iter().zip(quant.as_slice()) {
            // tanh is 1-Lipschitz; pre-activation error is bounded by
            // sum|x| * step/2 per unit, far below 0.05 at these dims.
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_grad_resets_accumulators() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Dense::new(3, 2, Activation::Sigmoid, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(2, 3, -1.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        layer.backward(&y);
        layer.zero_grad();
        for p in layer.params_mut() {
            assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::XavierUniform, &mut rng);
        let x = Matrix::uniform(1, 2, -1.0, 1.0, &mut rng);
        let g = Matrix::filled(1, 2, 1.0);
        layer.forward(&x);
        layer.backward(&g);
        let first = layer.dw.clone();
        layer.forward(&x);
        layer.backward(&g);
        let mut doubled = first.clone();
        doubled.scale(2.0);
        for (a, b) in layer.dw.as_slice().iter().zip(doubled.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
