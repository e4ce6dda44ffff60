//! Packed-inference equivalence: the k-major packed inference path of
//! every layer must **bit-match** its references — the retained naive
//! row-dot path (`set_naive_kernels(true)`), the training forward, and,
//! for the quantized lane, the row-major integer kernels of `quant` —
//! on output widths that are not multiples of the tile width, input dims
//! 1..64, batches 1..7, and batches straddling `PAR_THRESHOLD` at 1, 2
//! and 4 workers (where both lanes row-block).
//!
//! The second half pins pack freshness: the inference pack is derived
//! from the weights, so every way of changing them (an optimizer step
//! through `params_mut`, `weights_mut`) must show in the next inference
//! forward, while a clone taken before the change keeps scoring its own
//! weights.

use std::sync::{Mutex, MutexGuard};

use eventhit_nn::activation::{sigmoid, tanh, Activation};
use eventhit_nn::dense::Dense;
use eventhit_nn::gru::Gru;
use eventhit_nn::init::Init;
use eventhit_nn::lstm::Lstm;
use eventhit_nn::matrix::{set_naive_kernels, Matrix, PAR_THRESHOLD};
use eventhit_nn::optimizer::{Adam, Optimizer};
use eventhit_nn::packed::TILE;
use eventhit_nn::quant::{affine_t_quant, fused_gate_affine_quant, QuantizedMatrix};
use eventhit_parallel::with_workers;
use eventhit_rng::rngs::StdRng;
use eventhit_rng::testkit::from_fn;
use eventhit_rng::{prop_assert_eq, property, Rng, SeedableRng};

/// Hidden sizes around the tile width: none of the gate counts
/// (`3·h`, `4·h`) is a multiple of [`TILE`] except where noted.
const HIDDEN: &[usize] = &[1, 3, 5, 7, 13, 17, 31, 33, 48];

/// Serializes the tests that flip the process-wide naive switch, so each
/// one's "packed" run really takes the packed path.
static NAIVE_SWITCH: Mutex<()> = Mutex::new(());

fn naive_lock() -> MutexGuard<'static, ()> {
    NAIVE_SWITCH.lock().unwrap_or_else(|e| e.into_inner())
}

/// `f` on the retained naive kernels.
fn naive<R>(f: impl FnOnce() -> R) -> R {
    set_naive_kernels(true);
    let out = f();
    set_naive_kernels(false);
    out
}

fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
    let (r, c) = m.shape();
    (r, c, m.as_slice().iter().map(|v| v.to_bits()).collect())
}

/// A matrix with ~25% exact zeros (and the rest in [-2, 2)).
fn matrix_of(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.random_range(0..4usize) == 0 {
                0.0
            } else {
                rng.random_range(-2.0f32..2.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn sequence(rng: &mut StdRng, steps: usize, batch: usize, dim: usize) -> Vec<Matrix> {
    (0..steps).map(|_| matrix_of(rng, batch, dim)).collect()
}

/// `(input dim, hidden, batch, steps, seed)` for one recurrent case.
fn recurrent_case(rng: &mut StdRng) -> (usize, usize, usize, usize, u64) {
    (
        rng.random_range(1..=64usize),
        HIDDEN[rng.random_range(0..HIDDEN.len())],
        rng.random_range(1..=7usize),
        rng.random_range(1..=6usize),
        rng.random::<u64>(),
    )
}

/// The layer's current parameter values, in `params_mut` order.
fn values(params: Vec<eventhit_nn::optimizer::ParamMut<'_>>) -> Vec<Matrix> {
    params.into_iter().map(|p| p.value.clone()).collect()
}

/// The int8 LSTM lane composed from the row-major reference kernels.
fn quantized_lstm_reference(lstm: &mut Lstm, xs: &[Matrix]) -> Matrix {
    let p = values(lstm.params_mut());
    let (qwx, qwh) = (
        QuantizedMatrix::quantize(&p[0]),
        QuantizedMatrix::quantize(&p[1]),
    );
    let (batch, hd) = (xs[0].rows(), lstm.hidden_dim());
    let mut h = Matrix::zeros(batch, hd);
    let mut c = Matrix::zeros(batch, hd);
    for x in xs {
        let pre = fused_gate_affine_quant(x, &qwx, &h, &qwh, p[2].as_slice());
        for r in 0..batch {
            let g = pre.row(r);
            for j in 0..hd {
                let c_new = sigmoid(g[hd + j]) * c[(r, j)] + sigmoid(g[j]) * tanh(g[2 * hd + j]);
                c[(r, j)] = c_new;
                h[(r, j)] = sigmoid(g[3 * hd + j]) * tanh(c_new);
            }
        }
    }
    h
}

/// The int8 GRU lane composed from the row-major reference kernels.
fn quantized_gru_reference(gru: &mut Gru, xs: &[Matrix]) -> Matrix {
    let p = values(gru.params_mut());
    let (qwx, qwh) = (
        QuantizedMatrix::quantize(&p[0]),
        QuantizedMatrix::quantize(&p[1]),
    );
    let (batch, hd) = (xs[0].rows(), gru.hidden_dim());
    let mut h = Matrix::zeros(batch, hd);
    for x in xs {
        let px = affine_t_quant(x, &qwx, p[2].as_slice());
        let ph = affine_t_quant(&h, &qwh, p[3].as_slice());
        for r in 0..batch {
            let (px, ph) = (px.row(r), ph.row(r));
            for j in 0..hd {
                let rg = sigmoid(px[j] + ph[j]);
                let z = sigmoid(px[hd + j] + ph[hd + j]);
                let n = tanh(px[2 * hd + j] + rg * ph[2 * hd + j]);
                h[(r, j)] = (1.0 - z) * n + z * h[(r, j)];
            }
        }
    }
    h
}

property! {
    #[test]
    fn lstm_packed_bit_matches_naive_and_training(case in from_fn(recurrent_case)) {
        let (d, hd, batch, steps, seed) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lstm = Lstm::new(d, hd, &mut rng);
        let xs = sequence(&mut rng, steps, batch, d);
        let _guard = naive_lock();
        let packed = bits(&lstm.forward_inference(&xs));
        prop_assert_eq!(&packed, &bits(&naive(|| lstm.forward_inference(&xs))));
        prop_assert_eq!(&packed, &bits(&lstm.forward(&xs)));
    }

    #[test]
    fn gru_packed_bit_matches_naive_and_training(case in from_fn(recurrent_case)) {
        let (d, hd, batch, steps, seed) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gru = Gru::new(d, hd, &mut rng);
        let xs = sequence(&mut rng, steps, batch, d);
        let _guard = naive_lock();
        let packed = bits(&gru.forward_inference(&xs));
        prop_assert_eq!(&packed, &bits(&naive(|| gru.forward_inference(&xs))));
        prop_assert_eq!(&packed, &bits(&gru.forward(&xs)));
    }

    #[test]
    fn dense_packed_bit_matches_naive_and_training(
        case in from_fn(|rng| {
            let out = rng.random_range(1..=3 * TILE + 1);
            (rng.random_range(1..=64usize), out, rng.random_range(1..=7usize), rng.random::<u64>())
        }),
    ) {
        let (d, out, batch, seed) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        for act in [Activation::Linear, Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
            let mut dense = Dense::new(d, out, act, Init::XavierUniform, &mut rng);
            *dense.bias_mut() = matrix_of(&mut rng, 1, out);
            let x = matrix_of(&mut rng, batch, d);
            let _guard = naive_lock();
            let packed = bits(&dense.forward_inference(&x));
            prop_assert_eq!(&packed, &bits(&naive(|| dense.forward_inference(&x))));
            let reference = act.apply(&x.affine_t_naive(dense.weights(), dense.bias().as_slice()));
            prop_assert_eq!(&packed, &bits(&reference));
            prop_assert_eq!(&packed, &bits(&dense.forward(&x)));
        }
    }

    #[test]
    fn quantized_lstm_bit_matches_reference_kernels(case in from_fn(recurrent_case)) {
        let (d, hd, batch, steps, seed) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lstm = Lstm::new(d, hd, &mut rng);
        let xs = sequence(&mut rng, steps, batch, d);
        let got = lstm.quantized().forward(&xs);
        prop_assert_eq!(bits(&got), bits(&quantized_lstm_reference(&mut lstm, &xs)));
    }

    #[test]
    fn quantized_gru_bit_matches_reference_kernels(case in from_fn(recurrent_case)) {
        let (d, hd, batch, steps, seed) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gru = Gru::new(d, hd, &mut rng);
        let xs = sequence(&mut rng, steps, batch, d);
        let got = gru.quantized().forward(&xs);
        prop_assert_eq!(bits(&got), bits(&quantized_gru_reference(&mut gru, &xs)));
    }

    #[test]
    fn quantized_dense_bit_matches_reference_kernels(
        case in from_fn(|rng| {
            let out = rng.random_range(1..=3 * TILE + 1);
            (rng.random_range(1..=64usize), out, rng.random_range(1..=7usize), rng.random::<u64>())
        }),
    ) {
        let (d, out, batch, seed) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = Dense::new(d, out, Activation::Sigmoid, Init::XavierUniform, &mut rng);
        *dense.bias_mut() = matrix_of(&mut rng, 1, out);
        let x = matrix_of(&mut rng, batch, d);
        let q = QuantizedMatrix::quantize(dense.weights());
        let reference = Activation::Sigmoid.apply(&affine_t_quant(&x, &q, dense.bias().as_slice()));
        prop_assert_eq!(bits(&dense.quantized().forward(&x)), bits(&reference));
    }
}

/// Batches just below, at, and above `PAR_THRESHOLD` multiply–adds per
/// product: the row-blocked packed path must agree with the naive path
/// and with itself at 1, 2 and 4 workers.
#[test]
fn par_threshold_crossing_is_worker_invariant() {
    let mut rng = StdRng::seed_from_u64(0x9ac4);
    // LSTM 64 -> 64: (64 + 64) * 256 = 2^15 multiply-adds per row.
    let mut lstm = Lstm::new(64, 64, &mut rng);
    // GRU 64 -> 64: (64 + 64) * 192 per row; 43 rows cross 2^20.
    let mut gru = Gru::new(64, 64, &mut rng);
    // Dense 256 -> 256: 2^16 per row; batch / 2 = 15, 16, 21 rows.
    let dense = Dense::new(256, 256, Activation::Tanh, Init::XavierUniform, &mut rng);
    let (ql, qg, qd) = (lstm.quantized(), gru.quantized(), dense.quantized());
    let qw = QuantizedMatrix::quantize(dense.weights());
    assert_eq!(32 * 128 * 256, PAR_THRESHOLD);
    let _guard = naive_lock();
    for batch in [31usize, 32, 33, 42, 43] {
        let xs = sequence(&mut rng, 3, batch, 64);
        let x = matrix_of(&mut rng, batch / 2, 256);
        let want = (
            bits(&naive(|| lstm.forward_inference(&xs))),
            bits(&naive(|| gru.forward_inference(&xs))),
            bits(&naive(|| dense.forward_inference(&x))),
        );
        let want_quantized = (
            bits(&quantized_lstm_reference(&mut lstm, &xs)),
            bits(&quantized_gru_reference(&mut gru, &xs)),
            bits(&Activation::Tanh.apply(&affine_t_quant(&x, &qw, dense.bias().as_slice()))),
        );
        for workers in [1usize, 2, 4] {
            let (got, got_quantized) = with_workers(workers, || {
                (
                    (
                        bits(&lstm.forward_inference(&xs)),
                        bits(&gru.forward_inference(&xs)),
                        bits(&dense.forward_inference(&x)),
                    ),
                    (
                        bits(&ql.forward(&xs)),
                        bits(&qg.forward(&xs)),
                        bits(&qd.forward(&x)),
                    ),
                )
            });
            assert_eq!(got, want, "batch {batch} at {workers} workers");
            assert_eq!(
                got_quantized, want_quantized,
                "quantized batch {batch} at {workers} workers"
            );
        }
    }
}

#[test]
fn optimizer_steps_never_leave_a_stale_pack() {
    let mut rng = StdRng::seed_from_u64(0x57a1e);
    let mut lstm = Lstm::new(7, 13, &mut rng);
    let mut gru = Gru::new(7, 13, &mut rng);
    let xs = sequence(&mut rng, 4, 3, 7);
    let (mut lstm_opt, mut gru_opt) = (Adam::new(0.05), Adam::new(0.05));
    // Build the packs, then keep a clone that shares them.
    let (lstm_before, gru_before) = (lstm.forward_inference(&xs), gru.forward_inference(&xs));
    let (lstm_clone, gru_clone) = (lstm.clone(), gru.clone());
    for _ in 0..3 {
        let h = lstm.forward(&xs);
        lstm.backward_last(&h);
        lstm_opt.step(&mut lstm.params_mut());
        let h = gru.forward(&xs);
        gru.backward_last(&h);
        gru_opt.step(&mut gru.params_mut());
        // The training forward reads the weights directly: inference must
        // agree with it after every step.
        assert_eq!(bits(&lstm.forward_inference(&xs)), bits(&lstm.forward(&xs)));
        assert_eq!(bits(&gru.forward_inference(&xs)), bits(&gru.forward(&xs)));
    }
    assert_ne!(bits(&lstm.forward_inference(&xs)), bits(&lstm_before));
    assert_ne!(bits(&gru.forward_inference(&xs)), bits(&gru_before));
    // Clones taken before the steps still score their own weights.
    assert_eq!(bits(&lstm_clone.forward_inference(&xs)), bits(&lstm_before));
    assert_eq!(bits(&gru_clone.forward_inference(&xs)), bits(&gru_before));
}

#[test]
fn weights_mut_drops_the_dense_pack() {
    let mut rng = StdRng::seed_from_u64(0xdea5e);
    let mut dense = Dense::new(9, 21, Activation::Sigmoid, Init::XavierUniform, &mut rng);
    let x = matrix_of(&mut rng, 4, 9);
    let before = dense.forward_inference(&x);
    dense.weights_mut().scale(-0.5);
    let after = dense.forward_inference(&x);
    let fresh =
        Activation::Sigmoid.apply(&x.affine_t_naive(dense.weights(), dense.bias().as_slice()));
    assert_eq!(bits(&after), bits(&fresh));
    assert_ne!(bits(&after), bits(&before));
    // An inference-only copy (packs built eagerly) scores the same.
    let mut lean = dense.clone();
    lean.drop_training_state();
    assert_eq!(bits(&lean.forward_inference(&x)), bits(&fresh));
}
