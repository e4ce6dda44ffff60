//! Online frame ingestion: a ring buffer that assembles collection-window
//! covariates incrementally, so deployments can feed frames one at a time
//! instead of materializing the full stream's feature matrix.

use std::collections::VecDeque;

use eventhit_nn::matrix::Matrix;

/// A source of per-frame feature vectors (the boundary where a real
/// detector — YOLO, Faster R-CNN, a user's own extractor — plugs in).
pub trait FrameSource {
    /// Feature dimensionality `D`.
    fn dim(&self) -> usize;

    /// Produces the next frame's features, or `None` at end of stream.
    fn next_frame(&mut self) -> Option<Vec<f32>>;
}

/// Adapter exposing a precomputed `N x D` feature matrix as a
/// [`FrameSource`] (used by the simulator and tests).
pub struct MatrixFrameSource<'a> {
    features: &'a Matrix,
    cursor: usize,
}

impl<'a> MatrixFrameSource<'a> {
    /// Wraps a feature matrix, starting at frame `from`.
    pub fn new(features: &'a Matrix, from: usize) -> Self {
        MatrixFrameSource {
            features,
            cursor: from,
        }
    }
}

impl FrameSource for MatrixFrameSource<'_> {
    fn dim(&self) -> usize {
        self.features.cols()
    }

    fn next_frame(&mut self) -> Option<Vec<f32>> {
        if self.cursor >= self.features.rows() {
            return None;
        }
        let row = self.features.row(self.cursor).to_vec();
        self.cursor += 1;
        Some(row)
    }
}

/// A fixed-capacity ring of the last `M` frames' features.
pub struct WindowBuffer {
    window: usize,
    dim: usize,
    frames: VecDeque<Vec<f32>>,
    /// Total frames ever pushed (the current stream position + 1).
    pushed: u64,
}

impl WindowBuffer {
    /// Creates a buffer for collection windows of `window` frames of
    /// dimensionality `dim`.
    pub fn new(window: usize, dim: usize) -> Self {
        assert!(window > 0 && dim > 0);
        WindowBuffer {
            window,
            dim,
            frames: VecDeque::with_capacity(window),
            pushed: 0,
        }
    }

    /// Pushes one frame's features, evicting the oldest when full.
    ///
    /// # Panics
    /// Panics if `features.len() != dim`.
    pub fn push(&mut self, features: Vec<f32>) {
        assert_eq!(features.len(), self.dim, "frame dimensionality mismatch");
        if self.frames.len() == self.window {
            self.frames.pop_front();
        }
        self.frames.push_back(features);
        self.pushed += 1;
    }

    /// True when a full collection window is buffered.
    pub fn is_full(&self) -> bool {
        self.frames.len() == self.window
    }

    /// The configured collection-window size `M`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The configured feature dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Copies out the buffered rows, oldest first — between 0 and
    /// `window` rows of `dim` values each. Together with
    /// [`WindowBuffer::frames_seen`] this is the buffer's complete
    /// dynamic state, which [`WindowBuffer::restore`] reconstructs
    /// bit-identically (the durable-serving snapshot path).
    pub fn snapshot_rows(&self) -> Vec<Vec<f32>> {
        self.frames.iter().cloned().collect()
    }

    /// Rebuilds a buffer from a snapshot taken with
    /// [`WindowBuffer::snapshot_rows`] / [`WindowBuffer::frames_seen`].
    ///
    /// # Panics
    /// Panics if more than `window` rows are given, any row is not `dim`
    /// long, or `pushed` is smaller than the number of rows (callers that
    /// read snapshots from disk validate first and surface typed errors).
    pub fn restore(window: usize, dim: usize, rows: Vec<Vec<f32>>, pushed: u64) -> Self {
        assert!(window > 0 && dim > 0);
        assert!(rows.len() <= window, "snapshot holds more rows than fit");
        assert!(
            rows.iter().all(|r| r.len() == dim),
            "snapshot row dimensionality mismatch"
        );
        assert!(
            pushed >= rows.len() as u64,
            "fewer frames pushed than buffered"
        );
        WindowBuffer {
            window,
            dim,
            frames: rows.into(),
            pushed,
        }
    }

    /// Buffered frame `i`, oldest first — a borrowed view that lets a
    /// scorer read the window without copying it out.
    ///
    /// # Panics
    /// Panics if fewer than `i + 1` frames are buffered.
    pub fn frame(&self, i: usize) -> &[f32] {
        &self.frames[i]
    }

    /// Number of frames pushed so far.
    pub fn frames_seen(&self) -> u64 {
        self.pushed
    }

    /// The current covariate matrix (`M x D`, oldest frame first).
    ///
    /// # Panics
    /// Panics if the buffer is not yet full.
    pub fn covariates(&self) -> Matrix {
        assert!(self.is_full(), "collection window not yet full");
        let mut m = Matrix::zeros(self.window, self.dim);
        for (r, frame) in self.frames.iter().enumerate() {
            m.set_row(r, frame);
        }
        m
    }

    /// The covariate matrix of the *last* `m` buffered frames
    /// (`m x D`, oldest first) — the adaptive-window variant of
    /// [`WindowBuffer::covariates`]: a shrunken collection window
    /// consumes only the newest `m` rows. `covariates_last(window)` is
    /// identical to `covariates()`.
    ///
    /// # Panics
    /// Panics if the buffer is not yet full or `m` is not in
    /// `[1, window]`.
    pub fn covariates_last(&self, m: usize) -> Matrix {
        assert!(self.is_full(), "collection window not yet full");
        assert!(
            m >= 1 && m <= self.window,
            "window slice {m} outside [1, {}]",
            self.window
        );
        let mut out = Matrix::zeros(m, self.dim);
        let skip = self.frames.len() - m;
        for (r, frame) in self.frames.iter().skip(skip).enumerate() {
            out.set_row(r, frame);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_fills_then_slides() {
        let mut buf = WindowBuffer::new(3, 2);
        assert!(!buf.is_full());
        buf.push(vec![1.0, 1.0]);
        buf.push(vec![2.0, 2.0]);
        assert!(!buf.is_full());
        buf.push(vec![3.0, 3.0]);
        assert!(buf.is_full());
        let cov = buf.covariates();
        assert_eq!(cov.row(0), &[1.0, 1.0]);
        assert_eq!(cov.row(2), &[3.0, 3.0]);

        buf.push(vec![4.0, 4.0]);
        let cov = buf.covariates();
        assert_eq!(cov.row(0), &[2.0, 2.0]);
        assert_eq!(cov.row(2), &[4.0, 4.0]);
        assert_eq!(buf.frames_seen(), 4);
    }

    #[test]
    #[should_panic(expected = "not yet full")]
    fn covariates_requires_full_window() {
        let buf = WindowBuffer::new(3, 2);
        let _ = buf.covariates();
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn push_rejects_wrong_dim() {
        let mut buf = WindowBuffer::new(2, 3);
        buf.push(vec![1.0]);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        let mut buf = WindowBuffer::new(3, 2);
        for i in 0..5 {
            buf.push(vec![i as f32, -(i as f32)]);
        }
        let restored = WindowBuffer::restore(
            buf.window(),
            buf.dim(),
            buf.snapshot_rows(),
            buf.frames_seen(),
        );
        assert_eq!(restored.frames_seen(), buf.frames_seen());
        assert_eq!(restored.covariates(), buf.covariates());

        // Both continue identically after the restore point.
        let mut a = buf;
        let mut b = restored;
        a.push(vec![9.0, 9.5]);
        b.push(vec![9.0, 9.5]);
        assert_eq!(a.covariates(), b.covariates());
        assert_eq!(a.frames_seen(), b.frames_seen());
    }

    #[test]
    #[should_panic(expected = "more rows than fit")]
    fn restore_rejects_oversized_snapshots() {
        let _ = WindowBuffer::restore(2, 1, vec![vec![1.0], vec![2.0], vec![3.0]], 3);
    }

    #[test]
    fn covariates_last_slices_the_newest_rows() {
        let mut buf = WindowBuffer::new(4, 2);
        for i in 0..6 {
            buf.push(vec![i as f32, 10.0 + i as f32]);
        }
        // Buffer holds frames 2..=5.
        assert_eq!(buf.covariates_last(4), buf.covariates());
        let last2 = buf.covariates_last(2);
        assert_eq!(last2.shape(), (2, 2));
        assert_eq!(last2.row(0), &[4.0, 14.0]);
        assert_eq!(last2.row(1), &[5.0, 15.0]);
        assert_eq!(buf.covariates_last(1).row(0), &[5.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "outside [1, 4]")]
    fn covariates_last_rejects_oversized_slice() {
        let mut buf = WindowBuffer::new(4, 1);
        for i in 0..4 {
            buf.push(vec![i as f32]);
        }
        let _ = buf.covariates_last(5);
    }

    #[test]
    fn matrix_source_yields_rows_then_ends() {
        let mut m = Matrix::zeros(3, 2);
        for r in 0..3 {
            m[(r, 0)] = r as f32;
        }
        let mut src = MatrixFrameSource::new(&m, 1);
        assert_eq!(src.dim(), 2);
        assert_eq!(src.next_frame(), Some(vec![1.0, 0.0]));
        assert_eq!(src.next_frame(), Some(vec![2.0, 0.0]));
        assert_eq!(src.next_frame(), None);
        assert_eq!(src.next_frame(), None);
    }

    #[test]
    fn buffered_covariates_match_matrix_slice() {
        let mut m = Matrix::zeros(10, 3);
        for r in 0..10 {
            for c in 0..3 {
                m[(r, c)] = (r * 3 + c) as f32;
            }
        }
        let mut src = MatrixFrameSource::new(&m, 0);
        let mut buf = WindowBuffer::new(4, 3);
        for _ in 0..7 {
            buf.push(src.next_frame().unwrap());
        }
        // Window should be rows 3..=6.
        let cov = buf.covariates();
        let expected = m.select_rows(&[3, 4, 5, 6]);
        assert_eq!(cov, expected);
    }
}
