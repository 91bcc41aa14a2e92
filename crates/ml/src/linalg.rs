//! Minimal dense linear algebra for the neural-network stack.

use std::ops::Range;

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// An empty (0 × 0) matrix — the natural warmup state for reusable
    /// buffers.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1×n row matrix from a slice.
    pub fn row_from(slice: &[f64]) -> Self {
        Matrix::from_vec(1, slice.len(), slice.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major buffer, mutable.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes the matrix to `rows × cols`, reusing the existing
    /// allocation when capacity suffices. Contents are unspecified
    /// afterwards — callers must overwrite every element.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an exact copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// `self · other` (m×k · k×n → m×n).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other` written into a caller-provided buffer (no
    /// allocation once `out` has warmed up to the right capacity).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_map_into(other, 0..other.cols, out, |_, sum| sum);
    }

    /// `out[r][j] = epilogue(j, Σ_k self[r][k] · other[k][cols.start + j])`
    /// — the product restricted to a range of `other`'s columns
    /// (`out` is m × `cols.len()`), each finished sum passed through
    /// `epilogue` once. The three things a layer needs from a product
    /// are this call: the forward pass hands it the k-major weight
    /// mirror and adds bias and activation in the epilogue instead of
    /// in two more passes over `out`; the backward pass hands it `W`
    /// itself and the input-gradient columns its caller will read.
    /// Every output element is its own fold, from `0.0` in ascending
    /// `k` (the kernel, `product`, is at the bottom of this file), so a
    /// restricted product equals those columns of the full one bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or a range past `other`'s
    /// width.
    pub fn matmul_map_into(
        &self,
        other: &Matrix,
        cols: Range<usize>,
        out: &mut Matrix,
        epilogue: impl Fn(usize, f64) -> f64,
    ) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert!(cols.end <= other.cols, "column range out of bounds");
        out.resize(self.rows, cols.len());
        out.fill(0.0);
        let lhs = |[r0, r1]: [usize; 2]| {
            let pairs = self.row(r0).iter().zip(self.row(r1));
            pairs.map(|(&x0, &x1)| [x0, x1])
        };
        dispatch(lhs, other, cols, out, epilogue);
    }

    /// `selfᵀ` written into a caller-provided buffer.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// `acc += selfᵀ · other`, accumulating directly into the gradient
    /// buffer: the backward pass skips the intermediate product matrix.
    /// Each element of `acc` receives its contributions one `+=` at a
    /// time in ascending sample (`m`) order, starting from the value it
    /// already holds.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn transpose_matmul_acc(&self, other: &Matrix, acc: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transpose_matmul shape mismatch");
        assert_eq!(acc.rows, self.cols, "transpose_matmul acc shape mismatch");
        assert_eq!(acc.cols, other.cols, "transpose_matmul acc shape mismatch");
        // Row `r` of `selfᵀ` is column `r` of `self`: one element per
        // sample row, and the two rows of a tile sit side by side.
        let lhs = |[r0, r1]: [usize; 2]| {
            let samples = self.data.chunks_exact(self.cols);
            samples.map(move |row| [row[r0], row[r1]])
        };
        dispatch(lhs, other, 0..other.cols, acc, |_, sum| sum);
    }

    /// `acc[c] += Σ_r self[r][c]`: column sums accumulated into a
    /// gradient buffer.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != cols`.
    pub fn col_sums_acc(&self, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.cols, "col_sums acc width mismatch");
        for r in 0..self.rows {
            for (o, x) in acc.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.hstack_into(other, &mut out);
        out
    }

    /// `[self | other]` written into a caller-provided buffer.
    pub fn hstack_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        out.resize(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Copy of columns `[from, to)`.
    pub fn slice_cols(&self, from: usize, to: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.slice_cols_into(from, to, &mut out);
        out
    }

    /// Columns `[from, to)` written into a caller-provided buffer.
    pub fn slice_cols_into(&self, from: usize, to: usize, out: &mut Matrix) {
        assert!(from <= to && to <= self.cols, "column range out of bounds");
        out.resize(self.rows, to - from);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[from..to]);
        }
    }
}

thread_local!(static PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });

/// Whether this thread's products run the AVX2 instantiation: the CPU
/// has AVX2 and no [`with_portable_kernel`] is in force.
pub fn kernel_avx2() -> bool {
    #[cfg(target_arch = "x86_64")] // std caches the probe: it runs once per process
    let detected = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let detected = false;
    detected && !PORTABLE.get()
}

/// [`kernel_avx2`] as a name for headers: `"avx2"` or `"portable"`.
pub fn kernel_isa() -> &'static str {
    ["portable", "avx2"][usize::from(kernel_avx2())]
}

/// Runs `f` with this thread's products on the portable instantiation,
/// the reference of the twin tests and `_portable` micro-benchmarks.
pub fn with_portable_kernel<T>(f: impl FnOnce() -> T) -> T {
    let was = PORTABLE.replace(true);
    let result = f();
    PORTABLE.set(was);
    result
}

/// Runs [`product`] as the instantiation [`kernel_avx2`] picks.
fn dispatch<I: Iterator<Item = [f64; 2]>>(
    lhs: impl Fn([usize; 2]) -> I,
    rhs: &Matrix,
    cols: Range<usize>,
    out: &mut Matrix,
    epilogue: impl Fn(usize, f64) -> f64,
) {
    #[cfg(target_arch = "x86_64")]
    if kernel_avx2() {
        // SAFETY: `kernel_avx2` is true only where `is_x86_feature_detected!("avx2")` is.
        return unsafe { product_avx2(lhs, rhs, cols, out, epilogue) };
    }
    product(lhs, rhs, cols, out, epilogue)
}

/// [`product`] compiled for AVX2: four doubles per instruction, not two.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn product_avx2<I: Iterator<Item = [f64; 2]>>(
    lhs: impl Fn([usize; 2]) -> I,
    rhs: &Matrix,
    cols: Range<usize>,
    out: &mut Matrix,
    epilogue: impl Fn(usize, f64) -> f64,
) {
    product(lhs, rhs, cols, out, epilogue)
}

/// The one product kernel: `out[r][j] = epilogue(j, out[r][j] + Σ_k
/// lhs[r][k] · rhs[k][cols.start + j])`, where `lhs([r0, r1])` streams
/// rows `r0` and `r1` of the left operand side by side in ascending `k`.
///
/// Each output element is one fold — it starts from the value `out`
/// holds and takes its `k` contributions one `+=` at a time in ascending
/// `k`, the naive triple loop's operands in the naive order, hence its
/// bits. What is blocked is *which folds advance together*: a 2-row ×
/// 8-column tile is sixteen independent accumulators that stay in
/// vector registers and share one contiguous load of `rhs` per `k`.
/// Along `k` a fold is a serial chain the compiler may not reassociate;
/// across columns there is nothing to reassociate, so this is the
/// direction that vectorises. Columns past the last full tile run as
/// one 4-wide tile and then one at a time; an odd last row pairs with
/// itself (same sums, stored twice).
///
/// This body is compiled twice, portable (SSE2 on x86-64) and as
/// [`product_avx2`]; [`kernel_avx2`] says which one runs. Their bits
/// match: same folds in the same order, no `a * b + c` contracted into
/// an FMA (Rust never does; `fma` is not enabled), the same libm `tanh`.
///
/// The kernel is dense: a zero on the left (a ReLU-masked `dz`)
/// contributes `±0.0 · w` instead of being skipped. For finite operands
/// that is the same fold — a sum that does not start at `-0.0` never
/// becomes it, and adding `±0.0` to anything else returns it unchanged
/// — and it spares the backward pass one unpredictable branch
/// per `dz` element (the masks change every minibatch). A non-finite
/// `rhs` entry opposite a zero now yields NaN where a skip would have
/// hidden it.
#[inline(always)]
fn product<I: Iterator<Item = [f64; 2]>>(
    lhs: impl Fn([usize; 2]) -> I,
    rhs: &Matrix,
    cols: Range<usize>,
    out: &mut Matrix,
    epilogue: impl Fn(usize, f64) -> f64,
) {
    let n = cols.len();
    for r0 in (0..out.rows).step_by(2) {
        let rows = [r0, (r0 + 1).min(out.rows - 1)];
        let mut j = 0;
        while j < n {
            let (at, from) = (rows.map(|r| r * n + j), cols.start + j);
            let map = |c, sum| epilogue(j + c, sum);
            j += match n - j {
                8.. => tile::<8>(lhs(rows), rhs, from, &mut out.data, at, map),
                4.. => tile::<4>(lhs(rows), rhs, from, &mut out.data, at, map),
                _ => tile::<1>(lhs(rows), rhs, from, &mut out.data, at, map),
            };
        }
    }
}

/// One 2-row × `W`-column tile of [`product`]: the folds of `out[at[0]..]`
/// and `out[at[1]..]` (`W` elements each) against columns `from..from + W`
/// of `rhs`. Returns `W`.
#[inline(always)]
fn tile<const W: usize>(
    lhs: impl Iterator<Item = [f64; 2]>,
    rhs: &Matrix,
    from: usize,
    out: &mut [f64],
    at: [usize; 2],
    epilogue: impl Fn(usize, f64) -> f64,
) -> usize {
    let mut sums = at.map(|o| <[f64; W]>::try_from(&out[o..o + W]).expect("W columns"));
    for ([x0, x1], row) in lhs.zip(rhs.data.chunks_exact(rhs.cols)) {
        let w: &[f64; W] = row[from..from + W].try_into().expect("W columns");
        for c in 0..W {
            sums[0][c] += x0 * w[c];
            sums[1][c] += x1 * w[c];
        }
    }
    for (o, sums) in at.into_iter().zip(sums) {
        for (c, sum) in sums.into_iter().enumerate() {
            out[o + c] = epilogue(c, sum);
        }
    }
    W
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    /// Computes `f` on the portable instantiation — the reference — and,
    /// where the CPU has AVX2, again on the dispatched one, which must
    /// match it bit for bit. Returns the reference.
    fn on_both_kernels(what: &str, f: impl Fn() -> Matrix) -> Matrix {
        let portable = with_portable_kernel(&f);
        if !kernel_avx2() {
            println!("{what}: no AVX2 on this CPU, wide instantiation skipped");
            return portable;
        }
        assert_same_bits(&f(), &portable, &format!("avx2 vs portable, {what}"));
        portable
    }

    fn assert_same_bits(x: &Matrix, y: &Matrix, what: &str) {
        assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()), "{what}");
        for (a, b) in x.data().iter().zip(y.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}");
        }
    }

    #[test]
    fn only_the_override_picks_the_portable_instantiation() {
        let avx2 = kernel_avx2();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(avx2, std::is_x86_feature_detected!("avx2"));
        assert_eq!(kernel_isa(), if avx2 { "avx2" } else { "portable" });
        assert!(!with_portable_kernel(kernel_avx2));
        assert_eq!(with_portable_kernel(kernel_isa), "portable");
        assert_eq!(kernel_avx2(), avx2, "override not restored");
    }

    /// `x · wᵀ` the way a layer's forward pass runs it: the k-major
    /// mirror of `w`, then the product kernel.
    fn forward_product(x: &Matrix, w: &Matrix) -> Matrix {
        let mut wt = Matrix::zeros(3, 3); // wrong warmup shape on purpose
        w.transpose_into(&mut wt);
        x.matmul(&wt)
    }

    #[test]
    fn matmul_transpose_b_matches() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bt = Matrix::from_vec(2, 3, vec![7.0, 9.0, 11.0, 8.0, 10.0, 12.0]);
        let c = forward_product(&a, &bt);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_matmul_matches() {
        // aᵀ·b where a: 3×2, b: 3×2 → 2×2.
        let a = Matrix::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 10.0, 8.0, 11.0, 9.0, 12.0]);
        let mut c = Matrix::zeros(2, 2);
        a.transpose_matmul_acc(&b, &mut c);
        assert_eq!(c.data(), &[50.0, 68.0, 122.0, 167.0]);
    }

    #[test]
    fn broadcast_and_sums() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let mut sums = vec![0.0; 3];
        m.col_sums_acc(&mut sums);
        assert_eq!(sums, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn hadamard_and_map() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        a.map_inplace(f64::abs);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn hstack_and_slice() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 5.0, 6.0]);
        let b = Matrix::from_vec(2, 1, vec![3.0, 7.0]);
        let c = a.hstack(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(1), &[5.0, 6.0, 7.0]);
        let s = c.slice_cols(1, 3);
        assert_eq!(s.row(0), &[2.0, 3.0]);
        assert_eq!(s.row(1), &[6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    /// Sequential reference for the blocked `self · otherᵀ` kernel.
    fn naive_matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols());
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for r in 0..a.rows() {
            for n in 0..b.rows() {
                let mut acc = 0.0;
                for (x, y) in a.row(r).iter().zip(b.row(n)) {
                    acc += x * y;
                }
                out.set(r, n, acc);
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_transpose_b_is_bit_identical_to_naive() {
        // The sweep covers degenerate rows/columns (1×N, N×1, k = 0),
        // exact 8-wide tiles, widths below a tile and not a multiple of
        // one, odd and single rows (the last row pairs with itself),
        // and every (batch, out, in) shape the paper's networks run;
        // irrational-ish values make float order matter.
        for (m, n, k) in [
            (1, 1, 1),
            (3, 7, 5),
            (5, 40, 23),
            (2, 9, 64),
            (4, 4, 0),
            (1, 17, 9),
            (7, 1, 13),
            (9, 8, 8),
            (2, 15, 31),
            (1, 1, 0),
            (64, 40, 23),
            (64, 40, 48),
            (64, 40, 8),
            (64, 40, 40),
            (64, 5, 40),
            (64, 1, 40),
            (1, 40, 40),
            (65, 40, 23),
            (65, 5, 40),
            (3, 16, 2),
        ] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17) as f64).sin() * 3.7);
            let b = Matrix::from_fn(n, k, |r, c| ((r * 13 + c * 7) as f64).cos() / 1.3);
            let what = format!("{m}x{n}x{k}");
            let blocked = on_both_kernels(&what, || forward_product(&a, &b));
            assert_same_bits(&blocked, &naive_matmul_transpose_b(&a, &b), &what);
        }
    }

    #[test]
    fn restricted_product_is_those_columns_of_the_full_one_after_the_epilogue() {
        let a = masked(Matrix::from_fn(7, 40, |r, c| {
            ((r * 29 + c * 11) as f64).sin()
        }));
        let b = Matrix::from_fn(40, 23, |r, c| ((r * 19 + c * 3) as f64).cos() * 1.7);
        let full = on_both_kernels("full", || a.matmul(&b));
        let bias: Vec<f64> = (0..23).map(|c| (c as f64).sin()).collect();
        for cols in [0..23, 18..23, 3..12, 5..5] {
            let lo = cols.start;
            let part = on_both_kernels(&format!("{cols:?}"), || {
                let mut part = Matrix::zeros(0, 0);
                a.matmul_map_into(&b, cols.clone(), &mut part, |j, s| {
                    (s + bias[lo + j]).tanh()
                });
                part
            });
            assert_eq!((part.rows(), part.cols()), (7, cols.len()));
            for r in 0..7 {
                for (j, c) in cols.clone().enumerate() {
                    let want = (full.get(r, c) + bias[c]).tanh();
                    assert_eq!(part.get(r, j).to_bits(), want.to_bits(), "{cols:?}");
                }
            }
        }
    }

    /// Sequential reference for `matmul_into`: ascending-`k` axpy with
    /// the zero-skip, exactly the pre-blocking formulation.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows());
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.get(r, k);
                if av == 0.0 {
                    continue;
                }
                for c in 0..b.cols() {
                    let v = out.get(r, c) + av * b.get(k, c);
                    out.set(r, c, v);
                }
            }
        }
        out
    }

    /// ReLU-like mask: zero out a scattered subset, so the dense kernel
    /// is held to the zero-skipping references below.
    fn masked(mut m: Matrix) -> Matrix {
        for (i, x) in m.data_mut().iter_mut().enumerate() {
            if (i * 2_654_435_761) % 7 < 3 {
                *x = 0.0;
            }
        }
        m
    }

    #[test]
    fn fused_matmul_into_is_bit_identical_to_naive() {
        // Dense and ReLU-masked operands against the zero-skipping
        // reference: for finite operands the skipped terms are `±0.0`
        // and change no bit.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (64, 40, 40),
            (64, 41, 23),
            (2, 3, 9),
            (1, 8, 1),
            (5, 0, 4),
        ] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 29 + c * 11) as f64).sin() * 2.1);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 19 + c * 3) as f64).cos() * 1.7);
            for a in [a.clone(), masked(a)] {
                let what = format!("{m}x{k}x{n}");
                let fused = on_both_kernels(&what, || {
                    let mut fused = Matrix::zeros(0, 0);
                    a.matmul_into(&b, &mut fused);
                    fused
                });
                assert_same_bits(&fused, &naive_matmul(&a, &b), &what);
            }
        }
    }

    /// Sequential reference for `transpose_matmul_acc`: ascending-`m`
    /// axpy onto `start` with the zero-skip (the unfused kernel).
    fn naive_transpose_matmul_acc(dz: &Matrix, x: &Matrix, start: &Matrix) -> Matrix {
        let mut out = start.clone();
        for m in 0..dz.rows() {
            for (k, &a) in dz.row(m).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for c in 0..x.cols() {
                    let v = out.get(k, c) + a * x.get(m, c);
                    out.set(k, c, v);
                }
            }
        }
        out
    }

    #[test]
    fn fused_transpose_matmul_acc_is_bit_identical_to_naive() {
        // Dense and ReLU-masked `dz`, each accumulating onto a zero and
        // onto a non-zero starting gradient.
        for (rows, k, n) in [(1, 1, 1), (6, 3, 4), (64, 40, 23), (65, 7, 9), (3, 2, 8)] {
            let dz = Matrix::from_fn(rows, k, |r, c| ((r * 23 + c * 13) as f64).sin() * 1.9);
            let x = Matrix::from_fn(rows, n, |r, c| ((r * 17 + c * 5) as f64).cos() * 0.8);
            let held = Matrix::from_fn(k, n, |r, c| ((r * 7 + c * 3) as f64).sin() * 0.3 + 0.1);
            for dz in [dz.clone(), masked(dz)] {
                for start in [Matrix::zeros(k, n), held.clone()] {
                    let what = format!("{rows}x{k}x{n}");
                    let fused = on_both_kernels(&what, || {
                        let mut fused = start.clone();
                        dz.transpose_matmul_acc(&x, &mut fused);
                        fused
                    });
                    let naive = naive_transpose_matmul_acc(&dz, &x, &start);
                    assert_same_bits(&fused, &naive, &what);
                }
            }
        }
    }

    #[test]
    fn into_forms_reuse_buffers_and_match() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 / 3.0);
        let b = Matrix::from_fn(4, 5, |r, c| (r as f64 - c as f64) * 0.7);
        let bt = Matrix::from_fn(5, 4, |r, c| (r as f64 - c as f64) * 0.7);

        // Warm a deliberately wrong-shaped buffer, then overwrite it.
        let mut out = Matrix::zeros(9, 9);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        bt.transpose_into(&mut out);
        assert_eq!(out, Matrix::from_fn(4, 5, |r, c| bt.get(c, r)));
        let c = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        a.hstack_into(&c, &mut out);
        assert_eq!(out, a.hstack(&c));
        a.slice_cols_into(1, 3, &mut out);
        assert_eq!(out, a.slice_cols(1, 3));
    }

    #[test]
    fn acc_forms_match_compute_then_add() {
        let dz = Matrix::from_fn(6, 3, |r, c| ((r + 2 * c) as f64).sin());
        let x = Matrix::from_fn(6, 4, |r, c| ((3 * r + c) as f64).cos());
        let mut acc = Matrix::zeros(3, 4);
        dz.transpose_matmul_acc(&x, &mut acc);
        let reference = naive_transpose_matmul_acc(&dz, &x, &Matrix::zeros(3, 4));
        assert_same_bits(&acc, &reference, "transpose_matmul_acc");
        let mut sums = vec![1.0; 3];
        dz.col_sums_acc(&mut sums);
        let want: Vec<f64> = (0..3)
            .map(|c| (0..6).fold(1.0, |s, r| s + dz.get(r, c)))
            .collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn resize_and_copy_from_reuse_allocations() {
        let mut m = Matrix::zeros(2, 2);
        m.resize(3, 5);
        assert_eq!((m.rows(), m.cols()), (3, 5));
        assert_eq!(m.data().len(), 15);
        let src = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        m.copy_from(&src);
        assert_eq!(m, src);
        m.fill(7.0);
        assert!(m.data().iter().all(|&x| x == 7.0));
    }
}
