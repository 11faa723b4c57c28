//! Shared forward/backward math kernels.
//!
//! Every executor — the arena tape ([`crate::graph::Graph`]), the frozen
//! reference tape ([`crate::tape_ref::RefTape`]) and the tape-free
//! inference arena ([`crate::infer::InferCtx`]) — must produce
//! bit-identical values, so the softmax/log-softmax math, the fused dense
//! row and the fused GAT combine live here exactly once instead of being
//! re-derived per call site. The forward kernels share one
//! max/shifted-exp-sum pass; the backward kernels use only the forward
//! *outputs*, so no max or LSE is ever recomputed on the backward sweep.

use crate::layers::Activation;
use crate::tensor::matvec_rows;

/// Maximum element of a slice (`-inf` for an empty slice), with the same
/// fold the softmax forward always used.
#[inline]
pub fn max_val(x: &[f32]) -> f32 {
    x.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
}

/// The shared core of softmax and log-softmax: writes `exp(x_i - m)`
/// into `out` and returns `(m, sum)` where `m = max(x)`. One max pass
/// and one exp pass serve both forward kernels.
#[inline]
fn shifted_exp_sum(x: &[f32], out: &mut [f32]) -> (f32, f32) {
    debug_assert_eq!(x.len(), out.len());
    let m = max_val(x);
    for (o, &v) in out.iter_mut().zip(x) {
        *o = (v - m).exp();
    }
    (m, out.iter().sum())
}

/// Numerically-stable softmax into a caller buffer (no allocation).
#[inline]
pub fn softmax_into(x: &[f32], out: &mut [f32]) {
    let (_m, sum) = shifted_exp_sum(x, out);
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Numerically-stable log-softmax into a caller buffer (no allocation).
/// `out` doubles as the exp scratch, so the kernel needs no temporary.
#[inline]
pub fn log_softmax_into(x: &[f32], out: &mut [f32]) {
    let (m, sum) = shifted_exp_sum(x, out);
    let lse = m + sum.ln();
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v - lse;
    }
}

/// Numerically-stable softmax of a slice (plain helper, no autodiff).
pub fn softmax_vals(x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; x.len()];
    softmax_into(x, &mut out);
    out
}

/// Softmax backward from the forward *output* `y`:
/// `acc_i += y_i * (g_i - Σ_j g_j y_j)`.
#[inline]
pub fn softmax_grad_acc(y: &[f32], g: &[f32], acc: &mut [f32]) {
    let s: f32 = g.iter().zip(y).map(|(gi, yi)| gi * yi).sum();
    for ((a, &gi), &yi) in acc.iter_mut().zip(g).zip(y) {
        *a += yi * (gi - s);
    }
}

/// Log-softmax backward from the forward output `y`:
/// `acc_i += g_i - exp(y_i) * Σ_j g_j` (note `exp(y) = softmax(x)`).
#[inline]
pub fn log_softmax_grad_acc(y: &[f32], g: &[f32], acc: &mut [f32]) {
    let gsum: f32 = g.iter().sum();
    for ((a, &gi), &yi) in acc.iter_mut().zip(g).zip(y) {
        *a += gi - yi.exp() * gsum;
    }
}

/// One fused dense layer over a single row: `out[j] = act(W[j]·x + b[j])`.
/// Accumulation goes through [`matvec_rows`] — the same whole-matrix
/// kernel the tape's `matvec` uses — so the fused path matches the
/// tape's `matvec` + `add` + activation bit for bit; bias add and
/// activation are then applied in place over the output row.
#[inline]
pub(crate) fn fused_linear_row(
    w: &[f32],
    in_dim: usize,
    x: &[f32],
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
) {
    debug_assert_eq!(x.len(), in_dim);
    debug_assert_eq!(bias.len(), out.len());
    if in_dim == 0 {
        for (o, &bj) in out.iter_mut().zip(bias) {
            *o = act.eval(bj);
        }
        return;
    }
    matvec_rows(w, in_dim, x, out);
    for (o, &bj) in out.iter_mut().zip(bias) {
        *o = act.eval(*o + bj);
    }
}

/// Most terms one fused GAT combine accepts. The tree-convolution filter
/// has five (the parent and the four child/edge terms); the bound only
/// sizes stack-allocated score scratch, so it is safe to raise.
pub(crate) const MAX_GAT_TERMS: usize = 8;

/// The fused GAT attention-combine forward (Eq. 3–5 of the paper), with
/// the anchor `terms[0]`:
///
/// * `s[i] = aᵀ(anchor ‖ terms[i])` — the same left fold as the
///   decomposed `concat` + `dot`. The fold is sequential, so its anchor
///   half is the same prefix for every term: it is summed once, and each
///   term's fold continues from it;
/// * `z = softmax(LeakyReLU(s))` via [`softmax_into`];
/// * `out += Σ_i z[i] · terms[i]`, accumulated in term order over the
///   caller's zeroed `out`, exactly like the decomposed `mul_scalar` +
///   `sum_vec`.
///
/// `s` and `z` (one slot per term) are returned to the caller because the
/// training tape's backward pass replays from them.
#[inline]
pub(crate) fn gat_combine_into(
    a: &[f32],
    slope: f32,
    terms: &[&[f32]],
    s: &mut [f32],
    z: &mut [f32],
    out: &mut [f32],
) {
    let n = terms.len();
    debug_assert!((1..=MAX_GAT_TERMS).contains(&n));
    debug_assert_eq!(s.len(), n);
    debug_assert_eq!(z.len(), n);
    let anchor = terms[0];
    debug_assert_eq!(a.len(), 2 * anchor.len(), "attention vector must cover (anchor ‖ term)");
    let (a_anchor, a_term) = a.split_at(anchor.len());
    let prefix: f32 = a_anchor.iter().zip(anchor).map(|(x, y)| x * y).sum();
    for (si, t) in s.iter_mut().zip(terms) {
        debug_assert_eq!(t.len(), anchor.len(), "gat_combine term dim mismatch");
        *si = a_term.iter().zip(t.iter()).fold(prefix, |acc, (x, y)| acc + x * y);
    }
    let mut raw = [0.0f32; MAX_GAT_TERMS];
    for (r, &si) in raw[..n].iter_mut().zip(s.iter()) {
        *r = if si > 0.0 { si } else { slope * si };
    }
    softmax_into(&raw[..n], z);
    for (&zi, t) in z.iter().zip(terms) {
        for (o, &x) in out.iter_mut().zip(t.iter()) {
            *o += x * zi;
        }
    }
}

/// Fused activation backward from the layer *output* `y`: writes
/// `act'(pre-act) ⊙ g` into `gh`. For every supported activation the
/// derivative branch is decidable from `y` alone with exactly the same
/// outcome as branching on the pre-activation input (`Relu`/`LeakyRelu`
/// are sign-preserving, `Tanh` uses `1 - y²`), including NaN inputs
/// (`y > 0.0` is false for NaN, matching `a > 0.0` on the decomposed
/// tape where `y = max(a, 0)` maps NaN to `0`).
#[inline]
pub(crate) fn act_backward_row(act: Activation, y: &[f32], g: &[f32], gh: &mut [f32]) {
    debug_assert_eq!(y.len(), g.len());
    debug_assert_eq!(y.len(), gh.len());
    match act {
        Activation::None => gh.copy_from_slice(g),
        Activation::Relu => {
            for ((o, &gi), &yi) in gh.iter_mut().zip(g).zip(y) {
                *o = if yi > 0.0 { gi } else { 0.0 };
            }
        }
        Activation::LeakyRelu => {
            for ((o, &gi), &yi) in gh.iter_mut().zip(g).zip(y) {
                *o = if yi > 0.0 { gi } else { gi * 0.01 };
            }
        }
        Activation::Tanh => {
            for ((o, &gi), &yi) in gh.iter_mut().zip(g).zip(y) {
                *o = gi * (1.0 - yi * yi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_into_matches_reference() {
        let x = [0.5f32, -1.0, 2.0, 0.0];
        let mut out = [0.0f32; 4];
        softmax_into(&x, &mut out);
        // Reference: the historical inline expression.
        let m = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = x.iter().map(|v| (v - m).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let expect: Vec<f32> = exps.iter().map(|e| e / sum).collect();
        assert_eq!(&out[..], &expect[..]);
        assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_into_matches_reference() {
        let x = [0.5f32, -1.0, 2.0, 0.0];
        let mut out = [0.0f32; 4];
        log_softmax_into(&x, &mut out);
        let m = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + x.iter().map(|v| (v - m).exp()).sum::<f32>().ln();
        let expect: Vec<f32> = x.iter().map(|v| v - lse).collect();
        assert_eq!(&out[..], &expect[..]);
    }

    /// The shared anchor prefix of the scores continues one sequential
    /// fold, so the kernel equals the decomposed `Backend::gat_combine`
    /// default (recorded on the reference tape) bit for bit, for every
    /// term count, with NaN, ±inf and −0.0 in the anchor, the terms and
    /// the attention vector. Every NaN counts as one value: Rust leaves
    /// the sign and payload of a NaN result unspecified (where two NaNs
    /// meet, the one that survives depends on operand order in codegen).
    #[test]
    fn gat_combine_into_matches_decomposed_default_bitwise() {
        use crate::backend::Backend;
        use crate::params::ParamStore;
        use crate::tape_ref::{RefTape, RefTapeBackend};
        use crate::tensor::Tensor;
        let dim = 3;
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let base = |k: usize| ((k as f32) * 0.37).sin() * 1.5;
        let bits = |v: &[f32]| {
            v.iter().map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits()).collect::<Vec<_>>()
        };
        for n in 1..=MAX_GAT_TERMS {
            let flat_len = 2 * dim + n * dim;
            // Case 0 is plain; case c > 0 puts one special value at flat
            // position c - 1 of (a ‖ anchor ‖ other terms), plus every
            // special at once in case `flat_len + 1`.
            for case in 0..=flat_len + 1 {
                let mut flat: Vec<f32> = (0..flat_len).map(base).collect();
                if case == flat_len + 1 {
                    for (k, &v) in special.iter().enumerate() {
                        flat[(k * 5 + 1) % flat_len] = v;
                    }
                } else if case > 0 {
                    flat[case - 1] = special[case % special.len()];
                }
                let (a, rest) = flat.split_at(2 * dim);
                let terms: Vec<&[f32]> = rest.chunks_exact(dim).collect();
                let (mut s, mut z, mut out) = (vec![0.0; n], vec![0.0; n], vec![0.0; dim]);
                gat_combine_into(a, 0.2, &terms, &mut s, &mut z, &mut out);

                let mut ps = ParamStore::new();
                let aid = ps.register("a", Tensor::vector(a.to_vec()));
                let mut rt = RefTape::new();
                let mut b = RefTapeBackend::new(&mut rt, &ps);
                let ids: Vec<_> = terms.iter().map(|t| b.input(t)).collect();
                let c = b.gat_combine(aid, 0.2, &ids);
                assert_eq!(bits(&out), bits(b.value(c)), "n = {n}, case {case}: {flat:?}");
            }
        }
    }

    #[test]
    fn act_backward_handles_nan_like_the_decomposed_tape() {
        // Pre-act NaN: decomposed Relu forward gives y = 0 and backward
        // takes the `a > 0` false branch (0.0); the fused kernel must
        // agree when branching on y.
        let y = [0.0f32, 1.5];
        let g = [3.0f32, 2.0];
        let mut gh = [9.0f32; 2];
        act_backward_row(Activation::Relu, &y, &g, &mut gh);
        assert_eq!(gh, [0.0, 2.0]);
        // LeakyRelu on y = NaN takes the negative branch in both forms.
        let y = [f32::NAN];
        let mut gh = [0.0f32];
        act_backward_row(Activation::LeakyRelu, &y, &[4.0], &mut gh);
        assert_eq!(gh[0], 4.0 * 0.01);
    }
}
