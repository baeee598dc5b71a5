//! Transformer activation functions and normalizations.

/// RMSNorm: `x_i · g_i / sqrt(mean(x²) + ε)`, the normalization used by the
/// LLaMA family.
pub fn rmsnorm(x: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
    assert_eq!(x.len(), gain.len(), "gain length mismatch");
    if x.is_empty() {
        return Vec::new();
    }
    let ms: f32 = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    x.iter()
        .zip(gain.iter())
        .map(|(&v, &g)| v * inv * g)
        .collect()
}

/// SiLU (swish) activation: `x · σ(x)`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// GELU activation (tanh approximation), used by the OPT family.
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (x + 0.044715 * x * x * x)).tanh())
}

/// Element-wise product of two slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn hadamard(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).collect()
}

/// Cross-entropy `−Σ p·ln(q)` between two probability vectors, with
/// clamping to avoid `ln(0)`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn cross_entropy(p: &[f32], q: &[f32]) -> f64 {
    assert_eq!(p.len(), q.len(), "length mismatch");
    let mut acc = 0.0f64;
    for (&pi, &qi) in p.iter().zip(q.iter()) {
        if pi > 0.0 {
            acc -= f64::from(pi) * f64::from(qi.max(1e-12)).ln();
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmsnorm_unit_scale() {
        let x = vec![3.0f32, -4.0]; // rms = sqrt(12.5)
        let g = vec![1.0f32, 1.0];
        let y = rmsnorm(&x, &g, 0.0);
        let rms: f32 = (y.iter().map(|v| v * v).sum::<f32>() / 2.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-5);
    }

    #[test]
    fn silu_and_gelu_fixed_points() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(10.0) > 9.99);
        assert!(silu(-10.0).abs() < 1e-3);
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(3.0) - 3.0).abs() < 0.02);
    }

    #[test]
    fn cross_entropy_minimized_at_match() {
        let p = vec![0.7f32, 0.2, 0.1];
        let ce_self = cross_entropy(&p, &p);
        let q = vec![0.1f32, 0.2, 0.7];
        assert!(cross_entropy(&p, &q) > ce_self);
    }
}
