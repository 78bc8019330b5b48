//! Order statistics for the reported figures.

/// Quartiles `(q1, median, q3)` by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them (`q1 = q3 = median`
/// for fewer than two values).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = v.first().copied().unwrap_or(0.0);
        return (m, m, m);
    }
    // Python's exclusive method: position i·(n+1)/4, clamped to the
    // inner points and interpolated (extrapolated at the clamp).
    let ld = n as i64;
    let at = |i: i64| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = i * (ld + 1) - j * 4;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    (at(1), at(2), at(3))
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}
