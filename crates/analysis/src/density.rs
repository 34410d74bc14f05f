//! Density maps: per-rank spatial metric maps (Figure 18).
//!
//! A density map assigns one scalar to every application rank (hits, time
//! or total size of some call class) and renders the ranks as a 2-D grid —
//! making spatial imbalances (LU neighbour gradients, BT symmetry bands)
//! visible at a glance. Renderings: binary PGM images (what the paper's
//! LaTeX report embeds) and ASCII heat maps (for terminals and tests).

/// A per-rank scalar field.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMap {
    values: Vec<f64>,
    /// Label, e.g. "MPI_Send hits".
    pub title: String,
}

/// Summary statistics of a map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityStats {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    /// Coefficient of variation (σ/µ) — the imbalance indicator.
    pub cv: f64,
}

impl DensityMap {
    /// Wraps per-rank values.
    pub fn new(title: &str, values: Vec<f64>) -> DensityMap {
        DensityMap {
            values,
            title: title.to_string(),
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Summary statistics.
    pub fn stats(&self) -> DensityStats {
        if self.values.is_empty() {
            return DensityStats {
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                cv: 0.0,
            };
        }
        let n = self.values.len() as f64;
        let min = self.values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = self
            .values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let mean = self.values.iter().sum::<f64>() / n;
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        // σ/|µ| so the imbalance indicator stays non-negative even for
        // signed metrics.
        let cv = if mean.abs() < f64::EPSILON {
            0.0
        } else {
            var.sqrt() / mean.abs()
        };
        DensityStats { min, max, mean, cv }
    }

    /// Grid layout: near-square `(cols, rows)` with `cols*rows >= len`.
    pub fn grid_shape(&self) -> (usize, usize) {
        let n = self.len();
        if n == 0 {
            return (0, 0);
        }
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        (cols, rows)
    }

    fn normalized(&self) -> Vec<f64> {
        let st = self.stats();
        let span = (st.max - st.min).max(f64::EPSILON);
        self.values.iter().map(|v| (v - st.min) / span).collect()
    }

    /// Binary PGM (P5) image: one pixel per rank, row-major grid layout,
    /// scaled `pixel_size`× for visibility. Missing cells are black.
    pub fn to_pgm(&self, pixel_size: usize) -> Vec<u8> {
        let (cols, rows) = self.grid_shape();
        let ps = pixel_size.max(1);
        let (w, h) = (cols * ps, rows * ps);
        let norm = self.normalized();
        let mut out = format!("P5\n# {}\n{w} {h}\n255\n", self.title).into_bytes();
        let mut pixels = vec![0u8; w * h];
        for (i, v) in norm.iter().enumerate() {
            let (cx, cy) = (i % cols, i / cols);
            let shade = (v * 255.0).round() as u8;
            for dy in 0..ps {
                for dx in 0..ps {
                    pixels[(cy * ps + dy) * w + cx * ps + dx] = shade;
                }
            }
        }
        out.extend_from_slice(&pixels);
        out
    }

    /// ASCII heat map using the 10-step [`glyph`] ramp.
    pub fn ascii(&self) -> String {
        let (cols, _rows) = self.grid_shape();
        if cols == 0 {
            return String::new();
        }
        let norm = self.normalized();
        let mut out = format!(
            "{} (min={:.3e} max={:.3e})\n",
            self.title,
            self.stats().min,
            self.stats().max
        );
        for (i, v) in norm.iter().enumerate() {
            out.push(glyph(*v));
            if (i + 1) % cols == 0 {
                out.push('\n');
            }
        }
        if !self.len().is_multiple_of(cols) {
            out.push('\n');
        }
        out
    }
}

/// The glyph of a value in `0..=1` on a 10-step ramp, blank to `@`;
/// values outside it clamp to the nearer end.
pub(crate) fn glyph(f: f64) -> char {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let idx = ((f * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
    RAMP[idx] as char
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_known_values() {
        let m = DensityMap::new("t", vec![1.0, 2.0, 3.0, 4.0]);
        let s = m.stats();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.cv - (1.25f64.sqrt() / 2.5)).abs() < 1e-12);
    }

    #[test]
    fn uniform_map_has_zero_cv() {
        let m = DensityMap::new("t", vec![5.0; 16]);
        assert_eq!(m.stats().cv, 0.0);
    }

    #[test]
    fn grid_shape_is_near_square() {
        assert_eq!(DensityMap::new("t", vec![0.0; 16]).grid_shape(), (4, 4));
        assert_eq!(DensityMap::new("t", vec![0.0; 12]).grid_shape(), (4, 3));
        assert_eq!(DensityMap::new("t", vec![0.0; 5]).grid_shape(), (3, 2));
        assert_eq!(DensityMap::new("t", vec![]).grid_shape(), (0, 0));
    }

    #[test]
    fn pgm_header_and_size() {
        let m = DensityMap::new("send hits", vec![0.0, 1.0, 2.0, 3.0]);
        let img = m.to_pgm(3);
        let text = String::from_utf8_lossy(&img[..30]);
        assert!(text.starts_with("P5\n"));
        assert!(text.contains("6 6"));
        // Header + 36 pixels.
        let header_end = img.windows(4).position(|w| w == b"255\n").unwrap() + 4;
        assert_eq!(img.len() - header_end, 36);
        // Max value renders white, min black.
        assert_eq!(*img.last().unwrap(), 255);
        assert_eq!(img[header_end], 0);
    }

    #[test]
    fn ascii_rows_match_grid() {
        let m = DensityMap::new("x", (0..12).map(|i| i as f64).collect());
        let a = m.ascii();
        let rows: Vec<&str> = a.lines().skip(1).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 4));
        // Monotone ramp: last cell is the densest glyph.
        assert!(rows[2].ends_with('@'));
    }

    #[test]
    fn empty_map_renders_empty() {
        let m = DensityMap::new("none", vec![]);
        assert!(m.ascii().is_empty());
        assert!(m.is_empty());
    }
}
