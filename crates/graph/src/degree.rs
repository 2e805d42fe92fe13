//! Degree statistics and degree-sequence utilities.
//!
//! The main theorem is parameterised by the *minimum degree* written as
//! `d = n^α`; [`DegreeStats::alpha`] recovers the exponent α so experiments
//! can be expressed directly in the paper's terms.  The *effective minimum
//! degree* of Abdullah & Draief (reference \[1] of the paper) is also
//! provided, since experiment E12 compares against their Best-of-k (k ≥ 5)
//! setting.

use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// Summary statistics of a graph's degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: f64,
    /// Population variance of the degree sequence.
    pub variance: f64,
}

impl DegreeStats {
    /// Computes degree statistics; errors on the empty graph.
    pub fn of(graph: &CsrGraph) -> Result<Self> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let mut degrees: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
        degrees.sort_unstable();
        let min = degrees[0];
        let max = degrees[n - 1];
        let sum: usize = degrees.iter().sum();
        let mean = sum as f64 / n as f64;
        let median = if n % 2 == 1 {
            degrees[n / 2] as f64
        } else {
            (degrees[n / 2 - 1] + degrees[n / 2]) as f64 / 2.0
        };
        let variance = degrees
            .iter()
            .map(|&d| (d as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        Ok(DegreeStats {
            n,
            m: graph.num_edges(),
            min,
            max,
            mean,
            median,
            variance,
        })
    }

    /// The exponent `α` such that the minimum degree equals `n^α`.
    ///
    /// Theorem 1 requires `α = Ω(1/ log log n)`.  Returns `None` when the
    /// graph has a single vertex (α is undefined) or the minimum degree is 0.
    pub fn alpha(&self) -> Option<f64> {
        if self.n <= 1 || self.min == 0 {
            return None;
        }
        Some((self.min as f64).ln() / (self.n as f64).ln())
    }

    /// The paper's density condition: does the minimum degree satisfy
    /// `d ≥ n^{c / log log n}` for the supplied constant `c`?
    pub fn satisfies_density_condition(&self, c: f64) -> bool {
        match self.alpha() {
            None => false,
            Some(alpha) => {
                let loglog = (self.n as f64).ln().ln();
                if loglog <= 0.0 {
                    // Tiny graphs: treat the condition as satisfied whenever
                    // the graph is complete-ish.
                    return self.min + 1 >= self.n;
                }
                alpha >= c / loglog
            }
        }
    }

    /// `true` when every vertex has the same degree.
    pub fn is_regular(&self) -> bool {
        self.min == self.max
    }
}

/// The full degree sequence of `graph`, sorted descending.
pub fn degree_sequence(graph: &CsrGraph) -> Vec<usize> {
    let mut d: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
    d.sort_unstable_by(|a, b| b.cmp(a));
    d
}

/// Degree histogram: `hist[k]` = number of vertices of degree `k`.
pub fn degree_histogram(graph: &CsrGraph) -> Vec<usize> {
    let max = graph.max_degree().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for v in graph.vertices() {
        hist[graph.degree(v)] += 1;
    }
    hist
}

/// Effective minimum degree in the sense of Abdullah & Draief
/// (paper reference \[1]): the smallest degree value whose multiplicity is at
/// least `threshold_fraction · n`.
///
/// Returns `None` if no degree value is that common.
pub fn effective_min_degree(graph: &CsrGraph, threshold_fraction: f64) -> Option<usize> {
    let n = graph.num_vertices();
    if n == 0 {
        return None;
    }
    let threshold = (threshold_fraction * n as f64).ceil() as usize;
    let hist = degree_histogram(graph);
    hist.iter()
        .enumerate()
        .find(|&(_, &count)| count >= threshold.max(1))
        .map(|(deg, _)| deg)
}

/// Erdős–Gallai test: can `sequence` (any order) be realised as a simple
/// undirected graph?
pub fn is_graphical(sequence: &[usize]) -> bool {
    if sequence.is_empty() {
        return true;
    }
    let n = sequence.len();
    let mut d: Vec<usize> = sequence.to_vec();
    d.sort_unstable_by(|a, b| b.cmp(a));
    if d[0] >= n {
        return false;
    }
    let total: usize = d.iter().sum();
    if !total.is_multiple_of(2) {
        return false;
    }
    // Erdős–Gallai inequalities with prefix sums.
    let prefix: Vec<usize> = d
        .iter()
        .scan(0usize, |acc, &x| {
            *acc += x;
            Some(*acc)
        })
        .collect();
    for k in 1..=n {
        let lhs = prefix[k - 1];
        let mut rhs = k * (k - 1);
        for &di in &d[k..] {
            rhs += di.min(k);
        }
        if lhs > rhs {
            return false;
        }
    }
    true
}

/// Sum of the degrees of the vertex subset `set` — the quantity `d(X)` used
/// by the expander-based analyses (\[4], \[5]) that the paper compares against.
pub fn volume(graph: &CsrGraph, set: &[usize]) -> Result<usize> {
    let mut total = 0usize;
    for &v in set {
        if v >= graph.num_vertices() {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: graph.num_vertices(),
            });
        }
        total += graph.degree(v);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn stats_of_complete_graph() {
        let g = generators::complete(10);
        let s = DegreeStats::of(&g).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.m, 45);
        assert_eq!(s.min, 9);
        assert_eq!(s.max, 9);
        assert!(s.is_regular());
        assert!((s.mean - 9.0).abs() < 1e-12);
        assert!((s.median - 9.0).abs() < 1e-12);
        assert!(s.variance.abs() < 1e-12);
    }

    #[test]
    fn stats_of_star() {
        let g = generators::star(5).unwrap();
        let s = DegreeStats::of(&g).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!(!s.is_regular());
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn stats_error_on_empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(matches!(DegreeStats::of(&g), Err(GraphError::EmptyGraph)));
    }

    #[test]
    fn alpha_of_complete_graph_is_near_one() {
        let g = generators::complete(1000);
        let s = DegreeStats::of(&g).unwrap();
        let alpha = s.alpha().unwrap();
        assert!(alpha > 0.99 && alpha <= 1.0, "alpha = {alpha}");
    }

    #[test]
    fn alpha_undefined_for_single_vertex_or_isolated() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(DegreeStats::of(&g).unwrap().alpha(), None);
        let g2 = GraphBuilder::new(3)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(DegreeStats::of(&g2).unwrap().alpha(), None);
    }

    #[test]
    fn density_condition_holds_for_complete_graph() {
        let g = generators::complete(500);
        let s = DegreeStats::of(&g).unwrap();
        assert!(s.satisfies_density_condition(1.0));
    }

    #[test]
    fn density_condition_fails_for_cycle() {
        // Cycle has min degree 2, far below n^{c/log log n} for large n.
        let g = generators::cycle(10_000).unwrap();
        let s = DegreeStats::of(&g).unwrap();
        assert!(!s.satisfies_density_condition(1.0));
    }

    #[test]
    fn degree_sequence_sorted_descending() {
        let g = generators::star(4).unwrap();
        assert_eq!(degree_sequence(&g), vec![3, 1, 1, 1]);
    }

    #[test]
    fn histogram_counts_match() {
        let g = generators::star(4).unwrap();
        let h = degree_histogram(&g);
        assert_eq!(h, vec![0, 3, 0, 1]);
    }

    #[test]
    fn effective_min_degree_of_regular_graph_is_degree() {
        let g = generators::complete(20);
        assert_eq!(effective_min_degree(&g, 0.5), Some(19));
    }

    #[test]
    fn effective_min_degree_ignores_rare_low_degrees() {
        // Star: one vertex of degree n-1, n-1 vertices of degree 1.
        let g = generators::star(10).unwrap();
        // Degree 1 occurs 9 times (common), degree 9 once (rare).
        assert_eq!(effective_min_degree(&g, 0.5), Some(1));
        // With an impossible threshold the centre degree never qualifies,
        // but leaves always do at fraction <= 0.9.
        assert_eq!(effective_min_degree(&g, 0.9), Some(1));
    }

    #[test]
    fn erdos_gallai_accepts_regular_sequences() {
        assert!(is_graphical(&[3, 3, 3, 3]));
        assert!(is_graphical(&[2, 2, 2]));
        assert!(is_graphical(&[]));
        assert!(is_graphical(&[0, 0]));
    }

    #[test]
    fn erdos_gallai_rejects_impossible_sequences() {
        assert!(!is_graphical(&[4, 1, 1, 1])); // degree exceeds n-1 after pairing
        assert!(!is_graphical(&[3, 1, 1])); // degree >= n
        assert!(!is_graphical(&[1, 1, 1])); // odd sum
    }

    #[test]
    fn volume_matches_definition() {
        let g = generators::star(5).unwrap();
        assert_eq!(volume(&g, &[0]).unwrap(), 4);
        assert_eq!(volume(&g, &[1, 2, 3, 4]).unwrap(), 4);
        assert_eq!(volume(&g, &[0, 1, 2, 3, 4]).unwrap(), 8);
        assert!(volume(&g, &[9]).is_err());
    }
}
