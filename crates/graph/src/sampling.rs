//! Neighbour sampling primitives.
//!
//! The Best-of-k dynamics sample `k` neighbours *uniformly with replacement*
//! each round for every vertex, so sampling is the single hottest operation
//! in the whole system.  [`NeighbourSampler`] is a thin, allocation-free view
//! over a [`CsrGraph`]; [`AliasTable`] supports the weighted distributions
//! used by the Chung–Lu generator and by degree-biased initialisations.

use rand::Rng;

use crate::csr::{CsrGraph, VertexId};
use crate::error::{GraphError, Result};

/// Uniform neighbour sampling over a CSR graph.
#[derive(Debug, Clone, Copy)]
pub struct NeighbourSampler<'g> {
    graph: &'g CsrGraph,
}

impl<'g> NeighbourSampler<'g> {
    /// Wraps a graph. Fails if any vertex is isolated, because a vertex with
    /// no neighbours cannot perform a Best-of-k update.
    pub fn new(graph: &'g CsrGraph) -> Result<Self> {
        for v in graph.vertices() {
            if graph.degree(v) == 0 {
                return Err(GraphError::IsolatedVertex { vertex: v });
            }
        }
        Ok(NeighbourSampler { graph })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// Samples one uniform random neighbour of `v` (with replacement
    /// semantics across repeated calls).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        let deg = self.graph.degree(v);
        debug_assert!(deg > 0, "cannot sample a neighbour of isolated vertex {v}");
        let i = rng.gen_range(0..deg);
        self.graph.neighbour_at(v, i)
    }

    /// Samples `K` neighbours of `v` uniformly **with replacement**.
    #[inline]
    pub fn sample_with_replacement<const K: usize, R: Rng + ?Sized>(
        &self,
        v: VertexId,
        rng: &mut R,
    ) -> [VertexId; K] {
        let mut out = [0; K];
        for slot in &mut out {
            *slot = self.sample(v, rng);
        }
        out
    }

    /// Samples `k` neighbours of `v` uniformly with replacement into `out`.
    #[inline]
    pub fn sample_many<R: Rng + ?Sized>(&self, v: VertexId, out: &mut [VertexId], rng: &mut R) {
        for slot in out.iter_mut() {
            *slot = self.sample(v, rng);
        }
    }

    /// Samples `k` distinct neighbours of `v` (without replacement). Used by
    /// the "without replacement" ablation. Returns fewer than `k` ids when
    /// `deg(v) < k`.
    pub fn sample_without_replacement<R: Rng + ?Sized>(
        &self,
        v: VertexId,
        k: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.sample_without_replacement_into(v, k, &mut out, rng);
        out
    }

    /// [`NeighbourSampler::sample_without_replacement`] into a caller-owned
    /// buffer, so repeated calls allocate nothing.
    ///
    /// Uses Floyd's subset-sampling algorithm: one bounded draw per sample
    /// and a membership scan over the (small) output — no `O(deg)` index
    /// vector, unlike a materialised partial Fisher–Yates.  The membership
    /// scan relies on the CSR row holding no duplicate neighbours.
    pub fn sample_without_replacement_into<R: Rng + ?Sized>(
        &self,
        v: VertexId,
        k: usize,
        out: &mut Vec<VertexId>,
        rng: &mut R,
    ) {
        let row = self.graph.neighbours(v);
        let take = k.min(row.len());
        out.clear();
        out.reserve(take);
        for j in row.len() - take..row.len() {
            let pick = row[rng.gen_range(0..=j)];
            if out.contains(&pick) {
                out.push(row[j]);
            } else {
                out.push(pick);
            }
        }
    }
}

/// Walker's alias method for O(1) sampling from a fixed discrete distribution.
///
/// Construction is `O(n)`.  Weights must be non-negative and sum to a
/// positive value.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds an alias table from unnormalised non-negative weights.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(GraphError::InvalidParameter {
                reason: "alias table requires at least one weight".into(),
            });
        }
        let mut total = 0.0f64;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidParameter {
                    reason: format!("weight {i} is negative or non-finite: {w}"),
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(GraphError::InvalidParameter {
                reason: "alias table weights must sum to a positive value".into(),
            });
        }

        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0usize; n];
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * scale).collect();

        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }

        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
            alias[i] = i;
        }

        Ok(AliasTable { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` when the table is empty (never the case for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index according to the weight distribution.
    ///
    /// Consumes exactly one `u64` of randomness: the column index comes from
    /// the high 32 bits (fixed-point multiply onto `[0, n)`) and the
    /// bernoulli threshold from the low 32 bits, instead of the textbook two
    /// draws (`gen_range` + `gen::<f64>`).  With at most 2³² categories the
    /// two halves are independent and each uniform.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        debug_assert!(
            (self.prob.len() as u64) < (1u64 << 32),
            "alias table too large"
        );
        let draw = rng.next_u64();
        let i = (((draw >> 32) * self.prob.len() as u64) >> 32) as usize;
        let threshold = (draw as u32) as f64 * (1.0 / 4_294_967_296.0);
        if threshold < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampler_rejects_isolated_vertices() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        let err = NeighbourSampler::new(&g).unwrap_err();
        assert!(matches!(err, GraphError::IsolatedVertex { vertex: 2 }));
    }

    #[test]
    fn sample_returns_actual_neighbours() {
        let g = generators::cycle(10).unwrap();
        let s = NeighbourSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for v in g.vertices() {
            for _ in 0..20 {
                let w = s.sample(v, &mut rng);
                assert!(g.has_edge(v, w));
            }
        }
    }

    #[test]
    fn sample_is_roughly_uniform_on_star_centre() {
        // Centre of a star has n-1 neighbours; check empirical frequencies.
        let g = generators::star(101).unwrap();
        let s = NeighbourSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 100_000;
        let mut counts = vec![0usize; 101];
        for _ in 0..trials {
            counts[s.sample(0, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0, "centre must never sample itself");
        let expected = trials as f64 / 100.0;
        for &c in &counts[1..] {
            assert!(
                (c as f64 - expected).abs() < expected * 0.25,
                "count {c} vs {expected}"
            );
        }
    }

    #[test]
    fn sample_with_replacement_const_generic() {
        let g = generators::complete(5);
        let s = NeighbourSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let picks: [usize; 3] = s.sample_with_replacement(2, &mut rng);
        for w in picks {
            assert!(g.has_edge(2, w));
        }
    }

    #[test]
    fn sample_many_fills_buffer() {
        let g = generators::complete(6);
        let s = NeighbourSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = [0usize; 7];
        s.sample_many(3, &mut buf, &mut rng);
        for &w in &buf {
            assert!(g.has_edge(3, w));
        }
    }

    #[test]
    fn sample_without_replacement_gives_distinct_vertices() {
        let g = generators::complete(10);
        let s = NeighbourSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let picks = s.sample_without_replacement(4, 5, &mut rng);
        assert_eq!(picks.len(), 5);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "samples must be distinct");
        for w in picks {
            assert!(g.has_edge(4, w));
        }
    }

    #[test]
    fn sample_without_replacement_caps_at_degree() {
        let g = generators::cycle(5).unwrap();
        let s = NeighbourSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let picks = s.sample_without_replacement(0, 10, &mut rng);
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn alias_table_rejects_bad_weights() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, -0.5]).is_err());
        assert!(AliasTable::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn alias_table_single_category() {
        let t = AliasTable::new(&[3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn alias_table_matches_weights_empirically() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..trials {
            counts[t.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = trials as f64 * w / total;
            let got = counts[i] as f64;
            assert!(
                (got - expected).abs() < expected * 0.05,
                "category {i}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn sample_without_replacement_into_reuses_the_buffer() {
        let g = generators::complete(12);
        let s = NeighbourSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut buf = Vec::new();
        for _ in 0..50 {
            s.sample_without_replacement_into(3, 4, &mut buf, &mut rng);
            assert_eq!(buf.len(), 4);
            let mut sorted = buf.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "samples must be distinct");
            for &w in &buf {
                assert!(g.has_edge(3, w));
            }
        }
    }

    #[test]
    fn sample_without_replacement_is_uniform_over_neighbours() {
        // Floyd's algorithm must give every neighbour the same marginal
        // inclusion probability k/deg.
        let g = generators::complete(21);
        let s = NeighbourSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let trials = 40_000;
        let k = 5;
        let mut counts = [0usize; 21];
        let mut buf = Vec::new();
        for _ in 0..trials {
            s.sample_without_replacement_into(0, k, &mut buf, &mut rng);
            for &w in &buf {
                counts[w] += 1;
            }
        }
        assert_eq!(counts[0], 0, "vertex 0 must never sample itself");
        let expected = trials as f64 * k as f64 / 20.0;
        for &c in &counts[1..] {
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "count {c} vs {expected}"
            );
        }
    }

    /// An [`RngCore`] wrapper that counts how much randomness is consumed.
    struct CountingRng<R> {
        inner: R,
        u32_draws: usize,
        u64_draws: usize,
    }

    impl<R: rand::RngCore> rand::RngCore for CountingRng<R> {
        fn next_u32(&mut self) -> u32 {
            self.u32_draws += 1;
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.u64_draws += 1;
            self.inner.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.inner.fill_bytes(dest)
        }
    }

    #[test]
    fn alias_table_consumes_one_u64_per_sample() {
        let t = AliasTable::new(&[1.0, 2.0, 3.0]).unwrap();
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(17),
            u32_draws: 0,
            u64_draws: 0,
        };
        let samples = 1000;
        for _ in 0..samples {
            t.sample(&mut rng);
        }
        assert_eq!(rng.u64_draws, samples);
        assert_eq!(rng.u32_draws, 0);
    }

    #[test]
    fn alias_table_single_draw_split_matches_weights_empirically() {
        // Sharper empirical check dedicated to the high/low bit split: a
        // skewed distribution where index/threshold correlation would show.
        let weights = [0.05, 0.9, 0.05];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let trials = 300_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = trials as f64 * w;
            let got = counts[i] as f64;
            assert!(
                (got - expected).abs() < expected * 0.05,
                "category {i}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn alias_table_zero_weight_category_is_never_drawn() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let i = t.sample(&mut rng);
            assert!(i == 1 || i == 3);
        }
    }
}
