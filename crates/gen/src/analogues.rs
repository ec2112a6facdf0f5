//! Dataset analogues for the paper's seven evaluation graphs.
//!
//! The originals (Table I of the paper) are unavailable offline, so each is
//! substituted by a Holme–Kim power-law-cluster graph whose average degree
//! matches the original and whose node count is scaled down so the complete
//! table/figure suite runs in-session (the methods' *relative* behaviour —
//! who wins, by what factor — is driven by heavy-tailed degrees, high
//! clustering, and small diameter, all of which Holme–Kim reproduces).
//! `paper_n` / `paper_m` record the original sizes from Table I of the
//! paper (cited in `PAPER.md`).

use crate::models::holme_kim;
use sgr_graph::components::largest_component;
use sgr_graph::Graph;
use sgr_util::Xoshiro256pp;

/// The seven datasets of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Anybeat social network (12,645 nodes / 49,132 edges).
    Anybeat,
    /// Brightkite location-based network (56,739 / 212,945).
    Brightkite,
    /// Epinions trust network (75,877 / 405,739).
    Epinions,
    /// Slashdot Zoo (77,360 / 469,180).
    Slashdot,
    /// Gowalla check-in network (196,591 / 950,327).
    Gowalla,
    /// Livemocha language community (104,103 / 2,193,083).
    Livemocha,
    /// YouTube friendship graph (1,134,890 / 2,987,624).
    YouTube,
}

impl Dataset {
    /// All seven datasets in the paper's order.
    pub const ALL: [Dataset; 7] = [
        Dataset::Anybeat,
        Dataset::Brightkite,
        Dataset::Epinions,
        Dataset::Slashdot,
        Dataset::Gowalla,
        Dataset::Livemocha,
        Dataset::YouTube,
    ];

    /// The six datasets used in Tables II–IV (all but YouTube).
    pub const SMALL_SIX: [Dataset; 6] = [
        Dataset::Anybeat,
        Dataset::Brightkite,
        Dataset::Epinions,
        Dataset::Slashdot,
        Dataset::Gowalla,
        Dataset::Livemocha,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Anybeat => "Anybeat",
            Dataset::Brightkite => "Brightkite",
            Dataset::Epinions => "Epinions",
            Dataset::Slashdot => "Slashdot",
            Dataset::Gowalla => "Gowalla",
            Dataset::Livemocha => "Livemocha",
            Dataset::YouTube => "YouTube",
        }
    }

    /// Analogue specification (scaled; see module docs).
    pub fn spec(self) -> AnalogueSpec {
        // `m_attach` ≈ half the original average degree, the Holme–Kim
        // edge budget per node; `p_t` tuned so clustering is social-graph
        // sized (higher for the location networks, lower for the denser
        // media graphs, mirroring the originals' clustering ordering).
        match self {
            Dataset::Anybeat => AnalogueSpec::new(self, 12_645, 49_132, 4_000, 4, 0.30),
            Dataset::Brightkite => AnalogueSpec::new(self, 56_739, 212_945, 5_000, 4, 0.45),
            Dataset::Epinions => AnalogueSpec::new(self, 75_877, 405_739, 6_000, 5, 0.30),
            Dataset::Slashdot => AnalogueSpec::new(self, 77_360, 469_180, 6_000, 6, 0.20),
            Dataset::Gowalla => AnalogueSpec::new(self, 196_591, 950_327, 8_000, 5, 0.40),
            // Livemocha's original average degree (42.1) is additionally
            // halved: at the analogue scale, a k̄ ≈ 42 graph would dominate
            // the whole suite's runtime while exercising the same code
            // paths. It remains by far the densest analogue, preserving
            // its role in the comparison.
            Dataset::Livemocha => AnalogueSpec::new(self, 104_103, 2_193_083, 4_000, 10, 0.15),
            Dataset::YouTube => AnalogueSpec::new(self, 1_134_890, 2_987_624, 20_000, 3, 0.20),
        }
    }
}

/// Concrete parameters of one dataset analogue.
#[derive(Clone, Copy, Debug)]
pub struct AnalogueSpec {
    /// Which dataset this stands in for.
    pub dataset: Dataset,
    /// Original node count (Table I).
    pub paper_n: usize,
    /// Original edge count (Table I).
    pub paper_m: usize,
    /// Analogue node count (scaled).
    pub n: usize,
    /// Holme–Kim attachment budget per node (≈ k̄ / 2).
    pub m_attach: usize,
    /// Holme–Kim triad-formation probability.
    pub p_t: f64,
}

impl AnalogueSpec {
    fn new(
        dataset: Dataset,
        paper_n: usize,
        paper_m: usize,
        n: usize,
        m_attach: usize,
        p_t: f64,
    ) -> Self {
        Self {
            dataset,
            paper_n,
            paper_m,
            n,
            m_attach,
            p_t,
        }
    }

    /// Returns a copy with the node count multiplied by `factor`
    /// (minimum `m_attach + 2`). Used by quick tests and by anyone who
    /// wants paper-scale graphs.
    pub fn scaled(mut self, factor: f64) -> Self {
        let scaled = (self.n as f64 * factor).round() as usize;
        self.n = scaled.max(self.m_attach + 2);
        self
    }

    /// Original average degree `2 m / n` of the real dataset.
    pub fn paper_average_degree(&self) -> f64 {
        2.0 * self.paper_m as f64 / self.paper_n as f64
    }

    /// Generates the analogue: Holme–Kim graph, largest connected
    /// component, simple (matching the paper's preprocessing).
    pub fn generate(&self, rng: &mut Xoshiro256pp) -> Graph {
        let g = holme_kim(self.n, self.m_attach, self.p_t, rng)
            .expect("analogue specs are valid by construction");
        // HK graphs are connected by construction; extraction is a no-op
        // kept for parity with the paper's preprocessing pipeline.
        let (lcc, _) = largest_component(&g);
        lcc
    }
}

/// Convenience: generate a dataset analogue at default scale.
pub fn dataset_analogue(dataset: Dataset, rng: &mut Xoshiro256pp) -> Graph {
    dataset.spec().generate(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_graph::components::is_connected;

    #[test]
    fn all_specs_generate_connected_simple_graphs() {
        for ds in Dataset::ALL {
            let spec = ds.spec().scaled(0.1);
            let mut rng = Xoshiro256pp::seed_from_u64(1);
            let g = spec.generate(&mut rng);
            assert!(is_connected(&g), "{} analogue disconnected", ds.name());
            assert!(g.is_simple(), "{} analogue not simple", ds.name());
            assert!(g.num_nodes() > 0);
        }
    }

    #[test]
    fn average_degree_tracks_paper() {
        // The analogue's average degree should be within 35% of the
        // original's (HK gives ≈ 2 * m_attach); Livemocha is deliberately
        // halved (see `Dataset::spec`), so its tolerance is wider.
        for ds in Dataset::ALL {
            let spec = ds.spec().scaled(0.2);
            let mut rng = Xoshiro256pp::seed_from_u64(2);
            let g = spec.generate(&mut rng);
            let ratio = g.average_degree() / spec.paper_average_degree();
            let lo = if ds == Dataset::Livemocha { 0.40 } else { 0.65 };
            assert!(
                (lo..=1.35).contains(&ratio),
                "{}: analogue k̄ = {:.2}, paper k̄ = {:.2}",
                ds.name(),
                g.average_degree(),
                spec.paper_average_degree()
            );
        }
    }

    #[test]
    fn youtube_is_largest_and_sparsest_analogue() {
        let yt = Dataset::YouTube.spec();
        for ds in Dataset::SMALL_SIX {
            assert!(yt.n >= ds.spec().n);
        }
        assert!(yt.paper_average_degree() < Dataset::Livemocha.spec().paper_average_degree());
    }

    #[test]
    fn scaled_respects_minimum() {
        let spec = Dataset::Anybeat.spec().scaled(0.000001);
        assert!(spec.n >= spec.m_attach + 2);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Dataset::Anybeat.name(), "Anybeat");
        assert_eq!(Dataset::ALL.len(), 7);
        assert_eq!(Dataset::SMALL_SIX.len(), 6);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = Dataset::Anybeat.spec().scaled(0.05);
        let a = spec.generate(&mut Xoshiro256pp::seed_from_u64(5));
        let b = spec.generate(&mut Xoshiro256pp::seed_from_u64(5));
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
}
