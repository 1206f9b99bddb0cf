//! Socket / ccNUMA-domain / core topology and process pinning.

/// Index of a physical core in the node (0-based, compact numbering).
pub type CoreId = usize;
/// Index of a ccNUMA domain in the node.
pub type DomainId = usize;
/// Index of a socket in the node.
pub type SocketId = usize;

/// One ccNUMA domain: a set of cores with local memory.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CcNumaDomain {
    /// Domain index within the node.
    pub id: DomainId,
    /// Socket this domain belongs to.
    pub socket: SocketId,
    /// Cores belonging to this domain (compact, contiguous ids).
    pub cores: Vec<CoreId>,
}

/// Node topology: sockets split into ccNUMA domains.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Topology {
    /// Number of sockets in the node.
    pub sockets: usize,
    /// ccNUMA domains, ordered by id (compact pinning fills them in order).
    pub domains: Vec<CcNumaDomain>,
}

impl Topology {
    /// Build a homogeneous topology: `sockets` sockets, `domains_per_socket`
    /// ccNUMA domains each, `cores_per_domain` cores per domain.
    pub fn homogeneous(sockets: usize, domains_per_socket: usize, cores_per_domain: usize) -> Self {
        assert!(sockets > 0 && domains_per_socket > 0 && cores_per_domain > 0);
        let mut domains = Vec::with_capacity(sockets * domains_per_socket);
        let mut next_core = 0;
        for s in 0..sockets {
            for d in 0..domains_per_socket {
                let id = s * domains_per_socket + d;
                let cores = (next_core..next_core + cores_per_domain).collect();
                next_core += cores_per_domain;
                domains.push(CcNumaDomain {
                    id,
                    socket: s,
                    cores,
                });
            }
        }
        Self { sockets, domains }
    }

    /// Total number of cores.
    pub fn total_cores(&self) -> usize {
        self.domains.iter().map(|d| d.cores.len()).sum()
    }

    /// Cores per ccNUMA domain (topology is homogeneous on all presets).
    pub fn cores_per_domain(&self) -> usize {
        self.domains.first().map(|d| d.cores.len()).unwrap_or(0)
    }

    /// Number of ccNUMA domains per socket.
    pub fn domains_per_socket(&self) -> usize {
        self.domains.len() / self.sockets.max(1)
    }

    /// Compact pinning of `n` ranks: rank `i` is pinned to core `i`.
    ///
    /// Returns the list of (rank, core, domain) assignments.  Panics if `n`
    /// exceeds the number of cores.
    pub fn compact_pinning(&self, n: usize) -> Pinning {
        assert!(
            n <= self.total_cores(),
            "cannot pin {n} ranks to {} cores",
            self.total_cores()
        );
        let cores_per_domain = self.cores_per_domain();
        let assignments = (0..n)
            .map(|rank| {
                let core = rank;
                let domain = core / cores_per_domain;
                (rank, core, domain)
            })
            .collect();
        Pinning { assignments }
    }

    /// Number of active cores in each ccNUMA domain under compact pinning of
    /// `n` ranks.
    pub fn active_cores_per_domain(&self, n: usize) -> Vec<usize> {
        let per = self.cores_per_domain();
        let mut counts = vec![0usize; self.domains.len()];
        let mut remaining = n.min(self.total_cores());
        for c in counts.iter_mut() {
            let used = remaining.min(per);
            *c = used;
            remaining -= used;
            if remaining == 0 {
                break;
            }
        }
        counts
    }

    /// The distinct domain loads under compact pinning of `n` ranks, as
    /// `(full_domains, cores_per_domain, remainder)`: `full_domains`
    /// domains run all their `cores_per_domain` cores and, when `remainder`
    /// is not zero, one more domain runs `remainder` of them — the counts
    /// [`active_cores_per_domain`](Self::active_cores_per_domain) lists
    /// domain by domain, without the list.
    pub fn compact_loads(&self, n: usize) -> (usize, usize, usize) {
        let per = self.cores_per_domain();
        let n = n.min(self.total_cores());
        match per {
            0 => (0, 0, 0),
            _ => (n / per, per, n % per),
        }
    }
}

/// A rank→core assignment produced by a pinning strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pinning {
    /// `(rank, core, domain)` triples, sorted by rank.
    pub assignments: Vec<(usize, CoreId, DomainId)>,
}

impl Pinning {
    /// Number of ranks pinned.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True if no rank is pinned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Domain of a given rank.
    pub fn domain_of_rank(&self, rank: usize) -> Option<DomainId> {
        self.assignments
            .iter()
            .find(|(r, _, _)| *r == rank)
            .map(|(_, _, d)| *d)
    }

    /// Number of ranks per domain, indexed by domain id.
    pub fn ranks_per_domain(&self, n_domains: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_domains];
        for (_, _, d) in &self.assignments {
            if *d < n_domains {
                counts[*d] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icx_topology() -> Topology {
        Topology::homogeneous(2, 2, 18)
    }

    #[test]
    fn homogeneous_counts() {
        let t = icx_topology();
        assert_eq!(t.total_cores(), 72);
        assert_eq!(t.domains.len(), 4);
        assert_eq!(t.cores_per_domain(), 18);
        assert_eq!(t.domains_per_socket(), 2);
    }

    #[test]
    fn compact_pinning_fills_domains_in_order() {
        let t = icx_topology();
        let p = t.compact_pinning(20);
        assert_eq!(p.len(), 20);
        assert_eq!(p.domain_of_rank(0), Some(0));
        assert_eq!(p.domain_of_rank(17), Some(0));
        assert_eq!(p.domain_of_rank(18), Some(1));
        assert_eq!(p.ranks_per_domain(4), vec![18, 2, 0, 0]);
    }

    #[test]
    fn active_cores_per_domain_matches_pinning() {
        let t = icx_topology();
        for n in [1usize, 17, 18, 19, 37, 71, 72] {
            let counts = t.active_cores_per_domain(n);
            let pin = t.compact_pinning(n).ranks_per_domain(4);
            assert_eq!(counts, pin, "mismatch at n={n}");
            assert_eq!(counts.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn compact_loads_summarise_the_per_domain_counts() {
        for t in [
            icx_topology(),
            Topology::homogeneous(2, 4, 13),
            Topology::homogeneous(1, 1, 6),
        ] {
            for n in 0..=t.total_cores() + 3 {
                let (full, per, remainder) = t.compact_loads(n);
                let mut expected = vec![per; full];
                expected.extend((remainder > 0).then_some(remainder));
                expected.resize(t.domains.len(), 0);
                assert_eq!(expected, t.active_cores_per_domain(n), "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot pin")]
    fn overcommit_panics() {
        icx_topology().compact_pinning(73);
    }

    #[test]
    fn empty_pinning() {
        let p = icx_topology().compact_pinning(0);
        assert!(p.is_empty());
    }
}
