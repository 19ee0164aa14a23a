//! Interesting-order strategies — the five contenders of Experiment B3.
//!
//! A strategy decides, for each sort-based operator (merge join, sort
//! aggregate), *which permutations of the attribute set* to try as
//! optimization subgoals, and whether partial-sort enforcers may be used.

use pyro_ordering::{all_permutations, Attr, Order, Set};

/// Which candidate-order generator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// `PYRO`: one arbitrary (canonical) permutation — a plain Volcano
    /// optimizer that never reasons about order choice.
    Arbitrary,
    /// `PYRO-P`: the PostgreSQL heuristic — for each of the `n` attributes,
    /// one order starting with that attribute, the rest arbitrary.
    Postgres,
    /// `PYRO-E`: all `n!` permutations (reference optimum; factorial).
    Exhaustive,
    /// `PYRO-O` / `PYRO-O−`: the paper's favorable-order heuristic (§5.2.1).
    Favorable,
}

/// A complete strategy: candidate generator + enforcer policy + whether the
/// phase-2 refinement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Strategy {
    /// Candidate-order generator.
    pub kind: StrategyKind,
    /// Whether partial sort enforcers are allowed (PYRO-O− and plain PYRO
    /// say no: an order either matches fully or is re-sorted from scratch).
    pub partial_enforcers: bool,
    /// Whether the post-optimization refinement (§5.2.2) runs.
    pub refine: bool,
    /// Safety cap for the exhaustive generator (`n!` blows up fast).
    pub exhaustive_cap: usize,
}

impl Strategy {
    /// `PYRO`: arbitrary order, no partial sorts, no refinement.
    pub fn pyro() -> Strategy {
        Strategy {
            kind: StrategyKind::Arbitrary,
            partial_enforcers: false,
            refine: false,
            exhaustive_cap: 0,
        }
    }

    /// `PYRO-P`: PostgreSQL heuristic + partial sort exploitation.
    pub fn pyro_p() -> Strategy {
        Strategy {
            kind: StrategyKind::Postgres,
            partial_enforcers: true,
            refine: false,
            exhaustive_cap: 0,
        }
    }

    /// `PYRO-E`: exhaustive enumeration + partial sorts. Capped at 8
    /// attributes by default (40 320 orders); above the cap it degrades to
    /// the Postgres heuristic so optimization always terminates.
    pub fn pyro_e() -> Strategy {
        Strategy {
            kind: StrategyKind::Exhaustive,
            partial_enforcers: true,
            refine: false,
            exhaustive_cap: 8,
        }
    }

    /// `PYRO-O`: favorable orders + partial sorts + phase-2 refinement.
    pub fn pyro_o() -> Strategy {
        Strategy {
            kind: StrategyKind::Favorable,
            partial_enforcers: true,
            refine: true,
            exhaustive_cap: 0,
        }
    }

    /// `PYRO-O−`: favorable orders, exact matches only (no partial sorts,
    /// no refinement).
    pub fn pyro_o_minus() -> Strategy {
        Strategy {
            kind: StrategyKind::Favorable,
            partial_enforcers: false,
            refine: false,
            exhaustive_cap: 0,
        }
    }

    /// The five paper strategies, in the paper's Fig. 15 order
    /// (weakest to strongest: PYRO, PYRO-O−, PYRO-P, PYRO-O, PYRO-E).
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::pyro(),
            Strategy::pyro_o_minus(),
            Strategy::pyro_p(),
            Strategy::pyro_o(),
            Strategy::pyro_e(),
        ]
    }

    /// Resolves a strategy by its paper name, for CLI flags and config
    /// files. Case-insensitive; accepts `"pyro"`, `"pyro-p"`, `"pyro-e"`,
    /// `"pyro-o"`, and `"pyro-o-"` (alias `"pyro-o-minus"`).
    pub fn from_name(name: &str) -> Result<Strategy, pyro_common::PyroError> {
        match name.to_ascii_lowercase().as_str() {
            "pyro" => Ok(Strategy::pyro()),
            "pyro-p" => Ok(Strategy::pyro_p()),
            "pyro-e" => Ok(Strategy::pyro_e()),
            "pyro-o" => Ok(Strategy::pyro_o()),
            "pyro-o-" | "pyro-o-minus" => Ok(Strategy::pyro_o_minus()),
            _ => Err(pyro_common::PyroError::Plan(format!(
                "unknown strategy {name:?}; expected one of pyro, pyro-p, pyro-e, pyro-o, pyro-o-"
            ))),
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match (self.kind, self.partial_enforcers) {
            (StrategyKind::Arbitrary, _) => "PYRO",
            (StrategyKind::Postgres, _) => "PYRO-P",
            (StrategyKind::Exhaustive, _) => "PYRO-E",
            (StrategyKind::Favorable, true) => "PYRO-O",
            (StrategyKind::Favorable, false) => "PYRO-O-",
        }
    }

    /// Computes the interesting-order set `I(e, o)` for an operator whose
    /// flexible attribute set is `s` (in canonical/rep names).
    ///
    /// `favorable_prefixes` are the `afm(input, S)` entries — prefixes of
    /// input favorable orders restricted to `s` — plus the required-order
    /// prefix `o ∧ S`; they are only consulted by the Favorable generator.
    pub fn candidate_orders<A: Attr>(
        &self,
        s: &Set<A>,
        favorable_prefixes: &[Order<A>],
    ) -> Vec<Order<A>> {
        if s.is_empty() {
            return vec![Order::empty()];
        }
        match self.kind {
            StrategyKind::Arbitrary => vec![s.arbitrary_order()],
            StrategyKind::Postgres => postgres_orders(s),
            StrategyKind::Exhaustive => {
                if s.len() <= self.exhaustive_cap {
                    all_permutations(s)
                } else {
                    postgres_orders(s)
                }
            }
            StrategyKind::Favorable => {
                // §5.2.1: T(e,o) = favorable prefixes; remove subsumed;
                // extend each to |S|.
                let mut t: Vec<Order<A>> = favorable_prefixes.to_vec();
                t.push(Order::empty()); // always have a fallback
                t.sort();
                t.dedup();
                // Remove o1 if some o2 in T has o1 ≤ o2 (o1 strictly shorter
                // prefix of o2, or equal-but-duplicate handled by dedup).
                let kept: Vec<Order<A>> = t
                    .iter()
                    .filter(|o1| !t.iter().any(|o2| *o1 != o2 && o1.is_prefix_of(o2)))
                    .cloned()
                    .collect();
                let mut out: Vec<Order<A>> = kept.iter().map(|o| o.extend_with_set(s)).collect();
                out.sort();
                out.dedup();
                out
            }
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = pyro_common::PyroError;

    fn from_str(s: &str) -> Result<Strategy, Self::Err> {
        Strategy::from_name(s)
    }
}

/// The PostgreSQL heuristic: one order per leading attribute.
fn postgres_orders<A: Attr>(s: &Set<A>) -> Vec<Order<A>> {
    s.iter()
        .map(|lead| Order::new([lead.clone()]).concat(&s.arbitrary_order()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_ordering::{AttrSet, SortOrder};

    fn s(attrs: &[&str]) -> AttrSet {
        AttrSet::from_iter(attrs.iter().copied())
    }

    #[test]
    fn arbitrary_yields_one() {
        let orders = Strategy::pyro().candidate_orders(&s(&["b", "a", "c"]), &[]);
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].len(), 3);
    }

    #[test]
    fn postgres_yields_n() {
        let orders = Strategy::pyro_p().candidate_orders(&s(&["a", "b", "c"]), &[]);
        assert_eq!(orders.len(), 3);
        let firsts: Vec<&str> = orders.iter().map(|o| o.attrs()[0].as_str()).collect();
        assert_eq!(firsts, vec!["a", "b", "c"]);
        for o in &orders {
            assert_eq!(o.len(), 3);
        }
    }

    #[test]
    fn exhaustive_yields_factorial_within_cap() {
        let orders = Strategy::pyro_e().candidate_orders(&s(&["a", "b", "c", "d"]), &[]);
        assert_eq!(orders.len(), 24);
    }

    #[test]
    fn exhaustive_degrades_beyond_cap() {
        let attrs: Vec<String> = (0..10).map(|i| format!("a{i}")).collect();
        let set: AttrSet = attrs.iter().cloned().collect();
        let orders = Strategy::pyro_e().candidate_orders(&set, &[]);
        assert_eq!(orders.len(), 10, "falls back to Postgres heuristic");
    }

    #[test]
    fn favorable_extends_prefixes() {
        let set = s(&["m", "y", "c", "co"]);
        let prefixes = vec![SortOrder::new(["y"]), SortOrder::new(["m"])];
        let orders = Strategy::pyro_o().candidate_orders(&set, &prefixes);
        // (y, ...), (m, ...) and the ε-extension ⟨S⟩... but ε ≤ (y) is
        // subsumed and removed, so exactly two candidates survive.
        assert_eq!(orders.len(), 2, "{orders:?}");
        assert!(orders.iter().any(|o| o.attrs()[0] == "y"));
        assert!(orders.iter().any(|o| o.attrs()[0] == "m"));
        for o in &orders {
            assert_eq!(o.len(), 4);
        }
    }

    #[test]
    fn favorable_removes_subsumed_prefixes() {
        let set = s(&["a", "b", "c"]);
        let prefixes = vec![SortOrder::new(["a"]), SortOrder::new(["a", "b"])];
        let orders = Strategy::pyro_o().candidate_orders(&set, &prefixes);
        // (a) ≤ (a,b) → only (a,b,·) remains.
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0], SortOrder::new(["a", "b", "c"]));
    }

    #[test]
    fn favorable_with_no_prefixes_gives_canonical() {
        let set = s(&["b", "a"]);
        let orders = Strategy::pyro_o().candidate_orders(&set, &[]);
        assert_eq!(orders, vec![SortOrder::new(["a", "b"])]);
    }

    #[test]
    fn empty_set_single_empty_order() {
        for strat in [
            Strategy::pyro(),
            Strategy::pyro_p(),
            Strategy::pyro_e(),
            Strategy::pyro_o(),
        ] {
            assert_eq!(
                strat.candidate_orders(&AttrSet::new(), &[]),
                vec![SortOrder::empty()]
            );
        }
    }

    #[test]
    fn from_name_round_trips() {
        for strat in Strategy::all() {
            assert_eq!(Strategy::from_name(strat.name()).unwrap(), strat);
        }
        assert_eq!(Strategy::from_name("PYRO-O").unwrap(), Strategy::pyro_o());
        assert_eq!(
            "pyro-o-minus".parse::<Strategy>().unwrap(),
            Strategy::pyro_o_minus()
        );
        assert!(Strategy::from_name("volcano").is_err());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Strategy::pyro().name(), "PYRO");
        assert_eq!(Strategy::pyro_p().name(), "PYRO-P");
        assert_eq!(Strategy::pyro_e().name(), "PYRO-E");
        assert_eq!(Strategy::pyro_o().name(), "PYRO-O");
        assert_eq!(Strategy::pyro_o_minus().name(), "PYRO-O-");
    }
}
