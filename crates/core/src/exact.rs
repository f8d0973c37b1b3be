//! The exact domain-enumeration algorithm (end of Section 2.3).
//!
//! The paper's straightforward exact approach considers "all the values in
//! each attribute" as possible adjustments and returns the optimum, in
//! `O(d^m n)` time. For numeric columns with (nearly) all-distinct values
//! the active domain is optionally quantized to `domain_cap` evenly spaced
//! values, which is how the paper's Exact baseline remains runnable in the
//! Figures 6/7 scalability studies.

use disc_distance::{AttrSet, Value};
use disc_obs::{counters, SaveEffort};

use crate::approx::Adjustment;
use crate::budget::{Budget, CancelToken, Cancelled};
use crate::constraints::DistanceConstraints;
use crate::parallel::Parallelism;
use crate::rset::RSet;

/// The exact (exponential) saver.
#[derive(Debug, Clone)]
pub struct ExactSaver {
    constraints: DistanceConstraints,
    dist: disc_distance::TupleDistance,
    /// Cap on the per-attribute candidate domain; `None` uses the full
    /// active domain.
    domain_cap: Option<usize>,
    /// Hard cap on the number of enumerated combinations.
    max_combinations: u64,
    /// Worker count for the batch entry points ([`ExactSaver::save_all`]
    /// and `RSet` construction); `save_one` itself is single-threaded.
    parallelism: Parallelism,
    /// Execution budget: the wall-clock deadline for whole `save_all`
    /// runs (see [`Budget`]).
    budget: Budget,
}

impl ExactSaver {
    /// Internal constructor for [`crate::SaverConfig::build_exact`],
    /// which validates the knobs first.
    pub(crate) fn from_config(
        constraints: DistanceConstraints,
        dist: disc_distance::TupleDistance,
        domain_cap: Option<usize>,
        max_combinations: u64,
        parallelism: Parallelism,
        budget: Budget,
    ) -> Self {
        ExactSaver {
            constraints,
            dist,
            domain_cap,
            max_combinations,
            parallelism,
            budget,
        }
    }

    /// The configured pipeline worker count.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The configured per-attribute domain cap, if any.
    pub fn domain_cap(&self) -> Option<usize> {
        self.domain_cap
    }

    /// The configured combination budget.
    pub fn max_combinations(&self) -> u64 {
        self.max_combinations
    }

    /// The configured execution budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Builds the inlier context.
    pub fn build_rset(&self, inlier_rows: Vec<Vec<Value>>) -> RSet {
        RSet::with_parallelism(
            inlier_rows,
            self.dist.clone(),
            self.constraints,
            self.parallelism,
        )
    }

    /// The configured constraints.
    pub fn constraints(&self) -> DistanceConstraints {
        self.constraints
    }

    /// The configured metric.
    pub fn distance(&self) -> &disc_distance::TupleDistance {
        &self.dist
    }

    /// The candidate domain of attribute `a`: the (possibly quantized)
    /// active domain of `r`'s column plus the outlier's own value.
    fn domain(&self, r: &RSet, a: usize, own: &Value) -> Vec<Value> {
        let mut vals: Vec<Value> = match r.column(a) {
            Some(col) => {
                let distinct = col.distinct_values();
                let vals = match self.domain_cap {
                    Some(cap) if distinct.len() > cap => {
                        // Evenly spaced quantiles of the active domain.
                        (0..cap)
                            .map(|i| distinct[i * (distinct.len() - 1) / (cap - 1).max(1)])
                            .collect()
                    }
                    _ => distinct,
                };
                vals.into_iter().map(Value::Num).collect()
            }
            None => {
                // Non-numeric: distinct values of the column.
                let mut seen: Vec<Value> = Vec::new();
                for row in r.rows() {
                    if !seen.iter().any(|v| v.same(&row[a])) {
                        seen.push(row[a].clone());
                    }
                    if let Some(cap) = self.domain_cap {
                        if seen.len() >= cap {
                            break;
                        }
                    }
                }
                seen
            }
        };
        if !vals.iter().any(|v| v.same(own)) {
            vals.push(own.clone());
        }
        vals
    }

    /// Finds the optimal adjustment over the candidate domains, or `None`
    /// when no combination is feasible. The deadline of
    /// [`crate::SaverConfig::budget`] does not apply (it bounds `save_all`
    /// runs only).
    ///
    /// # Panics
    /// Panics if the cross-product size exceeds the combination budget —
    /// the caller should shrink `domain_cap` or the schema (this mirrors
    /// the paper's observation that Exact is only runnable for small
    /// `m`). Inside the pipeline this panic is isolated and reported as a
    /// failed save.
    pub fn save_one(&self, r: &RSet, t_o: &[Value]) -> Option<Adjustment> {
        match self.save_one_budgeted(r, t_o, &CancelToken::unlimited()) {
            Ok(result) => result,
            Err(Cancelled) => unreachable!("an unlimited token never cancels"),
        }
    }

    /// [`ExactSaver::save_one`] under cooperative cancellation: the
    /// enumeration polls `token` every 1024 combinations and returns
    /// [`Cancelled`] when the pipeline's deadline expires mid-save.
    pub fn save_one_budgeted(
        &self,
        r: &RSet,
        t_o: &[Value],
        token: &CancelToken,
    ) -> Result<Option<Adjustment>, Cancelled> {
        self.save_one_with_effort(r, t_o, token).0
    }

    /// [`ExactSaver::save_one_budgeted`] that additionally reports the
    /// work performed: [`SaveEffort::candidates`] counts the enumerated
    /// domain combinations (the exact saver has no search tree or bounds,
    /// so the other effort fields stay zero). The count is deterministic
    /// and also flushed into the process-global [`disc_obs::counters`].
    pub fn save_one_with_effort(
        &self,
        r: &RSet,
        t_o: &[Value],
        token: &CancelToken,
    ) -> (Result<Option<Adjustment>, Cancelled>, SaveEffort) {
        let mut tried: u64 = 0;
        let result = self.enumerate(r, t_o, token, &mut tried);
        counters::EXACT_COMBINATIONS.add(tried);
        let effort = SaveEffort {
            candidates: tried,
            ..SaveEffort::default()
        };
        effort.flush_global();
        (result, effort)
    }

    fn enumerate(
        &self,
        r: &RSet,
        t_o: &[Value],
        token: &CancelToken,
        tried: &mut u64,
    ) -> Result<Option<Adjustment>, Cancelled> {
        let m = self.dist.arity();
        assert_eq!(t_o.len(), m);
        if r.is_empty() {
            return Ok(None);
        }
        if token.is_cancelled() {
            return Err(Cancelled);
        }
        let domains: Vec<Vec<Value>> = (0..m).map(|a| self.domain(r, a, &t_o[a])).collect();
        let combos = domains
            .iter()
            .map(|d| d.len() as u64)
            .try_fold(1u64, u64::checked_mul)
            .unwrap_or(u64::MAX);
        assert!(
            combos <= self.max_combinations,
            "exact enumeration would visit {combos} combinations (budget {}); \
             reduce domain_cap or the number of attributes",
            self.max_combinations
        );
        let finish = |best: Option<(Vec<Value>, f64)>| -> Option<Adjustment> {
            let (values, cost) = best?;
            let mut adjusted = AttrSet::empty();
            for b in 0..m {
                if !values[b].same(&t_o[b]) {
                    adjusted.insert(b);
                }
            }
            Some(Adjustment {
                values,
                adjusted,
                cost,
            })
        };

        let mut best: Option<(Vec<Value>, f64)> = None;
        let mut idx = vec![0usize; m];
        let mut cand: Vec<Value> = idx
            .iter()
            .enumerate()
            .map(|(a, &i)| domains[a][i].clone())
            .collect();
        loop {
            if *tried > 0 && tried.is_multiple_of(1024) && token.is_cancelled() {
                return Err(Cancelled);
            }
            *tried += 1;
            let cost = self.dist.dist(t_o, &cand);
            let beats = best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true);
            // Feasibility is the expensive check: skip when not improving.
            if beats && r.is_feasible(&cand) {
                best = Some((cand.clone(), cost));
            }
            // Odometer advance.
            let mut a = 0;
            loop {
                if a == m {
                    return Ok(finish(best));
                }
                idx[a] += 1;
                if idx[a] < domains[a].len() {
                    cand[a] = domains[a][idx[a]].clone();
                    break;
                }
                idx[a] = 0;
                cand[a] = domains[a][0].clone();
                a += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saver::SaverConfig;
    use disc_distance::TupleDistance;

    fn cluster_2d() -> Vec<Vec<Value>> {
        let mut pts = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                pts.push(vec![Value::Num(0.2 * i as f64), Value::Num(0.2 * j as f64)]);
            }
        }
        pts
    }

    #[test]
    fn exact_result_is_feasible_and_optimal_among_domain() {
        let c = DistanceConstraints::new(0.5, 4);
        let exact = SaverConfig::new(c, TupleDistance::numeric(2))
            .domain_cap(None)
            .build_exact()
            .unwrap();
        let r = exact.build_rset(cluster_2d());
        let t_o = vec![Value::Num(0.3), Value::Num(9.0)];
        let adj = exact.save_one(&r, &t_o).unwrap();
        assert!(r.is_feasible(&adj.values));
        // The error is in attribute 1 only; exact should keep attribute 0.
        assert_eq!(adj.values[0], Value::Num(0.3));
    }

    #[test]
    fn exact_cost_at_most_approx_cost() {
        // With the full active domain, the exact optimum over tuple-valued
        // candidates is ≤ the approximation's cost (every DISC solution is
        // a combination of existing attribute values).
        let c = DistanceConstraints::new(0.5, 4);
        let dist = TupleDistance::numeric(2);
        let exact = SaverConfig::new(c, dist.clone())
            .domain_cap(None)
            .build_exact()
            .unwrap();
        let approx = SaverConfig::new(c, dist).build_approx().unwrap();
        let r = exact.build_rset(cluster_2d());
        for t_o in [
            vec![Value::Num(0.3), Value::Num(9.0)],
            vec![Value::Num(4.0), Value::Num(4.0)],
            vec![Value::Num(-2.0), Value::Num(0.5)],
        ] {
            let e = exact.save_one(&r, &t_o).unwrap();
            let a = approx.save_one(&r, &t_o).unwrap();
            assert!(
                e.cost <= a.cost + 1e-9,
                "exact {} > approx {}",
                e.cost,
                a.cost
            );
        }
    }

    #[test]
    fn infeasible_everywhere_returns_none() {
        let c = DistanceConstraints::new(0.1, 5);
        let exact = SaverConfig::new(c, TupleDistance::numeric(2))
            .build_exact()
            .unwrap();
        // Widely spread r: no candidate can collect 5 neighbors within 0.1.
        let rows: Vec<Vec<Value>> = (0..6)
            .map(|i| vec![Value::Num(10.0 * i as f64), Value::Num(0.0)])
            .collect();
        let r = exact.build_rset(rows);
        assert!(exact
            .save_one(&r, &[Value::Num(1.0), Value::Num(1.0)])
            .is_none());
    }

    #[test]
    fn domain_cap_quantizes() {
        let c = DistanceConstraints::new(0.5, 2);
        let exact = SaverConfig::new(c, TupleDistance::numeric(1))
            .domain_cap(Some(4))
            .build_exact()
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Num(i as f64 * 0.01)])
            .collect();
        let r = exact.build_rset(rows);
        let d = exact.domain(&r, 0, &Value::Num(50.0));
        assert_eq!(d.len(), 5); // 4 quantiles + the outlier's own value
    }

    #[test]
    fn cancelled_token_interrupts_exact_save() {
        let c = DistanceConstraints::new(0.5, 4);
        let exact = SaverConfig::new(c, TupleDistance::numeric(2))
            .build_exact()
            .unwrap();
        let r = exact.build_rset(cluster_2d());
        let token = CancelToken::unlimited();
        token.cancel();
        let got = exact.save_one_budgeted(&r, &[Value::Num(0.3), Value::Num(9.0)], &token);
        assert_eq!(got, Err(Cancelled));
    }

    #[test]
    #[should_panic(expected = "combinations")]
    fn budget_overflow_panics() {
        let c = DistanceConstraints::new(0.5, 2);
        let exact = SaverConfig::new(c, TupleDistance::numeric(2))
            .domain_cap(None)
            .max_combinations(4)
            .build_exact()
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Num(i as f64), Value::Num(i as f64)])
            .collect();
        let r = exact.build_rset(rows);
        let _ = exact.save_one(&r, &[Value::Num(0.0), Value::Num(0.0)]);
    }
}
