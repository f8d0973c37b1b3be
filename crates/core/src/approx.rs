//! Algorithm 1: the DISC approximation (Section 3.3 of the paper).
//!
//! The search recursively enumerates *unadjusted* attribute sets `X ⊆ R`,
//! starting from `X = ∅` (or from every `|X| = m − κ` in the κ-restricted
//! variant), maintaining the candidate list `r_ε(t_o[X])`:
//!
//! * each visited `X` contributes the Proposition 5 upper bound `t_o^u =
//!   (t_o[X], t₂[R\X])` as a feasible solution, improving the incumbent;
//! * the Proposition 3 lower bound `Δ(t_o, t₁) − ε` prunes the subtree
//!   when it already exceeds the incumbent's cost;
//! * a subtree is also pruned when `|r_ε(t_o[X])| < η`, since candidate
//!   lists only shrink as `X` grows (monotonicity of `Δ` in `X`);
//! * every `X` is processed at most once (bitset memoization).
//!
//! Candidate lists are narrowed incrementally: the child `X ∪ {A}` filters
//! the parent's list by accumulating attribute `A`'s distance into the
//! per-candidate norm accumulator, so no node rescans all of `r`.

use std::collections::HashSet;

use disc_distance::{pack_values, AttrSet, Metric, Norm, PackedMatrix, Value};
use disc_obs::SaveEffort;

use crate::budget::{Budget, CancelToken, Cancelled};
use crate::constraints::DistanceConstraints;
use crate::parallel::Parallelism;
use crate::rset::RSet;

/// A value adjustment produced by a saver.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjustment {
    /// The adjusted tuple `t'_o`.
    pub values: Vec<Value>,
    /// The attributes whose values actually changed.
    pub adjusted: AttrSet,
    /// The adjustment cost `Δ(t_o, t'_o)`.
    pub cost: f64,
}

/// The DISC approximate saver (Algorithm 1).
#[derive(Debug, Clone)]
pub struct DiscSaver {
    constraints: DistanceConstraints,
    dist: disc_distance::TupleDistance,
    /// Maximum number of adjusted attributes (κ of Section 3.3); `None`
    /// runs the unrestricted `O(2^m n)` search.
    kappa: Option<usize>,
    /// Hard cap on visited attribute sets per outlier; the search returns
    /// the incumbent when exhausted. Keeps the unrestricted search usable
    /// on wide schemas (Spam has m = 57).
    node_budget: usize,
    /// Worker count for the batch entry points ([`DiscSaver::save_all`]
    /// and `RSet` construction); `save_one` itself is single-threaded.
    parallelism: Parallelism,
    /// Execution budget: wall-clock deadline for whole `save_all` runs and
    /// candidate-evaluation cap per outlier (see [`Budget`]).
    budget: Budget,
}

impl DiscSaver {
    /// Internal constructor for [`crate::SaverConfig::build_approx`],
    /// which validates the knobs first.
    pub(crate) fn from_config(
        constraints: DistanceConstraints,
        dist: disc_distance::TupleDistance,
        kappa: Option<usize>,
        node_budget: usize,
        parallelism: Parallelism,
        budget: Budget,
    ) -> Self {
        DiscSaver {
            constraints,
            dist,
            kappa,
            node_budget,
            parallelism,
            budget,
        }
    }

    /// The configured pipeline worker count.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The configured execution budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The configured constraints.
    pub fn constraints(&self) -> DistanceConstraints {
        self.constraints
    }

    /// The configured metric.
    pub fn distance(&self) -> &disc_distance::TupleDistance {
        &self.dist
    }

    /// The configured κ, if any.
    pub fn kappa(&self) -> Option<usize> {
        self.kappa
    }

    /// The configured node budget (visited attribute sets per outlier).
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// Builds the preprocessed inlier context for this saver's metric,
    /// constraints, and worker count.
    pub fn build_rset(&self, inlier_rows: Vec<Vec<Value>>) -> RSet {
        RSet::with_parallelism(
            inlier_rows,
            self.dist.clone(),
            self.constraints,
            self.parallelism,
        )
    }

    /// Saves one outlier against `r`, returning the near-optimal adjustment
    /// or `None` when no feasible adjustment exists within κ / the budget.
    /// Honors the per-outlier candidate cap of [`crate::SaverConfig::budget`]
    /// but not the deadline (which only applies to `save_all` runs).
    pub fn save_one(&self, r: &RSet, t_o: &[Value]) -> Option<Adjustment> {
        match self.save_one_budgeted(r, t_o, &CancelToken::unlimited()) {
            Ok(result) => result,
            Err(Cancelled) => unreachable!("an unlimited token never cancels"),
        }
    }

    /// [`DiscSaver::save_one`] under cooperative cancellation: the search
    /// polls `token` once per node and returns [`Cancelled`] when the
    /// pipeline's deadline expires mid-save (the incumbent is discarded —
    /// an interrupted search has no trustworthy answer). Exhausting the
    /// deterministic per-outlier candidate cap is *not* a cancellation:
    /// the search stops refining and returns its incumbent.
    pub fn save_one_budgeted(
        &self,
        r: &RSet,
        t_o: &[Value],
        token: &CancelToken,
    ) -> Result<Option<Adjustment>, Cancelled> {
        self.save_one_with_effort(r, t_o, token).0
    }

    /// [`DiscSaver::save_one_budgeted`] that additionally reports the
    /// search work performed ([`SaveEffort`]: nodes expanded, candidates
    /// evaluated, bound prunes). The effort is a pure function of the
    /// inputs — identical across worker counts and retries — and is also
    /// flushed into the process-global [`disc_obs::counters`].
    pub fn save_one_with_effort(
        &self,
        r: &RSet,
        t_o: &[Value],
        token: &CancelToken,
    ) -> (Result<Option<Adjustment>, Cancelled>, SaveEffort) {
        assert_eq!(t_o.len(), self.dist.arity());
        if r.is_empty() {
            return (Ok(None), SaveEffort::default());
        }
        if token.is_cancelled() {
            return (Err(Cancelled), SaveEffort::default());
        }
        let m = self.dist.arity();
        let mut search = Search::new(self, r, t_o, token);
        let kappa = self.kappa.unwrap_or(m).min(m);
        if kappa >= m {
            // Unrestricted: root X = ∅ with all of r as candidates.
            let cands: Vec<u32> = (0..r.len() as u32).collect();
            let acc = vec![self.dist.norm().init(); cands.len()];
            search.recurse(AttrSet::empty(), cands, acc);
        } else {
            // κ-restricted: one root per X with |X| = m − κ, seeded from the
            // smallest single-attribute ε-ball among X.
            for x0 in AttrSet::subsets_of_size(m, m - kappa) {
                search.run_root(x0);
                if search.exhausted() || search.nodes >= search.budget {
                    break;
                }
            }
        }
        let effort = search.effort();
        effort.flush_global();
        if search.cancelled {
            return (Err(Cancelled), effort);
        }
        (Ok(search.into_result()), effort)
    }

    /// The streaming engine's stability check: whether a new search for
    /// the old outlier `t_o` could answer differently now that `r` has
    /// grown by `added` (new inliers) and `tightened` (old inliers whose
    /// `δ_η` fell), each given as `(original values, δ_η now)`. `cost` is
    /// `C`, the cost of `t_o`'s current adjustment, or `None` when it
    /// holds none (any new solution then counts).
    ///
    /// The answer is `false` only when no changed row `u` is a Prop. 5
    /// host that could tie or beat `C`: at no lattice node `X`
    /// (`|X| ≥ m − κ`) do all of `Δ_X(t_o,u) ≤ ε`,
    /// `δ_η(u) ≤ ε − Δ_X(t_o,u)` and `Δ_{R∖X}(t_o,u) ≤ C + slack` hold. A
    /// pair is rejected in `O(m)` first when `δ_η(u) > ε`, or when
    /// `Δ(t_o,u) > C + ε`: by Prop. 3 anything `u` hosts costs at least
    /// `Δ(t_o,u) − ε`. A tie at exactly `C` counts as a change.
    ///
    /// Why `false` is sound (exact arithmetic):
    /// * growing `r` only adds rows and only lowers `δ_η`, so every old
    ///   Prop. 5 solution survives at the same cost, and the new
    ///   solutions are exactly the pairs tested here — if they all cost
    ///   more than `C`, the minimum stays `C`;
    /// * on the way to a cost-`C` solution (every `P ⊆ X` for a host `u`
    ///   at `X`) neither prune fires while the incumbent is above `C`:
    ///   `u`'s η neighbours all lie within `ε` of `t_o` on `P`, so they
    ///   are candidates (no η-prune), and within `C + ε` of `t_o`, so
    ///   `kth − ε ≤ C` (no lb-prune). Those nodes are closed under
    ///   subsets, so the search reaches them in the same order whatever
    ///   it prunes elsewhere, and it reaches the same first cost-`C`
    ///   node along the same path;
    /// * old rows keep their relative candidate order — the `RSet` lists
    ///   rows in ascending id and sorted-column ties break by id — so the
    ///   search picks the same host there.
    ///
    /// The argument is made over numbers under `AbsoluteDiff`. It needs
    /// the triangle inequality, which `AbsoluteDiff` loses once a `Null`
    /// or text cell is involved (it puts one at 1 from everything), and
    /// ε-balls that a sorted column answers by value, which matches no
    /// other metric. The caller must therefore ask only while every row
    /// of `r`, old and added, holds only numbers: a non-number in a host
    /// lets the prunes cut the way to it, and one in a column turns that
    /// column's value-ordered ball into an id-ordered scan, which
    /// reorders cost ties. The streaming engine keeps that fact.
    ///
    /// It answers `true` wherever that argument does not reach: an
    /// attribute metric other than `AbsoluteDiff`, or a non-number in
    /// `t_o`; a per-outlier candidate cap is set (new candidates advance
    /// the work counter that stops the search); the lattice
    /// `Σ_{k ≥ m−κ} C(m,k)` is larger than the node budget, so the budget
    /// could bind; or `m − κ ≥ 2` and an added row lies within `ε` of
    /// `t_o` on some attribute, since it can change which attribute seeds
    /// a root, and the seed's order breaks cost ties.
    ///
    /// Floating point: the search computes a cost as
    /// `finish(full − X part)`, which for `L^p` can differ from the direct
    /// `Δ_{R∖X}` by about `(2·(m+1)·u)^{1/p}·(C + ε)` (`u` the unit
    /// roundoff) — most of all as `C → 0`. `slack` is four times that;
    /// `L^∞` remainders are exact maxima and get a rounding-sized margin.
    /// The feasibility tests get a relative `4·(m+1)·ε_mach` margin on
    /// `ε`, and ball membership one on `ε + |t_o[A]|`. The argument then
    /// assumes rounding never reorders two distinct solutions whose exact
    /// costs differ by more than that; exact ties (integer data) are
    /// order-independent, which the engine's per-prefix oracle pins.
    pub fn outcome_may_change(
        &self,
        t_o: &[Value],
        cost: Option<f64>,
        added: &[(&[Value], f64)],
        tightened: &[(&[Value], f64)],
    ) -> bool {
        let m = self.dist.arity();
        let kappa = self.kappa.unwrap_or(m).min(m);
        if (0..m).any(|a| !matches!(self.dist.metric(a), Metric::Absolute))
            || t_o.iter().any(|v| v.as_num().is_none())
            || self.budget.max_candidates_per_outlier.is_some()
            || lattice_size(m, kappa) > self.node_budget as u128
        {
            return true;
        }
        let check = HostCheck::new(self, t_o, kappa, cost);
        if m - kappa >= 2 && added.iter().any(|&(u, _)| check.near_on_some_attribute(u)) {
            return true;
        }
        added
            .iter()
            .chain(tightened)
            .any(|&(u, delta_eta)| check.may_host(u, delta_eta))
    }
}

/// `Σ_{k ≥ m−κ} C(m,k) = Σ_{j ≤ κ} C(m,j)`: the nodes a κ-restricted
/// search can visit.
fn lattice_size(m: usize, kappa: usize) -> u128 {
    let (mut total, mut binom) = (0u128, 1u128);
    for j in 0..=kappa {
        total += binom;
        binom = binom * (m - j) as u128 / (j as u128 + 1);
    }
    total
}

/// One outlier's side of [`DiscSaver::outcome_may_change`].
struct HostCheck<'a> {
    dist: &'a disc_distance::TupleDistance,
    norm: Norm,
    t_o: &'a [Value],
    m: usize,
    kappa: usize,
    eps: f64,
    /// Rounding margin of the feasibility tests.
    tol: f64,
    /// `C + slack`; `None` when any host counts.
    bound: Option<f64>,
}

impl<'a> HostCheck<'a> {
    fn new(saver: &'a DiscSaver, t_o: &'a [Value], kappa: usize, cost: Option<f64>) -> Self {
        let m = saver.dist.arity();
        let norm = saver.dist.norm();
        let eps = saver.constraints.eps;
        let rel = (m as f64 + 1.0) * f64::EPSILON; // 2·(m+1)·u
        let scale = norm.exponent().map_or(rel, |p| rel.powf(1.0 / p));
        HostCheck {
            dist: &saver.dist,
            norm,
            t_o,
            m,
            kappa,
            eps,
            tol: 4.0 * rel * eps,
            bound: cost.map(|c| c + 4.0 * scale * (c + eps)),
        }
    }

    /// True when `u` could sit in some attribute's ε-ball around `t_o`
    /// (`RSet::attribute_ball` rounds `t_o[A] ± ε`).
    fn near_on_some_attribute(&self, u: &[Value]) -> bool {
        (0..self.m).any(|a| {
            let scale = self.eps + self.t_o[a].as_num().map_or(0.0, f64::abs);
            self.dist.attr_dist(a, &self.t_o[a], &u[a]) <= self.eps + 4.0 * f64::EPSILON * scale
        })
    }

    /// True when `u`, at `δ_η(u) = delta_eta`, is a Prop. 5 host at some
    /// lattice node at a cost within the bound.
    fn may_host(&self, u: &[Value], delta_eta: f64) -> bool {
        if delta_eta > self.eps + self.tol {
            return false;
        }
        // Prop. 3, leaving as soon as the partial sum passes C + ε.
        let limit = self.bound.map_or(f64::INFINITY, |bound| {
            self.norm.to_acc(bound + self.eps + self.tol)
        });
        let mut d = [0.0; AttrSet::MAX_ATTRS];
        let mut full = self.norm.init();
        for (a, slot) in d.iter_mut().enumerate().take(self.m) {
            *slot = self.dist.attr_dist(a, &self.t_o[a], &u[a]);
            full = self.norm.accumulate(full, *slot);
            if full > limit {
                return false;
            }
        }
        // X keeps only attributes within reach of `ε − δ_η(u)`; the rest
        // must be adjusted.
        let reach = self.eps - delta_eta + self.tol;
        let forced: AttrSet = (0..self.m).filter(|&a| d[a] > reach).collect();
        forced.len() <= self.kappa && self.walk(&d[..self.m], reach, forced, 0)
    }

    /// Depth-first over the adjusted sets `Y = R∖X ⊇ forced` with
    /// `|Y| ≤ κ`, growing `Y` by attributes from `from` on (each set once).
    fn walk(&self, d: &[f64], reach: f64, y: AttrSet, from: usize) -> bool {
        let over = |set: AttrSet| {
            let acc = set
                .iter()
                .fold(self.norm.init(), |acc, a| self.norm.accumulate(acc, d[a]));
            self.norm.finish(acc)
        };
        if self.bound.is_some_and(|bound| over(y) > bound) {
            return false; // adjusting more only costs more
        }
        if over(y.complement(self.m)) <= reach {
            return true;
        }
        y.len() < self.kappa
            && (from..self.m).any(|a| !y.contains(a) && self.walk(d, reach, y.with(a), a + 1))
    }
}

/// Per-outlier search state.
struct Search<'a> {
    r: &'a RSet,
    t_o: &'a [Value],
    eps: f64,
    eta: usize,
    norm: Norm,
    m: usize,
    /// Norm accumulator of the full-space distance from `t_o` to each row
    /// of `r` (so `Δ(t_o[R\X], t[R\X])` is recovered by subtraction for
    /// decomposable norms).
    full_acc: Vec<f64>,
    /// Finished full-space distances.
    full_d: Vec<f64>,
    visited: HashSet<AttrSet>,
    nodes: usize,
    budget: usize,
    best_cost: f64,
    /// `(row of r, unadjusted X)` of the incumbent upper bound.
    best: Option<(u32, AttrSet)>,
    /// Shared cancellation flag, polled once per node.
    token: &'a CancelToken,
    /// Set once the token fires: the incumbent is no longer trustworthy.
    cancelled: bool,
    /// Candidate evaluations charged so far against `work_cap`.
    work: usize,
    /// Per-outlier candidate-evaluation cap ([`Budget`]); `usize::MAX`
    /// when unlimited.
    work_cap: usize,
    /// Subtrees cut by the Proposition 3 lower bound.
    lb_prunes: u64,
    /// Nodes cut because fewer than η candidates remained.
    eta_prunes: u64,
    /// Proposition 5 incumbent improvements.
    ub_updates: u64,
    /// Packed inlier coordinates ([`RSet::packed`]) plus the packed
    /// outlier, for per-attribute distances without `Value` dispatch.
    /// Present only when both the metric and `t_o` admit packing; the
    /// per-attribute lookup is bit-identical to `attr_dist` on finite
    /// numeric cells.
    packed: Option<(&'a PackedMatrix, Vec<f64>)>,
}

impl<'a> Search<'a> {
    fn new(saver: &DiscSaver, r: &'a RSet, t_o: &'a [Value], token: &'a CancelToken) -> Self {
        let dist = r.distance();
        let norm = dist.norm();
        let packed = r
            .packed()
            .and_then(|mat| pack_values(t_o).map(|qf| (mat, qf)));
        let mut full_acc = Vec::with_capacity(r.len());
        let mut full_d = Vec::with_capacity(r.len());
        for (i, row) in r.rows().iter().enumerate() {
            let mut acc = norm.init();
            match &packed {
                Some((mat, qf)) => match mat.row(i) {
                    Some(prow) => {
                        for a in 0..dist.arity() {
                            acc = norm.accumulate(acc, (qf[a] - prow[a]).abs());
                        }
                    }
                    None => {
                        for a in 0..dist.arity() {
                            acc = norm.accumulate(acc, dist.attr_dist(a, &t_o[a], &row[a]));
                        }
                    }
                },
                None => {
                    for a in 0..dist.arity() {
                        acc = norm.accumulate(acc, dist.attr_dist(a, &t_o[a], &row[a]));
                    }
                }
            }
            full_acc.push(acc);
            full_d.push(norm.finish(acc));
        }
        Search {
            r,
            t_o,
            eps: saver.constraints.eps,
            eta: saver.constraints.eta,
            norm,
            m: dist.arity(),
            full_acc,
            full_d,
            visited: HashSet::new(),
            nodes: 0,
            budget: saver.node_budget,
            best_cost: f64::INFINITY,
            best: None,
            token,
            cancelled: false,
            work: 0,
            work_cap: saver
                .budget
                .max_candidates_per_outlier
                .unwrap_or(usize::MAX),
            lb_prunes: 0,
            eta_prunes: 0,
            ub_updates: 0,
            packed,
        }
    }

    /// The per-attribute distance `Δ(t_o[A], t[A])` for candidate row `c`,
    /// served from the packed layout when available (identical to
    /// `attr_dist` on finite numeric cells — `AbsoluteDiff` is `|x − y|`
    /// there, and packed rows/queries are all-finite by construction).
    #[inline]
    fn attr_d(&self, a: usize, c: u32) -> f64 {
        if let Some((mat, qf)) = &self.packed {
            if let Some(row) = mat.row(c as usize) {
                return (qf[a] - row[a]).abs();
            }
        }
        self.r
            .distance()
            .attr_dist(a, &self.t_o[a], &self.r.rows()[c as usize][a])
    }

    /// The work performed so far, as reported to the caller and the
    /// global counters.
    fn effort(&self) -> SaveEffort {
        SaveEffort {
            nodes: self.nodes as u64,
            candidates: self.work as u64,
            lb_prunes: self.lb_prunes,
            eta_prunes: self.eta_prunes,
            ub_updates: self.ub_updates,
        }
    }

    /// True once the search must stop expanding (cancellation or the
    /// per-outlier candidate cap). The node budget is checked separately —
    /// it predates [`Budget`] and bounds memoized nodes, not candidates.
    fn exhausted(&self) -> bool {
        self.cancelled || self.work >= self.work_cap
    }

    /// `Δ(t_o[R\X], t[R\X])` for candidate row `c` whose `X`-accumulator is
    /// `acc_x`. For `L¹`/`L²`/`L^p` the accumulator decomposes; `L^∞` needs
    /// a direct pass over `R\X`.
    fn remainder_dist(&self, c: u32, acc_x: f64, x: AttrSet) -> f64 {
        match self.norm {
            Norm::LInf => {
                let mut acc = self.norm.init();
                for a in x.complement(self.m).iter() {
                    acc = self.norm.accumulate(acc, self.attr_d(a, c));
                }
                self.norm.finish(acc)
            }
            _ => self
                .norm
                .finish((self.full_acc[c as usize] - acc_x).max(0.0)),
        }
    }

    /// Seeds and runs one κ-restricted root `X₀`.
    fn run_root(&mut self, x0: AttrSet) {
        if self.exhausted() || self.visited.contains(&x0) {
            return;
        }
        // Seed candidates from the smallest single-attribute ball among X₀
        // (every candidate must be within ε on each attribute of X₀).
        let seed: Vec<u32> = match x0
            .iter()
            .map(|a| (a, self.r.attribute_ball(a, &self.t_o[a], self.eps)))
            .min_by_key(|(_, ball)| ball.len())
        {
            Some((_, ball)) => ball,
            None => (0..self.r.len() as u32).collect(), // X₀ = ∅
        };
        let mut cands = Vec::with_capacity(seed.len());
        let mut acc = Vec::with_capacity(seed.len());
        let cap = self.norm.to_acc(self.eps);
        'cand: for c in seed {
            let mut a_acc = self.norm.init();
            for a in x0.iter() {
                a_acc = self.norm.accumulate(a_acc, self.attr_d(a, c));
                if a_acc > cap {
                    continue 'cand;
                }
            }
            cands.push(c);
            acc.push(a_acc);
        }
        self.recurse(x0, cands, acc);
    }

    /// One node of Algorithm 1: bounds, incumbent update, recursion.
    fn recurse(&mut self, x: AttrSet, cands: Vec<u32>, acc: Vec<f64>) {
        // Budget exhaustion keeps the incumbent found so far; the work cap
        // is checked *before* processing, so at least the root node always
        // runs and small caps still yield a (suboptimal) answer.
        if self.exhausted() {
            return;
        }
        if self.token.is_cancelled() {
            self.cancelled = true;
            return;
        }
        if !self.visited.insert(x) || self.nodes >= self.budget {
            return;
        }
        self.nodes += 1;
        self.work += cands.len().max(1);

        // Fewer than η candidates within ε on X: no feasible adjustment
        // exists for X or any superset (candidates only shrink).
        if cands.len() < self.eta {
            self.eta_prunes += 1;
            return;
        }

        // Lower bound (Proposition 3): η-th smallest full-space distance
        // among the candidates, minus ε.
        let mut scratch: Vec<f64> = cands.iter().map(|&c| self.full_d[c as usize]).collect();
        let (_, kth, _) = scratch.select_nth_unstable_by(self.eta - 1, |a, b| {
            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
        });
        if *kth - self.eps >= self.best_cost {
            self.lb_prunes += 1;
            return; // prune subtree (line 2 of Algorithm 1)
        }

        // Upper bound (Proposition 5): best qualifying t₂.
        let mut best_here: Option<(u32, f64)> = None;
        for (i, &c) in cands.iter().enumerate() {
            let dx = self.norm.finish(acc[i]);
            if self.r.delta_eta(c as usize) <= self.eps - dx {
                let cost = self.remainder_dist(c, acc[i], x);
                if best_here.map(|(_, bc)| cost < bc).unwrap_or(true) {
                    best_here = Some((c, cost));
                }
            }
        }
        if let Some((c, cost)) = best_here {
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best = Some((c, x));
                self.ub_updates += 1;
            }
        }

        // Recurse on X ∪ {A} for each adjustable attribute A (line 10).
        let cap = self.norm.to_acc(self.eps);
        for a in x.complement(self.m).iter() {
            let child = x.with(a);
            if self.visited.contains(&child) {
                continue;
            }
            let mut c_cands = Vec::new();
            let mut c_acc = Vec::new();
            for (i, &c) in cands.iter().enumerate() {
                let na = self.norm.accumulate(acc[i], self.attr_d(a, c));
                if na <= cap {
                    c_cands.push(c);
                    c_acc.push(na);
                }
            }
            self.recurse(child, c_cands, c_acc);
        }
    }

    fn into_result(self) -> Option<Adjustment> {
        let (c, x) = self.best?;
        let row = &self.r.rows()[c as usize];
        let mut values = self.t_o.to_vec();
        let mut adjusted = AttrSet::empty();
        for a in x.complement(self.m).iter() {
            if !values[a].same(&row[a]) {
                values[a] = row[a].clone();
                adjusted.insert(a);
            }
        }
        let cost = self.r.distance().dist(self.t_o, &values);
        Some(Adjustment {
            values,
            adjusted,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saver::SaverConfig;
    use disc_distance::TupleDistance;

    fn rows(points: &[[f64; 2]]) -> Vec<Vec<Value>> {
        points
            .iter()
            .map(|p| p.iter().map(|&x| Value::Num(x)).collect())
            .collect()
    }

    fn cluster_2d() -> Vec<Vec<Value>> {
        // A 4×4 grid of points spaced 0.2 apart around the origin.
        let mut pts = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                pts.push([0.2 * i as f64, 0.2 * j as f64]);
            }
        }
        rows(&pts)
    }

    #[test]
    fn saves_single_attribute_error() {
        // Outlier at (0.3, 9.0): only attribute 1 is corrupted.
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let r = saver.build_rset(cluster_2d());
        let t_o = vec![Value::Num(0.3), Value::Num(9.0)];
        let adj = saver.save_one(&r, &t_o).unwrap();
        assert!(r.is_feasible(&adj.values), "adjustment must be feasible");
        // Only attribute 1 should change; attribute 0 stays 0.3.
        assert_eq!(adj.values[0], Value::Num(0.3));
        assert_eq!(adj.adjusted.iter().collect::<Vec<_>>(), vec![1]);
        // The adjusted value lands inside the cluster.
        let y = adj.values[1].expect_num();
        assert!((0.0..=0.7).contains(&y), "adjusted y = {y}");
    }

    #[test]
    fn cost_never_exceeds_nearest_tuple_substitution() {
        // DISC's result is at most DORC's (the nearest feasible tuple),
        // because Lemma 4 is one of the explored upper bounds.
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let r = saver.build_rset(cluster_2d());
        for t_o in [
            vec![Value::Num(5.0), Value::Num(5.0)],
            vec![Value::Num(0.3), Value::Num(-4.0)],
            vec![Value::Num(-3.0), Value::Num(0.1)],
        ] {
            let adj = saver.save_one(&r, &t_o).unwrap();
            let nearest_feasible = r
                .rows()
                .iter()
                .enumerate()
                .filter(|(i, _)| r.delta_eta(*i) <= 0.5)
                .map(|(_, row)| r.distance().dist(&t_o, row))
                .fold(f64::INFINITY, f64::min);
            assert!(
                adj.cost <= nearest_feasible + 1e-9,
                "cost {} > substitution {}",
                adj.cost,
                nearest_feasible
            );
        }
    }

    #[test]
    fn cost_respects_lower_bound() {
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let r = saver.build_rset(cluster_2d());
        let t_o = vec![Value::Num(7.0), Value::Num(0.2)];
        let adj = saver.save_one(&r, &t_o).unwrap();
        let lb = crate::bounds::lower_bound(&r, &t_o, AttrSet::empty()).unwrap();
        assert!(
            adj.cost >= lb - 1e-9,
            "cost {} < lower bound {lb}",
            adj.cost
        );
    }

    #[test]
    fn kappa_restriction_blocks_multi_attribute_fixes() {
        // Outlier corrupted in both attributes: with κ = 1 it cannot be
        // saved (a natural outlier in the paper's terms).
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .kappa(1)
            .build_approx()
            .unwrap();
        let r = saver.build_rset(cluster_2d());
        let t_o = vec![Value::Num(9.0), Value::Num(-9.0)];
        assert!(saver.save_one(&r, &t_o).is_none());
        // A single-attribute error is still saved under κ = 1.
        let dirty = vec![Value::Num(0.3), Value::Num(9.0)];
        let adj = saver.save_one(&r, &dirty).unwrap();
        assert!(adj.adjusted.len() <= 1);
    }

    #[test]
    fn kappa_result_matches_unrestricted_on_single_attr_errors() {
        let config = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2));
        let base = config.clone().build_approx().unwrap();
        let restricted = config.kappa(1).build_approx().unwrap();
        let r = base.build_rset(cluster_2d());
        let t_o = vec![Value::Num(0.45), Value::Num(30.0)];
        let a = base.save_one(&r, &t_o).unwrap();
        let b = restricted.save_one(&r, &t_o).unwrap();
        assert!((a.cost - b.cost).abs() < 1e-9);
    }

    #[test]
    fn empty_r_returns_none() {
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 2), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let r = saver.build_rset(Vec::new());
        assert!(saver
            .save_one(&r, &[Value::Num(0.0), Value::Num(0.0)])
            .is_none());
    }

    #[test]
    fn no_core_tuples_returns_none() {
        // Two distant points, η = 3: nothing in r can host the outlier.
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 3), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let r = saver.build_rset(rows(&[[0.0, 0.0], [10.0, 10.0]]));
        assert!(saver
            .save_one(&r, &[Value::Num(5.0), Value::Num(5.0)])
            .is_none());
    }

    #[test]
    fn node_budget_still_returns_incumbent() {
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .node_budget(1)
            .build_approx()
            .unwrap();
        let r = saver.build_rset(cluster_2d());
        let t_o = vec![Value::Num(0.3), Value::Num(9.0)];
        // Budget 1 only visits X = ∅ — still yields the Lemma 4 solution.
        let adj = saver.save_one(&r, &t_o).unwrap();
        assert!(r.is_feasible(&adj.values));
    }

    #[test]
    fn saving_textual_outlier() {
        // Zip-code style strings; the outlier has a confusable typo.
        let strings = ["RH10-0AG", "RH10-0AB", "RH10-0AC", "RH10-0AD"];
        let r_rows: Vec<Vec<Value>> = strings
            .iter()
            .map(|s| vec![Value::Text(s.to_string())])
            .collect();
        let dist = TupleDistance::textual(1);
        let saver = SaverConfig::new(DistanceConstraints::new(1.0, 3), dist)
            .build_approx()
            .unwrap();
        let r = saver.build_rset(r_rows);
        let t_o = vec![Value::Text("XY99-ZZZ".into())];
        let adj = saver.save_one(&r, &t_o).unwrap();
        assert!(r.is_feasible(&adj.values));
    }

    #[test]
    fn candidate_cap_still_returns_incumbent_deterministically() {
        let config = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2));
        let base = config.clone().build_approx().unwrap();
        let capped = config
            .budget(Budget::unlimited().with_max_candidates(1))
            .build_approx()
            .unwrap();
        let r = base.build_rset(cluster_2d());
        let t_o = vec![Value::Num(0.3), Value::Num(9.0)];
        // Cap 1 processes only the root node — still a feasible answer.
        let adj = capped.save_one(&r, &t_o).unwrap();
        assert!(r.is_feasible(&adj.values));
        // And never cheaper than the unrestricted search.
        let full = base.save_one(&r, &t_o).unwrap();
        assert!(full.cost <= adj.cost + 1e-9);
        // Deterministic: same result every time.
        assert_eq!(capped.save_one(&r, &t_o), Some(adj));
    }

    #[test]
    fn cancelled_token_interrupts_save() {
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let r = saver.build_rset(cluster_2d());
        let t_o = vec![Value::Num(0.3), Value::Num(9.0)];
        let token = CancelToken::unlimited();
        token.cancel();
        assert_eq!(saver.save_one_budgeted(&r, &t_o, &token), Err(Cancelled));
        // A live token leaves the result untouched.
        let live = CancelToken::unlimited();
        let ok = saver.save_one_budgeted(&r, &t_o, &live).unwrap().unwrap();
        assert_eq!(Some(ok), saver.save_one(&r, &t_o));
    }

    /// `(row, δ_η)` pairs as the engine passes them, read from `r`.
    fn hosts<'r>(r: &'r RSet, ids: &[usize]) -> Vec<(&'r [Value], f64)> {
        ids.iter()
            .map(|&i| (r.rows()[i].as_slice(), r.delta_eta(i)))
            .collect()
    }

    /// Rows of `after` whose `δ_η` differs from `before` (a prefix).
    fn tightened(before: &RSet, after: &RSet) -> Vec<usize> {
        (0..before.len())
            .filter(|&i| before.delta_eta(i) != after.delta_eta(i))
            .collect()
    }

    fn grown(r: &[Vec<Value>], extra: &[Vec<Value>]) -> Vec<Vec<Value>> {
        r.iter().chain(extra).cloned().collect()
    }

    #[test]
    fn stability_fallbacks_answer_dirty() {
        let c = DistanceConstraints::new(0.5, 4);
        let config = SaverConfig::new(c, TupleDistance::numeric(2));
        let saver = config.clone().build_approx().unwrap();
        let r = saver.build_rset(cluster_2d());
        let t_o = vec![Value::Num(0.3), Value::Num(9.0)];
        let cost = saver.save_one(&r, &t_o).map(|adj| adj.cost);
        // A far row with a tight δ_η hosts nothing near t_o: clean.
        let far = [Value::Num(50.0), Value::Num(50.0)];
        let added = [(&far[..], 0.0)];
        assert!(!saver.outcome_may_change(&t_o, cost, &added, &[]));

        // A candidate cap: new candidates advance the work counter.
        let capped = config
            .clone()
            .budget(Budget::unlimited().with_max_candidates(1 << 30))
            .build_approx()
            .unwrap();
        assert!(capped.outcome_may_change(&t_o, cost, &added, &[]));
        // A node budget below the lattice (4 nodes for m = 2, κ = m).
        let budgeted = config.clone().node_budget(3).build_approx().unwrap();
        assert!(budgeted.outcome_may_change(&t_o, cost, &added, &[]));
        let lattice = config.clone().node_budget(4).build_approx().unwrap();
        assert!(!lattice.outcome_may_change(&t_o, cost, &added, &[]));
        // A non-number in t_o, and a metric other than AbsoluteDiff.
        let null_t_o = [Value::Null, Value::Num(9.0)];
        assert!(saver.outcome_may_change(&null_t_o, cost, &added, &[]));
        let discrete = TupleDistance::new(vec![Metric::Absolute, Metric::Discrete], Norm::L2);
        let discrete = SaverConfig::new(c, discrete).build_approx().unwrap();
        assert!(discrete.outcome_may_change(&t_o, cost, &added, &[]));
        // Any other saver, through the trait default.
        let exact = config.build_exact().unwrap();
        assert!(crate::Saver::outcome_may_change(
            &exact,
            &t_o,
            cost,
            &added,
            &[]
        ));
    }

    #[test]
    fn an_added_row_can_flip_the_seed_attribute_and_a_cost_tie() {
        // m − κ = 2 under L∞: the added row is no host (δ_η(u) = 2 > ε),
        // but it joins attribute 0's ε-ball, so the root {0,1} seeds from
        // attribute 1 instead, and that reorders two hosts tied at C = 5.
        let dist = TupleDistance::new(vec![disc_distance::Metric::Absolute; 4], Norm::LInf);
        let saver = SaverConfig::new(DistanceConstraints::new(1.0, 2), dist)
            .kappa(2)
            .parallelism(Parallelism(1))
            .build_approx()
            .unwrap();
        let num = |xs: [f64; 4]| xs.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>();
        let old = vec![
            num([1., 0., 2., 0.]),
            num([0., 0., 2., 1.]),
            num([0., 0., 2., 1.]),
        ];
        let u = num([0., 2., 1., 1.]);
        let t_o = num([1., 0., 7., 0.]);
        let (r_old, r_new) = (
            saver.build_rset(old.clone()),
            saver.build_rset(grown(&old, &[u])),
        );
        let before = saver.save_one(&r_old, &t_o).unwrap();
        let after = saver.save_one(&r_new, &t_o).unwrap();
        assert_eq!(before.cost, after.cost);
        assert_ne!(before.values, after.values, "the tie resolves differently");
        assert!(tightened(&r_old, &r_new).is_empty());
        let added = hosts(&r_new, &[3]);
        assert!(added[0].1 > 1.0, "the added row is no Prop. 5 host");
        assert!(saver.outcome_may_change(&t_o, Some(before.cost), &added, &[]));
    }

    /// A row of three cells; `NULL` (a NaN marker) becomes `Value::Null`.
    fn row3(xs: [f64; 3]) -> Vec<Value> {
        xs.iter()
            .map(|&x| {
                if x.is_nan() {
                    Value::Null
                } else {
                    Value::Num(x)
                }
            })
            .collect()
    }

    const NULL: f64 = f64::NAN;

    #[test]
    fn a_non_number_in_r_changes_saves_the_check_calls_stable() {
        // m = 3, κ = 2, ε = 1, η = 3. In both cases r gains rows that
        // host nothing at cost ≤ C, so the check answers clean, yet the
        // save changes: the argument needs numbers, and the engine stops
        // asking once an inlier holds a non-number.
        let config = |norm| {
            SaverConfig::new(
                DistanceConstraints::new(1.0, 3),
                TupleDistance::new(vec![Metric::Absolute; 3], norm),
            )
            .kappa(2)
            .parallelism(Parallelism(1))
        };
        let check = |norm, old: &[[f64; 3]], new_rows: &[[f64; 3]], t_o: [f64; 3]| {
            let saver = config(norm).build_approx().unwrap();
            let all: Vec<[f64; 3]> = old.iter().chain(new_rows).copied().collect();
            let (r_old, r_new) = (
                saver.build_rset(old.iter().map(|&x| row3(x)).collect()),
                saver.build_rset(all.iter().map(|&x| row3(x)).collect()),
            );
            let t_o = row3(t_o);
            let before = saver.save_one(&r_old, &t_o).unwrap();
            let after = saver.save_one(&r_new, &t_o).unwrap();
            let added = hosts(&r_new, &(old.len()..all.len()).collect::<Vec<_>>());
            let tight = hosts(&r_new, &tightened(&r_old, &r_new));
            assert!(!saver.outcome_may_change(&t_o, Some(before.cost), &added, &tight));
            (before, after)
        };
        // (b) u = (2, ∅, 1) turns column 1's value-ordered ε-ball into an
        // id-ordered scan, so the root {1} meets two hosts tied at C = 2
        // in the other order.
        let old = [
            [2., 1., 2.],
            [1., 0., 2.],
            [2., 1., 1.],
            [2., 1., 2.],
            [2., 1., 1.],
            [2., 1., 2.],
        ];
        let (before, after) = check(Norm::LInf, &old, &[[2., NULL, 1.]], [0., 0., 0.]);
        assert_eq!(before.cost, after.cost);
        assert_ne!(before.values, after.values, "the tie resolves differently");
        // (a) h = (∅, 1, 2) saves t_o = (7, 2, 2) at cost 2: its Null sits
        // 1 from t_o, while its numeric neighbours sit 6 or more away.
        // Once r gains (2, 2, 2), root {1} finds an incumbent of 5 first,
        // and the Prop. 3 prune (6 − ε ≥ 5) then cuts root {2}, the way
        // to h: a larger r, a costlier save.
        let old = [
            [1., 1., 2.],
            [1., 1., 0.],
            [2., 1., 2.],
            [1., 1., 1.],
            [2., 1., 0.],
            [2., 0., 0.],
            [NULL, 1., 2.],
        ];
        let (before, after) = check(Norm::L1, &old, &[[2., 2., 2.], [2., 1., 2.]], [7., 2., 2.]);
        assert_eq!(before.values, row3([NULL, 1., 2.]));
        assert_eq!((before.cost, after.cost), (2.0, 5.0));
    }

    #[test]
    fn a_tie_at_the_current_cost_answers_dirty() {
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let t_o = vec![Value::Num(0.3), Value::Num(9.0)];
        let r = saver.build_rset(cluster_2d());
        let adj = saver.save_one(&r, &t_o).unwrap();
        // The adjusted tuple itself joins r: it hosts at X = {0} at
        // exactly the current cost.
        let r_new = saver.build_rset(grown(r.rows(), std::slice::from_ref(&adj.values)));
        let added = hosts(&r_new, &[r.len()]);
        let tight = hosts(&r_new, &tightened(&r, &r_new));
        assert_eq!(
            r_new
                .distance()
                .dist_on(AttrSet::from_indices([1]), &t_o, added[0].0),
            adj.cost
        );
        assert!(saver.outcome_may_change(&t_o, Some(adj.cost), &added, &tight));
    }

    #[test]
    fn a_row_beyond_cost_plus_eps_answers_clean() {
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let t_o = vec![Value::Num(0.3), Value::Num(1.1)];
        let r = saver.build_rset(cluster_2d());
        let adj = saver.save_one(&r, &t_o).unwrap();
        // A duplicate of a grid row, a Prop. 5 host wherever it fits, but
        // farther from t_o than C + ε (Prop. 3).
        let u = vec![Value::Num(0.0), Value::Num(0.0)];
        assert!(r.distance().dist(&t_o, &u) > adj.cost + 0.5);
        let r_new = saver.build_rset(grown(r.rows(), &[u]));
        let added = hosts(&r_new, &[r.len()]);
        assert!(added[0].1 <= 0.5);
        let tight = hosts(&r_new, &tightened(&r, &r_new));
        assert!(!saver.outcome_may_change(&t_o, Some(adj.cost), &added, &tight));
        assert_eq!(saver.save_one(&r_new, &t_o), Some(adj));
    }

    #[test]
    fn near_zero_costs_stream_like_batch_for_every_norm() {
        // ε = 1, η = 6. Each block is a host plus five copies of it moved
        // by `step`, which gives the host δ_η = |step|. t_o is saved by
        // the first host at cost t ≪ ε, the regime where the search's
        // `finish(full − X part)` and the direct distance differ most;
        // later blocks add hosts costing 2.1t, 2.05t and 0.9t.
        let t = 5e-7;
        let num = |p: [f64; 2]| p.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>();
        let block = |host: [f64; 2], step: [f64; 2]| {
            let mut rows = vec![num(host)];
            rows.extend((0..5).map(|_| num([host[0] + step[0], host[1] + step[1]])));
            rows
        };
        // Layout A (every norm): t_o = (0, t), steps along y away from
        // t_o. Layout B (L¹, L²): t_o = (−0.5, t), steps of (0.5, 0), so
        // the host sits ε − δ_η from t_o on the kept attribute.
        let ys = [0.0, 2.1 * t, -1.05 * t, 0.9 * t];
        let streams = [
            (Norm::L1, false),
            (Norm::L2, false),
            (Norm::LInf, false),
            (Norm::Lp(3.0), false),
            (Norm::L1, true),
            (Norm::L2, true),
        ];
        for (norm, b) in streams {
            let t_o = if b { [-0.5, t] } else { [0.0, t] };
            let step = |y: f64| match (b, y > t) {
                (true, _) => [0.5, 0.0],
                (false, up) => [0.0, if up { 1.0 } else { -1.0 }],
            };
            let mut batches: Vec<Vec<Vec<Value>>> =
                ys.iter().map(|&y| block([0.0, y], step(y))).collect();
            batches[0].push(num(t_o));
            let dist = TupleDistance::new(vec![disc_distance::Metric::Absolute; 2], norm);
            let config = SaverConfig::new(DistanceConstraints::new(1.0, 6), dist)
                .parallelism(Parallelism(1));
            let mut engine = crate::ShardedEngine::new(
                disc_data::Schema::numeric(2),
                Box::new(config.clone().build_approx().unwrap()),
            );
            let first = engine.ingest(batches[0].clone()).unwrap();
            let cost = first.adjustment_of(6).expect("t_o is saved").cost;
            assert!(cost < 1e-6, "{norm:?} {t_o:?}: cost {cost}");
            let mut all = batches[0].clone();
            for batch in &batches[1..] {
                engine.ingest(batch.clone()).unwrap();
                all.extend(batch.iter().cloned());
                let mut ds = disc_data::Dataset::new(disc_data::Schema::numeric(2), all.clone());
                config.clone().build_approx().unwrap().save_all(&mut ds);
                assert!(
                    !engine.is_inlier(6),
                    "{norm:?} {t_o:?}: t_o stays an outlier"
                );
                assert_eq!(engine.dataset().rows(), ds.rows(), "{norm:?} {t_o:?}");
            }
            // The last host undercuts the first: t_o was re-saved to it.
            assert_eq!(engine.dataset().rows()[6][1], Value::Num(0.9 * t));
        }
    }

    #[test]
    fn the_slack_covers_the_searchs_rounded_cost_near_zero() {
        // L², ε = 1, η = 6: h = (0, 0) saves t_o = (−0.5, t) at X = {0},
        // where the search computes √((0.25 + t²) − 0.25), a little above
        // the direct cost t. Then u = (−0.5, t + c) joins with c between
        // the two: by the direct costs u loses to h, but the search meets
        // u first (at X = ∅, exactly) and keeps it.
        let t = 2e-7;
        let searched = ((0.25 + t * t) - 0.25f64).sqrt();
        assert!(searched > t, "the premise: rounding inflates the cost");
        let c = t + (searched - t) / 2.0;
        let num = |p: [f64; 2]| p.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>();
        let mut first = vec![num([0.0, 0.0])];
        first.extend((0..5).map(|_| num([0.5, 0.0])));
        first.push(num([-0.5, t]));
        let mut second = vec![num([-0.5, t + c])];
        second.extend((0..5).map(|_| num([-1.5, t + c])));
        let config = SaverConfig::new(DistanceConstraints::new(1.0, 6), TupleDistance::numeric(2))
            .parallelism(Parallelism(1));
        let mut engine = crate::ShardedEngine::new(
            disc_data::Schema::numeric(2),
            Box::new(config.clone().build_approx().unwrap()),
        );
        engine.ingest(first.clone()).unwrap();
        assert_eq!(engine.dataset().rows()[6], num([-0.5, 0.0]));
        engine.ingest(second.clone()).unwrap();
        let mut ds = disc_data::Dataset::new(disc_data::Schema::numeric(2), grown(&first, &second));
        config.build_approx().unwrap().save_all(&mut ds);
        assert_eq!(ds.rows()[6], num([-0.5, t + c]), "batch switches to u");
        assert_eq!(engine.dataset().rows(), ds.rows());
    }

    #[test]
    fn already_feasible_outlier_costs_nothing_extra() {
        // A point adjacent to the cluster: an adjustment of near-zero cost
        // exists and DISC should find something cheap.
        let saver = SaverConfig::new(DistanceConstraints::new(0.5, 4), TupleDistance::numeric(2))
            .build_approx()
            .unwrap();
        let r = saver.build_rset(cluster_2d());
        let t_o = vec![Value::Num(0.3), Value::Num(1.1)];
        let adj = saver.save_one(&r, &t_o).unwrap();
        assert!(adj.cost <= 0.8, "cost {} unexpectedly high", adj.cost);
    }
}
