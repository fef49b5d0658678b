//! The output oracle: recomputes what the engine answers by scanning the
//! generated [`Table`] directly.
//!
//! It shares no code with the engine's `EncodedRelation`, fact catalog or
//! solvers. It keeps its own dictionary of each dimension column, read
//! cell by cell from the table, and recomputes from the rows alone:
//!
//! * a query's subset (row count);
//! * each stated fact's support and mean over the subset;
//! * the base error `D(∅) = Σ |prior − v|` with the paper's constant
//!   prior, the mean of the target over the whole table;
//! * the utility of the stated facts under Definition 5 (a listener
//!   expects, per row, the relevant value closest to the actual one,
//!   prior included) and Definition 6 (`U(F) = D(∅) − D(F)`);
//! * the aggregate behind each live-computed answer.
//!
//! Agreement is required within [`TOLERANCE`] relative. Sums over the
//! subset are compared relative to the base error, the scale of the
//! terms being summed, because a utility near zero is a difference of
//! two large sums.

use std::collections::{HashMap, HashSet};

use vqs_engine::prelude::{AggKind, ComputedValue, QueryPlan, StoredSpeech};
use vqs_relalg::prelude::{Table, Value};

use crate::stats::close;

/// Relative tolerance of every oracle comparison.
pub const TOLERANCE: f64 = 1e-9;

/// One target column of one table, re-read for checking.
#[derive(Debug, Clone)]
pub struct TableOracle {
    dims: Vec<String>,
    /// Per dimension: the distinct values in first-seen order.
    values: Vec<Vec<String>>,
    /// Per dimension: value → code.
    lookup: Vec<HashMap<String, u32>>,
    /// Per dimension: row → code.
    codes: Vec<Vec<u32>>,
    target: Vec<f64>,
    prior: f64,
}

fn text_of(value: &Value) -> Result<String, String> {
    match value {
        Value::Str(s) => Ok(s.to_string()),
        Value::Null => Err("NULL dimension value".to_string()),
        other => Ok(other.to_string()),
    }
}

impl TableOracle {
    /// Read `dims` and `target` from `table`.
    pub fn new(table: &Table, dims: &[String], target: &str) -> Result<TableOracle, String> {
        let schema = table.schema();
        let mut values = Vec::new();
        let mut lookup = Vec::new();
        let mut codes = Vec::new();
        for dim in dims {
            let col = schema.index_of(dim).map_err(|e| e.to_string())?;
            let mut dim_values: Vec<String> = Vec::new();
            let mut dim_lookup: HashMap<String, u32> = HashMap::new();
            let mut dim_codes = Vec::with_capacity(table.len());
            for row in 0..table.len() {
                let text = text_of(&table.value(row, col))?;
                let code = match dim_lookup.get(&text) {
                    Some(&code) => code,
                    None => {
                        let code = dim_values.len() as u32;
                        dim_lookup.insert(text.clone(), code);
                        dim_values.push(text);
                        code
                    }
                };
                dim_codes.push(code);
            }
            values.push(dim_values);
            lookup.push(dim_lookup);
            codes.push(dim_codes);
        }
        let col = schema.index_of(target).map_err(|e| e.to_string())?;
        let mut values_t = Vec::with_capacity(table.len());
        for row in 0..table.len() {
            values_t.push(
                table
                    .value(row, col)
                    .as_f64()
                    .ok_or_else(|| format!("non-numeric target at row {row}"))?,
            );
        }
        let prior = if values_t.is_empty() {
            0.0
        } else {
            values_t.iter().sum::<f64>() / values_t.len() as f64
        };
        Ok(TableOracle {
            dims: dims.to_vec(),
            values,
            lookup,
            codes,
            target: values_t,
            prior,
        })
    }

    /// The constant prior: the target mean over the whole table.
    #[cfg(test)]
    pub fn prior(&self) -> f64 {
        self.prior
    }

    /// Rows of the table.
    pub fn len(&self) -> usize {
        self.target.len()
    }

    /// Encode `(dimension, value)` predicates; `None` when a value never
    /// occurs (the subset is then empty).
    fn encode(&self, predicates: &[(String, String)]) -> Result<Option<Vec<(usize, u32)>>, String> {
        let mut out = Vec::with_capacity(predicates.len());
        for (dim, value) in predicates {
            let d = self
                .dims
                .iter()
                .position(|name| name == dim)
                .ok_or_else(|| format!("unknown dimension '{dim}'"))?;
            match self.lookup[d].get(value) {
                Some(&code) => out.push((d, code)),
                None => return Ok(None),
            }
        }
        Ok(Some(out))
    }

    fn matches(&self, row: usize, encoded: &[(usize, u32)]) -> bool {
        encoded.iter().all(|&(d, code)| self.codes[d][row] == code)
    }

    /// Rows satisfying every predicate, in table order.
    pub fn rows_matching(&self, predicates: &[(String, String)]) -> Result<Vec<usize>, String> {
        Ok(match self.encode(predicates)? {
            Some(encoded) => (0..self.len())
                .filter(|&row| self.matches(row, &encoded))
                .collect(),
            None => Vec::new(),
        })
    }

    /// Base error `D(∅)` of `rows`.
    pub fn base_error(&self, rows: &[usize]) -> f64 {
        rows.iter()
            .map(|&row| (self.prior - self.target[row]).abs())
            .sum()
    }

    /// Support and mean of the fact scoped by `scope` within `rows`.
    pub fn fact(&self, rows: &[usize], scope: &[(String, String)]) -> Result<(usize, f64), String> {
        let Some(encoded) = self.encode(scope)? else {
            return Ok((0, 0.0));
        };
        let mut support = 0usize;
        let mut sum = 0.0;
        for &row in rows {
            if self.matches(row, &encoded) {
                support += 1;
                sum += self.target[row];
            }
        }
        Ok((
            support,
            if support == 0 {
                0.0
            } else {
                sum / support as f64
            },
        ))
    }

    /// Utility (Definitions 5 and 6) over `rows` of facts given as
    /// `(scope, value)`.
    pub fn utility(
        &self,
        rows: &[usize],
        facts: &[(Vec<(String, String)>, f64)],
    ) -> Result<f64, String> {
        let mut encoded = Vec::with_capacity(facts.len());
        for (scope, value) in facts {
            if let Some(e) = self.encode(scope)? {
                encoded.push((e, *value));
            }
        }
        let mut error = 0.0;
        for &row in rows {
            let actual = self.target[row];
            let mut dev = (self.prior - actual).abs();
            for (scope, value) in &encoded {
                if self.matches(row, scope) {
                    dev = dev.min((value - actual).abs());
                }
            }
            error += dev;
        }
        Ok(self.base_error(rows) - error)
    }

    /// Check one stored speech: subset size, each fact's support and
    /// mean, the base error and the utility.
    pub fn check_speech(&self, speech: &StoredSpeech) -> Result<(), String> {
        let rows = self.rows_matching(speech.query.predicates())?;
        let fail = |what: String| Err(format!("{}: {what}", speech.query));
        if rows.len() != speech.rows {
            return fail(format!("{} rows, oracle {}", speech.rows, rows.len()));
        }
        let base = self.base_error(&rows);
        if !close(speech.base_error, base, TOLERANCE, 0.0) {
            return fail(format!("base error {} vs oracle {base}", speech.base_error));
        }
        let mut facts = Vec::with_capacity(speech.facts.len());
        for fact in &speech.facts {
            let (support, mean) = self.fact(&rows, &fact.scope)?;
            if support != fact.support {
                return fail(format!(
                    "fact {:?} support {} vs {support}",
                    fact.scope, fact.support
                ));
            }
            if !close(fact.value, mean, TOLERANCE, 0.0) {
                return fail(format!(
                    "fact {:?} mean {} vs {mean}",
                    fact.scope, fact.value
                ));
            }
            facts.push((fact.scope.clone(), mean));
        }
        let utility = self.utility(&rows, &facts)?;
        if !close(speech.utility, utility, TOLERANCE, base) {
            return fail(format!("utility {} vs oracle {utility}", speech.utility));
        }
        Ok(())
    }

    /// Distinct value combinations over every set of at most `max_len`
    /// dimensions (the empty set counts once): the number of queries a
    /// complete pre-processing must store per target.
    pub fn distinct_combinations(&self, max_len: usize) -> usize {
        let n = self.dims.len();
        let mut total = 0;
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize > max_len {
                continue;
            }
            let dims: Vec<usize> = (0..n).filter(|&d| mask & (1 << d) != 0).collect();
            let mut seen: HashSet<Vec<u32>> = HashSet::new();
            for row in 0..self.len() {
                seen.insert(dims.iter().map(|&d| self.codes[d][row]).collect());
            }
            total += seen.len();
        }
        total
    }

    /// Mean of the target per value of `dimension` within `rows`, in
    /// first-seen order.
    fn group_means(&self, rows: &[usize], dimension: &str) -> Result<Vec<(String, f64)>, String> {
        let d = self
            .dims
            .iter()
            .position(|name| name == dimension)
            .ok_or_else(|| format!("unknown dimension '{dimension}'"))?;
        let mut sums: Vec<(u32, f64, usize)> = Vec::new();
        for &row in rows {
            let code = self.codes[d][row];
            match sums.iter_mut().find(|(c, _, _)| *c == code) {
                Some(entry) => {
                    entry.1 += self.target[row];
                    entry.2 += 1;
                }
                None => sums.push((code, self.target[row], 1)),
            }
        }
        Ok(sums
            .into_iter()
            .map(|(code, sum, n)| (self.values[d][code as usize].clone(), sum / n as f64))
            .collect())
    }

    /// Check a live-computed answer against the oracle's own aggregate.
    pub fn check_computed(&self, plan: &QueryPlan, value: &ComputedValue) -> Result<(), String> {
        let rows = self.rows_matching(plan.predicates())?;
        let fail = |what: String| Err(format!("{plan:?}: {what}"));
        let near = |a: f64, b: f64| close(a, b, TOLERANCE, 0.0);
        match (plan, value) {
            (QueryPlan::Aggregate { agg, .. }, ComputedValue::Count { rows: n }) => {
                if *agg != AggKind::Count || *n != rows.len() {
                    return fail(format!("count {n}, oracle {}", rows.len()));
                }
            }
            (QueryPlan::Aggregate { agg, .. }, ComputedValue::Scalar { value, support, .. }) => {
                if *support != rows.len() || rows.is_empty() {
                    return fail(format!("support {support}, oracle {}", rows.len()));
                }
                let values = rows.iter().map(|&row| self.target[row]);
                let expect = match agg {
                    AggKind::Avg => values.sum::<f64>() / rows.len() as f64,
                    AggKind::Sum => values.sum::<f64>(),
                    AggKind::Min => values.fold(f64::INFINITY, f64::min),
                    AggKind::Max => values.fold(f64::NEG_INFINITY, f64::max),
                    AggKind::Count => return fail("count rendered as a scalar".to_string()),
                };
                if !near(*value, expect) {
                    return fail(format!("value {value}, oracle {expect}"));
                }
            }
            (
                QueryPlan::GroupExtremum { dimension, .. },
                ComputedValue::GroupExtremum {
                    best,
                    best_value,
                    other,
                    other_value,
                    highest,
                    ..
                },
            ) => {
                let groups = self.group_means(&rows, dimension)?;
                let of = |name: &str| groups.iter().find(|(g, _)| g == name).map(|(_, m)| *m);
                let top = groups
                    .iter()
                    .map(|(_, m)| *m)
                    .fold(f64::NEG_INFINITY, f64::max);
                let low = groups.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
                let (want_best, want_other) = if *highest { (top, low) } else { (low, top) };
                let (Some(b), Some(o)) = (of(best), of(other)) else {
                    return fail(format!("groups {best}/{other} not in the subset"));
                };
                if !(near(b, *best_value) && near(b, want_best)) {
                    return fail(format!(
                        "best {best} = {best_value}, oracle {b} (extreme {want_best})"
                    ));
                }
                if !(near(o, *other_value) && near(o, want_other)) {
                    return fail(format!(
                        "other {other} = {other_value}, oracle {o} (extreme {want_other})"
                    ));
                }
            }
            (
                QueryPlan::Comparison { dimension, .. },
                ComputedValue::Comparison {
                    left,
                    left_value,
                    right,
                    right_value,
                    ..
                },
            ) => {
                let groups = self.group_means(&rows, dimension)?;
                for (name, stated) in [(left, left_value), (right, right_value)] {
                    let Some(mean) = groups.iter().find(|(g, _)| g == name).map(|(_, m)| *m) else {
                        return fail(format!("side {name} not in the subset"));
                    };
                    if !near(mean, *stated) {
                        return fail(format!("side {name} = {stated}, oracle {mean}"));
                    }
                }
            }
            _ => return fail(format!("value {value:?} does not fit the plan")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_data::running_example::{GRID, REGIONS, SEASONS};
    use vqs_engine::prelude::{NamedFact, Query};
    use vqs_relalg::prelude::{ColumnType, Field, Schema};

    /// The paper's Fig. 1 grid as a generated table would hold it.
    fn fig1() -> TableOracle {
        let schema = Schema::new(vec![
            Field::required("season", ColumnType::Str),
            Field::required("region", ColumnType::Str),
            Field::required("delay", ColumnType::Float),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for (s, season) in SEASONS.iter().enumerate() {
            for (r, region) in REGIONS.iter().enumerate() {
                rows.push(vec![
                    Value::str(season),
                    Value::str(region),
                    Value::Float(GRID[s][r]),
                ]);
            }
        }
        let table = Table::from_rows(schema, rows).unwrap();
        TableOracle::new(&table, &["season".into(), "region".into()], "delay").unwrap()
    }

    fn scope(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(d, v)| (d.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn running_example_by_hand() {
        let oracle = fig1();
        // Grid total 120 over 16 cells.
        assert_eq!(oracle.prior(), 7.5);
        let all: Vec<usize> = (0..16).collect();
        // Eight zero cells at 7.5, four 20s at 12.5, four 10s at 2.5.
        assert_eq!(oracle.base_error(&all), 120.0);
        assert_eq!(
            oracle.fact(&all, &scope(&[("season", "Winter")])).unwrap(),
            (4, 15.0)
        );
        assert_eq!(
            oracle.fact(&all, &scope(&[("region", "North")])).unwrap(),
            (4, 15.0)
        );
        assert_eq!(
            oracle.fact(&all, &scope(&[("region", "East")])).unwrap(),
            (4, 5.0)
        );
        // Speech 2 (Winter = 15, North = 15) covers seven cells: its three
        // 20s drop to 5 each, its four 10s keep the closer prior (2.5
        // each). The other nine cells keep |7.5 − v|: eight zeros at 7.5
        // and one 20 at 12.5.
        let speech2 = vec![
            (scope(&[("season", "Winter")]), 15.0),
            (scope(&[("region", "North")]), 15.0),
        ];
        assert_eq!(
            oracle.utility(&all, &speech2).unwrap(),
            120.0 - (15.0 + 10.0 + 60.0 + 12.5)
        );
        // The Winter query: cells 20, 10, 10, 20; base error 30.
        let winter = oracle
            .rows_matching(&scope(&[("season", "Winter")]))
            .unwrap();
        assert_eq!(winter, vec![12, 13, 14, 15]);
        assert_eq!(oracle.base_error(&winter), 30.0);
        // Within Winter, the East (20) and South (10) facts are exact on
        // their cells; West and North keep their prior deviations.
        let split = vec![
            (scope(&[("region", "East")]), 20.0),
            (scope(&[("region", "South")]), 10.0),
        ];
        assert_eq!(
            oracle.utility(&winter, &split).unwrap(),
            30.0 - 0.0 - 2.5 - 12.5
        );
        // Distinct combinations of at most two of the two dimensions:
        // overall + 4 seasons + 4 regions + 16 cells.
        assert_eq!(oracle.distinct_combinations(2), 25);
        assert_eq!(oracle.distinct_combinations(1), 9);
    }

    #[test]
    fn stored_speech_check_catches_a_wrong_support() {
        let oracle = fig1();
        let good = StoredSpeech {
            query: Query::of("delay", &[("season", "Winter")]),
            facts: vec![NamedFact {
                scope: scope(&[("region", "East")]),
                value: 20.0,
                support: 1,
            }],
            text: String::new(),
            utility: 12.5,
            base_error: 30.0,
            rows: 4,
        };
        oracle.check_speech(&good).unwrap();
        let mut bad = good.clone();
        bad.facts[0].support = 2;
        assert!(oracle.check_speech(&bad).is_err());
        let mut bad = good;
        bad.utility = 12.6;
        assert!(oracle.check_speech(&bad).is_err());
    }

    #[test]
    fn computed_aggregates() {
        let oracle = fig1();
        let plan = QueryPlan::Aggregate {
            target: "delay".into(),
            predicates: scope(&[("region", "North")]),
            agg: AggKind::Sum,
        };
        let ok = ComputedValue::Scalar {
            agg: AggKind::Sum,
            value: 60.0,
            support: 4,
        };
        oracle.check_computed(&plan, &ok).unwrap();
        let wrong = ComputedValue::Scalar {
            agg: AggKind::Sum,
            value: 61.0,
            support: 4,
        };
        assert!(oracle.check_computed(&plan, &wrong).is_err());
        let plan = QueryPlan::GroupExtremum {
            target: "delay".into(),
            predicates: vec![],
            dimension: "season".into(),
            highest: true,
        };
        // Winter averages 15 (highest), Fall 2.5 (lowest).
        let ok = ComputedValue::GroupExtremum {
            dimension: "season".into(),
            best: "Winter".into(),
            best_value: 15.0,
            other: "Fall".into(),
            other_value: 2.5,
            highest: true,
        };
        oracle.check_computed(&plan, &ok).unwrap();
    }
}
