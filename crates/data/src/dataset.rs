//! Datasets: a schema, rows of values, and optional class labels.

use disc_distance::Value;

use crate::schema::Schema;

/// A dataset (a tuple set `r` over a relation scheme `R` in the paper's
/// notation), with optional ground-truth class labels used by the
/// clustering / classification evaluations.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    rows: Vec<Vec<Value>>,
    labels: Option<Vec<u32>>,
}

impl Dataset {
    /// Builds a dataset from a schema and rows.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the schema's.
    pub fn new(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                schema.arity(),
                "row {i} has {} values, schema has {} attributes",
                row.len(),
                schema.arity()
            );
        }
        Dataset {
            schema,
            rows,
            labels: None,
        }
    }

    /// Convenience constructor: numeric schema inferred from column names.
    pub fn from_rows(names: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        let schema = Schema::new(
            names
                .into_iter()
                .map(crate::schema::Attribute::numeric)
                .collect(),
        );
        Dataset::new(schema, rows)
    }

    /// Builds a numeric dataset directly from a row-major `f64` matrix.
    pub fn from_matrix(m: usize, data: &[f64]) -> Self {
        assert_eq!(data.len() % m, 0, "matrix length not a multiple of arity");
        let rows = data
            .chunks_exact(m)
            .map(|r| r.iter().map(|&x| Value::Num(x)).collect())
            .collect();
        Dataset::new(Schema::numeric(m), rows)
    }

    /// Attaches ground-truth class labels (one per row).
    ///
    /// # Panics
    /// Panics if the label count differs from the row count.
    pub fn with_labels(mut self, labels: Vec<u32>) -> Self {
        assert_eq!(labels.len(), self.rows.len(), "one label per row required");
        self.labels = Some(labels);
        self
    }

    /// The relation scheme.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `n`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the dataset has no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of attributes `m`.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Mutable access to all rows (used by repairers, which adjust values
    /// in place).
    pub fn rows_mut(&mut self) -> &mut [Vec<Value>] {
        &mut self.rows
    }

    /// The row at index `i`.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.rows[i]
    }

    /// Replaces the row at index `i`.
    pub fn set_row(&mut self, i: usize, row: Vec<Value>) {
        assert_eq!(row.len(), self.arity());
        self.rows[i] = row;
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.arity());
        self.rows.push(row);
        if let Some(labels) = &mut self.labels {
            // Keep label vector aligned; unlabeled pushes get a sentinel
            // class of u32::MAX, which the metrics treat as "no label".
            labels.push(u32::MAX);
        }
    }

    /// Removes the rows at the given indices (labels follow). Indices out
    /// of range are ignored; duplicates are harmless.
    pub fn remove_rows(&mut self, indices: &[usize]) {
        if indices.is_empty() {
            return;
        }
        let mut keep = vec![true; self.rows.len()];
        for &i in indices {
            if i < keep.len() {
                keep[i] = false;
            }
        }
        let mut it = keep.iter();
        self.rows.retain(|_| *it.next().unwrap());
        if let Some(labels) = &mut self.labels {
            let mut it = keep.iter();
            labels.retain(|_| *it.next().unwrap());
        }
    }

    /// Ground-truth class labels, if attached.
    pub fn labels(&self) -> Option<&[u32]> {
        self.labels.as_deref()
    }

    /// Mutable labels, if attached.
    pub fn labels_mut(&mut self) -> Option<&mut Vec<u32>> {
        self.labels.as_mut()
    }

    /// The values of column `j` as owned `f64`s, if the column is numeric
    /// throughout.
    pub fn numeric_column(&self, j: usize) -> Option<Vec<f64>> {
        self.rows.iter().map(|r| r[j].as_num()).collect()
    }

    /// Row-major `f64` matrix of the whole dataset, if fully numeric.
    pub fn to_matrix(&self) -> Option<Vec<f64>> {
        let mut out = Vec::with_capacity(self.len() * self.arity());
        for row in &self.rows {
            for v in row {
                out.push(v.as_num()?);
            }
        }
        Some(out)
    }

    /// A new dataset restricted to the given row indices (labels follow).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let rows = indices.iter().map(|&i| self.rows[i].clone()).collect();
        let mut ds = Dataset::new(self.schema.clone(), rows);
        if let Some(labels) = &self.labels {
            ds.labels = Some(indices.iter().map(|&i| labels[i]).collect());
        }
        ds
    }

    /// Uniform random sample of `k` row indices (without replacement),
    /// deterministic in `seed`. Used by the sampling-based parameter
    /// determination (Figure 5(c), Table 4).
    pub fn sample_indices(&self, k: usize, seed: u64) -> Vec<usize> {
        let n = self.len();
        let k = k.min(n);
        // Fisher–Yates on an index array with a small xorshift generator so
        // this crate stays independent of `rand` for its core path.
        let mut idx: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for i in 0..k {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = i + (state as usize) % (n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// True when both row sets hold the same values bit for bit (see
/// [`bit_equal_row`]).
pub fn bit_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bit_equal_row(x, y))
}

/// True when both rows hold the same values bit for bit: numbers compare
/// by their bit patterns (so `0.0` and `-0.0` differ), other cells by
/// `==`.
pub fn bit_equal_row(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(u, v)| match (u, v) {
            (Value::Num(p), Value::Num(q)) => p.to_bits() == q.to_bits(),
            _ => u == v,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_distance::Value;

    fn num_rows(vals: &[[f64; 2]]) -> Vec<Vec<Value>> {
        vals.iter()
            .map(|r| r.iter().map(|&x| Value::Num(x)).collect())
            .collect()
    }

    #[test]
    fn construction_and_access() {
        let ds = Dataset::new(Schema::numeric(2), num_rows(&[[1.0, 2.0], [3.0, 4.0]]));
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.arity(), 2);
        assert_eq!(ds.row(1)[0], Value::Num(3.0));
        assert!(!ds.is_empty());
    }

    #[test]
    #[should_panic(expected = "row 0 has 1 values")]
    fn arity_mismatch_panics() {
        Dataset::new(Schema::numeric(2), vec![vec![Value::Num(1.0)]]);
    }

    #[test]
    fn from_matrix_roundtrip() {
        let ds = Dataset::from_matrix(3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.to_matrix().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn labels_and_select() {
        let ds = Dataset::from_matrix(1, &[0.0, 1.0, 2.0, 3.0]).with_labels(vec![0, 0, 1, 1]);
        let sub = ds.select(&[0, 3]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels().unwrap(), &[0, 1]);
    }

    #[test]
    fn push_keeps_labels_aligned() {
        let mut ds = Dataset::from_matrix(1, &[0.0]).with_labels(vec![7]);
        ds.push(vec![Value::Num(1.0)]);
        assert_eq!(ds.labels().unwrap(), &[7, u32::MAX]);
    }

    #[test]
    fn numeric_column_extraction() {
        let ds = Dataset::from_matrix(2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ds.numeric_column(1).unwrap(), vec![2.0, 4.0]);
    }

    #[test]
    fn text_column_is_not_numeric() {
        let mut ds = Dataset::new(Schema::text(1), vec![vec![Value::Text("x".into())]]);
        assert!(ds.numeric_column(0).is_none());
        assert!(ds.to_matrix().is_none());
        ds.set_row(0, vec![Value::Text("y".into())]);
        assert_eq!(ds.row(0)[0].as_text(), Some("y"));
    }

    #[test]
    fn sampling_is_deterministic_and_without_replacement() {
        let ds = Dataset::from_matrix(1, &(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let a = ds.sample_indices(30, 42);
        let b = ds.sample_indices(30, 42);
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 30);
        // Different seed, different sample (overwhelmingly likely).
        let c = ds.sample_indices(30, 43);
        assert_ne!(a, c);
        // Oversampling clamps to n.
        assert_eq!(ds.sample_indices(1000, 1).len(), 100);
    }

    #[test]
    fn bit_equal_compares_numbers_by_bit_pattern() {
        let a = num_rows(&[[0.0, 1.0]]);
        assert!(bit_equal(&a, &a.clone()));
        assert!(!bit_equal(&a, &num_rows(&[[-0.0, 1.0]])));
        assert!(!bit_equal(&a, &[]));
        let null = vec![vec![Value::Null, Value::Num(1.0)]];
        assert!(bit_equal(&null, &null.clone()));
        assert!(!bit_equal(&a, &null));
    }
}
